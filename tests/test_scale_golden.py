"""Golden schedules for scale worlds.

Each cell below runs a small tail-study cell (``tailstudy.run_cell``)
with request forensics on and pins the SHA-256 of its JSON, stripped of
the host wall clock and the backend block and serialized canonically
(sorted keys, compact separators).  Any change to what a scale world
simulates — event order, charges, demux, forensics — moves a digest, so
engine refactors must leave both unchanged.  The star cell runs at a
load high enough to queue and censor requests, so same-instant event
batches are common.
"""

import hashlib
import json

import pytest

from repro.analysis import tailstudy

FORENSICS = {"sample_every": 2, "capacity": 1 << 16, "exemplars": 2}

CELLS = {
    "star": dict(
        topology_args=dict(kind="star", hosts=64, seed=11),
        workload_args=dict(proto="udp", seed=11, clients=16, fanout=2,
                           request_bytes=64, reply_bytes=200,
                           size_dist="fixed", window_us=100_000.0,
                           drain_us=100_000.0),
        placement="library-shm", load=0.6,
        counts=(1722, 1556, 166),
        sha256="5f685b9f4d97efc7201252b3d14380d9"
               "afda36aa05e1159185cdde21e6226a2b"),
    "wan": dict(
        topology_args=dict(kind="wan", hosts=12, sites=2, seed=21),
        workload_args=dict(proto="udp", seed=21, clients=0, fanout=2,
                           request_bytes=64, reply_bytes=200,
                           size_dist="fixed", window_us=15_000.0,
                           drain_us=150_000.0),
        placement="mach25", load=0.1,
        counts=(26, 26, 0),
        sha256="fa577fe73573e5a1ea97cc214d192407"
               "b677faf8ebeb5d660fc0c909977158ca"),
}


def cell_digest(cell):
    cell = dict(cell)
    cell.pop("wallclock_seconds")
    cell.pop("backend")
    canonical = json.dumps(cell, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_scale_cell_matches_its_golden_digest(name):
    spec = CELLS[name]
    cell = tailstudy.run_cell(spec["topology_args"], spec["workload_args"],
                              spec["placement"], spec["load"],
                              forensics=dict(FORENSICS))
    assert (cell["issued"], cell["completed"], cell["censored"]) == (
        spec["counts"])
    assert cell_digest(cell) == spec["sha256"]
