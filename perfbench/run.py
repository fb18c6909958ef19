#!/usr/bin/env python3
"""The repository's benchmark: host cost of reproducing the paper and of
tail studies on scale worlds.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_tables --seed 0 \\
        --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists and what each
layer metric should move):

* ``paper_tables``  — the six paper harnesses (Tables 1-4, Figure 1).
* ``star_scale``    — two 1000-host star tail-study cells.
* ``wan_forensics`` — 12-host two-site WAN cells with request forensics.

``--trace 0`` measures the end-to-end metrics (host wall time, set-up
time, simulated frames per host second, peak resident memory) with no
profiler installed.  ``--trace 1`` runs the workload once bare and once
under cProfile and reports the per-layer ledger (:mod:`ledger`), the
simulated work counts read from the worlds, and the tracing overhead.

Every run checks the simulated output: the paper harnesses against
``benchmarks/baseline.json`` and each tail-study cell against a reference
pinned in ``perfbench/refs``.  The work counts and per-layer call counts
must also repeat exactly between passes, between the bare and the traced
pass, and between runs of the same code on the same interpreter (runs
remember them under ``.perfbench-state/``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run that cannot start (no ``src/repro`` next to it, an
unpinned seed) exits non-zero and prints no result.

``--pin SEEDS`` writes references for the given simulation seeds instead
of measuring; the paper tables are pinned by ``benchmarks/baseline.json``.
"""

import argparse
import cProfile
import gc
import hashlib
import json
import math
import os
import pstats
import random
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "repro")
REFS = os.path.join(HERE, "refs")
STATE = os.path.join(ROOT, ".perfbench-state")
BASELINE = os.path.join(ROOT, "benchmarks", "baseline.json")

#: Set-up samples per untraced run: measured passes plus set-up replays.
SETUP_SAMPLES = 3

#: The simulated work counts read from the worlds after each unit.
COUNTS = ("hw.wire.frames", "hw.wire.bytes", "hw.cpu.charges",
          "hw.cpu.busy_us", "kernel.frames_demuxed",
          "kernel.frames_dropped_no_match", "kernel.ipc.messages",
          "kernel.ipc.calls", "world.router.forwarded")

STAR_TOPOLOGY = dict(kind="star", hosts=1000, hosts_per_edge=8, spines=2,
                     sites=2, router_speedup=8.0)
STAR_WORKLOAD = dict(proto="udp", clients=24, fanout=2, request_bytes=64,
                     reply_bytes=200, size_dist="fixed",
                     window_us=500_000.0, drain_us=250_000.0)
STAR_PLACEMENTS = ("mach25", "library-shm")
STAR_LOAD = 0.15

WAN_TOPOLOGY = dict(kind="wan", hosts=12, hosts_per_edge=8, spines=2,
                    sites=2, router_speedup=8.0)
WAN_WORKLOAD = dict(proto="udp", clients=0, fanout=2, request_bytes=64,
                    reply_bytes=200, size_dist="fixed",
                    window_us=15_000.0, drain_us=150_000.0)
WAN_FORENSICS = {"sample_every": 4, "capacity": 1 << 18, "exemplars": 3}
WAN_PLACEMENT = "mach25"
WAN_LOAD = 0.1

#: Simulation seeds per workload.  ``rotation``: ``--seed n`` runs
#: ``rotation[n % len]``.  ``fixed``: every run covers all of them, in
#: an order drawn from ``--seed``.  ``held_out`` are pinned but never
#: chosen by ``--seed``; run them with ``--sim-seeds`` to re-check a
#: claim on data it was not tuned on.
SEEDS = {
    "star_scale": {"rotation": (11, 12, 13, 14), "held_out": (15,)},
    "wan_forensics": {"fixed": (21, 23), "held_out": (22, 24)},
}


def log(message):
    print("perfbench: %s" % message, file=sys.stderr)


# ----------------------------------------------------------------------
# Set-up capture: wraps the simulator's world-building functions
# ----------------------------------------------------------------------

class SetupCapture:
    """Times the world-building calls and keeps what they built.

    Each wrapped call adds its host seconds to :attr:`seconds`, records
    itself for replay (arguments that are objects built earlier in the
    same unit are recorded by reference), and keeps built networks and
    worlds alive until the unit's work counts are read.
    """

    def __init__(self):
        self.seconds = 0.0
        self.worlds = []
        self.calls = []
        self._made = {}

    def reset(self):
        self.seconds = 0.0
        self.worlds = []
        self.calls = []
        self._made = {}

    def wrap(self, module, name, keeps_world):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            recorded = tuple(("made", self._made[id(a)][0])
                             if id(a) in self._made else ("arg", a)
                             for a in args)
            start = time.perf_counter()
            result = original(*args, **kwargs)
            self.seconds += time.perf_counter() - start
            if result is not None:
                # Holding the result keeps its id from being reused.
                self._made[id(result)] = (len(self.calls), result)
            self.calls.append((original, recorded, kwargs))
            if keeps_world:
                self.worlds.append(result[0] if isinstance(result, tuple)
                                   else result)
            return result

        setattr(module, name, wrapper)


def replay_setup(calls):
    """Host seconds to redo one unit's recorded set-up calls."""
    made = []
    start = time.perf_counter()
    for fn, recorded, kwargs in calls:
        args = [made[value] if kind == "made" else value
                for kind, value in recorded]
        made.append(fn(*args, **kwargs))
    elapsed = time.perf_counter() - start
    del made
    return elapsed


def census(worlds, ports):
    """Simulated work counts of the given networks/worlds.

    ``ports`` are the IPC port classes; their counters are read from
    every live instance after a full collection, so the counts cover
    the ports still reachable when the unit ends.
    """
    counts = dict.fromkeys(COUNTS, 0)
    busy = []
    for world in worlds:
        wires = getattr(world, "wires", None) or [world.wire]
        for wire in wires:
            counts["hw.wire.frames"] += wire.frames_carried
            counts["hw.wire.bytes"] += wire.bytes_carried
        routers = getattr(world, "routers", ())
        for node in list(world.hosts) + list(routers):
            counts["hw.cpu.charges"] += node.cpu.charge_count
            busy.append(node.cpu.busy_time)
        for host in world.hosts:
            counts["kernel.frames_demuxed"] += host.kernel.frames_demuxed
            counts["kernel.frames_dropped_no_match"] += (
                host.kernel.frames_dropped_no_match)
        for router in routers:
            counts["world.router.forwarded"] += router.forwarded
    counts["hw.cpu.busy_us"] = math.fsum(busy)
    message_port, rpc_port = ports
    gc.collect()
    for obj in gc.get_referrers(message_port, rpc_port):
        if type(obj) is message_port:
            counts["kernel.ipc.messages"] += obj.messages
        elif type(obj) is rpc_port:
            counts["kernel.ipc.calls"] += obj.calls
    return counts


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Unit:
    """One harness or tail-study cell: ``run()`` returns its output and
    ``check(output)`` returns None or a description of the mismatch."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _normalize(document):
    return json.loads(json.dumps(document, sort_keys=True))


#: Cell fields a pinned reference keeps verbatim; the rest of the cell
#: (latency summary, forensics block, ...) is covered by its digest.
HEADLINE = ("issued", "completed", "censored", "world_fingerprint")


def cell_reference(cell):
    """What a reference pins of a tail-study cell: its headline fields
    and the SHA-256 of the whole cell without its wall-clock/backend
    keys, in canonical JSON."""
    cell = _normalize(cell)
    cell.pop("wallclock_seconds", None)
    cell.pop("backend", None)
    canonical = json.dumps(cell, sort_keys=True, separators=(",", ":"))
    reference = {key: cell[key] for key in HEADLINE}
    reference["sha256"] = hashlib.sha256(canonical.encode()).hexdigest()
    return reference


def ref_path(workload, seed):
    return os.path.join(REFS, "%s-%d.json" % (workload, seed))


def paper_units(seed, repro):
    bench_json = repro["bench_json"]
    with open(BASELINE) as handle:
        baseline = json.load(handle)
    for key in bench_json.VOLATILE_KEYS + ("schema",):
        baseline.pop(key, None)
    names = list(bench_json.HARNESSES)
    random.Random(seed).shuffle(names)

    def checker(name):
        def check(output):
            got = _normalize(output)
            if not got:
                return "%s produced no tables" % name
            for key, value in got.items():
                if key not in baseline:
                    return "%s: %s is not in the baseline" % (name, key)
                if value != baseline[key]:
                    return "%s: %s differs from the baseline" % (name, key)
            return None
        return check

    units = [Unit(name, bench_json.HARNESSES[name][1], checker(name))
             for name in names]
    return units, sorted(baseline)


def _cell_unit(name, reference, run):
    def check(output):
        got = cell_reference(output)
        differ = sorted(k for k in reference if got.get(k) != reference[k])
        if differ:
            return "%s differs from its pinned reference in %s" % (
                name, ", ".join(differ))
        return None
    return Unit(name, run, check)


def star_cells(seeds, tailstudy):
    for seed in seeds:
        targs = dict(STAR_TOPOLOGY, seed=seed)
        wargs = dict(STAR_WORKLOAD, seed=seed)
        for placement in STAR_PLACEMENTS:
            yield ("%s/seed%d" % (placement, seed), seed, placement,
                   lambda t=targs, w=wargs, p=placement:
                   tailstudy.run_cell(t, w, p, STAR_LOAD))


def wan_cells(seeds, tailstudy):
    for seed in seeds:
        targs = dict(WAN_TOPOLOGY, seed=seed)
        wargs = dict(WAN_WORKLOAD, seed=seed)
        yield ("%s/seed%d" % (WAN_PLACEMENT, seed), seed, WAN_PLACEMENT,
               lambda t=targs, w=wargs:
               tailstudy.run_cell(t, w, WAN_PLACEMENT, WAN_LOAD,
                                  forensics=dict(WAN_FORENSICS)))


CELLS = {"star_scale": star_cells, "wan_forensics": wan_cells}


def cell_units(workload, seeds, order_seed, repro):
    units = []
    refs = {}
    for name, seed, placement, run in CELLS[workload](
            seeds, repro["tailstudy"]):
        if seed not in refs:
            path = ref_path(workload, seed)
            if not os.path.exists(path):
                raise SystemExit("perfbench: no pinned reference for %s "
                                 "seed %d (%s); pin it with --pin %d"
                                 % (workload, seed, path, seed))
            with open(path) as handle:
                refs[seed] = json.load(handle)
        units.append(_cell_unit(name, refs[seed][placement], run))
    random.Random(order_seed).shuffle(units)
    return units


def sim_seeds(workload, seed, override):
    if override:
        return override
    choice = SEEDS[workload]
    if "fixed" in choice:
        return list(choice["fixed"])
    return [choice["rotation"][seed % len(choice["rotation"])]]


def pin(workload, seeds, repro):
    os.makedirs(REFS, exist_ok=True)
    for seed in seeds:
        reference = {}
        for name, _seed, placement, run in CELLS[workload](
                [seed], repro["tailstudy"]):
            log("pinning %s %s" % (workload, name))
            reference[placement] = cell_reference(run())
        path = ref_path(workload, seed)
        with open(path, "w") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
        log("wrote %s" % os.path.relpath(path, ROOT))


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

class Pass:
    """One run through every unit of a workload."""

    def __init__(self):
        self.wall_s = 0.0
        self.setup_s = 0.0
        self.unit_counts = []
        self.problems = []
        self.setup_calls = []
        self.tables = set()


def run_pass(units, capture, ports, profiler=None):
    """Run ``units`` once; only the units themselves are timed (and
    profiled).  Checks, counts and collections happen between them."""
    result = Pass()
    for unit in units:
        capture.reset()
        gc.collect()
        output = None
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            output = unit.run()
        except Exception:  # a unit that raises is a failed unit
            problem = "%s raised:\n%s" % (unit.name, traceback.format_exc())
        else:
            problem = None
        finally:
            if profiler is not None:
                profiler.disable()
        result.wall_s += time.perf_counter() - start
        result.setup_s += capture.seconds
        if problem is None:
            problem = unit.check(output)
            result.tables.update(output)
        if problem is not None:
            result.problems.append(problem)
        result.unit_counts.append(census(capture.worlds, ports))
        result.setup_calls.append(capture.calls)
        capture.reset()
    gc.collect()
    return result


def pass_counts(done):
    """A pass's work counts, independent of the order its units ran in
    (float counters are summed exactly)."""
    return {key: (math.fsum(c[key] for c in done.unit_counts)
                  if key == "hw.cpu.busy_us"
                  else sum(c[key] for c in done.unit_counts))
            for key in COUNTS}


# ----------------------------------------------------------------------
# Cross-run memory of the deterministic counts
# ----------------------------------------------------------------------

def code_digest():
    """Digest of the simulator and benchmark sources and the
    interpreter: runs with equal digests must count exactly alike."""
    digest = hashlib.sha256(sys.version.encode())
    for top in (PACKAGE_DIR, HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    path = os.path.join(dirpath, filename)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def remembered(kind, key, values):
    """Compare ``values`` with what an earlier run of the same code
    stored under ``key``; store them if none did.  Returns the names of
    the values that differ."""
    path = os.path.join(STATE, "%s-%s.json" % (kind, key))
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
        return sorted(name for name in set(earlier) | set(values)
                      if earlier.get(name) != values.get(name))
    os.makedirs(STATE, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(values, handle, sort_keys=True)
    os.replace(tmp, path)
    return []


# ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Measure the simulator on one workload; print the "
                    "metrics as JSON on the last line.")
    parser.add_argument("--workload", required=True,
                        choices=("paper_tables", "star_scale",
                                 "wan_forensics"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="untraced runs repeat whole passes to fill "
                             "about this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sim-seeds", default="",
                        help="comma-separated simulation seeds to run "
                             "instead of those --seed picks (tail "
                             "workloads; each needs a pinned reference)")
    parser.add_argument("--pin", default="", metavar="SEEDS",
                        help="write pinned references for these "
                             "simulation seeds and exit")
    return parser.parse_args(argv)


def _seed_list(text):
    return [int(v) for v in text.split(",") if v.strip()]


def import_simulator():
    """Import the simulator from this checkout's ``src``; returns its
    modules and the import time, or exits non-zero when there is none."""
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        raise SystemExit("perfbench: no simulator source at %s" % SRC)
    sys.path.insert(0, SRC)
    from repro.analysis import bench_json, experiments, tailstudy, tracing
    from repro.kernel.ipc import MessagePort, RPCPort
    import repro
    if os.path.dirname(os.path.abspath(repro.__file__)) != PACKAGE_DIR:
        raise SystemExit("perfbench: imported repro from %s, not %s"
                         % (repro.__file__, PACKAGE_DIR))
    modules = {"bench_json": bench_json, "experiments": experiments,
               "tailstudy": tailstudy, "tracing": tracing,
               "ports": (MessagePort, RPCPort)}
    return modules, time.perf_counter() - start


def main(argv=None):
    args = parse_args(argv)
    repro, import_s = import_simulator()
    workload = args.workload
    if args.pin:
        if workload not in CELLS:
            raise SystemExit("perfbench: %s is pinned by %s"
                             % (workload, os.path.relpath(BASELINE, ROOT)))
        pin(workload, _seed_list(args.pin), repro)
        return 0

    capture = SetupCapture()
    for module in (repro["experiments"], repro["tracing"]):
        capture.wrap(module, "build_network", keeps_world=True)
    tailstudy = repro["tailstudy"]
    capture.wrap(tailstudy, "build_world", keeps_world=True)
    for name in ("partition_world", "harden_cut_wires", "warm_arp"):
        capture.wrap(tailstudy, name, keeps_world=False)

    if workload == "paper_tables":
        units, tables = paper_units(args.seed, repro)
        seeds = []
    else:
        seeds = sim_seeds(workload, args.seed, _seed_list(args.sim_seeds))
        units = cell_units(workload, seeds, args.seed, repro)
        tables = None
    log("%s: %d units%s" % (workload, len(units),
                             ", sim seeds %s" % seeds if seeds else ""))
    ports = repro["ports"]
    digest = code_digest()
    state_key = "%s-%s-%s" % (digest, workload,
                              "_".join(map(str, sorted(seeds))) or "all")

    passes = []
    profiler = None
    measured = 0.0
    # Untraced runs add passes while at least half of one more fits in
    # --seconds, so the pass count does not flip on small timing noise.
    while not passes or (args.trace == 0 and measured
                         + passes[-1].wall_s / 2 < args.seconds):
        passes.append(run_pass(units, capture, ports))
        measured += passes[-1].wall_s
        log("pass %d: %.3f s (set-up %.3f s)"
            % (len(passes), passes[-1].wall_s, passes[-1].setup_s))
    if args.trace:
        profiler = cProfile.Profile()
        passes.append(run_pass(units, capture, ports, profiler=profiler))
        log("traced pass: %.3f s" % passes[-1].wall_s)

    problems = []
    attempted = len(units) * len(passes)
    for done in passes:
        problems.extend(done.problems)
        if tables is not None and not done.problems \
                and sorted(done.tables) != tables:
            problems.append("the harnesses did not cover every baseline "
                            "table")
    # Determinism: the simulated work must repeat exactly.
    counts = [pass_counts(done) for done in passes]
    for number, got in enumerate(counts[1:], 2):
        attempted += 1
        if got != counts[0]:
            problems.append("pass %d work counts differ from pass 1: %s"
                            % (number, sorted(k for k in COUNTS
                                              if got[k] != counts[0][k])))
    attempted += 1
    changed = remembered("counts", state_key, counts[0])
    if changed:
        problems.append("work counts differ from an earlier run of the "
                        "same code: %s" % changed)

    metrics = {}
    if args.trace:
        import ledger
        try:
            folded = ledger.fold(pstats.Stats(profiler).stats, PACKAGE_DIR)
        except ValueError as exc:
            raise SystemExit("perfbench: %s" % exc)
        for name, (value, unit) in ledger.metrics(folded).items():
            metrics[name] = {"value": value, "unit": unit}
        for name in COUNTS:
            metrics[name] = {"value": counts[-1][name], "unit": (
                "us" if name == "hw.cpu.busy_us" else "count")}
        metrics["trace_overhead_x"] = {
            "value": passes[-1].wall_s / passes[0].wall_s, "unit": "x"}
        calls = {name: entry["value"] for name, entry in metrics.items()
                 if name.endswith(".calls")}
        attempted += 1
        changed = remembered("calls", "%s-order%d" % (state_key, args.seed),
                             calls)
        if changed:
            problems.append("per-layer call counts differ from an earlier "
                            "traced run of the same code: %s" % changed)
    else:
        # Set-up is sampled at least SETUP_SAMPLES times: once per pass,
        # then by replaying the first pass's recorded set-up calls.
        setup_samples = [done.setup_s for done in passes]
        for _ in range(SETUP_SAMPLES - len(passes)):
            replayed = 0.0
            for unit_calls in passes[0].setup_calls:
                gc.collect()
                replayed += replay_setup(unit_calls)
            setup_samples.append(replayed)
        gc.collect()
        frames = counts[0]["hw.wire.frames"]
        metrics = {
            "wall_s": statistics.median(done.wall_s for done in passes),
            "setup_s": import_s + statistics.median(setup_samples),
            "frames_per_s": statistics.median(
                frames / (done.wall_s - done.setup_s) for done in passes),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units_of = {"wall_s": "s", "setup_s": "s", "frames_per_s": "1/s",
                    "peak_rss_mb": "MB"}
        metrics = {name: {"value": value, "unit": units_of[name]}
                   for name, value in metrics.items()}

    for problem in problems:
        log("FAILED: %s" % problem)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
