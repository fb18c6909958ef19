"""Golden schedules for the paper's two-host worlds.

Each cell runs one small workload on a paper placement and pins the
SHA-256 of what the simulator itself accumulated along the way: the
final clock, the wire's frame and byte counts, every host CPU's busy
time and charge count, and the placement ledgers' per-layer totals and
counts.  The cells cover every packet-dispatch path: a TCP transfer
(drain, input trains, delayed ACKs) on each placement style, a UDP
datagram to a closed port (the ICMP port-unreachable output path), and
a routed ping plus traceroute (the ``ttl`` output path).

Only running sums the simulator keeps are pinned — never a float built
by ``sum()``, whose rounding changed in Python 3.12.  Floats serialize
through ``repr``, which is exact.  Fragmented traffic is left out: these
cells pin the unfragmented paths the paper harnesses drive.
"""

import hashlib
import json

import pytest

from repro.apps.ttcp import ttcp
from repro.core.sockets import SOCK_DGRAM
from repro.hw.platforms import DECSTATION_5000_200
from repro.hw.wire import EthernetWire
from repro.net.addr import ip_aton
from repro.sim.engine import Simulator
from repro.stack.engine import PortUnreachable
from repro.world.configs import CONFIGS, STYLE_LIBRARY, Placement, build_network
from repro.world.host import Host
from repro.world.router import Router

BOUND = 600_000_000


def ledger(accounting):
    return {layer: [accounting.totals[layer], accounting.counts[layer]]
            for layer in sorted(accounting.totals)}


def fingerprint(sim, wires, placements, extra):
    """The accumulated state of one finished cell, canonically."""
    hosts = []
    for placement in placements:
        cpu = placement.host.cpu
        entry = {"host": placement.host.name, "busy": cpu.busy_time,
                 "charges": cpu.charge_count,
                 "ledger": ledger(placement.accounting)}
        if placement.spec.style == STYLE_LIBRARY:
            entry["server"] = ledger(placement.server.accounting)
        hosts.append(entry)
    doc = {"now": sim.now,
           "wires": [[w.frames_carried, w.bytes_carried] for w in wires],
           "hosts": hosts, "extra": extra}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_ttcp(config):
    net, pa, pb = build_network(config)
    result = ttcp(net, pa, pb, total_bytes=64 * 1024, until=BOUND)
    assert result.bytes_moved == 64 * 1024
    return fingerprint(net.sim, [net.wire], [pa, pb],
                       [result.bytes_moved, result.elapsed_us,
                        result.sender_elapsed_us])


def run_closed_port(config):
    net, pa, pb = build_network(config)
    api = pb.new_app()

    def prog():
        fd = yield from api.socket(SOCK_DGRAM)
        yield from api.connect(fd, (pa.host.ip, 9999))  # nobody listens
        yield from api.send(fd, b"anyone home?")
        try:
            yield from api.recv(fd, 100)
        except PortUnreachable:
            return "refused"
        return "no error"

    assert net.run_all([prog()], until=BOUND) == ["refused"]
    return fingerprint(net.sim, [net.wire], [pa, pb], [])


def run_traceroute():
    """The world of ``examples/traceroute.py``: two hosts, two routers,
    three segments."""
    sim = Simulator()
    net1 = EthernetWire(sim, name="net1")
    net2 = EthernetWire(sim, name="net2", propagation_us=2_000)
    net3 = EthernetWire(sim, name="net3")
    h1 = Host(sim, net1, "10.0.1.1", DECSTATION_5000_200, name="h1",
              integrated_filter=True)
    h2 = Host(sim, net3, "10.0.3.1", DECSTATION_5000_200, name="h2",
              integrated_filter=True)
    r1 = Router(sim, DECSTATION_5000_200, name="r1")
    r1.attach(net1, "10.0.1.254")
    r1.attach(net2, "10.0.2.1")
    r1.add_route("10.0.3.0", 24, gateway="10.0.2.2")
    r2 = Router(sim, DECSTATION_5000_200, name="r2")
    r2.attach(net2, "10.0.2.2")
    r2.attach(net3, "10.0.3.254")
    r2.add_route("10.0.1.0", 24, gateway="10.0.2.1")
    h1.route_table.add("0.0.0.0", 0, iface="en0", gateway="10.0.1.254")
    h2.route_table.add("0.0.0.0", 0, iface="en0", gateway="10.0.3.254")
    spec = CONFIGS["library-shm-ipf"]
    p1, p2 = Placement(spec, h1), Placement(spec, h2)
    api = p1.new_app(name="tracer")
    target = ip_aton("10.0.3.1")

    def prog():
        rtt = yield from api.ping(target)
        hops = yield from api.traceroute(target)
        return rtt, hops

    proc = sim.spawn(prog())
    sim.run(until=120_000_000)
    rtt, hops = proc.value
    assert [reporter for _hop, reporter, _rtt in hops] == [
        ip_aton("10.0.1.254"), ip_aton("10.0.2.2"), target]
    return fingerprint(sim, [net1, net2, net3], [p1, p2],
                       [rtt, hops, r1.forwarded, r2.forwarded])


CELLS = {
    "ttcp-mach25": (run_ttcp, "mach25"),
    "ttcp-ux": (run_ttcp, "ux"),
    "ttcp-library-ipc": (run_ttcp, "library-ipc"),
    "ttcp-library-shm-ipf": (run_ttcp, "library-shm-ipf"),
    "ttcp-library-newapi-shm": (run_ttcp, "library-newapi-shm"),
    "closed-port-mach25": (run_closed_port, "mach25"),
    "closed-port-library-shm": (run_closed_port, "library-shm"),
    "traceroute": (run_traceroute,),
}

GOLDEN = {
    "closed-port-library-shm":
        "ac69a0eb4a5a2ebd57805e2ebd7a07f16e508e4634636bd4fee6b20a08c4fcee",
    "closed-port-mach25":
        "566a788d5c882fc5254288821f0082ad0f860bd8d3ce1b9044fcbf04aa058b36",
    "traceroute":
        "d78e06caa5e2900e86d338a444d78e75c99e7566fcb31ae62e9ccee003b38cdb",
    "ttcp-library-ipc":
        "aaad3532ced03f01e18b4837ad8dcfcb96d2d11e310b34dcf476d58906bd5481",
    "ttcp-library-newapi-shm":
        "70ccd09a6d200f6a4aecc84a18f0677eb217255a3beff14d9a0032707bafa03a",
    "ttcp-library-shm-ipf":
        "84af3052fc01971afc973b75f61d12bddc5c064d3fe64b10467b7295b6069fd2",
    "ttcp-mach25":
        "36477b90eb94a247b3806d5e092b7f15f09c3ea6b781c108bb56b483e00e229f",
    "ttcp-ux":
        "c7e3153f0c4e6648484264bd5c25c99d36fd0246faec4490377869ed848e914b",
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_paper_cell_matches_its_golden_digest(name):
    run, *args = CELLS[name]
    assert digest(run(*args)) == GOLDEN[name]
