"""Scale mode: the explicit world option behind 1000-host worlds.

There is one event engine; what a scale world changes is per host — an
indexed packet-filter demux in the kernel and an armed-session tick
registry in every protocol stack.  Pinned here: the option reaches every
host of a scale world and no host of a paper world, timers fire in the
same order either way, real protocol worlds run to the same answers
(every byte moved) and stay bit-deterministic run to run, the indexed
demux runs only the programs that could accept a frame, and the tick
registry parks quiescent sessions without losing idle time.
"""

from repro.apps.ttcp import ttcp
from repro.core.sockets import SOCK_STREAM
from repro.sim.process import Timeout
from repro.world.configs import build_network
from repro.world.topology import TopologySpec, build_world


def _pair(placement="mach25", scale_mode=True):
    """Two hosts through a star hub: ``(world, placement_a, placement_b)``."""
    world = build_world(TopologySpec(kind="star", hosts=2,
                                     placement=placement, seed=5),
                        scale_mode=scale_mode)
    return world, world.placements[0], world.placements[1]


def test_scale_mode_reaches_every_host_of_a_scale_world_only():
    world = build_world(TopologySpec(kind="star", hosts=3, seed=7))
    assert world.scale_mode
    for host, placement in zip(world.hosts, world.placements):
        assert host.kernel._demux_index is not None
        assert placement._backend.stack._armed is not None
    net, pa, pb = build_network("mach25")
    for host, placement in zip(net.hosts, (pa, pb)):
        assert host.kernel._demux_index is None
        assert placement._backend.stack._armed is None


def test_scale_sim_timer_order_matches_default_engine():
    def record(sim, log, tag, delays):
        def proc():
            for delay in delays:
                yield Timeout(delay)
                log.append((sim.now, tag))
        return proc()

    def run(scale_mode):
        sim = _pair(scale_mode=scale_mode)[0].sim
        log = []
        # Same-instant ties included: both modes dispatch a batch in
        # sequence order, so ties never regroup.
        sim.spawn(record(sim, log, "a", [1.0, 2.5, 100.0, 1e6]))
        sim.spawn(record(sim, log, "b", [1.5, 2.5, 99.0, 2e6]))
        sim.spawn(record(sim, log, "c", [1.0, 3.0, 99.0, 1e6]))
        sim.run(until=3e6)
        return log

    assert run(True) == run(False)


def test_scale_sim_runs_a_real_world_to_the_same_bytes():
    world, pa, pb = _pair()
    result = ttcp(world, pb, pa, total_bytes=64 * 1024, rcvbuf_kb=24)
    assert result.bytes_moved == 64 * 1024
    assert 100 < result.throughput_kbs < 1250


def test_scale_sim_is_deterministic_run_to_run():
    def run():
        world, pa, pb = _pair("library-shm")
        result = ttcp(world, pb, pa, total_bytes=32 * 1024, rcvbuf_kb=24)
        return (result.bytes_moved, result.elapsed_us, result.throughput_kbs)

    assert run() == run()


# ----------------------------------------------------------------------
# Indexed packet-filter demux (O(1) in the number of sessions)
# ----------------------------------------------------------------------

import struct

from repro.apps.protolat import protolat
from repro.filter.compile import (
    compile_arp_filter, compile_session_filter)
from repro.filter.insn import Insn, Op
from repro.filter.vm import validate
from repro.kernel.kernel import QueueDelivery
from repro.net.addr import ip_aton
from repro.sim.sync import Channel


def _udp_frame(src_ip, dst_ip, sport, dport):
    eth = b"\x02\x00" * 6 + b"\x08\x00"
    ip = struct.pack("!BBHHHBBHII", 0x45, 0, 28, 0, 0, 64, 17, 0,
                     ip_aton(src_ip), ip_aton(dst_ip))
    udp = struct.pack("!HHHH", sport, dport, 8, 0)
    return eth + ip + udp


#: The lone host of a one-host star world.
HOST_IP = "10.1.0.1"


def _scale_host():
    world = build_world(TopologySpec(kind="star", hosts=1))
    host = world.hosts[0]
    assert host.ip == ip_aton(HOST_IP)
    assert host.kernel._demux_index is not None
    return world, host


def test_indexed_demux_selects_only_the_matching_session():
    _world, host = _scale_host()
    kernel = host.kernel
    handles = [
        kernel.install_filter(
            compile_session_filter(17, host.ip, 20000 + i),
            QueueDelivery(Channel(host.sim)))
        for i in range(100)
    ]
    frame = _udp_frame("10.0.0.2", HOST_IP, 555, 20050)
    session_cands = [h for h in kernel._demux_candidates(frame)
                     if getattr(h.program, "demux_key", (None,))[0] == "sess"]
    assert session_cands == [handles[50]]


def test_indexed_demux_exact_session_beats_wildcard():
    _world, host = _scale_host()
    kernel = host.kernel
    wildcard = kernel.install_filter(
        compile_session_filter(6, host.ip, 80),
        QueueDelivery(Channel(host.sim)))
    exact = kernel.install_filter(
        compile_session_filter(6, host.ip, 80,
                               remote_ip=ip_aton("10.0.0.2"),
                               remote_port=555),
        QueueDelivery(Channel(host.sim)), front=True)
    frame = _udp_frame("10.0.0.2", HOST_IP, 555, 80)
    # _udp_frame writes proto 17; patch to TCP for this check.
    frame = frame[:23] + b"\x06" + frame[24:]
    cands = kernel._demux_candidates(frame)
    assert cands.index(exact) < cands.index(wildcard)


def test_indexed_demux_routes_arp_to_the_arp_bucket():
    _world, host = _scale_host()
    arp_frame = b"\x02\x00" * 6 + b"\x08\x06" + b"\x00" * 28
    cands = host.kernel._demux_candidates(arp_frame)
    assert cands, "ARP filter installed by ArpService must be a candidate"
    assert all(h.program.demux_key == ("arp",) for h in cands
               if getattr(h.program, "demux_key", None) is not None)
    assert compile_arp_filter().demux_key == ("arp",)


def test_indexed_demux_falls_back_to_unindexed_programs():
    _world, host = _scale_host()
    kernel = host.kernel
    accept_all = validate([Insn(Op.RET, k=0xFFFF)])  # plain list, no key
    handle = kernel.install_filter(accept_all, QueueDelivery(Channel(host.sim)))
    frame = _udp_frame("10.0.0.2", HOST_IP, 1, 2)
    assert handle in kernel._demux_candidates(frame)
    assert kernel.remove_filter(handle)
    assert handle not in kernel._demux_candidates(frame)


def test_indexed_demux_remove_filter_cleans_the_index():
    _world, host = _scale_host()
    kernel = host.kernel
    handle = kernel.install_filter(
        compile_session_filter(17, host.ip, 9999),
        QueueDelivery(Channel(host.sim)))
    frame = _udp_frame("10.0.0.2", HOST_IP, 1, 9999)
    assert handle in kernel._demux_candidates(frame)
    assert kernel.remove_filter(handle)
    assert handle not in kernel._demux_candidates(frame)
    assert not kernel.remove_filter(handle)  # idempotent, as before


def test_indexed_demux_runs_constant_programs_under_filter_load():
    """With 150 extra sessions installed, an indexed kernel still runs
    only a couple of programs per arriving frame where the linear scan
    runs most of the install list."""

    def run(scale_mode):
        world, pa, pb = _pair(scale_mode=scale_mode)
        for host in world.hosts:
            for i in range(150):
                # front=True puts the noise ahead of the stack's own
                # protocol filters, where a linear scan must wade
                # through it for every arriving frame.
                host.kernel.install_filter(
                    compile_session_filter(17, host.ip, 30000 + i),
                    QueueDelivery(Channel(world.sim)), front=True)
        before = sum(h.kernel._vm.insns_executed for h in world.hosts)
        result = protolat(world, pb, pa, proto="udp", message_size=64,
                          rounds=5)
        after = sum(h.kernel._vm.insns_executed for h in world.hosts)
        assert result.rounds == 5
        return after - before

    linear = run(scale_mode=False)
    indexed = run(scale_mode=True)
    assert indexed * 10 < linear


# ----------------------------------------------------------------------
# Scale-mode tick registry (armed sessions only)
# ----------------------------------------------------------------------

def test_scale_tick_registry_parks_quiescent_sessions():
    world, pa, pb = _pair()
    result = protolat(world, pb, pa, proto="tcp", message_size=200, rounds=3)
    assert result.rounds == 3
    stacks = [pa._backend.stack, pb._backend.stack]
    assert all(s._armed is not None for s in stacks)
    # Give the slow timer a few seconds: every surviving session has
    # gone quiescent (or into TIME_WAIT, whose 2MSL timer keeps it
    # armed until expiry), so the armed registries must be far smaller
    # than "every session, forever".
    world.sim.run(until=world.sim.now + 5_000_000)
    for stack in stacks:
        for session in stack._armed:
            assert stack._needs_ticks(session.conn)


def test_scale_tick_registry_credits_idle_time_on_rearm():
    world, pa, pb = _pair()
    # Establish a connection, let it idle long enough to be parked,
    # then send again: the transfer must still complete (and the
    # re-arm credits the skipped slow ticks into t_idle first).
    api_a, api_b = pa.new_app(), pb.new_app()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7070)
        yield from api_a.listen(fd)
        child, _addr = yield from api_a.accept(fd)
        total = b""
        while len(total) < 6:
            data = yield from api_a.recv(child, 64)
            if not data:
                break
            total += data
        yield from api_a.close(child)
        yield from api_a.close(fd)
        return total

    def client():
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (world.hosts[0].ip, 7070))
        yield from api_b.send_all(fd, b"abc")
        # Idle well past several slow ticks: the session parks.
        yield Timeout(10_000_000.0)
        yield from api_b.send_all(fd, b"def")
        yield from api_b.close(fd)
        return b"ok"

    got, _ = world.run_all([server(), client()])
    assert got == b"abcdef"
