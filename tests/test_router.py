"""Multi-segment topologies through the IP router."""

import pytest

from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM
from repro.hw.platforms import DECSTATION_5000_200
from repro.hw.wire import EthernetWire
from repro.net.addr import ip_aton
from repro.sim.engine import Simulator
from repro.world.configs import CONFIGS, Placement
from repro.world.host import Host
from repro.world.router import Router

NET1_HOST = "10.0.1.1"
NET2_HOST = "10.0.2.1"
GW1, GW2 = "10.0.1.254", "10.0.2.254"
BOUND = 600_000_000


def build_routed_world(config_key="mach25"):
    """Two hosts on different segments joined by a router."""
    sim = Simulator()
    wire1 = EthernetWire(sim, name="net1")
    wire2 = EthernetWire(sim, name="net2")
    spec = CONFIGS[config_key]
    host1 = Host(sim, wire1, NET1_HOST, DECSTATION_5000_200, name="h1",
                 integrated_filter=spec.integrated_filter)
    host2 = Host(sim, wire2, NET2_HOST, DECSTATION_5000_200, name="h2",
                 integrated_filter=spec.integrated_filter)
    host1.route_table.add("10.0.2.0", 24, iface="en0", gateway=GW1)
    host2.route_table.add("10.0.1.0", 24, iface="en0", gateway=GW2)
    router = Router(sim, DECSTATION_5000_200, name="rtr")
    router.attach(wire1, GW1)
    router.attach(wire2, GW2)
    p1 = Placement(spec, host1)
    p2 = Placement(spec, host2)

    class World:
        pass

    world = World()
    world.sim = sim
    world.router = router

    def run_all(gens, until=None):
        return sim.run_all(gens, until=until)

    world.run_all = run_all
    return world, p1, p2


def test_ping_across_router():
    world, p1, p2 = build_routed_world()
    api = p2.new_app()

    def prog():
        rtt = yield from api.ping(ip_aton(NET1_HOST))
        return rtt

    rtt = world.run_all([prog()], until=BOUND)[0]
    assert rtt is not None
    assert world.router.forwarded >= 2  # request and reply both forwarded


def test_ping_the_router_itself():
    world, _p1, p2 = build_routed_world()
    api = p2.new_app()

    def prog():
        return (yield from api.ping(ip_aton(GW2)))

    assert world.run_all([prog()], until=BOUND)[0] is not None


@pytest.mark.parametrize("config", ["mach25", "library-shm-ipf"])
def test_tcp_across_router(config):
    world, p1, p2 = build_routed_world(config)
    api_a = p1.new_app()
    api_b = p2.new_app()
    ready = world.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7700)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd, peer = yield from api_a.accept(fd)
        data = yield from api_a.recv_exactly(cfd, 20_000)
        return peer, data

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (ip_aton(NET1_HOST), 7700))
        yield from api_b.send_all(fd, b"r" * 20_000)
        return "sent"

    (peer, data), _ = world.run_all([server(), client()], until=BOUND)
    assert data == b"r" * 20_000
    assert peer[0] == ip_aton(NET2_HOST)  # the real source, across subnets
    assert world.router.forwarded > 20


def test_udp_fragmentation_across_router():
    world, p1, p2 = build_routed_world()
    api_a = p1.new_app()
    api_b = p2.new_app()
    ready = world.sim.event()
    big = bytes(range(256)) * 12  # 3072 bytes: fragments on the wire

    def server():
        fd = yield from api_a.socket(SOCK_DGRAM)
        yield from api_a.bind(fd, 9700)
        ready.succeed()
        data, src = yield from api_a.recvfrom(fd)
        return data

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_DGRAM)
        yield from api_b.sendto(fd, big, (ip_aton(NET1_HOST), 9700))

    data, _ = world.run_all([server(), client()], until=BOUND)
    assert data == big


def test_traceroute_discovers_the_path():
    world, p1, p2 = build_routed_world()
    api = p2.new_app()

    def prog():
        hops = yield from api.traceroute(ip_aton(NET1_HOST))
        return hops

    hops = world.run_all([prog()], until=BOUND)[0]
    assert len(hops) == 2
    assert hops[0][1] == ip_aton(GW2)  # the router announces itself
    assert hops[1][1] == ip_aton(NET1_HOST)  # then the target replies
    assert all(rtt is not None and rtt > 0 for _h, _ip, rtt in hops)
    assert hops[0][2] < hops[1][2]  # nearer hop answers sooner


def test_traceroute_unreachable_target_fills_with_stars():
    world, _p1, p2 = build_routed_world()
    api = p2.new_app()

    def prog():
        # 10.0.1.77 routes via the gateway, but no such host answers ARP
        # on the far segment: probes beyond the router die silently.
        hops = yield from api.traceroute(ip_aton("10.0.1.77"), max_hops=3)
        return hops

    hops = world.run_all([prog()], until=BOUND)[0]
    assert len(hops) == 3
    assert hops[0][1] == ip_aton(GW2)  # TTL=1 still dies at the router
    assert all(ip_addr is None for _h, ip_addr, _r in hops[1:])


def test_ttl_expiry_draws_time_exceeded():
    """A packet whose TTL dies at the router is answered with ICMP time
    exceeded (the traceroute mechanism)."""
    world, p1, p2 = build_routed_world()
    host2 = p2.host
    from repro.net import icmp, ip
    from repro.net import udp as udpmod

    captured = []
    stack = p2._backend.stack  # the in-kernel stack of host 2
    original = stack._icmp_input

    def spy(header, payload):
        captured.append(icmp.ICMPMessage.unpack(payload, verify=False))
        yield from original(header, payload)

    stack._icmp_input = spy

    def prog():
        # Hand-build a TTL=1 datagram to the far side and transmit it
        # through the kernel send trap, bypassing the stack's default TTL.
        from repro.net import ethernet

        dgram = udpmod.encapsulate(host2.ip, ip_aton(NET1_HOST), 5000, 9,
                                   b"dies at the router")
        packet = ip.encapsulate(host2.ip, ip_aton(NET1_HOST), ip.PROTO_UDP,
                                dgram, ttl=1)
        gateway_mac = yield from host2.arp.resolve(stack.ctx, ip_aton(GW2))
        frame = ethernet.encapsulate(gateway_mac, host2.mac,
                                     ethernet.ETHERTYPE_IP, packet)
        yield from host2.kernel.netif_send(stack.ctx, frame, wired=True)

    world.run_all([prog()], until=BOUND)
    world.sim.run(until=world.sim.now + 10_000_000)
    assert world.router.ttl_expired == 1
    assert any(m.type == icmp.TYPE_TIME_EXCEEDED for m in captured)


def test_oversize_df_datagram_is_dropped_not_fatal():
    """A frame longer than the Ethernet MTU carrying a DF datagram must
    not kill the router's input loop: it is dropped and counted, and the
    interface keeps forwarding afterwards."""
    from repro.net import ethernet, ip
    from repro.net import udp as udpmod

    world, _p1, p2 = build_routed_world()
    router = world.router
    iface = router.interfaces[1]  # the router's leg on host 2's wire
    host2 = p2.host
    dgram = udpmod.encapsulate(host2.ip, ip_aton(NET1_HOST), 5000, 9,
                               b"x" * 1800)
    packet = ip.encapsulate(host2.ip, ip_aton(NET1_HOST), ip.PROTO_UDP,
                            dgram, flags=ip.FLAG_DF)
    # ethernet.encapsulate refuses oversize payloads; build the frame by
    # hand, as a misbehaving station would put it on the wire.
    frame = (iface.mac + host2.mac
             + ethernet.ETHERTYPE_IP.to_bytes(2, "big") + packet)
    assert len(frame) > ethernet.HEADER_LEN + ethernet.MTU
    iface.nic.frame_arrived(frame)
    api = p2.new_app()

    def prog():
        return (yield from api.ping(ip_aton(NET1_HOST)))

    assert world.run_all([prog()], until=BOUND)[0] is not None
    assert router.cannot_fragment == 1
    assert router.forwarded >= 2  # the echo request and its reply
