"""UDP datagrams longer than one Ethernet frame, on every placement.

The kernel reassembles IP fragments before its packet filter runs, so a
session filter — which needs the transport ports, present only in a
datagram's first fragment — sees whole datagrams.  Without that, a
library placement's session filter took the first fragment and the OS
server's catch-all took the rest, and neither could reassemble.
"""

import random

import pytest

from repro.core.sockets import SOCK_DGRAM
from repro.faults import FaultPlan, Reorder
from repro.world.configs import build_network

BOUND = 600_000_000
PORT = 7400


def udp_echo(net, pa, pb, payload):
    """One datagram from B to an echo server on A and back."""
    server_api = pa.new_app()
    client_api = pb.new_app()
    ready = net.sim.event()

    def server():
        fd = yield from server_api.socket(SOCK_DGRAM)
        yield from server_api.bind(fd, PORT)
        ready.succeed()
        data, src = yield from server_api.recvfrom(fd)
        yield from server_api.sendto(fd, data, src)
        return data

    def client():
        yield ready
        fd = yield from client_api.socket(SOCK_DGRAM)
        yield from client_api.connect(fd, (pa.host.ip, PORT))
        yield from client_api.send(fd, payload)
        return (yield from client_api.recv(fd, 65536))

    return net.run_all([server(), client()], until=BOUND)


@pytest.mark.parametrize("config", ["mach25", "ux", "library-ipc",
                                    "library-shm", "library-shm-ipf",
                                    "library-newapi-shm"])
def test_two_fragment_udp_echo(config):
    payload = bytes(random.Random(5).randbytes(2000))
    net, pa, pb = build_network(config)
    assert udp_echo(net, pa, pb, payload) == [payload, payload]
    for placement in (pa, pb):
        assert placement.host.kernel.reassembler.reassembled == 1
        assert placement.host.kernel.reassembler.pending() == 0


@pytest.mark.parametrize("config", ["library-ipc", "library-shm"])
def test_reordered_fragments_reassemble(config):
    """Under a reordering fault plan fragments overtake each other on the
    wire; the datagram still arrives whole and intact."""
    payload = bytes(random.Random(6).randbytes(4000))  # three fragments
    plan = FaultPlan([Reorder(0.5, hold_us=5000.0)], seed=4)
    net, pa, pb = build_network(config, fault_plan=plan)
    assert udp_echo(net, pa, pb, payload) == [payload, payload]
    assert plan.total("reordered") > 0
