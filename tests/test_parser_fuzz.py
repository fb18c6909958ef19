"""Parser fuzzing: arbitrary bytes into every packet-input parser.

Each parser must either parse or raise its declared error
(``ValueError`` for the wire-format parsers, ``FilterError`` for the
filter VM); an ``IndexError`` or ``struct.error`` escaping would kill a
packet-input loop.  Besides raw bytes, each parser is also fed a valid
encoding with a fuzzed tail, so the checks past the length guards are
reached too.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filter import (
    FilterError,
    FilterMachine,
    compile_arp_filter,
    compile_ip_protocol_filter,
    compile_session_filter,
)
from repro.net import ethernet, icmp, ip, udp
from repro.net.addr import ip_aton
from repro.net.arp import ArpPacket
from repro.net.tcp.header import TCPSegment

IP1 = ip_aton("10.0.0.1")
IP2 = ip_aton("10.0.0.2")

_BYTES = st.binary(max_size=96)


def _mutated(valid):
    """``valid`` truncated at a random point, with random bytes after."""
    return st.builds(lambda cut, tail, mutable: (
        (bytearray if mutable else bytes)(valid[:cut] + tail)),
        st.integers(0, len(valid)), st.binary(max_size=64), st.booleans())


_IP_PACKET = ip.encapsulate(IP1, IP2, ip.PROTO_UDP, b"x" * 16)
_TCP_SEGMENT = TCPSegment(1000, 80, 1, 2, 0x12, 8192, mss_option=1460,
                          payload=b"y" * 8).pack(IP1, IP2)
_ARP = ArpPacket.request(b"\x02" * 6, IP1, IP2).pack()
_ICMP = icmp.ICMPMessage.echo_request(7, 1, b"ping").pack()
_UDP = udp.encapsulate(IP1, IP2, 1234, 53, b"query")


def _parses_or_raises(parse, data):
    try:
        parse(data)
    except ValueError:
        pass


@given(st.one_of(_BYTES, _mutated(ethernet.encapsulate(
    b"\x02" * 6, b"\x04" * 6, ethernet.ETHERTYPE_IP, _IP_PACKET))))
def test_ethernet_unpack_fuzz(data):
    _parses_or_raises(ethernet.EthernetHeader.unpack, data)
    _parses_or_raises(ethernet.decapsulate, data)


@given(st.one_of(_BYTES, _mutated(_ARP)))
def test_arp_unpack_fuzz(data):
    _parses_or_raises(ArpPacket.unpack, data)


@given(st.one_of(_BYTES, _mutated(_IP_PACKET)), st.booleans())
def test_ip_unpack_fuzz(data, verify):
    _parses_or_raises(lambda d: ip.IPHeader.unpack(d, verify=verify), data)
    _parses_or_raises(lambda d: ip.decapsulate(d, verify=verify), data)


@given(st.one_of(_BYTES, _mutated(_ICMP)), st.booleans())
def test_icmp_unpack_fuzz(data, verify):
    _parses_or_raises(
        lambda d: icmp.ICMPMessage.unpack(d, verify=verify), data)


@given(st.one_of(_BYTES, _mutated(_UDP)), st.booleans())
def test_udp_decapsulate_fuzz(data, verify):
    _parses_or_raises(
        lambda d: udp.decapsulate(IP1, IP2, d, verify=verify), data)


# Option-bearing headers: a fuzzed data offset and option area reach
# the option parser even with checksums off.
_TCP_OPTIONS = st.builds(
    lambda words, options, payload: (
        struct.pack("!HHIIBBHHH", 1000, 80, 1, 2, words << 4, 0x10,
                    8192, 0, 0) + options + payload),
    st.integers(0, 15), st.binary(max_size=40), st.binary(max_size=16))


@given(st.one_of(_BYTES, _mutated(_TCP_SEGMENT), _TCP_OPTIONS),
       st.booleans())
def test_tcp_unpack_fuzz(data, verify):
    _parses_or_raises(
        lambda d: TCPSegment.unpack(IP1, IP2, d, verify=verify), data)


_FILTERS = [
    compile_session_filter(ip.PROTO_UDP, IP2, 53),
    compile_session_filter(ip.PROTO_TCP, IP2, 80, IP1, 1000),
    compile_ip_protocol_filter(ip.PROTO_ICMP),
    compile_arp_filter(),
]
_FRAMES = [
    ethernet.encapsulate(b"\x02" * 6, b"\x04" * 6, ethernet.ETHERTYPE_IP,
                         ip.encapsulate(IP1, IP2, ip.PROTO_UDP, _UDP)),
    ethernet.encapsulate(b"\x02" * 6, b"\x04" * 6, ethernet.ETHERTYPE_IP,
                         ip.encapsulate(IP1, IP2, ip.PROTO_TCP,
                                        _TCP_SEGMENT)),
    ethernet.encapsulate(b"\x02" * 6, b"\x04" * 6, ethernet.ETHERTYPE_ARP,
                         _ARP),
]


@settings(max_examples=200)
@given(st.one_of(_BYTES, *[_mutated(frame) for frame in _FRAMES]),
       st.integers(0, 255))
def test_filter_machine_fuzz(packet, ihl):
    # A matching prefix with a fuzzed IP header-length nibble sends the
    # indirect port loads anywhere in (or past) the packet.
    frames = [packet]
    if len(packet) > 14:
        frames.append(packet[:14] + bytes([ihl]) + packet[15:])
    vm = FilterMachine()
    for frame in frames:
        for program in _FILTERS:
            try:
                accepted, executed = vm.run(program, frame)
            except FilterError:
                continue
            assert accepted >= 0
            assert 1 <= executed <= len(program)
