"""IPv4: header encoding, fragmentation, and reassembly (RFC 791)."""

import struct

from repro.net.addr import ip_ntoa
from repro.net.checksum import internet_checksum

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

HEADER_LEN = 20  # we do not generate options
DEFAULT_TTL = 64

FLAG_DF = 0x2  # don't fragment
FLAG_MF = 0x1  # more fragments

_IP_STRUCT = struct.Struct("!BBHHHBBHII")


class IPHeader:
    """A parsed IPv4 header (options-free on the send side)."""

    __slots__ = (
        "tos",
        "total_len",
        "ident",
        "flags",
        "frag_off",
        "ttl",
        "proto",
        "src",
        "dst",
        "header_len",
    )

    def __init__(
        self,
        src,
        dst,
        proto,
        total_len,
        ident=0,
        flags=0,
        frag_off=0,
        ttl=DEFAULT_TTL,
        tos=0,
        header_len=HEADER_LEN,
    ):
        self.src = src
        self.dst = dst
        self.proto = proto
        self.total_len = total_len
        self.ident = ident
        self.flags = flags
        self.frag_off = frag_off  # in bytes (must be a multiple of 8)
        self.ttl = ttl
        self.tos = tos
        self.header_len = header_len

    def pack(self):
        if self.frag_off % 8:
            raise ValueError("fragment offset must be a multiple of 8")
        vhl = (4 << 4) | (HEADER_LEN // 4)
        flags_frag = (self.flags << 13) | (self.frag_off // 8)
        header = bytearray(HEADER_LEN)
        _IP_STRUCT.pack_into(
            header,
            0,
            vhl,
            self.tos,
            self.total_len,
            self.ident,
            flags_frag,
            self.ttl,
            self.proto,
            0,
            self.src,
            self.dst,
        )
        checksum = internet_checksum(header)
        header[10] = checksum >> 8
        header[11] = checksum & 0xFF
        return bytes(header)

    @classmethod
    def unpack(cls, data, verify=True):
        # Runs once per received packet: the header is built with
        # ``__new__`` + direct slot stores (skipping ``__init__``) and
        # the checksum verification is written out inline.
        size = len(data)
        if size < HEADER_LEN:
            raise ValueError("IP packet too short: %d" % size)
        vhl, tos, total_len, ident, flags_frag, ttl, proto, _cksum, src, dst = (
            _IP_STRUCT.unpack_from(data, 0)
        )
        version = vhl >> 4
        header_len = (vhl & 0xF) * 4
        if version != 4:
            raise ValueError("not an IPv4 packet (version=%d)" % version)
        if header_len < HEADER_LEN or header_len > size:
            raise ValueError("bad IPv4 header length %d" % header_len)
        if verify:
            total = int.from_bytes(data[:header_len], "big")
            if header_len & 1:
                total <<= 8
            if total:
                total %= 0xFFFF
                if not total:
                    total = 0xFFFF
            while total >> 16:
                total = (total & 0xFFFF) + (total >> 16)
            if total != 0xFFFF:
                raise ValueError("bad IPv4 header checksum")
        header = cls.__new__(cls)
        header.src = src
        header.dst = dst
        header.proto = proto
        header.total_len = total_len
        header.ident = ident
        header.flags = flags_frag >> 13
        header.frag_off = (flags_frag & 0x1FFF) * 8
        header.ttl = ttl
        header.tos = tos
        header.header_len = header_len
        return header

    @property
    def more_fragments(self):
        return bool(self.flags & FLAG_MF)

    @property
    def dont_fragment(self):
        return bool(self.flags & FLAG_DF)

    def __repr__(self):
        return "<IP %s -> %s proto=%d len=%d id=%d off=%d%s>" % (
            ip_ntoa(self.src),
            ip_ntoa(self.dst),
            self.proto,
            self.total_len,
            self.ident,
            self.frag_off,
            "+MF" if self.more_fragments else "",
        )


def encapsulate(src, dst, proto, payload, ident=0, ttl=DEFAULT_TTL, flags=0,
                frag_off=0):
    """Build a complete IP packet around ``payload``."""
    header = IPHeader(
        src=src,
        dst=dst,
        proto=proto,
        total_len=HEADER_LEN + len(payload),
        ident=ident,
        ttl=ttl,
        flags=flags,
        frag_off=frag_off,
    )
    return header.pack() + bytes(payload)


def decapsulate(packet, verify=True):
    """Split an IP packet into (header, payload), honouring total_len."""
    header = IPHeader.unpack(packet, verify=verify)
    end = len(packet)
    total_len = header.total_len
    if total_len < end:
        end = total_len
    return header, bytes(packet[header.header_len : end])


def fragment(packet, mtu):
    """Split an IP packet into fragments that fit ``mtu``.

    Returns ``[packet]`` unchanged when it already fits.  Raises if the
    packet has DF set and does not fit (the caller turns that into an
    ICMP-style error).
    """
    if len(packet) <= mtu:
        return [bytes(packet)]
    header, payload = decapsulate(packet, verify=False)
    if header.dont_fragment:
        raise ValueError("packet needs fragmenting but DF is set")
    chunk = ((mtu - HEADER_LEN) // 8) * 8
    if chunk <= 0:
        raise ValueError("MTU %d too small to fragment into" % mtu)
    fragments = []
    offset = 0
    while offset < len(payload):
        piece = payload[offset : offset + chunk]
        last = offset + len(piece) >= len(payload)
        flags = header.flags
        if not last:
            flags |= FLAG_MF
        elif header.more_fragments:
            flags |= FLAG_MF  # a middle fragment being re-fragmented
        fragments.append(
            encapsulate(
                header.src,
                header.dst,
                header.proto,
                piece,
                ident=header.ident,
                ttl=header.ttl,
                flags=flags,
                frag_off=header.frag_off + offset,
            )
        )
        offset += len(piece)
    return fragments


#: Reassembly timeout: BSD used 30 seconds.
REASSEMBLY_TIMEOUT_US = 30 * 1_000_000.0


class Reassembler:
    """Per-host IP fragment reassembly with timeout-based garbage collection."""

    def __init__(self, clock, timeout_us=REASSEMBLY_TIMEOUT_US):
        self._clock = clock
        self._timeout = timeout_us
        self._partial = {}
        self.reassembled = 0
        self.timed_out = 0

    def _key(self, header):
        return (header.src, header.dst, header.proto, header.ident)

    def input(self, packet):
        """Feed one IP packet; returns a complete packet or None.

        Unfragmented packets pass straight through.  A packet whose
        header fails to parse or checksum raises ValueError instead of
        being held.
        """
        header, payload = decapsulate(packet, verify=True)
        if header.frag_off == 0 and not header.more_fragments:
            return bytes(packet)
        self._expire()
        key = self._key(header)
        state = self._partial.setdefault(
            key, {"pieces": {}, "total": None, "deadline": self._clock() + self._timeout}
        )
        state["pieces"][header.frag_off] = payload
        if not header.more_fragments:
            state["total"] = header.frag_off + len(payload)
        if state["total"] is None:
            return None
        # Check contiguity from 0 to total.
        have = 0
        data = bytearray(state["total"])
        for off in sorted(state["pieces"]):
            piece = state["pieces"][off]
            if off > have:
                return None  # hole
            data[off : off + len(piece)] = piece
            have = max(have, off + len(piece))
        if have < state["total"]:
            return None
        del self._partial[key]
        self.reassembled += 1
        return encapsulate(
            header.src,
            header.dst,
            header.proto,
            bytes(data),
            ident=header.ident,
            ttl=header.ttl,
        )

    def _expire(self):
        now = self._clock()
        dead = [k for k, s in self._partial.items() if s["deadline"] <= now]
        for key in dead:
            del self._partial[key]
            self.timed_out += 1

    def pending(self):
        """Number of incomplete datagrams being held."""
        return len(self._partial)
