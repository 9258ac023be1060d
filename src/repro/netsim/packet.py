"""Packets and protocol headers.

Real header layouts and a real RFC 1071 internet checksum: the stratum-2
components (checksum validators, header processors, classifiers) operate
on honest bytes, so their per-packet costs and failure modes are faithful
even though the wire is simulated.

Addresses are integers internally; the helpers accept and render the usual
dotted/colon notations via :mod:`ipaddress`.
"""

from __future__ import annotations

import ipaddress
import itertools
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro.opencom.errors import OpenComError
from repro.osbase.memory import DATAPATH_LEDGER as _LEDGER

_PACKET_IDS = itertools.count(1)

#: IP protocol numbers used across the system.
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17
#: Locally chosen protocol number for stratum-4 signaling payloads.
PROTO_SIGNALING = 253
#: Locally chosen protocol number for stratum-3 active-network capsules.
PROTO_ACTIVE = 254


class PacketError(OpenComError):
    """Malformed packet or header operation."""


def _bad_first_byte(first: int) -> str:
    """Why byte 0 = *first* is refused where IPv4 means 0x45 (no options)."""
    if first >> 4 == 4:
        return f"IPv4 header length field (IHL) {first & 0xF} is not 5: no options"
    return f"not an IPv4 header (IP version {first >> 4})"


def ipv4(address: str | int) -> int:
    """Parse an IPv4 address to its integer form."""
    if isinstance(address, int):
        return address
    return int(ipaddress.IPv4Address(address))


def ipv6(address: str | int) -> int:
    """Parse an IPv6 address to its integer form."""
    if isinstance(address, int):
        return address
    return int(ipaddress.IPv6Address(address))


def format_ipv4(address: int) -> str:
    """Render an integer IPv4 address in dotted notation."""
    return str(ipaddress.IPv4Address(address))


def format_ipv6(address: int) -> str:
    """Render an integer IPv6 address in colon notation."""
    return str(ipaddress.IPv6Address(address))


def internet_checksum(data: bytes | bytearray | memoryview) -> int:
    """RFC 1071 16-bit one's-complement checksum.

    One bulk unpack + deferred carry fold instead of a per-word loop: the
    sum of n 16-bit words needs at most ``log2(n)`` end-around folds, so
    folding after the sum is equivalent to folding per word (RFC 1071 §2,
    "deferred carries") and several times faster — this runs twice per
    forwarded IPv4 packet in every system the benchmarks compare.

    Accepts any buffer (bytes, bytearray, memoryview) without copying: the
    zero-copy path checksums header *views* in place.  An odd trailing
    byte is folded in as its zero-padded word directly — the RFC's virtual
    pad byte — instead of reallocating ``data + b"\\x00"``.
    """
    n = len(data)
    if n % 2:
        total = data[n - 1] << 8
        n -= 1
    else:
        total = 0
    total += sum(struct.unpack_from(f"!{n // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def incremental_checksum_update(checksum: int, old_word: int, new_word: int) -> int:
    """RFC 1624 incremental checksum update (equation 3).

    Given a stored header checksum and one 16-bit word changing from
    *old_word* to *new_word*, returns the new checksum without re-summing
    the header: ``HC' = ~(~HC + ~m + m')``.  Equation 3 (rather than RFC
    1141's equation 2) is used because it cannot produce the ``-0``
    anomaly when the sum collapses.  Apply once per changed 16-bit word
    (TTL decrement touches one word, a NAT address rewrite two).
    """
    total = (~checksum & 0xFFFF) + (~old_word & 0xFFFF) + (new_word & 0xFFFF)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_FNV64_MASK = 0xFFFFFFFFFFFFFFFF

#: Five-tuples :func:`flow_hash_fields` remembers (least recently used
#: evicted first).  Measured worst case ≈ 350 B per entry (a v6 key's two
#: 128-bit addresses included), so a full memo holds ≈ 5.5 MiB.
FLOW_HASH_MEMO_SIZE = 1 << 14


@lru_cache(maxsize=FLOW_HASH_MEMO_SIZE)
def flow_hash_fields(
    version: int, src: int, dst: int, sport: int, dport: int, proto: int
) -> int:
    """Deterministic 64-bit FNV-1a hash over a packet's five-tuple.

    This is the RSS-style *steering* hash: the sharded datapath
    (:mod:`repro.osbase.sharding`) uses ``flow_hash % shards`` to pin
    every packet of a flow to one forwarding worker, which is what makes
    per-flow ordering a per-shard FIFO property.  Two invariants matter
    and are regression-tested:

    - **stability across representations** — the hash is a pure function
      of the five-tuple field *values*, so a raw wire frame, a
      materialised :class:`Packet` and a zero-copy
      :class:`~repro.netsim.wire.WirePacket` of the same packet steer
      identically (``flow_hash_of`` parses raw bytes straight off the
      wire; the packet classes hash their ``flow_key()``);
    - **stability across runs** — no salted ``hash()`` anywhere, so a
      trace steers the same way in every process (deterministic
      experiments, diffable shard counters).

    Addresses are mixed at their native width (4 bytes for v4, 16 for
    v6) so v4/v6 flows sharing low-order address bits do not collide
    structurally.  The raw FNV state is then avalanched with the
    murmur3 64-bit finaliser: steering takes ``hash % shards`` with
    power-of-two shard counts, and plain FNV-1a's low bit is just the
    XOR of the input bytes' low bits — without the finaliser, traces
    whose per-flow low bits cancel (e.g. the same counter feeding both a
    source octet and a port) would collapse onto half the shards.

    The value is memoised per five-tuple: a trace's frames repeat a
    bounded set of flows, so steering pays the per-byte loop once per
    flow, not once per frame.  The memo holds at most
    :data:`FLOW_HASH_MEMO_SIZE` (2^14) entries, ≈ 5.5 MiB in the worst
    case.  A hit costs ≈ 3 % of the loop; a miss costs the loop plus
    ≈ 5–10 % of memo bookkeeping (``cache_info()`` reports hits and
    misses).
    """
    h = _FNV64_OFFSET
    for value, width in (
        (version, 1),
        (src, 16 if version == 6 else 4),
        (dst, 16 if version == 6 else 4),
        (sport, 2),
        (dport, 2),
        (proto, 1),
    ):
        for shift in range((width - 1) * 8, -1, -8):
            h ^= (value >> shift) & 0xFF
            h = (h * _FNV64_PRIME) & _FNV64_MASK
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _FNV64_MASK
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _FNV64_MASK
    h ^= h >> 33
    return h


@dataclass
class IPv4Header:
    """IPv4 header (20 bytes, no options: a parsed header length field
    other than 5 words is malformed)."""

    src: int
    dst: int
    ttl: int = 64
    protocol: int = PROTO_UDP
    dscp: int = 0
    ecn: int = 0
    identification: int = 0
    total_length: int = 20
    checksum: int = 0

    VERSION = 4
    HEADER_LEN = 20

    def compute_checksum(self) -> int:
        """Checksum over the header with the checksum field zeroed."""
        return internet_checksum(self._pack(checksum=0))

    def refresh_checksum(self) -> None:
        """Store the freshly computed checksum (after any field change)."""
        self.checksum = self.compute_checksum()

    def checksum_ok(self) -> bool:
        """Validate the stored checksum."""
        return self.checksum == self.compute_checksum()

    def decrement_ttl(self) -> bool:
        """Age the header one hop: returns False (untouched) when the TTL
        is already expired, otherwise decrements and refreshes the
        checksum.

        The byte handling is polymorphic: on this materialised header the
        refresh is a full RFC 1071 recomputation; the wire-resident view
        (:class:`repro.netsim.wire.V4View`) overrides it with an in-place
        RFC 1624 incremental update.
        """
        if self.ttl <= 1:
            return False
        self.ttl -= 1
        self.refresh_checksum()
        return True

    def rewrite_src(self, new_src: int) -> None:
        """Rewrite the source address and refresh the checksum (NAT path;
        the wire view overrides with an incremental update)."""
        self.src = new_src
        self.refresh_checksum()

    def rewrite_dst(self, new_dst: int) -> None:
        """Rewrite the destination address and refresh the checksum (NAT
        path; the wire view overrides with an incremental update)."""
        self.dst = new_dst
        self.refresh_checksum()

    def _pack(self, *, checksum: int | None = None) -> bytes:
        _LEDGER.record_copy(self.HEADER_LEN)
        version_ihl = (4 << 4) | 5
        tos = ((self.dscp & 0x3F) << 2) | (self.ecn & 0x3)
        return struct.pack(
            "!BBHHHBBHII",
            version_ihl,
            tos,
            self.total_length,
            self.identification,
            0,  # flags/fragment offset: fragmentation is out of scope
            self.ttl,
            self.protocol,
            self.checksum if checksum is None else checksum,
            self.src,
            self.dst,
        )

    def to_bytes(self) -> bytes:
        """Serialise the header (checksum as stored)."""
        return self._pack()

    def pack_into(
        self, buf: bytearray | memoryview, offset: int = 0, *,
        checksum: int | None = None,
    ) -> int:
        """Serialise the header into *buf* at *offset*; returns the offset
        just past it.  No intermediate ``bytes`` is allocated."""
        version_ihl = (4 << 4) | 5
        tos = ((self.dscp & 0x3F) << 2) | (self.ecn & 0x3)
        struct.pack_into(
            "!BBHHHBBHII",
            buf,
            offset,
            version_ihl,
            tos,
            self.total_length,
            self.identification,
            0,  # flags/fragment offset: fragmentation is out of scope
            self.ttl,
            self.protocol,
            self.checksum if checksum is None else checksum,
            self.src,
            self.dst,
        )
        return offset + self.HEADER_LEN

    @classmethod
    def from_view(
        cls, view: bytes | bytearray | memoryview, offset: int = 0
    ) -> "IPv4Header":
        """Parse 20 header bytes at *offset* without slicing a copy."""
        if len(view) - offset < cls.HEADER_LEN:
            raise PacketError(
                f"IPv4 header needs 20 bytes, got {len(view) - offset}"
            )
        (
            version_ihl,
            tos,
            total_length,
            identification,
            _flags_frag,
            ttl,
            protocol,
            checksum,
            src,
            dst,
        ) = struct.unpack_from("!BBHHHBBHII", view, offset)
        if version_ihl != 0x45:
            raise PacketError(_bad_first_byte(version_ihl))
        return cls(
            src=src,
            dst=dst,
            ttl=ttl,
            protocol=protocol,
            dscp=tos >> 2,
            ecn=tos & 0x3,
            identification=identification,
            total_length=total_length,
            checksum=checksum,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Header":
        """Parse 20 header bytes."""
        return cls.from_view(data)


@dataclass
class IPv6Header:
    """IPv6 header (40 bytes)."""

    src: int
    dst: int
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0
    payload_length: int = 0
    next_header: int = PROTO_UDP

    VERSION = 6
    HEADER_LEN = 40

    def decrement_hop_limit(self) -> bool:
        """Age the header one hop: False when already expired, otherwise
        decrement (v6 has no header checksum to maintain)."""
        if self.hop_limit <= 1:
            return False
        self.hop_limit -= 1
        return True

    def to_bytes(self) -> bytes:
        """Serialise the header (IPv6 has no header checksum)."""
        _LEDGER.record_copy(self.HEADER_LEN)
        word0 = (6 << 28) | ((self.traffic_class & 0xFF) << 20) | (
            self.flow_label & 0xFFFFF
        )
        return (
            struct.pack("!IHBB", word0, self.payload_length, self.next_header, self.hop_limit)
            + self.src.to_bytes(16, "big")
            + self.dst.to_bytes(16, "big")
        )

    def pack_into(self, buf: bytearray | memoryview, offset: int = 0) -> int:
        """Serialise the header into *buf* at *offset*; returns the offset
        just past it."""
        word0 = (6 << 28) | ((self.traffic_class & 0xFF) << 20) | (
            self.flow_label & 0xFFFFF
        )
        struct.pack_into(
            "!IHBB", buf, offset,
            word0, self.payload_length, self.next_header, self.hop_limit,
        )
        buf[offset + 8 : offset + 24] = self.src.to_bytes(16, "big")
        buf[offset + 24 : offset + 40] = self.dst.to_bytes(16, "big")
        return offset + self.HEADER_LEN

    @classmethod
    def from_view(
        cls, view: bytes | bytearray | memoryview, offset: int = 0
    ) -> "IPv6Header":
        """Parse 40 header bytes at *offset* without slicing a copy."""
        if len(view) - offset < cls.HEADER_LEN:
            raise PacketError(
                f"IPv6 header needs 40 bytes, got {len(view) - offset}"
            )
        word0, payload_length, next_header, hop_limit = struct.unpack_from(
            "!IHBB", view, offset
        )
        if word0 >> 28 != 6:
            raise PacketError(f"not an IPv6 header (version {word0 >> 28})")
        src_hi, src_lo, dst_hi, dst_lo = struct.unpack_from(
            "!QQQQ", view, offset + 8
        )
        return cls(
            src=(src_hi << 64) | src_lo,
            dst=(dst_hi << 64) | dst_lo,
            hop_limit=hop_limit,
            traffic_class=(word0 >> 20) & 0xFF,
            flow_label=word0 & 0xFFFFF,
            payload_length=payload_length,
            next_header=next_header,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv6Header":
        """Parse 40 header bytes."""
        return cls.from_view(data)


@dataclass
class UDPHeader:
    """UDP header (8 bytes; checksum optional and unused here)."""

    sport: int
    dport: int
    length: int = 8

    HEADER_LEN = 8

    def to_bytes(self) -> bytes:
        """Serialise the header."""
        _LEDGER.record_copy(self.HEADER_LEN)
        return struct.pack("!HHHH", self.sport, self.dport, self.length, 0)

    def pack_into(self, buf: bytearray | memoryview, offset: int = 0) -> int:
        """Serialise the header into *buf* at *offset*; returns the offset
        just past it."""
        struct.pack_into("!HHHH", buf, offset, self.sport, self.dport, self.length, 0)
        return offset + self.HEADER_LEN

    @classmethod
    def from_view(
        cls, view: bytes | bytearray | memoryview, offset: int = 0
    ) -> "UDPHeader":
        """Parse 8 header bytes at *offset* without slicing a copy."""
        if len(view) - offset < cls.HEADER_LEN:
            raise PacketError(f"UDP header needs 8 bytes, got {len(view) - offset}")
        sport, dport, length, _checksum = struct.unpack_from("!HHHH", view, offset)
        return cls(sport=sport, dport=dport, length=length)

    @classmethod
    def from_bytes(cls, data: bytes) -> "UDPHeader":
        """Parse 8 header bytes."""
        return cls.from_view(data)


@dataclass
class TCPHeader:
    """TCP header (20 bytes, no options)."""

    sport: int
    dport: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535

    HEADER_LEN = 20

    def to_bytes(self) -> bytes:
        """Serialise the header."""
        _LEDGER.record_copy(self.HEADER_LEN)
        offset_flags = (5 << 12) | (self.flags & 0x1FF)
        return struct.pack(
            "!HHIIHHHH",
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            offset_flags,
            self.window,
            0,
            0,
        )

    def pack_into(self, buf: bytearray | memoryview, offset: int = 0) -> int:
        """Serialise the header into *buf* at *offset*; returns the offset
        just past it."""
        offset_flags = (5 << 12) | (self.flags & 0x1FF)
        struct.pack_into(
            "!HHIIHHHH", buf, offset,
            self.sport, self.dport, self.seq, self.ack,
            offset_flags, self.window, 0, 0,
        )
        return offset + self.HEADER_LEN

    @classmethod
    def from_view(
        cls, view: bytes | bytearray | memoryview, offset: int = 0
    ) -> "TCPHeader":
        """Parse 20 header bytes at *offset* without slicing a copy."""
        if len(view) - offset < cls.HEADER_LEN:
            raise PacketError(f"TCP header needs 20 bytes, got {len(view) - offset}")
        sport, dport, seq, ack, offset_flags, window, _c, _u = struct.unpack_from(
            "!HHIIHHHH", view, offset
        )
        return cls(
            sport=sport,
            dport=dport,
            seq=seq,
            ack=ack,
            flags=offset_flags & 0x1FF,
            window=window,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "TCPHeader":
        """Parse 20 header bytes."""
        return cls.from_view(data)


class Packet:
    """One packet travelling the simulated network.

    A packet carries a network header (v4 or v6), an optional transport
    header, a payload, and a metadata dict that in-band components use for
    classification results, ingress port, colour marks, and so on (metadata
    never crosses the wire — serialisation drops it, as real metadata
    would be).
    """

    def __init__(
        self,
        net: IPv4Header | IPv6Header,
        transport: UDPHeader | TCPHeader | None = None,
        payload: bytes = b"",
        *,
        created_at: float = 0.0,
    ) -> None:
        self.packet_id = next(_PACKET_IDS)
        self.net = net
        self.transport = transport
        self.payload = payload
        self.created_at = created_at
        self.metadata: dict[str, Any] = {}
        self._refresh_lengths()

    # -- derived fields ----------------------------------------------------------

    def _refresh_lengths(self) -> None:
        transport_len = self.transport.HEADER_LEN if self.transport else 0
        if isinstance(self.net, IPv4Header):
            self.net.total_length = (
                IPv4Header.HEADER_LEN + transport_len + len(self.payload)
            )
            self.net.refresh_checksum()
        else:
            self.net.payload_length = transport_len + len(self.payload)

    @property
    def version(self) -> int:
        """IP version (4 or 6)."""
        return self.net.VERSION

    @property
    def size_bytes(self) -> int:
        """Total on-wire size."""
        header = self.net.HEADER_LEN
        transport = self.transport.HEADER_LEN if self.transport else 0
        return header + transport + len(self.payload)

    @property
    def dscp(self) -> int:
        """Diffserv code point (traffic_class >> 2 for v6)."""
        if isinstance(self.net, IPv4Header):
            return self.net.dscp
        return self.net.traffic_class >> 2

    def flow_key(self) -> tuple:
        """Five-tuple (version, src, dst, sport, dport, proto) identifying
        the packet's flow."""
        sport = getattr(self.transport, "sport", 0)
        dport = getattr(self.transport, "dport", 0)
        proto = (
            self.net.protocol
            if isinstance(self.net, IPv4Header)
            else self.net.next_header
        )
        return (self.version, self.net.src, self.net.dst, sport, dport, proto)

    def flow_hash(self) -> int:
        """Stable RSS-style steering hash over :meth:`flow_key` (see
        :func:`flow_hash_fields` — identical for the materialised and wire
        representations of the same packet)."""
        return flow_hash_fields(*self.flow_key())

    # -- serialisation ----------------------------------------------------------------

    def write_into(self, buf: bytearray | memoryview, offset: int = 0) -> int:
        """Serialise the whole packet into *buf* at *offset* (headers via
        ``pack_into``, payload by slice assignment); returns the offset
        just past the packet.  This is the single materialisation the
        zero-copy path pays when a packet enters the wire representation.
        """
        self._refresh_lengths()
        offset = self.net.pack_into(buf, offset)
        if self.transport is not None:
            offset = self.transport.pack_into(buf, offset)
        end = offset + len(self.payload)
        buf[offset:end] = self.payload
        return end

    def to_bytes(self) -> bytes:
        """Serialise the whole packet to wire bytes."""
        size = self.size_bytes
        _LEDGER.record_copy(size)
        out = bytearray(size)
        self.write_into(out, 0)
        return bytes(out)

    @classmethod
    def from_bytes(
        cls, data: bytes | bytearray | memoryview, *, created_at: float = 0.0
    ) -> "Packet":
        """Parse wire bytes into a packet (v4 or v6, UDP/TCP transport)."""
        if not len(data):
            raise PacketError("empty packet")
        version = data[0] >> 4
        if version == 4:
            net: IPv4Header | IPv6Header = IPv4Header.from_view(data)
            offset = IPv4Header.HEADER_LEN
            proto = net.protocol
        elif version == 6:
            net = IPv6Header.from_view(data)
            offset = IPv6Header.HEADER_LEN
            proto = net.next_header
        else:
            raise PacketError(f"unknown IP version {version}")
        transport: UDPHeader | TCPHeader | None = None
        if proto == PROTO_UDP:
            transport = UDPHeader.from_view(data, offset)
            offset += UDPHeader.HEADER_LEN
        elif proto == PROTO_TCP:
            transport = TCPHeader.from_view(data, offset)
            offset += TCPHeader.HEADER_LEN
        packet = cls(net, transport, bytes(data[offset:]), created_at=created_at)
        return packet

    def copy(self) -> "Packet":
        """Deep-enough copy for fan-out paths (fresh id, copied headers and
        metadata)."""
        clone = Packet.from_bytes(self.to_bytes(), created_at=self.created_at)
        clone.metadata = dict(self.metadata)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        if isinstance(self.net, IPv4Header):
            src, dst = format_ipv4(self.net.src), format_ipv4(self.net.dst)
        else:
            src, dst = format_ipv6(self.net.src), format_ipv6(self.net.dst)
        return (
            f"<Packet#{self.packet_id} v{self.version} {src}->{dst} "
            f"{self.size_bytes}B>"
        )


def make_udp_v4(
    src: str | int,
    dst: str | int,
    *,
    sport: int = 1000,
    dport: int = 2000,
    payload: bytes = b"",
    ttl: int = 64,
    dscp: int = 0,
    created_at: float = 0.0,
) -> Packet:
    """Convenience constructor: IPv4/UDP packet."""
    net = IPv4Header(src=ipv4(src), dst=ipv4(dst), ttl=ttl, dscp=dscp, protocol=PROTO_UDP)
    transport = UDPHeader(sport=sport, dport=dport, length=UDPHeader.HEADER_LEN + len(payload))
    return Packet(net, transport, payload, created_at=created_at)


def make_udp_v6(
    src: str | int,
    dst: str | int,
    *,
    sport: int = 1000,
    dport: int = 2000,
    payload: bytes = b"",
    hop_limit: int = 64,
    traffic_class: int = 0,
    created_at: float = 0.0,
) -> Packet:
    """Convenience constructor: IPv6/UDP packet."""
    net = IPv6Header(
        src=ipv6(src),
        dst=ipv6(dst),
        hop_limit=hop_limit,
        traffic_class=traffic_class,
        next_header=PROTO_UDP,
    )
    transport = UDPHeader(sport=sport, dport=dport, length=UDPHeader.HEADER_LEN + len(payload))
    return Packet(net, transport, payload, created_at=created_at)


def make_tcp_v4(
    src: str | int,
    dst: str | int,
    *,
    sport: int = 1000,
    dport: int = 80,
    seq: int = 0,
    flags: int = 0,
    payload: bytes = b"",
    ttl: int = 64,
    dscp: int = 0,
    created_at: float = 0.0,
) -> Packet:
    """Convenience constructor: IPv4/TCP packet."""
    net = IPv4Header(src=ipv4(src), dst=ipv4(dst), ttl=ttl, dscp=dscp, protocol=PROTO_TCP)
    transport = TCPHeader(sport=sport, dport=dport, seq=seq, flags=flags)
    return Packet(net, transport, payload, created_at=created_at)
