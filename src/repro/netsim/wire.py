"""Wire-resident packets: the zero-copy serialisation path.

A :class:`WirePacket` materialises a packet's bytes exactly once — into a
reference-counted :class:`~repro.osbase.buffers.Buffer` drawn from the
buffer-management CF's pools (or a standalone buffer when no pool is
plumbed in) — and every subsequent header read or write goes through
``struct.unpack_from`` / ``struct.pack_into`` on a ``memoryview`` of that
buffer.  No hop on the data path allocates an intermediate ``bytes``: TTL
decrement and NAT rewrites patch fields in place and maintain the IPv4
checksum with RFC 1624 *incremental* updates instead of re-summing the
header.

Compatibility is by substitution, not by parallel API: the header *views*
(:class:`V4View`, :class:`V6View`, :class:`UDPView`, :class:`TCPView`)
subclass the materialised header dataclasses and override every field as
a property over the underlying memoryview.  ``isinstance(packet.net,
IPv4Header)`` checks, filter matching, classifier key extraction and the
LPM lookup therefore run unchanged on wire packets — their reads simply
become ``unpack_from`` on the view, and their writes ``pack_into`` — so
the component router *and* both baselines share one byte path and the
C6/C11/C12/C13 comparisons stay structural.

Fan-out is zero-copy too: :meth:`WirePacket.clone_ref` shares the backing
buffer (refcount bump, recorded as a *reference* in the
:data:`~repro.osbase.memory.DATAPATH_LEDGER`), and the first mutation of
a shared packet triggers copy-on-write unsharing (recorded as a *copy*),
so clones may safely diverge without eager duplication.
"""

from __future__ import annotations

from struct import pack_into, unpack_from
from typing import Any

from repro.netsim.packet import (
    PROTO_TCP,
    PROTO_UDP,
    IPv4Header,
    IPv6Header,
    Packet,
    PacketError,
    TCPHeader,
    UDPHeader,
    _PACKET_IDS,
    _bad_first_byte,
    flow_hash_fields,
    incremental_checksum_update,
    internet_checksum,
)
from repro.osbase.buffers import Buffer
from repro.osbase.memory import DATAPATH_LEDGER as _LEDGER

#: The shapes a raw wire frame arrives in.
_RAW_FRAME = (bytes, bytearray, memoryview)
#: What a released packet's byte reads see: one shared empty view, so a
#: use-after-release fails on an index instead of reading a recycled
#: buffer.
_RELEASED_VIEW = memoryview(b"")

#: Header lengths as globals for the per-frame parsers (IPv4: IHL 5 only).
_V4_LEN = IPv4Header.HEADER_LEN
_V6_LEN = IPv6Header.HEADER_LEN
_UDP_LEN = UDPHeader.HEADER_LEN
_TCP_LEN = TCPHeader.HEADER_LEN


class V4View(IPv4Header):
    """IPv4 header fields as properties over a wire packet's memoryview.

    Subclasses the materialised dataclass so every ``isinstance`` check
    and generic field access keeps working; reads are ``unpack_from`` and
    writes are ``pack_into`` (through the owner's copy-on-write barrier,
    :meth:`WirePacket._unshare`).
    """

    def __init__(self, owner: "WirePacket", offset: int) -> None:
        # Deliberately not the dataclass __init__: a view has no
        # materialised fields, only the owner's buffer.
        self._o = owner
        self._off = offset

    # -- field properties -------------------------------------------------------

    @property
    def src(self) -> int:
        return unpack_from("!I", self._o._mv, self._off + 12)[0]

    @src.setter
    def src(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!I", o._mv, self._off + 12, value)

    @property
    def dst(self) -> int:
        return unpack_from("!I", self._o._mv, self._off + 16)[0]

    @dst.setter
    def dst(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!I", o._mv, self._off + 16, value)

    @property
    def ttl(self) -> int:
        return self._o._mv[self._off + 8]

    @ttl.setter
    def ttl(self, value: int) -> None:
        o = self._o
        o._unshare()
        o._mv[self._off + 8] = value

    @property
    def protocol(self) -> int:
        return self._o._mv[self._off + 9]

    @protocol.setter
    def protocol(self, value: int) -> None:
        o = self._o
        o._unshare()
        o._mv[self._off + 9] = value

    @property
    def dscp(self) -> int:
        return self._o._mv[self._off + 1] >> 2

    @dscp.setter
    def dscp(self, value: int) -> None:
        o = self._o
        o._unshare()
        o._mv[self._off + 1] = ((value & 0x3F) << 2) | (o._mv[self._off + 1] & 0x3)

    @property
    def ecn(self) -> int:
        return self._o._mv[self._off + 1] & 0x3

    @ecn.setter
    def ecn(self, value: int) -> None:
        o = self._o
        o._unshare()
        o._mv[self._off + 1] = (o._mv[self._off + 1] & 0xFC) | (value & 0x3)

    @property
    def identification(self) -> int:
        return unpack_from("!H", self._o._mv, self._off + 4)[0]

    @identification.setter
    def identification(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!H", o._mv, self._off + 4, value)

    @property
    def total_length(self) -> int:
        return unpack_from("!H", self._o._mv, self._off + 2)[0]

    @total_length.setter
    def total_length(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!H", o._mv, self._off + 2, value)

    @property
    def checksum(self) -> int:
        return unpack_from("!H", self._o._mv, self._off + 10)[0]

    @checksum.setter
    def checksum(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!H", o._mv, self._off + 10, value)

    # -- checksum handling, in place -------------------------------------------

    def header_view(self) -> memoryview:
        """Zero-copy view of exactly the 20 header bytes."""
        return self._o._mv[self._off : self._off + self.HEADER_LEN]

    def checksum_ok(self) -> bool:
        """Validate the stored checksum without materialising the header:
        the RFC 1071 sum over a header *including* a valid checksum field
        folds to 0xFFFF.  A fold keeps the sum modulo 0xFFFF and byte 0 is
        0x45, so that is one ``unpack_from`` and a divisibility test."""
        return sum(unpack_from("!10H", self._o._mv, self._off)) % 0xFFFF == 0

    def compute_checksum(self) -> int:
        """Checksum with the stored field zeroed — computed over the view
        by briefly zeroing the field in place (restored before returning,
        single-threaded datapath)."""
        mv = self._o._mv
        off = self._off + 10
        stored_hi, stored_lo = mv[off], mv[off + 1]
        mv[off] = mv[off + 1] = 0
        try:
            return internet_checksum(self.header_view())
        finally:
            mv[off], mv[off + 1] = stored_hi, stored_lo

    def refresh_checksum(self) -> None:
        """Recompute and store the checksum, all through the view."""
        o = self._o
        o._unshare()
        mv = o._mv
        off = self._off + 10
        mv[off] = mv[off + 1] = 0
        pack_into("!H", mv, off, internet_checksum(self.header_view()))

    def decrement_ttl(self) -> bool:
        """TTL decrement with RFC 1624 eq. 3, ``HC' = ~(~HC + ~m + m')``,
        specialised to the TTL word: m' = m - 0x100 makes ``~m + m'`` the
        constant 0xFEFF, and the one end-around fold carries exactly when
        HC <= 0xFEFE (leaving HC + 0x100, else HC - 0xFEFF).  Bit-identical
        to ``incremental_checksum_update(HC, m, m - 0x100)``."""
        o = self._o
        at = self._off + 8  # TTL, protocol, checksum
        mv = o._mv
        ttl, proto, stored = unpack_from("!BBH", mv, at)
        if ttl <= 1:
            return False
        if o.buffer.refcount > 1:
            o._unshare()
            mv = o._mv  # unsharing swapped the backing buffer
        pack_into(
            "!BBH", mv, at, ttl - 1, proto,
            stored + 0x100 if stored <= 0xFEFE else stored - 0xFEFF,
        )
        return True

    def _rewrite_address(self, field_offset: int, new_address: int) -> None:
        o = self._o
        o._unshare()
        mv = o._mv
        off = self._off
        old_hi, old_lo = unpack_from("!HH", mv, off + field_offset)
        (stored,) = unpack_from("!H", mv, off + 10)
        stored = incremental_checksum_update(
            stored, old_hi, (new_address >> 16) & 0xFFFF
        )
        stored = incremental_checksum_update(stored, old_lo, new_address & 0xFFFF)
        pack_into("!H", mv, off + 10, stored)
        pack_into("!I", mv, off + field_offset, new_address)

    def rewrite_src(self, new_src: int) -> None:
        """NAT source rewrite: two words change; checksum patched with two
        RFC 1624 incremental updates instead of a full re-sum."""
        self._rewrite_address(12, new_src)

    def rewrite_dst(self, new_dst: int) -> None:
        """NAT destination rewrite, incremental (see :meth:`rewrite_src`)."""
        self._rewrite_address(16, new_dst)


class V6View(IPv6Header):
    """IPv6 header fields as properties over a wire packet's memoryview."""

    def __init__(self, owner: "WirePacket", offset: int) -> None:
        self._o = owner
        self._off = offset

    @property
    def src(self) -> int:
        hi, lo = unpack_from("!QQ", self._o._mv, self._off + 8)
        return (hi << 64) | lo

    @src.setter
    def src(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into(
            "!QQ", o._mv, self._off + 8, value >> 64, value & ((1 << 64) - 1)
        )

    @property
    def dst(self) -> int:
        hi, lo = unpack_from("!QQ", self._o._mv, self._off + 24)
        return (hi << 64) | lo

    @dst.setter
    def dst(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into(
            "!QQ", o._mv, self._off + 24, value >> 64, value & ((1 << 64) - 1)
        )

    @property
    def hop_limit(self) -> int:
        return self._o._mv[self._off + 7]

    @hop_limit.setter
    def hop_limit(self, value: int) -> None:
        o = self._o
        o._unshare()
        o._mv[self._off + 7] = value

    @property
    def next_header(self) -> int:
        return self._o._mv[self._off + 6]

    @next_header.setter
    def next_header(self, value: int) -> None:
        o = self._o
        o._unshare()
        o._mv[self._off + 6] = value

    @property
    def payload_length(self) -> int:
        return unpack_from("!H", self._o._mv, self._off + 4)[0]

    @payload_length.setter
    def payload_length(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!H", o._mv, self._off + 4, value)

    @property
    def _word0(self) -> int:
        return unpack_from("!I", self._o._mv, self._off)[0]

    def _set_word0(self, word0: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!I", o._mv, self._off, word0)

    @property
    def traffic_class(self) -> int:
        return (self._word0 >> 20) & 0xFF

    @traffic_class.setter
    def traffic_class(self, value: int) -> None:
        self._set_word0((self._word0 & ~(0xFF << 20)) | ((value & 0xFF) << 20))

    @property
    def flow_label(self) -> int:
        return self._word0 & 0xFFFFF

    @flow_label.setter
    def flow_label(self, value: int) -> None:
        self._set_word0((self._word0 & ~0xFFFFF) | (value & 0xFFFFF))

    def decrement_hop_limit(self) -> bool:
        """Hop-limit decrement in place (no checksum in v6)."""
        o = self._o
        off = self._off + 7
        hop = o._mv[off]
        if hop <= 1:
            return False
        o._unshare()
        o._mv[off] = hop - 1
        return True


class UDPView(UDPHeader):
    """UDP header fields as properties over a wire packet's memoryview."""

    def __init__(self, owner: "WirePacket", offset: int) -> None:
        self._o = owner
        self._off = offset

    @property
    def sport(self) -> int:
        return unpack_from("!H", self._o._mv, self._off)[0]

    @sport.setter
    def sport(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!H", o._mv, self._off, value)

    @property
    def dport(self) -> int:
        return unpack_from("!H", self._o._mv, self._off + 2)[0]

    @dport.setter
    def dport(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!H", o._mv, self._off + 2, value)

    @property
    def length(self) -> int:
        return unpack_from("!H", self._o._mv, self._off + 4)[0]

    @length.setter
    def length(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!H", o._mv, self._off + 4, value)


class TCPView(TCPHeader):
    """TCP header fields as properties over a wire packet's memoryview."""

    def __init__(self, owner: "WirePacket", offset: int) -> None:
        self._o = owner
        self._off = offset

    @property
    def sport(self) -> int:
        return unpack_from("!H", self._o._mv, self._off)[0]

    @sport.setter
    def sport(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!H", o._mv, self._off, value)

    @property
    def dport(self) -> int:
        return unpack_from("!H", self._o._mv, self._off + 2)[0]

    @dport.setter
    def dport(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!H", o._mv, self._off + 2, value)

    @property
    def seq(self) -> int:
        return unpack_from("!I", self._o._mv, self._off + 4)[0]

    @seq.setter
    def seq(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!I", o._mv, self._off + 4, value)

    @property
    def ack(self) -> int:
        return unpack_from("!I", self._o._mv, self._off + 8)[0]

    @ack.setter
    def ack(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!I", o._mv, self._off + 8, value)

    @property
    def flags(self) -> int:
        return unpack_from("!H", self._o._mv, self._off + 12)[0] & 0x1FF

    @flags.setter
    def flags(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!H", o._mv, self._off + 12, (5 << 12) | (value & 0x1FF))

    @property
    def window(self) -> int:
        return unpack_from("!H", self._o._mv, self._off + 14)[0]

    @window.setter
    def window(self, value: int) -> None:
        o = self._o
        o._unshare()
        pack_into("!H", o._mv, self._off + 14, value)


class WirePacket:
    """One packet living in wire format inside a (pooled) buffer.

    Drop-in on the data path for :class:`~repro.netsim.packet.Packet`:
    ``net``/``transport`` are header views (real subclasses of the header
    dataclasses), ``metadata`` rides alongside exactly as on materialised
    packets, and ``flow_key``/``dscp``/``size_bytes`` match.  The
    difference is purely in byte handling — one materialisation at
    construction, zero per-hop allocations afterwards.
    """

    __slots__ = (
        "buffer",
        "_mv",
        "length",
        "packet_id",
        "created_at",
        "metadata",
        "version",
        "net",
        "transport",
        "_payload_off",
    )

    def __init__(
        self,
        buffer: Buffer,
        *,
        created_at: float = 0.0,
        metadata: dict[str, Any] | None = None,
    ) -> None:
        """The one layout body: byte 0 is read once, ``0x45`` (IPv4, no
        options) first.  Any other IPv4 header length, and — as in
        :meth:`Packet.from_bytes` — a truncated UDP/TCP header, raise
        :class:`PacketError`: both representations refuse the same input."""
        self.buffer = buffer
        self._mv = mv = buffer._mv
        self.length = length = buffer.length
        self.packet_id = next(_PACKET_IDS)
        self.created_at = created_at
        self.metadata = {} if metadata is None else metadata
        if not length:
            raise PacketError("empty packet")
        first = mv[0]
        if first == 0x45:
            if length < _V4_LEN:
                raise PacketError(f"IPv4 header needs 20 bytes, got {length}")
            self.version = 4
            self.net = V4View(self, 0)
            proto = mv[9]
            offset = _V4_LEN
        elif first >> 4 == 6:
            if length < _V6_LEN:
                raise PacketError(f"IPv6 header needs 40 bytes, got {length}")
            self.version = 6
            self.net = V6View(self, 0)
            proto = mv[6]
            offset = _V6_LEN
        else:
            raise PacketError(_bad_first_byte(first))
        if proto == PROTO_UDP:
            if length < offset + _UDP_LEN:
                raise PacketError(f"UDP header needs 8 bytes, got {length - offset}")
            self.transport = UDPView(self, offset)
            self._payload_off = offset + _UDP_LEN
        elif proto == PROTO_TCP:
            if length < offset + _TCP_LEN:
                raise PacketError(f"TCP header needs 20 bytes, got {length - offset}")
            self.transport = TCPView(self, offset)
            self._payload_off = offset + _TCP_LEN
        else:
            self.transport = None
            self._payload_off = offset

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_wire(
        cls,
        data: bytes | bytearray | memoryview,
        *,
        pool: Any = None,
        created_at: float = 0.0,
        metadata: dict[str, Any] | None = None,
    ) -> "WirePacket":
        """Wrap wire bytes: one write into a pooled buffer (``pool`` may
        be a :class:`~repro.osbase.buffers.BufferPool`, a
        :class:`~repro.osbase.buffers.BufferManagementCF`, or None for a
        standalone buffer), zero copies afterwards."""
        packet = cls.ingest(data, pool=pool, created_at=created_at, metadata=metadata)
        if packet is None:
            raise PacketError(
                "buffer pool exhausted under a non-raising policy; use "
                "WirePacket.ingest for policy-aware ingress"
            )
        return packet

    @classmethod
    def from_packet(cls, packet: Packet, *, pool: Any = None) -> "WirePacket":
        """Materialise *packet* once into wire format (the only copy the
        zero-copy path pays), carrying over metadata and timestamps."""
        wire = cls.ingest(packet, pool=pool)
        if wire is None:
            raise PacketError(
                "buffer pool exhausted under a non-raising policy; use "
                "WirePacket.ingest for policy-aware ingress"
            )
        return wire

    @classmethod
    def ingest(
        cls,
        frame: Any,
        *,
        pool: Any = None,
        created_at: float = 0.0,
        metadata: dict[str, Any] | None = None,
    ) -> "WirePacket | None":
        """Materialise an arriving *frame* onto a pooled buffer — the one
        materialisation path (NIC ingress, :meth:`from_wire` and
        :meth:`from_packet` all come through here).

        Accepts the three shapes a frame arrives in:

        - a :class:`WirePacket` passes through untouched (it already
          lives on a buffer; cross-NIC hops keep the same backing store,
          the simulation's stand-in for DMA hand-off);
        - raw wire bytes are written into one acquired buffer
          (*created_at*/*metadata* apply to this shape only);
        - a materialised :class:`Packet` is serialised once into one
          acquired buffer (``write_into``, no intermediate ``bytes``),
          carrying its own timestamp and metadata over.

        Exactly one pool acquire and one recorded copy per materialised
        frame — the copy is recorded only once the acquire succeeds, so
        exhaustion drops never skew the copies-per-packet accounting.
        Returns None — instead of raising mid-datapath — when the pool is
        exhausted under a ``drop-newest``/``backpressure`` policy, so the
        NIC can apply its drop accounting.  A frame whose bytes fail to
        parse (truncated header, unknown version) raises
        :class:`PacketError` with the acquired buffer already handed
        back — malformed input must never strand a pool buffer.
        """
        if type(frame) is bytes or isinstance(frame, _RAW_FRAME):
            if pool is None:
                buffer = Buffer.standalone(frame)
            else:
                buffer = pool.acquire_into(frame)
                if buffer is None:
                    return None
            _LEDGER.record_copy(buffer.length)
            try:
                return cls(buffer, created_at=created_at, metadata=metadata)
            except PacketError:
                buffer.release_ref()
                raise
        if isinstance(frame, WirePacket):
            return frame
        size = frame.size_bytes
        if pool is None:
            buffer = Buffer(None, size)
            buffer.refcount = 1
        else:
            buffer = pool.acquire(size)
            if buffer is None:
                return None
        _LEDGER.record_copy(size)
        frame.write_into(buffer._data, 0)
        buffer.length = size
        try:
            return cls(
                buffer,
                created_at=frame.created_at,
                metadata=dict(frame.metadata),
            )
        except PacketError:
            buffer.release_ref()
            raise

    # -- Packet-compatible surface ---------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Total on-wire size."""
        return self.length

    @property
    def dscp(self) -> int:
        """Diffserv code point (traffic_class >> 2 for v6)."""
        if self.version == 4:
            return self._mv[1] >> 2
        return ((unpack_from("!I", self._mv, 0)[0] >> 20) & 0xFF) >> 2

    @property
    def payload(self) -> memoryview:
        """Zero-copy view of the payload region."""
        return self._mv[self._payload_off : self.length]

    @payload.setter
    def payload(self, data: bytes | bytearray | memoryview) -> None:
        """Rewrite the payload (app services truncate/replace payloads,
        e.g. :class:`~repro.appservices.media_filter.PayloadTruncator`).

        In place when the new payload fits the private backing buffer;
        a shared buffer (copy-on-write) or a growing payload moves the
        packet to a private standalone buffer of the required size (one
        counted copy).  Header length fields — and, for IPv4, the
        checksum — are fixed up immediately: a wire packet's bytes are
        always consistent, there is no later serialisation step to
        repair them.
        """
        new_length = self._payload_off + len(data)
        buffer = self.buffer
        if buffer.refcount > 1 or new_length > buffer.capacity:
            _LEDGER.record_copy(new_length)
            private = Buffer(None, max(new_length, self.length))
            private.refcount = 1
            private._data[: self._payload_off] = self._mv[: self._payload_off]
            self.buffer = private
            self._mv = private._mv
            self._mv[self._payload_off : new_length] = data
            buffer.release_ref()  # after the write: *data* may view it
        else:
            self._mv[self._payload_off : new_length] = data
        self.length = new_length
        self.buffer.length = new_length
        self._refresh_lengths()

    def _refresh_lengths(self) -> None:
        """Re-sync header length fields (and the IPv4 checksum) with the
        current wire length — the wire analogue of
        :meth:`Packet._refresh_lengths`, called by app services after
        payload surgery."""
        net = self.net
        if self.version == 4:
            net.total_length = self.length
            net.refresh_checksum()
        else:
            net.payload_length = self.length - IPv6Header.HEADER_LEN

    def flow_key(self) -> tuple:
        """Five-tuple (version, src, dst, sport, dport, proto) read by
        ``unpack_from`` on the view — no header objects touched."""
        mv = self._mv
        if self.version == 4:
            src, dst = unpack_from("!II", mv, 12)
            proto = mv[9]
        else:
            src_hi, src_lo, dst_hi, dst_lo = unpack_from("!QQQQ", mv, 8)
            src, dst = (src_hi << 64) | src_lo, (dst_hi << 64) | dst_lo
            proto = mv[6]
        transport = self.transport
        if transport is not None:
            sport, dport = unpack_from(
                "!HH", mv, self._payload_off - transport.HEADER_LEN
            )
        else:
            sport = dport = 0
        return (self.version, src, dst, sport, dport, proto)

    def flow_hash(self) -> int:
        """Stable RSS-style steering hash, read by ``unpack_from`` on the
        view (:meth:`flow_key`) — no header objects are touched, and the
        value matches :meth:`Packet.flow_hash` and :func:`flow_hash_of`
        on the same bytes (regression-tested: steering must not depend on
        a packet's representation)."""
        return flow_hash_fields(*self.flow_key())

    # -- byte-level operations --------------------------------------------------

    def wire_view(self) -> memoryview:
        """Zero-copy view of the whole packet."""
        return self._mv[: self.length]

    def to_bytes(self) -> bytes:
        """Copy the wire bytes out (an explicit materialisation, counted)."""
        _LEDGER.record_copy(self.length)
        return bytes(self._mv[: self.length])

    def to_packet(self) -> Packet:
        """Parse back into a materialised :class:`Packet` (for equivalence
        tests and components that need an object graph)."""
        packet = Packet.from_bytes(self.to_bytes(), created_at=self.created_at)
        packet.metadata = dict(self.metadata)
        return packet

    def clone_ref(self) -> "WirePacket":
        """Zero-copy clone for fan-out: shares the backing buffer (one
        refcount bump, ledger-recorded as a reference).  The clone carries
        its own metadata dict; the first header write on either side
        triggers copy-on-write unsharing, so clones may diverge safely.
        """
        _LEDGER.record_reference(self.length)
        return WirePacket(
            self.buffer.clone_ref(),
            created_at=self.created_at,
            metadata=dict(self.metadata),
        )

    def copy(self) -> "WirePacket":
        """Deep copy into a fresh standalone buffer (counted as a copy)."""
        _LEDGER.record_copy(self.length)
        buffer = Buffer.standalone(self._mv[: self.length])
        return WirePacket(
            buffer, created_at=self.created_at, metadata=dict(self.metadata)
        )

    def _unshare(self) -> None:
        """Copy-on-write barrier: before any in-place write, a packet whose
        buffer is shared (refcount > 1) moves to a private standalone copy
        so siblings on a multicast path never observe the mutation."""
        buffer = self.buffer
        if buffer.refcount > 1:
            _LEDGER.record_copy(self.length)
            private = Buffer.standalone(self._mv[: self.length])
            buffer.release_ref()
            self.buffer = private
            self._mv = private._mv

    def release(self) -> None:
        """Return the packet's buffer reference (to its pool, when pooled)
        and end the packet's life.

        The buffer may be recycled to carry another packet, so the header
        views go too: a header read after release fails loudly, and with
        the packet ↔ view cycle broken the packet is freed by refcount
        instead of waiting for the cyclic garbage collector.
        """
        self._mv = _RELEASED_VIEW
        self.net = self.transport = None
        buffer = self.buffer
        pool = buffer.pool
        if pool is None:
            buffer.release_ref()
        else:
            pool.release(buffer)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"<WirePacket#{self.packet_id} v{self.version} {self.length}B "
            f"refs={self.buffer.refcount}>"
        )


def wire_flow_key(frame: bytes | bytearray | memoryview) -> tuple:
    """The five-tuple of raw wire bytes, read field-by-field with
    ``unpack_from`` — no header objects, no buffer materialisation.

    This is the raw-bytes twin of :meth:`WirePacket.flow_key` /
    :meth:`Packet.flow_key` and must agree with them on every valid
    frame (the representation-stability regression tests in
    ``tests/osbase/test_sharding.py`` pin the agreement).  Validation
    mirrors :meth:`WirePacket.__init__`: an unusable frame (empty,
    truncated network *or transport* header, an IPv4 header length other
    than 20 bytes, unknown version) raises
    :class:`PacketError` rather than producing a garbage key a shard
    NIC would reject anyway; transport ports are read only for UDP/TCP,
    anything else keys with ``sport = dport = 0`` exactly like
    ``flow_key()``.
    """
    length = len(frame)
    if length == 0:
        raise PacketError("empty frame")
    first = frame[0]
    if first == 0x45:
        if length < _V4_LEN:
            raise PacketError(f"IPv4 header needs 20 bytes, got {length}")
        version = 4
        src, dst = unpack_from("!II", frame, 12)
        proto = frame[9]
        offset = _V4_LEN
    elif first >> 4 == 6:
        if length < _V6_LEN:
            raise PacketError(f"IPv6 header needs 40 bytes, got {length}")
        version = 6
        src_hi, src_lo, dst_hi, dst_lo = unpack_from("!QQQQ", frame, 8)
        src, dst = (src_hi << 64) | src_lo, (dst_hi << 64) | dst_lo
        proto = frame[6]
        offset = _V6_LEN
    else:
        raise PacketError(_bad_first_byte(first))
    sport = dport = 0
    if proto in (PROTO_UDP, PROTO_TCP):
        # Same strictness as WirePacket.__init__: a truncated transport header
        # is malformed, not "transport-less" — rejecting it here keeps
        # the failure at the steering step instead of letting a shard
        # NIC raise mid-batch after the frame was already steered.
        needed = _UDP_LEN if proto == PROTO_UDP else _TCP_LEN
        if length < offset + needed:
            raise PacketError(
                f"transport header needs {needed} bytes, got {length - offset}"
            )
        sport, dport = unpack_from("!HH", frame, offset)
    return (version, src, dst, sport, dport, proto)


def flow_hash_of(frame: Any) -> int:
    """The steering hash of an arriving frame, in any representation.

    This is what the RSS steering stage calls *before* any pool acquire:
    raw wire bytes go through :func:`wire_flow_key` (pure ``unpack_from``
    reads), while materialised packets and wire packets hash their
    ``flow_key()``.  All three representations of the same packet
    produce the same value (see
    :func:`~repro.netsim.packet.flow_hash_fields` for why that matters);
    unusable byte frames raise :class:`PacketError` — the sharded
    runtime's steering stage counts those as malformed refusals
    (:class:`repro.osbase.sharding.RssSteering`).
    """
    if isinstance(frame, _RAW_FRAME):
        return flow_hash_fields(*wire_flow_key(frame))
    return flow_hash_fields(*frame.flow_key())


def to_wire(packet: Packet | WirePacket, *, pool: Any = None) -> WirePacket:
    """Coerce onto the wire path: materialise a :class:`Packet` once, pass
    a :class:`WirePacket` through untouched (both via
    :meth:`WirePacket.ingest`, the one materialisation path)."""
    return WirePacket.from_packet(packet, pool=pool)


def wire_trace(packets: list, *, pool: Any = None) -> list:
    """Materialise a whole trace onto the wire path (benchmark setup: one
    counted copy per packet, before any timer starts)."""
    return [to_wire(packet, pool=pool) for packet in packets]
