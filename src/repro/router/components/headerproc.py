"""Header-processing components: the Figure-3 pipeline stages.

- :class:`ProtocolRecognizer` — fans packets out by IP version (the
  "protocol recogn" box of Figure 3);
- :class:`ChecksumValidator` — verifies IPv4 header checksums over real
  bytes, dropping corrupt packets;
- :class:`IPv4HeaderProcessor` — validation + TTL decrement + checksum
  refresh (drops TTL-expired packets);
- :class:`IPv6HeaderProcessor` — hop-limit handling for the v6 path.

Byte handling is polymorphic through the header objects: on materialised
:class:`~repro.netsim.packet.Packet` headers, validation packs 20 bytes
and ageing re-sums the header; on wire-resident packets
(:mod:`repro.netsim.wire`) the same calls checksum the memoryview in
place and patch TTL changes with RFC 1624 incremental updates — the
components themselves are byte-path agnostic.
"""

from __future__ import annotations

from repro.netsim.packet import IPv4Header, IPv6Header, Packet
from repro.router.components.base import PushComponent, release_dropped


class ProtocolRecognizer(PushComponent):
    """Emit v4 packets on connection ``ipv4``, v6 on ``ipv6``.

    Unrecognised packets (neither header type) are dropped and counted
    ``drop:unknown-version``.
    """

    OUT_V4 = "ipv4"
    OUT_V6 = "ipv6"

    def push_batch(self, packets: list[Packet]) -> None:
        """Partition the batch by IP version and emit each family once."""
        self.count("rx", len(packets))
        v4: list[Packet] = []
        v6: list[Packet] = []
        unknown = 0
        for packet in packets:
            net = packet.net
            if isinstance(net, IPv4Header):
                v4.append(packet)
            elif isinstance(net, IPv6Header):
                v6.append(packet)
            else:
                unknown += 1
                release_dropped(packet)
        if v4:
            self.count("v4", len(v4))
            self.emit_batch(v4, self.OUT_V4)
        if v6:
            self.count("v6", len(v6))
            self.emit_batch(v6, self.OUT_V6)
        if unknown:
            self.count("drop:unknown-version", unknown)

    # -- compiled hot path (see repro.opencom.compile) ---------------------

    def compiled_batch_kernel(self, next_map):
        """Closure-composed ``push_batch``: partition, call kernels direct.

        Observationally identical to :meth:`push_batch` — same counters
        under the same conditions, same emission order (v4 family before
        v6), same per-drop releases — with the downstream vtable/port
        frames replaced by direct kernel calls.
        """
        v4_kernel = next_map.get(self.OUT_V4)
        v6_kernel = next_map.get(self.OUT_V6)
        if v4_kernel is None or v6_kernel is None:
            return None  # unbound family: keep the native emit_batch path
        counters = self.counters

        def kernel(
            packets,
            _c=counters,
            _k4=v4_kernel,
            _k6=v6_kernel,
            _v4=IPv4Header,
            _v6=IPv6Header,
            _release=release_dropped,
        ):
            _c["rx"] += len(packets)
            v4: list[Packet] = []
            v6: list[Packet] = []
            unknown = 0
            a4 = v4.append
            a6 = v6.append
            for packet in packets:
                net = packet.net
                if isinstance(net, _v4):
                    a4(packet)
                elif isinstance(net, _v6):
                    a6(packet)
                else:
                    unknown += 1
                    _release(packet)
            if v4:
                _c["v4"] += len(v4)
                _k4(v4)
                _c["tx"] += len(v4)
            if v6:
                _c["v6"] += len(v6)
                _k6(v6)
                _c["tx"] += len(v6)
            if unknown:
                _c["drop:unknown-version"] += unknown

        return kernel


class ChecksumValidator(PushComponent):
    """Drop IPv4 packets whose header checksum does not verify.

    IPv6 packets pass through untouched (v6 has no header checksum).
    The check runs over the packed header bytes — a real RFC 1071
    computation per packet.
    """

    def push_batch(self, packets: list[Packet]) -> None:
        """Verify per packet, emit the survivors as one batch."""
        self.count("rx", len(packets))
        survivors: list[Packet] = []
        bad = 0
        for packet in packets:
            net = packet.net
            if isinstance(net, IPv4Header) and not net.checksum_ok():
                bad += 1
                release_dropped(packet)
                continue
            survivors.append(packet)
        if bad:
            self.count("drop:bad-checksum", bad)
        if survivors:
            self.count("ok", len(survivors))
            self.emit_batch(survivors)


class IPv4HeaderProcessor(PushComponent):
    """IPv4 forwarding-path header handling.

    Validates the checksum, decrements TTL, drops expired packets
    (``drop:ttl-expired``), refreshes the checksum, forwards.
    """

    def __init__(self, *, validate_checksum: bool = True) -> None:
        super().__init__()
        self.validate_checksum = validate_checksum

    def push_batch(self, packets: list[Packet]) -> None:
        """Validate, age and forward: header work stays per packet;
        dispatch and emission amortise."""
        self.count("rx", len(packets))
        counters = self.counters
        validate = self.validate_checksum
        survivors: list[Packet] = []
        for packet in packets:
            net = packet.net
            if not isinstance(net, IPv4Header):
                counters["drop:not-ipv4"] += 1
                release_dropped(packet)
                continue
            if validate and not net.checksum_ok():
                counters["drop:bad-checksum"] += 1
                release_dropped(packet)
                continue
            # decrement_ttl is polymorphic byte handling: full checksum
            # recomputation on materialised headers, in-place RFC 1624
            # incremental update on wire-resident views.
            if not net.decrement_ttl():
                counters["drop:ttl-expired"] += 1
                release_dropped(packet)
                continue
            survivors.append(packet)
        if survivors:
            self.count("forwarded", len(survivors))
            self.emit_batch(survivors)

    # -- compiled hot path (see repro.opencom.compile) ---------------------
    #
    # The specialised kernels treat the *exact* materialised
    # :class:`IPv4Header` arithmetically: the word sum of the packed
    # header is computed straight from the fields (the same words
    # ``_pack`` would serialise), validated by folding, and the
    # post-decrement checksum is derived from the same unfolded sum
    # (``total - 0x100`` — the TTL word dropped by one) — bit-identical
    # to ``compute_checksum()`` over the repacked header, without
    # serialising 20 bytes twice per packet.  Subclasses (the
    # wire-resident ``V4View`` with its own incremental update) take the
    # generic branch and go through the very same ``checksum_ok`` /
    # ``decrement_ttl`` calls the interpreted path uses.

    def compiled_batch_kernel(self, next_map):
        """Closure-composed ``push_batch`` with the arithmetic fast branch."""
        if len(next_map) != 1:
            return None
        (downstream,) = next_map.values()
        counters = self.counters

        def kernel(
            packets,
            _c=counters,
            _k=downstream,
            _self=self,
            _v4=IPv4Header,
            _release=release_dropped,
        ):
            _c["rx"] += len(packets)
            validate = _self.validate_checksum
            survivors: list[Packet] = []
            append = survivors.append
            not4 = bad = expired = 0
            for packet in packets:
                net = packet.net
                if net.__class__ is _v4:
                    ttl = net.ttl
                    src = net.src
                    dst = net.dst
                    total = (
                        (0x4500 | ((net.dscp & 0x3F) << 2) | (net.ecn & 0x3))
                        + net.total_length
                        + net.identification
                        + ((ttl << 8) | net.protocol)
                        + (src >> 16)
                        + (src & 0xFFFF)
                        + (dst >> 16)
                        + (dst & 0xFFFF)
                    )
                    if validate:
                        # Two folds always reach the one's-complement
                        # fixed point for a sum of nine 16-bit words.
                        folded = (total & 0xFFFF) + (total >> 16)
                        folded = (folded & 0xFFFF) + (folded >> 16)
                        if net.checksum != (~folded) & 0xFFFF:
                            bad += 1
                            _release(packet)
                            continue
                    if ttl <= 1:
                        expired += 1
                        _release(packet)
                        continue
                    new_sum = total - 0x100
                    new_sum = (new_sum & 0xFFFF) + (new_sum >> 16)
                    new_sum = (new_sum & 0xFFFF) + (new_sum >> 16)
                    net.ttl = ttl - 1
                    net.checksum = (~new_sum) & 0xFFFF
                else:
                    if not isinstance(net, _v4):
                        not4 += 1
                        _release(packet)
                        continue
                    if validate and not net.checksum_ok():
                        bad += 1
                        _release(packet)
                        continue
                    if not net.decrement_ttl():
                        expired += 1
                        _release(packet)
                        continue
                append(packet)
            if not4:
                _c["drop:not-ipv4"] += not4
            if bad:
                _c["drop:bad-checksum"] += bad
            if expired:
                _c["drop:ttl-expired"] += expired
            if survivors:
                _c["forwarded"] += len(survivors)
                _k(survivors)
                _c["tx"] += len(survivors)

        return kernel


class IPv6HeaderProcessor(PushComponent):
    """IPv6 forwarding-path header handling (hop-limit decrement)."""

    def push_batch(self, packets: list[Packet]) -> None:
        """Hop-limit work per packet, one emission for the survivors."""
        self.count("rx", len(packets))
        counters = self.counters
        survivors: list[Packet] = []
        for packet in packets:
            net = packet.net
            if not isinstance(net, IPv6Header):
                counters["drop:not-ipv6"] += 1
                release_dropped(packet)
                continue
            if not net.decrement_hop_limit():
                counters["drop:hop-limit-expired"] += 1
                release_dropped(packet)
                continue
            survivors.append(packet)
        if survivors:
            self.count("forwarded", len(survivors))
            self.emit_batch(survivors)

    # -- compiled hot path (see repro.opencom.compile) ---------------------

    def compiled_batch_kernel(self, next_map):
        """Closure-composed ``push_batch`` (hop-limit work stays on the
        header's own polymorphic methods — v6 has no checksum to
        specialise arithmetically)."""
        if len(next_map) != 1:
            return None
        (downstream,) = next_map.values()
        counters = self.counters

        def kernel(
            packets,
            _c=counters,
            _k=downstream,
            _v6=IPv6Header,
            _release=release_dropped,
        ):
            _c["rx"] += len(packets)
            survivors: list[Packet] = []
            append = survivors.append
            not6 = expired = 0
            for packet in packets:
                net = packet.net
                if not isinstance(net, _v6):
                    not6 += 1
                    _release(packet)
                    continue
                if not net.decrement_hop_limit():
                    expired += 1
                    _release(packet)
                    continue
                append(packet)
            if not6:
                _c["drop:not-ipv6"] += not6
            if expired:
                _c["drop:hop-limit-expired"] += expired
            if survivors:
                _c["forwarded"] += len(survivors)
                _k(survivors)
                _c["tx"] += len(survivors)

        return kernel
