"""Differential suite: the wire view's header arithmetic against the
generic RFC bodies it replaced.

``V4View.checksum_ok`` sums the ten header words with one
``unpack_from`` and tests the fold without a loop; ``V4View.decrement_ttl``
patches the checksum with RFC 1624 equation 3 specialised to the TTL
word.  The references below are the generic forms, kept test-local:
``internet_checksum`` over ``header_view()``, and a TTL decrement through
``incremental_checksum_update``.  Random headers include stored checksums
0x0000 and 0xFFFF, bad checksums and TTLs 0, 1, 2 and 255, on a private
buffer and on a buffer shared with a clone (copy-on-write).  Verdicts and
resulting bytes must be identical, and a header with a valid checksum
must age to the same bytes as a materialised ``IPv4Header``.

Two example budgets ship with the suite, selected by the
``REPRO_PROPERTY_PROFILE`` environment variable: ``bounded`` (the
default — tier-1 runs it) and ``full``.
"""

from os import environ
from struct import pack_into, unpack_from

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim import (
    IPv4Header,
    WirePacket,
    incremental_checksum_update,
    internet_checksum,
)
from repro.osbase import DATAPATH_LEDGER

pytestmark = pytest.mark.slow

_PROFILES = {"bounded": 300, "full": 3000}
_PROFILE = environ.get("REPRO_PROPERTY_PROFILE", "bounded")
_SETTINGS = settings(
    max_examples=_PROFILES.get(_PROFILE, _PROFILES["bounded"]),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_checksum_ok(view) -> bool:
    return internet_checksum(view.header_view()) == 0


def reference_decrement_ttl(view) -> bool:
    owner, off = view._o, view._off
    ttl = owner._mv[off + 8]
    if ttl <= 1:
        return False
    owner._unshare()
    mv = owner._mv
    old_word = (ttl << 8) | mv[off + 9]
    mv[off + 8] = ttl - 1
    (stored,) = unpack_from("!H", mv, off + 10)
    pack_into(
        "!H", mv, off + 10, incremental_checksum_update(stored, old_word, old_word - 0x100)
    )
    return True


@st.composite
def frames(draw):
    """A 20-byte IPv4 header (IHL 5) with UDP behind it; the checksum
    is valid, one of the two zero representations, or arbitrary."""
    header = bytearray(draw(st.binary(min_size=20, max_size=20)))
    header[0] = 0x45
    header[9] = 17
    if draw(st.booleans()):
        header[6] = header[7] = 0  # no flags: materialisable
    header[8] = draw(st.one_of(st.sampled_from([0, 1, 2, 255]), st.integers(0, 255)))
    kind = draw(st.sampled_from(["valid", "zero", "ones", "arbitrary"]))
    header[10:12] = b"\0\0"
    if kind == "valid":
        pack_into("!H", header, 10, internet_checksum(header))
    elif kind == "ones":
        header[10:12] = b"\xff\xff"
    elif kind == "arbitrary":
        # The carry boundary of the TTL patch sits at 0xFEFE / 0xFEFF.
        edges = st.sampled_from([0x00FF, 0x0100, 0xFEFE, 0xFEFF, 0xFF00])
        pack_into("!H", header, 10, draw(st.one_of(edges, st.integers(0, 0xFFFF))))
    return bytes(header) + bytes(8) + draw(st.binary(max_size=8))


def wire_bytes(packet) -> bytes:
    return bytes(packet.wire_view())


@_SETTINGS
@given(frame=frames())
def test_checksum_verdict_matches_the_generic_sum(frame):
    packet = WirePacket.from_wire(frame)
    assert packet.net.checksum_ok() == reference_checksum_ok(packet.net)


@_SETTINGS
@given(frame=frames())
def test_ttl_decrement_matches_incremental_update(frame):
    ours, ref = WirePacket.from_wire(frame), WirePacket.from_wire(frame)
    assert ours.net.decrement_ttl() == reference_decrement_ttl(ref.net)
    assert wire_bytes(ours) == wire_bytes(ref)
    valid = reference_checksum_ok(WirePacket.from_wire(frame).net)
    if valid and frame[6:8] == b"\0\0":
        # A materialised header re-sums from scratch after aging.
        header = IPv4Header.from_view(frame)
        header.decrement_ttl()
        assert wire_bytes(ours)[:20] == header.to_bytes()
        assert ours.net.checksum_ok()


@_SETTINGS
@given(frame=frames())
def test_shared_buffer_is_unshared_once(frame):
    ours = WirePacket.from_wire(frame)
    sibling = ours.clone_ref()
    ref = WirePacket.from_wire(frame)
    ref_sibling = ref.clone_ref()
    assert ours.buffer.refcount == 2
    before = DATAPATH_LEDGER.copies
    aged = ours.net.decrement_ttl()
    assert DATAPATH_LEDGER.copies - before == (1 if aged else 0)
    assert aged == reference_decrement_ttl(ref.net)
    assert wire_bytes(sibling) == frame
    assert wire_bytes(ref_sibling) == frame
    assert wire_bytes(ours) == wire_bytes(ref)
    assert (ours.buffer is sibling.buffer) == (not aged)
