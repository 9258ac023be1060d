"""An IPv4 header length (IHL) other than 5 words is malformed.

The header views read fixed, options-free offsets, so a frame that
declares options (IHL 6..15) or a header shorter than the minimum
(IHL < 5) would otherwise be misread: ports taken from option bytes, a
24-byte header forwarded as if it were 20.  All three parsers refuse it
with ``PacketError``, and each datapath entry point counts it where it
counts any other malformed frame: the NIC's ``malformed_drops``,
steering's ``malformed`` and the fleet edge's ``malformed``.
"""

from struct import pack_into, unpack_from

import pytest

from repro.netsim import (
    Packet,
    PacketError,
    WirePacket,
    flow_hash_of,
    internet_checksum,
    make_udp_v4,
    wire_flow_key,
)
from repro.osbase import (
    BufferPool,
    Nic,
    RoundRobinScheduler,
    ThreadManagerCF,
    VirtualClock,
    carve_shard_pools,
    release_dropped,
    shard_pool_audit,
)
from repro.router import build_capsule_fleet, build_sharded_forwarding_datapath

ROUTES = {"10.0.0.0/8": "east", "0.0.0.0/0": "west"}
BAD_IHL = (4, 6, 15)


def udp_frame(seq: int = 0) -> bytes:
    return make_udp_v4(
        "10.1.2.3", "10.9.9.9", sport=1111, dport=2222, payload=bytes([seq]) * 8
    ).to_bytes()


def with_ihl(frame: bytes, ihl: int) -> bytes:
    """*frame* re-laid with an IHL of *ihl* words: zero option bytes are
    inserted after the 20 fixed bytes (none for IHL < 5), the total
    length grows by them, and the checksum is valid over the declared
    header length — a frame that is well-formed except for its options."""
    options = bytes(max(ihl - 5, 0) * 4)
    out = bytearray(frame[:20] + options + frame[20:])
    out[0] = 0x40 | ihl
    (total_length,) = unpack_from("!H", out, 2)
    pack_into("!H", out, 2, total_length + len(options))
    pack_into("!H", out, 10, 0)
    pack_into("!H", out, 10, internet_checksum(out[: max(ihl, 5) * 4]))
    return bytes(out)


def test_the_options_frame_is_otherwise_valid():
    assert with_ihl(udp_frame(), 5) == udp_frame()
    frame = with_ihl(udp_frame(), 6)
    assert frame[0] == 0x46
    assert internet_checksum(frame[:24]) == 0
    # Read at the declared header length, the ports are the real ones.
    assert unpack_from("!HH", frame, 24) == (1111, 2222)


@pytest.mark.parametrize("ihl", BAD_IHL)
class TestParsersRefuse:
    def test_wire_packet(self, ihl):
        with pytest.raises(PacketError, match="IHL"):
            WirePacket.from_wire(with_ihl(udp_frame(), ihl))

    def test_pooled_ingest_hands_the_buffer_back(self, ihl):
        pool = BufferPool(256, 2)
        with pytest.raises(PacketError, match="IHL"):
            WirePacket.ingest(with_ihl(udp_frame(), ihl), pool=pool)
        assert pool.acquired_total == pool.released_total == 1

    def test_wire_flow_key(self, ihl):
        frame = with_ihl(udp_frame(), ihl)
        with pytest.raises(PacketError, match="IHL"):
            wire_flow_key(frame)
        with pytest.raises(PacketError):
            flow_hash_of(frame)

    def test_packet_from_bytes(self, ihl):
        with pytest.raises(PacketError, match="IHL"):
            Packet.from_bytes(with_ihl(udp_frame(), ihl))


@pytest.mark.parametrize("ihl", BAD_IHL)
def test_nic_counts_a_malformed_drop(ihl):
    pool = BufferPool(256, 4, exhaustion_policy="drop-newest")
    nic = Nic(pool=pool)
    assert nic.receive_batch([udp_frame(0), with_ihl(udp_frame(1), ihl), udp_frame(2)]) == 2
    assert nic.counters["malformed_drops"] == 1
    assert nic.counters["rx_drops"] == 1
    assert nic.counters["rx_packets"] == 2
    nic.drain_rx(release_dropped)
    assert pool.acquired_total == pool.released_total == 3


@pytest.mark.parametrize("ihl", BAD_IHL)
def test_steering_counts_a_malformed_refusal(ihl):
    pools = carve_shard_pools(256, 16, 2, exhaustion_policy="drop-newest")
    datapath = build_sharded_forwarding_datapath(
        routes=ROUTES,
        shards=2,
        threads=ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler()),
        pools=pools,
        batch=4,
        tx_handler=lambda index: release_dropped,
    )
    frames = [udp_frame(0), with_ihl(udp_frame(1), ihl), udp_frame(2)]
    assert datapath.steer_batch(frames) == 2
    assert datapath.steering.malformed == 1
    datapath.pump()
    assert shard_pool_audit(pools)["balanced"]
    datapath.shutdown()


@pytest.mark.parametrize("ihl", BAD_IHL)
def test_fleet_edge_counts_malformed(ihl):
    fleet = build_capsule_fleet(
        1, routes=ROUTES, shards=1, tx_handler=lambda capsule, index: release_dropped
    )
    assert fleet.ingest(with_ihl(udp_frame(), ihl)) is False
    assert fleet.counters["malformed"] == 1
    assert fleet.counters["ingested"] == 0
