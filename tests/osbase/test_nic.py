"""NIC rings, drops, polling, and the pooled RX→TX buffer lifecycle."""

import pytest

from repro.netsim import WirePacket, make_udp_v4, to_wire
from repro.osbase import BufferPool, Nic
from repro.opencom.errors import ResourceError


@pytest.fixture
def nic(capsule):
    return capsule.instantiate(lambda: Nic(rx_ring_size=4, tx_ring_size=2), "nic")


def packet(size=64):
    return make_udp_v4("10.0.0.1", "10.0.0.2", payload=bytes(size))


def pooled_packet(pool, size=64):
    return to_wire(packet(size), pool=pool)


class TestRx:
    def test_receive_and_poll(self, nic):
        p = packet()
        assert nic.receive_frame(p)
        assert nic.rx_depth == 1
        assert nic.poll_rx() is p
        assert nic.poll_rx() is None

    def test_ring_overflow_drops(self, nic):
        for _ in range(4):
            assert nic.receive_frame(packet())
        assert not nic.receive_frame(packet())
        assert nic.counters["rx_drops"] == 1
        assert nic.counters["rx_overruns"] == 1
        assert nic.counters["rx_packets"] == 4

    def test_oversize_drop(self, nic):
        big = packet(size=2000)
        assert not nic.receive_frame(big)
        assert nic.counters["oversize_drops"] == 1

    def test_interrupt_mode_bypasses_ring(self, nic):
        handled = []
        nic.rx_handler = handled.append
        p = packet()
        nic.receive_frame(p)
        assert handled == [p]
        assert nic.rx_depth == 0

    def test_drain_rx_budget(self, nic):
        for _ in range(4):
            nic.receive_frame(packet())
        handled = []
        assert nic.drain_rx(handled.append, budget=3) == 3
        assert nic.rx_depth == 1


class TestOversizeValidation:
    def test_wire_packet_sized_by_buffer_length(self, nic):
        # WirePacket reports size_bytes from its buffer, so MTU
        # validation sees the real on-wire size.
        big = to_wire(packet(size=2000))
        assert not nic.receive_frame(big)
        assert nic.counters["oversize_drops"] == 1

    def test_raw_bytes_sized_by_length(self, nic):
        assert nic.receive_frame(packet().to_bytes())
        assert not nic.receive_frame(bytes(2000))
        assert nic.counters["oversize_drops"] == 1

    def test_sizeless_packet_no_longer_passes_mtu(self, nic):
        # Regression: getattr(packet, "size_bytes", 0) let any object
        # without size_bytes default to 0 and sail past MTU validation.
        class SizelessFrame:
            def to_bytes(self):
                return bytes(2000)

        assert not nic.receive_frame(SizelessFrame())
        assert nic.counters["oversize_drops"] == 1

    def test_unsizable_frame_rejected(self, nic):
        assert not nic.receive_frame(object())
        assert nic.counters["oversize_drops"] == 1

    def test_dropped_memoryview_frame_stays_usable(self, nic):
        # Regression: release_dropped must not call memoryview.release()
        # on a raw byte frame — the view is the sender's storage.
        arena = bytearray(4096)
        view = memoryview(arena)[:2000]
        assert not nic.receive_frame(view)
        assert nic.counters["oversize_drops"] == 1
        assert view[0] == 0  # still readable: the view was not released


class TestDrainRxLivelock:
    def test_hairpin_handler_terminates(self, nic):
        # Regression: a handler that re-enqueues to the same NIC
        # (loopback/hairpin) made `while self._rx` spin forever; the
        # ring length at entry is now the implicit budget.
        for _ in range(3):
            nic.receive_frame(packet())

        processed = nic.drain_rx(lambda p: nic.receive_frame(p))
        assert processed == 3
        assert nic.rx_depth == 3  # the re-enqueued packets wait for the next poll

    def test_explicit_budget_still_honoured(self, nic):
        for _ in range(4):
            nic.receive_frame(packet())
        assert nic.drain_rx(lambda p: None, budget=2) == 2
        assert nic.rx_depth == 2


class TestDropPathRelease:
    """Regression: stratum-1 drops (RX overflow, oversize, TX full)
    returned False without releasing pooled wire buffers."""

    @pytest.mark.allow_pool_leak
    def test_rx_overflow_releases_pooled_buffer(self, capsule):
        pool = BufferPool(256, 8)
        nic = capsule.instantiate(lambda: Nic(rx_ring_size=2), "n")
        for _ in range(2):
            assert nic.receive_frame(pooled_packet(pool))
        assert not nic.receive_frame(pooled_packet(pool))
        assert pool.stats()["in_flight"] == 2  # the dropped one went back

    def test_oversize_releases_pooled_buffer(self, capsule):
        pool = BufferPool(4096, 4)
        nic = capsule.instantiate(Nic, "n")
        assert not nic.receive_frame(pooled_packet(pool, size=2000))
        assert pool.stats()["in_flight"] == 0

    @pytest.mark.allow_pool_leak
    def test_tx_full_releases_pooled_buffer(self, capsule):
        pool = BufferPool(256, 8)
        nic = capsule.instantiate(lambda: Nic(tx_ring_size=1), "n")
        assert nic.transmit(pooled_packet(pool))
        assert not nic.transmit(pooled_packet(pool))
        assert nic.counters["tx_drops"] == 1
        assert pool.stats()["in_flight"] == 1


class TestPooledIngress:
    @pytest.mark.allow_pool_leak
    def test_materialises_frames_on_pooled_buffers(self, capsule):
        pool = BufferPool(256, 4)
        nic = capsule.instantiate(lambda: Nic(pool=pool), "n")
        source = packet()
        assert nic.receive_frame(source)
        wire = nic.poll_rx()
        assert isinstance(wire, WirePacket)
        assert wire.buffer.pool is pool
        assert wire.to_bytes() == source.to_bytes()
        assert pool.acquired_total == 1

    @pytest.mark.allow_pool_leak
    def test_raw_bytes_ingest(self, capsule):
        pool = BufferPool(256, 4)
        nic = capsule.instantiate(lambda: Nic(pool=pool), "n")
        assert nic.receive_frame(packet().to_bytes())
        assert isinstance(nic.poll_rx(), WirePacket)

    @pytest.mark.allow_pool_leak
    def test_wire_packets_pass_through(self, capsule):
        pool = BufferPool(256, 4)
        nic = capsule.instantiate(lambda: Nic(pool=pool), "n")
        wire = pooled_packet(pool)
        assert nic.receive_frame(wire)
        assert nic.poll_rx() is wire
        assert pool.acquired_total == 1  # no second acquire

    @pytest.mark.allow_pool_leak
    def test_drop_newest_policy_counts_drop(self, capsule):
        pool = BufferPool(256, 1, exhaustion_policy="drop-newest")
        nic = capsule.instantiate(lambda: Nic(pool=pool), "n")
        assert nic.receive_frame(packet())
        assert not nic.receive_frame(packet())
        assert nic.counters["pool_exhausted_drops"] == 1
        assert nic.counters["rx_drops"] == 1
        assert nic.counters["rx_backpressure"] == 0

    @pytest.mark.allow_pool_leak
    def test_backpressure_policy_refuses_without_drop(self, capsule):
        pool = BufferPool(256, 1, exhaustion_policy="backpressure")
        nic = capsule.instantiate(lambda: Nic(pool=pool), "n")
        assert nic.receive_frame(packet())
        assert not nic.receive_frame(packet())
        assert nic.counters["rx_backpressure"] == 1
        assert nic.counters["rx_drops"] == 0

    @pytest.mark.allow_pool_leak
    def test_exhaustion_drop_records_no_copy(self, capsule):
        # Regression: the ledger copy is recorded only after a successful
        # acquire, so exhaustion drops don't skew copies-per-packet.
        from repro.osbase import DATAPATH_LEDGER

        pool = BufferPool(256, 1, exhaustion_policy="drop-newest")
        nic = capsule.instantiate(lambda: Nic(pool=pool), "n")
        assert nic.receive_frame(packet())
        # Build the frame *before* the snapshot: constructing a packet
        # records its own header-pack copies.
        doomed = packet()
        snap = DATAPATH_LEDGER.snapshot()
        assert not nic.receive_frame(doomed)
        assert DATAPATH_LEDGER.delta(snap)["copies"] == 0

    @pytest.mark.allow_pool_leak
    def test_raise_policy_propagates(self, capsule):
        pool = BufferPool(256, 1)
        nic = capsule.instantiate(lambda: Nic(pool=pool), "n")
        assert nic.receive_frame(packet())
        with pytest.raises(ResourceError):
            nic.receive_frame(packet())

    def test_frame_too_big_for_pool_drops_under_datapath_policy(self, capsule):
        # Regression: a frame within MTU but larger than any pool buffer
        # raised ResourceError mid-datapath even under drop-newest.
        pool = BufferPool(64, 4, exhaustion_policy="drop-newest")
        nic = capsule.instantiate(lambda: Nic(pool=pool), "n")
        assert not nic.receive_frame(packet(size=200))  # 200B payload > 64B buffers
        assert nic.counters["oversize_drops"] == 1
        assert pool.stats()["in_flight"] == 0


def arrivals():
    """One of every frame shape and outcome, valid ones spread through:
    raw bytes, a Packet, a standalone WirePacket, malformed bytes (empty,
    truncated IPv4, truncated UDP, version 1), an over-MTU frame and a
    frame too big for the 256-byte pool buffers."""
    raw = packet().to_bytes()
    version1 = bytearray(raw)
    version1[0] = 0x15
    return [
        raw, packet(), b"", to_wire(packet()), raw[:12], packet(size=2000),
        raw, raw[:24], bytes(version1), packet(size=300), raw, packet(),
        raw, to_wire(packet()), raw, raw,
    ]  # fmt: skip


def frame_bytes(frame):
    return frame.to_bytes() if isinstance(frame, WirePacket) else frame


class TestReceiveBatch:
    """``receive_batch`` is the NIC's one receive body: a batch must end
    exactly where the same frames offered one ``receive_frame`` at a time
    end — outcome, counters, ring and pool."""

    @pytest.mark.parametrize("policy", ["drop-newest", "backpressure", "raise"])
    def test_batch_matches_frame_at_a_time(self, policy):
        ends = []
        for receive in (
            lambda nic, frames: nic.receive_batch(frames),
            lambda nic, frames: sum(nic.receive_frame(f) for f in frames),
        ):
            pool = BufferPool(256, 4, exhaustion_policy=policy)
            nic = Nic(rx_ring_size=6, pool=pool)
            try:
                accepted = receive(nic, arrivals())
            except ResourceError:
                accepted = ResourceError
            ends.append(
                (
                    accepted,
                    dict(nic.counters),
                    [frame_bytes(f) for f in nic._rx],
                    pool.stats(),
                )
            )
            nic.drain_rx(lambda frame: frame.release())
        assert ends[0] == ends[1]
        if policy != "raise":
            # Every drop kind was exercised, not just the happy path.
            counters = ends[0][1]
            assert counters["malformed_drops"] == 4
            assert counters["oversize_drops"] == 2
            assert counters["rx_overruns"] == 2
            assert counters["pool_exhausted_drops"] + counters["rx_backpressure"] == 2

    def test_push_mode_hands_every_accepted_frame_over(self, nic):
        handled = []
        nic.rx_handler = handled.append
        frames = [packet() for _ in range(10)]  # more than the 4-slot ring
        assert nic.receive_batch(frames) == 10
        assert handled == frames
        assert nic.counters["rx_packets"] == 10

    def test_unwind_keeps_accepted_frames_counted(self):
        pool = BufferPool(256, 2)  # raise policy
        nic = Nic(pool=pool)
        with pytest.raises(ResourceError):
            nic.receive_batch([packet(), packet(), packet()])
        assert nic.counters["rx_packets"] == nic.rx_depth == 2
        nic.drain_rx(lambda frame: frame.release())


class TestTxDrain:
    def test_drain_tx_releases_to_pool(self, capsule):
        pool = BufferPool(256, 4)
        nic = capsule.instantiate(Nic, "n")
        for _ in range(3):
            assert nic.transmit(pooled_packet(pool))
        assert pool.stats()["in_flight"] == 3
        assert nic.drain_tx() == 3
        assert pool.stats()["in_flight"] == 0
        assert nic.counters["tx_completions"] == 3
        assert pool.acquired_total == pool.released_total == 3

    def test_drain_tx_handler_takes_ownership(self, capsule):
        pool = BufferPool(256, 4)
        nic = capsule.instantiate(Nic, "n")
        nic.transmit(pooled_packet(pool))
        taken = []
        assert nic.drain_tx(taken.append) == 1
        assert pool.stats()["in_flight"] == 1  # handler holds the buffer
        taken[0].release()
        assert pool.stats()["in_flight"] == 0

    def test_full_rx_to_tx_recycling_loop(self, capsule):
        # The tentpole in miniature: a 2-buffer pool carries many packets
        # because every TX drain returns buffers for the next arrival.
        pool = BufferPool(256, 2, exhaustion_policy="drop-newest")
        nic = capsule.instantiate(lambda: Nic(pool=pool), "n")
        for _ in range(10):
            assert nic.receive_frame(packet())
            wire = nic.poll_rx()
            assert nic.transmit(wire)
            assert nic.drain_tx() == 1
        assert pool.acquired_total == pool.released_total == 10
        assert pool.stats()["free"] == 2
        assert nic.counters["pool_exhausted_drops"] == 0


class TestTx:
    def test_transmit_and_poll(self, nic):
        p = packet()
        assert nic.transmit(p)
        assert nic.tx_depth == 1
        assert nic.poll_tx() is p

    def test_tx_ring_overflow(self, nic):
        assert nic.transmit(packet())
        assert nic.transmit(packet())
        assert not nic.transmit(packet())
        assert nic.counters["tx_drops"] == 1

    def test_stats_shape(self, nic):
        nic.receive_frame(packet())
        stats = nic.stats()
        assert stats["rx_packets"] == 1
        assert stats["rx_depth"] == 1
        assert stats["tx_depth"] == 0
