"""The NIC's batch bodies against per-packet references.

``Nic.transmit_batch`` is TX's one body (``transmit`` is its batch of
one): it reads the ring space once and must give each packet exactly the
outcome a per-packet loop would — the same counters, the same queued
order, and every dropped pooled frame released.  ``drain_tx`` and
``drain_rx`` keep their budget rules while counting once per call.
"""

import itertools

import pytest

from repro.netsim import make_udp_v4, to_wire
from repro.osbase import BufferPool, Nic, release_dropped, shard_pool_audit


def frames(pool, n, start=0):
    return [
        to_wire(make_udp_v4("10.0.0.1", "10.0.0.2", sport=1000 + i), pool=pool)
        for i in range(start, start + n)
    ]


def reference_transmit(nic, packet):
    """Scalar transmit as it was written before the batch body."""
    if len(nic._tx) >= nic.tx_ring_size:
        nic.counters["tx_drops"] += 1
        release_dropped(packet)
        return False
    nic._tx.append(packet)
    nic.counters["tx_packets"] += 1
    return True


def ports(nic):
    return [packet.transport.sport for packet in nic._tx]


@pytest.mark.parametrize(
    "ring, queued, batch",
    list(itertools.product([1, 3, 4], [0, 2, 5], [0, 1, 3, 6])),
)
def test_transmit_batch_matches_a_per_packet_loop(ring, queued, batch):
    pools = [BufferPool(128, 16), BufferPool(128, 16)]
    ours, ref = Nic(tx_ring_size=ring), Nic(tx_ring_size=ring)
    # A ring may already hold more than its size (it was resized down).
    ours._tx.extend(frames(pools[0], queued, start=100))
    ref._tx.extend(frames(pools[1], queued, start=100))
    sent = ours.transmit_batch(frames(pools[0], batch))
    ref_sent = sum(reference_transmit(ref, p) for p in frames(pools[1], batch))
    assert sent == ref_sent
    assert ours.counters == ref.counters
    assert ports(ours) == ports(ref)
    assert [pool.in_flight for pool in pools] == [len(ours._tx)] * 2
    assert ours.drain_tx() == ref.drain_tx()
    assert ours.counters == ref.counters
    assert shard_pool_audit(pools)["balanced"]


def test_drain_tx_refill_stops_at_the_depth_at_entry():
    pool = BufferPool(128, 16)
    nic = Nic(tx_ring_size=8)
    nic.transmit_batch(frames(pool, 3))
    seen = []

    def hairpin(frame):
        seen.append(frame)
        nic.transmit(frame)  # back onto the ring it came from

    assert nic.drain_tx(hairpin) == 3
    assert len(seen) == 3 and nic.tx_depth == 3
    assert nic.counters["tx_completions"] == 3
    # An explicit budget drains refills up to the budget, as before.
    assert nic.drain_tx(hairpin, budget=5) == 5
    assert nic.counters["tx_completions"] == 8
    assert nic.drain_tx() == 3
    assert pool.in_flight == 0


def test_drain_tx_unwind_keeps_handed_frames_counted():
    pool = BufferPool(128, 8)
    nic = Nic(tx_ring_size=8)
    nic.transmit_batch(frames(pool, 4))
    handed = []

    def failing(frame):
        if len(handed) == 2:
            release_dropped(frame)
            raise RuntimeError("link down")
        handed.append(frame)
        release_dropped(frame)

    with pytest.raises(RuntimeError):
        nic.drain_tx(failing)
    assert nic.counters["tx_completions"] == 2
    assert nic.tx_depth == 1
    nic.drain_tx()
    assert pool.in_flight == 0


@pytest.mark.parametrize("budget", [None, 0, 2, 4, 9])
def test_drain_rx_follows_its_budget(budget):
    pool = BufferPool(128, 16)
    nic = Nic(rx_ring_size=8, pool=pool)
    nic.receive_batch([frame.to_bytes() for frame in frames(None, 4)])
    before = dict(nic.counters)
    taken = []
    expected = 4 if budget is None else min(budget, 4)
    assert nic.drain_rx(taken.append, budget=budget) == expected
    assert len(taken) == expected and nic.rx_depth == 4 - expected
    assert nic.counters == before
    for frame in taken:
        release_dropped(frame)
    nic.drain_rx(release_dropped)
    assert pool.in_flight == 0


def test_drain_rx_hairpin_budget_rules():
    pool = BufferPool(128, 16)
    nic = Nic(rx_ring_size=8, pool=pool)
    nic.receive_batch([frame.to_bytes() for frame in frames(None, 3)])
    # No budget: one ring's worth, the depth at entry.
    assert nic.drain_rx(nic.receive_frame) == 3
    assert nic.rx_depth == 3
    # An explicit budget drains refills up to the budget.
    assert nic.drain_rx(nic.receive_frame, budget=7) == 7
    assert nic.rx_depth == 3
    nic.drain_rx(release_dropped)
    assert pool.in_flight == 0
