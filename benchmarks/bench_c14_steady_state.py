"""C14 — pooled buffer lifecycle: zero steady-state allocation.

PR 3 made the forwarding path zero-copy, but packets were still *born*
outside the pool discipline: every trace packet arrived as a standalone
object, and a buffer's death depended on which component happened to end
its life.  This experiment closes the loop end to end — the paper's
stratum-1 buffer-management CF story:

- **ingress**: a :class:`~repro.osbase.nic.Nic` bound to a
  :class:`~repro.osbase.buffers.BufferPool` materialises each arriving
  raw frame as a pooled :class:`~repro.netsim.wire.WirePacket` (exactly
  one acquire + one recorded copy per packet);
- **datapath**: the four systems (CF vtable, CF fused, Click-style,
  monolithic) move buffer *references*, never bytes;
- **egress**: the CF pipelines terminate in
  :class:`~repro.router.components.nicadapters.TransmitAdapter` per-hop
  TX NICs whose wire drain releases every buffer back to the pool; the
  baselines use their recycling terminal sinks.

All four systems share one NAPI-style front-end loop (deposit a batch of
raw frames → ``drain_rx`` → one ``push_batch``), with a pool of only
``4 × batch`` buffers servicing thousands of packets per round — the
loop only survives if recycling actually works.

Deterministic headline criteria (event counting, asserted in smoke mode
too, for every system):

- **allocations / packet = 0.00** over the measured rounds: the
  :class:`~repro.osbase.memory.CopyLedger` records every fresh backing
  store carve (``Buffer.__init__``), so any standalone-buffer fallback
  or copy-on-write escape fails the run;
- **net acquires / packet = 0.00**: ``acquired_total`` and
  ``released_total`` advance in lock-step (every acquire is matched by a
  release on some drop/egress path);
- **full free-list recovery**: after the final drain the pool's free
  count returns exactly to its pre-trace mark (zero occupancy drift).

The paper's C6 ordering (monolithic ≥ Click ≥ CF fused ≥ CF vtable) is
asserted on the same loop, with the usual slack — on the full run only:
smoke mode compares no timings.
"""

import gc
import time

import pytest

from benchmarks.bench_c6_datapath import PACKETS, routes_with_default
from benchmarks.conftest import SMOKE, once, report, scaled
from repro.baselines import ClickRouter, MonolithicRouter, standard_click_config
from repro.netsim import batched, udp_route_trace
from repro.opencom import Capsule, fuse_pipeline
from repro.osbase import DATAPATH_LEDGER, BufferPool, Nic
from repro.router import build_forwarding_pipeline

pytestmark = pytest.mark.bench

BATCH = 32
#: Steady-state rounds measured after one warm-up round.
ROUNDS = scaled(4, 2)
#: Interleaved repeats, best elapsed wins (lifecycle counters are
#: deterministic, so round one's counts are kept — same style as C13).
REPEATS = 3
BUFFER_SIZE = 128
#: The whole point: a pool far smaller than the trace.  Each chunk of
#: BATCH frames is ingested, forwarded, and flushed before the next, so
#: ~BATCH buffers are ever in flight — 4x is slack, not headroom.
POOL_BUFFERS = BATCH * 4


def make_frames(routes):
    """The C6 trace as raw wire bytes (what actually arrives at a NIC);
    built untimed, reused every round — each round's TTLs start fresh."""
    return [packet.to_bytes() for packet in udp_route_trace(routes, count=PACKETS)]


def steady_measure(one_round, forwarded, pool, rx_nic):
    """Warm up one round, then measure ROUNDS of steady-state forwarding.

    Returns per-run lifecycle accounting: the ledger's allocation delta,
    the pool's acquire/release deltas, and the free-list recovery check
    inputs, plus elapsed time and packets forwarded.
    """
    one_round()  # warm-up: faults every pool buffer into circulation
    gc.collect()
    base_forwarded = forwarded()
    free_before = pool.stats()["free"]
    acquired_before = pool.acquired_total
    released_before = pool.released_total
    snap = DATAPATH_LEDGER.snapshot()
    start = time.perf_counter()
    for _ in range(ROUNDS):
        one_round()
    elapsed = time.perf_counter() - start
    stats = pool.stats()
    return {
        "elapsed": elapsed,
        "forwarded": forwarded() - base_forwarded,
        "allocations": DATAPATH_LEDGER.delta(snap)["allocations"],
        "acquired": pool.acquired_total - acquired_before,
        "released": pool.released_total - released_before,
        "free_before": free_before,
        "free_after": stats["free"],
        "in_flight": stats["in_flight"],
        "rx_drops": rx_nic.counters["rx_drops"],
        "exhaustion_events": stats["exhaustion_events"],
    }


def _frontend():
    """One pooled RX NIC per system: drop-newest on exhaustion (counted),
    so a recycling failure shows up as lost packets, not a crash."""
    pool = BufferPool(BUFFER_SIZE, POOL_BUFFERS, exhaustion_policy="drop-newest")
    nic = Nic(rx_ring_size=BATCH * 2, pool=pool)
    return pool, nic


def _feed(nic, chunks, push_batch, after_chunk):
    """The shared NAPI loop: deposit one chunk of raw frames, drain the
    RX ring into the datapath as one batch, let the system service it."""
    receive = nic.receive_frame
    drain = nic.drain_rx
    for chunk in chunks:
        for frame in chunk:
            receive(frame)
        got = []
        drain(got.append)
        if got:
            push_batch(got)
        after_chunk()


def run_cf(routes, *, fused):
    pool, rx_nic = _frontend()
    hops = sorted(set(routes.values()))
    tx_nics = {hop: Nic(tx_ring_size=BATCH * 4) for hop in hops}
    pipeline = build_forwarding_pipeline(
        Capsule("dut"), routes=routes, tx_nics=tx_nics
    )
    if fused:
        fuse_pipeline(list(pipeline.capsule.components().values()))
    chunks = list(batched(make_frames(routes), BATCH))

    def one_round():
        _feed(rx_nic, chunks, pipeline.push_batch, pipeline.flush_tx)

    def forwarded():
        return sum(
            adapter.counters.get("tx", 0)
            for adapter in pipeline.tx_adapters.values()
        )

    return steady_measure(one_round, forwarded, pool, rx_nic)


def run_monolithic(routes):
    pool, rx_nic = _frontend()
    router = MonolithicRouter(
        routes, queue_capacity=BATCH * 4, recycle_delivered=True
    )
    chunks = list(batched(make_frames(routes), BATCH))

    def one_round():
        _feed(rx_nic, chunks, router.push_batch, lambda: router.service(budget=BATCH))

    return steady_measure(one_round, lambda: router.counters["tx"], pool, rx_nic)


def run_click(routes):
    pool, rx_nic = _frontend()
    router = ClickRouter(
        standard_click_config(
            routes=routes, queue_capacity=BATCH * 4, recycle_sinks=True
        )
    )
    chunks = list(batched(make_frames(routes), BATCH))

    def one_round():
        _feed(rx_nic, chunks, router.push_batch, lambda: router.service(budget=BATCH))

    def forwarded():
        return sum(
            element.counters.get("rx", 0)
            for name, element in router.elements.items()
            if name.startswith("sink-")
        )

    return steady_measure(one_round, forwarded, pool, rx_nic)


def sweep(runners, routes):
    """Interleaved best-of-REPEATS timing; lifecycle counters (exact
    event counts) are kept from round one and cross-checked for
    determinism on later rounds."""
    results: dict[str, dict] = {}
    for _ in range(REPEATS):
        for name, runner in runners.items():
            outcome = runner(routes)
            if name not in results:
                results[name] = outcome
            else:
                kept = results[name]
                assert outcome["forwarded"] == kept["forwarded"], name
                assert outcome["allocations"] == kept["allocations"], name
                kept["elapsed"] = min(kept["elapsed"], outcome["elapsed"])
    return results


def test_c14_steady_state_lifecycle(benchmark):
    def experiment():
        routes = routes_with_default()
        runners = {
            "CF vtable": lambda r: run_cf(r, fused=False),
            "CF fused": lambda r: run_cf(r, fused=True),
            "Click-style": lambda r: run_click(r),
            "monolithic": lambda r: run_monolithic(r),
        }
        results = sweep(runners, routes)
        base = results["CF vtable"]["elapsed"]
        rows = []
        for name, res in results.items():
            pps = res["forwarded"] / res["elapsed"]
            rows.append(
                [
                    name,
                    f"{pps / 1e3:.0f}",
                    f"{base / res['elapsed']:.2f}x",
                    f"{res['allocations'] / max(res['forwarded'], 1):.2f}",
                    f"{(res['acquired'] - res['released']) / max(res['forwarded'], 1):.2f}",
                    f"{res['acquired'] / max(res['forwarded'], 1):.2f}",
                    res["forwarded"],
                ]
            )
        report(
            f"C14: steady-state pooled lifecycle, batch-{BATCH}, "
            f"{POOL_BUFFERS}-buffer pool, {ROUNDS}x{PACKETS} packets",
            [
                "system",
                "kpps",
                "vs vtable",
                "allocs/pkt",
                "net acq/pkt",
                "acq/pkt",
                "forwarded",
            ],
            rows,
        )
        return results

    results = once(benchmark, experiment)
    expected = ROUNDS * PACKETS
    for name, res in results.items():
        # Nothing was lost: the pool recycled fast enough for a 128-buffer
        # pool to carry every packet of every round.
        assert res["forwarded"] == expected, (name, res)
        assert res["rx_drops"] == 0, (name, res)
        assert res["exhaustion_events"] == 0, (name, res)
        # Headline: zero steady-state allocation.  Every buffer carve in
        # the measured region would show in the ledger; there are none —
        # warm forwarding runs entirely on recycled pool buffers.
        assert res["allocations"] == 0, (name, res)
        # One acquire per packet at ingress, each matched by a release on
        # egress: zero net pool acquires per forwarded packet.
        assert res["acquired"] == expected, (name, res)
        assert res["acquired"] == res["released"], (name, res)
        # Full free-list recovery: occupancy returns exactly to its
        # pre-trace mark once the last round drains.
        assert res["in_flight"] == 0, (name, res)
        assert res["free_after"] == res["free_before"], (name, res)

    # Paper ordering on the same loop (C6/C13 slack style), on the full
    # run only: smoke mode compares no timings.  The fused/vtable pair
    # gets the same 0.9 slack as the others: its real gap here is ~2%
    # (fusion adds little once batching amortises dispatch — the C11/C12
    # finding), which sits inside wall-clock noise.
    if SMOKE:
        return

    def pps(name):
        return results[name]["forwarded"] / results[name]["elapsed"]

    assert pps("monolithic") >= pps("Click-style") * 0.9
    assert pps("Click-style") >= pps("CF fused") * 0.9
    assert pps("CF fused") >= pps("CF vtable") * 0.9


def test_c14_fused_steady_round(benchmark):
    """pytest-benchmark timing of one fused steady-state round (ingest →
    forward → TX flush) — the whole lifecycle per iteration."""
    routes = routes_with_default()
    pool, rx_nic = _frontend()
    tx_nics = {hop: Nic(tx_ring_size=BATCH * 4) for hop in sorted(set(routes.values()))}
    pipeline = build_forwarding_pipeline(Capsule("dut"), routes=routes, tx_nics=tx_nics)
    fuse_pipeline(list(pipeline.capsule.components().values()))
    chunks = list(batched(make_frames(routes), BATCH))

    def one_round():
        _feed(rx_nic, chunks, pipeline.push_batch, pipeline.flush_tx)

    benchmark(one_round)
    assert pool.stats()["in_flight"] == 0
