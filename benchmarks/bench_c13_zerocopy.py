"""C13 — zero-copy wire-format datapath: byte work per forwarded packet.

PR 1/PR 2 amortised *dispatch* (push/pull batching); after them the
dominant per-packet cost on the C6 path is *byte work* — every hop packs
a 20-byte header to validate the checksum and packs another to refresh it
after the TTL decrement.  The zero-copy path (:mod:`repro.netsim.wire`)
materialises each packet once into a pooled buffer and then reads/writes
header fields through ``unpack_from``/``pack_into`` on a memoryview,
patching the checksum with RFC 1624 incremental updates, so the per-hop
allocation count drops to zero.

Measured on the same 1k-route IPv4 trace as C6, all systems at batch-32:

- **copies/packet** — the :class:`~repro.osbase.memory.CopyLedger` delta
  over the timed region divided by forwarded packets.  This is exact
  event counting, not timing, so it is asserted in smoke mode too: the
  wire path must do at least 2x fewer byte-copies per forwarded packet
  than the copy path (headline criterion);
- **per-packet time** — wire vs copy path on the component router, and
  the paper's C6 ordering across all four systems *on the wire path*
  (monolithic >= Click-style >= CF fused >= CF vtable): all four share
  the polymorphic byte path, so the comparison stays structural.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the trace and keeps the
copies/packet and delivered-count assertions; it compares no timings.
"""

import gc
import time

import pytest

from benchmarks.bench_c6_datapath import PACKETS, routes_with_default
from benchmarks.conftest import SMOKE, make_route_trace, once, report
from repro.baselines import ClickRouter, MonolithicRouter, standard_click_config
from repro.netsim import batched, wire_trace
from repro.opencom import Capsule, fuse_pipeline
from repro.osbase import DATAPATH_LEDGER, BufferPool
from repro.router import build_forwarding_pipeline

pytestmark = pytest.mark.bench

HEADLINE_BATCH = 32
#: Interleaved repeats, best elapsed wins (same rationale as C11/C12);
#: ledger deltas are deterministic, so the first repeat's counts are kept.
#: One lap under smoke, which compares no timings.
REPEATS = 1 if SMOKE else 3
#: Wire buffers come from a real buffer-management pool so the experiment
#: also exercises pool accounting (one acquire per packet, zero after).
BUFFER_SIZE = 128


def _wire(trace):
    """Materialise a trace onto the wire path (untimed setup): one pooled
    buffer per packet, the single copy the zero-copy path ever pays."""
    pool = BufferPool(BUFFER_SIZE, len(trace) + 8)
    packets = wire_trace(trace, pool=pool)
    assert pool.acquired_total == len(trace)
    return packets


def _run_timed(push_all, delivered_fn):
    """Time *push_all* and return (elapsed, delivered, ledger delta)."""
    gc.collect()
    snap = DATAPATH_LEDGER.snapshot()
    start = time.perf_counter()
    push_all()
    elapsed = time.perf_counter() - start
    return elapsed, delivered_fn(), DATAPATH_LEDGER.delta(snap)


def run_cf(routes, trace, *, fused):
    pipeline = build_forwarding_pipeline(Capsule("dut"), routes=routes)
    if fused:
        fuse_pipeline(list(pipeline.capsule.components().values()))
    batches = list(batched(trace, HEADLINE_BATCH))

    def push_all():
        push_batch = pipeline.push_batch
        for batch in batches:
            push_batch(batch)

    def delivered():
        return sum(
            sink.collected_count()
            for name, sink in pipeline.stages.items()
            if name.startswith("sink:")
        )

    return _run_timed(push_all, delivered)


def run_monolithic(routes, trace):
    router = MonolithicRouter(routes, queue_capacity=PACKETS + 1)
    batches = list(batched(trace, HEADLINE_BATCH))

    def push_all():
        push_batch = router.push_batch
        for batch in batches:
            push_batch(batch)
        router.service(budget=PACKETS)

    return _run_timed(push_all, lambda: router.counters["tx"])


def run_click(routes, trace):
    router = ClickRouter(
        standard_click_config(routes=routes, queue_capacity=PACKETS + 1)
    )
    batches = list(batched(trace, HEADLINE_BATCH))

    def push_all():
        push_batch = router.push_batch
        for batch in batches:
            push_batch(batch)
        router.service(budget=PACKETS)

    def delivered():
        return sum(
            element.counters.get("rx", 0)
            for name, element in router.elements.items()
            if name.startswith("sink-")
        )

    return _run_timed(push_all, delivered)


def sweep(runners, routes):
    """Interleaved best-of-REPEATS timing; ledger counts from round one."""
    best: dict[str, float] = {}
    delivered: dict[str, int] = {}
    copies: dict[str, dict] = {}
    for _ in range(REPEATS):
        for name, runner in runners.items():
            elapsed, got, delta = runner(routes)
            if name in delivered:
                assert got == delivered[name], name
            else:
                copies[name] = delta
            delivered[name] = got
            if name not in best or elapsed < best[name]:
                best[name] = elapsed
    return {
        name: (PACKETS / best[name], delivered[name], copies[name])
        for name in runners
    }


def test_c13_zerocopy_byte_work(benchmark):
    def experiment():
        routes = routes_with_default()
        runners = {
            "CF vtable, copy path": lambda r: run_cf(
                r, make_route_trace(r, PACKETS), fused=False
            ),
            "CF fused, copy path": lambda r: run_cf(
                r, make_route_trace(r, PACKETS), fused=True
            ),
            "CF vtable, wire path": lambda r: run_cf(
                r, _wire(make_route_trace(r, PACKETS)), fused=False
            ),
            "CF fused, wire path": lambda r: run_cf(
                r, _wire(make_route_trace(r, PACKETS)), fused=True
            ),
            "monolithic, wire path": lambda r: run_monolithic(
                r, _wire(make_route_trace(r, PACKETS))
            ),
            "Click-style, wire path": lambda r: run_click(
                r, _wire(make_route_trace(r, PACKETS))
            ),
        }
        results = sweep(runners, routes)
        base = results["CF vtable, copy path"][0]
        rows = [
            [
                name,
                f"{pps / 1e3:.0f}",
                f"{pps / base:.2f}x",
                f"{delta['copies'] / max(got, 1):.2f}",
                f"{delta['copy_bytes'] / max(got, 1):.0f}",
                got,
            ]
            for name, (pps, got, delta) in results.items()
        ]
        report(
            f"C13: zero-copy wire datapath, batch-{HEADLINE_BATCH}, "
            f"1k-route IPv4 trace ({PACKETS} packets)",
            ["system", "kpps", "vs copy vtable", "copies/pkt", "copy B/pkt", "delivered"],
            rows,
        )
        return results

    results = once(benchmark, experiment)
    for name, (_, got, _) in results.items():
        assert got == PACKETS, name

    def copies_per_packet(name):
        _, got, delta = results[name]
        return delta["copies"] / max(got, 1)

    # Headline (deterministic, asserted in smoke too): the wire path does
    # >= 2x fewer byte-copies per forwarded packet than the copy path.
    for regime in ("vtable", "fused"):
        copy_cpp = copies_per_packet(f"CF {regime}, copy path")
        wire_cpp = copies_per_packet(f"CF {regime}, wire path")
        assert wire_cpp * 2 <= copy_cpp, (regime, wire_cpp, copy_cpp)
    # The copy path's byte work is real: one header pack to validate, one
    # to refresh after the TTL decrement.
    assert copies_per_packet("CF fused, copy path") >= 2

    # Every claim below compares wall-clock timings: smoke mode times
    # nothing, so it gates on the counts above only.
    if SMOKE:
        return
    # Paper ordering on the wire path (same slack style as C6/C12).
    mono = results["monolithic, wire path"][0]
    click = results["Click-style, wire path"][0]
    fused = results["CF fused, wire path"][0]
    vtable = results["CF vtable, wire path"][0]
    assert mono >= click * 0.9
    assert click >= fused * 0.9
    # Same 0.9 slack as the other pairs: the fused/vtable gap is ~1-2%
    # once batching amortises dispatch, inside back-to-back wall-clock noise.
    assert fused >= vtable * 0.9

    # Dropping the per-hop byte work must not cost time: the wire path
    # is at least as fast as the copy path (gross-regression slack).
    assert (
        results["CF fused, wire path"][0]
        >= results["CF fused, copy path"][0] * 0.9
    )


def test_c13_fused_wire_batch(benchmark):
    """pytest-benchmark timing for one fused wire-path batch-32 push."""
    routes = routes_with_default()
    pipeline = build_forwarding_pipeline(Capsule("dut"), routes=routes)
    fuse_pipeline(list(pipeline.capsule.components().values()))
    trace = _wire(make_route_trace(routes, PACKETS))
    batches = list(batched(trace, HEADLINE_BATCH))
    index = {"i": 0}

    def push_one_batch():
        batch = batches[index["i"] % len(batches)]
        index["i"] += 1
        for packet in batch:
            # Re-arm in place so repeated rounds never expire the TTL
            # (both writes stay on the view; no allocation).
            packet.net.ttl = 64
            packet.net.refresh_checksum()
        pipeline.push_batch(batch)

    benchmark(push_one_batch)
