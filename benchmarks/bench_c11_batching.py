"""C11 — batched in-band datapath: amortising per-invocation dispatch.

The paper's in-band stratum is "a highly performance-critical area in
which machine instructions must be counted with care" (section 3).  The
seed repo forwarded one packet at a time through a string-keyed vtable
``invoke`` per hop, so per-call overhead — not forwarding work —
dominated C6.  This experiment measures what end-to-end batching buys:
every layer (vtable ``invoke_batch``, port batch handles, component
``push_batch``, baseline elements) moves whole packet lists per crossing.

Shape asserted:

- fused batch-32 throughput >= 2x the seed-style per-packet vtable path
  on the C6 trace (the headline claim of the batching refactor);
- throughput is monotone-ish in batch size for the fused CF path;
- the paper's C6 ordering survives batching:
  monolithic >= Click-style >= Router CF (fused) >= Router CF (vtable).
"""

import gc
import time

import pytest

from benchmarks.bench_c6_datapath import HOPS, PACKETS, routes_with_default
from benchmarks.conftest import SMOKE, make_route_trace, once, report
from repro.baselines import ClickRouter, MonolithicRouter, standard_click_config
from repro.netsim import batched
from repro.opencom import Capsule, fuse_pipeline
from repro.router import build_forwarding_pipeline

pytestmark = pytest.mark.bench

BATCH_SIZES = (1, 8, 32, 128)
HEADLINE_BATCH = 32
#: Each configuration is measured this many times (fresh router, fresh
#: trace) and the best elapsed wins.  Repeats are *interleaved* across
#: configurations — a CPU-contention burst then degrades one repeat of
#: every configuration instead of every repeat of one, which would skew
#: the ~10% gaps the shape asserts care about.  Smoke compares no
#: timings, so one lap carries its delivered-count checks.
REPEATS = 1 if SMOKE else 3


def sweep(runners, routes):
    """Measure every runner REPEATS times (interleaved); return
    name -> (best pps, delivered), asserting deterministic delivery."""
    best: dict[str, float] = {}
    delivered: dict[str, int] = {}
    for _ in range(REPEATS):
        for name, runner in runners.items():
            gc.collect()
            elapsed, got = runner(routes, make_route_trace(routes, PACKETS))
            if name in delivered:
                assert got == delivered[name], name
            delivered[name] = got
            if name not in best or elapsed < best[name]:
                best[name] = elapsed
    return {name: (PACKETS / best[name], delivered[name]) for name in runners}


def _build_cf(routes, *, fused):
    capsule = Capsule("dut")
    pipeline = build_forwarding_pipeline(capsule, routes=routes)
    plan = None
    if fused:
        plan = fuse_pipeline(list(capsule.components().values()))
    return pipeline, plan


def _delivered(pipeline):
    return sum(
        sink.collected_count()
        for name, sink in pipeline.stages.items()
        if name.startswith("sink:")
    )


def run_cf_per_packet(routes, trace, *, fused):
    """The seed data path: one vtable invoke per packet per hop."""
    pipeline, _ = _build_cf(routes, fused=fused)
    start = time.perf_counter()
    for packet in trace:
        pipeline.push(packet)
    elapsed = time.perf_counter() - start
    return elapsed, _delivered(pipeline)


def run_cf_batch(routes, trace, *, batch_size, fused):
    """The batched data path: whole lists per crossing."""
    pipeline, _ = _build_cf(routes, fused=fused)
    batches = list(batched(trace, batch_size))
    start = time.perf_counter()
    for batch in batches:
        pipeline.push_batch(batch)
    elapsed = time.perf_counter() - start
    return elapsed, _delivered(pipeline)


def run_monolithic_batch(routes, trace, *, batch_size):
    router = MonolithicRouter(routes, queue_capacity=PACKETS + 1)
    batches = list(batched(trace, batch_size))
    start = time.perf_counter()
    for batch in batches:
        router.push_batch(batch)
    router.service(budget=PACKETS)
    elapsed = time.perf_counter() - start
    return elapsed, router.counters["tx"]


def run_click_batch(routes, trace, *, batch_size):
    router = ClickRouter(standard_click_config(routes=routes, queue_capacity=PACKETS + 1))
    batches = list(batched(trace, batch_size))
    start = time.perf_counter()
    for batch in batches:
        router.push_batch(batch)
    router.service(budget=PACKETS)
    elapsed = time.perf_counter() - start
    delivered = sum(
        element.counters.get("rx", 0)
        for name, element in router.elements.items()
        if name.startswith("sink-")
    )
    return elapsed, delivered


def test_c11_batching_throughput(benchmark):
    def experiment():
        routes = routes_with_default()
        runners = {
            "CF vtable, per-packet": lambda r, t: run_cf_per_packet(r, t, fused=False),
            "CF fused, per-packet": lambda r, t: run_cf_per_packet(r, t, fused=True),
            **{
                f"CF fused, batch-{size}": (
                    lambda r, t, s=size: run_cf_batch(r, t, batch_size=s, fused=True)
                )
                for size in BATCH_SIZES
            },
            f"CF vtable, batch-{HEADLINE_BATCH}": lambda r, t: run_cf_batch(
                r, t, batch_size=HEADLINE_BATCH, fused=False
            ),
            f"monolithic, batch-{HEADLINE_BATCH}": lambda r, t: run_monolithic_batch(
                r, t, batch_size=HEADLINE_BATCH
            ),
            f"Click-style, batch-{HEADLINE_BATCH}": lambda r, t: run_click_batch(
                r, t, batch_size=HEADLINE_BATCH
            ),
        }
        results = sweep(runners, routes)

        base = results["CF vtable, per-packet"][0]
        rows = [
            [name, f"{pps / 1e3:.0f}", f"{pps / base:.2f}x", delivered]
            for name, (pps, delivered) in results.items()
        ]
        report(
            "C11: batched forwarding throughput, 1k-route IPv4 trace "
            f"({PACKETS} packets)",
            ["system", "kpps", "vs per-packet vtable", "delivered"],
            rows,
        )
        return {name: pps for name, (pps, _) in results.items()}, results

    throughput, results = once(benchmark, experiment)
    for name, (_, delivered) in results.items():
        assert delivered == PACKETS, name

    # Every claim below compares wall-clock timings: smoke mode times
    # nothing, so it gates on the delivered counts (above) only.
    if SMOKE:
        return
    # Headline: batching + fusion buys >= 2x over the seed per-packet
    # vtable path on the same trace.
    headline = throughput[f"CF fused, batch-{HEADLINE_BATCH}"]
    assert headline >= 2.0 * throughput["CF vtable, per-packet"]

    # Batching helps even without fusion, and bigger batches don't
    # hurt (generous slack: only a gross regression fails).
    assert throughput[f"CF vtable, batch-{HEADLINE_BATCH}"] >= throughput[
        "CF vtable, per-packet"
    ]
    assert (
        throughput["CF fused, batch-128"]
        >= throughput["CF fused, batch-8"] * 0.7
    )

    # Paper ordering preserved under batching (same slack style as C6).
    mono = throughput[f"monolithic, batch-{HEADLINE_BATCH}"]
    click = throughput[f"Click-style, batch-{HEADLINE_BATCH}"]
    fused = throughput[f"CF fused, batch-{HEADLINE_BATCH}"]
    vtable = throughput[f"CF vtable, batch-{HEADLINE_BATCH}"]
    assert mono >= click * 0.9
    assert click >= fused * 0.9
    # Same 0.9 slack as the other pairs: the fused/vtable gap is ~1-2%
    # once batching amortises dispatch, inside back-to-back wall-clock noise.
    assert fused >= vtable * 0.9


def test_c11_fused_batch_pps(benchmark):
    """pytest-benchmark timing for one fused batch-32 crossing."""
    routes = routes_with_default()
    pipeline, _ = _build_cf(routes, fused=True)
    trace = make_route_trace(routes, PACKETS)
    batches = list(batched(trace, HEADLINE_BATCH))
    index = {"i": 0}

    def push_one_batch():
        pipeline.push_batch(batches[index["i"] % len(batches)])
        index["i"] += 1

    benchmark(push_one_batch)


def test_c11_fusion_plan_summary():
    """The fusion plan summary is exposed for benchmark logs."""
    routes = routes_with_default()
    capsule = Capsule("dut")
    build_forwarding_pipeline(capsule, routes=routes)
    plan = fuse_pipeline(list(capsule.components().values()))
    summary = plan.summary()
    assert summary.startswith("fused ")
    assert str(plan.fused_count) in summary
    print(f"\nC11 fusion: {summary} (hops: {', '.join(HOPS)})")
