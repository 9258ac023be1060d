"""C17 — compiled hot path: per-shard specialised forwarding functions.

C11 showed batching amortises *dispatch*; fusion then removed the
per-crossing indirection.  What remains on the fused batch path is the
interpreted body of every stage: generic ``checksum_ok``/``decrement_ttl``
calls, header re-packs, per-stage list handling.  C17 compiles the whole
uninterferable region — classifier -> LPM -> TTL/checksum -> queue — into
a single specialised callable per pipeline (the paper's "machine
instructions must be counted with care" taken to its conclusion: when the
meta-models guarantee no interceptors and a frozen graph, the component
boundaries can be erased entirely, and reflection revokes the specialised
function the moment that guarantee breaks).

The compiled cell composes per-component specialised kernels as
closures (``compiled=True``).

Shape asserted on the full profile:

- compiled batch-32 >= 1.4x the fused batch-32 path on the C6 trace;
- the paper's C6/C11 ordering survives, with the compiled row above
  fused: monolithic >= Click-style >= CF fused >= CF vtable, and
  compiled >= fused.

Under smoke only the exact claims gate: every cell delivers the whole
trace and the compilation plan is active and specialised.  Wall-clock
orderings are not asserted on the tiny trace.
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

BATCH = 32
#: Compiled-vs-fused gaps are the whole point here, and the >= 2x source
#: margin is tighter than C11's headline, so take the best of more
#: interleaved repeats than C11 uses (same rationale: a contention burst
#: degrades one repeat of every configuration, not every repeat of one).
REPEATS = 5


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


def _delivered(pipeline):
    return sum(
        sink.collected_count()
        for name, sink in pipeline.stages.items()
        if name.startswith("sink:")
    )


def run_cf_batch(routes, trace, *, fused):
    """The C11 batched path: vtable or fused, whole lists per crossing."""
    capsule = Capsule("dut")
    pipeline = build_forwarding_pipeline(capsule, routes=routes)
    if fused:
        fuse_pipeline(list(capsule.components().values()))
    batches = list(batched(trace, BATCH))
    start = time.perf_counter()
    for batch in batches:
        pipeline.push_batch(batch)
    elapsed = time.perf_counter() - start
    return elapsed, _delivered(pipeline)


def run_cf_compiled(routes, trace):
    """The compiled path: one specialised callable for the whole chain."""
    capsule = Capsule("dut")
    pipeline = build_forwarding_pipeline(capsule, routes=routes, compiled=True)
    plan = pipeline.compiled_plan
    assert plan is not None and plan.active
    batches = list(batched(trace, BATCH))
    start = time.perf_counter()
    for batch in batches:
        pipeline.push_batch(batch)
    elapsed = time.perf_counter() - start
    return elapsed, _delivered(pipeline)


def run_monolithic_batch(routes, trace):
    router = MonolithicRouter(routes, queue_capacity=PACKETS + 1)
    batches = list(batched(trace, BATCH))
    start = time.perf_counter()
    for batch in batches:
        router.push_batch(batch)
    router.service(budget=PACKETS)
    elapsed = time.perf_counter() - start
    return elapsed, router.counters["tx"]


def run_click_batch(routes, trace):
    router = ClickRouter(standard_click_config(routes=routes, queue_capacity=PACKETS + 1))
    batches = list(batched(trace, BATCH))
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


def test_c17_compiled_throughput(benchmark):
    def experiment():
        routes = routes_with_default()
        runners = {
            f"monolithic, batch-{BATCH}": run_monolithic_batch,
            f"Click-style, batch-{BATCH}": run_click_batch,
            f"CF vtable, batch-{BATCH}": lambda r, t: run_cf_batch(r, t, fused=False),
            f"CF fused, batch-{BATCH}": lambda r, t: run_cf_batch(r, t, fused=True),
            f"CF compiled, batch-{BATCH}": run_cf_compiled,
        }
        results = sweep(runners, routes)

        base = results[f"CF fused, batch-{BATCH}"][0]
        rows = [
            [name, f"{pps / 1e3:.0f}", f"{pps / base:.2f}x", delivered]
            for name, (pps, delivered) in results.items()
        ]
        report(
            "C17: compiled hot path vs fused/baselines, 1k-route IPv4 "
            f"trace ({PACKETS} packets, batch-{BATCH})",
            ["system", "kpps", "vs CF fused", "delivered"],
            rows,
        )
        print(f"[bench-meta] repeats={REPEATS}")
        return {name: pps for name, (pps, _) in results.items()}, results

    throughput, results = once(benchmark, experiment)
    for name, (_, delivered) in results.items():
        assert delivered == PACKETS, name

    # Wall-clock comparisons are noise-dominated on the smoke trace;
    # smoke gates only on the exact delivery counts above.
    if SMOKE:
        return
    mono = throughput[f"monolithic, batch-{BATCH}"]
    click = throughput[f"Click-style, batch-{BATCH}"]
    vtable = throughput[f"CF vtable, batch-{BATCH}"]
    fused = throughput[f"CF fused, batch-{BATCH}"]
    closure = throughput[f"CF compiled, batch-{BATCH}"]

    # Closure composition erases a large share of the interpreted-stage
    # cost over the fused batch path on the same trace.
    assert closure >= 1.4 * fused

    # Paper ordering preserved (same 0.9 slack style as C6/C11), and the
    # compiled row slots in above fused.
    assert mono >= click * 0.9
    assert click >= fused * 0.9
    assert fused >= vtable * 0.9
    assert closure >= fused * 0.9


def test_c17_compiled_batch_pps(benchmark):
    """pytest-benchmark timing for one compiled batch-32 crossing."""
    routes = routes_with_default()
    capsule = Capsule("dut")
    pipeline = build_forwarding_pipeline(capsule, routes=routes, compiled=True)
    trace = make_route_trace(routes, PACKETS)
    batches = list(batched(trace, BATCH))
    index = {"i": 0}

    def push_one_batch():
        pipeline.push_batch(batches[index["i"] % len(batches)])
        index["i"] += 1

    benchmark(push_one_batch)


def test_c17_compilation_plan_summary():
    """The compilation plan summary is exposed for benchmark logs."""
    routes = routes_with_default()
    capsule = Capsule("dut")
    pipeline = build_forwarding_pipeline(capsule, routes=routes, compiled=True)
    plan = pipeline.compiled_plan
    summary = plan.summary()
    assert summary.startswith("compiled 'push' chain [active]")
    assert plan.inlined_count >= 3
    print(f"\nC17 compilation: {summary} (hops: {', '.join(HOPS)})")
