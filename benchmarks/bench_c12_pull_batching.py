"""C12 — batch-aware pull side: amortising the queue→scheduler crossing.

PR 1 batched the *push* half of the in-band datapath (C11: batch
granularity, not call fusion, is the dispatch lever), but every pull
provider still moved one packet per ``pull()``, so a drain re-paid
per-packet dispatch at the queue→scheduler→egress crossing.  This
experiment measures what end-to-end pull batching buys: the scheduler
draws whole runs through the queues' ``pull_batch`` handles and hands
each service round downstream as one ``push_batch``.

All four systems drain the *same* pre-loaded two-class backlog through
the same work (strict-priority dequeue → stride-8 LPM lookup → per-hop
sink); queues are filled untimed, so only the pull side is measured.

Shape asserted:

- batched drain (pull_batch-32) beats the seed-style scalar pull loop on
  the component router (the headline claim of this refactor);
- the paper's ordering survives pull batching:
  monolithic >= Click-style >= Router CF (fused) >= Router CF (vtable).

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the trace and compares no
timings: it checks that every system delivered the whole backlog.
"""

import gc
import time

import pytest

from benchmarks.bench_c6_datapath import HOPS, PACKETS, routes_with_default
from benchmarks.conftest import SMOKE, make_route_trace, once, report
from repro.baselines import ClickRouter, MonolithicRouter, standard_click_config
from repro.opencom import Capsule, fuse_pipeline
from repro.router import (
    CollectorSink,
    FifoQueue,
    Forwarder,
    PriorityLinkScheduler,
)

pytestmark = pytest.mark.bench

BATCH_SIZES = (1, 8, 32, 128)
HEADLINE_BATCH = 32
CLASSES = ("expedited", "best-effort")
#: Interleaved repeats, best elapsed wins (same rationale as C11); one
#: lap under smoke, which compares no timings.
REPEATS = 1 if SMOKE else 3


def _build_cf_pull(routes, *, fused):
    """Queues → priority scheduler → forwarder → per-hop sinks."""
    capsule = Capsule("dut")
    queues = {}
    scheduler = capsule.instantiate(
        lambda: PriorityLinkScheduler(list(CLASSES)), "sched"
    )
    for klass in CLASSES:
        queue = capsule.instantiate(lambda: FifoQueue(PACKETS + 1), f"q-{klass}")
        capsule.bind(
            scheduler.receptacle("inputs"), queue.interface("pull0"),
            connection_name=klass,
        )
        queues[klass] = queue
    forwarder = capsule.instantiate(Forwarder, "fwd")
    forwarder.load_routes(routes)
    capsule.bind(scheduler.receptacle("out"), forwarder.interface("in0"))
    sinks = {}
    for hop in sorted(set(routes.values())):
        sink = capsule.instantiate(CollectorSink, f"sink-{hop}")
        capsule.bind(
            forwarder.receptacle("out"), sink.interface("in0"), connection_name=hop
        )
        sinks[hop] = sink
    if fused:
        fuse_pipeline(list(capsule.components().values()))
    return scheduler, queues, sinks


def _preload_cf(queues, trace):
    # No class filters: everything is best-effort, matching the Click and
    # monolithic configurations below (the expedited queue stays empty,
    # exercising the explicit empty-input skip every round).
    queues["best-effort"].push_batch(list(trace))


def run_cf_scalar_pull(routes, trace, *, fused):
    """The seed pull side: one vtable pull + one push per packet."""
    scheduler, queues, sinks = _build_cf_pull(routes, fused=fused)
    _preload_cf(queues, trace)
    vtable = scheduler.interface("pull0").vtable
    out_port = scheduler.receptacle("out").connections()[0]
    start = time.perf_counter()
    while True:
        packet = vtable.invoke("pull")
        if packet is None:
            break
        out_port.push(packet)
    elapsed = time.perf_counter() - start
    return elapsed, sum(s.collected_count() for s in sinks.values())


def run_cf_batch_drain(routes, trace, *, batch_size, fused):
    """The batched pull side: service rounds of *batch_size*."""
    scheduler, queues, sinks = _build_cf_pull(routes, fused=fused)
    _preload_cf(queues, trace)
    start = time.perf_counter()
    while scheduler.service(budget=batch_size):
        pass
    elapsed = time.perf_counter() - start
    return elapsed, sum(s.collected_count() for s in sinks.values())


def run_monolithic_drain(routes, trace, *, batch_size):
    router = MonolithicRouter(routes, queue_capacity=PACKETS + 1)
    router.push_batch(list(trace))
    start = time.perf_counter()
    while router.service(budget=batch_size):
        pass
    elapsed = time.perf_counter() - start
    return elapsed, router.counters["tx"]


def run_click_drain(routes, trace, *, batch_size):
    router = ClickRouter(
        standard_click_config(routes=routes, queue_capacity=PACKETS + 1)
    )
    router.push_batch(list(trace))
    start = time.perf_counter()
    while router.service(budget=batch_size):
        pass
    elapsed = time.perf_counter() - start
    delivered = sum(
        element.counters.get("rx", 0)
        for name, element in router.elements.items()
        if name.startswith("sink-")
    )
    return elapsed, delivered


def sweep(runners, routes):
    """Interleaved best-of-REPEATS per runner (see C11)."""
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


def test_c12_pull_batching_throughput(benchmark):
    def experiment():
        routes = routes_with_default()
        runners = {
            "CF vtable, scalar pull": lambda r, t: run_cf_scalar_pull(
                r, t, fused=False
            ),
            "CF fused, scalar pull": lambda r, t: run_cf_scalar_pull(
                r, t, fused=True
            ),
            **{
                f"CF fused, pull_batch-{size}": (
                    lambda r, t, s=size: run_cf_batch_drain(
                        r, t, batch_size=s, fused=True
                    )
                )
                for size in BATCH_SIZES
            },
            f"CF vtable, pull_batch-{HEADLINE_BATCH}": lambda r, t: run_cf_batch_drain(
                r, t, batch_size=HEADLINE_BATCH, fused=False
            ),
            f"monolithic, drain-{HEADLINE_BATCH}": lambda r, t: run_monolithic_drain(
                r, t, batch_size=HEADLINE_BATCH
            ),
            f"Click-style, drain-{HEADLINE_BATCH}": lambda r, t: run_click_drain(
                r, t, batch_size=HEADLINE_BATCH
            ),
        }
        results = sweep(runners, routes)

        base = results["CF vtable, scalar pull"][0]
        rows = [
            [name, f"{pps / 1e3:.0f}", f"{pps / base:.2f}x", delivered]
            for name, (pps, delivered) in results.items()
        ]
        report(
            "C12: batched pull-side drain, 1k-route IPv4 backlog "
            f"({PACKETS} packets)",
            ["system", "kpps", "vs scalar-pull vtable", "delivered"],
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
    mono = throughput[f"monolithic, drain-{HEADLINE_BATCH}"]
    click = throughput[f"Click-style, drain-{HEADLINE_BATCH}"]
    fused = throughput[f"CF fused, pull_batch-{HEADLINE_BATCH}"]
    vtable = throughput[f"CF vtable, pull_batch-{HEADLINE_BATCH}"]

    # Paper ordering preserved on the pull side (same slack style as C6).
    assert mono >= click * 0.9
    assert click >= fused * 0.9
    # Same 0.9 slack as the other pairs: the fused/vtable gap is ~1-2%
    # once batching amortises dispatch, inside back-to-back wall-clock noise.
    assert fused >= vtable * 0.9

    # Headline: the batched drain beats the seed scalar pull loop.
    assert vtable >= 1.3 * throughput["CF vtable, scalar pull"]
    assert fused >= 1.3 * throughput["CF fused, scalar pull"]
    # Bigger service rounds don't hurt (gross-regression slack).
    assert (
        throughput["CF fused, pull_batch-128"]
        >= throughput["CF fused, pull_batch-8"] * 0.7
    )


def test_c12_fused_drain_round(benchmark):
    """pytest-benchmark timing for one fused pull_batch-32 service round
    (the backlog is refilled untimed whenever it runs dry)."""
    routes = routes_with_default()
    scheduler, queues, _ = _build_cf_pull(routes, fused=True)
    trace = make_route_trace(routes, PACKETS)
    _preload_cf(queues, trace)

    def one_round():
        if scheduler.service(budget=HEADLINE_BATCH) < HEADLINE_BATCH:
            _preload_cf(queues, make_route_trace(routes, PACKETS))

    benchmark(one_round)
