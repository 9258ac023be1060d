"""One measured run of one workload: set up, verify, time, report.

Load is closed-loop, one client, one process, one thread: offer one
burst of 256 frames, pump to quiescence, next burst.  Everything under
test is cooperative and single-threaded, so a second generator would
measure the host's scheduler, not the router.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Any

from repro.osbase import DATAPATH_LEDGER

from benchmarks.e1 import layers
from benchmarks.e1.oracle import EgressSink, reference, verify
from benchmarks.e1.run import ROOT
from benchmarks.e1.systems import Box, Fleet, NicSpine
from benchmarks.e1.tracing import NullTracer, Tracer
from benchmarks.e1.traffic import BURST, ROUTE_PREFIXES, Traffic, load_routes, make_traffic

#: Counters that are levels, not running totals: the verify lap reports
#: them as read at its end instead of as a difference.
LEVELS = {"backlog_peak", "parked_peak", "pool.free_low_watermark", "pool.in_flight"}
#: Set-ups timed per run (the last one is the system measured);
#: ``setup_s`` is their median.
SETUPS = 5
#: The seed runs use when none is given (the README names the one held
#: out of development).
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., Any]
    #: Keyword arguments of :func:`~benchmarks.e1.traffic.make_traffic`.
    traffic: dict
    #: Bursts per lap (the unique trace), in the warm-up lap that ends
    #: set-up, and reconfiguration cycles run after the timed region.
    lap: int
    warm: int
    cycles: int
    routes: int = ROUTE_PREFIXES

    def quick(self) -> "Workload":
        """The contract self-test's profile: an eighth of a lap, two
        cycles, a route table that loads in a millisecond."""
        return Workload(self.name, self.build, self.traffic, 8, 4, min(self.cycles, 2), 64)


def _churn(quick: bool) -> Callable[..., Box]:
    # Periods in bursts: a resize every 16 (a 2 -> 4 -> 2 cycle every
    # 32), the interceptor one burst in 64.  Quick laps are 8 bursts
    # long, so their periods shrink to fit one.
    churn = (2, 8) if quick else (16, 64)
    return lambda routes, sink, tracer: Box(
        routes, sink, tracer, shards=2, other=4, churn=churn
    )


def workloads(quick: bool = False) -> dict[str, Workload]:
    table = [
        Workload("nic-spine", NicSpine, {}, lap=64, warm=16, cycles=512),
        Workload(
            "box-8shard",
            lambda routes, sink, tracer: Box(routes, sink, tracer, shards=8, other=4),
            {},
            lap=64,
            warm=16,
            cycles=24,
        ),
        Workload(
            "fleet-2x2",
            Fleet,
            {"zipf": True, "imix": True, "hostile": True},
            lap=32,
            warm=16,
            cycles=48,
        ),
        # Its reconfiguration rounds run inside the laps.
        Workload("reconfig-churn", _churn(quick), {"zipf": True}, lap=64, warm=32, cycles=0),
    ]
    return {w.name: (w.quick() if quick else w) for w in table}


# -- driving -----------------------------------------------------------------------


def drive(system: Any, bursts: list[list[bytes]], tracer: Any, burst_s: list[float]) -> None:
    """Offer *bursts* one at a time, timing each to quiescence."""
    span = tracer.span
    for burst in bursts:
        tracer.burst += 1
        start = perf_counter()
        with span("burst"):
            system.offer(burst)
        burst_s.append(perf_counter() - start)


@dataclass
class Setup:
    seconds: float
    routes: dict
    system: Any


def set_up(workload: Workload, sink: EgressSink, tracer: Any, warm: list[list[bytes]]) -> Setup:
    """Route load + assembly + warm-up lap: what a user waits for before
    the first frame is forwarded at speed."""
    gc.collect()
    start = perf_counter()
    routes = load_routes(workload.routes)
    system = workload.build(routes, sink, tracer)
    drive(system, warm, tracer, [])
    return Setup(perf_counter() - start, routes, system)


@dataclass
class Checked:
    """The verify lap's outcome."""

    failed: int
    problems: list[str]
    capture: list
    #: Exact event counts over the lap.
    counts: dict[str, float]


def verify_lap(setup: Setup, traffic: Traffic, sink: EgressSink, tracer: Any) -> Checked:
    """Lap 1: every egressed frame against the oracle, every drop under
    its named counter, nothing refused, fed == egressed + drops."""
    system = setup.system
    ref = reference(setup.routes, traffic)
    before = system.counters()
    ledger = DATAPATH_LEDGER.snapshot()
    egressed = sink.total
    sink.capture = capture = []
    drive(system, traffic.bursts(), tracer, [])
    sink.capture = None
    counts = {
        key: value if key in LEVELS else value - before[key]
        for key, value in system.counters().items()
    }
    moved = DATAPATH_LEDGER.delta(ledger)
    # The capture itself copies each egressed frame out (``to_bytes``).
    counts["ledger.copies"] = moved["copies"] - len(capture)
    counts["ledger.allocations"] = moved["allocations"]
    counts["egressed"] = egressed = sink.total - egressed

    failed, problems = verify(capture, ref)
    offered = len(traffic.frames)
    if offered != egressed + sum(ref.drops.values()):
        problems.append(
            f"fed {offered} != egressed {egressed} + expected drops {sum(ref.drops.values())}"
        )
    named = {
        "ttl": counts["drop_ttl"],
        "checksum": counts["drop_checksum"],
        "truncated": counts.get("fleet.malformed", 0) + counts.get("steer_malformed", 0),
    }
    for kind, want in ref.drops.items():
        if named[kind] != want:
            failed += abs(named[kind] - want)
            problems.append(f"{want} {kind} frames offered, {named[kind]} counted under its counter")
    for key in (
        "nic.rx_drops",
        "nic.malformed_drops",
        "pool.exhaustion_events",
        "steer_refused",
        "fleet.link_refused",
        "link.dropped",
    ):
        if counts.get(key, 0):
            failed += int(counts[key])
            problems.append(f"{key} = {counts[key]} on a workload sized to refuse nothing")
    return Checked(failed, problems, capture, counts)


def quiet_quarter(samples: list, key: Callable[[Any], float]) -> list:
    """The fastest quarter of *samples* (rounded up), by *key* seconds.

    This host shares its cores: interference only ever adds time, comes
    in phases of a second to tens of seconds (about a third of the time
    when this was written) and leaves the process at 100 % CPU, so it
    cannot be detected, only outvoted.  Across runs the median lap moved
    by 25 %, the 75th-percentile lap by 15 %, the 87th by 8 %.  So every
    timing a run reports is the median over the quiet quarter of its
    laps (or reconfiguration cycles, or set-ups).  What the program does
    to itself within a lap — collections, resizes — stays in; a slowdown
    that builds up over many laps would not, which is why the README
    asks a change suspected of one to compare first and last laps.
    """
    return sorted(samples, key=key)[: quarter_of(len(samples))]


def quarter_of(n: int) -> int:
    return (n + 3) // 4


def quiet_median(seconds: list[float]) -> float:
    return statistics.median(quiet_quarter(seconds, lambda s: s))


@dataclass
class Lap:
    wall: float
    cpu: float
    egressed: int
    burst_s: list[float]


@dataclass
class Timed:
    """The timed region's outcome."""

    laps: list[Lap]
    failed: int = 0
    gc_collections: int = 0

    def quiet(self) -> list[Lap]:
        return quiet_quarter(self.laps, lambda lap: lap.wall)

    @property
    def kpps(self) -> float:
        return statistics.median(lap.egressed / lap.wall for lap in self.quiet()) / 1e3

    @property
    def cpu_util(self) -> float:
        return sum(lap.cpu for lap in self.laps) / sum(lap.wall for lap in self.laps)

    def burst_ms(self, q: float) -> float:
        bursts = sorted(b for lap in self.quiet() for b in lap.burst_s)
        return bursts[min(len(bursts) - 1, int(q * len(bursts)))] * 1e3


def timed_region(
    system: Any, traffic: Traffic, sink: EgressSink, tracer: Any, seconds: float
) -> Timed:
    """Replay the lap for *seconds*.  Set-up is over, so everything it
    built is frozen out of the collector's reach first, as a long-running
    router would: otherwise each full collection re-scans every shard's
    route table and the pauses, not the datapath, set the tail."""
    bursts = traffic.bursts()
    timed = Timed([])
    gc.collect()
    gc.freeze()
    collections = sum(s["collections"] for s in gc.get_stats())
    began = perf_counter()
    while perf_counter() - began < seconds:
        lap = Lap(0.0, process_time(), sink.total, [])
        start = perf_counter()
        drive(system, bursts, tracer, lap.burst_s)
        lap.wall = perf_counter() - start
        lap.cpu = process_time() - lap.cpu
        lap.egressed = sink.total - lap.egressed
        timed.laps.append(lap)
        timed.failed += abs(traffic.valid - lap.egressed)
    timed.gc_collections = sum(s["collections"] for s in gc.get_stats()) - collections
    gc.unfreeze()
    return timed


def reconfig_cycles(
    system: Any, traffic: Traffic, sink: EgressSink, cycles: int
) -> tuple[list[float], int, int]:
    """Run *cycles* reconfiguration cycles, each into a live backlog.
    Returns (seconds per cycle, frames offered, frames failed)."""
    bursts = traffic.bursts()
    kinds = traffic.kinds
    state = {"next": 0, "offered": 0, "valid": 0}

    def next_burst() -> list[bytes]:
        index = state["next"] % len(bursts)
        state["next"] += 1
        state["offered"] += len(bursts[index])
        state["valid"] += kinds[index * BURST : (index + 1) * BURST].count("ok")
        return bursts[index]

    egressed = sink.total
    seconds = [system.reconfig(next_burst) for _ in range(cycles)]
    return seconds, state["offered"], abs(state["valid"] - (sink.total - egressed))


#: Per-layer metric → the spans whose self time it reports (ns per
#: offered frame).
SPAN_METRICS = {
    "osbase.nic.rx_span_ns": ("nic.rx", "nic.drain"),
    "router.pipeline.push_batch_ns": ("spine.push_batch",),
    "router.pipeline.flush_tx_ns": ("tx.flush",),
    "osbase.sharding.steer_ns": ("shard.steer",),
    "osbase.sharding.pump_self_ns": ("runtime.pump", "capsule.pump"),
    "osbase.sharding.reconfig_span_ns": ("reconfig.round",),
    "router.fleet.ingest_ns": ("edge.ingest",),
    "router.fleet.pump_self_ns": ("fleet.pump",),
    "netsim.engine.run_self_ns": ("link.deliver",),
    "run.tx_handler_ns": ("tx.handler",),
    "run.harness_self_ns": ("burst",),
}
#: Per-layer metric → (verify-lap counter, frames it is reported per:
#: 0 for the count as it stands, 1 per frame, 1000 per kframe).
COUNT_METRICS = {
    "netsim.wire.copies_per_frame": ("ledger.copies", 1),
    "osbase.buffers.allocs_per_frame": ("ledger.allocations", 1),
    "osbase.buffers.acquires_per_frame": ("pool.acquired", 1),
    "osbase.buffers.in_flight_end": ("pool.in_flight", 0),
    "osbase.buffers.exhaustion_events": ("pool.exhaustion_events", 0),
    "osbase.buffers.free_low_watermark": ("pool.free_low_watermark", 0),
    "osbase.nic.rx_drops": ("nic.rx_drops", 0),
    "osbase.nic.malformed_drops": ("nic.malformed_drops", 0),
    "router.components.drop_ttl": ("drop_ttl", 0),
    "router.components.drop_checksum": ("drop_checksum", 0),
    "osbase.sharding.pump_steps_per_kframe": ("pump_steps", 1000),
    "osbase.sharding.stolen_batches": ("stolen_batches", 0),
    "osbase.sharding.rebalances": ("rebalances", 0),
    "osbase.sharding.steer_refused": ("steer_refused", 0),
    "osbase.sharding.backlog_peak": ("backlog_peak", 0),
    "osbase.sharding.resize_moved_buckets": ("moved_buckets", 0),
    "osbase.sharding.resize_drained_frames": ("resize_drained", 0),
    "osbase.sharding.parked_peak": ("parked_peak", 0),
    "osbase.scheduler.quanta_per_kframe": ("quanta", 1000),
    "router.fleet.link_refused": ("fleet.link_refused", 0),
    "router.fleet.malformed": ("fleet.malformed", 0),
    "netsim.engine.events_per_frame": ("engine.events", 1),
    "netsim.link.dropped": ("link.dropped", 0),
}


# -- one run -----------------------------------------------------------------------


def run_untraced(
    workload: Workload, traffic: Traffic, seconds: float, setups: int, tamper: Any
) -> dict:
    sink = EgressSink(tamper)
    tracer = NullTracer()
    warm = traffic.bursts()[: workload.warm]
    setup_s = []
    setup = None
    for _ in range(setups):
        if setup is not None:
            setup.system.close()
        setup = set_up(workload, sink, tracer, warm)
        setup_s.append(setup.seconds)
    system = setup.system
    checked = verify_lap(setup, traffic, sink, tracer)
    timed = timed_region(system, traffic, sink, tracer, seconds)
    if workload.cycles:
        cycle_s, cycle_frames, cycle_failed = reconfig_cycles(
            system, traffic, sink, workload.cycles
        )
    else:
        cycle_s = system.in_lap_cycles()
        cycle_frames = cycle_failed = 0
    problems = checked.problems + system.problems()
    system.close()
    lap_frames = len(traffic.frames)
    attempted = lap_frames * (1 + len(timed.laps)) + cycle_frames
    failed = checked.failed + timed.failed + cycle_failed
    metrics = {
        "fwd_kpps": (timed.kpps, "kframes/s"),
        "burst_ms_p50": (timed.burst_ms(0.5), "ms"),
        "burst_ms_p90": (timed.burst_ms(0.9), "ms"),
        "reconfig_ms_p50": (quiet_median(cycle_s) * 1e3, "ms"),
        "setup_s": (quiet_median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    rates = [lap.egressed / lap.wall for lap in timed.laps]
    quarter = quarter_of(len(rates))
    notes = {
        "laps": len(timed.laps),
        "bursts": sum(len(lap.burst_s) for lap in timed.laps),
        "reconfig_cycles": len(cycle_s),
        "setups": setup_s,
        "cpu_util": timed.cpu_util,
        # Drift check: the quiet-quarter rule would hide a slowdown that
        # builds up over laps, the first and last quarters would not.
        "kpps_all_laps_median": statistics.median(rates) / 1e3,
        "kpps_first_vs_last_quarter": [
            statistics.median(rates[: quarter]) / 1e3,
            statistics.median(rates[-quarter:]) / 1e3,
        ],
        "burst_ms_p99": timed.burst_ms(0.99),
        "loss_ratio": failed / attempted,
        "gc_collections": timed.gc_collections,
    }
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "notes": notes,
    }


def run_traced(
    workload: Workload, traffic: Traffic, seconds: float, tamper: Any, nic_frames: list[bytes]
) -> dict:
    """The per-layer run: the builder-assembled system first (its egress
    and exact counters are the reference, its speed the overhead base),
    then the traced assembly, then the isolated loops."""
    warm = traffic.bursts()[: workload.warm]
    lap_frames = len(traffic.frames)

    plain_sink = EgressSink(tamper)
    plain = set_up(workload, plain_sink, NullTracer(), warm)
    plain_checked = verify_lap(plain, traffic, plain_sink, NullTracer())
    plain_timed = timed_region(plain.system, traffic, plain_sink, NullTracer(), seconds * 0.4)
    problems = plain_checked.problems + plain.system.problems()
    plain.system.close()

    sink = EgressSink(tamper)
    tracer = Tracer()
    setup = set_up(workload, sink, tracer, warm)
    system = setup.system
    checked = verify_lap(setup, traffic, sink, tracer)
    # The traced assembly is only evidence about the builders' assembly
    # if it forwards the same bytes and counts the same events.
    if sorted(checked.capture) != sorted(plain_checked.capture):
        problems.append("traced assembly egressed different bytes: trace rejected")
    unequal = {
        key: (plain_checked.counts.get(key), value)
        for key, value in checked.counts.items()
        if key != "backlog_peak" and plain_checked.counts.get(key) != value
    }
    if unequal:
        problems.append(f"traced assembly counted differently: {unequal}: trace rejected")
    tracer.spans.clear()
    timed = timed_region(system, traffic, sink, tracer, seconds * 0.6)
    problems += checked.problems + system.problems()
    system.close()

    offered = lap_frames * len(timed.laps)
    self_s = tracer.self_times()

    counts = checked.counts
    cycle_s = [] if workload.cycles else system.in_lap_cycles()
    attempted = lap_frames * (2 + len(plain_timed.laps) + len(timed.laps))
    failed = plain_checked.failed + checked.failed + plain_timed.failed + timed.failed
    valid = [f for f, kind in zip(traffic.frames, traffic.kinds) if kind == "ok"]

    metrics: dict[str, tuple[float, str]] = {
        name: (sum(self_s.get(span, 0.0) for span in spans) * 1e9 / offered, "ns")
        for name, spans in SPAN_METRICS.items()
    }
    for name, (key, per) in COUNT_METRICS.items():
        metrics[name] = (counts.get(key, 0) * (per / lap_frames if per else 1), "count")
    metrics.update(
        {
            "run.span_sum_ns": (sum(self_s.values()) * 1e9 / offered, "ns"),
            "run.burst_sum_ns": (tracer.total("burst") * 1e9 / offered, "ns"),
            "run.untraced_ns_per_frame": (
                1e6 / plain_timed.kpps * traffic.valid / lap_frames,
                "ns",
            ),
            "run.trace_overhead_ratio": (timed.kpps / plain_timed.kpps, "ratio"),
            "run.burst_ms_p99": (plain_timed.burst_ms(0.99), "ms"),
            "run.cpu_util": (plain_timed.cpu_util, "ratio"),
            "run.gc_per_kframe": (
                plain_timed.gc_collections * 1e3 / (lap_frames * len(plain_timed.laps)),
                "1/kframe",
            ),
            "run.loss_ratio": (failed / attempted, "ratio"),
            "router.components.fastpath_share": (counts["egressed"] / lap_frames, "ratio"),
            "osbase.sharding.resize_ms_p50": (
                quiet_median(cycle_s) * 1e3 if cycle_s else 0.0,
                "ms",
            ),
            "osbase.scheduler.virtual_us_per_frame": (
                counts.get("virtual_s", 0.0) * 1e6 / lap_frames,
                "us",
            ),
        }
    )
    metrics.update(layers.primitive_metrics(valid[: len(nic_frames)]))
    metrics.update(layers.dispatch_metrics(setup.routes, nic_frames))
    metrics.update(layers.ladder_metrics(setup.routes, nic_frames))
    metrics.update(layers.baseline_metrics(setup.routes, nic_frames))
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "notes": {"laps": len(timed.laps), "spans": len(tracer.spans)},
        "spans": tracer.spans,
    }


# -- command line ------------------------------------------------------------------


def main(argv: list[str] | None = None, *, tamper: Any = None) -> int:
    """One run; prints every metric by name and, last, the result line."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="benchmarks/e1/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(workloads()))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="the self-test's small profile")
    parser.add_argument("--out", type=Path, help="also write the full record (and spans) here")
    args = parser.parse_args(argv)

    workload = workloads(args.quick)[args.workload]
    routes = load_routes(workload.routes)
    traffic = make_traffic(routes, seed=args.seed, frames=workload.lap * BURST, **workload.traffic)
    if args.trace:
        nic_frames = make_traffic(
            routes, seed=args.seed, frames=(2 if args.quick else 32) * BURST
        ).frames
        result = run_traced(workload, traffic, args.seconds, tamper, nic_frames)
    else:
        result = run_untraced(
            workload, traffic, args.seconds, 2 if args.quick else SETUPS, tamper
        )

    declared = [m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]]
    metrics = result["metrics"]
    missing = [name for name in declared if name not in metrics]
    if missing:
        result["problems"].append(f"declared metrics not measured: {missing}")
        result["correct"] = False
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in declared
            if name in metrics
        },
    }
    print(f"E1 {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.4f} {unit}")
    for name, value in result["notes"].items():
        print(f"  note {name} = {value}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    if args.out is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "loadavg": os.getloadavg(),
            **{key: value for key, value in result.items() if key != "metrics"},
            "metrics": line["metrics"],
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record))
    print(json.dumps(line))
    return 0 if result["correct"] else 1
