"""C19 — closed-loop self-adaptation under an adversarial trace.

Every reconfiguration benchmarked so far (C10b swaps, C15/C16 elastic
resizes, batch retunes) was *scripted*: the bench decided when.  C19
closes the loop: a monitor thread on the shared engine samples the
running system through its meta-models (pool watermarks, backlog
divergence, drop counters, admission depth), a policy engine maps the
context window to adaptation actions, and a typed rule set vetoes the
unsafe ones — then an adversarial multi-phase trace is replayed against
the adaptive system *and* a sweep of static configurations.

The trace is built so that no static configuration is good everywhere:

- **burst** — one elephant bulk flow arriving in per-tick spikes.  Wide
  fleets lose: the spike lands on a single shard whose pool slice is
  ``POOL_TOTAL / 8`` deep, so most of each spike is refused at the NIC
  no matter how fast the fleet drains.  A lean fleet's deep slice
  absorbs the spike; drop-tail tiers leak a queue-overflow trickle that
  the RED swap stops.
- **starve** — interactive (dport 53) demand above its byte-fair DRR
  share while bulk stays backlogged: DRR configurations pin the
  interactive queue at depth and drop; strict priority drains it.
- **flash** — a uniform flash crowd above the lean fleet's drain rate:
  two-shard configurations saturate and refuse; the adaptive system
  resizes to the placement model's recommendation.
- **quiet** — no arrivals: backlogs drain, and the adaptive system
  shrinks back once the placement policy sees a quiet window.

Mid-flash the bench also *requests* a deliberately unsafe swap
(``quiesce=False`` on a live admission port): the rule engine must veto
it with a typed (rule, reason) pair while the system keeps serving.

Scoring is delivered frames over identical virtual time (every
configuration steps the same tick schedule), so the ordering is
deterministic — no wall-clock noise.  A second cell re-checks the paper
ordering (monolithic >= Click >= CF fused >= CF vtable) on a fault-free
steady trace under the C16 wall-clock idiom; smoke mode
(``REPRO_BENCH_SMOKE=1``) compares no timings there, only the cells'
delivered counts and pool audits.
"""

import time

import pytest

from benchmarks.bench_c6_datapath import routes_with_default
from benchmarks.conftest import SMOKE, once, report, scaled
from repro.appservices import (
    AdmissionQueueProbe,
    BacklogProbe,
    DropCounterProbe,
    MonitorCF,
    PoolWatermarkProbe,
)
from repro.baselines import (
    ClickRouter,
    monolithic_shard_fleet,
    standard_click_config,
)
from repro.coordination import (
    AdaptationAction,
    AdaptationManager,
    ClassStarvationPolicy,
    MonitorThread,
    PlacementResizePolicy,
    SustainedBurstPolicy,
    SystemView,
)
from repro.ixp import IxpBoard, ShardPlacement
from repro.netsim import flow_hash_of, make_udp_v4
from repro.opencom.capsule import Capsule
from repro.osbase import (
    Nic,
    RoundRobinScheduler,
    Shard,
    ShardedDatapath,
    ThreadManagerCF,
    VirtualClock,
    carve_shard_pools,
    release_dropped,
    shard_pool_audit,
)
from repro.router import (
    AdmissionTier,
    FifoQueue,
    PriorityLinkScheduler,
    RedQueue,
    build_sharded_forwarding_datapath,
)

pytestmark = pytest.mark.bench

# -- fleet shapes ------------------------------------------------------------
LEAN = 2
WIDE = 8
BATCH_SMALL = 8
BATCH_BIG = 32
BUCKETS = 32
RX_RING = 4096
BUFFER_SIZE = 128
#: One fixed buffer budget carved across the fleet: a wide fleet pays
#: with shallow per-shard slices — the trade the burst phase exploits.
POOL_TOTAL = 768

# -- admission tier ----------------------------------------------------------
INTERACTIVE_CAP = 512
BULK_CAP = 384
RED_CAP = 4096
#: Scheduled packets injected into the datapath per tick, in one NAPI-
#: style poll burst (the per-tick spike the pool slices must absorb).
PUMP_BUDGET = 512
#: Thread quanta per trace tick.
STEPS_PER_TICK = 4

# -- the adversarial trace (arrivals per tick) -------------------------------
BURST_TICKS = scaled(14, 6)
STARVE_TICKS = scaled(12, 6)
FLASH_TICKS = scaled(12, 6)
QUIET_TICKS = scaled(20, 12)
BURST_RATE = 448          # one elephant bulk flow, one spike per tick
STARVE_INTERACTIVE = 384  # > the byte-fair half of PUMP_BUDGET
STARVE_BULK = 256
FLASH_BULK = 512          # uniform, > the lean fleet's drain rate
FLASH_INTERACTIVE = 64
PAYLOAD = b"\x00" * 64    # equal sizes: byte-fair DRR == packet-fair


def red_factory():
    """The burst policy's swap target (and the static RED cells' bulk
    queue): deep, late-dropping RED — burst absorption, not policing."""
    return RedQueue(
        RED_CAP,
        min_threshold=RED_CAP * 3 // 4,
        max_threshold=RED_CAP,
        max_drop_probability=0.05,
    )


def droptail_factory():
    return FifoQueue(BULK_CAP)


def priority_factory():
    return PriorityLinkScheduler(["interactive", "bulk"])


def new_threads():
    return ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler())


def new_placement():
    return ShardPlacement(IxpBoard(), max_shards=WIDE)


def make_trace(routes):
    """The whole trace as per-tick packet-spec waves (src, dst, sport,
    dport); every configuration replays the identical schedule."""
    bases = [prefix.split("/")[0] for prefix in routes]
    elephant = ("10.40.0.9", bases[0], 40001, 80)
    interactive = [
        ("10.41.0.%d" % (i % 100), bases[i % len(bases)], 2000 + i, 53)
        for i in range(16)
    ]
    bulk = [
        ("10.42.%d.9" % (i % 100), bases[i % len(bases)], 3000 + i, 80)
        for i in range(64)
    ]

    def spread(flows, count):
        return [flows[i % len(flows)] for i in range(count)]

    waves = []
    for _ in range(BURST_TICKS):
        waves.append([elephant] * BURST_RATE)
    for _ in range(STARVE_TICKS):
        waves.append(
            spread(interactive, STARVE_INTERACTIVE) + spread(bulk[:16], STARVE_BULK)
        )
    for _ in range(FLASH_TICKS):
        waves.append(
            spread(bulk, FLASH_BULK) + spread(interactive, FLASH_INTERACTIVE)
        )
    for _ in range(QUIET_TICKS):
        waves.append([])
    return waves


def materialise(wave):
    return [
        make_udp_v4(src, dst, sport=sport, dport=dport, payload=PAYLOAD)
        for src, dst, sport, dport in wave
    ]


class EgressCounter:
    def __init__(self):
        self.total = 0

    def handler(self, shard_index):
        def on_frame(frame):
            self.total += 1
            release_dropped(frame)

        return on_frame


#: Static cells: each is the right fixed answer for *some* phase of the
#: trace and the wrong one for another.  The sweep deliberately spans
#: both fleet shapes, both batch sizes, both schedulers and both bulk
#: disciplines; the adaptive run starts from the weakest cell.
STATIC_CONFIGS = {
    "lean/drr/drop-tail/b8": (LEAN, BATCH_SMALL, None, droptail_factory),
    "lean/drr/drop-tail/b32": (LEAN, BATCH_BIG, None, droptail_factory),
    "wide/drr/drop-tail/b8": (WIDE, BATCH_SMALL, None, droptail_factory),
    "lean/prio/red/b32": (LEAN, BATCH_BIG, priority_factory, red_factory),
    "wide/prio/red/b32": (WIDE, BATCH_BIG, priority_factory, red_factory),
}


def build_cell(routes, *, shards, batch, scheduler_factory, bulk_factory, name):
    threads = new_threads()
    placement = new_placement()
    pools = carve_shard_pools(
        BUFFER_SIZE, POOL_TOTAL, shards, exhaustion_policy="drop-newest"
    )
    counter = EgressCounter()
    datapath = build_sharded_forwarding_datapath(
        routes=routes,
        shards=shards,
        threads=threads,
        pools=pools,
        batch=batch,
        rx_ring_size=RX_RING,
        tx_handler=counter.handler,
        buckets=BUCKETS,
        locality=placement.locality_penalty,
        name=name,
    )
    tier = AdmissionTier(
        Capsule(f"edge-{name}"),
        datapath.steer_batch,
        classes={
            "interactive": lambda: FifoQueue(INTERACTIVE_CAP),
            "bulk": bulk_factory,
        },
        filters=("dport=53 -> interactive",),
        scheduler_factory=scheduler_factory,
        name=f"admission-{name}",
    )
    stop = {"pump": False}

    def pump_body():
        # NAPI-style poll: one scheduling burst per tick, so the whole
        # injected batch hits the pool slices as a spike.
        while not stop["pump"]:
            tier.service(PUMP_BUDGET)
            for _ in range(STEPS_PER_TICK):
                yield
                if stop["pump"]:
                    return

    threads.spawn(f"{name}-pump", pump_body())
    return {
        "threads": threads,
        "placement": placement,
        "datapath": datapath,
        "tier": tier,
        "counter": counter,
        "stop": stop,
        "manager": None,
        "monitor_thread": None,
    }


def attach_adaptation(cell):
    """Wire the closed loop onto a freshly built (lean, small-batch,
    DRR, drop-tail) cell: monitor CF -> context window -> policies ->
    rule-checked actuation, all as a thread on the shared engine."""
    datapath, tier, placement = cell["datapath"], cell["tier"], cell["placement"]
    monitor = MonitorCF()
    monitor.accept(PoolWatermarkProbe(lambda: [s.pool for s in datapath.shards]))
    monitor.accept(BacklogProbe(datapath))
    monitor.accept(AdmissionQueueProbe(tier))
    monitor.accept(
        DropCounterProbe(
            {
                "inject_refused": lambda: tier.pipeline.stages["sink"]
                .counters.get("inject:refused", 0)
            }
        )
    )
    capacity = placement.fleet_capacity_pps(WIDE)
    policies = [
        SustainedBurstPolicy(
            queue_class="bulk",
            red_factory=red_factory,
            drop_signal="admission_drops",
            ticks=2,
            batch=BATCH_BIG,
            steal_watermark=8,
        ),
        ClassStarvationPolicy(
            klass="interactive",
            scheduler_factory=priority_factory,
            min_depth=48,
            ticks=3,
        ),
        PlacementResizePolicy(
            placement=placement,
            # Any loaded phase overshoots the modelled board capacity, so
            # recommend() deploys the full fleet; the divergence gate is
            # what keeps the elephant phase (skewed backlog) lean.
            rate_scale=capacity / 40.0,
            max_divergence=64.0,
            quiet_rate=capacity / 100.0,
            ticks=3,
            min_shards=LEAN,
            max_shards=WIDE,
        ),
    ]
    view = SystemView(datapath=datapath, admission=tier, placement=placement)
    manager = AdaptationManager(view, monitor, policies=policies, window_size=16)
    monitor_thread = MonitorThread(manager, period=STEPS_PER_TICK)
    monitor_thread.spawn(cell["threads"])
    cell["manager"] = manager
    cell["monitor_thread"] = monitor_thread
    return cell


def run_trace(cell, waves, *, unsafe_at=None):
    """Replay the trace tick schedule; every cell steps the identical
    virtual time.  ``unsafe_at`` injects the deliberately unsafe swap
    request mid-run (adaptive cell only)."""
    threads, tier, datapath = cell["threads"], cell["tier"], cell["datapath"]
    manager = cell["manager"]
    offered = 0
    for tick, wave in enumerate(waves):
        if wave:
            packets = materialise(wave)
            offered += len(packets)
            tier.push_batch(packets)
        if unsafe_at is not None and tick == unsafe_at:
            unsafe = AdaptationAction(
                "swap-queue",
                {
                    "class": "bulk",
                    "factory": red_factory,
                    "quiesce": False,
                    "label": "unsafe live-port swap",
                },
                reason="bench-injected unsafe request",
            )
            assert manager.request(unsafe) is False
            veto = manager.vetoes[-1]
            assert veto.rule == "no-swap-on-live-port", veto
            assert "live" in veto.reason, veto
        for _ in range(STEPS_PER_TICK):
            threads.step_parallel(datapath.cores + 2)
    delivered = cell["counter"].total
    virtual_elapsed = threads.clock.now
    # Retire the auxiliary threads, then drain what is still in flight —
    # the zero-leak audit, not the score.
    cell["stop"]["pump"] = True
    if cell["monitor_thread"] is not None:
        cell["monitor_thread"].stop()
    for _ in range(2 * STEPS_PER_TICK):
        threads.step_parallel(datapath.cores + 2)
    datapath.shutdown(drain=True)
    audit = shard_pool_audit([shard.pool for shard in datapath.shards])
    result = {
        "offered": offered,
        "delivered": delivered,
        "virtual_elapsed": virtual_elapsed,
        "tier_drops": tier.drop_total(),
        "inject_refused": tier.pipeline.stages["sink"].counters.get(
            "inject:refused", 0
        ),
        "audit": audit,
        "shape": tier.describe(),
        "fleet": len(datapath.shards),
    }
    if manager is not None:
        result["applied"] = list(manager.applied)
        result["vetoes"] = list(manager.vetoes)
        result["cf_audit"] = manager.audit()
    return result


def test_c19_adaptation_beats_static_sweep(benchmark):
    def experiment():
        routes = routes_with_default()
        waves = make_trace(routes)
        results = {}
        for name, (shards, batch, sched, bulk) in STATIC_CONFIGS.items():
            cell = build_cell(
                routes,
                shards=shards,
                batch=batch,
                scheduler_factory=sched,
                bulk_factory=bulk,
                name=name.replace("/", "-"),
            )
            results[name] = run_trace(cell, waves)
        adaptive = attach_adaptation(
            build_cell(
                routes,
                shards=LEAN,
                batch=BATCH_SMALL,
                scheduler_factory=None,
                bulk_factory=droptail_factory,
                name="adaptive",
            )
        )
        results["adaptive"] = run_trace(
            adaptive, waves, unsafe_at=BURST_TICKS + STARVE_TICKS + 2
        )
        return results

    results = once(benchmark, experiment)

    rows = []
    for name, res in results.items():
        rows.append(
            [
                name,
                res["delivered"],
                res["offered"],
                f"{res['delivered'] / res['virtual_elapsed']:.1f}",
                res["tier_drops"],
                res["inject_refused"],
                res["fleet"],
                "yes" if res["audit"]["balanced"] else "NO",
            ]
        )
    report(
        f"C19: adversarial trace burst({BURST_TICKS})->starve({STARVE_TICKS})"
        f"->flash({FLASH_TICKS})->quiet({QUIET_TICKS}), "
        f"{POOL_TOTAL}-buffer budget, pump {PUMP_BUDGET}/tick",
        [
            "config",
            "delivered",
            "offered",
            "pps(virtual)",
            "tier drops",
            "inject refused",
            "fleet",
            "pools balanced",
        ],
        rows,
    )

    statics = {k: v for k, v in results.items() if k != "adaptive"}
    adaptive = results["adaptive"]
    print(
        "[bench-meta] static_sweep="
        + ",".join(f"{k}:{v['delivered']}" for k, v in statics.items())
    )
    print(f"[bench-meta] adaptive_delivered={adaptive['delivered']}")
    print(f"[bench-meta] vetoes={len(adaptive['vetoes'])}")
    print(
        "[bench-meta] actions="
        + ",".join(action.kind for action in adaptive["applied"])
    )
    print("[bench-meta] phases=burst-starve-flash-quiet")

    def vpps(res):
        return res["delivered"] / res["virtual_elapsed"]

    # Identical tick schedule => identical virtual time, adaptive
    # included (structural rounds run inline, off the thread clock).
    elapsed = {res["virtual_elapsed"] for res in results.values()}
    assert len(elapsed) == 1, elapsed

    # The tentpole claim: the closed loop beats every static cell on the
    # full trace (smoke keeps the weaker worst-cell gate: short phases
    # amortise the adaptation latency less).
    worst = min(statics.values(), key=vpps)
    best = max(statics.values(), key=vpps)
    assert vpps(adaptive) > vpps(worst), (vpps(adaptive), vpps(worst))
    if not SMOKE:
        assert vpps(adaptive) > vpps(best), (vpps(adaptive), vpps(best))

    # The deliberately unsafe swap was vetoed, typed, mid-run — and the
    # loop still applied a real adaptation of every kind in the catalog.
    assert len(adaptive["vetoes"]) >= 1
    assert adaptive["vetoes"][-1].rule == "no-swap-on-live-port"
    kinds = {action.kind for action in adaptive["applied"]}
    assert {"swap-queue", "swap-scheduler", "set-batch"} <= kinds, kinds
    if not SMOKE:
        assert kinds == {
            "swap-queue",
            "swap-scheduler",
            "set-batch",
            "set-steal-watermark",
            "resize",
        }, kinds
    # The loop ends rule-valid (admission + monitor CFs) and adapted:
    # RED bulk, strict priority, and the fleet shrunk back to lean.
    assert adaptive["cf_audit"] == []
    assert adaptive["shape"]["queues"]["bulk"] == "RedQueue"
    assert adaptive["shape"]["scheduler"] == "PriorityLinkScheduler"

    # Zero pool leaks everywhere.
    for name, res in results.items():
        assert res["audit"]["balanced"], (name, res["audit"])


# ---------------------------------------------------------------------------
# Control cells: paper ordering on a fault-free steady trace
# ---------------------------------------------------------------------------

CC_FLOWS = scaled(64, 32)
#: The C15 lesson: the ordering assertion needs a timed region of
#: thousands of frames per run, or scheduler noise swamps the ~5%
#: monolithic/Click/CF gaps.  Best-of-5 interleaved repeats on top.
CC_WAVES = scaled(240, 96)
CC_REPEATS = 5
CC_BATCH = 32
CC_SHARDS = 2


def cc_waves(routes):
    bases = [prefix.split("/")[0] for prefix in routes]
    flows = [
        (f"10.50.{i % 200}.9", bases[i % len(bases)], 1024 + 7 * i, 53)
        for i in range(CC_FLOWS)
    ]
    return [
        [
            make_udp_v4(src, dst, sport=sport, dport=dport, payload=PAYLOAD)
            .to_bytes()
            for src, dst, sport, dport in flows
        ]
        for _ in range(CC_WAVES)
    ]


def cc_build_cf(routes, *, fused):
    pools = carve_shard_pools(
        BUFFER_SIZE, POOL_TOTAL, CC_SHARDS, exhaustion_policy="drop-newest"
    )
    counter = EgressCounter()
    datapath = build_sharded_forwarding_datapath(
        routes=routes,
        shards=CC_SHARDS,
        threads=new_threads(),
        pools=pools,
        batch=CC_BATCH,
        rx_ring_size=RX_RING,
        fused=fused,
        tx_handler=counter.handler,
        buckets=BUCKETS,
    )
    return datapath, lambda: counter.total


def cc_build_baseline(routes, *, click):
    pools = carve_shard_pools(
        BUFFER_SIZE, POOL_TOTAL, CC_SHARDS, exhaustion_policy="drop-newest"
    )
    engines = []

    def new_engine():
        if click:
            engine = ClickRouter(
                standard_click_config(
                    routes=routes, queue_capacity=4 * CC_BATCH, recycle_sinks=True
                )
            )
        else:
            engine = monolithic_shard_fleet(routes, 1, queue_capacity=4 * CC_BATCH)[0]
        engines.append(engine)
        return engine

    def make_shard(index, pool):
        engine = new_engine()
        return Shard(
            index,
            nic=Nic(rx_ring_size=RX_RING, pool=pool),
            pool=pool,
            push_batch=engine.push_batch,
            flush=lambda e=engine: e.service(budget=CC_BATCH),
            engine=engine,
        )

    built = [make_shard(index, pools[index]) for index in range(CC_SHARDS)]
    datapath = ShardedDatapath(
        built,
        threads=new_threads(),
        hash_fn=flow_hash_of,
        batch=CC_BATCH,
        buckets=BUCKETS,
        shard_factory=make_shard,
    )

    def forwarded():
        if click:
            return sum(
                element.counters.get("rx", 0)
                for router in engines
                for name, element in router.elements.items()
                if name.startswith("sink-")
            )
        return sum(router.counters["tx"] for router in engines)

    return datapath, forwarded


def cc_run(builder, waves):
    datapath, forwarded = builder()
    fed = 0
    tick = time.perf_counter()
    for wave in waves:
        fed += datapath.steer_batch(wave)
        datapath.pump()
    datapath.pump()
    elapsed = time.perf_counter() - tick
    audit = shard_pool_audit([shard.pool for shard in datapath.shards])
    outcome = {
        "elapsed": elapsed,
        "fed": fed,
        "forwarded": forwarded(),
        "audit": audit,
    }
    datapath.shutdown()
    return outcome


def test_c19_control_cells_paper_ordering(benchmark):
    def experiment():
        routes = routes_with_default()
        waves = cc_waves(routes)
        runners = {
            "CF vtable": lambda: cc_run(
                lambda: cc_build_cf(routes, fused=False), waves
            ),
            "CF fused": lambda: cc_run(
                lambda: cc_build_cf(routes, fused=True), waves
            ),
            "Click-style": lambda: cc_run(
                lambda: cc_build_baseline(routes, click=True), waves
            ),
            "monolithic": lambda: cc_run(
                lambda: cc_build_baseline(routes, click=False), waves
            ),
        }
        results = {}
        for runner in runners.values():
            runner()  # warm-up: caches, imports, allocator — untimed
        for _ in range(CC_REPEATS):
            for name, runner in runners.items():
                outcome = runner()
                if name not in results:
                    results[name] = outcome
                else:
                    kept = results[name]
                    assert outcome["forwarded"] == kept["forwarded"], name
                    kept["elapsed"] = min(kept["elapsed"], outcome["elapsed"])
        return results

    results = once(benchmark, experiment)
    expected = CC_WAVES * CC_FLOWS
    rows = []
    for name, res in results.items():
        rows.append(
            [
                name,
                f"{res['forwarded'] / res['elapsed'] / 1e3:.0f}",
                res["forwarded"],
                "yes" if res["audit"]["balanced"] else "NO",
            ]
        )
    report(
        f"C19 control cells: fault-free steady trace, {CC_FLOWS} flows x "
        f"{CC_WAVES} waves, {CC_SHARDS} shards",
        ["system", "kpps(wall)", "forwarded", "pools balanced"],
        rows,
    )
    for name, res in results.items():
        assert res["fed"] == expected, (name, res["fed"])
        assert res["forwarded"] == expected, (name, res["forwarded"])
        assert res["audit"]["balanced"], name

    def pps(name):
        return results[name]["forwarded"] / results[name]["elapsed"]

    # The C6/C16 paper ordering, same 0.9 slack for single-cell
    # wall-clock noise — on the full run only: smoke mode compares no
    # timings, so the control cells gate on their counts and audits.
    if SMOKE:
        return
    assert pps("monolithic") >= pps("Click-style") * 0.9
    assert pps("Click-style") >= pps("CF fused") * 0.9
    assert pps("CF fused") >= pps("CF vtable") * 0.9
