"""C16 — elastic sharding under live reconfiguration.

C15 fixed the worker fleet at build time; this experiment makes the
fleet size a *runtime* variable.  A diurnal load trace scales the fleet
2 → 4 → 8 → 4 → 2 through :meth:`ShardedDatapath.resize` — each resize
a full two-phase round (park every bucket, drain every ring through its
own engine, prove the exact acquired == released pool hand-off, re-carve
the slices via :func:`~repro.osbase.buffers.recarve_shard_pools`, swap
the RSS indirection table, flush the parked frames through it) — while
traffic keeps flowing.  Every resize is issued with a live backlog on
the rings, so drain-before-rehash is actually exercised, and one round
is deliberately aborted mid-run to prove rollback leaves no trace.

All four systems (CF vtable, CF fused, Click-style fleet, monolithic
fleet) ride the identical elastic runtime — steering table, park/drain
machinery, re-carve, shard factories — so the comparison stays
structural, C15-style.  Shards are placed onto modelled IXP1200
micro-engines via :class:`~repro.ixp.placement.ShardPlacement`, whose
NUMA-style locality penalty scales the supervisor's steal watermark for
cross-cluster steals.

Deterministic headline criteria (event counts, so they gate ``--smoke``
/ tier-1 at full strength):

- **zero drops across the whole diurnal trace**: every frame fed is
  egressed, through grows, shrinks and the aborted round;
- **per-flow FIFO end-to-end**: each flow's payload sequence numbers
  egress in order even as resizes re-home its bucket;
- **books balance across every re-carve**: each resize's pool hand-off
  audit shows acquired == released and nothing in flight on every
  slice, and the final fleet's audit balances.

The paper's C6 ordering (monolithic ≥ Click ≥ CF fused ≥ CF vtable) is
asserted on the wall-clock *forwarding* aggregate over the whole trace,
interleaved best-of with the usual 0.9 slack, on the full profile only
(``--smoke`` runs one pass and asserts no wall-clock comparison); resize
rounds are timed
separately (a resize builds — and on the fused path, fuses — the grown
shards' engines, a structural one-off cost that would otherwise be
charged against fusion's per-packet win).  A second scenario drives the same
resize as a *distributed* two-phase round over a real signaling topology
(``participant.register("shard-resize", datapath.resize_action_set())``),
committed and aborted variants both.
"""

import time
from collections import defaultdict
from struct import pack, unpack_from

import pytest

from benchmarks.bench_c6_datapath import routes_with_default
from benchmarks.conftest import SMOKE, once, report, scaled
from repro.baselines import (
    ClickRouter,
    monolithic_shard_fleet,
    standard_click_config,
)
from repro.coordination import (
    ReconfigCoordinator,
    ReconfigParticipant,
    attach_agents,
)
from repro.ixp import IxpBoard, ShardPlacement
from repro.netsim import Topology, flow_hash_of, make_udp_v4
from repro.opencom.metamodel import ActionSet
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
from repro.router import build_sharded_forwarding_datapath

pytestmark = pytest.mark.bench

BATCH = 32
BUCKETS = 32
#: The diurnal fleet-size trace: ramp up to the peak, back down.
PHASE_TARGETS = (2, 4, 8, 4, 2)
#: Flows in the trace, each payload-stamped with its own sequence.
FLOWS = scaled(64, 32)
#: Traffic waves (one seq-stamped frame per flow) fed per phase.
WAVES = scaled(24, 12)
#: Interleaved best-of repeats for the wall-clock ordering; smoke asserts
#: only exact counts, so one pass is enough.
REPEATS = scaled(3, 1)
BUFFER_SIZE = 128
#: One fixed budget re-carved across every fleet size.
POOL_TOTAL = 2048
RX_RING = 4096


def make_waves(routes):
    """The whole diurnal trace as a list of waves: one frame per flow,
    payload-stamped with the flow's running sequence number.  Waves are
    consumed in order by every system and repeat, so per-flow FIFO has
    one global expectation."""
    bases = [prefix.split("/")[0] for prefix in routes]
    flows = [
        (f"10.{40 + i // 200}.{i % 200}.9", bases[i % len(bases)], 1024 + 7 * i, 53)
        for i in range(FLOWS)
    ]
    # Per phase: one wave steered into a live backlog ahead of the
    # resize, plus WAVES pumped waves; one extra wave parks during the
    # aborted round.
    total = len(PHASE_TARGETS) * WAVES + (len(PHASE_TARGETS) - 1) + 1
    waves = []
    for seq in range(total):
        waves.append(
            [
                make_udp_v4(
                    src, dst, sport=sport, dport=dport,
                    payload=pack("!I", seq) + b"\x00" * 12,
                ).to_bytes()
                for src, dst, sport, dport in flows
            ]
        )
    return waves


class OrderedEgress:
    """One global (flow, seq) log — a flow may legitimately change home
    shard across resizes, so ordering is checked per flow over the whole
    egress stream, not per shard."""

    def __init__(self):
        self.entries = []
        self.total = 0

    def handler(self, shard_index):
        def on_frame(frame):
            self.entries.append(
                (frame.flow_key(), unpack_from("!I", frame.payload, 0)[0])
            )
            self.total += 1
            release_dropped(frame)

        return on_frame

    def per_flow(self):
        seqs = defaultdict(list)
        for flow, seq in self.entries:
            seqs[flow].append(seq)
        return seqs


def new_threads():
    return ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler())


def new_placement():
    return ShardPlacement(IxpBoard(), max_shards=max(PHASE_TARGETS))


def build_cf(routes, *, fused):
    pools = carve_shard_pools(
        BUFFER_SIZE, POOL_TOTAL, PHASE_TARGETS[0], exhaustion_policy="drop-newest"
    )
    recorder = OrderedEgress()
    datapath = build_sharded_forwarding_datapath(
        routes=routes,
        shards=PHASE_TARGETS[0],
        threads=new_threads(),
        pools=pools,
        batch=BATCH,
        rx_ring_size=RX_RING,
        fused=fused,
        tx_handler=recorder.handler,
        buckets=BUCKETS,
        locality=new_placement().locality_penalty,
    )
    return datapath, recorder, lambda: recorder.total


def build_baseline(routes, *, click):
    """A baseline fleet under the identical elastic runtime: the shard
    factory mints a fresh single-member fleet engine per grown shard."""
    pools = carve_shard_pools(
        BUFFER_SIZE, POOL_TOTAL, PHASE_TARGETS[0], exhaustion_policy="drop-newest"
    )
    engines = []

    def new_engine():
        if click:
            engine = ClickRouter(
                standard_click_config(
                    routes=routes, queue_capacity=4 * BATCH, recycle_sinks=True
                )
            )
        else:
            engine = monolithic_shard_fleet(routes, 1, queue_capacity=4 * BATCH)[0]
        engines.append(engine)
        return engine

    def make_shard(index, pool):
        engine = new_engine()
        return Shard(
            index,
            nic=Nic(rx_ring_size=RX_RING, pool=pool),
            pool=pool,
            push_batch=engine.push_batch,
            flush=lambda e=engine: e.service(budget=BATCH),
            engine=engine,
        )

    built = [make_shard(index, pools[index]) for index in range(PHASE_TARGETS[0])]
    datapath = ShardedDatapath(
        built,
        threads=new_threads(),
        hash_fn=flow_hash_of,
        batch=BATCH,
        buckets=BUCKETS,
        shard_factory=make_shard,
        locality=new_placement().locality_penalty,
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

    return datapath, None, forwarded


def run_diurnal(builder):
    """Feed the diurnal trace through one freshly built system: resize
    into a live backlog at each phase boundary, abort one round at the
    peak, keep every hand-off audit."""
    datapath, recorder, forwarded = builder()
    waves = iter(run_diurnal.waves)
    fed = 0
    records = []
    aborted_rounds = 0
    # Forwarding and reconfiguration are timed separately: the paper
    # ordering is a *forwarding-throughput* claim, while a resize's cost
    # includes building (and for the CF path, fusing) the grown shards'
    # engines — a one-off structural cost reported in its own column.
    forward_s = 0.0
    resize_s = 0.0
    for phase, target in enumerate(PHASE_TARGETS):
        if target != len(datapath.shards):
            # Resize with frames still ringed: apply must drain every
            # ring through its own engine before the table swap.
            fed += datapath.steer_batch(next(waves))
            tick = time.perf_counter()
            records.append(datapath.resize(target))
            resize_s += time.perf_counter() - tick
        if target == max(PHASE_TARGETS) and not aborted_rounds:
            # One aborted round at the peak: quiesce, park a wave, roll
            # back — the trace must come through untouched.
            actions = datapath.resize_action_set()
            assert actions.quiesce({"shards": 3})
            fed += datapath.steer_batch(next(waves))
            actions.rollback({"shards": 3})
            actions.resume({"shards": 3})
            aborted_rounds += 1
        tick = time.perf_counter()
        for _ in range(WAVES):
            fed += datapath.steer_batch(next(waves))
            datapath.pump()
        datapath.pump()
        forward_s += time.perf_counter() - tick
    elapsed = forward_s
    stats = datapath.stats()
    audit = shard_pool_audit([shard.pool for shard in datapath.shards])
    outcome = {
        "elapsed": elapsed,
        "resize_s": resize_s,
        "virtual_elapsed": stats["virtual_time"],
        "fed": fed,
        "forwarded": forwarded(),
        "records": records,
        "aborted_rounds": aborted_rounds,
        "audit": audit,
        "steer_refused": sum(datapath.steering.refused),
        "drained_total": sum(r["drained_total"] for r in records),
        "moved_buckets": sum(r["moved_buckets"] for r in records),
        "local_steals": stats["local_steals"],
        "remote_steals": stats["remote_steals"],
        "locality_vetoes": stats["locality_vetoes"],
        "recorder": recorder,
    }
    datapath.shutdown()
    return outcome


def sweep(routes):
    runners = {
        "CF vtable": lambda: run_diurnal(lambda: build_cf(routes, fused=False)),
        "CF fused": lambda: run_diurnal(lambda: build_cf(routes, fused=True)),
        "Click-style": lambda: run_diurnal(lambda: build_baseline(routes, click=True)),
        "monolithic": lambda: run_diurnal(lambda: build_baseline(routes, click=False)),
    }
    results: dict[str, dict] = {}
    if not SMOKE:
        for runner in runners.values():
            runner()  # warm-up pass: caches, imports, allocator — untimed
    for _ in range(REPEATS):
        for name, runner in runners.items():
            outcome = runner()
            if name not in results:
                results[name] = outcome
            else:
                kept = results[name]
                assert outcome["forwarded"] == kept["forwarded"], name
                assert outcome["moved_buckets"] == kept["moved_buckets"], name
                assert outcome["virtual_elapsed"] == pytest.approx(
                    kept["virtual_elapsed"]
                ), name
                kept["elapsed"] = min(kept["elapsed"], outcome["elapsed"])
                kept["resize_s"] = min(kept["resize_s"], outcome["resize_s"])
    return results


def test_c16_elastic_diurnal(benchmark):
    def experiment():
        routes = routes_with_default()
        run_diurnal.waves = make_waves(routes)
        results = sweep(routes)
        rows = []
        for name, res in results.items():
            rows.append(
                [
                    name,
                    f"{res['forwarded'] / res['elapsed'] / 1e3:.0f}",
                    f"{res['resize_s'] * 1e3:.1f}",
                    len(res["records"]),
                    res["moved_buckets"],
                    res["drained_total"],
                    "yes" if all(
                        r["pool_handoff"]["balanced"] for r in res["records"]
                    ) else "NO",
                    res["locality_vetoes"],
                    res["forwarded"],
                ]
            )
        report(
            f"C16: elastic diurnal {'->'.join(str(t) for t in PHASE_TARGETS)}, "
            f"{BUCKETS} buckets, {FLOWS} flows, {WAVES} waves/phase, "
            f"{POOL_TOTAL}-buffer budget re-carved per resize",
            [
                "system",
                "kpps(wall)",
                "resize ms",
                "resizes",
                "moved",
                "drained",
                "handoffs balanced",
                "loc vetoes",
                "forwarded",
            ],
            rows,
        )
        print(f"[bench-meta] phases={'-'.join(str(t) for t in PHASE_TARGETS)}")
        print(f"[bench-meta] buckets={BUCKETS}")
        print(f"[bench-meta] flows={FLOWS}")
        print(f"[bench-meta] waves={WAVES}")
        return results

    results = once(benchmark, experiment)
    total_waves = len(PHASE_TARGETS) * WAVES + (len(PHASE_TARGETS) - 1) + 1
    expected = total_waves * FLOWS
    for name, res in results.items():
        # Zero drops across grows, shrinks and the aborted round.
        assert res["fed"] == expected, (name, res["fed"], expected)
        assert res["forwarded"] == expected, (name, res["forwarded"], expected)
        assert res["steer_refused"] == 0, name
        # Four resizes committed, one round aborted, and every resize
        # drained a live backlog before rehashing.
        assert len(res["records"]) == len(PHASE_TARGETS) - 1, name
        assert res["aborted_rounds"] == 1, name
        assert all(r["drained_total"] > 0 for r in res["records"]), name
        # Books balance across every re-carve and at the end.
        for record in res["records"]:
            handoff = record["pool_handoff"]
            assert handoff["balanced"], (name, handoff)
            for row in handoff["pools"]:
                assert row["acquired_total"] == row["released_total"], (name, row)
                assert row["in_flight"] == 0, (name, row)
        assert res["audit"]["balanced"], (name, res["audit"])
        # Per-flow FIFO end-to-end on the recorded (CF) paths.
        recorder = res.get("recorder")
        if recorder is not None:
            seqs = recorder.per_flow()
            assert len(seqs) == FLOWS, name
            for flow, observed in seqs.items():
                assert observed == list(range(total_waves)), (name, flow)

    # Paper ordering on the wall-clock forwarding aggregate over the
    # whole live trace.  Wall-clock comparisons are noise-dominated on
    # the smoke trace; smoke gates only on the exact counts above.
    if SMOKE:
        return

    def pps(name):
        return results[name]["forwarded"] / results[name]["elapsed"]

    assert pps("monolithic") >= pps("Click-style") * 0.9
    assert pps("Click-style") >= pps("CF fused") * 0.9
    assert pps("CF fused") >= pps("CF vtable") * 0.9


def test_c16_distributed_resize_round(benchmark):
    """The same resize as a distributed two-phase round over a real
    signaling topology: coordinator on n0, the datapath's participant on
    n1, a peer on n2.  One committed grow, then an aborted round (the
    peer refuses), then traffic to prove the fleet state."""

    def experiment():
        routes = routes_with_default()
        waves = make_waves(routes)
        datapath, recorder, _ = build_cf(routes, fused=True)

        topo = Topology.chain(3)
        agents = attach_agents(topo)
        coordinator = ReconfigCoordinator(agents["n0"])
        participant = ReconfigParticipant(agents["n1"])
        participant.register("shard-resize", datapath.resize_action_set())
        peer_votes = {"yes": True}
        peer = ReconfigParticipant(agents["n2"])
        peer.register(
            "shard-resize",
            ActionSet(
                quiesce=lambda params: peer_votes["yes"],
                apply=lambda params: None,
                resume=lambda params: None,
                rollback=lambda params: None,
            ),
        )

        start = time.perf_counter()
        fed = datapath.steer_batch(waves[0])
        committed = coordinator.start(
            "shard-resize", ["n1", "n2"], {"shards": 4}, deadline=2.0
        )
        topo.engine.run()
        datapath.pump()

        peer_votes["yes"] = False  # the peer refuses the next round
        fed += datapath.steer_batch(waves[1])
        aborted = coordinator.start(
            "shard-resize", ["n1", "n2"], {"shards": 8}, deadline=2.0
        )
        topo.engine.run()
        datapath.pump()
        for wave in waves[2:6]:
            fed += datapath.steer_batch(wave)
            datapath.pump()
        elapsed = time.perf_counter() - start
        outcome = {
            "elapsed": elapsed,
            "fed": fed,
            "committed": committed,
            "aborted": aborted,
            "datapath": datapath,
            "recorder": recorder,
            "audit": shard_pool_audit([s.pool for s in datapath.shards]),
        }
        datapath.shutdown()
        return outcome

    outcome = once(benchmark, experiment)
    datapath = outcome["datapath"]
    # The committed round grew the fleet; the refused round left it
    # alone and unparked the frames that arrived while quiesced.
    assert outcome["committed"].status == "committed"
    assert outcome["aborted"].status == "aborted"
    assert len(datapath.shards) == 4
    assert len(datapath.resizes) == 1
    assert datapath.resizes[0]["to"] == 4
    assert datapath.stats()["resize_pending"] is False
    # Nothing lost either side of the aborted round.
    assert outcome["recorder"].total == outcome["fed"]
    assert outcome["audit"]["balanced"]
    seqs = outcome["recorder"].per_flow()
    for flow, observed in seqs.items():
        assert observed == sorted(observed), flow
    print(f"[bench-meta] committed_round={outcome['committed'].round_id}")
    print(f"[bench-meta] aborted_round={outcome['aborted'].round_id}")
    print(f"[bench-meta] fleet={len(datapath.shards)}")
