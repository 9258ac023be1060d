"""R1 — failure-domain recovery under a seeded fault schedule.

Two halves, one robustness claim:

**Fault-free control cells.**  The four systems (CF vtable, CF fused,
Click-style fleet, monolithic fleet) run the identical C15 sharded
runtime with *no* faults, and the paper's C6 ordering (monolithic ≥
Click ≥ CF fused ≥ CF vtable, 0.9 slack) must survive on the full
profile — the robustness machinery (steering indirection, recovery
hooks, the reliability layer under signaling) is not allowed to cost
the fault-free datapath its shape.  ``--smoke`` runs one pass and
asserts no wall-clock comparison.  Pool audits gate zero leaks exactly
as in C15.

**The seeded fault scenario.**  A 4-shard CF fused datapath forwards a
multi-flow trace while a :class:`~repro.netsim.faults.FaultInjector`
drives, at exact virtual times: a worker kill (shard 2's worker raises
``WorkerKilled`` mid-run), a network partition between the coordination
nodes, and 1 % seeded signaling loss on every agent.  The supervisor
contains the crash (failover stealing keeps shard 2's backlog draining),
reports it once to the recovery driver, and the driver runs two-phase
shard-recovery rounds over the partitioned network: rounds started
during the partition *abort* by missing-vote deadline (rollback
exercised — parked frames return to the dead ring), and a round started
after heal *commits* — drain-before-rehash moves the dead bucket's flows
to a live successor.  Deterministic gates:

- **zero pooled-buffer leaks**: every slice acquired == released,
  in_flight == 0 (:func:`~repro.osbase.buffers.shard_pool_audit`);
- **every reconfiguration round terminates** committed or aborted —
  no round hangs on loss or partition;
- **≥1 rollback exercised** (an aborted round that had quiesced) and
  **exactly one recovery committed**;
- **bounded per-flow disruption**: every fed frame egresses, every
  flow's payload sequence numbers stay in order, and no flow touches
  more than two shards (its original home and, for dead-bucket flows,
  the one successor).

Everything in the scenario is virtual-time + seeded-RNG deterministic,
so the whole cell gates ``--smoke`` and the full run at equal strength.
"""

import time
from collections import defaultdict
from struct import unpack_from

import pytest

from benchmarks.bench_c6_datapath import routes_with_default
from benchmarks.bench_c15_sharding import (
    FLOWS as C15_FLOWS,
    PER_FLOW as C15_PER_FLOW,
    make_flow_frames,
    run_cf,
    run_click,
    run_monolithic,
)
from benchmarks.conftest import SMOKE, once, report, scaled
from repro.coordination import (
    ReconfigCoordinator,
    ReconfigParticipant,
    attach_agents,
)
from repro.netsim import FaultInjector, Topology, batched
from repro.opencom.metamodel import ActionSet
from repro.osbase import (
    RoundRobinScheduler,
    ThreadManagerCF,
    VirtualClock,
    carve_shard_pools,
    release_dropped,
    shard_pool_audit,
)
from repro.router import build_sharded_forwarding_datapath

pytestmark = pytest.mark.bench

SHARDS = 4
BATCH = 32
BUFFER_SIZE = 128
POOL_TOTAL = 4096
#: The shard whose worker the schedule kills.
KILL_SHARD = 2
#: Scenario workload: enough steps to spread the fault timeline over.
FLOWS = scaled(64, 24)
PER_FLOW = scaled(24, 12)
LAPS = scaled(3, 2)
#: One chunk steered per step (smaller than C15's so the timeline has
#: enough interleave points for the fault schedule).
CHUNK = BATCH * SHARDS
#: Virtual seconds the whole trace is spread over.
TOTAL_T = 3.0
#: Fault schedule (absolute virtual times).
PARTITION_AT = 0.05
HEAL_AT = 1.05
KILL_AT = 0.15
SIGNALING_LOSS = 0.01
ROUND_DEADLINE = 0.3
#: Control cells reuse the C15 runners; full mode times the 4-shard
#: cell, smoke also audits the 1-shard one.
CONTROL_SHARDS = (1, 4) if SMOKE else (4,)
#: Interleaved best-of repeats for the wall-clock ordering; smoke asserts
#: only exact counts, so one pass is enough.
REPEATS = scaled(3, 1)


# -- fault-free control --------------------------------------------------------------


def test_r1_fault_free_control(benchmark):
    """Paper ordering and zero leaks on fault-free cells of the same
    runtime the fault scenario runs on."""

    def experiment():
        routes = routes_with_default()
        frames = make_flow_frames(routes, flows=C15_FLOWS, per_flow=C15_PER_FLOW)
        runners = {
            "CF vtable": lambda s: run_cf(routes, frames, s, fused=False),
            "CF fused": lambda s: run_cf(routes, frames, s, fused=True),
            "Click-style": lambda s: run_click(routes, frames, s),
            "monolithic": lambda s: run_monolithic(routes, frames, s),
        }
        results: dict[tuple, dict] = {}
        for _ in range(REPEATS):
            for shards in CONTROL_SHARDS:
                for name, runner in runners.items():
                    outcome = runner(shards)
                    key = (name, shards)
                    if key not in results:
                        results[key] = outcome
                    else:
                        kept = results[key]
                        assert outcome["forwarded"] == kept["forwarded"], key
                        kept["elapsed"] = min(kept["elapsed"], outcome["elapsed"])
        report(
            f"R1 control: fault-free sharded cells, shards {list(CONTROL_SHARDS)}, "
            f"{C15_FLOWS} flows x {C15_PER_FLOW} pkts",
            ["system", "shards", "kpps(wall)", "pools balanced", "forwarded"],
            [
                [
                    name,
                    shards,
                    f"{res['forwarded'] / res['elapsed'] / 1e3:.0f}",
                    "yes" if res["audit"]["balanced"] else "NO",
                    res["forwarded"],
                ]
                for (name, shards), res in sorted(
                    results.items(), key=lambda kv: kv[0][1]
                )
            ],
        )
        print(
            f"[bench-meta] control_shards="
            f"{','.join(str(s) for s in CONTROL_SHARDS)}"
        )
        return results

    results = once(benchmark, experiment)
    for key, res in results.items():
        assert res["audit"]["balanced"], (key, res["audit"])
        assert res["steer_refused"] == 0, key

    # Wall-clock comparisons are noise-dominated on the smoke trace;
    # smoke gates only on the exact audits above.
    if SMOKE:
        return
    for shards in CONTROL_SHARDS:

        def pps(name):
            res = results[(name, shards)]
            return res["forwarded"] / res["elapsed"]

        assert pps("monolithic") >= pps("Click-style") * 0.9, shards
        assert pps("Click-style") >= pps("CF fused") * 0.9, shards
        assert pps("CF fused") >= pps("CF vtable") * 0.9, shards


# -- the seeded fault scenario ----------------------------------------------------------


class OrderedEgress:
    """One global egress log — (shard, flow, seq) in egress order — so
    per-flow ordering can be checked *across* a mid-run shard move."""

    def __init__(self):
        self.entries: list[tuple] = []
        self.total = 0

    def handler(self, shard_index):
        def on_frame(frame):
            self.entries.append(
                (shard_index, frame.flow_key(), unpack_from("!I", frame.payload, 0)[0])
            )
            self.total += 1
            release_dropped(frame)

        return on_frame


def build_scenario():
    """The 4-shard datapath plus a 3-node coordination overlay:
    coordinator on n0, the datapath's participant on n1, a peer
    participant on n2 (reachable only through n1 — the link the schedule
    partitions)."""
    routes = routes_with_default()
    frames = make_flow_frames(routes, flows=FLOWS, per_flow=PER_FLOW)
    pools = carve_shard_pools(
        BUFFER_SIZE, POOL_TOTAL, SHARDS, exhaustion_policy="drop-newest"
    )
    recorder = OrderedEgress()
    datapath = build_sharded_forwarding_datapath(
        routes=routes,
        shards=SHARDS,
        threads=ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler()),
        pools=pools,
        batch=BATCH,
        rx_ring_size=POOL_TOTAL,
        fused=True,
        tx_handler=recorder.handler,
    )

    topo = Topology.chain(3)
    agents = attach_agents(topo)
    coordinator = ReconfigCoordinator(agents["n0"])
    participant = ReconfigParticipant(agents["n1"])
    participant.register("shard-recovery", datapath.recovery_action_set())
    peer = ReconfigParticipant(agents["n2"])
    # The peer's share of a recovery round: acknowledge the re-steer
    # (a real deployment would update its flow tables here).
    peer.register(
        "shard-recovery",
        ActionSet(
            quiesce=lambda params: True,
            apply=lambda params: None,
            resume=lambda params: None,
        ),
    )

    injector = FaultInjector(topo.engine, seed="r1")
    for agent in agents.values():
        injector.fault_signaling(agent, drop=SIGNALING_LOSS)
    partitioned_link = topo.links[1]
    injector.partition(partitioned_link, at=PARTITION_AT, heal_at=HEAL_AT)
    injector.kill_worker(datapath, KILL_SHARD, at=KILL_AT)

    rounds = []

    def recovery_driver(dp, dead):
        rounds.append(
            coordinator.start(
                "shard-recovery",
                ["n1", "n2"],
                {"shard": dead},
                deadline=ROUND_DEADLINE,
            )
        )

    datapath.recovery_driver = recovery_driver
    return {
        "frames": frames,
        "pools": pools,
        "recorder": recorder,
        "datapath": datapath,
        "engine": topo.engine,
        "agents": agents,
        "participant": participant,
        "injector": injector,
        "rounds": rounds,
        "partitioned_link": partitioned_link,
    }


def drive_scenario(scenario):
    """Interleave the datapath (thread-manager time) with the fault and
    coordination timeline (engine time): one chunk steered per step, the
    engine advanced one slice per step, then a settle phase that lets
    outstanding rounds resolve and the datapath drain."""
    datapath = scenario["datapath"]
    engine = scenario["engine"]
    chunks = list(batched(scenario["frames"], CHUNK))
    steps = LAPS * len(chunks)
    dt = TOTAL_T / steps
    fed = 0
    step = 0
    start = time.perf_counter()
    for _ in range(LAPS):
        for chunk in chunks:
            step += 1
            accepted = datapath.steer_batch(chunk)
            assert accepted == len(chunk), (step, accepted, len(chunk))
            fed += accepted
            datapath.pump()
            engine.run_until(step * dt)
    # Settle: every outstanding round's deadline fires, every abort's
    # unparked backlog drains, the committed recovery's re-steer lands.
    horizon = step * dt
    for _ in range(6):
        horizon += 0.5
        engine.run_until(horizon)
        datapath.pump()
    scenario["elapsed"] = time.perf_counter() - start
    scenario["fed"] = fed
    return scenario


def test_r1_fault_scenario(benchmark):
    scenario = once(benchmark, lambda: drive_scenario(build_scenario()))
    datapath = scenario["datapath"]
    recorder = scenario["recorder"]
    pools = scenario["pools"]
    rounds = scenario["rounds"]
    injector = scenario["injector"]

    statuses = [round_.status for round_ in rounds]
    committed = statuses.count("committed")
    aborted = statuses.count("aborted")
    recovery = datapath.recoveries[0] if datapath.recoveries else {}
    report(
        f"R1 faults: kill worker {KILL_SHARD} @ {KILL_AT}s, partition "
        f"{PARTITION_AT}-{HEAL_AT}s, {SIGNALING_LOSS:.0%} signaling loss, "
        f"{FLOWS} flows x {PER_FLOW} pkts x {LAPS} laps",
        ["metric", "value"],
        [
            ["frames fed / egressed", f"{scenario['fed']} / {recorder.total}"],
            ["recovery rounds (committed/aborted)", f"{committed}/{aborted}"],
            ["recovery: drained via dead engine", recovery.get("drained")],
            ["recovery: parked frames re-steered", recovery.get("parked_flushed")],
            ["recovery: successor shard", recovery.get("to")],
            ["failover batches stolen", sum(
                s["stolen_batches"] for s in datapath.stats()["shards"]
            )],
            ["signaling retransmits", sum(
                a.counters["retransmits"] for a in scenario["agents"].values()
            )],
            ["injected signaling drops", sum(
                p.counters["dropped"] for p in injector.signaling.values()
            )],
            ["fault events logged", len(injector.log)],
            ["pools balanced", "yes" if shard_pool_audit(pools)["balanced"] else "NO"],
        ],
    )
    print(
        f"[bench-meta] scenario=kill+partition+loss shards={SHARDS} "
        f"rounds={len(rounds)} committed={committed} aborted={aborted} "
        f"recoveries={len(datapath.recoveries)}"
    )

    # The schedule actually fired, in order: partition, kill, heal.
    fault_names = [entry for _, entry in injector.log]
    assert any(entry.startswith("partition") for entry in fault_names)
    assert any(entry.startswith("heal") for entry in fault_names)
    assert any(entry.startswith("kill worker") for entry in fault_names)
    assert datapath.stats()["dead_workers"] == [KILL_SHARD]

    # Every round terminated; the partition forced at least one abort
    # whose rollback ran (the participant had quiesced), and exactly one
    # recovery committed.
    assert rounds, "the supervisor never reported the dead worker"
    assert all(round_.complete for round_ in rounds), statuses
    assert aborted >= 1, statuses
    assert committed >= 1, statuses
    assert any("rolled back" in line for line in scenario["participant"].log), (
        scenario["participant"].log
    )
    assert len(datapath.recoveries) == 1, datapath.recoveries
    record = datapath.recoveries[0]
    assert record["shard"] == KILL_SHARD
    assert record["to"] != KILL_SHARD
    assert record["pool_balanced"], record

    # The reliability layer was genuinely exercised: retransmits under
    # loss + partition, and the partition black-holed real messages.
    assert sum(a.counters["retransmits"] for a in scenario["agents"].values()) > 0
    partition_drops = sum(
        direction.dropped_down
        for direction in scenario["partitioned_link"].stats().values()
    )
    assert partition_drops > 0, scenario["partitioned_link"].stats()

    # Bounded per-flow disruption: nothing lost, nothing reordered, and
    # no flow lived on more than two shards.  Dead-bucket flows moved to
    # exactly the committed successor.
    assert recorder.total == scenario["fed"], (recorder.total, scenario["fed"])
    per_flow_seqs = defaultdict(list)
    flow_shards = defaultdict(list)
    for shard, flow, seq in recorder.entries:
        per_flow_seqs[flow].append(seq)
        if not flow_shards[flow] or flow_shards[flow][-1] != shard:
            flow_shards[flow].append(shard)
    expected = list(range(PER_FLOW)) * LAPS
    for flow, seqs in per_flow_seqs.items():
        assert seqs == expected, (flow, seqs[:8], expected[:8])
        assert len(set(flow_shards[flow])) <= 2, (flow, flow_shards[flow])
    moved = {
        flow: homes for flow, homes in flow_shards.items() if len(set(homes)) == 2
    }
    assert moved, "no flow was re-steered off the dead shard"
    for flow, homes in moved.items():
        assert homes[0] == KILL_SHARD, (flow, homes)
        assert homes[-1] == record["to"], (flow, homes)
        # One move, never a bounce: original home, then the successor.
        assert homes == [KILL_SHARD, record["to"]], (flow, homes)

    # Zero pooled-buffer leaks across every slice, fault path included.
    audit = shard_pool_audit(pools)
    assert audit["balanced"], audit
    assert audit["in_flight"] == 0, audit
    assert datapath.total_backlog() == 0
    assert datapath.parked_count() == 0
