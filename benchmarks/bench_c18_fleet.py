"""C18 — the multi-capsule fleet: edge steering, admission, failover,
staged rollout.

C15/C16 scaled the datapath *within* one box (worker shards behind an
RSS table, resized live).  C18 lifts the same design one level: a fleet
of capsule nodes — each a complete sharded datapath with its own thread
manager and virtual clock, i.e. a separate machine — behind an ingress
edge that steers flows with two-level consistent hashing (fleet
:class:`~repro.osbase.sharding.HashRing` → capsule, the capsule's RSS
bucket table → shard).  Frames cross real :mod:`repro.netsim` links, so
the fleet inherits serialisation delay and the failure model instead of
assuming a backplane.

Four experiments:

- **capsule sweep** (1 → 2 → 4): aggregate throughput measured in
  *virtual* time — each capsule's clock advances only for its own work,
  so fleet completion time is the slowest member's clock and the scaling
  claim is deterministic (it gates at full strength under ``--smoke``,
  C15-style).  Headline: ≥ 1.6x at 2 capsules, ≥ 2.5x at 4.
- **node-kill failover**: a capsule dies with a live backlog; its hash
  arc moves to the survivors (each flow's home moves at most once — ring
  removal only deletes the dead member's points), its edge reservations
  are torn down immediately and re-admitted toward the new homes, and
  every frame is accounted for: fed == egressed + abandoned-at-kill +
  dead-letter drops, with every pool audit balanced.
- **staged rollout**: a canary upgrade whose v2 image fails to build
  aborts the round and must leave the fleet *byte-identical* — the same
  probe wave egresses the same bytes before and after, every capsule
  still on v1.  The healthy path upgrades the whole fleet capsule by
  capsule (quiesce → drain → swap → health check) and keeps forwarding.
- **paper ordering** on fault-free single-capsule cells: monolithic ≥
  Click-style ≥ CF fused ≥ CF vtable on the wall-clock aggregate, all
  four riding the identical fleet runtime (edge, links, CapsuleNode),
  interleaved best-of.  Under ``--smoke`` the cells run one pass and
  assert no wall-clock comparison, only their delivered counts.
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
from repro.netsim import flow_hash_of
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
from repro.router import build_capsule_fleet, build_sharded_forwarding_datapath

pytestmark = pytest.mark.bench

SHARDS = 2
BATCH = 32
BUFFER_SIZE = 128
POOL_TOTAL = 512
#: The fleet sizes the sweep compares (scaling is vs the first entry).
CAPSULE_SWEEP = (1, 2, 4)
#: Ring points per capsule: enough to keep arc shares — and with them
#: the slowest member's load share — close to 1/N at every sweep size.
REPLICAS = 256
#: Flow count is NOT scaled under smoke: the ring homes (and so every
#: capsule's load share, which the scaling floors bound) must be the
#: same population in both modes.  This population's busiest-member
#: share is 0.51 at 2 capsules and 0.26 at 4 — the scaling floors below
#: assume roughly that balance.
FLOWS = 128
WAVES = scaled(16, 8)
#: Interleaved best-of repeats for the wall-clock ordering cells (smoke
#: times nothing, so one pass).
REPEATS = scaled(3, 1)
#: Virtual-time scaling floors vs one capsule (deterministic — gates at
#: full strength under smoke).
MIN_SPEEDUP = {2: 1.6, 4: 2.5}


def make_waves(routes, *, flows=None, waves=None):
    """Seq-stamped frames as raw wire bytes, one frame per flow per
    wave.  The edge copies each frame onto the wire
    (:meth:`~repro.netsim.wire.WirePacket.ingest`), so one materialised
    trace is reusable across runs and systems."""
    from repro.netsim import make_udp_v4

    bases = [prefix.split("/")[0] for prefix in routes]
    flow_tuples = [
        (f"10.{50 + i // 150}.{i % 150}.4", bases[i % len(bases)], 1500 + 13 * i, 53)
        for i in range(flows if flows is not None else FLOWS)
    ]
    return [
        [
            make_udp_v4(
                src, dst, sport=sport, dport=dport,
                payload=pack("!I", seq) + b"\x00" * 12,
            ).to_bytes()
            for src, dst, sport, dport in flow_tuples
        ]
        for seq in range(waves if waves is not None else WAVES)
    ]


class FleetEgress:
    """TX-handler factory ``(capsule, shard) -> consumer`` recording
    per-capsule counts, per-flow sequence order and (optionally) full
    egress bytes for the rollout's byte-identity probe."""

    def __init__(self, *, capture_bytes=False):
        self.capture_bytes = capture_bytes
        self.total = 0
        self.by_capsule = defaultdict(int)
        self.entries = []
        self.raw = []

    def handler(self, capsule, shard):
        def on_frame(frame):
            self.total += 1
            self.by_capsule[capsule] += 1
            self.entries.append(
                (frame.flow_key(), unpack_from("!I", frame.payload, 0)[0])
            )
            if self.capture_bytes:
                self.raw.append(frame.to_bytes())
            release_dropped(frame)

        return on_frame

    def per_flow(self):
        seqs = defaultdict(list)
        for flow, seq in self.entries:
            seqs[flow].append(seq)
        return seqs


def feed(fleet, waves):
    """The fleet's drive loop: one wave onto the edge, then run links
    and capsule workers to quiescence."""
    fed = 0
    for wave in waves:
        for frame in wave:
            fed += 1 if fleet.ingest(frame) else 0
        fleet.pump()
    fleet.pump()
    return fed


def fleet_virtual_time(fleet):
    """Fleet completion time: the slowest capsule's own clock (capsules
    are separate machines running concurrently)."""
    return max(
        capsule.datapath.threads.clock.now for capsule in fleet.capsules.values()
    )


def shutdown_fleet(fleet):
    for capsule in fleet.capsules.values():
        if capsule.alive:
            capsule.datapath.shutdown()


# -- capsule sweep -----------------------------------------------------------------


def run_sweep_cell(routes, waves, capsules):
    recorder = FleetEgress()
    fleet = build_capsule_fleet(
        capsules,
        routes=routes,
        shards=SHARDS,
        replicas=REPLICAS,
        batch=BATCH,
        tx_handler=recorder.handler,
        # The sweep feeds the whole trace as one burst (below) so the
        # virtual clocks resolve per-frame work, not per-wave quanta —
        # the spoke links and shard rings must hold a full trace in
        # flight.
        max_backlog=4 * FLOWS * WAVES,
        rx_ring_size=FLOWS * WAVES,
    )
    # Burst-feed, then run to quiescence: each capsule's clock advances
    # only while its own workers drain its share, so completion time is
    # proportional to the busiest member's slice count.
    fed = 0
    for wave in waves:
        for frame in wave:
            fed += 1 if fleet.ingest(frame) else 0
    fleet.pump()
    outcome = {
        "capsules": capsules,
        "fed": fed,
        "forwarded": recorder.total,
        "virtual": fleet_virtual_time(fleet),
        "by_capsule": dict(recorder.by_capsule),
        "arc_shares": fleet.ring.arc_shares(),
        "per_flow": recorder.per_flow(),
    }
    shutdown_fleet(fleet)
    return outcome


def test_c18_capsule_sweep(benchmark):
    def experiment():
        routes = routes_with_default()
        waves = make_waves(routes)
        return {n: run_sweep_cell(routes, waves, n) for n in CAPSULE_SWEEP}

    results = once(benchmark, experiment)
    base = results[CAPSULE_SWEEP[0]]
    expected = FLOWS * WAVES
    rows = []
    for n, res in results.items():
        speedup = base["virtual"] / res["virtual"]
        busiest = max(res["by_capsule"].values()) / res["forwarded"]
        rows.append(
            [
                n,
                f"{res['virtual'] * 1e3:.2f}",
                f"{speedup:.2f}x",
                f"{busiest:.2f}",
                res["forwarded"],
            ]
        )
    report(
        f"C18: capsule sweep {'->'.join(str(n) for n in CAPSULE_SWEEP)}, "
        f"{SHARDS} shards/capsule, {FLOWS} flows, {WAVES} waves, "
        f"{REPLICAS} ring points/capsule (virtual time)",
        ["capsules", "virtual ms", "speedup", "busiest share", "forwarded"],
        rows,
    )
    print(f"[bench-meta] capsules={','.join(str(n) for n in CAPSULE_SWEEP)}")
    print(f"[bench-meta] replicas={REPLICAS}")
    print(f"[bench-meta] flows={FLOWS}")
    print(f"[bench-meta] waves={WAVES}")
    for n, res in results.items():
        print(f"[bench-meta] speedup_{n}={base['virtual'] / res['virtual']:.2f}")
        # Zero drops at every fleet size, and per-flow FIFO end-to-end
        # (a flow's frames cross one link to one home capsule in order).
        assert res["fed"] == expected, (n, res["fed"], expected)
        assert res["forwarded"] == expected, (n, res["forwarded"], expected)
        assert len(res["by_capsule"]) == n  # every capsule took traffic
        for flow, observed in res["per_flow"].items():
            assert observed == list(range(WAVES)), (n, flow)
    # The deterministic scaling headline: virtual completion time is the
    # slowest capsule's clock, so speedup is bounded by the busiest
    # member's share of the flow population.
    for n, floor in MIN_SPEEDUP.items():
        speedup = base["virtual"] / results[n]["virtual"]
        assert speedup >= floor, (n, speedup, floor)


# -- node-kill failover -------------------------------------------------------------


def test_c18_node_kill_failover(benchmark):
    def experiment():
        routes = routes_with_default()
        waves = make_waves(routes)
        recorder = FleetEgress()
        fleet = build_capsule_fleet(
            4,
            routes=routes,
            shards=SHARDS,
            replicas=REPLICAS,
            batch=BATCH,
            tx_handler=recorder.handler,
        )
        # Admit every flow at the edge before steering any of its frames.
        probes = {flow_hash_of(frame): frame for frame in waves[0]}
        for frame in probes.values():
            assert fleet.open_flow(frame, 1e3) == "admitted"
        homes_before = {
            flow: fleet.home_of(frame)[0] for flow, frame in probes.items()
        }
        half = len(waves) // 2
        fed = feed(fleet, waves[:half])
        reserved_before = fleet.rsvp["edge"].reserved_bandwidth()
        # Kill the busiest capsule with a live, unpumped backlog on its
        # rings — the abandon path must release every frame it strands.
        # (Run the links so the wave reaches the rings, but do not pump
        # the workers; a frame still in flight toward the dying node
        # when it drops becomes a dead-letter instead.)
        victim = max(recorder.by_capsule, key=recorder.by_capsule.get)
        for frame in waves[half]:
            fleet.ingest(frame)
        fleet.engine.run()
        record = fleet.kill(victim)
        homes_after = {
            flow: fleet.home_of(frame)[0] for flow, frame in probes.items()
        }
        fed += len(waves[half])
        fed += feed(fleet, waves[half + 1 :])
        dead = fleet.dead[victim]
        audits = {
            name: shard_pool_audit([s.pool for s in node.datapath.shards])
            for name, node in {**fleet.capsules, victim: dead}.items()
        }
        outcome = {
            "fed": fed,
            "forwarded": recorder.total,
            "victim": victim,
            "record": record,
            "homes_before": homes_before,
            "homes_after": homes_after,
            "dead_counters": dict(dead.counters),
            "reserved_before": reserved_before,
            "reserved_after": fleet.rsvp["edge"].reserved_bandwidth(),
            "audits": audits,
            "members": fleet.members(),
            "by_capsule": dict(recorder.by_capsule),
        }
        shutdown_fleet(fleet)
        return outcome

    res = once(benchmark, experiment)
    victim = res["victim"]
    moved = [
        flow
        for flow, before in res["homes_before"].items()
        if res["homes_after"][flow] != before
    ]
    report(
        "C18: node-kill failover (4 capsules, busiest killed mid-trace)",
        ["victim", "flows moved", "abandoned", "resv released", "re-admitted"],
        [
            [
                victim,
                f"{len(moved)}/{len(res['homes_before'])}",
                res["record"]["abandoned"],
                res["record"]["reservations_released"],
                len(res["record"]["readmitted"]),
            ]
        ],
    )
    print(f"[bench-meta] kill_victim={victim}")
    print(f"[bench-meta] kill_moved={len(moved)}")
    # Each flow's home moved at most once: exactly the victim's flows
    # re-homed, every survivor's flow stayed put.
    for flow, before in res["homes_before"].items():
        after = res["homes_after"][flow]
        if before == victim:
            assert after != victim, flow
        else:
            assert after == before, flow
    assert victim not in res["members"]
    # The dead capsule's edge reservations were torn down immediately
    # and every orphaned flow re-admitted toward its new home, so the
    # aggregate reservation survives the failover intact.
    assert res["record"]["reservations_released"] == len(moved)
    assert all(v == "admitted" for _, v in res["record"]["readmitted"])
    assert res["reserved_after"] == res["reserved_before"]
    # Frame conservation: everything fed either egressed, was abandoned
    # at the kill (live backlog, honestly dropped and released), or
    # dead-lettered in flight toward the dying node.
    accounted = (
        res["forwarded"]
        + res["record"]["abandoned"]
        + res["dead_counters"]["dead_drops"]
    )
    assert accounted == res["fed"], (accounted, res["fed"])
    assert res["record"]["abandoned"] > 0  # the kill really stranded work
    # Zero pool leaks anywhere — including the dead capsule's slices.
    for name, audit in res["audits"].items():
        assert audit["balanced"], (name, audit)
        for row in audit["pools"]:
            assert row["in_flight"] == 0, (name, row)


# -- staged rollout -----------------------------------------------------------------


def test_c18_staged_rollout(benchmark):
    def experiment():
        routes = routes_with_default()
        probe = make_waves(routes, flows=scaled(32, 16), waves=4)
        recorder = FleetEgress(capture_bytes=True)

        def factory(name, version):
            if version == "v2":
                raise RuntimeError("v2 image fails to build")
            return build_sharded_forwarding_datapath(
                routes=routes,
                shards=SHARDS,
                threads=ThreadManagerCF(
                    VirtualClock(), scheduler=RoundRobinScheduler()
                ),
                batch=BATCH,
                tx_handler=lambda index, _name=name: recorder.handler(_name, index),
                name=f"{name}-dp-{version}",
            )

        fleet = build_capsule_fleet(2, routes=routes, datapath_factory=factory)

        def run_probe():
            recorder.raw.clear()
            feed(fleet, probe)
            return sorted(recorder.raw)

        baseline = run_probe()
        failed = fleet.rollout.run("v2", health_check=lambda name: True)
        versions_after_abort = fleet.versions()
        after_abort = run_probe()
        healthy = fleet.rollout.run("v3", health_check=lambda name: True)
        versions_after_upgrade = fleet.versions()
        after_upgrade = run_probe()
        outcome = {
            "baseline": baseline,
            "failed": failed,
            "after_abort": after_abort,
            "versions_after_abort": versions_after_abort,
            "healthy": healthy,
            "versions_after_upgrade": versions_after_upgrade,
            "after_upgrade": after_upgrade,
        }
        shutdown_fleet(fleet)
        return outcome

    res = once(benchmark, experiment)
    report(
        "C18: staged rollout (canary -> drain -> swap, abort on broken build)",
        ["rollout", "status", "versions", "probe bytes identical"],
        [
            [
                "v2 (broken)",
                res["failed"]["status"],
                ",".join(sorted(set(res["versions_after_abort"].values()))),
                "yes" if res["after_abort"] == res["baseline"] else "NO",
            ],
            [
                "v3 (healthy)",
                res["healthy"]["status"],
                ",".join(sorted(set(res["versions_after_upgrade"].values()))),
                "yes" if res["after_upgrade"] == res["baseline"] else "NO",
            ],
        ],
    )
    print(f"[bench-meta] rollout_failed={res['failed']['status']}")
    print(f"[bench-meta] rollout_healthy={res['healthy']['status']}")
    # The failed canary left the fleet byte-identical: same versions,
    # same probe egress, byte for byte.
    assert res["failed"]["status"] == "aborted"
    assert set(res["versions_after_abort"].values()) == {"v1"}
    assert res["after_abort"] == res["baseline"]
    # The healthy rollout upgraded every capsule and (v3 builds the same
    # pipeline) forwards the identical bytes.
    assert res["healthy"]["status"] == "completed"
    assert set(res["versions_after_upgrade"].values()) == {"v3"}
    assert res["after_upgrade"] == res["baseline"]


# -- paper ordering on fault-free cells ---------------------------------------------


def new_threads():
    return ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler())


def baseline_factory(routes, *, click):
    """A baseline datapath under the identical fleet runtime — C16's
    structural-comparison discipline, one level up."""
    engines = []

    def factory(name, version):
        pools = carve_shard_pools(
            BUFFER_SIZE, POOL_TOTAL, SHARDS, exhaustion_policy="drop-newest"
        )

        def make_shard(index, pool):
            if click:
                engine = ClickRouter(
                    standard_click_config(
                        routes=routes, queue_capacity=4 * BATCH, recycle_sinks=True
                    )
                )
            else:
                engine = monolithic_shard_fleet(routes, 1, queue_capacity=4 * BATCH)[0]
            engines.append(engine)
            return Shard(
                index,
                nic=Nic(rx_ring_size=1024, pool=pool),
                pool=pool,
                push_batch=engine.push_batch,
                flush=lambda e=engine: e.service(budget=BATCH),
                engine=engine,
            )

        return ShardedDatapath(
            [make_shard(index, pools[index]) for index in range(SHARDS)],
            threads=new_threads(),
            hash_fn=flow_hash_of,
            batch=BATCH,
            name=f"{name}-dp-{version}",
        )

    def forwarded():
        if click:
            return sum(
                element.counters.get("rx", 0)
                for router in engines
                for el_name, element in router.elements.items()
                if el_name.startswith("sink-")
            )
        return sum(router.counters["tx"] for router in engines)

    return factory, forwarded


def build_ordering_cell(routes, system):
    if system in ("CF fused", "CF vtable"):
        recorder = FleetEgress()
        fleet = build_capsule_fleet(
            1,
            routes=routes,
            shards=SHARDS,
            batch=BATCH,
            fused=(system == "CF fused"),
            tx_handler=recorder.handler,
        )
        return fleet, lambda: recorder.total
    factory, forwarded = baseline_factory(routes, click=(system == "Click-style"))
    fleet = build_capsule_fleet(1, routes=routes, datapath_factory=factory)
    return fleet, forwarded


def test_c18_paper_ordering(benchmark):
    systems = ("CF vtable", "CF fused", "Click-style", "monolithic")

    def experiment():
        routes = routes_with_default()
        waves = make_waves(routes)

        def run_cell(system):
            fleet, forwarded = build_ordering_cell(routes, system)
            tick = time.perf_counter()
            fed = feed(fleet, waves)
            elapsed = time.perf_counter() - tick
            outcome = {
                "elapsed": elapsed,
                "fed": fed,
                "forwarded": forwarded(),
            }
            shutdown_fleet(fleet)
            return outcome

        results = {}
        if not SMOKE:
            for system in systems:
                run_cell(system)  # warm-up: caches, imports, allocator — untimed
        for _ in range(REPEATS):
            for system in systems:
                outcome = run_cell(system)
                if system not in results:
                    results[system] = outcome
                else:
                    kept = results[system]
                    assert outcome["forwarded"] == kept["forwarded"], system
                    kept["elapsed"] = min(kept["elapsed"], outcome["elapsed"])
        return results

    results = once(benchmark, experiment)
    expected = FLOWS * WAVES
    rows = [
        [
            system,
            f"{res['forwarded'] / res['elapsed'] / 1e3:.0f}",
            res["forwarded"],
        ]
        for system, res in results.items()
    ]
    report(
        f"C18: paper ordering, single-capsule fault-free cells "
        f"({FLOWS} flows x {WAVES} waves, best of {REPEATS})",
        ["system", "kpps(wall)", "forwarded"],
        rows,
    )
    for system, res in results.items():
        assert res["fed"] == expected, (system, res["fed"])
        assert res["forwarded"] == expected, (system, res["forwarded"])
    # Wall-clock comparisons are noise-dominated on the smoke trace;
    # smoke gates only on the exact counts above.
    if SMOKE:
        return

    def pps(system):
        return results[system]["forwarded"] / results[system]["elapsed"]

    # The shared fleet runtime (edge, link simulation, CapsuleNode) adds
    # an identical per-frame cost to all four systems, compressing the
    # gaps C6/C11 measured bare — the ordering survives, so the slack
    # stays at C16's level.
    assert pps("monolithic") >= pps("Click-style") * 0.9
    assert pps("Click-style") >= pps("CF fused") * 0.9
    assert pps("CF fused") >= pps("CF vtable") * 0.9
