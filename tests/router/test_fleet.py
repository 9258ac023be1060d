"""The multi-capsule fleet: CapsuleNode lifecycle, two-level edge
steering over real links, admission at the edge, node-kill failover and
the staged rollout paths."""

from struct import pack

import pytest

from repro.netsim import make_udp_v4
from repro.netsim.wire import flow_hash_of
from repro.osbase.buffers import release_dropped
from repro.osbase.clock import VirtualClock
from repro.osbase.scheduler import RoundRobinScheduler, ThreadManagerCF
from repro.router import FleetError, build_capsule_fleet
from repro.router import build_sharded_forwarding_datapath

ROUTES = {"10.0.0.0/8": "east", "0.0.0.0/0": "west"}

FLOWS = [(f"10.1.{i}.1", 4000 + i) for i in range(24)]


def frame_for(flow, seq=0):
    src, sport = flow
    return make_udp_v4(
        src, "10.9.9.9", sport=sport, dport=80, payload=pack("!I", seq)
    ).to_bytes()


def flow_key_of(flow):
    return make_udp_v4(flow[0], "10.9.9.9", sport=flow[1], dport=80).flow_key()


def plain_datapath(name, version):
    """Minimal per-capsule datapath build for factory-override tests."""
    return build_sharded_forwarding_datapath(
        routes=ROUTES,
        shards=2,
        threads=ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler()),
        name=f"{name}-dp-{version}",
    )


class FleetRecorder:
    """TX-handler factory: ``(capsule, shard) -> frame consumer``."""

    def __init__(self):
        self.frames = []

    def handler(self, capsule, shard):
        def on_frame(frame):
            self.frames.append((capsule, shard, frame.flow_key()))
            release_dropped(frame)

        return on_frame

    def by_capsule(self):
        seen = {}
        for capsule, _, _ in self.frames:
            seen[capsule] = seen.get(capsule, 0) + 1
        return seen


def make_fleet(capsules=2, **kwargs):
    recorder = FleetRecorder()
    fleet = build_capsule_fleet(
        capsules, routes=ROUTES, shards=2, tx_handler=recorder.handler, **kwargs
    )
    return fleet, recorder


def drive(fleet, flows, *, per_flow=2):
    for seq in range(per_flow):
        for flow in flows:
            fleet.ingest(frame_for(flow, seq))
    fleet.pump()


class TestCapsuleNode:
    def test_install_retires_the_incumbent(self):
        fleet, _ = make_fleet(1)
        capsule = fleet.capsules["cap0"]
        old = capsule.datapath
        capsule.install("v2")
        assert capsule.version == "v2"
        assert capsule.datapath is not old
        assert capsule.retired == [old]

    def test_failed_build_leaves_running_version_untouched(self):
        def factory(name, version):
            if version == "bad":
                raise RuntimeError("broken build")
            return plain_datapath(name, version)

        fleet = build_capsule_fleet(1, routes=ROUTES, datapath_factory=factory)
        capsule = fleet.capsules["cap0"]
        old = capsule.datapath
        with pytest.raises(RuntimeError, match="broken build"):
            capsule.install("bad")
        assert capsule.version == "v1"
        assert capsule.datapath is old
        assert capsule.retired == []

    def test_kill_counts_and_releases_then_drops_dead_ingress(self):
        fleet, _ = make_fleet(1)
        capsule = fleet.capsules["cap0"]
        capsule._on_frame(frame_for(FLOWS[0]), "port")
        assert capsule.datapath.total_backlog() == 1
        abandoned = capsule.kill()
        assert abandoned == 1
        assert capsule.counters["abandoned"] == 1
        assert not capsule.alive
        assert capsule.pump() == 0
        capsule._on_frame(frame_for(FLOWS[1]), "port")
        assert capsule.counters["dead_drops"] == 1
        assert capsule.kill() == 0  # idempotent

    def test_dead_capsule_refuses_install(self):
        fleet, _ = make_fleet(1)
        capsule = fleet.capsules["cap0"]
        capsule.kill()
        with pytest.raises(FleetError, match="dead"):
            capsule.install("v2")

    def test_quiesce_parks_and_resume_resteers_in_order(self):
        fleet, recorder = make_fleet(1)
        capsule = fleet.capsules["cap0"]
        actions = capsule.upgrade_action_set()
        assert actions.quiesce({"version": "v2"}) is True
        capsule._on_frame(frame_for(FLOWS[0], 0), "port")
        capsule._on_frame(frame_for(FLOWS[0], 1), "port")
        assert capsule.counters["parked"] == 2
        assert capsule.datapath.total_backlog() == 0  # parked, not steered
        actions.apply({"version": "v2"})
        actions.resume({})
        assert capsule.version == "v2"
        assert capsule.counters["steered"] == 2
        capsule.pump()
        assert len(recorder.frames) == 2
        assert {key for _, _, key in recorder.frames} == {flow_key_of(FLOWS[0])}

    def test_quiesce_refuses_bad_params_and_double_quiesce(self):
        fleet, _ = make_fleet(1)
        capsule = fleet.capsules["cap0"]
        actions = capsule.upgrade_action_set()
        assert actions.quiesce({}) is False
        assert actions.quiesce({"version": ""}) is False
        assert actions.quiesce({"version": "v2"}) is True
        assert actions.quiesce({"version": "v3"}) is False
        assert capsule._quiesced  # the refusal did not clobber the live round

    def test_rollback_restores_previous_version(self):
        fleet, _ = make_fleet(1)
        capsule = fleet.capsules["cap0"]
        actions = capsule.upgrade_action_set()
        actions.quiesce({"version": "v2"})
        actions.apply({"version": "v2"})
        actions.rollback({})
        actions.resume({})
        assert capsule.version == "v1"


class TestCapsuleFleet:
    def test_frames_reach_their_ring_home(self):
        fleet, recorder = make_fleet(2)
        drive(fleet, FLOWS)
        assert fleet.counters["forwarded"] == len(FLOWS) * 2
        homes = {flow_key_of(flow): fleet.home_of(frame_for(flow)) for flow in FLOWS}
        assert {capsule for capsule, _ in homes.values()} == {"cap0", "cap1"}
        assert len(recorder.frames) == len(FLOWS) * 2
        for capsule, shard, flow_key in recorder.frames:
            assert (capsule, shard) == homes[flow_key]

    def test_malformed_frame_is_counted_and_dropped(self):
        fleet, _ = make_fleet(2)
        assert fleet.ingest(b"\x00\x01short") is False
        assert fleet.counters["malformed"] == 1
        assert fleet.counters["ingested"] == 0

    def test_kill_rehomes_each_flow_at_most_once(self):
        fleet, recorder = make_fleet(3)
        before = {flow: fleet.home_of(frame_for(flow))[0] for flow in FLOWS}
        fleet.kill("cap1")
        after = {flow: fleet.home_of(frame_for(flow))[0] for flow in FLOWS}
        for flow in FLOWS:
            if before[flow] != "cap1":
                assert after[flow] == before[flow]
            else:
                assert after[flow] != "cap1"
        drive(fleet, FLOWS)
        assert recorder.by_capsule().get("cap1") is None
        assert len(recorder.frames) == len(FLOWS) * 2
        assert "cap1" in fleet.dead
        assert fleet.members() == ["cap0", "cap2"]

    def test_kill_guards(self):
        fleet, _ = make_fleet(2)
        with pytest.raises(FleetError, match="unknown"):
            fleet.kill("nope")
        fleet.kill("cap1")
        with pytest.raises(FleetError, match="unknown or already dead"):
            fleet.kill("cap1")
        with pytest.raises(FleetError, match="last capsule"):
            fleet.kill("cap0")

    def test_admission_open_close_round_trip(self):
        fleet, _ = make_fleet(2)
        frame = frame_for(FLOWS[0])
        assert fleet.open_flow(frame, 10e3) == "admitted"
        assert fleet.open_flow(frame, 10e3) == "admitted"  # idempotent
        assert fleet.admission.admitted_count() == 1
        assert fleet.close_flow(frame) is True
        assert fleet.admission.admitted_count() == 0

    def test_enforced_admission_drops_unadmitted_flows(self):
        fleet, _ = make_fleet(2, enforce_admission=True)
        admitted, stray = frame_for(FLOWS[0]), frame_for(FLOWS[1])
        fleet.open_flow(admitted, 10e3)
        assert fleet.ingest(admitted) is True
        assert fleet.ingest(stray) is False
        assert fleet.counters["unadmitted"] == 1

    def test_kill_releases_dead_capsules_reservations(self):
        fleet, _ = make_fleet(2)
        homes = {}
        for flow in FLOWS:
            frame = frame_for(flow)
            fleet.open_flow(frame, 1e3)
            homes[flow] = fleet.home_of(frame)[0]
        victim_flows = [flow for flow, home in homes.items() if home == "cap1"]
        assert victim_flows
        record = fleet.kill("cap1")
        assert record["reservations_released"] == len(victim_flows)
        assert len(record["readmitted"]) == len(victim_flows)
        assert all(verdict == "admitted" for _, verdict in record["readmitted"])
        for flow in victim_flows:
            assert fleet.admission.home_of(flow_hash_of(frame_for(flow))) == "cap0"


class TestStagedRollout:
    def test_healthy_rollout_upgrades_every_capsule(self):
        fleet, recorder = make_fleet(2)
        record = fleet.rollout.run("v2", health_check=lambda name: True)
        assert record["status"] == "completed"
        assert fleet.versions() == {"cap0": "v2", "cap1": "v2"}
        drive(fleet, FLOWS[:6])
        assert len(recorder.frames) == 12  # the new version forwards

    def test_default_health_check_probes_capsule_liveness(self):
        # No explicit health_check: the fleet-wired default (capsule
        # alive, no dead workers, not stopping) gates the canary.
        fleet, recorder = make_fleet(2)
        record = fleet.rollout.run("v2")
        assert record["status"] == "completed"
        assert fleet.versions() == {"cap0": "v2", "cap1": "v2"}
        drive(fleet, FLOWS[:4])
        assert len(recorder.frames) == 8

    def test_rollout_after_kill_targets_only_survivors(self):
        fleet, _ = make_fleet(3)
        fleet.kill("cap0")
        record = fleet.rollout.run("v2")
        assert record["status"] == "completed"
        assert record["canary"] == "cap1"
        assert fleet.versions() == {"cap1": "v2", "cap2": "v2"}

    def test_failed_health_check_rolls_the_canary_back(self):
        fleet, _ = make_fleet(2)
        record = fleet.rollout.run("v2", health_check=lambda name: False)
        assert record["status"] == "rolled-back"
        assert fleet.versions() == {"cap0": "v1", "cap1": "v1"}

    def test_broken_build_aborts_and_keeps_fleet_serving(self):
        def factory(name, version):
            if version == "v2":
                raise RuntimeError("bad v2")
            return plain_datapath(name, version)

        fleet = build_capsule_fleet(2, routes=ROUTES, datapath_factory=factory)
        record = fleet.rollout.run("v2", health_check=lambda name: True)
        assert record["status"] == "aborted"
        assert fleet.versions() == {"cap0": "v1", "cap1": "v1"}
        for flow in FLOWS[:4]:
            assert fleet.ingest(frame_for(flow)) is True
        fleet.pump()
