"""Distributed two-phase reconfiguration."""

import pytest

from repro.coordination import (
    ReconfigCoordinator,
    ReconfigError,
    ReconfigParticipant,
    attach_agents,
)
from repro.netsim import FaultInjector, Topology
from repro.opencom.metamodel import ActionSet


def link_between(topo, a, b):
    for link in topo.links:
        ends = {link.endpoint_a[0].name, link.endpoint_b[0].name}
        if ends == {a, b}:
            return link
    raise AssertionError(f"no link {a}<->{b}")


@pytest.fixture
def network():
    topo = Topology.star(3, latency_s=0.001)
    agents = attach_agents(topo)
    coordinator = ReconfigCoordinator(agents["hub"])
    participants = {
        name: ReconfigParticipant(agents[name])
        for name in ("leaf0", "leaf1", "leaf2")
    }
    return topo, coordinator, participants


def swap_actions(state, node, *, quiesce_ok=True, apply_raises=False):
    def apply(params):
        if apply_raises:
            raise RuntimeError("apply failure")
        state[node] = params["to"]

    return ActionSet(
        quiesce=lambda params: quiesce_ok,
        apply=apply,
        resume=lambda params: state.setdefault("resumed", []).append(node),
        rollback=lambda params: state.setdefault("rolled-back", []).append(node),
    )


class TestCommitPath:
    def test_unanimous_yes_commits_everywhere(self, network):
        topo, coordinator, participants = network
        state = {}
        for node, participant in participants.items():
            participant.register("swap", swap_actions(state, node))
        round_ = coordinator.start("swap", list(participants), {"to": "v2"})
        topo.engine.run()
        assert round_.status == "committed"
        assert {state[n] for n in participants} == {"v2"}
        assert sorted(state["resumed"]) == sorted(participants)

    def test_round_records_votes_and_events(self, network):
        topo, coordinator, participants = network
        state = {}
        for node, participant in participants.items():
            participant.register("swap", swap_actions(state, node))
        round_ = coordinator.start("swap", list(participants), {"to": "v2"})
        topo.engine.run()
        assert all(round_.votes[n] for n in participants)
        assert "commit" in round_.events


class TestAbortPath:
    def test_any_refusal_aborts_all(self, network):
        topo, coordinator, participants = network
        state = {}
        items = list(participants.items())
        for node, participant in items[:-1]:
            participant.register("swap", swap_actions(state, node))
        refuser_name, refuser = items[-1]
        refuser.register("swap", swap_actions(state, refuser_name, quiesce_ok=False))
        round_ = coordinator.start("swap", list(participants), {"to": "v2"})
        topo.engine.run()
        assert round_.status == "aborted"
        # Nobody applied.
        assert not any(n in state for n in participants)
        # Prepared participants resumed unchanged.
        assert set(state.get("resumed", [])) == {n for n, _ in items[:-1]}

    def test_unknown_kind_votes_no(self, network):
        topo, coordinator, participants = network
        round_ = coordinator.start("unregistered-kind", list(participants))
        topo.engine.run()
        assert round_.status == "aborted"

    def test_quiesce_exception_votes_no(self, network):
        topo, coordinator, participants = network
        state = {}

        def explode(params):
            raise RuntimeError("quiesce bug")

        items = list(participants.items())
        items[0][1].register(
            "swap",
            ActionSet(quiesce=explode, apply=lambda p: None, resume=lambda p: None),
        )
        for node, participant in items[1:]:
            participant.register("swap", swap_actions(state, node))
        round_ = coordinator.start("swap", list(participants), {"to": "x"})
        topo.engine.run()
        assert round_.status == "aborted"

    def test_apply_failure_triggers_rollback_and_resume(self, network):
        topo, coordinator, participants = network
        state = {}
        items = list(participants.items())
        failing_name, failing = items[0]
        failing.register(
            "swap", swap_actions(state, failing_name, apply_raises=True)
        )
        for node, participant in items[1:]:
            participant.register("swap", swap_actions(state, node))
        round_ = coordinator.start("swap", list(participants), {"to": "v2"})
        topo.engine.run()
        assert round_.status == "committed"  # votes were unanimous
        assert failing_name not in state or state[failing_name] != "v2"
        assert failing_name in state["rolled-back"]
        assert failing_name in state["resumed"]

    def test_manual_abort_of_stalled_round(self, network):
        topo, coordinator, participants = network
        state = {}
        # Register on only one participant; others never vote (unknown kind
        # makes them vote no immediately, so instead just don't run engine
        # to completion: abort manually before any vote lands).
        round_ = coordinator.start("swap", list(participants), {"to": "x"})
        coordinator.abort_stalled(round_)
        assert round_.status == "aborted"
        coordinator.abort_stalled(round_)  # idempotent on complete rounds

    def test_empty_participant_list_rejected(self, network):
        _, coordinator, _ = network
        with pytest.raises(ReconfigError):
            coordinator.start("swap", [])

    def test_duplicate_kind_registration_rejected(self, network):
        _, _, participants = network
        participant = next(iter(participants.values()))
        actions = ActionSet(
            quiesce=lambda p: True, apply=lambda p: None, resume=lambda p: None
        )
        participant.register("k", actions)
        with pytest.raises(ReconfigError, match="already registered"):
            participant.register("k", actions)


class TestDeadline:
    def test_partitioned_participant_expires_the_deadline(self, network):
        topo, coordinator, participants = network
        state = {}
        for node, participant in participants.items():
            participant.register("swap", swap_actions(state, node))
        # leaf2 is unreachable for longer than every retransmit: its
        # vote never arrives, and only the deadline resolves the round.
        injector = FaultInjector(topo.engine)
        injector.partition(link_between(topo, "hub", "leaf2"), at=0.0001)
        round_ = coordinator.start(
            "swap", list(participants), {"to": "v2"}, deadline=0.5
        )
        topo.engine.run()
        assert round_.status == "aborted"
        assert "deadline-expired (missing votes: ['leaf2'])" in round_.events
        # Nobody applied; the reachable (prepared) participants rolled
        # back and resumed unchanged instead of staying quiesced.
        assert not any(state.get(n) == "v2" for n in participants)
        assert sorted(state["rolled-back"]) == ["leaf0", "leaf1"]
        assert sorted(state["resumed"]) == ["leaf0", "leaf1"]

    def test_deadline_is_a_no_op_on_resolved_rounds(self, network):
        topo, coordinator, participants = network
        state = {}
        for node, participant in participants.items():
            participant.register("swap", swap_actions(state, node))
        round_ = coordinator.start(
            "swap", list(participants), {"to": "v2"}, deadline=5.0
        )
        topo.engine.run()
        assert round_.status == "committed"
        assert not any("deadline-expired" in event for event in round_.events)

    def test_nonpositive_deadline_rejected(self, network):
        _, coordinator, participants = network
        with pytest.raises(ReconfigError, match="deadline"):
            coordinator.start("swap", list(participants), deadline=0)


class TestRollbackOrdering:
    def _log_index(self, participant, fragment):
        matches = [i for i, line in enumerate(participant.log) if fragment in line]
        assert len(matches) == 1, (fragment, participant.log)
        return matches[0]

    def test_abort_rolls_back_before_resuming(self, network):
        topo, coordinator, participants = network
        state = {}
        items = list(participants.items())
        for node, participant in items[:-1]:
            participant.register("swap", swap_actions(state, node))
        refuser_name, refuser = items[-1]
        refuser.register("swap", swap_actions(state, refuser_name, quiesce_ok=False))
        round_ = coordinator.start("swap", list(participants), {"to": "v2"})
        topo.engine.run()
        assert round_.status == "aborted"
        for _, participant in items[:-1]:
            rolled = self._log_index(participant, "rolled back")
            resumed = self._log_index(participant, "resumed unchanged")
            assert rolled < resumed

    def test_apply_failure_rolls_back_before_resuming(self, network):
        topo, coordinator, participants = network
        state = {}
        items = list(participants.items())
        failing_name, failing = items[0]
        failing.register("swap", swap_actions(state, failing_name, apply_raises=True))
        for node, participant in items[1:]:
            participant.register("swap", swap_actions(state, node))
        round_ = coordinator.start("swap", list(participants), {"to": "v2"})
        topo.engine.run()
        assert round_.status == "committed"
        assert "apply failed" in "".join(failing.log)
        rolled = self._log_index(failing, "rolled back")
        resumed = self._log_index(failing, "resumed")
        assert rolled < resumed


#: Call sequence per kernel outcome; the same locally and in a round.
KERNEL_OUTCOMES = {
    "commit": ["quiesce", "apply", "resume"],
    "refused": ["quiesce"],
    "apply-raises": ["quiesce", "apply", "rollback", "resume"],
    "apply-and-rollback-raise": ["quiesce", "apply", "rollback", "resume"],
}


def recording_actions(calls, outcome):
    def step(name, *, result=None, raises=False):
        def run(params):
            calls.append(name)
            if raises:
                raise RuntimeError(f"{name} failure")
            return result

        return run

    return ActionSet(
        quiesce=step("quiesce", result=outcome != "refused"),
        apply=step("apply", raises=outcome.startswith("apply")),
        resume=step("resume"),
        rollback=step("rollback", raises=outcome == "apply-and-rollback-raise"),
    )


@pytest.mark.parametrize("outcome", list(KERNEL_OUTCOMES))
def test_local_run_and_a_round_drive_one_kernel(network, outcome):
    local = []
    actions = recording_actions(local, outcome)
    error = {
        "apply-raises": "apply failure",
        "apply-and-rollback-raise": "rollback failure",
    }.get(outcome)
    if error is None:
        assert actions.run({}) is (outcome != "refused")
    else:
        with pytest.raises(RuntimeError, match=error):
            actions.run({})

    topo, coordinator, participants = network
    remote = []
    participants["leaf0"].register("k", recording_actions(remote, outcome))
    round_ = coordinator.start("k", ["leaf0"])
    topo.engine.run()
    assert round_.status == ("aborted" if outcome == "refused" else "committed")
    assert local == remote == KERNEL_OUTCOMES[outcome]
    assert local.count("resume") == (0 if outcome == "refused" else 1)


class FakeRecoverableDatapath:
    """Duck-typed stand-in for ShardedDatapath.recovery_action_set()."""

    def __init__(self, *, quiesce_ok=True):
        self.calls = []
        self.quiesce_ok = quiesce_ok

    def recovery_action_set(self):
        return ActionSet(
            quiesce=lambda params: (
                self.calls.append(("quiesce", params["shard"])),
                self.quiesce_ok,
            )[1],
            apply=lambda params: self.calls.append(("apply", params["shard"])),
            resume=lambda params: self.calls.append(("resume", params["shard"])),
            rollback=lambda params: self.calls.append(
                ("rollback", params["shard"])
            ),
        )


class TestShardRecoveryBridge:
    def test_committed_round_drives_quiesce_apply_resume(self, network):
        topo, coordinator, participants = network
        datapaths = {}
        for node, participant in participants.items():
            datapaths[node] = FakeRecoverableDatapath()
            participant.register(
                "shard-recovery", datapaths[node].recovery_action_set()
            )
        round_ = coordinator.start(
            "shard-recovery", list(participants), {"shard": 2}, deadline=1.0
        )
        topo.engine.run()
        assert round_.status == "committed"
        for datapath in datapaths.values():
            assert datapath.calls == [
                ("quiesce", 2), ("apply", 2), ("resume", 2)
            ]

    def test_refused_quiesce_aborts_and_spares_the_rest(self, network):
        topo, coordinator, participants = network
        items = list(participants.items())
        datapaths = {}
        for node, participant in items:
            datapaths[node] = FakeRecoverableDatapath(quiesce_ok=(node != "leaf2"))
            participant.register(
                "shard-recovery", datapaths[node].recovery_action_set()
            )
        round_ = coordinator.start("shard-recovery", list(participants), {"shard": 0})
        topo.engine.run()
        assert round_.status == "aborted"
        assert datapaths["leaf2"].calls == [("quiesce", 0)]
        for node in ("leaf0", "leaf1"):
            assert datapaths[node].calls == [
                ("quiesce", 0), ("rollback", 0), ("resume", 0)
            ]


class FakeResizableDatapath:
    """Duck-typed stand-in for ShardedDatapath.resize_action_set()."""

    def __init__(self, *, quiesce_ok=True, apply_raises=False):
        self.calls = []
        self.quiesce_ok = quiesce_ok
        self.apply_raises = apply_raises

    def resize_action_set(self):
        def apply(params):
            self.calls.append(("apply", params["shards"]))
            if self.apply_raises:
                raise RuntimeError("re-carve hand-off failed")

        return ActionSet(
            quiesce=lambda params: (
                self.calls.append(("quiesce", params["shards"])),
                self.quiesce_ok,
            )[1],
            apply=apply,
            resume=lambda params: self.calls.append(("resume", params["shards"])),
            rollback=lambda params: self.calls.append(
                ("rollback", params["shards"])
            ),
        )


class TestShardResizeBridge:
    def test_committed_round_drives_quiesce_apply_resume(self, network):
        topo, coordinator, participants = network
        datapaths = {}
        for node, participant in participants.items():
            datapaths[node] = FakeResizableDatapath()
            participant.register("shard-resize", datapaths[node].resize_action_set())
        round_ = coordinator.start(
            "shard-resize", list(participants), {"shards": 6}, deadline=1.0
        )
        topo.engine.run()
        assert round_.status == "committed"
        for datapath in datapaths.values():
            assert datapath.calls == [
                ("quiesce", 6), ("apply", 6), ("resume", 6)
            ]

    def test_refused_target_aborts_and_rolls_back_the_rest(self, network):
        topo, coordinator, participants = network
        items = list(participants.items())
        datapaths = {}
        for node, participant in items[:-1]:
            datapaths[node] = FakeResizableDatapath()
            participant.register("shard-resize", datapaths[node].resize_action_set())
        refuser_name, refuser = items[-1]
        datapaths[refuser_name] = FakeResizableDatapath(quiesce_ok=False)
        refuser.register("shard-resize", datapaths[refuser_name].resize_action_set())
        round_ = coordinator.start(
            "shard-resize", list(participants), {"shards": 0}, deadline=1.0
        )
        topo.engine.run()
        assert round_.status == "aborted"
        # Prepared participants roll back before resuming; the refuser
        # never prepared, so the abort is a no-op for it.
        for node, _ in items[:-1]:
            assert datapaths[node].calls == [
                ("quiesce", 0), ("rollback", 0), ("resume", 0)
            ]
        assert datapaths[refuser_name].calls == [("quiesce", 0)]

    def test_apply_failure_rolls_back_locally(self, network):
        topo, coordinator, participants = network
        items = list(participants.items())
        datapaths = {}
        failing_name, failing = items[0]
        datapaths[failing_name] = FakeResizableDatapath(apply_raises=True)
        failing.register("shard-resize", datapaths[failing_name].resize_action_set())
        for node, participant in items[1:]:
            datapaths[node] = FakeResizableDatapath()
            participant.register("shard-resize", datapaths[node].resize_action_set())
        round_ = coordinator.start(
            "shard-resize", list(participants), {"shards": 4}, deadline=1.0
        )
        topo.engine.run()
        assert round_.status == "committed"
        assert datapaths[failing_name].calls == [
            ("quiesce", 4), ("apply", 4), ("rollback", 4), ("resume", 4)
        ]

    def test_resize_and_recovery_coexist_on_one_participant(self, network):
        # One datapath can register both kinds; the round's kind selects
        # the action set.
        topo, coordinator, participants = network

        class Both(FakeResizableDatapath, FakeRecoverableDatapath):
            def __init__(self):
                FakeResizableDatapath.__init__(self)
                FakeRecoverableDatapath.__init__(self)

        datapaths = {}
        for node, participant in participants.items():
            datapaths[node] = Both()
            participant.register(
                "shard-recovery", datapaths[node].recovery_action_set()
            )
            participant.register("shard-resize", datapaths[node].resize_action_set())
        first = coordinator.start(
            "shard-resize", list(participants), {"shards": 3}, deadline=1.0
        )
        topo.engine.run()
        second = coordinator.start(
            "shard-recovery", list(participants), {"shard": 1}, deadline=1.0
        )
        topo.engine.run()
        assert first.status == "committed"
        assert second.status == "committed"
        for datapath in datapaths.values():
            assert ("apply", 3) in datapath.calls
            assert ("apply", 1) in datapath.calls
