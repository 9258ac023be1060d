"""Integration: network-wide coordinated hot swap.

The full stratum-4 story assembled: three nodes each run a Figure-3
composite; a coordinator runs the two-phase reconfiguration protocol whose
local action sets quiesce each node's composite (admission gate), hot-swap
its best-effort queue for a RED queue, and resume — the distributed
version of the C4 experiment.
"""

import pytest

from repro.coordination import (
    ReconfigCoordinator,
    ReconfigParticipant,
    attach_agents,
)
from repro.netsim import Topology, make_udp_v4
from repro.opencom import AdmissionGate
from repro.opencom.metamodel import ActionSet
from repro.router import FifoQueue, RedQueue, build_figure3_composite


@pytest.fixture
def deployed_network():
    topo = Topology.star(3, latency_s=0.001)
    agents = attach_agents(topo)
    coordinator = ReconfigCoordinator(agents["hub"])
    composites = {}
    participants = {}
    gates = {}
    for name in ("leaf0", "leaf1", "leaf2"):
        node = topo.node(name)
        composite, pipeline = build_figure3_composite(
            node.capsule, name="gw", queue_capacity=2048
        )
        composites[name] = (composite, pipeline)
        gate = AdmissionGate(name=f"gate-{name}")
        gate.attach_to(composite.member("protocol-recogniser").interface("in0"))
        gates[name] = gate
        participant = ReconfigParticipant(agents[name])

        def make_actions(composite=composite, gate=gate):
            def quiesce(params):
                gate.open = False
                return True

            def apply(params):
                composite.controller.replace_member(
                    "queue:best-effort",
                    lambda: RedQueue(int(params["capacity"])),
                )

            def resume(params):
                gate.open = True

            def rollback(params):
                pass

            return ActionSet(quiesce=quiesce, apply=apply, resume=resume, rollback=rollback)

        participant.register("queue-swap", make_actions())
        participants[name] = participant
    return topo, coordinator, composites, participants, gates


class TestNetworkWideSwap:
    def test_coordinated_swap_across_three_routers(self, deployed_network):
        topo, coordinator, composites, _, gates = deployed_network
        # Pre-load traffic on every node.
        for name, (composite, pipeline) in composites.items():
            for i in range(50):
                pipeline.push(make_udp_v4("10.0.0.1", "10.0.0.2", dport=80))
        round_ = coordinator.start(
            "queue-swap", list(composites), {"capacity": 512}
        )
        topo.engine.run()
        assert round_.status == "committed"
        for name, (composite, pipeline) in composites.items():
            queue = composite.member("queue:best-effort")
            assert isinstance(queue, RedQueue), name
            assert queue.capacity == 512
            assert queue.depth == 50  # backlog carried across the swap
            assert gates[name].open  # resumed
            # The node still forwards.
            pipeline.push(make_udp_v4("10.0.0.1", "10.0.0.2"))
            pipeline.drain()
            assert pipeline.stages["sink"].collected_count() == 51
            assert composite.host_capsule.architecture.check_consistency() == []

    def test_traffic_gated_during_quiesce(self, deployed_network):
        topo, coordinator, composites, participants, gates = deployed_network
        # Make leaf2 refuse so the round holds in 'prepared' on others
        # long enough to observe gating... instead, directly verify the
        # action-set semantics: quiesce closes the gate, abort reopens it.
        name = "leaf0"
        composite, pipeline = composites[name]
        participant = participants[name]
        actions = participant._actions["queue-swap"]
        assert actions.quiesce({}) is True
        assert not gates[name].open
        pipeline.push(make_udp_v4("10.0.0.1", "10.0.0.2"))
        assert gates[name].rejected >= 1  # packet refused while quiesced
        actions.resume({})
        assert gates[name].open

    def test_one_refusal_aborts_everywhere_and_resumes(self, deployed_network):
        topo, coordinator, composites, participants, gates = deployed_network
        # Replace leaf2's quiesce with a refusal.
        refusing = participants["leaf2"]
        original = refusing._actions.pop("queue-swap")

        def refuse(params):
            return False

        refusing.register(
            "queue-swap",
            ActionSet(
                quiesce=refuse,
                apply=original.apply,
                resume=original.resume,
                rollback=original.rollback,
            ),
        )
        round_ = coordinator.start("queue-swap", list(composites), {"capacity": 512})
        topo.engine.run()
        assert round_.status == "aborted"
        for name, (composite, _) in composites.items():
            queue = composite.member("queue:best-effort")
            assert isinstance(queue, FifoQueue), name  # nothing swapped
            assert gates[name].open  # everyone resumed
