"""The compiled hot path: region compilation, revocation-on-reflection,
mid-batch semantics, the fusion-plan satellites, and the sharding
decompile/recompile hooks.

The *equivalence* invariant (compiled chain is observationally identical
to interpreted, under randomised traces and reconfiguration schedules)
is gated by the Hypothesis differential suite in
``test_compile_differential.py``; this module pins the deterministic
behaviour around it.
"""

import pytest

from repro.netsim import make_udp_v4, make_udp_v6
from repro.opencom import (
    CallCounter,
    Capsule,
    CompileError,
    compile_push_chain,
    fuse_component,
    fuse_pipeline,
)
from repro.opencom.fusion import fusion_report
from repro.osbase import RoundRobinScheduler, ThreadManagerCF, VirtualClock, carve_shard_pools
from repro.osbase.memory import DATAPATH_LEDGER
from repro.router import (
    build_figure3_composite,
    build_forwarding_pipeline,
    build_sharded_forwarding_datapath,
)
from repro.router.components.meters import CollectorSink

from tests.conftest import Caller, Echoer

ROUTES = {"10.0.0.0/8": "east", "10.128.0.0/9": "west", "0.0.0.0/0": "north"}


def make_trace(count=48):
    """Mixed deterministic trace: forwarded, bad-checksum, expired, v6."""
    packets = []
    for i in range(count):
        if i % 11 == 3:
            packets.append(
                make_udp_v6("2001:db8::1", "2001:db8::2", dport=i)
            )
            continue
        ttl = 1 if i % 5 == 0 else 64
        packet = make_udp_v4("10.255.0.1", f"10.{i % 200}.0.9", dport=i, ttl=ttl)
        if i % 7 == 0:
            packet.net.checksum ^= 0x5555
        packets.append(packet)
    return packets


def egress(pipeline):
    """Byte-identity view of every sink's collected packets, per hop."""
    out = {}
    for name, sink in pipeline.stages.items():
        if not name.startswith("sink:"):
            continue
        out[name] = [
            (
                type(p.net).__name__,
                p.net.src,
                p.net.dst,
                getattr(p.net, "ttl", None),
                getattr(p.net, "hop_limit", None),
                getattr(p.net, "checksum", None),
                p.payload,
                dict(p.metadata),
            )
            for p in sink.packets
        ]
    return out


def build(capsule_name="dut", **kwargs):
    capsule = Capsule(capsule_name)
    pipeline = build_forwarding_pipeline(capsule, routes=ROUTES, **kwargs)
    return capsule, pipeline


class TestCompilePushChain:
    def test_equivalent_to_interpreted(self):
        _, interpreted = build("ref")
        _, compiled = build("dut", compiled=True)
        interpreted.push_batch(make_trace())
        compiled.push_batch(make_trace())
        assert egress(compiled) == egress(interpreted)
        assert compiled.stage_stats() == interpreted.stage_stats()

    def test_plan_shape(self):
        _, pipeline = build(compiled=True)
        plan = pipeline.compiled_plan
        assert plan.active and not plan.revoked
        assert plan.inlined_count >= 3
        assert plan.summary().startswith("compiled 'push' chain [active]")

    def test_compile_takes_no_mode_argument(self):
        # Closure composition is the one compile path: neither entry point
        # accepts a mode selector.
        _, pipeline = build()
        with pytest.raises(TypeError, match="mode"):
            compile_push_chain(pipeline.entry, mode="closure")
        with pytest.raises(TypeError, match="mode"):
            pipeline.compile(mode="closure")
        assert not pipeline.compiled_active

    def test_intercepted_region_refuses_to_compile(self):
        capsule, pipeline = build()
        CallCounter().attach_to(pipeline.stages["ipv4"].interface("in0"))
        with pytest.raises(CompileError, match="interceptors"):
            compile_push_chain(pipeline.entry)
        # The pipeline-level builder mirrors it, and strict=False degrades
        # to staying interpreted (the sharded rebuild form).
        with pytest.raises(CompileError):
            pipeline.compile()
        assert pipeline.compile(strict=False) is None
        assert not pipeline.compiled_active

    def test_interceptor_anywhere_in_region_revokes(self):
        _, pipeline = build(compiled=True)
        plan = pipeline.compiled_plan
        assert plan.active
        interceptor = CallCounter().attach_to(
            pipeline.stages["forwarder"].interface("in0")
        )
        assert plan.revoked
        assert not pipeline.compiled_active
        # Removal never re-arms: de-specialisation is one-way until the
        # owner recompiles.
        interceptor.detach()
        assert plan.revoked

    def test_revoked_handle_still_forwards(self):
        _, interpreted = build("ref")
        _, pipeline = build("dut", compiled=True)
        CallCounter().attach_to(pipeline.stages["ipv4"].interface("in0"))
        assert pipeline.compiled_plan.revoked
        interpreted.push_batch(make_trace())
        pipeline.push_batch(make_trace())
        assert egress(pipeline) == egress(interpreted)


class TestMidBatchRevocation:
    """Satellite: an interceptor installed *mid-batch* lets the in-flight
    batch finish on the specialised function; the next batch runs
    interpreted, per packet, through the interposed slot."""

    class TriggerSink(CollectorSink):
        """Sink that fires a callback on its first delivery."""

        def __init__(self):
            super().__init__()
            self.on_first_batch = None

        def push_batch(self, packets):
            super().push_batch(packets)
            callback, self.on_first_batch = self.on_first_batch, None
            if callback is not None:
                callback()

    def test_in_flight_batch_finishes_specialised(self):
        capsule = Capsule("dut")
        trigger = capsule.instantiate(self.TriggerSink, "trigger-east")
        pipeline = build_forwarding_pipeline(
            capsule, routes=ROUTES, next_hop_sinks={"east": trigger},
            compiled=True,
        )
        plan = pipeline.compiled_plan
        counter = CallCounter()
        trigger.on_first_batch = lambda: counter.attach_to(
            pipeline.stages["ipv4"].interface("in0")
        )
        # east is first-seen, so its group flushes (and installs the
        # interceptor, revoking the plan) before west's group delivers.
        batch1 = [
            make_udp_v4("10.255.0.1", "10.0.0.9", dport=1),
            make_udp_v4("10.255.0.1", "10.200.0.9", dport=2),
        ]
        pipeline.push_batch(batch1)
        assert plan.revoked and not pipeline.compiled_active
        # The in-flight batch completed on the specialised function: the
        # west packet was delivered by the same call, and the interceptor
        # (installed mid-flight) observed none of it.
        assert pipeline.stages["sink:west"].collected_count() == 1
        assert counter.total() == 0
        # The next batch dispatches interpreted: the intercepted ipv4
        # slot sees one call per packet.
        batch2 = [
            make_udp_v4("10.255.0.1", "10.0.0.9", dport=3),
            make_udp_v4("10.255.0.1", "10.1.0.9", dport=4),
            make_udp_v4("10.255.0.1", "10.200.0.9", dport=5),
        ]
        pipeline.push_batch(batch2)
        assert counter.total() == len(batch2)
        assert trigger.collected_count() == 3
        assert pipeline.stages["sink:west"].collected_count() == 2


class TestFigure3Spine:
    def test_figure3_spine_compiles(self):
        # The classifier's match loop inlines, so the whole Figure-3 spine
        # (recogniser → v4 → classifier) merges into one compiled chain.
        capsule = Capsule("gw")
        _, pipeline = build_figure3_composite(capsule)
        plan = pipeline.compile()
        assert plan.active and pipeline.compiled_active
        assert plan.summary().startswith("compiled 'push' chain [active]")
        # The compiled chain still classifies: one packet per class.
        pipeline.push_batch([make_udp_v4("10.0.0.1", "10.9.9.9", dport=7)])
        queued = sum(
            stage.depth
            for name, stage in pipeline.stages.items()
            if name.startswith("queue:")
        )
        assert queued == 1

    def test_compiled_spine_matches_interpreted_counters(self):
        # The whole Figure-3 spine (recogniser → v4/v6 → classifier →
        # queues) composes into one chain.  Equivalence on a v4 + v6 mix:
        # byte-path, queue depths and every counter dict (including which
        # keys exist) must match the interpreted composite exactly.
        compiled_caps, reference_caps = Capsule("gw"), Capsule("gw-ref")
        _, compiled_pipe = build_figure3_composite(compiled_caps)
        _, reference_pipe = build_figure3_composite(reference_caps)
        plan = compiled_pipe.compile()
        inlined = {stage.name for stage in plan.stages if stage.inlined}
        assert {
            "gateway.protocol-recogniser", "gateway.ipv4-processor",
            "gateway.classifier",
        } <= inlined

        def traffic():
            return [
                make_udp_v4("10.0.0.1", "10.9.9.9", dport=7),
                make_udp_v4("10.0.0.2", "10.9.9.9", dport=80),
                make_udp_v6("2001:db8::1", "2001:db8::9", dport=7),
            ]

        compiled_pipe.push_batch(traffic())
        reference_pipe.push_batch(traffic())
        for name, stage in compiled_pipe.stages.items():
            counters = getattr(stage, "counters", None)
            if counters is not None:
                assert counters == reference_pipe.stages[name].counters, name
        for name, stage in compiled_pipe.stages.items():
            if name.startswith("queue:"):
                assert stage.depth == reference_pipe.stages[name].depth


class TestPipelineCompileLifecycle:
    def test_decompile_is_idempotent_and_reversible(self):
        _, pipeline = build(compiled=True)
        first = pipeline.compiled_plan
        assert pipeline.compiled_active
        pipeline.decompile()
        assert pipeline.compiled_plan is None
        assert first.revoked
        pipeline.decompile()  # idempotent
        # Recompilation installs a fresh plan and the path still matches
        # the interpreted reference.
        second = pipeline.compile()
        assert second is not first and pipeline.compiled_active
        _, interpreted = build("ref")
        interpreted.push_batch(make_trace())
        pipeline.push_batch(make_trace())
        assert egress(pipeline) == egress(interpreted)

    def test_recompile_replaces_previous_plan(self):
        _, pipeline = build(compiled=True)
        first = pipeline.compiled_plan
        second = pipeline.compile()
        assert first.revoked and second.active
        assert pipeline.compiled_plan is second


class TestLedgerSavings:
    def test_arithmetic_kernel_skips_exactly_two_packs_per_forwarded(self):
        # Interpreted v4 processing packs the header twice per forwarded
        # materialised packet (checksum_ok + refresh after TTL aging);
        # the specialised exact-class kernel recomputes arithmetically
        # and packs never.  That is the *only* permitted ledger
        # divergence, and it is exact.
        n = 32
        trace = lambda: [
            make_udp_v4("10.255.0.1", f"10.{i}.0.9", dport=i) for i in range(n)
        ]
        _, interpreted = build("ref")
        _, compiled = build("dut", compiled=True)

        before = DATAPATH_LEDGER.snapshot()
        interpreted.push_batch(trace())
        interpreted_delta = DATAPATH_LEDGER.delta(before)

        before = DATAPATH_LEDGER.snapshot()
        compiled.push_batch(trace())
        compiled_delta = DATAPATH_LEDGER.delta(before)

        assert interpreted_delta["copies"] - compiled_delta["copies"] == 2 * n
        assert (
            interpreted_delta["copy_bytes"] - compiled_delta["copy_bytes"]
            == 2 * 20 * n
        )


class TestFusionPlanSatellites:
    def test_revert_clears_all_pass_bookkeeping(self, capsule):
        caller = capsule.instantiate(Caller, "caller")
        echoer = capsule.instantiate(Echoer, "echoer")
        capsule.bind(caller.receptacle("target"), echoer.interface("main"))
        CallCounter().attach_to(echoer.interface("main"))
        plan = fuse_component(caller)
        assert plan.skipped and plan._intercepted_cache and plan._seen_port_ids
        plan.revert()
        assert not plan.fused_ports
        assert not plan.skipped
        assert not plan._intercepted_cache
        assert not plan._seen_port_ids

    def test_port_reachable_twice_fuses_once(self, capsule):
        caller = capsule.instantiate(Caller, "caller")
        echoer = capsule.instantiate(Echoer, "echoer")
        capsule.bind(caller.receptacle("target"), echoer.interface("main"))
        plan = fuse_pipeline([caller, caller])
        assert plan.fused_count == 1
        plan.revert()
        assert not caller.receptacle("target").port("0").fused

    def test_summary_reports_compiled_fused_skipped_distinctly(self):
        capsule = Capsule("dut")
        pipeline = build_forwarding_pipeline(capsule, routes=ROUTES)
        # An intercepted side pair: fused nowhere, skipped loudly.
        caller = capsule.instantiate(Caller, "caller")
        echoer = capsule.instantiate(Echoer, "echoer")
        capsule.bind(caller.receptacle("target"), echoer.interface("main"))
        CallCounter().attach_to(echoer.interface("main"))

        plan = fuse_pipeline(list(capsule.components().values()))
        assert plan.fused_count > 0 and plan.skipped
        pipeline.compile(fusion_plan=plan)
        assert plan.compiled_count == 1

        summary = plan.summary()
        assert "compiled 1 chain(s)" in summary
        assert f"fused {plan.fused_count} port(s)" in summary
        assert "skipped" in summary
        report = fusion_report(plan)
        assert report["compiled"] == 1
        assert report["fused"] == plan.fused_count

    def test_fusion_revert_tears_down_compiled_chain(self):
        capsule = Capsule("dut")
        pipeline = build_forwarding_pipeline(capsule, routes=ROUTES)
        plan = fuse_pipeline(list(capsule.components().values()))
        compiled = pipeline.compile(fusion_plan=plan)
        assert compiled.active
        plan.revert()
        assert compiled.revoked
        assert plan.compiled_count == 0


def manager():
    return ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler())


class TestShardingHooks:
    """Reconfiguration rounds de-specialise the fleet and rebuild on
    commit/rollback (the per-shard decompile/recompile hooks)."""

    def _datapath(self, shards=2, *, buckets=8):
        pools = carve_shard_pools(256, 64 * shards, shards)
        return build_sharded_forwarding_datapath(
            routes=ROUTES,
            shards=shards,
            threads=manager(),
            pools=pools,
            batch=4,
            compiled=True,
            buckets=buckets,
        )

    def test_shards_come_up_compiled(self):
        datapath = self._datapath()
        for shard in datapath.shards:
            assert shard.engine.compiled_active
        datapath.shutdown()

    def test_resize_decompiles_then_recompiles_the_fleet(self):
        datapath = self._datapath(shards=2)
        old_plans = [s.engine.compiled_plan for s in datapath.shards]
        datapath.resize(3)
        for plan in old_plans:
            assert plan.revoked
        assert len(datapath.shards) == 3
        for shard in datapath.shards:
            assert shard.engine.compiled_active
            assert shard.engine.compiled_plan not in old_plans
        datapath.shutdown()

    def test_resize_rollback_recompiles(self):
        datapath = self._datapath(shards=2)
        actions = datapath.resize_action_set()
        params = {"shards": 1}
        assert actions.quiesce(params)
        for shard in datapath.shards:
            assert not shard.engine.compiled_active
        actions.rollback(params)
        actions.resume(params)
        for shard in datapath.shards:
            assert shard.engine.compiled_active
        datapath.shutdown()

    def test_recovery_leaves_dead_shard_decompiled(self):
        datapath = self._datapath(shards=2)
        datapath.recover_shard(0)
        assert not datapath.shards[0].engine.compiled_active
        assert datapath.shards[1].engine.compiled_active
        datapath.shutdown()

    def test_recovery_rollback_recompiles_dead_shard(self):
        datapath = self._datapath(shards=2)
        actions = datapath.recovery_action_set()
        params = {"shard": 0}
        assert actions.quiesce(params)
        assert not datapath.shards[0].engine.compiled_active
        actions.rollback(params)
        actions.resume(params)
        assert datapath.shards[0].engine.compiled_active
        datapath.shutdown()
