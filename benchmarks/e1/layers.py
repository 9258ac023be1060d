"""Isolated per-layer timing loops over public calls.

These put a unit price on layers the traced run only sees from outside:
one trace pushed up the ladder rung by rung (each rung's ns/frame *added*
over the one below), the same spine under each dispatch mode, the two
baselines on the NIC loop, and the per-frame primitives of the wire,
buffer and NIC layers.  Every loop value is the fastest of :data:`REPS`
timed passes after one warm pass: interference on a shared host only ever
adds time (see ``runner.quiet_quarter``), and a pass is too short to hold
a quiet stretch and a noisy one.
"""

from __future__ import annotations

from collections.abc import Callable
from time import perf_counter

from repro.baselines import ClickRouter, MonolithicRouter, standard_click_config
from repro.netsim import WirePacket, flow_hash_of
from repro.opencom import Capsule, fuse_pipeline
from repro.osbase import BufferPool, Nic, release_dropped
from repro.router import build_forwarding_pipeline

from benchmarks.e1.oracle import EgressSink
from benchmarks.e1.systems import BATCH, SPY, Box, Fleet, NicSpine, forwarder_vtable
from benchmarks.e1.tracing import NullTracer
from benchmarks.e1.traffic import BURST

REPS = 5


def best_seconds(body: Callable, *, prepare: Callable[[], object] | None = None) -> float:
    """Fastest wall seconds of *body* over REPS passes after a warm one.
    With *prepare*, each pass's input is built untimed and handed over."""
    times = []
    for _ in range(REPS + 1):
        args = () if prepare is None else (prepare(),)
        start = perf_counter()
        body(*args)
        times.append(perf_counter() - start)
    return min(times[1:])


def ns_per_frame(seconds: float, frames: int) -> float:
    return seconds * 1e9 / frames


def _chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


# -- the spine under each dispatch mode ---------------------------------------------


def _spine(routes: dict, *, fused: bool, compiled: bool = False):
    hops = sorted(set(routes.values()))
    start = perf_counter()
    pipeline = build_forwarding_pipeline(
        Capsule("e1-spine"),
        routes=routes,
        tx_nics={hop: Nic(tx_ring_size=4 * BATCH) for hop in hops},
    )
    built = perf_counter()
    plan = fuse_pipeline(list(pipeline.capsule.components().values())) if fused else None
    fused_at = perf_counter()
    if compiled:
        pipeline.compile(fusion_plan=plan)
    compiled_at = perf_counter()
    return pipeline, built - start, fused_at - built, compiled_at - fused_at


def _spine_pass(pipeline, frames: list[bytes]) -> float:
    """Seconds to forward *frames*, pre-ingested as wire packets (fresh
    each pass — forwarding decrements their TTL in place)."""
    sink = EgressSink()
    handler = sink.handler("spine")

    def body(batches: list[list]) -> None:
        for batch in batches:
            pipeline.push_batch(batch)
            pipeline.flush_tx(handler=handler)

    seconds = best_seconds(
        body, prepare=lambda: _chunks([WirePacket.ingest(f) for f in frames], BATCH)
    )
    if sink.total != (REPS + 1) * len(frames):
        raise AssertionError(f"spine forwarded {sink.total} of {(REPS + 1) * len(frames)}")
    return seconds


def dispatch_metrics(routes: dict, frames: list[bytes]) -> dict[str, tuple[float, str]]:
    n = len(frames)
    vtable, *vtable_s = _spine(routes, fused=False)
    fused, *fused_s = _spine(routes, fused=True)
    compiled, *compiled_s = _spine(routes, fused=True, compiled=True)
    build_s = min(vtable_s[0], fused_s[0], compiled_s[0])
    fuse_s = min(fused_s[1], compiled_s[1])
    compile_s = compiled_s[2]

    def revoke_recompile() -> None:
        slot = forwarder_vtable(compiled)
        slot.add_pre("push", SPY, lambda ctx: None)
        slot.remove_interceptor("push", SPY)
        compiled.compile()

    return {
        "opencom.vtable.spine_ns": (ns_per_frame(_spine_pass(vtable, frames), n), "ns"),
        "opencom.fusion.spine_ns": (ns_per_frame(_spine_pass(fused, frames), n), "ns"),
        "opencom.compile.spine_ns": (ns_per_frame(_spine_pass(compiled, frames), n), "ns"),
        "opencom.fusion.fuse_ms": (fuse_s * 1e3, "ms"),
        "opencom.compile.compile_ms": (compile_s * 1e3, "ms"),
        "opencom.compile.revoke_recompile_us": (best_seconds(revoke_recompile) * 1e6, "us"),
        "router.pipeline.build_ms": (build_s * 1e3, "ms"),
    }


# -- the ladder ---------------------------------------------------------------------


def _system_pass(build: Callable, routes: dict, frames: list[bytes]) -> tuple[float, float]:
    """(build seconds, seconds per pass) of one assembly over *frames*."""
    sink = EgressSink()
    start = perf_counter()
    system = build(routes, sink, NullTracer())
    build_s = perf_counter() - start
    bursts = _chunks(frames, BURST)

    def body() -> None:
        for burst in bursts:
            system.offer(burst)

    seconds = best_seconds(body)
    system.close()
    if sink.total != (REPS + 1) * len(frames):
        raise AssertionError(f"rung forwarded {sink.total} of {(REPS + 1) * len(frames)}")
    return build_s, seconds


def ladder_metrics(routes: dict, frames: list[bytes]) -> dict[str, tuple[float, str]]:
    """One trace up the ladder: fused spine, + pooled NIC RX/TX, + the
    sharded runtime at 1 shard, at 8 shards, + edge, link and capsule."""
    n = len(frames)
    spine, _, _, _ = _spine(routes, fused=True)
    rungs = [ns_per_frame(_spine_pass(spine, frames), n)]
    builds = []
    for build in (
        NicSpine,
        lambda r, s, t: Box(r, s, t, shards=1, other=1),
        lambda r, s, t: Box(r, s, t, shards=8, other=8),
        lambda r, s, t: Fleet(r, s, t, capsules=1, shards=1),
    ):
        build_s, seconds = _system_pass(build, routes, frames)
        builds.append(build_s)
        rungs.append(ns_per_frame(seconds, n))
    spine_ns, nic, shard1, shard8, fleet = rungs
    return {
        "ladder.spine_ns": (spine_ns, "ns"),
        "ladder.nic_added_ns": (nic - spine_ns, "ns"),
        "ladder.shard1_added_ns": (shard1 - nic, "ns"),
        "ladder.shard8_added_ns": (shard8 - shard1, "ns"),
        "ladder.fleet1x1_added_ns": (fleet - shard1, "ns"),
        "router.fleet.build_ms": (builds[-1] * 1e3, "ms"),
    }


# -- baselines on the NIC loop ------------------------------------------------------


def _baseline_kpps(router, forwarded: Callable[[], int], frames: list[bytes]) -> float:
    pool = BufferPool(2048, NicSpine.POOL_BUFFERS, exhaustion_policy="drop-newest")
    nic = Nic(rx_ring_size=BURST, pool=pool)
    bursts = _chunks(frames, BURST)

    def body() -> None:
        receive = nic.receive_frame
        for burst in bursts:
            for frame in burst:
                receive(frame)
            while nic.rx_depth:
                batch: list = []
                nic.drain_rx(batch.append, budget=BATCH)
                router.push_batch(batch)
                router.service(budget=BATCH)

    seconds = best_seconds(body)
    if forwarded() != (REPS + 1) * len(frames) or pool.in_flight:
        raise AssertionError("baseline lost frames or stranded buffers")
    return len(frames) / seconds / 1e3


def baseline_metrics(routes: dict, frames: list[bytes]) -> dict[str, tuple[float, str]]:
    """The paper's comparators on the ``nic-spine`` loop.  Nothing in the
    CF stack moves them, so they are the machine-drift control."""
    mono = MonolithicRouter(routes, queue_capacity=4 * BATCH, recycle_delivered=True)
    click = ClickRouter(
        standard_click_config(routes=routes, queue_capacity=4 * BATCH, recycle_sinks=True)
    )

    def click_forwarded() -> int:
        return sum(
            element.counters.get("rx", 0)
            for name, element in click.elements.items()
            if name.startswith("sink-")
        )

    return {
        "baselines.monolithic_kpps": (
            _baseline_kpps(mono, lambda: mono.counters["tx"], frames),
            "kframes/s",
        ),
        "baselines.click_kpps": (_baseline_kpps(click, click_forwarded, frames), "kframes/s"),
    }


# -- per-frame primitives -----------------------------------------------------------


def primitive_metrics(frames: list[bytes]) -> dict[str, tuple[float, str]]:
    """Unit prices of the wire, buffer and NIC layers on the workload's
    own valid frames (so IMIX sizes show where bytes are copied)."""
    n = len(frames)
    pool = BufferPool(2048, BURST, exhaustion_policy="drop-newest")
    rx = Nic(rx_ring_size=BURST, pool=pool)
    tx = Nic(tx_ring_size=BURST)

    def ingest() -> None:
        for frame in frames:
            WirePacket.ingest(frame, pool=pool).release()

    def flow_hash() -> None:
        for frame in frames:
            flow_hash_of(frame)

    def acquire_release() -> None:
        acquire, release = pool.acquire_into, pool.release
        for frame in frames:
            release(acquire(frame))

    def nic_rx() -> None:
        receive = rx.receive_frame
        for burst in _chunks(frames, BURST):
            for frame in burst:
                receive(frame)
            rx.drain_rx(release_dropped)

    def nic_tx(packets: list) -> None:
        transmit = tx.transmit
        for burst in _chunks(packets, BURST):
            for packet in burst:
                transmit(packet)
            tx.drain_tx()

    def loadgen() -> None:
        sink = _noop
        for burst in _chunks(frames, BURST):
            for frame in burst:
                sink(frame)

    metrics = {
        "netsim.wire.ingest_ns": best_seconds(ingest),
        "netsim.wire.flow_hash_ns": best_seconds(flow_hash),
        "osbase.buffers.acquire_release_ns": best_seconds(acquire_release),
        "osbase.nic.rx_ns": best_seconds(nic_rx),
        "osbase.nic.tx_ns": best_seconds(
            nic_tx, prepare=lambda: [WirePacket.ingest(f) for f in frames]
        ),
        "run.loadgen_ns_per_frame": best_seconds(loadgen),
    }
    if pool.in_flight:
        raise AssertionError(f"primitive loops stranded {pool.in_flight} buffers")
    return {name: (ns_per_frame(seconds, n), "ns") for name, seconds in metrics.items()}


def _noop(frame: bytes) -> None:
    return None
