"""The sharded datapath runtime: steering-hash stability, the parallel
scheduler service loop, per-flow ordering under work-stealing, and the
per-shard pool lifecycle audit."""

import random
from collections import defaultdict
from struct import pack, unpack_from

import pytest

from repro.netsim import (
    Packet,
    flow_hash_fields,
    flow_hash_of,
    ipv4,
    make_tcp_v4,
    make_udp_v4,
    make_udp_v6,
    to_wire,
    wire_flow_key,
)
from repro.netsim.packet import FLOW_HASH_MEMO_SIZE, PROTO_ICMP, PacketError
from repro.osbase import (
    Nic,
    PumpExhausted,
    RoundRobinScheduler,
    RssSteering,
    Shard,
    ShardedDatapath,
    ShardingError,
    ThreadManagerCF,
    VirtualClock,
    carve_shard_pools,
    release_dropped,
    shard_pool_audit,
)
from repro.opencom.errors import ResourceError
from repro.router import build_sharded_forwarding_datapath


def manager():
    return ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler())


def uncached_flow_hash(version, src, dst, sport, dport, proto):
    """The steering hash written out from its definition, with no memo:
    FNV-1a over the five-tuple's big-endian bytes (addresses at native
    width), then the murmur3 64-bit finaliser."""
    mask = (1 << 64) - 1
    width = 16 if version == 6 else 4
    data = (
        version.to_bytes(1, "big")
        + src.to_bytes(width, "big")
        + dst.to_bytes(width, "big")
        + sport.to_bytes(2, "big")
        + dport.to_bytes(2, "big")
        + proto.to_bytes(1, "big")
    )
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & mask
    for multiplier in (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53):
        h ^= h >> 33
        h = (h * multiplier) & mask
    return h ^ (h >> 33)


class TestFlowHash:
    """The steering hash must not depend on a packet's representation —
    otherwise one flow would steer to different shards as it moved
    between raw bytes, materialised and wire form."""

    @pytest.mark.parametrize(
        "packet",
        [
            make_udp_v4("10.1.2.3", "10.9.9.9", sport=1234, dport=80),
            make_tcp_v4("10.1.2.3", "10.9.9.9", sport=555, dport=443),
            make_udp_v6("2001:db8::1", "2001:db8::2", sport=7, dport=9),
        ],
        ids=["udp4", "tcp4", "udp6"],
    )
    def test_stable_across_representations(self, packet):
        raw = packet.to_bytes()
        values = {
            packet.flow_hash(),
            to_wire(packet).flow_hash(),
            flow_hash_of(packet),
            flow_hash_of(to_wire(packet)),
            flow_hash_of(raw),
            flow_hash_of(bytearray(raw)),
            flow_hash_of(memoryview(raw)),
        }
        assert len(values) == 1

    @pytest.mark.parametrize(
        "packet",
        [
            make_udp_v4("192.168.1.9", "10.0.0.7", sport=9999, dport=53),
            make_tcp_v4("10.1.2.3", "10.9.9.9", sport=555, dport=443),
            make_udp_v6("2001:db8::a", "2001:db8::b", sport=70, dport=90),
        ],
        ids=["udp4", "tcp4", "udp6"],
    )
    def test_wire_flow_key_agrees_with_flow_key(self, packet):
        # The raw-bytes five-tuple reader must agree with both packet
        # classes' flow_key() — the seam a future parser change (new
        # transport, header options) has to keep in sync.
        assert wire_flow_key(packet.to_bytes()) == packet.flow_key()
        assert wire_flow_key(packet.to_bytes()) == to_wire(packet).flow_key()

    def test_stable_across_runs(self):
        # No salted hash() anywhere: the value is a pure function of the
        # five-tuple, pinned here so a steering change cannot slip in as
        # an implementation detail.
        assert flow_hash_fields(4, 1, 2, 3, 4, 17) == 0xBFCB2FA6B8563FCF

    def test_memo_agrees_with_uncached_fnv(self):
        # The memo must be invisible: every value equals the per-byte
        # FNV-1a + finaliser computed from scratch, on v4 and v6 tuples
        # (128-bit addresses included).
        rng = random.Random(20030616)
        for i in range(10_000):
            version = 6 if i % 2 else 4
            bits = 128 if version == 6 else 32
            fields = (
                version,
                rng.getrandbits(bits),
                rng.getrandbits(bits),
                rng.getrandbits(16),
                rng.getrandbits(16),
                rng.choice((6, 17, rng.getrandbits(8))),
            )
            assert flow_hash_fields(*fields) == uncached_flow_hash(*fields), fields

    def test_batch_pays_one_miss_per_flow(self):
        flows = [(f"10.11.{i}.1", 5000 + i) for i in range(12)]
        frames = [seq_frame(flow, seq) for seq in range(10) for flow in flows]
        pools = carve_shard_pools(256, 320, 2, exhaustion_policy="drop-newest")
        datapath = build(2, pools, Recorder())
        flow_hash_fields.cache_clear()
        assert datapath.steer_batch(frames) == len(frames)
        info = flow_hash_fields.cache_info()
        assert info.misses == len(flows)
        assert info.hits == len(frames) - len(flows)
        datapath.pump()
        datapath.shutdown()

    def test_memo_bound_is_the_documented_constant(self):
        assert FLOW_HASH_MEMO_SIZE == 1 << 14
        assert flow_hash_fields.cache_info().maxsize == FLOW_HASH_MEMO_SIZE

    def test_transportless_packet_hashes_with_zero_ports(self):
        icmp = Packet(
            make_udp_v4("10.0.0.1", "10.0.0.2").net, None, b""
        )
        icmp.net.protocol = PROTO_ICMP
        assert flow_hash_of(icmp.to_bytes()) == flow_hash_of(icmp)

    def test_low_bits_avalanche(self):
        # RSS takes hash % shards with power-of-two shard counts; plain
        # FNV-1a's low bit is the XOR of input low bits, which collapses
        # traces whose per-flow low bits cancel.  The finaliser must
        # spread this worst-case family over both halves.
        buckets = {
            make_udp_v4(
                f"10.0.0.{1 + (i % 200)}", "10.9.9.9", sport=1000 + i
            ).flow_hash()
            % 2
            for i in range(64)
        }
        assert buckets == {0, 1}

    def test_malformed_frames_rejected(self):
        with pytest.raises(PacketError):
            flow_hash_of(b"")
        with pytest.raises(PacketError):
            flow_hash_of(b"\x45" + b"\x00" * 10)  # truncated v4 header
        with pytest.raises(PacketError):
            flow_hash_of(b"\x15" + b"\x00" * 40)  # version 1
        # Same strictness as WirePacket parsing: a truncated UDP/TCP
        # header must fail at the hash (steering) step, not after the
        # frame has already been steered to a shard NIC.
        truncated_udp = make_udp_v4("10.0.0.1", "10.0.0.2").to_bytes()[:24]
        with pytest.raises(PacketError):
            flow_hash_of(truncated_udp)


class TestStepParallel:
    def test_runs_up_to_cores_distinct_threads_per_quantum(self):
        threads = manager()
        log = []

        def body(label):
            for _ in range(4):
                log.append(label)
                yield

        for label in ("a", "b", "c"):
            threads.spawn(label, body(label))
        ran = threads.step_parallel(2)
        assert len(ran) == 2
        assert len({t.thread_id for t in ran}) == 2
        # One overlapping quantum: the clock advanced once, not twice.
        assert threads.clock.now == pytest.approx(threads.quantum)
        assert len(log) == 2

    def test_single_core_matches_serial_step_semantics(self):
        parallel, serial = manager(), manager()
        order_p, order_s = [], []

        def body(log, label):
            for _ in range(3):
                log.append(label)
                yield

        for label in ("x", "y"):
            parallel.spawn(label, body(order_p, label))
            serial.spawn(label, body(order_s, label))
        while parallel.step_parallel(1):
            pass
        while serial.step() is not None:
            pass
        assert order_p == order_s

    def test_sleep_wake_time_matches_serial_step(self):
        # A `yield d` must resume at the same virtual time under either
        # service loop: entry time + quantum + d (the yield is handled
        # after the quantum's clock advance in both).
        wakes = {}
        for mode in ("serial", "parallel"):
            threads = manager()

            def body():
                yield 1.0

            thread = threads.spawn("s", body())
            if mode == "serial":
                threads.step()
            else:
                threads.step_parallel(2)
            wakes[mode] = thread.wake_time
        assert wakes["serial"] == wakes["parallel"]

    def test_wakes_sleepers_and_rejects_bad_core_count(self):
        threads = manager()

        def sleeper():
            yield 1.0

        threads.spawn("s", sleeper())
        threads.step_parallel(4)  # runs, then sleeps
        assert threads.step_parallel(4)  # clock jumps to the wake time
        from repro.opencom.errors import RuleViolation

        with pytest.raises(RuleViolation):
            threads.step_parallel(0)

    def test_run_parallel_until_idle_drains_finite_bodies(self):
        threads = manager()
        done = []

        def body(i):
            for _ in range(i):
                yield
            done.append(i)

        for i in (1, 2, 3):
            threads.spawn(f"t{i}", body(i))
        steps = threads.run_parallel_until_idle(3)
        assert sorted(done) == [1, 2, 3]
        # Overlap: the longest body needed 4 quanta (3 yields + final
        # resume), so far fewer steps than total quanta executed.
        assert steps <= 5


class TestPoolCarving:
    def test_splits_budget_with_remainder_up_front(self):
        pools = carve_shard_pools(64, 10, 3)
        assert [p.count for p in pools] == [4, 3, 3]
        assert sum(p.count for p in pools) == 10

    def test_rejects_bad_shapes(self):
        with pytest.raises(ResourceError):
            carve_shard_pools(64, 10, 0)
        with pytest.raises(ResourceError):
            carve_shard_pools(64, 2, 3)

    def test_audit_reports_imbalance(self):
        pools = carve_shard_pools(64, 4, 2)
        buffer = pools[0].acquire(16)
        audit = shard_pool_audit(pools)
        assert not audit["balanced"]
        assert audit["in_flight"] == 1
        pools[0].release(buffer)
        audit = shard_pool_audit(pools)
        assert audit["balanced"]
        assert audit["acquired_total"] == audit["released_total"] == 1


def seq_frame(flow, seq, *, dport=80):
    src, sport = flow
    return make_udp_v4(
        src, "10.9.9.9", sport=sport, dport=dport, payload=pack("!I", seq)
    ).to_bytes()


class Recorder:
    """TX-handler factory: logs (flow, seq) per shard, releases the
    frame (the handler owns everything drained to it)."""

    def __init__(self):
        self.logs = defaultdict(list)

    def handler(self, shard_index):
        def on_frame(frame):
            self.logs[shard_index].append(
                (frame.flow_key(), unpack_from("!I", frame.payload, 0)[0])
            )
            release_dropped(frame)

        return on_frame


ROUTES = {"10.0.0.0/8": "east", "0.0.0.0/0": "west"}


def build(shards, pools, recorder, *, steal_watermark=None, supervise=True):
    return build_sharded_forwarding_datapath(
        routes=ROUTES,
        shards=shards,
        threads=manager(),
        pools=pools,
        batch=4,
        rx_ring_size=1024,
        tx_handler=recorder.handler,
        steal_watermark=steal_watermark,
        supervise=supervise,
    )


class TestShardedDatapath:
    def test_steering_pins_flows_to_shards(self):
        flows = [(f"10.7.{i}.1", 2000 + 13 * i) for i in range(16)]
        recorder = Recorder()
        pools = carve_shard_pools(256, 320, 4, exhaustion_policy="drop-newest")
        datapath = build(4, pools, recorder)
        frames = [seq_frame(flow, seq) for seq in range(5) for flow in flows]
        expected = {
            flow: flow_hash_of(seq_frame(flow, 0)) % 4 for flow in flows
        }
        assert datapath.steer_batch(frames) == len(frames)
        datapath.pump()
        seen = {}
        for shard_index, entries in recorder.logs.items():
            for flow_key, _seq in entries:
                assert seen.setdefault(flow_key, shard_index) == shard_index
        # Each flow egressed from exactly the shard its hash names.
        by_port = {sport: shard for (_, _, _, sport, _, _), shard in seen.items()}
        for flow, shard in expected.items():
            assert by_port[flow[1]] == shard
        assert shard_pool_audit(pools)["balanced"]
        datapath.shutdown()

    def test_per_flow_ordering_under_forced_stealing(self):
        shards = 3
        pools = carve_shard_pools(256, 240, shards, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(shards, pools, recorder, steal_watermark=4)
        # Rejection-sample flows that all steer to shard 0: maximum
        # imbalance, so the supervisor must put both other workers on
        # shard 0's backlog.
        flows, sport = [], 1024
        while len(flows) < 6:
            sport += 1
            if flow_hash_of(seq_frame(("10.1.1.1", sport), 0)) % shards == 0:
                flows.append(("10.1.1.1", sport))
        per_flow = 12
        frames = [
            seq_frame(flow, seq) for seq in range(per_flow) for flow in flows
        ]
        datapath.steer_batch(frames)
        datapath.pump()
        stats = datapath.stats()
        assert stats["shards"][0]["ceded_batches"] > 0
        assert stats["rebalances"] > 0
        assert sum(s["stolen_batches"] for s in stats["shards"]) == (
            stats["shards"][0]["ceded_batches"]
        )
        # Stolen batches still ran through shard 0's engine, in backlog
        # order: ordering holds and only shard 0 egressed anything.
        assert set(recorder.logs) == {0}
        observed = defaultdict(list)
        for flow_key, seq in recorder.logs[0]:
            observed[flow_key].append(seq)
        assert len(observed) == len(flows)
        for seqs in observed.values():
            assert seqs == list(range(per_flow))
        # Lifecycle per shard and in aggregate, under stealing: only
        # shard 0's slice was touched, and it balances exactly.
        assert pools[0].acquired_total == pools[0].released_total == len(frames)
        assert pools[1].acquired_total == pools[2].acquired_total == 0
        assert shard_pool_audit(pools)["balanced"]
        datapath.shutdown()

    def test_pool_exhaustion_stays_shard_local(self):
        # Shard 0's slice is tiny; overflowing it must drop (and count)
        # on shard 0 without touching the peer slice.
        pools = carve_shard_pools(256, 4, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(2, pools, recorder, supervise=False)
        flow, sport = None, 0
        while flow is None:
            sport += 1
            if flow_hash_of(seq_frame(("10.2.2.2", sport), 0)) % 2 == 0:
                flow = ("10.2.2.2", sport)
        frames = [seq_frame(flow, seq) for seq in range(5)]
        accepted = datapath.steer_batch(frames)
        assert accepted == 2  # slice of 2 buffers, no drain in between
        assert datapath.steering.refused[0] == 3
        nic0 = datapath.shards[0].nic
        assert nic0.counters["pool_exhausted_drops"] == 3
        datapath.pump()
        assert pools[0].acquired_total == pools[0].released_total == 2
        assert pools[1].acquired_total == 0
        datapath.shutdown()

    def test_malformed_frame_mid_batch_is_counted_not_raised(self):
        # A garbage frame in an arriving batch must not abort the batch:
        # it is counted as a malformed refusal (the steering analogue of
        # the NIC's malformed-drop policy) and the rest still steers.
        pools = carve_shard_pools(256, 32, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(2, pools, recorder)
        flow = ("10.6.6.6", 31)
        frames = [seq_frame(flow, 0), b"\x00\x01", seq_frame(flow, 1)]
        assert datapath.steer_batch(frames) == 2
        assert datapath.steering.malformed == 1
        assert datapath.stats()["steer_malformed"] == 1
        datapath.pump()
        assert sum(len(v) for v in recorder.logs.values()) == 2
        assert shard_pool_audit(pools)["balanced"]
        datapath.shutdown()

    def test_explicit_steal_watermark_requires_the_supervisor(self):
        pools = carve_shard_pools(256, 8, 1, exhaustion_policy="drop-newest")
        recorder = Recorder()
        with pytest.raises(ShardingError, match="supervisor"):
            build(1, pools, recorder, steal_watermark=4, supervise=False)

    @pytest.mark.allow_pool_leak
    def test_malformed_frame_at_pooled_ingress_drops_without_leaking(self):
        # A truncated-but-under-MTU frame must be a counted drop at the
        # NIC, with the acquired pool buffer handed straight back — not
        # a PacketError unwinding mid-datapath with the buffer stranded.
        pools = carve_shard_pools(256, 4, 1, exhaustion_policy="drop-newest")
        nic = Nic(pool=pools[0])
        for _ in range(6):  # more attempts than the pool has buffers
            assert nic.receive_frame(b"\x45" + b"\x00" * 10) is False
        assert nic.counters["malformed_drops"] == 6
        assert nic.counters["rx_drops"] == 6
        assert pools[0].in_flight == 0
        # Legitimate traffic still flows afterwards.
        good = make_udp_v4("10.0.0.1", "10.0.0.2").to_bytes()
        assert nic.receive_frame(good) is True
        assert pools[0].in_flight == 1

    @pytest.mark.allow_pool_leak
    def test_pump_fails_fast_when_every_worker_is_dead(self):
        pools = carve_shard_pools(256, 16, 1, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(1, pools, recorder)  # supervisor installed
        boom = RuntimeError("engine down")
        datapath.shards[0]._push_batch = lambda batch: (_ for _ in ()).throw(boom)
        datapath.steer_batch([seq_frame(("10.5.5.5", 70), s) for s in range(6)])
        # The worker's first quantum crashes its body; pump must notice
        # the dead fleet instead of spinning supervisor-only quanta.
        with pytest.warns(PumpExhausted, match="no live workers"):
            steps = datapath.pump(max_steps=10_000)
        assert steps < 10
        assert datapath._workers[0].error is boom

    def test_dead_worker_failover_drains_through_peers(self):
        # A crashed worker's backlog is still reachable: the supervisor
        # treats it as maximal divergence and directs the live workers
        # at it, so the frames drain through the owning shard's engine
        # with ordering and pool balance intact.
        shards = 2
        pools = carve_shard_pools(256, 64, shards, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(shards, pools, recorder)
        flows, sport = [], 2048
        while len(flows) < 3:
            sport += 1
            if flow_hash_of(seq_frame(("10.8.8.8", sport), 0)) % shards == 0:
                flows.append(("10.8.8.8", sport))
        frames = [seq_frame(flow, seq) for seq in range(8) for flow in flows]
        datapath._workers[0].state = "done"  # simulate a crashed body
        datapath.steer_batch(frames)
        datapath.pump()
        assert datapath.total_backlog() == 0
        stats = datapath.stats()
        assert stats["shards"][1]["stolen_batches"] > 0
        assert stats["shards"][0]["processed_packets"] == len(frames)
        assert set(recorder.logs) == {0}
        observed = defaultdict(list)
        for flow_key, seq in recorder.logs[0]:
            observed[flow_key].append(seq)
        for seqs in observed.values():
            assert seqs == list(range(8))
        assert shard_pool_audit(pools)["balanced"]
        datapath.shutdown()

    @pytest.mark.allow_pool_leak
    def test_unsupervised_dead_worker_fails_fast_not_to_max_steps(self):
        shards = 2
        pools = carve_shard_pools(256, 64, shards, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(shards, pools, recorder, supervise=False)
        flow, sport = None, 4096
        while flow is None:
            sport += 1
            if flow_hash_of(seq_frame(("10.9.0.9", sport), 0)) % shards == 0:
                flow = ("10.9.0.9", sport)
        datapath._workers[0].state = "done"
        datapath.steer_batch([seq_frame(flow, seq) for seq in range(6)])
        with pytest.warns(PumpExhausted, match="no progress"):
            steps = datapath.pump(max_steps=10_000)
        assert steps < 10
        assert datapath.total_backlog() == 6  # unreachable, reported not hidden
        datapath.shutdown()

    @pytest.mark.allow_pool_leak
    def test_shut_down_datapath_refuses_new_work(self):
        pools = carve_shard_pools(256, 16, 1, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(1, pools, recorder)
        frames = [seq_frame(("10.9.9.1", 50), s) for s in range(4)]
        datapath.steer_batch(frames)
        datapath.shutdown()  # backlog intentionally left in place
        with pytest.raises(ShardingError, match="shut down"):
            datapath.steer_batch(frames)
        with pytest.warns(PumpExhausted, match="shut-down"):
            assert datapath.pump() == 0

    def test_pump_warns_when_step_limit_hit(self):
        pools = carve_shard_pools(256, 8, 1, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(1, pools, recorder)
        datapath.steer_batch([seq_frame(("10.3.3.3", 40), s) for s in range(8)])
        with pytest.warns(PumpExhausted):
            datapath.pump(max_steps=0)
        datapath.pump()  # finishes the drain cleanly
        assert shard_pool_audit(pools)["balanced"]
        datapath.shutdown()

    def test_shutdown_retires_all_runtime_threads(self):
        pools = carve_shard_pools(256, 8, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        threads = manager()
        datapath = build_sharded_forwarding_datapath(
            routes=ROUTES,
            shards=2,
            threads=threads,
            pools=pools,
            batch=4,
            tx_handler=recorder.handler,
        )
        assert threads.alive_count() == 3  # two workers + supervisor
        datapath.shutdown()
        assert threads.alive_count() == 0

    def test_construction_validation(self):
        recorder = Recorder()
        with pytest.raises(ShardingError):
            build_sharded_forwarding_datapath(
                routes=ROUTES, shards=0, threads=manager()
            )
        with pytest.raises(ShardingError):
            build_sharded_forwarding_datapath(
                routes=ROUTES,
                shards=2,
                threads=manager(),
                pools=carve_shard_pools(256, 8, 3),
            )
        with pytest.raises(ShardingError):
            RssSteering([], hash_fn=flow_hash_of)
        pools = carve_shard_pools(256, 8, 1)
        nic = Nic(pool=pools[0])
        shard = Shard(
            0, nic=nic, pool=pools[0], push_batch=lambda b: None, flush=lambda: None
        )
        with pytest.raises(ShardingError):
            ShardedDatapath([shard], threads=manager(), hash_fn=flow_hash_of, batch=0)
        with pytest.raises(ShardingError):
            ShardedDatapath(
                [shard], threads=manager(), hash_fn=flow_hash_of, steal_watermark=0
            )
        with pytest.raises(ShardingError):
            ShardedDatapath([], threads=manager(), hash_fn=flow_hash_of)
        assert recorder.logs == {}


def flows_on_shard(target, shards, *, count, src="10.4.4.4", start=6000):
    """Rejection-sample flows whose hash bucket is *target*."""
    flows, sport = [], start
    while len(flows) < count:
        sport += 1
        if flow_hash_of(seq_frame((src, sport), 0)) % shards == target:
            flows.append((src, sport))
    return flows


class TestShardRecovery:
    def test_injected_crash_raises_workerkilled_contained(self):
        from repro.osbase import WorkerKilled

        shards = 2
        pools = carve_shard_pools(256, 64, shards, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(shards, pools, recorder)
        flows = flows_on_shard(0, shards, count=3)
        frames = [seq_frame(flow, seq) for seq in range(8) for flow in flows]
        datapath.inject_worker_crash(0)
        datapath.steer_batch(frames)
        datapath.pump()
        # The poison raised inside the worker body and was contained
        # per-thread; failover stealing drained the orphaned backlog.
        worker = datapath._workers[0]
        assert worker.done
        assert isinstance(worker.error, WorkerKilled)
        assert datapath.stats()["dead_workers"] == [0]
        assert datapath.total_backlog() == 0
        observed = defaultdict(list)
        for flow_key, seq in recorder.logs[0]:
            observed[flow_key].append(seq)
        for seqs in observed.values():
            assert seqs == list(range(8))
        assert shard_pool_audit(pools)["balanced"]
        datapath.shutdown()

    def test_crash_injection_validation(self):
        pools = carve_shard_pools(256, 16, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(2, pools, recorder)
        with pytest.raises(ShardingError, match="no shard"):
            datapath.inject_worker_crash(7)
        datapath._workers[0].state = "done"
        with pytest.raises(ShardingError, match="already dead"):
            datapath.inject_worker_crash(0)
        datapath.shutdown()

    def test_recover_shard_drains_then_redirects(self):
        shards = 2
        pools = carve_shard_pools(256, 64, shards, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(shards, pools, recorder)
        flows = flows_on_shard(0, shards, count=3)
        backlog = [seq_frame(flow, seq) for seq in range(8) for flow in flows]
        datapath.steer_batch(backlog)
        record = datapath.recover_shard(0)
        # Drain-before-rehash: the full backlog went through shard 0's
        # own engine before the redirect was installed...
        assert record["shard"] == 0 and record["to"] == 1
        assert record["drained"] == len(backlog)
        assert record["pool_balanced"]
        assert datapath.stats()["redirects"] == {0: 1}
        assert datapath.recoveries == [record]
        # ...so the drained half egressed from shard 0, and traffic
        # arriving after recovery egresses from the successor.
        moved = [seq_frame(flow, seq) for seq in range(8, 12) for flow in flows]
        datapath.steer_batch(moved)
        datapath.pump()
        observed = defaultdict(list)
        for shard_index in (0, 1):
            for flow_key, seq in recorder.logs[shard_index]:
                observed[flow_key].append(seq)
        assert len(observed) == len(flows)
        for seqs in observed.values():
            assert seqs == list(range(12))  # FIFO across the failover
        assert shard_pool_audit(pools)["balanced"]
        assert datapath.parked_count() == 0
        datapath.shutdown()

    def test_quiesce_parks_arrivals_and_rollback_unparks(self):
        shards = 2
        pools = carve_shard_pools(256, 64, shards, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(shards, pools, recorder)
        actions = datapath.recovery_action_set()
        params = {"shard": 0}
        assert actions.quiesce(params) is True
        flows = flows_on_shard(0, shards, count=2)
        frames = [seq_frame(flow, seq) for seq in range(4) for flow in flows]
        datapath.steer_batch(frames)
        # Parked frames are raw (no pool buffer yet): not on any ring.
        assert datapath.total_backlog() == 0
        assert datapath.parked_count() == len(frames)
        assert pools[0].in_flight == 0
        actions.rollback(params)
        # Unparked back onto the dead shard's own ring, order intact.
        assert datapath.parked_count() == 0
        assert datapath.total_backlog() == len(frames)
        datapath.pump()
        observed = defaultdict(list)
        for flow_key, seq in recorder.logs[0]:
            observed[flow_key].append(seq)
        for seqs in observed.values():
            assert seqs == list(range(4))
        assert shard_pool_audit(pools)["balanced"]
        datapath.shutdown()

    def test_commit_flushes_parked_frames_to_the_successor(self):
        shards = 2
        pools = carve_shard_pools(256, 64, shards, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(shards, pools, recorder)
        actions = datapath.recovery_action_set()
        params = {"shard": 0}
        assert actions.quiesce(params) is True
        flows = flows_on_shard(0, shards, count=2)
        frames = [seq_frame(flow, seq) for seq in range(4) for flow in flows]
        datapath.steer_batch(frames)
        actions.apply(params)
        actions.resume(params)
        record = datapath.recoveries[-1]
        assert record["parked_flushed"] == len(frames)
        assert record["parked_refused"] == 0
        datapath.pump()
        # Everything parked during the prepare window egressed from the
        # successor, in arrival order.
        assert set(recorder.logs) == {1}
        observed = defaultdict(list)
        for flow_key, seq in recorder.logs[1]:
            observed[flow_key].append(seq)
        for seqs in observed.values():
            assert seqs == list(range(4))
        assert shard_pool_audit(pools)["balanced"]
        datapath.shutdown()

    def test_commit_counts_raise_policy_refusals_instead_of_losing_frames(self):
        # The successor's raise-policy pool runs dry four frames into the
        # flush.  The commit must still succeed, and every parked frame
        # must end up either flushed or counted as refused — none lost.
        shards = 2
        pools = carve_shard_pools(256, 8, shards, exhaustion_policy="raise")
        recorder = Recorder()
        datapath = build(shards, pools, recorder)
        actions = datapath.recovery_action_set()
        params = {"shard": 0}
        assert actions.quiesce(params) is True
        flows = flows_on_shard(0, shards, count=4)
        frames = [seq_frame(flow, seq) for seq in range(4) for flow in flows]
        datapath.steer_batch(frames)
        assert datapath.parked_count() == 16
        actions.commit(params)
        record = datapath.recoveries[-1]
        assert record["parked_flushed"] + record["parked_refused"] == 16
        assert record["parked_flushed"] == pools[1].count
        assert datapath.parked_count() == 0
        datapath.pump()
        assert sum(len(log) for log in recorder.logs.values()) == record[
            "parked_flushed"
        ]
        assert shard_pool_audit(pools)["balanced"]
        datapath.shutdown()

    def test_quiesce_refusals(self):
        pools = carve_shard_pools(256, 32, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(2, pools, recorder)
        actions = datapath.recovery_action_set()
        assert actions.quiesce({"shard": "x"}) is False
        assert actions.quiesce({"shard": -1}) is False
        assert actions.quiesce({"shard": 9}) is False
        assert actions.quiesce({"shard": 0, "to": 0}) is False  # self
        assert actions.quiesce({"shard": 0, "to": 5}) is False  # range
        # A bool is not an index, though True == 1 (remote input).
        assert actions.quiesce({"shard": True}) is False
        assert actions.quiesce({"shard": 0, "to": True}) is False
        assert datapath.parked_count() == 0 and not datapath.round_open
        assert actions.quiesce({"shard": 0}) is True
        assert actions.quiesce({"shard": 0}) is False  # already recovering
        assert actions.quiesce({"shard": 1}) is False  # successor busy
        actions.rollback({"shard": 0})
        datapath.shutdown()

        # A dead successor and a successor-less datapath also refuse.
        pools = carve_shard_pools(256, 32, 2, exhaustion_policy="drop-newest")
        datapath = build(2, pools, recorder)
        datapath._workers[1].state = "done"
        actions = datapath.recovery_action_set()
        assert actions.quiesce({"shard": 0, "to": 1}) is False
        assert actions.quiesce({"shard": 0}) is False  # nobody left
        with pytest.raises(ShardingError, match="refused"):
            datapath.recover_shard(0)
        datapath.shutdown()

    def test_apply_without_quiesce_raises(self):
        pools = carve_shard_pools(256, 16, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(2, pools, recorder)
        actions = datapath.recovery_action_set()
        with pytest.raises(ShardingError, match="without quiesce"):
            actions.apply({"shard": 0})
        # Resume/rollback without a pending recovery are safe no-ops.
        actions.resume({"shard": 0})
        actions.rollback({"shard": 0})
        datapath.shutdown()

    def test_cascaded_failures_chain_redirects(self):
        shards = 3
        pools = carve_shard_pools(256, 96, shards, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(shards, pools, recorder)
        first = datapath.recover_shard(0, to=1)
        second = datapath.recover_shard(1)
        assert first["to"] == 1
        assert second["to"] == 2  # the only live worker left
        assert datapath.stats()["redirects"] == {0: 1, 1: 2}
        # A shard-0 flow resolves the chain 0 -> 1 -> 2 transitively.
        flow = flows_on_shard(0, shards, count=1)[0]
        frames = [seq_frame(flow, seq) for seq in range(4)]
        datapath.steer_batch(frames)
        datapath.pump()
        assert set(recorder.logs) == {2}
        assert [seq for _, seq in recorder.logs[2]] == list(range(4))
        assert shard_pool_audit(pools)["balanced"]
        datapath.shutdown()

    def test_supervisor_recovery_driver_fires_once_per_dead_worker(self):
        shards = 2
        pools = carve_shard_pools(256, 64, shards, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build(shards, pools, recorder)
        requests = []
        datapath.recovery_driver = lambda dp, index: requests.append(index)
        flows = flows_on_shard(0, shards, count=2)
        datapath.inject_worker_crash(0)
        datapath.steer_batch([seq_frame(flow, seq) for seq in range(6) for flow in flows])
        datapath.pump()
        assert requests == [0]
        # Completing the recovery clears the request latch but a
        # redirected shard is not re-requested on later pumps.
        datapath.recover_shard(0)
        datapath.steer_batch([seq_frame(flows[0], seq) for seq in range(6, 9)])
        datapath.pump()
        assert requests == [0]
        datapath.shutdown()


def build_elastic(shards, pools, recorder, *, buckets=16, steal_watermark=None,
                  supervise=True, locality=None):
    return build_sharded_forwarding_datapath(
        routes=ROUTES,
        shards=shards,
        threads=manager(),
        pools=pools,
        batch=4,
        rx_ring_size=1024,
        tx_handler=recorder.handler,
        steal_watermark=steal_watermark,
        supervise=supervise,
        buckets=buckets,
        locality=locality,
    )


def flows_on_home(datapath, target, *, count, src="10.4.4.4", start=6000):
    """Rejection-sample flows whose *table* home is shard *target*."""
    flows, sport = [], start
    while len(flows) < count:
        sport += 1
        if datapath.steering.shard_of(seq_frame((src, sport), 0)) == target:
            flows.append((src, sport))
    return flows


def per_flow_seqs(recorder):
    observed = defaultdict(list)
    for entries in recorder.logs.values():
        for flow_key, seq in entries:
            observed[flow_key].append(seq)
    return observed


class TestElasticResize:
    def test_default_table_is_identity_hash_mod_n(self):
        # The table indirection must not change historical steering: the
        # default table is the identity, so shard_of stays hash % N.
        accepted = []
        steering = RssSteering(
            [lambda f, i=i: accepted.append(i) or True for i in range(4)],
            hash_fn=flow_hash_of,
        )
        assert steering.table == [0, 1, 2, 3]
        frame = seq_frame(("10.7.7.7", 777), 0)
        assert steering.shard_of(frame) == flow_hash_of(frame) % 4
        assert steering.bucket_of(frame) == flow_hash_of(frame) % 4

    def test_table_validation(self):
        outputs = [lambda f: True, lambda f: True]
        with pytest.raises(ShardingError, match="at least one bucket"):
            RssSteering(outputs, hash_fn=flow_hash_of, table=[0])
        with pytest.raises(ShardingError, match="invalid output"):
            RssSteering(outputs, hash_fn=flow_hash_of, table=[0, 2])
        steering = RssSteering(outputs, hash_fn=flow_hash_of, table=[0, 1, 0, 1])
        with pytest.raises(ShardingError, match="bucket count"):
            steering.reshape(outputs, [0, 1])

    def test_datapath_bucket_validation(self):
        pools = carve_shard_pools(256, 32, 4, exhaustion_policy="drop-newest")
        recorder = Recorder()
        with pytest.raises(ShardingError, match="bucket per shard"):
            build_elastic(4, pools, recorder, buckets=2)

    def test_grow_preserves_per_flow_fifo_and_rebalances(self):
        pools = carve_shard_pools(256, 160, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build_elastic(2, pools, recorder, buckets=16)
        flows = [(f"10.7.{i}.1", 2000 + 13 * i) for i in range(12)]
        datapath.steer_batch(
            [seq_frame(flow, seq) for seq in range(4) for flow in flows]
        )
        datapath.pump()
        record = datapath.resize(4)
        assert record["from"] == 2 and record["to"] == 4
        assert record["buckets"] == 16
        # Growth feeds each new shard its floor share of buckets.
        assert record["moved_buckets"] == 8
        assert record["pool_handoff"]["balanced"]
        counts = defaultdict(int)
        for target in datapath.steering.table:
            counts[target] += 1
        assert all(counts[i] == 4 for i in range(4))
        # The re-carve rebound every surviving NIC to its new slice.
        assert len(datapath.shards) == 4
        assert datapath.cores == 5
        for shard in datapath.shards:
            assert shard.nic.pool is shard.pool
            assert shard.pool.count == 40
        datapath.steer_batch(
            [seq_frame(flow, seq) for seq in range(4, 8) for flow in flows]
        )
        datapath.pump()
        observed = per_flow_seqs(recorder)
        assert len(observed) == len(flows)
        for seqs in observed.values():
            assert seqs == list(range(8))
        assert shard_pool_audit([s.pool for s in datapath.shards])["balanced"]
        datapath.shutdown()

    def test_shrink_retires_workers_and_reuses_indices(self):
        pools = carve_shard_pools(256, 64, 4, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build_elastic(4, pools, recorder, buckets=16)
        threads = datapath.threads
        datapath.resize(2)
        assert len(datapath.shards) == 2
        assert len(datapath._workers) == 2
        assert datapath.cores == 3
        # The retired bodies observe their flags at the next quantum.
        for _ in range(4):
            threads.step_parallel(datapath.cores)
        assert threads.alive_count() == 3  # two workers + supervisor
        # Growing again reuses the indices with fresh workers.
        datapath.resize(3)
        assert len(datapath._workers) == 3
        flows = [(f"10.8.{i}.1", 3000 + 7 * i) for i in range(9)]
        datapath.steer_batch(
            [seq_frame(flow, seq) for seq in range(5) for flow in flows]
        )
        datapath.pump()
        assert datapath.total_backlog() == 0
        for seqs in per_flow_seqs(recorder).values():
            assert seqs == list(range(5))
        datapath.shutdown()

    def test_steering_stability_across_resizes(self):
        # Satellite invariant: a resize moves an affected bucket exactly
        # once, and never touches an unaffected one.
        pools = carve_shard_pools(256, 64, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build_elastic(2, pools, recorder, buckets=32)
        flows = [(f"10.6.{i}.9", 4000 + 11 * i) for i in range(24)]
        probes = [seq_frame(flow, 0) for flow in flows]
        homes = [[datapath.steering.shard_of(p) for p in probes]]
        for target in (6, 3, 2):
            before = list(datapath.steering.table)
            record = datapath.resize(target)
            after = list(datapath.steering.table)
            changed = [b for b in range(32) if before[b] != after[b]]
            # Exactly the planned buckets moved — each at most once.
            assert len(changed) == record["moved_buckets"]
            assert len(set(changed)) == len(changed)
            # Unaffected buckets keep their entry verbatim.
            for bucket in set(range(32)) - set(changed):
                assert before[bucket] == after[bucket]
            homes.append([datapath.steering.shard_of(p) for p in probes])
        # Per flow: at most one home change per resize, and a flow in an
        # unaffected bucket never moves at all.
        for i in range(len(flows)):
            for step in range(1, len(homes)):
                assert homes[step][i] in range((6, 3, 2)[step - 1])
        datapath.shutdown()

    def test_resize_refusals(self):
        pools = carve_shard_pools(256, 32, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build_elastic(2, pools, recorder, buckets=8)
        quiesce = datapath.resize_action_set().quiesce
        assert not quiesce({"shards": 2})        # no-op target
        assert not quiesce({"shards": 0})
        assert not quiesce({"shards": True})     # bool is not a count
        assert not quiesce({"shards": "4"})
        assert not quiesce({"shards": 9})        # more shards than buckets
        with pytest.raises(ShardingError, match="refused"):
            datapath.resize(2)
        datapath.shutdown()
        assert not quiesce({"shards": 4})        # shut down

    def test_grow_without_factory_refused(self):
        threads = manager()
        pools = carve_shard_pools(256, 16, 2, exhaustion_policy="raise")
        shards = [
            Shard(
                i,
                nic=Nic(rx_ring_size=64, pool=pools[i]),
                pool=pools[i],
                push_batch=lambda batch: None,
                flush=lambda: None,
            )
            for i in range(2)
        ]
        datapath = ShardedDatapath(
            shards, threads=threads, hash_fn=flow_hash_of, batch=4, buckets=8
        )
        with pytest.raises(ShardingError, match="refused"):
            datapath.resize(4)
        # Shrink needs no factory.
        record = datapath.resize(1)
        assert record["to"] == 1
        datapath.shutdown()

    def test_rounds_are_mutually_exclusive(self):
        pools = carve_shard_pools(256, 32, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build_elastic(2, pools, recorder, buckets=8)
        resize = datapath.resize_action_set()
        recovery = datapath.recovery_action_set()
        assert resize.quiesce({"shards": 4})
        assert not recovery.quiesce({"shard": 0})   # resize in flight
        assert not resize.quiesce({"shards": 3})    # one round at a time
        resize.rollback({"shards": 4})
        resize.resume({"shards": 4})
        assert recovery.quiesce({"shard": 0})
        assert not resize.quiesce({"shards": 4})    # recovery in flight
        recovery.rollback({"shard": 0})
        assert resize.quiesce({"shards": 4})
        resize.rollback({"shards": 4})
        datapath.shutdown()

    def test_rollback_unparks_in_arrival_order(self):
        pools = carve_shard_pools(256, 64, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build_elastic(2, pools, recorder, buckets=16)
        actions = datapath.resize_action_set()
        assert actions.quiesce({"shards": 4})
        flows = [(f"10.5.{i}.2", 5000 + 9 * i) for i in range(6)]
        frames = [seq_frame(flow, seq) for seq in range(4) for flow in flows]
        assert datapath.steer_batch(frames) == len(frames)
        assert datapath.parked_count() == len(frames)
        assert datapath.total_backlog() == 0
        actions.rollback({"shards": 4})
        actions.resume({"shards": 4})
        # Everything returned to its own ring, nothing grew.
        assert datapath.parked_count() == 0
        assert datapath.total_backlog() == len(frames)
        assert len(datapath.shards) == 2
        assert datapath.stats()["resizes"] == 0
        datapath.pump()
        for seqs in per_flow_seqs(recorder).values():
            assert seqs == list(range(4))
        datapath.shutdown()

    def test_held_buffer_aborts_the_recarve(self):
        pools = carve_shard_pools(256, 32, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build_elastic(2, pools, recorder, buckets=8)
        held = datapath.shards[0].pool.acquire(16)
        with pytest.raises(ShardingError, match="aborted"):
            datapath.resize(4)
        # Rolled back: fleet, table and pools untouched, round cleared.
        assert len(datapath.shards) == 2
        assert datapath.shards[0].pool is pools[0]
        assert datapath.parked_count() == 0
        assert not datapath.stats()["resize_pending"]
        datapath.shards[0].pool.release(held)
        record = datapath.resize(4)
        assert record["pool_handoff"]["balanced"]
        datapath.shutdown()

    def test_failing_factory_leaves_every_slice_intact(self):
        # The commit-point rule: buffers move into the new slices only
        # after the factory has built every grown shard, so a factory
        # failure rolls back onto untouched slices.
        pools = carve_shard_pools(256, 32, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build_elastic(2, pools, recorder, buckets=8)
        flows = [(f"10.5.{i}.4", 5200 + 7 * i) for i in range(6)]
        datapath.steer_batch([seq_frame(flow, seq) for seq in range(3) for flow in flows])
        datapath.pump()
        free_lists = [list(pool._free) for pool in pools]
        grow = datapath.shard_factory

        def factory(index, pool):
            if index == 3:
                raise RuntimeError("no capsule for shard 3")
            return grow(index, pool)

        datapath.shard_factory = factory
        with pytest.raises(RuntimeError, match="no capsule"):
            datapath.resize(4)
        assert len(datapath.shards) == 2
        for shard, pool, free in zip(datapath.shards, pools, free_lists):
            assert shard.pool is pool and shard.nic.pool is pool
            assert pool.count == 16 and pool._free == free
            assert all(buffer.pool is pool for buffer in pool._free)
        assert shard_pool_audit(pools)["balanced"]
        datapath.steer_batch([seq_frame(flow, seq) for seq in range(3, 6) for flow in flows])
        datapath.pump()
        for seqs in per_flow_seqs(recorder).values():
            assert seqs == list(range(6))
        assert shard_pool_audit(pools)["balanced"]
        datapath.shutdown()

    def test_shards_share_one_fib(self):
        pools = carve_shard_pools(256, 64, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build_elastic(2, pools, recorder, buckets=8)
        datapath.resize(4)
        forwarders = [s.engine.stages["forwarder"] for s in datapath.shards]
        assert len({id(f.table) for f in forwarders}) == 1
        # The FIB is box-wide: a route added through shard 0 is what
        # shard 3 forwards by.
        dst = ipv4("10.9.9.9")
        assert forwarders[3].table.lookup_cached(dst) == "east"
        forwarders[0].add_route("10.9.0.0/16", "west")
        assert forwarders[3].table.lookup_cached(dst) == "west"
        flows = [(f"10.5.{i}.5", 5300 + 7 * i) for i in range(8)]
        datapath.steer_batch([seq_frame(flow, 0) for flow in flows])
        datapath.pump()
        assert sum(f.counters["hop:west"] for f in forwarders) == len(flows)
        assert sum(f.counters["hop:east"] for f in forwarders) == 0
        datapath.shutdown()

    @pytest.mark.allow_pool_leak
    def test_shutdown_mid_round_returns_parked_frames(self):
        # Satellite fix: shutdown during an in-flight round used to
        # strand the quiesce-parked frames in park lists nothing would
        # ever flush — they were invisible to total_backlog and pump
        # refused to run.  Now shutdown rolls the round back first.
        pools = carve_shard_pools(256, 64, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build_elastic(2, pools, recorder, buckets=16)
        actions = datapath.resize_action_set()
        assert actions.quiesce({"shards": 4})
        flows = [(f"10.3.{i}.4", 7000 + 5 * i) for i in range(4)]
        frames = [seq_frame(flow, seq) for seq in range(3) for flow in flows]
        datapath.steer_batch(frames)
        assert datapath.parked_count() == len(frames)
        datapath.shutdown()
        assert datapath.parked_count() == 0
        assert datapath.total_backlog() == len(frames)
        assert not datapath.stats()["resize_pending"]

    @pytest.mark.allow_pool_leak
    def test_shutdown_mid_recovery_round_returns_parked_frames(self):
        pools = carve_shard_pools(256, 64, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build_elastic(2, pools, recorder, buckets=16)
        actions = datapath.recovery_action_set()
        assert actions.quiesce({"shard": 0})
        flows = flows_on_home(datapath, 0, count=3)
        frames = [seq_frame(flow, seq) for seq in range(4) for flow in flows]
        datapath.steer_batch(frames)
        assert datapath.parked_count() == len(frames)
        datapath.shutdown()
        assert datapath.parked_count() == 0
        assert datapath.total_backlog() == len(frames)

    def test_shutdown_drain_empties_rings_through_engines(self):
        pools = carve_shard_pools(256, 64, 2, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build_elastic(2, pools, recorder, buckets=16)
        actions = datapath.resize_action_set()
        assert actions.quiesce({"shards": 4})
        flows = [(f"10.2.{i}.6", 8000 + 3 * i) for i in range(4)]
        frames = [seq_frame(flow, seq) for seq in range(3) for flow in flows]
        datapath.steer_batch(frames)
        datapath.shutdown(drain=True)
        assert datapath.total_backlog() == 0
        for seqs in per_flow_seqs(recorder).values():
            assert seqs == list(range(3))
        assert shard_pool_audit([s.pool for s in datapath.shards])["balanced"]

    def test_locality_penalty_vetoes_remote_steals(self):
        # Two clusters of two: shard 0's backlog diverges enough for the
        # plain watermark everywhere, but the remote pair's scaled
        # watermark says the steal does not pay.
        pools = carve_shard_pools(256, 256, 4, exhaustion_policy="drop-newest")
        recorder = Recorder()
        penalty = lambda a, b: 1.0 if a // 2 == b // 2 else 100.0
        datapath = build_elastic(
            4, pools, recorder, buckets=4, steal_watermark=2, locality=penalty
        )
        flows = flows_on_home(datapath, 0, count=3)
        frames = [seq_frame(flow, seq) for seq in range(16) for flow in flows]
        datapath.steer_batch(frames)
        datapath.pump()
        assert datapath.locality_vetoes > 0
        assert datapath.remote_steals == 0
        assert datapath.local_steals > 0
        # Only the same-cluster peer ever ran shard 0's batches.
        assert datapath.shards[1].counters["stolen_batches"] > 0
        assert datapath.shards[2].counters["stolen_batches"] == 0
        assert datapath.shards[3].counters["stolen_batches"] == 0
        for seqs in per_flow_seqs(recorder).values():
            assert seqs == list(range(16))
        datapath.shutdown()

    def test_resize_compiles_away_standing_redirects(self):
        # A committed recovery leaves a bucket redirect; the next resize
        # folds it into the table (the dead shard gets no buckets) and
        # clears the redirect map.
        pools = carve_shard_pools(256, 64, 3, exhaustion_policy="drop-newest")
        recorder = Recorder()
        datapath = build_elastic(3, pools, recorder, buckets=12)
        datapath.recover_shard(0, to=1)
        assert datapath.stats()["redirects"] == {0: 1}
        datapath.resize(2)
        assert datapath.stats()["redirects"] == {}
        # Shard 0's worker is alive (recovery was administrative), but
        # the plan treated only live shards as homes: every bucket
        # targets a live index below the new count.
        assert all(0 <= t < 2 for t in datapath.steering.table)
        flows = [(f"10.1.{i}.8", 9000 + 17 * i) for i in range(8)]
        datapath.steer_batch(
            [seq_frame(flow, seq) for seq in range(4) for flow in flows]
        )
        datapath.pump()
        assert datapath.total_backlog() == 0
        for seqs in per_flow_seqs(recorder).values():
            assert seqs == list(range(4))
        datapath.shutdown()
