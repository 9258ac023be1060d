"""Correctness oracle: what must egress, byte for byte.

The reference is :class:`~repro.baselines.MonolithicRouter` — one
hard-coded function sharing no dispatch, NIC, steering or fleet code
with the component router — run over the same raw frames.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from struct import unpack_from
from typing import Any

from repro.baselines import MonolithicRouter
from repro.netsim import PacketError, WirePacket
from repro.osbase import release_dropped

from benchmarks.e1.traffic import HEADERS, Traffic


class EgressSink:
    """Owns every frame handed off a TX ring: counts it, optionally
    captures ``(source, next hop, bytes)`` for the oracle, then releases
    the pooled buffer (the hand-off convention of ``tx_handler=``).

    *tamper*, when given, rewrites captured bytes — how the contract
    self-test proves a corrupted egress frame fails the run.
    """

    def __init__(self, tamper: Callable[[bytes], bytes] | None = None) -> None:
        self.total = 0
        self.capture: list[tuple[str, str, bytes]] | None = None
        self.tamper = tamper

    def handler(self, source: str) -> Callable[[Any], None]:
        def on_frame(frame: Any) -> None:
            capture = self.capture
            if capture is not None:
                data = frame.to_bytes()
                if self.tamper is not None:
                    data = self.tamper(data)
                capture.append((source, frame.metadata.get("next_hop"), data))
            self.total += 1
            release_dropped(frame)

        return on_frame


@dataclass
class Reference:
    """The monolithic router's verdict on one lap of traffic."""

    #: ``(flow, seq)`` → ``(next hop, egress bytes)`` for every frame
    #: that must be forwarded.
    expected: dict[tuple[int, int], tuple[str, bytes]]
    #: Frames that must be dropped, by reason.
    drops: dict[str, int]


def reference(routes: dict[str, str], traffic: Traffic) -> Reference:
    """Run *traffic* through the monolithic router."""
    router = MonolithicRouter(routes, queue_capacity=len(traffic.frames) + 1)
    packets = []
    malformed = 0
    for frame in traffic.frames:
        try:
            packets.append(WirePacket.ingest(frame))
        except PacketError:
            malformed += 1
    router.push_batch(packets)
    router.service(budget=len(packets))
    expected = {}
    for hop, delivered in router.delivered.items():
        for packet in delivered:
            data = packet.to_bytes()
            expected[unpack_from("!II", data, HEADERS)] = (hop, data)
    drops = {
        "ttl": router.counters["drop:ttl"],
        "checksum": router.counters["drop:bad-checksum"],
        "truncated": malformed,
    }
    # The generator and the oracle must agree on what is hostile, or the
    # run would be checking the program against a wrong expectation.
    for kind, count in traffic.expected_drops.items():
        if drops[kind] != count:
            raise AssertionError(
                f"oracle drops {drops[kind]} {kind} frames, generator made {count}"
            )
    if len(expected) != traffic.valid:
        raise AssertionError(
            f"oracle forwards {len(expected)} frames, generator made {traffic.valid}"
        )
    return Reference(expected, drops)


def verify(
    capture: list[tuple[str, str, bytes]], ref: Reference
) -> tuple[int, list[str]]:
    """Check captured egress against *ref*.

    A frame is good when it egressed exactly once, with the reference's
    bytes (TTL decremented, checksum valid) toward the reference's next
    hop, after every earlier frame of its flow.  Returns ``(failed
    frames, problems)`` — missing, duplicated, corrupted, misrouted,
    reordered and unexpected frames all count as failed.
    """
    good: set[tuple[int, int]] = set()
    seen: set[tuple[int, int]] = set()
    last_seq: dict[int, int] = {}
    extra = 0
    problems: list[str] = []

    def problem(text: str) -> None:
        if len(problems) < 8:
            problems.append(text)

    for source, hop, data in capture:
        key = unpack_from("!II", data, HEADERS) if len(data) >= HEADERS + 8 else None
        want = ref.expected.get(key)
        if want is None:
            extra += 1
            problem(f"unexpected frame from {source}: {data[:36].hex()}")
            continue
        flow, seq = key
        if key in seen:
            good.discard(key)
            problem(f"flow {flow} seq {seq} egressed twice (again from {source})")
            continue
        seen.add(key)
        in_order = last_seq.get(flow, -1) < seq
        last_seq[flow] = max(seq, last_seq.get(flow, -1))
        if want[1] != data:
            problem(f"flow {flow} seq {seq} from {source}: bytes differ from the oracle")
        elif want[0] != hop:
            problem(f"flow {flow} seq {seq} from {source}: hop {hop}, oracle {want[0]}")
        elif not in_order:
            problem(f"flow {flow} seq {seq} from {source}: egressed out of order")
        else:
            good.add(key)
    missing = len(ref.expected) - len(seen)
    if missing:
        problem(f"{missing} valid frames never egressed")
    return len(ref.expected) - len(good) + extra, problems
