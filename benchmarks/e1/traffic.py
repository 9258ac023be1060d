"""Seeded traffic generator: everything the program under test receives.

The generator's output is raw frame bytes and nothing else.  What it
*knows* about each frame (flow, sequence number, whether the frame is
hostile and how) stays on this side and is what the oracle checks the
egress against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from struct import pack

from repro.netsim import make_udp_v4, synthetic_route_table

#: Frames offered between two pumps (the closed loop's unit of work).
BURST = 256
HOPS = ["east", "west", "north", "south"]
ROUTE_PREFIXES = 1000
#: The route table is configuration, not traffic: one fixed table (the
#: C6 one) on every seed, so a seed changes the offered frames only.
ROUTE_SEED = 5
FLOWS = 2048
#: A minimum-size Ethernet frame carries a 46-byte IP packet.
MIN_PACKET = 46
#: IMIX packet sizes and their 7:4:1 mix.
IMIX = ((64, 7), (576, 4), (1500, 1))
HEADERS = 28  # IPv4 + UDP
#: Share of fleet frames that leave the fast path, split evenly over KINDS.
HOSTILE_SHARE = 0.02
#: The hostile kinds, each counted (not raised) by the seed's datapath:
#: expired TTL and a bad IPv4 checksum are dropped by the IPv4 header
#: processor under a named counter, a truncated header by the edge as
#: ``malformed``.
KINDS = ("ttl", "checksum", "truncated")
SEQ_HOSTILE = 0xFFFFFFFF


def load_routes(prefixes: int = ROUTE_PREFIXES) -> dict[str, str]:
    """1 000 synthetic prefixes plus a default route."""
    routes = synthetic_route_table(prefixes=prefixes, next_hops=HOPS, seed=ROUTE_SEED)
    routes["0.0.0.0/0"] = "east"
    return routes


@dataclass
class Traffic:
    """One lap of offered frames plus the generator's private knowledge."""

    frames: list[bytes]
    #: Per frame: ``"ok"`` or one of :data:`KINDS`.
    kinds: list[str]
    expected_drops: dict[str, int] = field(default_factory=dict)

    @property
    def valid(self) -> int:
        """Frames that must egress."""
        return len(self.frames) - sum(self.expected_drops.values())

    def bursts(self) -> list[list[bytes]]:
        frames = self.frames
        return [frames[i : i + BURST] for i in range(0, len(frames), BURST)]


def make_traffic(
    routes: dict[str, str],
    *,
    seed: int,
    frames: int,
    zipf: bool = False,
    imix: bool = False,
    hostile: bool = False,
) -> Traffic:
    """*frames* UDP/IPv4 frames over :data:`FLOWS` five-tuples.

    Every valid frame's payload starts with ``(flow index, sequence
    number)`` so egress order can be checked per flow.  *zipf* draws
    flows with weight 1/rank instead of uniformly; *imix* draws packet
    sizes from :data:`IMIX` instead of the minimum; *hostile* replaces
    :data:`HOSTILE_SHARE` of the frames with ones that must be dropped.
    """
    rng = random.Random(f"e1:{seed}")
    bases = [prefix.split("/")[0] for prefix in routes]
    flows = [
        (
            f"10.{rng.randrange(1, 250)}.{rng.randrange(250)}.{rng.randrange(1, 250)}",
            bases[rng.randrange(len(bases))],
            1024 + rng.randrange(40_000),
            rng.randrange(100),
        )
        for _ in range(FLOWS)
    ]
    weights = [1.0 / (rank + 1) if zipf else 1.0 for rank in range(FLOWS)]
    picks = rng.choices(range(FLOWS), cum_weights=list(accumulate(weights)), k=frames)
    sizes, size_weights = zip(*IMIX)
    next_seq = [0] * FLOWS
    out: list[bytes] = []
    kinds: list[str] = []
    drops = {kind: 0 for kind in KINDS} if hostile else {}
    for flow in picks:
        src, dst, sport, dport = flows[flow]
        size = rng.choices(sizes, size_weights)[0] if imix else MIN_PACKET
        kind = "ok"
        if hostile and rng.random() < HOSTILE_SHARE:
            kind = KINDS[rng.randrange(len(KINDS))]
            drops[kind] += 1
        if kind == "ok":
            seq = next_seq[flow]
            next_seq[flow] += 1
        else:
            seq = SEQ_HOSTILE
        frame = make_udp_v4(
            src,
            dst,
            sport=sport,
            dport=dport,
            ttl=1 if kind == "ttl" else 64,
            payload=pack("!II", flow, seq).ljust(size - HEADERS, b"\0"),
        ).to_bytes()
        if kind == "checksum":
            frame = frame[:10] + bytes([frame[10] ^ 0x55]) + frame[11:]
        elif kind == "truncated":
            frame = frame[: rng.randrange(1, 20)]
        out.append(frame)
        kinds.append(kind)
    return Traffic(out, kinds, drops)
