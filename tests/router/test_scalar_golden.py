"""Scalar behaviour pinned as recorded literals.

Scalar ``push``/``pull`` are a batch of one, so the scalar ≡ batch tests
only show that ``batch(n)`` equals ``n × batch(1)``.  These cases pin what
a scalar drive does on its own: the exact counters after per-packet
pushes of one mixed trace through the forwarding pipeline, and the
served order and counters of scalar scheduler drains.  The literals were
recorded while every component still carried a hand-written per-packet
body, so they hold the batch-of-one path to that behaviour.
"""

import pytest

from repro.netsim import make_udp_v4, make_udp_v6
from repro.opencom import Capsule, fuse_pipeline
from repro.router import (
    DrrScheduler,
    FifoQueue,
    PriorityLinkScheduler,
    WfqScheduler,
    build_forwarding_pipeline,
)

ROUTES = {
    "10.0.0.0/8": "east",
    "192.168.0.0/16": "west",
    "2001:db8::/32": "six",
}


def mixed_trace():
    """v4 and v6 forwarded, a bad checksum, TTL 1, hop limit 1, an
    unroutable v4 and v6 destination, and a hop with no bound connection."""
    bad_checksum = make_udp_v4("10.9.0.1", "10.1.0.2", dport=3)
    bad_checksum.net.checksum ^= 0xFFFF
    return [
        make_udp_v4("10.9.0.1", "10.1.0.1", dport=1),
        make_udp_v4("10.9.0.1", "192.168.3.4", dport=2),
        make_udp_v6("2001:db8::1", "2001:db8::2", dport=3),
        bad_checksum,
        make_udp_v4("10.9.0.1", "10.1.0.3", ttl=1),
        make_udp_v4("10.9.0.1", "172.16.0.1"),
        make_udp_v4("10.9.0.1", "10.99.0.1"),
        make_udp_v6("2001:db8::1", "2001:db8::9", hop_limit=1),
        make_udp_v6("2001:db8::1", "2002::1"),
        make_udp_v4("10.9.0.1", "10.1.0.4", dport=4),
        make_udp_v6("2001:db8::1", "2001:db8::3", dport=5),
    ]


def scalar_forwarding_counters(*, fused):
    capsule = Capsule("golden")
    pipeline = build_forwarding_pipeline(capsule, routes=ROUTES)
    # Routed after the build, so no sink is bound for this hop.
    pipeline.stages["forwarder"].add_route("10.99.0.0/16", "ghost")
    if fused:
        fuse_pipeline(list(capsule.components().values()))
    for packet in mixed_trace():
        pipeline.push(packet)
    return {name: dict(stage.counters) for name, stage in pipeline.stages.items()}


FORWARDING_COUNTERS = {
    "forwarder": {
        "drop:no-route": 1,
        "drop:no-route-entry": 2,
        "drop:no-route:ghost": 1,
        "hop:east": 2,
        "hop:ghost": 1,
        "hop:six": 2,
        "hop:west": 1,
        "rx": 8,
        "tx": 5,
    },
    "ipv4": {
        "drop:bad-checksum": 1,
        "drop:ttl-expired": 1,
        "forwarded": 5,
        "rx": 7,
        "tx": 5,
    },
    "ipv6": {"drop:hop-limit-expired": 1, "forwarded": 3, "rx": 4, "tx": 3},
    "recogniser": {"rx": 11, "tx": 11, "v4": 7, "v6": 4},
    "sink:east": {"rx": 2},
    "sink:six": {"rx": 2},
    "sink:west": {"rx": 1},
}


@pytest.mark.parametrize("fused", [False, True], ids=["vtable", "fused"])
def test_scalar_push_counters(fused):
    assert scalar_forwarding_counters(fused=fused) == FORWARDING_COUNTERS


BACKLOG = {
    "a": [1400, 200, 64, 900, 64, 1500],
    "b": [300, 300, 1500, 64, 700, 128, 90],
}

SCHEDULERS = {
    "priority": lambda: PriorityLinkScheduler(["b", "a"]),
    "drr": lambda: DrrScheduler(quantum=500, quanta={"a": 800}),
    "wfq": lambda: WfqScheduler(weights={"a": 2.0, "b": 1.0}),
}


def scalar_drain(factory):
    """Served ``(input, seq)`` order and ``served:*`` counters of a
    scalar ``pull()`` drain over the fixed two-input backlog."""
    capsule = Capsule("golden-pull")
    scheduler = capsule.instantiate(factory, "sched")
    for port, (name, sizes) in enumerate(BACKLOG.items(), start=1):
        queue = capsule.instantiate(lambda: FifoQueue(64), f"q-{name}")
        capsule.bind(
            scheduler.receptacle("inputs"), queue.interface("pull0"),
            connection_name=name,
        )
        for seq, size in enumerate(sizes):
            queue.push(make_udp_v4(
                "10.0.0.1", "10.0.0.2", sport=seq, dport=port,
                payload=bytes(size - 28),
            ))
    served = []
    while (packet := scheduler.pull()) is not None:
        served.append((packet.transport.dport, packet.transport.sport))
    counters = {
        key: value for key, value in scheduler.counters.items()
        if key.startswith("served:")
    }
    return served, counters


SERVED = {
    "drr": (
        [(2, 0), (1, 0), (1, 1), (2, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3),
         (1, 5), (2, 4), (2, 5), (2, 6)],
        {"served:a": 6, "served:b": 7},
    ),
    "priority": (
        [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (1, 0), (1, 1),
         (1, 2), (1, 3), (1, 4), (1, 5)],
        {"served:a": 6, "served:b": 7},
    ),
    "wfq": (
        [(2, 0), (2, 1), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 2),
         (2, 3), (2, 4), (2, 5), (2, 6)],
        {"served:a": 6, "served:b": 7},
    ),
}


@pytest.mark.parametrize("discipline", sorted(SCHEDULERS))
def test_scalar_pull_order_and_counters(discipline):
    assert scalar_drain(SCHEDULERS[discipline]) == SERVED[discipline]
