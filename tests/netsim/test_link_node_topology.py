"""Links, nodes and topologies over the engine."""

import pytest

from repro.netsim import (
    PROTO_UDP,
    Engine,
    NodeError,
    Topology,
    make_udp_v4,
)
from repro.netsim.packet import IPv4Header, Packet


def two_node_topo(**link_kwargs):
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    defaults = {"bandwidth_bps": 1e6, "latency_s": 0.01}
    defaults.update(link_kwargs)
    topo.connect("a", "b", **defaults)
    return topo


class TestLink:
    def test_delivery_includes_tx_and_propagation_delay(self):
        topo = two_node_topo()
        received = []
        topo.node("b").set_packet_handler(lambda p, port: received.append(topo.engine.now))
        packet = make_udp_v4("10.0.0.1", "10.0.0.99", payload=bytes(97))  # 125 bytes
        topo.node("a").send("eth0", packet)
        topo.engine.run()
        # 125 bytes at 1 Mbps = 1 ms serialisation + 10 ms latency
        assert received[0] == pytest.approx(0.011, rel=1e-6)

    def test_serialisation_queues_back_to_back(self):
        topo = two_node_topo()
        times = []
        topo.node("b").set_packet_handler(lambda p, port: times.append(topo.engine.now))
        for _ in range(3):
            topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99", payload=bytes(97)))
        topo.engine.run()
        # Arrivals 1 ms apart: the link serialises one packet at a time.
        assert times == pytest.approx([0.011, 0.012, 0.013], rel=1e-6)

    def test_loss_rate_drops_deterministically(self):
        topo = two_node_topo(loss_rate=0.5, seed=7)
        received = []
        topo.node("b").set_packet_handler(lambda p, port: received.append(p))
        for _ in range(200):
            topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        topo.engine.run()
        stats = topo.links[0].stats()["a_to_b"]
        assert stats.lost + stats.delivered == stats.sent == 200
        assert 60 <= stats.lost <= 140

    def test_backlog_limit_drops(self):
        topo = two_node_topo(max_backlog=5)
        for _ in range(10):
            topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        stats = topo.links[0].stats()["a_to_b"]
        assert stats.dropped_backlog == 5

    def test_set_loss_rate_live(self):
        topo = two_node_topo()
        topo.links[0].set_loss_rate(1.0)
        received = []
        topo.node("b").set_packet_handler(lambda p, port: received.append(p))
        topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        topo.engine.run()
        assert received == []

    def test_reseeded_loss_pattern_ignores_prior_traffic(self):
        # set_loss_rate(..., seed=) re-derives the direction RNGs, so the
        # drop pattern from that point on is a pure function of the seed
        # — however much traffic (and RNG consumption) came before.
        def delivered_after_reseed(warmup_packets):
            topo = two_node_topo(loss_rate=0.3, seed="warmup")
            received = []
            topo.node("b").set_packet_handler(
                lambda p, port: received.append(bytes(p.payload))
            )
            for n in range(warmup_packets):
                topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
            topo.engine.run()
            received.clear()
            topo.links[0].set_loss_rate(0.5, seed="fault-onset")
            for n in range(60):
                topo.node("a").send(
                    "eth0",
                    make_udp_v4("10.0.0.1", "10.0.0.99", payload=bytes([n])),
                )
            topo.engine.run()
            return received

        assert delivered_after_reseed(0) == delivered_after_reseed(23)


#: Frame sizes the delivery tests mix: minimum, classic MTU, Ethernet MTU.
SIZES = (46, 576, 1500)


def tagged(index, src="10.0.0.1", dst="10.0.0.99"):
    """A UDP frame of ``SIZES[index % 3]`` bytes whose payload starts with
    *index*."""
    size = SIZES[index % len(SIZES)]
    return make_udp_v4(src, dst, payload=index.to_bytes(2, "big").ljust(size - 28, b"\0"))


def tag_of(packet):
    return int.from_bytes(bytes(packet.payload[:2]), "big")


class TestLinkDelivery:
    """A direction delivers the head of its in-flight FIFO on each
    arrival event; these pin the behaviour that makes that sound."""

    def test_arrival_order_is_send_order_per_direction(self):
        topo = two_node_topo()
        a, b = topo.node("a"), topo.node("b")
        at_b, at_a = [], []
        b.set_packet_handler(lambda p, port: at_b.append((tag_of(p), topo.engine.now)))
        a.set_packet_handler(lambda p, port: at_a.append((tag_of(p), topo.engine.now)))
        # Sends at staggered times, so some find the direction idle and
        # some queue behind a long frame; both directions at once.
        for i in range(30):
            topo.engine.schedule_at(
                0.004 * (i // 4),
                lambda i=i: (a.send("eth0", tagged(i)), b.send("eth0", tagged(100 + i))),
            )
        topo.engine.run()
        assert [tag for tag, _ in at_b] == list(range(30))
        assert [tag for tag, _ in at_a] == list(range(100, 130))
        for arrivals in (at_b, at_a):
            times = [t for _, t in arrivals]
            assert times == sorted(times)
        for direction in ("a_to_b", "b_to_a"):
            stats = topo.links[0].stats()[direction]
            assert stats.sent == stats.delivered == 30

    def test_partition_drops_exactly_the_frames_in_flight(self):
        from repro.netsim import WirePacket
        from repro.osbase import BufferPool

        topo = two_node_topo()
        a, b = topo.node("a"), topo.node("b")
        link = topo.links[0]
        pool = BufferPool(2048, 16)
        received = []

        def consume(packet, port):
            received.append((tag_of(packet), topo.engine.now))
            packet.release()

        b.set_packet_handler(consume)
        for i in range(9):
            a.send("eth0", WirePacket.from_packet(tagged(i), pool=pool))
        # Back to back at 1 Mbps plus 10 ms propagation.
        arrivals, busy = [], 0.0
        for i in range(9):
            busy += SIZES[i % 3] * 8 / 1e6
            arrivals.append(busy + 0.01)
        cut = (arrivals[3] + arrivals[4]) / 2
        topo.engine.schedule_at(cut, link.partition)
        topo.engine.run()
        assert [tag for tag, _ in received] == [0, 1, 2, 3]
        assert [t for _, t in received] == pytest.approx(arrivals[:4])
        stats = link.stats()["a_to_b"]
        assert (stats.sent, stats.delivered, stats.dropped_down) == (9, 4, 5)
        assert link.direction_from(a).in_flight == 0
        assert pool.acquired_total == pool.released_total == 9
        assert pool.in_flight == 0

    def test_seeded_loss_pattern_is_pinned(self):
        # The frame indices this seed loses, recorded before links
        # delivered through a per-direction FIFO: the loss process must
        # draw exactly as it always has.
        topo = two_node_topo(loss_rate=0.3, seed=11)
        received = []
        topo.node("b").set_packet_handler(lambda p, port: received.append(tag_of(p)))
        for i in range(40):
            topo.node("a").send("eth0", tagged(i))
        topo.engine.run()
        lost = sorted(set(range(40)) - set(received))
        assert lost == [4, 7, 9, 13, 18, 21, 29, 36]
        assert received == sorted(received)
        stats = topo.links[0].stats()["a_to_b"]
        assert (stats.sent, stats.lost, stats.delivered) == (40, 8, 32)

    def test_in_flight_counts_and_returns_to_zero(self):
        topo = two_node_topo()
        a = topo.node("a")
        direction = topo.links[0].direction_from(a)
        assert direction.in_flight == 0
        for i in range(5):
            a.send("eth0", tagged(i))
        assert direction.in_flight == 5
        topo.engine.step()
        assert direction.in_flight == 4
        topo.engine.run()
        assert direction.in_flight == 0
        assert topo.links[0].direction_from(topo.node("b")).in_flight == 0

    def test_backlog_bound_counts_frames_in_flight(self):
        topo = two_node_topo(max_backlog=3)
        a = topo.node("a")
        for i in range(5):
            a.send("eth0", tagged(i))
        topo.engine.step()  # one arrives: room for exactly one more
        a.send("eth0", tagged(5))
        a.send("eth0", tagged(6))
        stats = topo.links[0].stats()["a_to_b"]
        assert (stats.sent, stats.dropped_backlog) == (4, 3)


class TestPartition:
    def test_partition_blackholes_without_sender_feedback(self):
        topo = two_node_topo()
        link = topo.links[0]
        link.partition()
        assert link.partitioned
        received = []
        topo.node("b").set_packet_handler(lambda p, port: received.append(p))
        # The cable is cut, but the sender cannot tell: send still
        # reports acceptance (recovery belongs to the retry layer).
        assert topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        topo.engine.run()
        assert received == []
        assert link.stats()["a_to_b"].dropped_down == 1
        assert link.stats()["a_to_b"].delivered == 0

    def test_partition_drops_packets_already_in_flight(self):
        topo = two_node_topo()  # arrival would be at 11 ms
        link = topo.links[0]
        received = []
        topo.node("b").set_packet_handler(lambda p, port: received.append(p))
        topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99", payload=bytes(97)))
        topo.engine.schedule_at(0.005, link.partition)
        topo.engine.run()
        assert received == []
        stats = link.stats()["a_to_b"]
        assert stats.sent == 1
        assert stats.dropped_down == 1

    def test_heal_restores_both_directions(self):
        topo = two_node_topo()
        link = topo.links[0]
        link.partition()
        link.heal()
        assert not link.partitioned
        received = []
        topo.node("b").set_packet_handler(lambda p, port: received.append("b"))
        topo.node("a").set_packet_handler(lambda p, port: received.append("a"))
        topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        topo.node("b").send("eth0", make_udp_v4("10.0.0.99", "10.0.0.1"))
        topo.engine.run()
        assert sorted(received) == ["a", "b"]


class TestNode:
    def test_control_protocol_dispatch(self):
        topo = two_node_topo()
        node_b = topo.node("b")
        got = []
        node_b.register_protocol(200, lambda p, port: got.append(p))
        packet = Packet(
            IPv4Header(src=topo.node("a").address, dst=node_b.address, protocol=200),
            None,
            b"control",
        )
        topo.node("a").send("eth0", packet)
        topo.engine.run()
        assert len(got) == 1
        assert node_b.counters["delivered_local"] == 1

    def test_duplicate_protocol_registration_rejected(self):
        topo = two_node_topo()
        topo.node("a").register_protocol(200, lambda p, port: None)
        with pytest.raises(NodeError, match="already handles"):
            topo.node("a").register_protocol(200, lambda p, port: None)

    def test_no_handler_drop_counted(self):
        topo = two_node_topo()
        topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        topo.engine.run()
        assert topo.node("b").counters["no_handler_drops"] == 1

    @pytest.mark.allow_pool_leak
    def test_backpressure_refusal_accounted(self):
        # Regression: a frame the NIC refuses under a backpressure pool
        # policy used to vanish with zero accounting — the node (the end
        # of the retry-less link path) now counts the loss.
        from repro.osbase import BufferPool

        topo = two_node_topo()
        node_b = topo.node("b")
        received = []
        node_b.set_packet_handler(lambda p, port: received.append(p))
        ingress_pool = BufferPool(256, 1, exhaustion_policy="backpressure")
        nic_b = node_b.nic("eth0")
        nic_b.bind_pool(ingress_pool)
        ingress_pool.acquire(10)  # pin the only buffer: the NIC must refuse

        topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        topo.engine.run()
        assert received == []
        assert nic_b.counters["rx_backpressure"] == 1
        assert node_b.counters["delivery_drops"] == 1

    def test_ingress_metadata(self):
        topo = two_node_topo()
        seen = []
        topo.node("b").set_packet_handler(lambda p, port: seen.append(p.metadata))
        topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        topo.engine.run()
        assert seen[0]["ingress_port"] == "eth0"
        assert seen[0]["ingress_node"] == "b"

    def test_send_to_neighbor_and_port_to(self):
        topo = Topology.chain(3)
        n1 = topo.node("n1")
        assert n1.port_to("n0") == "eth0"
        assert n1.port_to("n2") == "eth1"
        with pytest.raises(NodeError, match="no link to"):
            n1.port_to("n99")
        with pytest.raises(NodeError, match="no link to"):
            n1.send_to_neighbor("n99", make_udp_v4("10.0.0.1", "10.0.0.99"))
        with pytest.raises(NodeError, match="no link to"):
            n1.port_to("n1")  # a node is not its own neighbour

    def test_two_links_to_one_neighbour_use_the_first(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_node("c")
        topo.connect("a", "c")
        first = topo.connect("a", "b")
        second = topo.connect("a", "b")
        a = topo.node("a")
        assert a.port_to("b") == "eth1"
        assert a.port_to("c") == "eth0"
        assert topo.node("b").port_to("a") == "eth0"
        got = []
        topo.node("b").set_packet_handler(lambda p, port: got.append(port))
        assert a.send_to_neighbor("b", make_udp_v4("10.0.0.1", "10.0.0.99"))
        topo.engine.run()
        assert got == ["eth0"]
        assert first.stats()["a_to_b"].sent == 1
        assert second.stats()["a_to_b"].sent == 0

    def test_unknown_port(self):
        topo = two_node_topo()
        with pytest.raises(NodeError, match="no port"):
            topo.node("a").link("eth9")

    def test_describe(self):
        topo = two_node_topo()
        info = topo.node("a").describe()
        assert info["ports"]["eth0"]["peer"] == "b"


class TestTopology:
    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node("x")
        with pytest.raises(NodeError, match="already exists"):
            topo.add_node("x")

    def test_addresses_unique(self):
        topo = Topology.chain(5)
        addresses = {node.address for node in topo.nodes.values()}
        assert len(addresses) == 5

    def test_chain_routes(self):
        topo = Topology.chain(4)
        hops = topo.next_hops("n0")
        assert hops == {"n1": "n1", "n2": "n1", "n3": "n1"}
        assert topo.next_hops("n2") == {"n0": "n1", "n1": "n1", "n3": "n3"}

    def test_shortest_path_prefers_low_latency(self):
        topo = Topology()
        for name in ("a", "b", "c"):
            topo.add_node(name)
        topo.connect("a", "c", latency_s=0.1)       # direct but slow
        topo.connect("a", "b", latency_s=0.01)
        topo.connect("b", "c", latency_s=0.01)      # via b: 0.02 total
        assert topo.shortest_paths("a")["c"] == ["a", "b", "c"]

    def test_star_topology(self):
        topo = Topology.star(4)
        assert topo.next_hops("leaf0")["leaf3"] == "hub"

    def test_ring_topology(self):
        topo = Topology.ring(6)
        assert len(topo.links) == 6
        hops = topo.next_hops("n0")
        assert hops["n1"] == "n1"
        assert hops["n5"] == "n5"

    def test_binary_tree(self):
        topo = Topology.binary_tree(2)
        assert len(topo.nodes) == 7
        assert topo.next_hops("t3")["t6"] == "t1"  # up toward the root

    def test_grid(self):
        topo = Topology.grid(2, 3)
        assert len(topo.nodes) == 6
        assert len(topo.links) == 7

    def test_random_connected_is_connected(self):
        topo = Topology.random_connected(12, extra_edges=4, seed=3)
        paths = topo.shortest_paths("r0")
        assert len(paths) == 12

    def test_address_routes_format(self):
        topo = Topology.chain(2)
        routes = topo.address_routes("n0")
        (prefix, hop), = routes.items()
        assert prefix.endswith("/32")
        assert hop == "n1"
