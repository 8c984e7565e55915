"""Tests for capacity-scaling Maxflow."""

import random

import pytest

from repro.flownet import FlowNetwork, capacity_scaling, dinic


class TestCapacityScaling:
    def test_figure2(self, figure2_network):
        s, t = figure2_network.index_of("s"), figure2_network.index_of("t")
        assert capacity_scaling(figure2_network, s, t).value == pytest.approx(7.0)

    def test_matches_dinic_on_random_networks(self):
        rng = random.Random(99)
        for _ in range(25):
            net = FlowNetwork()
            n = rng.randint(4, 10)
            for i in range(n):
                net.add_node(i)
            for _ in range(rng.randint(4, 30)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    net.add_edge(u, v, float(rng.randint(1, 100)))
            expected = dinic(net.clone(), 0, 1).value
            assert capacity_scaling(net, 0, 1).value == pytest.approx(expected)

    def test_resumable(self, figure2_network):
        s, t = figure2_network.index_of("s"), figure2_network.index_of("t")
        first = capacity_scaling(figure2_network, s, t)
        second = capacity_scaling(figure2_network, s, t)
        assert first.value == pytest.approx(7.0)
        assert second.value == 0.0

    def test_fractional_capacities(self):
        net = FlowNetwork()
        net.add_edge_labeled("s", "a", 0.75)
        net.add_edge_labeled("a", "t", 0.5)
        run = capacity_scaling(net, net.index_of("s"), net.index_of("t"))
        assert run.value == pytest.approx(0.5)

    def test_empty_network(self):
        net = FlowNetwork()
        net.add_node("s")
        net.add_node("t")
        assert capacity_scaling(net, 0, 1).value == 0.0

    def test_uses_fewer_augmentations_than_plain_ff_on_zigzag(self):
        """The classic pathological network: plain FF can need ~2C paths,
        scaling needs O(log C)."""
        from repro.flownet import ford_fulkerson

        capacity = 512.0
        net = FlowNetwork()
        net.add_edge_labeled("s", "a", capacity)
        net.add_edge_labeled("s", "b", capacity)
        net.add_edge_labeled("a", "b", 1.0)
        net.add_edge_labeled("a", "t", capacity)
        net.add_edge_labeled("b", "t", capacity)
        s, t = net.index_of("s"), net.index_of("t")
        scaled = capacity_scaling(net.clone(), s, t)
        plain = ford_fulkerson(net.clone(), s, t)
        assert scaled.value == pytest.approx(plain.value) == 2 * capacity
        assert scaled.augmenting_paths <= plain.augmenting_paths
