import random

import pytest

from bandapprox.graph import make_graph
from bandapprox.oracle import (
    Layout,
    OracleCapError,
    degree_lower_bound,
    exact_bandwidth,
    format_layout,
    layout_bandwidth,
    parse_layout,
)
from helpers import (
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_bandwidth,
    er_graph,
    path_graph,
    star_graph,
)


def identity_layout(n):
    return Layout(tuple(range(1, n + 1)))


class TestLayoutBandwidth:
    def test_path_identity(self):
        assert layout_bandwidth(path_graph(4), identity_layout(4)) == 1

    def test_k4_any_layout(self):
        lay = Layout((3, 1, 4, 2))
        assert layout_bandwidth(complete_graph(4), lay) == 3

    def test_star_center_at_three(self):
        # center of K_{1,4} labeled 3, leaves at 1,2,4,5
        lay = Layout((3, 1, 2, 4, 5))
        assert layout_bandwidth(star_graph(4), lay) == 2

    def test_edgeless(self):
        assert layout_bandwidth(empty_graph(5), identity_layout(5)) == 0

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            layout_bandwidth(path_graph(3), Layout((1, 1, 2)))
        with pytest.raises(ValueError):
            layout_bandwidth(path_graph(3), Layout((1, 2)))


class TestDegreeLowerBound:
    def test_examples(self):
        assert degree_lower_bound(complete_graph(5)) == 2
        assert degree_lower_bound(star_graph(6)) == 3
        assert degree_lower_bound(path_graph(4)) == 1
        assert degree_lower_bound(empty_graph(3)) == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_sandwich(self, seed):
        g = er_graph(8, 0.5, seed)
        value, _ = exact_bandwidth(g)
        assert degree_lower_bound(g) <= value <= g.n - 1


class TestExactBandwidth:
    def test_paths(self):
        for n in range(2, 13):
            assert exact_bandwidth(path_graph(n))[0] == 1

    def test_cycles(self):
        for n in range(3, 13):
            assert exact_bandwidth(cycle_graph(n))[0] == 2

    def test_complete(self):
        for n in range(2, 13):
            assert exact_bandwidth(complete_graph(n))[0] == n - 1

    def test_witness_achieves_value(self):
        for seed in range(10):
            g = er_graph(9, 0.4, seed)
            value, witness = exact_bandwidth(g)
            assert layout_bandwidth(g, witness) == value

    def test_frozen_random_instance(self):
        # er_graph(8, 0.5, 42): value computed by full permutation enumeration
        g = er_graph(8, 0.5, 42)
        value, _ = exact_bandwidth(g)
        assert value == 4
        assert enumerate_bandwidth(g) == 4

    @pytest.mark.parametrize("seed", range(15))
    def test_agrees_with_enumeration(self, seed):
        g = er_graph(5 + seed % 6, 0.5, 100 + seed)
        assert exact_bandwidth(g)[0] == enumerate_bandwidth(g)

    def test_disconnected(self):
        g = make_graph(5, [(0, 1), (2, 3)])
        value, witness = exact_bandwidth(g)
        assert value == 1
        assert layout_bandwidth(g, witness) == 1

    def test_deterministic_witness(self):
        g = er_graph(8, 0.5, 5)
        assert exact_bandwidth(g) == exact_bandwidth(g)

    def test_cap_refusal(self):
        g = path_graph(15)
        with pytest.raises(OracleCapError):
            exact_bandwidth(g)
        assert exact_bandwidth(g, cap=15)[0] == 1
        with pytest.raises(OracleCapError):
            enumerate_bandwidth(path_graph(11))


class TestBoxRespectingLayouts:
    def test_adjacent_box_edges_stay_under_twice_boxsize(self):
        # edges confined to a box or adjacent boxes give bandwidth < 2B
        rng = random.Random(4)
        for trial in range(20):
            n = rng.randrange(6, 16)
            boxsize = rng.randrange(2, 5)
            box = {v: v // boxsize for v in range(n)}
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if abs(box[u] - box[v]) <= 1 and rng.random() < 0.5
            ]
            if not edges:
                continue
            g = make_graph(n, edges)
            assert layout_bandwidth(g, identity_layout(n)) < 2 * boxsize


class TestLayoutSerialization:
    def test_roundtrip(self):
        lay = Layout((2, 4, 1, 3))
        assert parse_layout(format_layout(lay), 4) == lay

    def test_any_line_order(self):
        assert parse_layout("2 3\n0 1\n1 2\n", 3) == Layout((1, 2, 3))

    def test_missing_vertex(self):
        with pytest.raises(ValueError, match="missing"):
            parse_layout("0 1\n1 2\n", 3)

    def test_duplicate_vertex(self):
        with pytest.raises(ValueError):
            parse_layout("0 1\n0 2\n1 3\n", 3)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            parse_layout("0 1\n1 1\n2 3\n", 3)
