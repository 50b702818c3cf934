import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bandapprox.flow import approx_bandwidth_alg2
from bandapprox.graph import (
    Graph,
    GraphParseError,
    bfs_from_set,
    density,
    gen_dense_random,
    hop_balls,
    make_graph,
    min_degree,
    parse_graph,
    serialize_graph,
)
from bandapprox.matching import approx_bandwidth_alg1, approx_bandwidth_baseline
from bandapprox.oracle import Layout, exact_bandwidth, layout_bandwidth
from helpers import (
    complete_graph,
    cycle_graph,
    empty_graph,
    er_graph,
    floyd_warshall_from_set,
    frozen_gen_dense_random,
    path_graph,
)


class TestParse:
    def test_path(self):
        g = parse_graph("3 2\n0 1\n1 2")
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_k4(self):
        g = parse_graph("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
        assert g.m == 6
        assert all(g.degree(v) == 3 for v in range(4))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("2 1\n0 0")
        assert exc.value.line_no == 2
        assert "self-loop" in str(exc.value)

    def test_duplicate_rejected(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("3 2\n0 1\n1 0")
        assert exc.value.line_no == 3

    def test_out_of_range_id(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("3 1\n0 3")
        assert exc.value.line_no == 2

    def test_malformed_line(self):
        with pytest.raises(GraphParseError):
            parse_graph("3 1\n0 1 2")
        with pytest.raises(GraphParseError):
            parse_graph("3 1\nzero 1")

    def test_bad_header(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("three 2\n0 1\n1 2")
        assert exc.value.line_no == 1

    def test_wrong_edge_count(self):
        with pytest.raises(GraphParseError):
            parse_graph("3 2\n0 1")
        with pytest.raises(GraphParseError):
            parse_graph("3 1\n0 1\n1 2")

    def test_trailing_blank_line_ok(self):
        g = parse_graph("2 1\n0 1\n\n")
        assert g.m == 1

    def test_blank_line_between_edges_is_skipped(self):
        assert parse_graph("3 2\n0 1\n\n1 2\n").edges == parse_graph("3 2\n0 1\n1 2\n").edges

    def test_leading_blank_line_is_a_missing_header(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("\n3 2\n0 1\n1 2\n")
        assert exc.value.line_no == 1

    def test_roundtrip_examples(self):
        for g in (path_graph(5), complete_graph(6), empty_graph(3)):
            assert parse_graph(serialize_graph(g)).edges == g.edges

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 12), st.floats(0.1, 0.9), st.integers(0, 10**6))
    def test_roundtrip_random(self, n, p, seed):
        g = er_graph(n, p, seed)
        back = parse_graph(serialize_graph(g))
        assert back.n == g.n and back.edges == g.edges


class TestDegrees:
    def test_min_degree(self):
        assert min_degree(complete_graph(4)) == 3
        assert min_degree(path_graph(3)) == 1
        assert min_degree(make_graph(3, [(0, 1)])) == 0  # isolated vertex

    def test_density(self):
        assert density(complete_graph(4)) == Fraction(3, 4)
        assert density(cycle_graph(6)) == Fraction(2, 6)
        assert density(empty_graph(4)) == 0


class TestBfs:
    def test_path_from_endpoint(self):
        assert bfs_from_set(path_graph(4), [0]) == (0, 1, 2, 3)

    def test_all_sources(self):
        g = er_graph(7, 0.4, 3)
        assert bfs_from_set(g, range(7)) == (0,) * 7

    def test_k5_single_source(self):
        assert bfs_from_set(complete_graph(5), [2]) == (1, 1, 0, 1, 1)

    def test_unreachable_sentinel(self):
        g = make_graph(4, [(0, 1)])
        assert bfs_from_set(g, [0]) == (0, 1, None, None)

    def test_layers(self):
        dist = bfs_from_set(path_graph(5), [0])
        assert [v for v, d in enumerate(dist) if d == 1] == [1]
        assert [v for v, d in enumerate(dist) if d == 2] == [2]

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            bfs_from_set(path_graph(3), [])

    def test_neighbor_distances_differ_by_at_most_one(self):
        g = er_graph(20, 0.2, 9)
        dist = bfs_from_set(g, [0, 5])
        for u, v in g.edges:
            du, dv = dist[u], dist[v]
            if du is not None and dv is not None:
                assert abs(du - dv) <= 1

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_floyd_warshall(self, seed):
        n = (10, 21, 34, 50)[seed % 4]
        g = er_graph(n, 0.12, seed)  # sparse enough to be disconnected sometimes
        sources = [seed % n, (seed * 7 + 1) % n]
        assert list(bfs_from_set(g, sources)) == floyd_warshall_from_set(g, sources)


class TestBitsetBfs:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 24), st.floats(0.0, 0.4), st.integers(0, 10**6), st.data())
    def test_multi_source_matches_floyd_warshall(self, n, p, seed, data):
        g = er_graph(n, p, seed)  # sparse draws leave it disconnected
        sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        assert list(bfs_from_set(g, sources)) == floyd_warshall_from_set(g, sources)

    def test_disconnected_components(self):
        # a path 0-3, a 5-cycle 4-8, an edge 9-10 and the isolated vertex 11
        edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 8), (4, 8), (9, 10)]
        g = make_graph(12, edges)
        for sources in ([0], [3, 6], [11], [2, 9, 11], list(range(12))):
            assert list(bfs_from_set(g, sources)) == floyd_warshall_from_set(g, sources)
        assert bfs_from_set(g, [3, 6]) == (3, 2, 1, 0, 2, 1, 0, 1, 2, None, None, None)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 24), st.floats(0.0, 0.4), st.integers(0, 10**6), st.data())
    def test_hop_balls_match_floyd_warshall(self, n, p, seed, data):
        g = er_graph(n, p, seed)  # sparse draws leave it disconnected
        sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        radius = data.draw(st.integers(0, 4))
        dist = floyd_warshall_from_set(g, sources)
        expected = [
            sum(1 << v for v, d in enumerate(dist) if d is not None and d <= h)
            for h in range(radius + 1)
        ]
        assert hop_balls(g, sources, radius) == expected

    def test_hop_balls_reject_bad_sources(self):
        g = path_graph(3)
        for sources in ([], [3], [0, -1]):
            with pytest.raises(ValueError):
                hop_balls(g, sources, 1)

    def test_masks_hold_the_adjacency(self):
        g = er_graph(30, 0.3, 5)
        assert g.adj_masks == tuple(sum(1 << w for w in row) for row in g.adj)

    def test_constructors_leave_masks_unbuilt(self):
        text = serialize_graph(er_graph(12, 0.3, 2))
        for g in (make_graph(4, [(0, 1), (2, 3)]), parse_graph(text), gen_dense_random(20, 0.3, 1)):
            assert "adj_masks" not in vars(g) and "edges" not in vars(g)
            bfs_from_set(g, [0])
            assert "adj_masks" in vars(g)

    def test_pipelines_leave_edges_unbuilt(self):
        g = parse_graph(serialize_graph(gen_dense_random(30, 0.4, 3)))
        runs = (
            lambda: approx_bandwidth_alg1(g, seed=1),
            lambda: approx_bandwidth_alg2(g, seed=1),
            lambda: approx_bandwidth_alg2(g, seed=1, use_3hop=False),
            lambda: approx_bandwidth_baseline(g, seed=1),
        )
        for run in runs:
            run()
            assert "edges" not in vars(g)

    def test_oracle_leaves_edges_unbuilt(self):
        g = parse_graph(serialize_graph(gen_dense_random(30, 0.4, 3)))
        assert layout_bandwidth(g, Layout(tuple(range(1, 31)))) > 0
        small = parse_graph(serialize_graph(gen_dense_random(12, 0.4, 3)))
        exact_bandwidth(small)
        assert "edges" not in vars(g) and "edges" not in vars(small)

    def test_built_masks_leave_equality_and_hash_alone(self):
        g, h = gen_dense_random(25, 0.3, 4), gen_dense_random(25, 0.3, 4)
        before = hash(g)
        g.adj_masks
        g.edges
        assert "edges" not in vars(h)
        assert g == h and hash(g) == hash(h) == before
        assert repr(g) == repr(h)
        assert g != gen_dense_random(25, 0.3, 5)


class TestGenerator:
    def test_high_delta_forces_complete(self):
        for seed in (0, 1, 2):
            g = gen_dense_random(10, 0.9, seed)
            assert min_degree(g) == 9
            assert g.m == 45

    def test_min_degree_target(self):
        g = gen_dense_random(50, 0.5, 7)
        assert min_degree(g) >= 25

    def test_two_vertices(self):
        g = gen_dense_random(2, 0.6, 1)
        assert g.edges == ((0, 1),)

    def test_density_invariant_many_seeds(self):
        for seed in range(100):
            g = gen_dense_random(30, 0.35, seed)
            assert density(g) >= 0.35

    def test_deterministic(self):
        a = gen_dense_random(25, 0.4, 11)
        b = gen_dense_random(25, 0.4, 11)
        assert a.edges == b.edges

    def test_draws_the_frozen_generators_graphs(self):
        top_ups: list[int] = []
        for n in (2, 3, 9, 13, 20, 31, 50, 64):
            for delta in (0.05, 0.2, 0.35, 0.6, 0.9):
                for seed in range(6):
                    expected = frozen_gen_dense_random(n, delta, seed, top_ups)
                    g = gen_dense_random(n, delta, seed)
                    assert g == expected, (n, delta, seed)
                    assert g.edges == expected.edges, (n, delta, seed)
        # both branches are covered: drawn alone and topped up
        assert 0 < sum(1 for added in top_ups if added) < len(top_ups)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gen_dense_random(1, 0.5, 0)
        with pytest.raises(ValueError):
            gen_dense_random(10, 0.0, 0)
        with pytest.raises(ValueError):
            gen_dense_random(10, 1.0, 0)


class TestMakeGraph:
    def test_rejects_duplicates_and_loops(self):
        with pytest.raises(ValueError):
            make_graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            make_graph(3, [(2, 2)])
        with pytest.raises(ValueError):
            make_graph(3, [(0, 3)])

    @pytest.mark.parametrize("edges", [[(0, 3)], [(-1, 0)], [(2, 2)], [(0, 1), (1, 0)]])
    def test_parse_graph_applies_the_same_rules(self, edges):
        with pytest.raises(ValueError) as made:
            make_graph(3, edges)
        text = f"3 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        with pytest.raises(GraphParseError) as parsed:
            parse_graph(text)
        assert parsed.value.line_no == len(edges) + 1
        assert str(parsed.value) == f"line {len(edges) + 1}: {made.value}"

    def test_adjacency_symmetric_and_sorted(self):
        g = make_graph(4, [(2, 0), (3, 1), (0, 1)])
        for u in range(4):
            assert list(g.adj[u]) == sorted(g.adj[u])
            for v in g.adj[u]:
                assert u in g.adj[v]


def reference_graph(n, edges):
    """The graph of an edge set built the plain way: normalise each edge to
    ``(min, max)``, drop repeats, then sort each adjacency row."""
    seen = {(min(e), max(e)) for e in edges}
    rows = [[] for _ in range(n)]
    for u, v in seen:
        rows[u].append(v)
        rows[v].append(u)
    return Graph(n=n, adj=tuple(tuple(sorted(row)) for row in rows))


class TestConstruction:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 40), st.floats(0.0, 0.6), st.integers(0, 10**6))
    def test_make_and_parse_match_a_reference_construction(self, n, p, seed):
        g = er_graph(n, p, seed)
        edges = list(g.edges)
        random.Random(seed).shuffle(edges)
        edges = [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(edges)]
        expected = reference_graph(n, edges)
        text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        for built in (make_graph(n, edges), parse_graph(text)):
            assert built == expected
            assert built.edges == expected.edges == tuple(sorted({(min(e), max(e)) for e in edges}))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 40), st.floats(0.01, 0.99), st.integers(0, 10**6))
    def test_edges_and_m_are_read_off_the_rows(self, n, delta, seed):
        for g in (gen_dense_random(n, delta, seed), er_graph(n, delta, seed)):
            pairs = sorted((u, v) for u in range(n) for v in g.adj[u] if u < v)
            assert g.edges == tuple(pairs)
            assert g.m == len(g.edges)
