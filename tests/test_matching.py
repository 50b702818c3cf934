import random

import pytest

from bandapprox.boxes import (
    build_intervals,
    enumerate_placements,
    make_box_config,
    root_balls,
)
from bandapprox.domset import RootSet, sample_certified
from bandapprox.flow import approx_bandwidth_alg2, build_flow_instance, count_intervals
from bandapprox.graph import gen_dense_random, make_graph
from bandapprox.matching import (
    AuxGraph,
    Matching,
    approx_bandwidth_alg1,
    approx_bandwidth_baseline,
    build_auxiliary,
    matching_to_layout,
    max_matching,
    normalize_matching,
)
from bandapprox.oracle import exact_bandwidth, layout_bandwidth
from helpers import box_gap_violations, brute_force_matching_size, complete_graph


def pinned_intervals(g, seed, boxsize, nroots=3):
    rs = sample_certified(g, nroots, seed=seed)
    cfg = make_box_config(g.n, boxsize)
    balls = root_balls(g, rs)
    rp = next(iter(enumerate_placements(rs, cfg)))
    return build_intervals(g, rs, rp, cfg, balls), cfg


class TestBuildAuxiliary:
    def test_single_box_is_complete_bipartite(self):
        g = gen_dense_random(4, 0.5, 0)
        intervals, cfg = pinned_intervals(g, seed=0, boxsize=4, nroots=1)
        aux = build_auxiliary(intervals, cfg)
        assert all(aux.adj[v] == (1, 2, 3, 4) for v in range(4))

    def test_empty_interval_isolates_vertex(self):
        g = make_graph(7, [(i, i + 1) for i in range(6)])
        rs = RootSet(roots=(0, 4), hop_radius=2, certified=True)
        cfg = make_box_config(7, 1)
        aux = build_auxiliary(build_intervals(g, rs, (1, 7), cfg, root_balls(g, rs)), cfg)
        assert aux.adj[2] == ()
        assert not max_matching(aux).is_perfect(7)

    def test_degree_counts_positions_of_interval(self):
        cfg = make_box_config(6, 2)
        aux = build_auxiliary(((1, 2), (1, 2), (1, 1), (2, 3), (3, 3), (2, 2)), cfg)
        assert aux.adj[0] == (1, 2, 3, 4)  # 2 boxes x 2 positions
        assert aux.adj[1] == (1, 2, 3, 4)

    @pytest.mark.parametrize("bad", [(0, 1), (1, 3), (2, 1)])  # lo = 0, hi = b+1, lo > hi
    def test_malformed_interval_rejected_like_the_flow_builder(self, bad):
        cfg = make_box_config(4, 2)
        intervals = (bad, (1, 1), (2, 2), (2, 2))
        message = rf"interval \({bad[0]}, {bad[1]}\) out of range for b=2"
        with pytest.raises(ValueError, match=message):
            build_auxiliary(intervals, cfg)
        with pytest.raises(ValueError, match=message):
            build_flow_instance(count_intervals(intervals), cfg)

    def test_degree_bounded_by_window(self):
        for seed in range(5):
            g = gen_dense_random(20, 0.35, seed)
            intervals, cfg = pinned_intervals(g, seed=seed, boxsize=3)
            aux = build_auxiliary(intervals, cfg)
            for row in aux.adj:
                assert len(row) <= 5 * cfg.boxsize


class TestMaxMatching:
    def test_complete_bipartite(self):
        aux = AuxGraph(n=5, adj=tuple(tuple(range(1, 6)) for _ in range(5)))
        assert max_matching(aux).is_perfect(5)

    def test_isolated_vertex(self):
        aux = AuxGraph(n=4, adj=((), (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4)))
        assert max_matching(aux).size == 3

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 13)
        adj = tuple(
            tuple(p for p in range(1, n + 1) if rng.random() < 0.4) for _ in range(n)
        )
        assert max_matching(AuxGraph(n=n, adj=adj)).size == brute_force_matching_size(adj)

    def test_interval_shaped_instances_match_brute_force(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randrange(6, 13)
            boxsize = rng.randrange(2, 5)
            cfg = make_box_config(n, boxsize)
            intervals = []
            for _v in range(n):
                if rng.random() < 0.1:
                    intervals.append(None)
                else:
                    lo = rng.randrange(1, cfg.b + 1)
                    hi = min(cfg.b, lo + rng.randrange(0, 5))
                    intervals.append((lo, hi))
            aux = build_auxiliary(tuple(intervals), cfg)
            assert max_matching(aux).size == brute_force_matching_size(aux.adj)

    def test_pairs_respect_adjacency(self):
        rng = random.Random(99)
        adj = tuple(
            tuple(p for p in range(1, 11) if rng.random() < 0.3) for _ in range(10)
        )
        m = max_matching(AuxGraph(n=10, adj=adj))
        used = set()
        for v, p in m.pairs:
            assert p in adj[v]
            assert p not in used
            used.add(p)


class TestMatchingToLayout:
    def test_explicit_example(self):
        m = Matching(pairs=((0, 2), (1, 1), (2, 3)))
        cfg = make_box_config(3, 1)
        assert matching_to_layout(m, cfg).pos == (2, 1, 3)

    def test_identity(self):
        m = Matching(pairs=tuple((v, v + 1) for v in range(4)))
        cfg = make_box_config(4, 2)
        assert matching_to_layout(m, cfg).pos == (1, 2, 3, 4)

    def test_rejects_non_perfect(self):
        with pytest.raises(ValueError):
            matching_to_layout(Matching(pairs=((0, 1),)), make_box_config(2, 1))

    def test_normalize_sorts_within_boxes(self):
        # vertices 0 and 1 both in box 1; normalization gives 0 the earlier slot
        m = Matching(pairs=((0, 2), (1, 1), (2, 3), (3, 4)))
        cfg = make_box_config(4, 2)
        norm = normalize_matching(m, cfg)
        assert norm.pairs == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_normalize_keys_on_the_vertex_not_the_pair_order(self):
        cfg = make_box_config(5, 2)
        pairs = ((0, 5), (1, 2), (2, 3), (3, 1), (4, 4))
        shuffled = Matching(pairs=(pairs[3], pairs[0], pairs[4], pairs[2], pairs[1]))
        norm = normalize_matching(Matching(pairs=pairs), cfg)
        assert normalize_matching(shuffled, cfg) == norm
        assert norm.pairs == ((0, 5), (1, 1), (2, 3), (3, 2), (4, 4))


class TestPipeline:
    def test_complete_graph(self):
        for n in (9, 12):
            g = complete_graph(n)
            for approx in (approx_bandwidth_alg1, approx_bandwidth_alg2,
                           approx_bandwidth_baseline):
                layout, boxsize, stats = approx(g, seed=3)
                assert layout_bandwidth(g, layout) == n - 1
                assert stats.configs_tried >= 1

    def test_ratio_bound_small_dense(self):
        for seed in range(12):
            g = gen_dense_random(8 + seed % 5, 0.5, 60 + seed)
            exact, _ = exact_bandwidth(g)
            layout, _, _ = approx_bandwidth_alg1(g, seed=seed)
            assert layout_bandwidth(g, layout) <= 6 * exact
            loose, _, _ = approx_bandwidth_alg1(g, seed=seed, use_3hop=False)
            assert layout_bandwidth(g, loose) <= 10 * exact

    def test_box_gap_case_analysis(self):
        for seed in range(10):
            g = gen_dense_random(12, 0.5, 200 + seed)
            layout, boxsize, stats = approx_bandwidth_alg1(g, seed=seed, record_trace=True)
            rs = sample_certified(g, stats.root_count, seed=seed)
            cfg = make_box_config(g.n, boxsize)
            winning = stats.trace[-1]
            assert winning[2] is True
            assert box_gap_violations(g, layout, rs, winning[1], cfg) == []

    def test_perfect_matching_exists_at_optimal_configuration(self):
        for seed in range(6):
            g = gen_dense_random(10, 0.5, 70 + seed)
            value, witness = exact_bandwidth(g)
            cfg = make_box_config(g.n, max(value, 1))
            rs = sample_certified(g, 3, seed=seed)
            balls = root_balls(g, rs)
            rp = tuple(cfg.box_of(witness.pos[r]) for r in rs.roots)
            aux = build_auxiliary(build_intervals(g, rs, rp, cfg, balls), cfg)
            assert max_matching(aux).is_perfect(g.n)

    def test_deterministic(self):
        g = gen_dense_random(14, 0.5, 12)
        first = approx_bandwidth_alg1(g, seed=4)
        second = approx_bandwidth_alg1(g, seed=4)
        assert first[0] == second[0] and first[1] == second[1]
        assert first[2].configs_tried == second[2].configs_tried

    def test_baseline_ratio(self):
        for seed in range(8):
            g = gen_dense_random(8 + seed % 5, 0.5, 90 + seed)
            exact, _ = exact_bandwidth(g)
            layout, _, stats = approx_bandwidth_baseline(g, seed=seed)
            assert stats.hop_radius == 1
            assert layout_bandwidth(g, layout) <= 4 * exact  # 3x nominal + 1 slack

    def test_isolated_vertex_rejected(self):
        g = make_graph(4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="density"):
            approx_bandwidth_alg1(g, seed=0)
