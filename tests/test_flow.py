import random

import pytest

from bandapprox.boxes import (
    build_intervals,
    enumerate_placements,
    make_box_config,
    root_balls,
)
from bandapprox.domset import sample_certified
from bandapprox.flow import (
    approx_bandwidth_alg2,
    build_flow_instance,
    count_intervals,
    flow_to_layout,
    max_flow,
)
from bandapprox.graph import gen_dense_random
from bandapprox.matching import approx_bandwidth_alg1, build_auxiliary
from bandapprox.oracle import layout_bandwidth
from helpers import complete_graph, min_cut_value


def certified_intervals(g, seed, boxsize, nroots=3, placement_index=0):
    """(root set, placement, intervals, box config) of one placement."""
    rs = sample_certified(g, nroots, seed=seed)
    cfg = make_box_config(g.n, boxsize)
    balls = root_balls(g, rs)
    placements = list(enumerate_placements(rs, cfg))
    rp = placements[placement_index % len(placements)]
    return rs, rp, build_intervals(g, rs, rp, cfg, balls), cfg


class TestCountIntervals:
    def test_uniform_class(self):
        cfg = make_box_config(12, 3)
        counts = count_intervals(((2, 4),) * 3 + ((1, 1),) * 9)
        assert counts[(2, 4)] == 3
        assert sum(counts.values()) == 12

    def test_roots_become_degenerate_keys(self):
        g = gen_dense_random(15, 0.4, 2)
        _, rp, intervals, _ = certified_intervals(g, seed=2, boxsize=5)
        counts = count_intervals(intervals)
        for box in rp:
            assert counts.get((box, box), 0) >= 1

    def test_empty_interval_signals_none(self):
        cfg = make_box_config(4, 1)
        assert count_intervals(((1, 2), None, (3, 4), (4, 4))) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_counts_sum_to_n(self, seed):
        g = gen_dense_random(10 + seed * 2, 0.4, seed)
        _, _, intervals, cfg = certified_intervals(g, seed=seed, boxsize=4, placement_index=seed)
        counts = count_intervals(intervals)
        if counts is not None:
            assert sum(counts.values()) == g.n
            assert len(counts) <= 5 * cfg.b


class TestBuildFlowInstance:
    def test_single_interval_single_box(self):
        cfg = make_box_config(4, 4)
        inst = build_flow_instance({(1, 1): 4}, cfg)
        assert max_flow(inst).value == 4

    def test_routing_around_a_full_box(self):
        cfg = make_box_config(6, 3)
        inst = build_flow_instance({(1, 1): 3, (1, 2): 3}, cfg)
        assert max_flow(inst).value == 6

    def test_overfull_box_caps_the_flow(self):
        cfg = make_box_config(4, 3)  # capacities (3, 1)
        inst = build_flow_instance({(1, 1): 4}, cfg)
        assert max_flow(inst).value == 3

    def test_structure_bounds(self):
        cfg = make_box_config(20, 4)
        counts = {(1, 3): 7, (2, 4): 6, (3, 3): 4, (4, 5): 3}
        inst = build_flow_instance(counts, cfg)
        assert inst.node_count <= 2 + 6 * cfg.b
        assert len(inst.arcs) <= 5 * cfg.b + 25 * cfg.b + cfg.b
        # source arcs carry the class sizes; sink arcs the capacities
        assert sum(c for u, v, c in inst.arcs if u == inst.source) == sum(counts.values())
        assert [c for u, v, c in inst.arcs if v == inst.sink] == list(cfg.capacities)

    def test_out_of_range_interval(self):
        cfg = make_box_config(6, 3)
        with pytest.raises(ValueError):
            build_flow_instance({(1, 3): 6}, cfg)
        with pytest.raises(ValueError):
            build_flow_instance({(0, 1): 6}, cfg)


class TestMaxFlow:
    def test_zero_capacity(self):
        cfg = make_box_config(3, 3)
        inst = build_flow_instance({(1, 1): 0}, cfg)
        assert max_flow(inst).value == 0

    def test_single_path(self):
        cfg = make_box_config(5, 5)
        inst = build_flow_instance({(1, 1): 5}, cfg)
        res = max_flow(inst)
        assert res.value == 5
        assert res.arc_flow == (5, 5, 5)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_min_cut(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(4, 12)
        boxsize = rng.randrange(2, max(3, n // 2 + 1))
        cfg = make_box_config(n, boxsize)
        keys = {}
        remaining = n
        while remaining > 0:
            i = rng.randrange(1, cfg.b + 1)
            j = min(cfg.b, i + rng.randrange(0, 3))
            take = rng.randrange(1, remaining + 1)
            keys[(i, j)] = keys.get((i, j), 0) + take
            remaining -= take
        inst = build_flow_instance(keys, cfg)
        assert max_flow(inst).value == min_cut_value(inst)


class TestFlowToLayout:
    def test_single_box_identity_order(self):
        cfg = make_box_config(4, 4)
        intervals = ((1, 1),) * 4
        inst = build_flow_instance(count_intervals(intervals), cfg)
        assert flow_to_layout(max_flow(inst), inst, intervals, cfg).pos == (1, 2, 3, 4)

    def test_split_class_prefers_low_ids_in_early_box(self):
        cfg = make_box_config(6, 3)
        # vertices 0..2 are flexible (boxes 1..2), 3 pinned to box 1,
        # 4 and 5 pinned to box 2: the class must split 2/1
        intervals = ((1, 2), (1, 2), (1, 2), (1, 1), (2, 2), (2, 2))
        inst = build_flow_instance(count_intervals(intervals), cfg)
        layout = flow_to_layout(max_flow(inst), inst, intervals, cfg)
        assert {cfg.box_of(layout.pos[v]) for v in (0, 1)} == {1}
        assert cfg.box_of(layout.pos[2]) == 2

    def test_layout_respects_intervals(self):
        for seed in range(8):
            g = gen_dense_random(12, 0.5, 30 + seed)
            layout, boxsize, stats = approx_bandwidth_alg2(g, seed=seed)
            cfg = make_box_config(g.n, boxsize)
            rs = sample_certified(g, stats.root_count, seed=seed)
            balls = root_balls(g, rs)
            # find the winning placement by rescanning this boxsize
            found = False
            intervals = None
            for rp in enumerate_placements(rs, cfg):
                intervals = build_intervals(g, rs, rp, cfg, balls)
                counts = count_intervals(intervals)
                if counts is None:
                    continue
                res = max_flow(build_flow_instance(counts, cfg))
                if res.value == g.n:
                    found = True
                    break
            assert found and intervals is not None
            for v, (lo, hi) in enumerate(intervals):
                assert lo <= cfg.box_of(layout.pos[v]) <= hi
            # a converted layout is a valid matching in the auxiliary graph
            aux = build_auxiliary(intervals, cfg)
            assert all(layout.pos[v] in aux.adj[v] for v in range(g.n))

    def test_rejects_non_saturating(self):
        cfg = make_box_config(4, 3)
        intervals = ((1, 1),) * 4
        inst = build_flow_instance(count_intervals(intervals), cfg)
        res = max_flow(inst)
        assert res.value == 3
        with pytest.raises(ValueError, match="saturate"):
            flow_to_layout(res, inst, intervals, cfg)

    def test_rejects_flow_of_another_instance(self):
        cfg = make_box_config(4, 2)
        intervals = ((1, 1), (1, 1), (2, 2), (2, 2))
        other = build_flow_instance({(1, 2): 4}, cfg)
        inst = build_flow_instance(count_intervals(intervals), cfg)
        with pytest.raises(ValueError, match="does not match"):
            flow_to_layout(max_flow(other), inst, intervals, cfg)

    def test_rejects_interval_outside_instance(self):
        cfg = make_box_config(4, 2)
        intervals = ((1, 1), (1, 1), (1, 2), (1, 2))
        # as many arcs as the intervals' own instance, but class (2, 2) for (1, 1)
        inst = build_flow_instance({(1, 2): 2, (2, 2): 2}, cfg)
        res = max_flow(inst)
        assert res.value == 4
        assert len(inst.arcs) == len(build_flow_instance(count_intervals(intervals), cfg).arcs)
        with pytest.raises(ValueError, match=r"vertex 0 has interval \(1, 1\)"):
            flow_to_layout(res, inst, intervals, cfg)


class TestPipeline:
    def test_complete_graph(self):
        g = complete_graph(10)
        layout, _, _ = approx_bandwidth_alg2(g, seed=1)
        assert layout_bandwidth(g, layout) == 9

    @pytest.mark.parametrize("seed", range(10))
    def test_verdicts_match_alg1(self, seed):
        g = gen_dense_random(12, 0.5, 300 + seed)
        l1, b1, s1 = approx_bandwidth_alg1(g, seed=seed, record_trace=True)
        l2, b2, s2 = approx_bandwidth_alg2(g, seed=seed, record_trace=True)
        assert b1 == b2
        assert s1.trace == s2.trace

    def test_box_size_search_has_no_modes(self):
        with pytest.raises(TypeError):
            approx_bandwidth_alg2(complete_graph(6), search="binary")

    def test_instance_size_independent_of_n(self):
        sizes = {}
        for n in (30, 60, 120):
            g = gen_dense_random(n, 0.4, 5)
            _, _, stats = approx_bandwidth_alg2(g, seed=5)
            sizes[n] = stats.max_flow_nodes
            assert stats.max_interval_keys <= 5 * n  # loose sanity; tight below
        # node counts depend on b, not n; b shrinks as boxsize grows with n
        assert max(sizes.values()) <= 2 + 6 * 8
