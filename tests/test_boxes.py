import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bandapprox.boxes import (
    PlacementPrefix,
    RootPlacement,
    build_intervals,
    enumerate_placements,
    make_box_config,
    root_balls,
    root_distances,
    root_twins,
    root_windows,
    update_intervals,
)
from bandapprox.domset import RootSet, sample_certified
from bandapprox.graph import gen_dense_random, make_graph
from bandapprox.oracle import exact_bandwidth
from helpers import (
    complete_graph,
    er_graph,
    floyd_warshall_from_set,
    path_graph,
    planted_band,
    reference_intervals,
)


def subdivided_star():
    # 0 adjacent to 1,3,4,5,6; 2 hangs off 1, so d(0,2) = 2
    return make_graph(7, [(0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2)])


class TestBoxConfig:
    def test_examples(self):
        cfg = make_box_config(10, 3)
        assert cfg.b == 4 and cfg.capacities == (3, 3, 3, 1)
        cfg = make_box_config(10, 10)
        assert cfg.b == 1 and cfg.capacities == (10,)
        cfg = make_box_config(10, 5)
        assert cfg.b == 2 and cfg.capacities == (5, 5)

    def test_invalid_boxsize(self):
        with pytest.raises(ValueError):
            make_box_config(10, 0)
        with pytest.raises(ValueError):
            make_box_config(10, 11)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 200), st.data())
    def test_capacities_partition_positions(self, n, data):
        boxsize = data.draw(st.integers(1, n))
        cfg = make_box_config(n, boxsize)
        assert sum(cfg.capacities) == n
        assert all(c >= 1 for c in cfg.capacities)
        assert [p for k in range(1, cfg.b + 1) for p in cfg.positions(k)] == list(
            range(1, n + 1)
        )
        for k in range(1, cfg.b + 1):
            assert all(cfg.box_of(p) == k for p in cfg.positions(k))

    def test_box_count_bounded_by_inverse_density(self):
        # boxsize >= delta*n gives at most ceil(1/delta) + 1 boxes
        for n in (10, 37, 100):
            for delta in (0.1, 0.25, 0.4, 0.6):
                lo = math.ceil(delta * n)
                for boxsize in range(max(1, lo), n + 1):
                    cfg = make_box_config(n, boxsize)
                    assert cfg.b <= math.ceil(1 / delta) + 1


class TestEnumeratePlacements:
    def test_single_root_order(self):
        rs = RootSet(roots=(2,), hop_radius=2, certified=True)
        cfg = make_box_config(6, 2)
        boxes = [rp.boxes for rp in enumerate_placements(rs, cfg)]
        assert boxes == [(1,), (2,), (3,)]

    def test_capacity_binds(self):
        rs = RootSet(roots=(0, 1), hop_radius=2, certified=True)
        cfg = make_box_config(2, 1)  # two boxes of capacity 1
        boxes = [rp.boxes for rp in enumerate_placements(rs, cfg)]
        assert boxes == [(1, 2), (2, 1)]

    def test_count_with_ample_capacity(self):
        rs = RootSet(roots=(0, 1, 2), hop_radius=2, certified=True)
        cfg = make_box_config(16, 4)
        placements = list(enumerate_placements(rs, cfg))
        assert len(placements) == 64
        assert placements == sorted(placements)

    def test_respects_capacities(self):
        rs = RootSet(roots=(0, 1, 2, 3), hop_radius=2, certified=True)
        cfg = make_box_config(7, 3)  # capacities (3, 3, 1)
        for rp in enumerate_placements(rs, cfg):
            for box in range(1, cfg.b + 1):
                assert rp.boxes.count(box) <= cfg.capacities[box - 1]


class TestBuildIntervals:
    def test_single_root_window(self):
        g = subdivided_star()
        rs = RootSet(roots=(0,), hop_radius=2, certified=True)
        cfg = make_box_config(7, 1)
        table = build_intervals(
            g, rs, RootPlacement(roots=(0,), boxes=(3,)), cfg, root_balls(g, rs)
        )
        assert table.intervals[2] == (1, 5)

    def test_two_roots_intersect(self):
        g = path_graph(7)
        rs = RootSet(roots=(0, 4), hop_radius=2, certified=True)
        cfg = make_box_config(7, 1)
        table = build_intervals(
            g, rs, RootPlacement(roots=(0, 4), boxes=(1, 5)), cfg, root_balls(g, rs)
        )
        assert table.intervals[2] == (3, 3)

    def test_disjoint_windows_empty(self):
        g = path_graph(7)
        rs = RootSet(roots=(0, 4), hop_radius=2, certified=True)
        cfg = make_box_config(7, 1)
        table = build_intervals(
            g, rs, RootPlacement(roots=(0, 4), boxes=(1, 7)), cfg, root_balls(g, rs)
        )
        assert table.intervals[2] is None

    def test_roots_pinned_to_their_box(self):
        g = gen_dense_random(20, 0.4, 3)
        rs = sample_certified(g, 3, seed=1)
        cfg = make_box_config(20, 5)
        rp = next(iter(enumerate_placements(rs, cfg)))
        table = build_intervals(g, rs, rp, cfg, root_balls(g, rs))
        for root, box in zip(rp.roots, rp.boxes):
            assert table.intervals[root] == (box, box)

    def test_unconstrained_vertex_raises(self):
        # vertex 3 is three hops from the only root: certified by mistake
        g = path_graph(5)
        rs = RootSet(roots=(0,), hop_radius=2, certified=True)
        cfg = make_box_config(5, 1)
        with pytest.raises(AssertionError, match="vertex 3 unconstrained"):
            build_intervals(
                g, rs, RootPlacement(roots=(0,), boxes=(1,)), cfg, root_balls(g, rs)
            )

    @pytest.mark.parametrize("hop_radius,use_3hop", [(2, True), (2, False), (1, False)])
    def test_matches_reference_derivation(self, hop_radius, use_3hop):
        graphs = [gen_dense_random(16, 0.4, 500 + seed) for seed in range(4)]
        if hop_radius == 2:  # path powers put vertices three hops from a root
            graphs += [planted_band(16, 3, seed) for seed in range(2)]
        for seed, g in enumerate(graphs):
            rs = sample_certified(g, 3, seed=seed, hop_radius=hop_radius)
            dists = root_distances(g, rs)
            balls = root_balls(g, rs)
            for boxsize in (2, 3, 5):
                cfg = make_box_config(g.n, boxsize)
                for rp in enumerate_placements(rs, cfg):
                    table = build_intervals(g, rs, rp, cfg, balls, use_3hop=use_3hop)
                    assert table.intervals == reference_intervals(g, rs, rp, cfg, dists, use_3hop)

    def test_uncertified_rejected(self):
        g = path_graph(5)
        rs = RootSet(roots=(0,), hop_radius=2, certified=False)
        cfg = make_box_config(5, 1)
        with pytest.raises(ValueError, match="certified"):
            build_intervals(
                g, rs, RootPlacement(roots=(0,), boxes=(1,)), cfg, root_balls(g, rs)
            )

    def test_width_at_most_five_boxes(self):
        for seed in range(10):
            g = gen_dense_random(24, 0.3, seed)
            rs = sample_certified(g, 3, seed=seed)
            cfg = make_box_config(24, 2)  # many boxes so clipping rarely hides width
            balls = root_balls(g, rs)
            for i, rp in enumerate(enumerate_placements(rs, cfg)):
                if i >= 40:
                    break
                table = build_intervals(g, rs, rp, cfg, balls)
                for iv in table.intervals:
                    if iv is not None:
                        assert iv[1] - iv[0] <= 4

    def test_three_hop_windows_only_when_enabled(self):
        # vertex 6 is at distance 3 from root 0 on a path; with the wider
        # window off it is unconstrained by 0 (only by root 4)
        g = make_graph(8, [(i, i + 1) for i in range(7)])
        rs = RootSet(roots=(1, 5), hop_radius=2, certified=True)
        cfg = make_box_config(8, 1)
        balls = root_balls(g, rs)
        rp = RootPlacement(roots=(1, 5), boxes=(1, 8))
        tightened = build_intervals(g, rs, rp, cfg, balls, use_3hop=True)
        loose = build_intervals(g, rs, rp, cfg, balls, use_3hop=False)
        # d(4,1)=3: tightened intersects [8-2,8+2] with [1-3,1+3]
        assert tightened.intervals[4] is None
        assert loose.intervals[4] == (6, 8)

    def test_optimal_layout_placement_is_consistent(self):
        # bin the roots of an exactly-solved instance by their optimal
        # positions: every interval must contain the vertex's optimal box
        for seed in range(6):
            g = gen_dense_random(10, 0.5, 40 + seed)
            value, witness = exact_bandwidth(g)
            boxsize = max(value, 1)
            cfg = make_box_config(g.n, boxsize)
            rs = sample_certified(g, 3, seed=seed)
            rp = RootPlacement(
                roots=rs.roots,
                boxes=tuple(cfg.box_of(witness.pos[r]) for r in rs.roots),
            )
            table = build_intervals(g, rs, rp, cfg, root_balls(g, rs))
            for v in range(g.n):
                iv = table.intervals[v]
                assert iv is not None
                assert iv[0] <= cfg.box_of(witness.pos[v]) <= iv[1]


class TestUpdateIntervals:
    def _setup(self, seed, n=18, boxsize=3):
        g = gen_dense_random(n, 0.4, seed)
        rs = sample_certified(g, 3, seed=seed)
        cfg = make_box_config(n, boxsize)
        dists = root_distances(g, rs)
        return g, rs, cfg, dists

    def test_identity_update(self):
        g, rs, cfg, _ = self._setup(0)
        rp = next(iter(enumerate_placements(rs, cfg)))
        table = build_intervals(g, rs, rp, cfg, root_balls(g, rs))
        assert update_intervals(table, rp, rp) == table

    def test_shift_by_one_box(self):
        g = subdivided_star()
        rs = RootSet(roots=(0,), hop_radius=2, certified=True)
        cfg = make_box_config(7, 1)
        old = RootPlacement(roots=(0,), boxes=(3,))
        new = RootPlacement(roots=(0,), boxes=(4,))
        table = build_intervals(g, rs, old, cfg, root_balls(g, rs))
        shifted = update_intervals(table, old, new)
        assert table.intervals[2] == (1, 5)
        assert shifted.intervals[2] == (2, 6)

    def _random_updates(self, g, rs, cfg, dists, seed):
        rng = random.Random(seed)
        placements = list(enumerate_placements(rs, cfg))
        current = placements[0]
        table = build_intervals(g, rs, current, cfg, root_balls(g, rs))
        for _ in range(25):
            target = rng.choice(placements)
            table = update_intervals(table, current, target)
            assert table.intervals == reference_intervals(g, rs, target, cfg, dists)
            current = target

    @pytest.mark.parametrize("seed", range(6))
    def test_update_equals_fresh_build(self, seed):
        self._random_updates(*self._setup(seed), seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_update_with_three_hop_windows(self, seed):
        # a path power has vertices three hops from a root, unlike the
        # dense graphs of _setup, so the +/-3 windows take part
        g = planted_band(18, 3, seed)
        rs = sample_certified(g, 3, seed=seed)
        dists = root_distances(g, rs)
        assert any(root_windows(rs, root_balls(g, rs), g.n)[1])
        self._random_updates(g, rs, make_box_config(g.n, 3), dists, seed)

    def test_exhaustive_small_instance(self):
        g, rs, cfg, dists = self._setup(3, n=12, boxsize=4)
        placements = list(enumerate_placements(rs, cfg))
        assert len(placements) <= cfg.b ** len(rs.roots)
        table = build_intervals(g, rs, placements[0], cfg, root_balls(g, rs))
        current = placements[0]
        for rp in placements:
            table = update_intervals(table, current, rp)
            current = rp
            assert table.intervals == reference_intervals(g, rs, rp, cfg, dists)

    def test_mismatch_errors(self):
        g, rs, cfg, _ = self._setup(1)
        placements = list(enumerate_placements(rs, cfg))
        table = build_intervals(g, rs, placements[0], cfg, root_balls(g, rs))
        with pytest.raises(ValueError, match="different placement"):
            update_intervals(table, placements[1], placements[2])
        stranger = RootPlacement(roots=(0, 1, 2), boxes=placements[0].boxes)
        if stranger.roots != rs.roots:
            with pytest.raises(ValueError, match="mismatch"):
                update_intervals(table, placements[0], stranger)


def every_vertex_a_root(g, hop_radius=2):
    return RootSet(roots=tuple(range(g.n)), hop_radius=hop_radius, certified=True)


class TestRootTwins:
    @pytest.mark.parametrize("n,seed", [(49, 43), (50, 0), (58, 4)])
    def test_diameter_two_roots_form_one_class(self, n, seed):
        g = gen_dense_random(n, 0.3, seed)
        assert max(max(floyd_warshall_from_set(g, [v])) for v in range(g.n)) == 2
        rs = sample_certified(g, 8, seed=seed)
        assert root_twins(root_balls(g, rs)) == tuple(range(-1, 7))

    def test_one_hop_windows_of_a_complete_graph(self):
        g = complete_graph(6)
        rs = every_vertex_a_root(g, hop_radius=1)
        assert root_twins(root_balls(g, rs)) == tuple(range(-1, 5))

    def test_planted_band_pairs_its_middle_vertices(self):
        # in the 6th power of a 24-vertex path only the two middle vertices
        # reach every vertex within two hops, and no other two-hop ball
        # repeats
        g = planted_band(24, 6, 0)
        middle = [v for v in range(g.n) if max(floyd_warshall_from_set(g, [v])) == 2]
        assert len(middle) == 2
        rs = every_vertex_a_root(g)
        twins = root_twins(root_balls(g, rs))
        assert [(d, t) for d, t in enumerate(twins) if t >= 0] == [(middle[1], middle[0])]

    @pytest.mark.parametrize("hop_radius", [1, 2])
    def test_path_has_no_twins(self, hop_radius):
        g = path_graph(12)
        rs = every_vertex_a_root(g, hop_radius)
        assert root_twins(root_balls(g, rs)) == (-1,) * 12


class TestRootBalls:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 24), st.floats(0.0, 0.4), st.integers(0, 10**6),
           st.sampled_from([1, 2]), st.data())
    def test_balls_and_rings_match_floyd_warshall(self, n, p, seed, hop_radius, data):
        g = er_graph(n, p, seed)  # sparse draws leave it disconnected
        roots = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True))
        rs = RootSet(roots=tuple(sorted(roots)), hop_radius=hop_radius)
        balls = root_balls(g, rs)
        assert len(balls) == len(rs.roots)
        for u, (ball, ring) in zip(rs.roots, balls):
            dist = floyd_warshall_from_set(g, [u])
            assert ball == sum(1 << v for v, d in enumerate(dist) if d is not None and d <= hop_radius)
            assert ring == sum(1 << v for v, d in enumerate(dist) if d == hop_radius + 1)


def window_signature(rs, dists, v, use_3hop):
    """How each root sees ``v``, straight from hop distances: near, far or
    outside its windows."""
    out = []
    for u in rs.roots:
        d = dists[u][v]
        if d is not None and d <= rs.hop_radius:
            out.append("near")
        elif use_3hop and rs.hop_radius == 2 and d == 3:
            out.append("far")
        else:
            out.append("out")
    return tuple(out)


def class_cases():
    """(graph, root set, use_3hop) over the three window rules; the path
    powers put vertices three hops from a root and split the non-roots
    into many classes."""
    for seed in range(3):
        g = gen_dense_random(16, 0.4, 900 + seed)
        for hop_radius, use_3hop in ((2, True), (2, False), (1, False)):
            yield g, sample_certified(g, 3, seed=seed, hop_radius=hop_radius), use_3hop
    for seed in range(3):
        g = planted_band(16, 3, seed)
        for use_3hop in (True, False):
            yield g, sample_certified(g, 3, seed=seed), use_3hop
    g = path_graph(12)
    yield g, RootSet(roots=(1, 5, 9), hop_radius=2, certified=True), True


CLASS_CASES = list(class_cases())


class TestVertexClasses:
    @pytest.mark.parametrize("case", range(len(CLASS_CASES)))
    def test_classes_are_the_window_signatures(self, case):
        g, rs, use_3hop = CLASS_CASES[case]
        dists = root_distances(g, rs)
        near, far, _, _, classes = root_windows(rs, root_balls(g, rs), g.n, use_3hop)
        non_roots = [v for v in range(g.n) if v not in rs.roots]
        assert sorted(v for members in classes for v in members) == non_roots
        assert sum(map(len, classes)) == g.n - len(rs.roots)
        assert [members[0] for members in classes] == sorted(min(c) for c in classes)
        signatures = [window_signature(rs, dists, members[0], use_3hop) for members in classes]
        # members share their class's signature and no two classes share one
        for members, signature in zip(classes, signatures):
            assert list(members) == sorted(members)
            for v in members:
                assert window_signature(rs, dists, v, use_3hop) == signature
        assert len(set(signatures)) == len(classes)
        for d in range(len(rs.roots)):
            for kind, listed in (("near", near[d]), ("far", far[d])):
                assert listed == tuple(
                    members[0] for members, sig in zip(classes, signatures) if sig[d] == kind
                )

    def test_path_powers_split_into_several_classes(self):
        sizes = [len(root_windows(rs, root_balls(g, rs), g.n, use_3hop)[4])
                 for g, rs, use_3hop in CLASS_CASES]
        assert max(sizes) >= 4

    @pytest.mark.parametrize("n,seed", [(49, 43), (50, 0), (58, 4)])
    def test_dense_scan_shaped_graphs_have_one_class(self, n, seed):
        g = gen_dense_random(n, 0.3, seed)
        rs = sample_certified(g, 8, seed=seed)
        near, far, _, _, classes = root_windows(rs, root_balls(g, rs), g.n)
        assert len(classes) == 1 and len(classes[0]) == n - 8
        assert near == ((classes[0][0],),) * 8 and far == ((),) * 8

    def test_every_vertex_a_root_has_no_classes(self):
        g = planted_band(12, 2, 0)
        rs = every_vertex_a_root(g)
        near, far, _, _, classes = root_windows(rs, root_balls(g, rs), g.n)
        assert classes == () and near == far == ((),) * g.n

    @pytest.mark.parametrize("case", range(len(CLASS_CASES)))
    def test_every_prefix_node_matches_the_reference(self, case):
        # every vertex's interval and the Hall histogram, at every node of
        # the full placement tree of one box size
        g, rs, use_3hop = CLASS_CASES[case]
        dists = root_distances(g, rs)
        windows = root_windows(rs, root_balls(g, rs), g.n, use_3hop)
        cfg = make_box_config(g.n, 3)
        prefix = PlacementPrefix(g.n, cfg, *windows)
        assert sum(prefix.weight) == g.n - len(rs.roots)
        k = len(rs.roots)
        nodes = 0

        def check(d):
            expected = [(1, cfg.b)] * g.n
            if d:
                placed = RootSet(roots=rs.roots[:d], hop_radius=rs.hop_radius, certified=True)
                rp = RootPlacement(roots=placed.roots, boxes=tuple(prefix.boxes[:d]))
                expected = list(reference_intervals(g, placed, rp, cfg, dists, use_3hop))
            for root in rs.roots[d:]:
                expected[root] = (1, cfg.b)
            got = prefix.intervals(rs.roots)
            assert got == tuple(expected), prefix.boxes
            count = [[0] * (cfg.b + 1) for _ in range(cfg.b + 1)]
            for iv in got:
                if iv is not None:
                    count[iv[0]][iv[1]] += 1
            assert prefix.count == count and prefix.empty == got.count(None)

        def visit(d):
            nonlocal nodes
            check(d)
            nodes += 1
            if d == k:
                return
            for box in range(1, cfg.b + 1):
                if prefix.has_room(box):
                    prefix.place(d, box)
                    visit(d + 1)
                    prefix.retract(d)

        visit(0)
        check(0)
        assert nodes > cfg.b ** (k - 1)

