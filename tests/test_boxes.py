import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bandapprox.boxes import (
    PlacementPrefix,
    build_intervals,
    enumerate_placements,
    hall_violation,
    make_box_config,
    root_balls,
    root_distances,
    root_twins,
    root_windows,
    update_intervals,
)
from bandapprox.domset import RootSet, is_dominating, sample_certified
from bandapprox.flow import count_intervals
from bandapprox.graph import gen_dense_random, hop_balls, make_graph
from bandapprox.oracle import Layout, exact_bandwidth, layout_bandwidth
from helpers import (
    complete_graph,
    er_graph,
    floyd_warshall_from_set,
    path_graph,
    planted_band,
    planted_order,
    reference_intervals,
    three_hop_listings,
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


@st.composite
def box_assignments(draw):
    """A box config and a box per vertex that fills every box exactly, the
    last one short whenever ``boxsize`` does not divide ``n``."""
    n = draw(st.integers(1, 40))
    cfg = make_box_config(n, draw(st.integers(1, n)))
    boxes = [box for box in range(1, cfg.b + 1) for _ in range(cfg.capacities[box - 1])]
    return cfg, draw(st.permutations(boxes))


class TestPositionsFor:
    @settings(max_examples=100, deadline=None)
    @given(box_assignments())
    def test_places_each_vertex_in_its_box_in_id_order(self, assignment):
        cfg, boxes = assignment
        pos = cfg.positions_for(boxes)
        assert sorted(pos) == list(range(1, cfg.n + 1))
        assert all(cfg.box_of(pos[v]) == boxes[v] for v in range(cfg.n))
        for box in range(1, cfg.b + 1):
            members = [v for v in range(cfg.n) if boxes[v] == box]
            assert [pos[v] for v in members] == list(cfg.positions(box))

    def test_short_last_box(self):
        cfg = make_box_config(7, 3)
        assert cfg.positions_for((3, 1, 2, 1, 2, 1, 2)) == (7, 1, 4, 2, 5, 3, 6)

    @pytest.mark.parametrize(
        "v,box,message",
        [(0, 1, "box 1 received 4 vertices for 3 positions"),
         (1, 3, "box 1 received 2 vertices for 3 positions")],
    )
    def test_box_over_or_under_capacity_raises(self, v, box, message):
        # moving one vertex leaves one box a vertex over capacity and another
        # a vertex under; the lower of the two is named
        cfg = make_box_config(7, 3)
        boxes = [3, 1, 2, 1, 2, 1, 2]
        boxes[v] = box
        with pytest.raises(AssertionError, match=message):
            cfg.positions_for(boxes)

    @pytest.mark.parametrize("bad", [0, -1, 4])
    def test_box_out_of_range_raises(self, bad):
        cfg = make_box_config(7, 3)
        with pytest.raises(AssertionError, match=f"box {bad} received 1 vertices for 0"):
            cfg.positions_for((3, 1, 2, 1, 2, 1, 2, bad))


class TestEnumeratePlacements:
    def test_single_root_order(self):
        rs = RootSet(roots=(2,), hop_radius=2, certified=True)
        cfg = make_box_config(6, 2)
        assert list(enumerate_placements(rs, cfg)) == [(1,), (2,), (3,)]

    def test_capacity_binds(self):
        rs = RootSet(roots=(0, 1), hop_radius=2, certified=True)
        cfg = make_box_config(2, 1)  # two boxes of capacity 1
        assert list(enumerate_placements(rs, cfg)) == [(1, 2), (2, 1)]

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
                assert rp.count(box) <= cfg.capacities[box - 1]


class TestBuildIntervals:
    def test_single_root_window(self):
        g = subdivided_star()
        rs = RootSet(roots=(0,), hop_radius=2, certified=True)
        cfg = make_box_config(7, 1)
        intervals = build_intervals(g, rs, (3,), cfg, root_balls(g, rs))
        assert intervals[2] == (1, 5)

    def test_two_roots_intersect(self):
        g = path_graph(7)
        rs = RootSet(roots=(0, 4), hop_radius=2, certified=True)
        cfg = make_box_config(7, 1)
        intervals = build_intervals(g, rs, (1, 5), cfg, root_balls(g, rs))
        assert intervals[2] == (3, 3)

    def test_disjoint_windows_empty(self):
        g = path_graph(7)
        rs = RootSet(roots=(0, 4), hop_radius=2, certified=True)
        cfg = make_box_config(7, 1)
        intervals = build_intervals(g, rs, (1, 7), cfg, root_balls(g, rs))
        assert intervals[2] is None

    def test_roots_pinned_to_their_box(self):
        g = gen_dense_random(20, 0.4, 3)
        rs = sample_certified(g, 3, seed=1)
        cfg = make_box_config(20, 5)
        rp = next(iter(enumerate_placements(rs, cfg)))
        intervals = build_intervals(g, rs, rp, cfg, root_balls(g, rs))
        for root, box in zip(rs.roots, rp):
            assert intervals[root] == (box, box)

    def test_unconstrained_vertex_raises(self):
        # vertex 3 is three hops from the only root: certified by mistake
        g = path_graph(5)
        rs = RootSet(roots=(0,), hop_radius=2, certified=True)
        cfg = make_box_config(5, 1)
        with pytest.raises(AssertionError, match="vertex 3 unconstrained"):
            build_intervals(g, rs, (1,), cfg, root_balls(g, rs))

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
                    intervals = build_intervals(g, rs, rp, cfg, balls, use_3hop=use_3hop)
                    assert intervals == reference_intervals(g, rs, rp, cfg, dists, use_3hop)

    def test_uncertified_rejected(self):
        g = path_graph(5)
        rs = RootSet(roots=(0,), hop_radius=2, certified=False)
        cfg = make_box_config(5, 1)
        with pytest.raises(ValueError, match="certified"):
            build_intervals(g, rs, (1,), cfg, root_balls(g, rs))

    def test_width_at_most_five_boxes(self):
        for seed in range(10):
            g = gen_dense_random(24, 0.3, seed)
            rs = sample_certified(g, 3, seed=seed)
            cfg = make_box_config(24, 2)  # many boxes so clipping rarely hides width
            balls = root_balls(g, rs)
            for i, rp in enumerate(enumerate_placements(rs, cfg)):
                if i >= 40:
                    break
                for iv in build_intervals(g, rs, rp, cfg, balls):
                    if iv is not None:
                        assert iv[1] - iv[0] <= 4

    def test_three_hop_windows_only_when_enabled(self):
        # vertex 6 is at distance 3 from root 0 on a path; with the wider
        # window off it is unconstrained by 0 (only by root 4)
        g = make_graph(8, [(i, i + 1) for i in range(7)])
        rs = RootSet(roots=(1, 5), hop_radius=2, certified=True)
        cfg = make_box_config(8, 1)
        balls = root_balls(g, rs)
        rp = (1, 8)
        tightened = build_intervals(g, rs, rp, cfg, balls, use_3hop=True)
        loose = build_intervals(g, rs, rp, cfg, balls, use_3hop=False)
        # d(4,1)=3: tightened intersects [8-2,8+2] with [1-3,1+3]
        assert tightened[4] is None
        assert loose[4] == (6, 8)

    def test_optimal_layout_placement_is_consistent(self):
        # bin the roots of an exactly-solved instance by their optimal
        # positions: every interval must contain the vertex's optimal box
        for seed in range(6):
            g = gen_dense_random(10, 0.5, 40 + seed)
            value, witness = exact_bandwidth(g)
            boxsize = max(value, 1)
            cfg = make_box_config(g.n, boxsize)
            rs = sample_certified(g, 3, seed=seed)
            rp = tuple(cfg.box_of(witness.pos[r]) for r in rs.roots)
            intervals = build_intervals(g, rs, rp, cfg, root_balls(g, rs))
            for v, iv in enumerate(intervals):
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
        balls = root_balls(g, rs)
        windows = root_windows(rs, balls, g.n)
        assert update_intervals(rs, windows, cfg, rp) == build_intervals(g, rs, rp, cfg, balls)

    def test_shift_by_one_box(self):
        g = subdivided_star()
        rs = RootSet(roots=(0,), hop_radius=2, certified=True)
        cfg = make_box_config(7, 1)
        balls = root_balls(g, rs)
        windows = root_windows(rs, balls, g.n)
        assert build_intervals(g, rs, (3,), cfg, balls)[2] == (1, 5)
        assert update_intervals(rs, windows, cfg, (4,))[2] == (2, 6)

    def _random_updates(self, g, rs, cfg, dists, seed):
        rng = random.Random(seed)
        placements = list(enumerate_placements(rs, cfg))
        windows = root_windows(rs, root_balls(g, rs), g.n)
        for _ in range(25):
            target = rng.choice(placements)
            intervals = update_intervals(rs, windows, cfg, target)
            assert intervals == reference_intervals(g, rs, target, cfg, dists)

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
        assert three_hop_listings(root_windows(rs, root_balls(g, rs), g.n))
        self._random_updates(g, rs, make_box_config(g.n, 3), dists, seed)

    def test_exhaustive_small_instance(self):
        g, rs, cfg, dists = self._setup(3, n=12, boxsize=4)
        placements = list(enumerate_placements(rs, cfg))
        assert len(placements) <= cfg.b ** len(rs.roots)
        windows = root_windows(rs, root_balls(g, rs), g.n)
        for rp in placements:
            assert update_intervals(rs, windows, cfg, rp) == reference_intervals(g, rs, rp, cfg, dists)

    def test_mismatch_errors(self):
        g, rs, cfg, _ = self._setup(1)
        balls = root_balls(g, rs)
        windows = root_windows(rs, balls, g.n)
        placement = next(iter(enumerate_placements(rs, cfg)))
        for wrong in (placement[:-1], placement + (1,)):
            with pytest.raises(ValueError, match="mismatch"):
                update_intervals(rs, windows, cfg, wrong)
            with pytest.raises(ValueError, match="mismatch"):
                build_intervals(g, rs, wrong, cfg, balls)
        for bad in (0, -1, cfg.b + 1):
            wrong = (bad,) + placement[1:]
            with pytest.raises(ValueError, match=rf"box {bad} out of range 1\.\.{cfg.b}"):
                update_intervals(rs, windows, cfg, wrong)
            with pytest.raises(ValueError, match=rf"box {bad} out of range 1\.\.{cfg.b}"):
                build_intervals(g, rs, wrong, cfg, balls)
        uncertified = RootSet(roots=rs.roots, hop_radius=2)
        with pytest.raises(ValueError, match="certified"):
            update_intervals(uncertified, windows, cfg, placement)


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
        windows = root_windows(rs, root_balls(g, rs), g.n, use_3hop)
        classes = windows.classes
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
        # each root's ball, then its ring only with the tightening
        widths = [rs.hop_radius, 3] if use_3hop and rs.hop_radius == 2 else [rs.hop_radius]
        for d, layer in enumerate(windows.layers):
            assert [width for width, _ in layer] == widths
            for kind, (_, listed) in zip(("near", "far"), layer):
                assert listed == tuple(
                    members[0] for members, sig in zip(classes, signatures) if sig[d] == kind
                )

    def test_path_powers_split_into_several_classes(self):
        sizes = [len(root_windows(rs, root_balls(g, rs), g.n, use_3hop).classes)
                 for g, rs, use_3hop in CLASS_CASES]
        assert max(sizes) >= 4

    @pytest.mark.parametrize("n,seed", [(49, 43), (50, 0), (58, 4)])
    def test_dense_scan_shaped_graphs_have_one_class(self, n, seed):
        g = gen_dense_random(n, 0.3, seed)
        rs = sample_certified(g, 8, seed=seed)
        windows = root_windows(rs, root_balls(g, rs), g.n)
        classes = windows.classes
        assert len(classes) == 1 and len(classes[0]) == n - 8
        assert windows.layers == (((2, (classes[0][0],)), (3, ())),) * 8

    def test_every_vertex_a_root_has_no_classes(self):
        g = planted_band(12, 2, 0)
        rs = every_vertex_a_root(g)
        windows = root_windows(rs, root_balls(g, rs), g.n)
        assert windows.classes == () and windows.layers == (((2, ()), (3, ())),) * g.n

    @pytest.mark.parametrize("case", range(len(CLASS_CASES)))
    def test_every_prefix_node_matches_the_reference(self, case):
        # every vertex's interval and the Hall histogram, at every node of
        # the full placement tree of one box size; the histogram leaves the
        # unplaced roots out, which changes no Hall verdict
        g, rs, use_3hop = CLASS_CASES[case]
        dists = root_distances(g, rs)
        windows = root_windows(rs, root_balls(g, rs), g.n, use_3hop)
        cfg = make_box_config(g.n, 3)
        prefix = PlacementPrefix(cfg, windows)
        assert sum(prefix.weight) == g.n - len(rs.roots)
        k = len(rs.roots)
        nodes = violations = 0

        def check(d):
            expected = [(1, cfg.b)] * g.n
            if d:
                placed = RootSet(roots=rs.roots[:d], hop_radius=rs.hop_radius, certified=True)
                expected = list(
                    reference_intervals(g, placed, prefix.boxes[:d], cfg, dists, use_3hop)
                )
            for root in rs.roots[d:]:
                expected[root] = (1, cfg.b)
            got = prefix.intervals(rs.roots)
            assert got == tuple(expected), prefix.boxes
            count = [[0] * (cfg.b + 1) for _ in range(cfg.b + 1)]
            for iv in got:
                if iv is not None:
                    count[iv[0]][iv[1]] += 1
            verdict = hall_violation(count, prefix.cum)
            count[1][cfg.b] -= k - d
            assert prefix.count == count and prefix.empty == got.count(None)
            assert hall_violation(prefix.count, prefix.cum) == verdict
            return verdict is not None

        def visit(d):
            nonlocal nodes, violations
            violations += check(d)
            nodes += 1
            if d == k:
                return
            for box in range(1, cfg.b + 1):
                if prefix.load[box] < cfg.capacities[box - 1]:
                    prefix.place(d, box)
                    visit(d + 1)
                    prefix.retract(d)

        visit(0)
        check(0)
        assert nodes > cfg.b ** (k - 1) and violations > 0



def greedy_dominating_roots(g, hop_radius, rng):
    """A certified root set, grown greedily: each step adds the vertex
    whose ``hop_radius`` ball holds the most vertices no root's ball holds
    yet, ties broken at random, until every vertex is held."""
    balls = [hop_balls(g, (v,), hop_radius)[-1] for v in range(g.n)]
    tie = [rng.random() for _ in range(g.n)]
    uncovered = (1 << g.n) - 1
    roots = []
    while uncovered:
        best = max(range(g.n), key=lambda v: ((balls[v] & uncovered).bit_count(), tie[v]))
        roots.append(best)
        uncovered &= ~balls[best]
    rs = RootSet(roots=tuple(sorted(roots)), hop_radius=hop_radius, certified=True)
    assert is_dominating(g, rs)
    return rs


class TestReadOff:
    """The read-off lemma, at sizes no exhaustive reference reaches: read a
    layout of bandwidth beta at box size beta, each vertex in the box of
    its position.  A vertex h hops from a root is at most h*beta positions,
    so at most h boxes, from it; every vertex's box therefore lies in its
    interval, and placing the read-off root boxes never cuts a prefix.
    Nothing here is derived from the window rule, so the test holds under
    any sound one.  Greedy roots keep k' well below n, so the windows bind.
    """

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(60, 200), w=st.integers(2, 8), p=st.sampled_from([1.0, 0.7, 0.4]),
           seed=st.integers(0, 10**6))
    @pytest.mark.parametrize("hop_radius,use_3hop", [(2, True), (2, False), (1, False)])
    def test_planted_layout_reads_off_an_uncut_placement(
        self, hop_radius, use_3hop, n, w, p, seed
    ):
        g = planted_band(n, w, seed, p)
        pos = [0] * n
        for i, v in enumerate(planted_order(n, seed)):
            pos[v] = i + 1
        cfg = make_box_config(n, layout_bandwidth(g, Layout(tuple(pos))))
        box = [cfg.box_of(q) for q in pos]
        rs = greedy_dominating_roots(g, hop_radius, random.Random(seed))
        windows = root_windows(rs, root_balls(g, rs), n, use_3hop)
        # twins are interchangeable and the walk places each twin class in
        # ascending boxes: hand the class its read-off boxes sorted
        head = []
        for d, t in enumerate(windows.twins):
            head.append(head[t] if t >= 0 else d)
        for h in set(head):
            members = [rs.roots[d] for d in range(len(head)) if head[d] == h]
            for u, b in zip(members, sorted(box[u] for u in members)):
                box[u] = b
        prefix = PlacementPrefix(cfg, windows)
        assert prefix.cut(0) is None
        for d, u in enumerate(rs.roots):
            prefix.place(d, box[u])
            assert prefix.cut(d + 1) is None, (d, prefix.boxes)
        for v, interval in enumerate(prefix.intervals(rs.roots)):
            assert interval is not None and interval[0] <= box[v] <= interval[1], v


class TestIntervalSpan:
    """Claim (b) at sizes no exhaustive reference reaches: a certified root
    set holds every non-root in some root's ball, a window of ``2r + 1``
    boxes around that root's box, so under any placement every non-empty
    interval spans at most 5 boxes for two-hop roots, with or without the
    rings, and 3 for the baseline's one-hop roots.  The flow instance then
    has at most 5b interval keys (3b for the baseline), independent of n.
    """

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(60, 200), w=st.integers(2, 8), p=st.sampled_from([1.0, 0.7, 0.4]),
           seed=st.integers(0, 10**6))
    @pytest.mark.parametrize("hop_radius,use_3hop", [(2, True), (2, False), (1, False)])
    def test_random_placements_keep_intervals_within_the_ball_window(
        self, hop_radius, use_3hop, n, w, p, seed
    ):
        g = planted_band(n, w, seed, p)
        rng = random.Random(seed)
        rs = greedy_dominating_roots(g, hop_radius, rng)
        windows = root_windows(rs, root_balls(g, rs), n, use_3hop)
        span = 2 * hop_radius + 1
        for boxsize in (2, w, 2 * w, 4 * w):  # b from n/32 up to 100
            cfg = make_box_config(n, boxsize)
            # distinct random positions: a capacity-respecting placement
            positions = rng.sample(range(1, n + 1), len(rs.roots))
            boxes = [cfg.box_of(q) for q in positions]
            held = [iv for iv in update_intervals(rs, windows, cfg, boxes) if iv is not None]
            assert all(hi - lo < span for lo, hi in held), (boxsize, boxes)
            counts = count_intervals(tuple(held))
            assert len(counts) <= span * cfg.b and sum(counts.values()) == len(held)
