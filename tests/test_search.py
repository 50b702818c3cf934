"""The Hall-pruned placement walk against independent references.

The Hall test is checked against max flow, every cut the walk can make
against brute force over the cut prefix's completions, and the winning
(box size, placement, layout) of all four pipelines against the
exhaustive scan over every placement that the walk replaced.  Twin floors
are checked by brute force (swapping twins never changes a verdict) and
against the walk without them.  The references derive intervals with
``helpers.reference_intervals``, not with the prefix code under test.
"""

from collections import Counter
from dataclasses import replace
from itertools import accumulate
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from bandapprox.boxes import (
    BoxConfig,
    PlacementPrefix,
    enumerate_placements,
    hall_violation,
    make_box_config,
    root_balls,
    root_distances,
    root_twins,
    root_windows,
)
from bandapprox.domset import CertificationError, RootSet, sample_certified
from bandapprox.flow import (
    approx_bandwidth_alg2,
    build_flow_instance,
    count_intervals,
    flow_to_layout,
    max_flow,
)
from bandapprox.graph import gen_dense_random, make_graph
from bandapprox.matching import (
    approx_bandwidth_alg1,
    approx_bandwidth_baseline,
    build_auxiliary,
    matching_to_layout,
    max_matching,
    normalize_matching,
)
from bandapprox.oracle import degree_lower_bound, exact_bandwidth
from bandapprox.search import SearchStats, _first_feasible_placement
from helpers import (
    cycle_graph,
    er_graph,
    path_graph,
    planted_band,
    recorded_leaves,
    reference_intervals,
    three_hop_listings,
)

# (name, pipeline, keyword arguments, back end, three-hop tightening)
VARIANTS = (
    ("alg2", approx_bandwidth_alg2, {}, "flow", True),
    ("alg2-no3hop", approx_bandwidth_alg2, {"use_3hop": False}, "flow", False),
    ("alg1", approx_bandwidth_alg1, {}, "matching", True),
    ("baseline", approx_bandwidth_baseline, {}, "matching", False),
)


def histogram(intervals, b):
    count = [[0] * (b + 1) for _ in range(b + 1)]
    for lo, hi in intervals:
        count[lo][hi] += 1
    return count


@st.composite
def interval_multisets(draw):
    b = draw(st.integers(1, 6))
    capacities = draw(st.lists(st.integers(1, 4), min_size=b, max_size=b))
    ends = st.tuples(st.integers(1, b), st.integers(1, b)).map(lambda p: tuple(sorted(p)))
    return capacities, draw(st.lists(ends, max_size=14))


class TestHallViolation:
    @settings(max_examples=150, deadline=None)
    @given(interval_multisets())
    def test_agrees_with_max_flow(self, case):
        capacities, intervals = case
        b = len(capacities)
        cfg = BoxConfig(n=sum(capacities), boxsize=max(capacities), b=b,
                        capacities=tuple(capacities))
        counts: dict = {}
        for iv in intervals:
            counts[iv] = counts.get(iv, 0) + 1
        saturated = max_flow(build_flow_instance(counts, cfg)).value == len(intervals)
        cum = list(accumulate(capacities, initial=0))
        found = hall_violation(histogram(intervals, b), cum)
        assert (found is None) == saturated
        if found is not None:
            i, j = found
            inside = sum(1 for lo, hi in intervals if i <= lo and hi <= j)
            assert inside > cum[j] - cum[i - 1]

    def test_reports_the_overfull_range(self):
        # three vertices want boxes 2..3, which hold two positions
        count = histogram([(2, 3)] * 3 + [(1, 1)], 3)
        assert hall_violation(count, [0, 2, 3, 4]) == (2, 3)
        assert hall_violation(count, [0, 1, 2, 4]) is None


def matching_feasible(intervals, cfg):
    return max_matching(build_auxiliary(intervals, cfg)).is_perfect(cfg.n)


def brute_force_cases():
    """Small graphs whose every placement is cheap to decide, for each of
    the three window rules.  The dense graphs have diameter 2, so all their
    two-hop roots are twins and only the planted path powers put vertices
    three hops from a root.  With five twin roots in nine or ten vertices a
    look-ahead that put every unplaced twin in the last twin's box would
    cut prefixes that have a feasible completion."""
    for idx in range(8):
        n = 8 + idx % 4
        g = gen_dense_random(n, 0.5, 4100 + idx)
        for hop_radius, use_3hop in ((2, True), (2, False), (1, False)):
            rs = sample_certified(g, 3, seed=idx, hop_radius=hop_radius)
            yield g, rs, use_3hop
    for idx in range(4):
        g = gen_dense_random(9 + idx % 2, 0.3, 4200 + idx)
        yield g, sample_certified(g, 5, seed=idx), True
    for idx in range(4):
        g = planted_band(10 + idx % 2, 2, idx)
        for use_3hop in (True, False):
            yield g, sample_certified(g, 3, seed=idx), use_3hop


def twin_ordered(boxes, twins):
    """Whether every twin class takes non-decreasing boxes."""
    return all(boxes[t] <= boxes[d] for d, t in enumerate(twins) if t >= 0)


class TestPlacementPrefix:
    def test_cuts_are_sound_and_exact_at_leaves(self):
        # every twin-ordered prefix, each cut checked against every
        # twin-ordered completion: the look-ahead over the next root's twin
        # class assumes that order
        prefixes = cut = looked_ahead = three_hop = 0
        for g, rs, use_3hop in brute_force_cases():
            dists = root_distances(g, rs)
            balls = root_balls(g, rs)
            windows = root_windows(rs, balls, g.n, use_3hop)
            twins = windows.twins
            assert twins == root_twins(balls)
            three_hop += three_hop_listings(windows)
            k = len(rs.roots)
            for boxsize in range(max(1, degree_lower_bound(g)), g.n + 1):
                cfg = make_box_config(g.n, boxsize)
                feasible = {
                    rp: matching_feasible(reference_intervals(g, rs, rp, cfg, dists, use_3hop), cfg)
                    for rp in enumerate_placements(rs, cfg)
                    if twin_ordered(rp, twins)
                }
                prefix = PlacementPrefix(cfg, windows)
                fresh = (prefix.lo[:], prefix.hi[:], [row[:] for row in prefix.count])

                def visit(d):
                    nonlocal prefixes, cut, looked_ahead
                    floor = prefix.boxes[twins[d]] if twins[d] >= 0 else 1
                    for box in range(floor, cfg.b + 1):
                        if not prefix.has_room(box):
                            continue
                        prefix.place(d, box)
                        placed = tuple(prefix.boxes[: d + 1])
                        reason = prefix.cut(d + 1)
                        completable = any(
                            ok for boxes, ok in feasible.items() if boxes[: d + 1] == placed
                        )
                        prefixes += 1
                        if reason is not None:
                            cut += 1
                            assert not completable, (placed, reason)
                            # cut by the look-ahead alone
                            looked_ahead += not prefix.empty and hall_violation(
                                prefix.count, prefix.cum
                            ) is None
                        if d == k - 1:
                            assert (reason is None) == feasible[placed], placed
                        else:
                            visit(d + 1)
                        prefix.retract(d)

                visit(0)
                assert (prefix.lo, prefix.hi, prefix.count) == fresh
                assert prefix.boxes == [0] * k and prefix.empty == 0
        assert prefixes > cut > looked_ahead > 0 and three_hop > 0


def reference_layout(intervals, cfg, backend):
    """The per-placement verdict and layout of the exhaustive scan."""
    if backend == "matching":
        m = max_matching(build_auxiliary(intervals, cfg))
        return matching_to_layout(normalize_matching(m, cfg), cfg) if m.is_perfect(cfg.n) else None
    counts = count_intervals(intervals)
    if counts is None:
        return None
    inst = build_flow_instance(counts, cfg)
    res = max_flow(inst)
    return flow_to_layout(res, inst, intervals, cfg) if res.value == cfg.n else None


def exhaustive_winner(g, rs, backend, use_3hop):
    """First feasible (box size, placement, layout) over every placement."""
    dists = root_distances(g, rs)
    for boxsize in range(max(1, degree_lower_bound(g)), g.n + 1):
        cfg = make_box_config(g.n, boxsize)
        for rp in enumerate_placements(rs, cfg):
            intervals = reference_intervals(g, rs, rp, cfg, dists, use_3hop)
            layout = reference_layout(intervals, cfg, backend)
            if layout is not None:
                return boxsize, rp, layout
    return None


TWO_HOP = VARIANTS[:3]


def order_cases():
    """(name, graph, seed, variants).  The dense graphs and planted path
    powers with w >= 4 make the walk pass leaves and cut prefixes before it
    wins (the exhaustive scans take 16 to 7587 placements)."""
    for n, delta, gseed, seed in ((10, 0.3, 4300, 0), (14, 0.25, 7400, 0), (16, 0.25, 7604, 4),
                                  (20, 0.4, 4305, 5)):
        yield f"dense-n{n}-{gseed}", gen_dense_random(n, delta, gseed), seed, VARIANTS
    # k' >= n here, so every vertex is a root and no window constrains any
    # vertex: only the treatment of unplaced roots decides each cut
    for n, w, seed in ((16, 2, 1), (16, 2, 2), (12, 2, 3)):
        yield f"planted-n{n}-w{w}-{seed}", planted_band(n, w, seed), seed, VARIANTS
    for n, w, seed in ((16, 4, 0), (16, 4, 1), (20, 4, 2)):
        yield f"planted-n{n}-w{w}-{seed}", planted_band(n, w, seed), seed, VARIANTS
    # the exhaustive one-hop scan runs for seconds here
    yield "planted-n24-w6-0", planted_band(24, 6, 0), 0, TWO_HOP


ORDER_CASES = list(order_cases())


class TestWalkOrder:
    @pytest.mark.parametrize("name,g,seed,variants", ORDER_CASES, ids=[c[0] for c in ORDER_CASES])
    def test_winner_matches_exhaustive_scan(self, name, g, seed, variants):
        for label, run, kwargs, backend, use_3hop in variants:
            with recorded_leaves() as leaves:
                layout, boxsize, stats = run(g, seed=seed, **kwargs)
            rs = sample_certified(g, stats.root_count, seed=seed, hop_radius=stats.hop_radius)
            expected = exhaustive_winner(g, rs, backend, use_3hop)
            got = (boxsize, stats.winner, layout)
            assert got == expected, label
            assert leaves[-1] == (boxsize, stats.winner, True)
            assert not any(ok for _, _, ok in leaves[:-1])
            assert stats.configs_tried == len(leaves) <= stats.nodes_visited


def hall_verdict(intervals, cfg):
    """Whether every vertex fits in its boxes at once, by the Hall test."""
    if None in intervals:
        return False
    cum = list(accumulate(cfg.capacities, initial=0))
    return hall_violation(histogram(intervals, cfg.b), cum) is None


def twin_classes(twins):
    """Root indices grouped by twin class, from ``root_twins``' links."""
    head = []
    for d, t in enumerate(twins):
        head.append(d if t < 0 else head[t])
    classes: dict[int, list[int]] = {}
    for d, h in enumerate(head):
        classes.setdefault(h, []).append(d)
    return list(classes.values())


def floor_free_winner(g, rs, use_3hop=True):
    """First feasible (box size, boxes) of the walk without twin floors:
    the walk run on windows that link no twins, so every root tries every
    box from 1 up and the cut looks ahead over no twins."""
    windows = root_windows(rs, root_balls(g, rs), g.n, use_3hop)
    windows = replace(windows, twins=(-1,) * len(rs.roots))
    stats = SearchStats("", 0, g.n, 0.0, rs.hop_radius, use_3hop)  # counters only
    for boxsize in range(max(1, degree_lower_bound(g)), g.n + 1):
        prefix = PlacementPrefix(make_box_config(g.n, boxsize), windows)
        boxes = _first_feasible_placement(prefix, stats)
        if boxes is not None:
            return boxsize, boxes
    return None


# dense-scan-shaped (n, graph seed): delta 0.3, diameter 2, b0 = 4 boxes at
# the first box size and k' = 7, 7, 7, 8, 8, 8, 9, 9, 10, 10 roots
DENSE_SCAN_SHAPED = ((49, 43), (50, 2), (58, 4), (49, 14), (50, 12), (58, 12),
                     (49, 0), (50, 16), (50, 0), (50, 42))


class TestTwinFloors:
    def test_swapping_twins_keeps_the_hall_verdict(self):
        # 4th power of a 12-vertex path: 3, 5 and 8 reach every vertex within
        # two hops, 0 and 11 do not, and 0 and 11 see vertices three hops off
        g = make_graph(12, [(i, j) for i in range(12) for j in range(i + 1, min(12, i + 5))])
        rs = RootSet(roots=(0, 3, 5, 8, 11), hop_radius=2, certified=True)
        dists = root_distances(g, rs)
        classes = twin_classes(root_twins(root_balls(g, rs)))
        assert sorted(map(len, classes)) == [1, 1, 3]
        pairs = [(c[i], c[j]) for c in classes for i in range(len(c)) for j in range(i + 1, len(c))]
        verdicts = Counter()
        for boxsize in (3, 4):
            cfg = make_box_config(g.n, boxsize)
            for rp in enumerate_placements(rs, cfg):
                ok = hall_verdict(reference_intervals(g, rs, rp, cfg, dists), cfg)
                verdicts[ok] += 1
                for d, e in pairs:
                    swapped = list(rp)
                    swapped[d], swapped[e] = swapped[e], swapped[d]
                    assert hall_verdict(reference_intervals(g, rs, swapped, cfg, dists), cfg) == ok
        assert verdicts[True] and verdicts[False]

    @pytest.mark.parametrize("n,gseed", DENSE_SCAN_SHAPED, ids=[f"n{n}-{s}" for n, s in DENSE_SCAN_SHAPED])
    def test_dense_scan_shaped_winner_and_multiset_bound(self, n, gseed):
        g = gen_dense_random(n, 0.3, gseed)
        with recorded_leaves() as leaves:
            layout, boxsize, stats = approx_bandwidth_alg2(g, seed=0)
        rs = sample_certified(g, stats.root_count, seed=0)
        k = len(rs.roots)
        # diameter 2: every root's two-hop ball is the whole graph
        assert root_twins(root_balls(g, rs)) == tuple(range(-1, k - 1))
        assert floor_free_winner(g, rs) == (boxsize, stats.winner)
        configs = Counter(size for size, _, _ in leaves)
        for size, tried in configs.items():
            b = make_box_config(n, size).b
            assert tried <= comb(k + b - 1, b - 1), (size, tried)
        assert all(list(boxes) == sorted(boxes) for _, boxes, _ in leaves)

    @pytest.mark.parametrize("n,gseed", DENSE_SCAN_SHAPED, ids=[f"n{n}-{s}" for n, s in DENSE_SCAN_SHAPED])
    def test_dense_scan_shaped_walks_visit_at_most_k_plus_b_nodes(self, n, gseed):
        # every root is a twin here: per box size, the look-ahead leaves the
        # walk the k' nodes on its way to the winner and at most b cut ones
        g = gen_dense_random(n, 0.3, gseed)
        for label, run in (("alg2", approx_bandwidth_alg2), ("alg1", approx_bandwidth_alg1)):
            _, boxsize, stats = run(g, seed=0)
            sizes = range(max(1, degree_lower_bound(g)), boxsize + 1)
            assert stats.boxsizes_tried == len(sizes), label
            bound = sum(stats.root_count + make_box_config(n, size).b for size in sizes)
            assert stats.nodes_visited <= bound, (label, stats.nodes_visited, bound)


@st.composite
def oracle_sized_graphs(draw):
    """Graphs with 3 <= n <= 12 and min degree >= 1: sparse ER graphs (each
    isolated vertex joined to the next one), planted path powers, dense
    random graphs, paths and cycles."""
    n = draw(st.integers(3, 12))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(("sparse", "planted", "dense", "path", "cycle")))
    if kind == "sparse":
        g = er_graph(n, draw(st.floats(0.1, 0.4)), seed)
        # edges are (min, max) pairs
        joins = {tuple(sorted((v, (v + 1) % n))) for v in range(n) if not g.adj[v]}
        return make_graph(n, set(g.edges) | joins)
    if kind == "planted":
        return planted_band(n, draw(st.integers(1, 3)), seed)
    if kind == "dense":
        return gen_dense_random(n, draw(st.floats(0.3, 0.7)), seed)
    return path_graph(n) if kind == "path" else cycle_graph(n)


class TestBoxSizeLowerBound:
    @settings(max_examples=400, deadline=None)
    @given(oracle_sized_graphs(), st.integers(0, 3))
    def test_winning_box_size_is_at_most_the_bandwidth(self, g, seed):
        # every claimed factor rests on this: the placement read off an
        # optimal layout, at box size opt, passes every window, so the scan
        # stops at or before it
        opt, _ = exact_bandwidth(g)
        for label, run, kwargs, _, _ in VARIANTS:
            try:
                _, boxsize, _ = run(g, seed=seed, **kwargs)
            except CertificationError:
                continue
            assert boxsize <= opt, (label, boxsize, opt)
