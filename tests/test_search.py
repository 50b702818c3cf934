"""The Hall-pruned placement walk against independent references.

The Hall test is checked against max flow, every cut the walk can make
against brute force over the cut prefix's completions, and the winning
(box size, placement, layout) of all four pipelines against the
exhaustive scan over every placement that the walk replaced.
"""

import random
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from bandapprox.boxes import (
    BoxConfig,
    build_intervals,
    enumerate_placements,
    make_box_config,
    root_distances,
    root_windows,
)
from bandapprox.domset import sample_certified
from bandapprox.flow import (
    IntervalCounts,
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
from bandapprox.oracle import degree_lower_bound
from bandapprox.search import PlacementPrefix, hall_violation

# (name, pipeline, keyword arguments, back end, three-hop tightening)
VARIANTS = (
    ("alg2", approx_bandwidth_alg2, {}, "flow", True),
    ("alg2-no3hop", approx_bandwidth_alg2, {"use_3hop": False}, "flow", False),
    ("alg1", approx_bandwidth_alg1, {}, "matching", True),
    ("baseline", approx_bandwidth_baseline, {}, "matching", False),
)


def planted_band(n, w, seed):
    """The w-th power of a path on n vertices, relabeled at random."""
    label = list(range(n))
    random.Random(seed).shuffle(label)
    edges = [(label[i], label[j]) for i in range(n) for j in range(i + 1, min(n, i + w + 1))]
    return make_graph(n, edges)


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
        saturated = max_flow(build_flow_instance(IntervalCounts(counts), cfg)).value == len(intervals)
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


def matching_feasible(table, cfg):
    return max_matching(build_auxiliary(table, cfg)).is_perfect(cfg.n)


def brute_force_cases():
    """Small graphs whose every placement is cheap to decide, for each of
    the three window rules."""
    for idx in range(8):
        n = 8 + idx % 4
        g = gen_dense_random(n, 0.5, 4100 + idx)
        for hop_radius, use_3hop in ((2, True), (2, False), (1, False)):
            rs = sample_certified(g, 3, seed=idx, hop_radius=hop_radius)
            yield g, rs, use_3hop


class TestPlacementPrefix:
    def test_cuts_are_sound_and_exact_at_leaves(self):
        prefixes = cut = 0
        for g, rs, use_3hop in brute_force_cases():
            dists = root_distances(g, rs)
            windows = root_windows(rs, dists, use_3hop)
            k = len(rs.roots)
            for boxsize in range(max(1, degree_lower_bound(g)), g.n + 1):
                cfg = make_box_config(g.n, boxsize)
                feasible = {
                    rp.boxes: matching_feasible(
                        build_intervals(g, rs, rp, cfg, dists, use_3hop=use_3hop), cfg
                    )
                    for rp in enumerate_placements(rs, cfg)
                }
                prefix = PlacementPrefix(g.n, cfg, *windows)
                fresh = (prefix.lo[:], prefix.hi[:], [row[:] for row in prefix.count])

                def visit(d):
                    nonlocal prefixes, cut
                    for box in range(1, cfg.b + 1):
                        if not prefix.has_room(box):
                            continue
                        prefix.place(d, box)
                        placed = tuple(prefix.boxes[: d + 1])
                        reason = prefix.cut()
                        completable = any(
                            ok for boxes, ok in feasible.items() if boxes[: d + 1] == placed
                        )
                        prefixes += 1
                        if reason is not None:
                            cut += 1
                            assert not completable, (placed, reason)
                        if d == k - 1:
                            assert (reason is None) == feasible[placed], placed
                        else:
                            visit(d + 1)
                        prefix.retract(d)

                visit(0)
                assert (prefix.lo, prefix.hi, prefix.count) == fresh
                assert prefix.boxes == [0] * k and prefix.empty == 0
        assert cut > 0 and prefixes > cut


def reference_layout(table, cfg, backend):
    """The per-placement verdict and layout of the exhaustive scan."""
    if backend == "matching":
        m = max_matching(build_auxiliary(table, cfg))
        return matching_to_layout(normalize_matching(m, cfg), cfg) if m.is_perfect(cfg.n) else None
    counts = count_intervals(table)
    if counts is None:
        return None
    res = max_flow(build_flow_instance(counts, cfg))
    return flow_to_layout(res, table, cfg) if res.value == cfg.n else None


def exhaustive_winner(g, rs, backend, use_3hop):
    """First feasible (box size, placement, layout) over every placement."""
    dists = root_distances(g, rs)
    for boxsize in range(max(1, degree_lower_bound(g)), g.n + 1):
        cfg = make_box_config(g.n, boxsize)
        for rp in enumerate_placements(rs, cfg):
            table = build_intervals(g, rs, rp, cfg, dists, use_3hop=use_3hop)
            layout = reference_layout(table, cfg, backend)
            if layout is not None:
                return boxsize, rp.boxes, layout
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
            layout, boxsize, stats = run(g, seed=seed, record_trace=True, **kwargs)
            rs = sample_certified(g, stats.root_count, seed=seed, hop_radius=stats.hop_radius)
            expected = exhaustive_winner(g, rs, backend, use_3hop)
            got = (boxsize, stats.trace[-1][1], layout)
            assert got == expected, label
            assert stats.trace[-1][2] is True
            assert not any(ok for _, _, ok in stats.trace[:-1])
            assert stats.configs_tried == len(stats.trace) <= stats.nodes_visited
