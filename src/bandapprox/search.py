"""Shared search over box sizes and root placements driving both back ends.

One driver owns the whole pipeline: measure density, size and certify the
root sample, read each root's ball and ring off the adjacency bitsets
(:func:`~bandapprox.boxes.root_balls`) and turn them into one
:class:`~bandapprox.boxes.RootWindows` record, then scan box sizes
ascending from the degree lower bound.  For each box size the walk places
roots into a :class:`~bandapprox.boxes.PlacementPrefix` depth first, in
lexicographic order over the sorted roots, each root starting at its
previous twin's box and never putting more roots in a box than it has
positions; it drops every prefix that
:meth:`~bandapprox.boxes.PlacementPrefix.cut` rules out.  So the first
complete placement that passes is the first feasible twin-ordered one in
lexicographic order.  Only there are the intervals read off the prefix
and the chosen back end (Hopcroft-Karp matching or compressed max flow)
run, to extract the layout; a back end that disagrees with the Hall test
raises ``AssertionError``.

A *config* (``SearchStats.configs_tried``, the ``configs`` of reports and
bench rows) is a complete twin-ordered placement the walk reached,
feasible or not; a prefix the cut removes reaches none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .boxes import BoxConfig, Intervals, PlacementPrefix, make_box_config, root_balls, root_windows
# Not called here; bound because perfbench/tracer.py wraps these names in
# this module.
from .boxes import (  # noqa: F401
    build_intervals,
    enumerate_placements,
    root_distances,
    update_intervals,
)
from .domset import DEFAULT_MAX_TRIES, SamplingParams, k_size, kprime_size, sample_certified
from .flow import build_flow_instance, count_intervals, flow_to_layout, max_flow
from .graph import Graph, density
from .matching import build_auxiliary, matching_to_layout, max_matching, normalize_matching
from .oracle import Layout, degree_lower_bound


class InfeasibleError(RuntimeError):
    """No (boxsize, placement) configuration admitted a complete assignment."""

    def __init__(self, message: str, stats: "SearchStats | None" = None) -> None:
        super().__init__(message)
        self.stats = stats


@dataclass
class SearchStats:
    """Counters and phase timings for one pipeline run.

    Everything except the ``time_*`` fields is deterministic for a fixed
    seed, which is what report byte-identity tests rely on.

    ``nodes_visited`` counts the twin-ordered placement prefixes the walk
    tried (one root more each), complete ones included; ``configs_tried``
    the complete placements among them.  Each node failing its test counts
    once, in ``pruned_empty`` (some vertex has no admissible box) or else in
    ``pruned_by_hall`` (some box range is over capacity, or the twin
    look-ahead finds no box for the next twin class's last member).
    ``trace`` holds ``(boxsize, boxes, feasible)`` per complete placement,
    the winner last; ``max_interval_keys`` and ``max_flow_nodes`` describe
    the winner's flow instance.  ``time_bfs`` times the root ball walks.
    """

    algorithm: str
    seed: int
    n: int
    delta: float
    alpha: float
    c: float
    hop_radius: int
    use_3hop: bool
    root_count: int = 0
    certify_attempts: int = 0
    boxsizes_tried: int = 0
    nodes_visited: int = 0
    configs_tried: int = 0
    pruned_empty: int = 0
    pruned_by_hall: int = 0
    max_interval_keys: int = 0
    max_flow_nodes: int = 0
    trace: list | None = None
    time_certify: float = 0.0
    time_bfs: float = 0.0
    time_scan: float = 0.0
    time_total: float = 0.0


def run_search(
    g: Graph,
    params: SamplingParams | None,
    seed: int,
    *,
    backend: str,
    hop_radius: int,
    use_3hop: bool,
    max_tries: int = DEFAULT_MAX_TRIES,
    record_trace: bool = False,
) -> tuple[Layout, int, SearchStats]:
    if backend not in ("matching", "flow"):
        raise ValueError(f"unknown backend {backend!r}")

    t_start = time.perf_counter()
    if params is None:
        params = SamplingParams()
    n = g.n
    delta = float(params.delta if params.delta is not None else density(g))
    if delta <= 0.0:
        raise ValueError("graph has an isolated vertex (density 0); dense input required")

    sized = replace(params, delta=delta)
    size = kprime_size(n, sized) if hop_radius == 2 else k_size(n, sized)
    size = min(size, n)

    stats = SearchStats(
        algorithm="baseline" if hop_radius == 1 else "alg1" if backend == "matching" else "alg2",
        seed=seed,
        n=n,
        delta=delta,
        alpha=params.alpha,
        c=params.c,
        hop_radius=hop_radius,
        use_3hop=use_3hop,
    )
    if record_trace:
        stats.trace = []

    t0 = time.perf_counter()
    rs = sample_certified(g, size, seed, hop_radius=hop_radius, max_tries=max_tries)
    stats.time_certify = time.perf_counter() - t0
    stats.root_count = len(rs.roots)
    stats.certify_attempts = rs.attempts or 0

    t0 = time.perf_counter()
    balls = root_balls(g, rs)
    stats.time_bfs = time.perf_counter() - t0

    t0 = time.perf_counter()
    windows = root_windows(rs, balls, n, use_3hop)
    start = max(degree_lower_bound(g), 1)
    layout = None
    for boxsize in range(start, n + 1):
        layout = _scan_boxsize(g, rs, windows, backend, stats, boxsize)
        if layout is not None:
            break
    stats.time_scan = time.perf_counter() - t0
    stats.time_total = time.perf_counter() - t_start

    # a guard only: box size n is one box holding every vertex, so it fits
    if layout is None:
        raise InfeasibleError(f"no feasible configuration for box sizes {start}..{n}", stats)
    return layout, boxsize, stats


def _scan_boxsize(g, rs, windows, backend, stats, boxsize):
    cfg = make_box_config(g.n, boxsize)
    stats.boxsizes_tried += 1
    prefix = PlacementPrefix(cfg, windows)
    boxes = _first_feasible_placement(prefix, stats)
    if boxes is None:
        return None
    # the walk stops with the winner placed, so its prefix holds the intervals
    layout = _extract_layout(prefix.intervals(rs.roots), cfg, backend, stats)
    if layout is None:
        raise AssertionError(
            f"{backend} back end rejects placement {boxes} at box size {boxsize}, "
            "which the Hall test accepts"
        )
    return layout


def _first_feasible_placement(prefix: PlacementPrefix, stats: SearchStats):
    """Depth-first walk over capacity-respecting, twin-ordered root
    placements in lexicographic order, cutting every prefix
    :meth:`PlacementPrefix.cut` rules out; the boxes of the first complete
    placement that passes, or ``None``.

    Root ``d`` starts at the box of its previous twin ``prefix.twins[d]``
    (see :func:`~bandapprox.boxes.root_twins`), so each twin class takes
    its boxes in non-decreasing order."""
    boxes, twins = prefix.boxes, prefix.twins
    k = len(boxes)
    b = prefix.cfg.b
    d = 0
    while d >= 0:
        box = boxes[d]
        if box:
            prefix.retract(d)
            box += 1
        else:
            box = boxes[twins[d]] if twins[d] >= 0 else 1
        while box <= b and not prefix.has_room(box):
            box += 1
        if box > b:
            d -= 1
            continue
        prefix.place(d, box)
        stats.nodes_visited += 1
        cut = prefix.cut(d + 1)
        if cut == "empty":
            stats.pruned_empty += 1
        elif cut == "hall":
            stats.pruned_by_hall += 1
        if d == k - 1:
            stats.configs_tried += 1
            if stats.trace is not None:
                stats.trace.append((prefix.cfg.boxsize, tuple(boxes), cut is None))
            if cut is None:
                return tuple(boxes)
        elif cut is None:
            d += 1
    return None


def _extract_layout(intervals: Intervals, cfg: BoxConfig, backend: str, stats: SearchStats):
    """Layout from the chosen back end, or ``None`` if it finds the
    intervals infeasible."""
    if backend == "matching":
        m = max_matching(build_auxiliary(intervals, cfg))
        if not m.is_perfect(cfg.n):
            return None
        return matching_to_layout(normalize_matching(m, cfg), cfg)
    counts = count_intervals(intervals)
    if counts is None:
        return None
    stats.max_interval_keys = len(counts)
    inst = build_flow_instance(counts, cfg)
    stats.max_flow_nodes = inst.node_count
    res = max_flow(inst)
    if res.value != cfg.n:
        return None
    return flow_to_layout(res, inst, intervals, cfg)
