"""Shared search over box sizes and root placements driving both back ends.

One driver owns the whole pipeline: measure density, size and certify the
root sample, run one BFS per root, then scan box sizes (ascending, or by
bisection) and, for each, walk root placements depth first in lexicographic
order over the sorted roots, never putting more roots in a box than it has
positions.

Boxes form a line and every vertex may use an interval of boxes, so a
complete assignment of vertices to positions exists iff every contiguous
box range ``[i, j]`` holds at most as many vertices whose interval lies
inside it as its capacity (Hall's theorem for convex bipartite graphs).
Placing a root only shrinks intervals, and a root not yet placed counts as
``[1, b]``, so a prefix with an empty interval or a violated range has no
feasible completion and is cut.  At a complete placement the test is exact:
the first one that passes is the first feasible configuration in the order
of :func:`~bandapprox.boxes.enumerate_placements`.  Only there is the
interval table built and the chosen back end (Hopcroft-Karp matching or
compressed max flow) run, to extract the layout; a back end that disagrees
with the Hall test raises ``AssertionError``.

A *config* (``SearchStats.configs_tried``, the ``configs`` of reports and
bench rows) is a complete placement the walk reached, feasible or not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate
from typing import Sequence

from .boxes import (
    BoxConfig,
    RootPlacement,
    build_intervals,
    make_box_config,
    root_distances,
    root_windows,
)
# Not called here; bound because perfbench/tracer.py wraps these names in
# this module.
from .boxes import enumerate_placements, update_intervals  # noqa: F401
from .domset import SamplingParams, k_size, kprime_size, sample_certified
from .flow import build_flow_instance, count_intervals, flow_to_layout, max_flow
from .graph import Graph, density
from .matching import build_auxiliary, matching_to_layout, max_matching, normalize_matching
from .oracle import Layout, degree_lower_bound
from .util import ceil_snapped


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

    ``nodes_visited`` counts the placement prefixes the walk tried (one root
    more each), complete ones included; ``configs_tried`` the complete
    placements among them.  Each node failing its test counts once, in
    ``pruned_empty`` (some vertex has no admissible box) or else in
    ``pruned_by_hall`` (some box range is over capacity).  ``trace`` holds
    ``(boxsize, boxes, feasible)`` per complete placement, the winner last;
    ``max_interval_keys`` and ``max_flow_nodes`` describe the flow
    instances built, one per box size that found a winner.
    """

    algorithm: str
    seed: int
    n: int
    delta: float
    alpha: float
    c: float
    hop_radius: int
    use_3hop: bool
    search_mode: str
    root_count: int = 0
    certify_attempts: int = 0
    boxsizes_tried: int = 0
    nodes_visited: int = 0
    configs_tried: int = 0
    pruned_empty: int = 0
    pruned_by_hall: int = 0
    max_interval_keys: int = 0
    max_flow_nodes: int = 0
    linear_boxsize: int | None = None
    binary_agrees_linear: bool | None = None
    trace: list | None = None
    time_certify: float = 0.0
    time_bfs: float = 0.0
    time_scan: float = 0.0
    time_total: float = 0.0

    @property
    def empty_interval_configs(self) -> int:
        """Placement prefixes cut for an empty interval (``pruned_empty``)."""
        return self.pruned_empty


def run_search(
    g: Graph,
    params: SamplingParams | None,
    seed: int,
    *,
    backend: str,
    hop_radius: int,
    use_3hop: bool,
    search: str = "linear",
    verify_monotone: bool = False,
    narrow_range: bool = False,
    max_tries: int = 50,
    record_trace: bool = False,
    label: str = "",
) -> tuple[Layout, int, SearchStats]:
    if backend not in ("matching", "flow"):
        raise ValueError(f"unknown backend {backend!r}")
    if search not in ("linear", "binary"):
        raise ValueError(f"unknown search mode {search!r}")
    if search == "binary" and backend != "flow":
        raise ValueError("binary box-size search is only wired to the flow back end")

    t_start = time.perf_counter()
    if params is None:
        params = SamplingParams()
    n = g.n
    delta = params.delta_at(n) if params.delta is not None else float(density(g))
    if delta <= 0.0:
        raise ValueError("graph has an isolated vertex (density 0); dense input required")

    sized = replace(params, delta=delta)
    size = kprime_size(n, sized) if hop_radius == 2 else k_size(n, sized)
    size = min(size, n)

    stats = SearchStats(
        algorithm=label or backend,
        seed=seed,
        n=n,
        delta=delta,
        alpha=params.alpha,
        c=params.c,
        hop_radius=hop_radius,
        use_3hop=use_3hop,
        search_mode=search,
    )
    if record_trace:
        stats.trace = []

    t0 = time.perf_counter()
    rs = sample_certified(g, size, seed, hop_radius=hop_radius, max_tries=max_tries)
    stats.time_certify = time.perf_counter() - t0
    stats.root_count = len(rs.roots)
    stats.certify_attempts = rs.attempts or 0

    t0 = time.perf_counter()
    dists = root_distances(g, rs)
    stats.time_bfs = time.perf_counter() - t0

    if narrow_range:
        start = max(1, ceil_snapped(delta * n))
        stop = n // 2
    else:
        start = max(degree_lower_bound(g), 1)
        stop = n

    t0 = time.perf_counter()
    windows = root_windows(rs, dists, use_3hop)
    scan = partial(_scan_boxsize, g, rs, dists, windows, backend, use_3hop, stats)
    if search == "linear":
        result = _linear_scan(scan, start, stop)
    else:
        result = _binary_scan(scan, start, stop, stats, verify_monotone)
    stats.time_scan = time.perf_counter() - t0
    stats.time_total = time.perf_counter() - t_start

    if result is None:
        raise InfeasibleError(
            f"no feasible configuration for box sizes {start}..{stop}", stats
        )
    layout, boxsize = result
    return layout, boxsize, stats


def _linear_scan(scan, start, stop):
    for boxsize in range(start, stop + 1):
        layout = scan(boxsize)
        if layout is not None:
            return layout, boxsize
    return None


def _binary_scan(scan, start, stop, stats, verify_monotone):
    """Bisect the box size assuming feasibility is monotone in it.

    That assumption is unproven, so a failed final probe falls back to
    scanning upward; with ``verify_monotone`` the linear answer is computed
    too and the agreement recorded.
    """
    result = None
    lo, hi = start, stop
    if lo > hi:
        return None
    best: tuple | None = None
    while lo < hi:
        mid = (lo + hi) // 2
        layout = scan(mid)
        if layout is not None:
            best = (layout, mid)
            hi = mid
        else:
            lo = mid + 1
    if best is not None and best[1] == lo:
        result = best
    else:
        layout = scan(lo)
        if layout is not None:
            result = (layout, lo)
        else:
            for boxsize in range(lo + 1, stop + 1):
                layout = scan(boxsize)
                if layout is not None:
                    result = (layout, boxsize)
                    break
            if result is None:
                result = best

    if verify_monotone and result is not None:
        linear = _linear_scan(scan, start, stop)
        stats.linear_boxsize = linear[1] if linear is not None else None
        stats.binary_agrees_linear = (
            linear is not None and linear[1] == result[1]
        )
    return result


def _scan_boxsize(g, rs, dists, windows, backend, use_3hop, stats, boxsize):
    cfg = make_box_config(g.n, boxsize)
    stats.boxsizes_tried += 1
    prefix = PlacementPrefix(g.n, cfg, *windows)
    boxes = _first_feasible_placement(prefix, stats)
    if boxes is None:
        return None
    rp = RootPlacement(roots=rs.roots, boxes=boxes)
    table = build_intervals(g, rs, rp, cfg, dists, use_3hop=use_3hop)
    layout = _extract_layout(table, cfg, backend, stats)
    if layout is None:
        raise AssertionError(
            f"{backend} back end rejects placement {boxes} at box size {boxsize}, "
            "which the Hall test accepts"
        )
    return layout


def hall_violation(count: Sequence[Sequence[int]], cum: Sequence[int]) -> tuple[int, int] | None:
    """First box range ``(i, j)`` holding more intervals than it has room
    for, or ``None`` when every contiguous range passes.

    ``count[lo][hi]`` is the number of vertices whose interval is exactly
    ``lo..hi`` (1-based, row and column 0 unused) and ``cum[j]`` the total
    capacity of boxes ``1..j`` (``cum[0] == 0``).  Since each interval is
    contiguous, passing every range is equivalent to every vertex fitting
    in its boxes at once.  Ranges are tried by descending ``i``, then
    ascending ``j``, in O(b^2).
    """
    b = len(cum) - 1
    inside = [0] * (b + 1)  # inside[j]: intervals with lo >= i and hi <= j
    for i in range(b, 0, -1):
        row = count[i]
        before = cum[i - 1]
        run = 0
        for j in range(i, b + 1):
            run += row[j]
            inside[j] += run
            if inside[j] > cum[j] - before:
                return i, j
    return None


class PlacementPrefix:
    """Every vertex's box interval under a partial root placement.

    ``boxes[d]`` is root ``d``'s box, 0 while unplaced.  ``lo``/``hi`` hold
    the non-root vertices' intervals, the intersection of the windows of the
    placed roots that constrain them (``near[d]``/``far[d]`` list those of
    root ``d``, as :func:`~bandapprox.boxes.root_windows` gives them), and
    ``count`` is the histogram the Hall test reads: each placed root pinned
    to ``(k, k)``, each unplaced one counted as ``(1, b)`` and empty
    intervals left out (``empty`` counts them).  Roots are placed and
    retracted last in, first out; each placement costs O(window of the root).
    """

    def __init__(
        self,
        n: int,
        cfg: BoxConfig,
        near: Sequence[Sequence[int]],
        far: Sequence[Sequence[int]],
        near_window: int,
        far_window: int | None,
    ) -> None:
        b = cfg.b
        self.cfg = cfg
        self.near = near
        self.far = far
        self.near_window = near_window
        self.far_window = far_window
        self.cum = list(accumulate(cfg.capacities, initial=0))
        self.boxes = [0] * len(near)
        self.load = [0] * (b + 1)
        self.lo = [1] * n
        self.hi = [b] * n
        self.count = [[0] * (b + 1) for _ in range(b + 1)]
        self.count[1][b] = n
        self.empty = 0
        self._undo: list[list[tuple[int, int, int]]] = [[] for _ in near]

    def has_room(self, box: int) -> bool:
        return self.load[box] < self.cfg.capacities[box - 1]

    def place(self, d: int, box: int) -> None:
        lo, hi, count = self.lo, self.hi, self.count
        changed = self._undo[d]
        for members, width in ((self.near[d], self.near_window), (self.far[d], self.far_window)):
            if not members:
                continue
            a, z = box - width, box + width
            for v in members:
                lv, hv = lo[v], hi[v]
                if a <= lv and hv <= z:
                    continue
                changed.append((v, lv, hv))
                nl = a if a > lv else lv
                nh = z if z < hv else hv
                lo[v] = nl
                hi[v] = nh
                if lv <= hv:
                    count[lv][hv] -= 1
                    if nl <= nh:
                        count[nl][nh] += 1
                    else:
                        self.empty += 1
        count[1][self.cfg.b] -= 1
        count[box][box] += 1
        self.load[box] += 1
        self.boxes[d] = box

    def retract(self, d: int) -> None:
        lo, hi, count = self.lo, self.hi, self.count
        changed = self._undo[d]
        for v, lv, hv in reversed(changed):
            nl, nh = lo[v], hi[v]
            if lv <= hv:
                if nl <= nh:
                    count[nl][nh] -= 1
                else:
                    self.empty -= 1
                count[lv][hv] += 1
            lo[v] = lv
            hi[v] = hv
        changed.clear()
        box = self.boxes[d]
        count[box][box] -= 1
        count[1][self.cfg.b] += 1
        self.load[box] -= 1
        self.boxes[d] = 0

    def cut(self) -> str | None:
        """Why no completion of this prefix is feasible (``"empty"`` or
        ``"hall"``), or ``None`` if it may have one.  Exact once every root
        is placed."""
        if self.empty:
            return "empty"
        if hall_violation(self.count, self.cum) is not None:
            return "hall"
        return None


def _first_feasible_placement(prefix: PlacementPrefix, stats: SearchStats):
    """Depth-first walk over capacity-respecting root placements in
    lexicographic order, cutting every prefix :meth:`PlacementPrefix.cut`
    rules out; the boxes of the first complete placement that passes, or
    ``None``."""
    boxes = prefix.boxes
    k = len(boxes)
    b = prefix.cfg.b
    d = 0
    while d >= 0:
        box = boxes[d]
        if box:
            prefix.retract(d)
        box += 1
        while box <= b and not prefix.has_room(box):
            box += 1
        if box > b:
            d -= 1
            continue
        prefix.place(d, box)
        stats.nodes_visited += 1
        cut = prefix.cut()
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


def _extract_layout(table, cfg: BoxConfig, backend: str, stats: SearchStats):
    """Layout from the chosen back end, or ``None`` if it finds the table
    infeasible."""
    if backend == "matching":
        m = max_matching(build_auxiliary(table, cfg))
        if not m.is_perfect(cfg.n):
            return None
        return matching_to_layout(normalize_matching(m, cfg), cfg)
    counts = count_intervals(table)
    if counts is None:
        return None
    stats.max_interval_keys = max(stats.max_interval_keys, len(counts.counts))
    inst = build_flow_instance(counts, cfg)
    stats.max_flow_nodes = max(stats.max_flow_nodes, inst.node_count)
    res = max_flow(inst)
    if res.value != cfg.n:
        return None
    return flow_to_layout(res, table, cfg)
