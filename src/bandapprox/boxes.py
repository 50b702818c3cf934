"""Box partition of the position line, root placements, and per-vertex
admissible box intervals.

This is the shared front end of both approximation back ends: positions
1..n are grouped into boxes of ``boxsize`` consecutive positions, roots are
assigned to boxes without exceeding any box's capacity, and each vertex
gets an interval of boxes it may occupy — the intersection of a window of
+/-2 boxes around each root within two hops and (by default) +/-3 around
each root at exactly three hops.  For the one-hop baseline the window is
+/-1 around each neighboring root.

The window rule lives in two places only: :func:`root_windows` says which
vertices each root constrains and by how many boxes, and
:meth:`PlacementPrefix.place` intersects the windows.  The search in
:mod:`bandapprox.search` walks placements with a :class:`PlacementPrefix`;
:func:`build_intervals` and :func:`update_intervals` place a whole
placement into a fresh one.  :func:`enumerate_placements` lists every
placement in the order that search visits them, and :func:`root_twins`
names the roots whose windows agree, whose boxes the search may sort.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterator, Mapping, Sequence

from .domset import RootSet
from .graph import Graph, bfs_from_set

@dataclass(frozen=True)
class BoxConfig:
    """``b = ceil(n/boxsize)`` boxes; the last keeps the remainder positions."""

    n: int
    boxsize: int
    b: int
    capacities: tuple[int, ...]

    def box_of(self, position: int) -> int:
        """1-based box index containing a 1-based position."""
        return (position - 1) // self.boxsize + 1

    def positions(self, box: int) -> range:
        start = (box - 1) * self.boxsize + 1
        return range(start, min(box * self.boxsize, self.n) + 1)


def make_box_config(n: int, boxsize: int) -> BoxConfig:
    if not 1 <= boxsize <= n:
        raise ValueError(f"boxsize must be in 1..{n}, got {boxsize}")
    b = -(-n // boxsize)
    capacities = (boxsize,) * (b - 1) + (n - (b - 1) * boxsize,)
    return BoxConfig(n=n, boxsize=boxsize, b=b, capacities=capacities)


@dataclass(frozen=True, order=True)
class RootPlacement:
    """Assignment of each root to a box; ``boxes`` is aligned with ``roots``."""

    roots: tuple[int, ...]
    boxes: tuple[int, ...]

    def as_mapping(self) -> dict[int, int]:
        return dict(zip(self.roots, self.boxes))


def enumerate_placements(rs: RootSet, cfg: BoxConfig) -> Iterator[RootPlacement]:
    """All capacity-respecting root-to-box maps, in lexicographic order
    over the sorted root list."""
    roots = rs.roots
    load = [0] * (cfg.b + 1)
    choice: list[int] = []

    def rec(i: int) -> Iterator[RootPlacement]:
        if i == len(roots):
            yield RootPlacement(roots=roots, boxes=tuple(choice))
            return
        for box in range(1, cfg.b + 1):
            if load[box] < cfg.capacities[box - 1]:
                load[box] += 1
                choice.append(box)
                yield from rec(i + 1)
                choice.pop()
                load[box] -= 1

    yield from rec(0)


# ``(near, far, near_window, far_window)`` as :func:`root_windows` gives it
RootWindows = tuple[
    tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], int, int | None
]


@dataclass(frozen=True)
class IntervalTable:
    """Per-vertex admissible box range under one placement, plus the root
    windows needed to recompute it for another without touching the graph.

    ``intervals[v]`` is ``(lo, hi)`` or ``None`` for an infeasible vertex;
    roots are pinned to their assigned box.  ``windows`` is the
    :func:`root_windows` tuple the intervals were placed from.
    """

    cfg: BoxConfig
    placement: RootPlacement
    intervals: tuple[tuple[int, int] | None, ...]
    windows: RootWindows


def root_distances(g: Graph, rs: RootSet) -> dict[int, tuple[int | None, ...]]:
    """Hop distances from each individual root (one BFS per root).

    Run once per root set; every placement afterwards reuses these records.
    """
    return {u: bfs_from_set(g, (u,)).dist for u in rs.roots}


def root_windows(
    rs: RootSet,
    dists: Mapping[int, Sequence[int | None]],
    use_3hop: bool = True,
) -> RootWindows:
    """``(near, far, near_window, far_window)``: which vertices each root
    constrains, and by how many boxes.

    A vertex within ``near_window = rs.hop_radius`` hops of a root stays
    within that many boxes of it, one at exactly ``near_window + 1`` hops
    within ``far_window = 3`` boxes; ``far_window`` is ``None`` when the
    three-hop tightening is off or the roots are one-hop.  ``near[d]`` and
    ``far[d]`` list those non-root vertices for root ``d`` (aligned with
    ``rs.roots``; ``far[d]`` is empty without the tightening).  Roots are
    left out: they are pinned to their own box instead.  Only
    :meth:`PlacementPrefix.place` intersects these windows.
    """
    near_window = rs.hop_radius
    far_window = 3 if (use_3hop and rs.hop_radius == 2) else None
    root_set = set(rs.roots)
    non_roots = [v for v in range(len(dists[rs.roots[0]])) if v not in root_set]
    near: list[tuple[int, ...]] = []
    far: list[tuple[int, ...]] = []
    for u in rs.roots:
        du = dists[u]
        others = [v for v in non_roots if du[v] is not None]
        near.append(tuple(v for v in others if du[v] <= near_window))
        far.append(
            tuple(v for v in others if du[v] == near_window + 1)
            if far_window is not None
            else ()
        )
    return tuple(near), tuple(far), near_window, far_window


def root_twins(rs: RootSet, dists: Mapping[int, Sequence[int | None]]) -> tuple[int, ...]:
    """For each root (aligned with ``rs.roots``), the index of the last
    earlier root that is its closed twin, or -1.

    Two roots are closed twins when their balls of radius ``rs.hop_radius``
    agree, roots included: then every vertex falls in the same window class
    for both, since a ball ``B`` also fixes the next layer ``N(B) - B`` that
    the far window covers.  Swapping the boxes of two twins changes no
    interval and no box load, so a placement is feasible iff the one with
    each twin class's boxes sorted is.
    """
    # maps each hop distance inside the ball to True; others (and None) miss
    in_ball = dict.fromkeys(range(rs.hop_radius + 1), True)
    last: dict[tuple, int] = {}
    twins = []
    for d, u in enumerate(rs.roots):
        ball = tuple(map(in_ball.get, dists[u]))
        twins.append(last.get(ball, -1))
        last[ball] = d
    return tuple(twins)


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
    root ``d``, as :func:`root_windows` gives them).  :meth:`place` is the
    one code that intersects root windows: the search walks placements with
    it and :func:`build_intervals` places whole placements with it.
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


def _placed_intervals(
    cfg: BoxConfig, rp: RootPlacement, windows: RootWindows
) -> tuple[tuple[int, int] | None, ...]:
    """Every root of ``rp`` placed into a fresh :class:`PlacementPrefix`,
    then pinned to its own box."""
    prefix = PlacementPrefix(cfg.n, cfg, *windows)
    for d, box in enumerate(rp.boxes):
        prefix.place(d, box)
    intervals = [(lo, hi) if lo <= hi else None for lo, hi in zip(prefix.lo, prefix.hi)]
    for root, box in zip(rp.roots, rp.boxes):
        intervals[root] = (box, box)
    return tuple(intervals)


def build_intervals(
    g: Graph,
    rs: RootSet,
    rp: RootPlacement,
    cfg: BoxConfig,
    dists: Mapping[int, Sequence[int | None]],
    use_3hop: bool = True,
) -> IntervalTable:
    """Interval table for one placement, from precomputed root distances.

    Requires a certified root set: certification is what guarantees every
    non-root vertex lies in some root's near window, so an unconstrained
    interval cannot occur.
    """
    if not rs.certified:
        raise ValueError("root set must be certified before building intervals")
    if rp.roots != rs.roots:
        raise ValueError("placement roots differ from the root set")
    windows = root_windows(rs, dists, use_3hop)
    constrained = set(rs.roots).union(*windows[0])
    for v in range(g.n):
        if v not in constrained:
            raise AssertionError(f"certified root set leaves vertex {v} unconstrained")
    return IntervalTable(
        cfg=cfg, placement=rp, intervals=_placed_intervals(cfg, rp, windows), windows=windows
    )


def update_intervals(
    table: IntervalTable, old_rp: RootPlacement, new_rp: RootPlacement
) -> IntervalTable:
    """Recompute the table for a new placement from its stored root windows.

    Equivalent to a fresh :func:`build_intervals` under ``new_rp`` but does
    no BFS and never touches the graph.
    """
    if table.placement != old_rp:
        raise ValueError("table was built for a different placement")
    if new_rp.roots != table.placement.roots:
        raise ValueError("root set mismatch between table and new placement")
    intervals = _placed_intervals(table.cfg, new_rp, table.windows)
    return replace(table, placement=new_rp, intervals=intervals)
