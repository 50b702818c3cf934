"""Box partition of the position line, root placements, and per-vertex
admissible box intervals.

This is the shared front end of both approximation back ends: positions
1..n are grouped into boxes of ``boxsize`` consecutive positions, roots are
assigned to boxes without exceeding any box's capacity, and each vertex
gets an interval of boxes it may occupy — the intersection of a window of
+/-2 boxes around each root within two hops and (by default) +/-3 around
each root at exactly three hops.  For the one-hop baseline the window is
+/-1 around each neighboring root.  The search over assignments lives in
:mod:`bandapprox.search`; :func:`enumerate_placements` lists them all in
the order that search visits them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class IntervalTable:
    """Per-vertex admissible box range plus the dominator records needed to
    recompute it for a different placement without touching the graph.

    ``intervals[v]`` is ``(lo, hi)`` or ``None`` for an infeasible vertex.
    ``near[v]`` lists roots within ``near_window`` hops of v (window
    ``+/-near_window`` boxes); ``far[v]`` lists roots at exactly
    ``near_window + 1`` hops (window ``+/-far_window``), empty when the
    three-hop tightening is off.  Roots are pinned to their assigned box.
    """

    cfg: BoxConfig
    roots: tuple[int, ...]
    placement: RootPlacement
    intervals: tuple[tuple[int, int] | None, ...]
    near: tuple[tuple[int, ...], ...]
    far: tuple[tuple[int, ...], ...]
    near_window: int
    far_window: int | None

    def interval(self, v: int) -> tuple[int, int] | None:
        return self.intervals[v]


def root_distances(g: Graph, rs: RootSet) -> dict[int, tuple[int | None, ...]]:
    """Hop distances from each individual root (one BFS per root).

    Run once per root set; every placement afterwards reuses these records.
    """
    return {u: bfs_from_set(g, (u,)).dist for u in rs.roots}


def window_sizes(rs: RootSet, use_3hop: bool = True) -> tuple[int, int | None]:
    """``(near_window, far_window)``: a vertex within ``near_window`` hops of
    a root stays within that many boxes of it, one at exactly
    ``near_window + 1`` hops within ``far_window`` boxes (``None`` when the
    three-hop tightening is off or the roots are one-hop)."""
    far_window = 3 if (use_3hop and rs.hop_radius == 2) else None
    return rs.hop_radius, far_window


def root_windows(
    rs: RootSet,
    dists: Mapping[int, Sequence[int | None]],
    use_3hop: bool = True,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], int, int | None]:
    """``(near, far, near_window, far_window)``: per root (aligned with
    ``rs.roots``), the non-root vertices its box constrains, those within
    ``near_window`` hops in ``near`` and those at exactly ``near_window + 1``
    hops in ``far`` (empty without the three-hop tightening), then the
    window sizes of :func:`window_sizes`.

    The transpose of :class:`IntervalTable`'s ``near``/``far`` records,
    without the roots, which are pinned to their own box instead.
    """
    near_window, far_window = window_sizes(rs, use_3hop)
    root_set = set(rs.roots)
    near: list[tuple[int, ...]] = []
    far: list[tuple[int, ...]] = []
    for u in rs.roots:
        du = dists[u]
        others = [v for v in range(len(du)) if v not in root_set and du[v] is not None]
        near.append(tuple(v for v in others if du[v] <= near_window))
        far.append(
            tuple(v for v in others if du[v] == near_window + 1)
            if far_window is not None
            else ()
        )
    return tuple(near), tuple(far), near_window, far_window


def _derive_intervals(
    n: int,
    root_boxes: Mapping[int, int],
    roots: tuple[int, ...],
    near: Sequence[tuple[int, ...]],
    far: Sequence[tuple[int, ...]],
    near_window: int,
    far_window: int | None,
    b: int,
) -> tuple[tuple[int, int] | None, ...]:
    root_set = set(roots)
    out: list[tuple[int, int] | None] = []
    for v in range(n):
        if v in root_set:
            k = root_boxes[v]
            out.append((k, k))
            continue
        lo, hi = 1, b
        for u in near[v]:
            k = root_boxes[u]
            lo = max(lo, k - near_window)
            hi = min(hi, k + near_window)
        if far_window is not None:
            for u in far[v]:
                k = root_boxes[u]
                lo = max(lo, k - far_window)
                hi = min(hi, k + far_window)
        out.append((lo, hi) if lo <= hi else None)
    return tuple(out)


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
    vertex has at least one constraining root, so an unconstrained interval
    cannot occur.
    """
    if not rs.certified:
        raise ValueError("root set must be certified before building intervals")
    if rp.roots != rs.roots:
        raise ValueError("placement roots differ from the root set")
    near_window, far_window = window_sizes(rs, use_3hop)

    near: list[tuple[int, ...]] = []
    far: list[tuple[int, ...]] = []
    for v in range(g.n):
        nd = []
        fd = []
        for u in rs.roots:
            d = dists[u][v]
            if d is None:
                continue
            if d <= near_window:
                nd.append(u)
            elif far_window is not None and d == near_window + 1:
                fd.append(u)
        if not nd:
            raise AssertionError(f"certified root set leaves vertex {v} unconstrained")
        near.append(tuple(nd))
        far.append(tuple(fd))

    intervals = _derive_intervals(
        g.n, rp.as_mapping(), rs.roots, near, far, near_window, far_window, cfg.b
    )
    return IntervalTable(
        cfg=cfg,
        roots=rs.roots,
        placement=rp,
        intervals=intervals,
        near=tuple(near),
        far=tuple(far),
        near_window=near_window,
        far_window=far_window,
    )


def update_intervals(
    table: IntervalTable, old_rp: RootPlacement, new_rp: RootPlacement
) -> IntervalTable:
    """Recompute the table for a new placement from stored dominator records.

    Equivalent to a fresh :func:`build_intervals` under ``new_rp`` but does
    no BFS and never touches the graph: each entry is rebuilt in constant
    time per recorded dominator.
    """
    if table.placement != old_rp:
        raise ValueError("table was built for a different placement")
    if new_rp.roots != table.roots:
        raise ValueError("root set mismatch between table and new placement")
    intervals = _derive_intervals(
        table.cfg.n,
        new_rp.as_mapping(),
        table.roots,
        table.near,
        table.far,
        table.near_window,
        table.far_window,
        table.cfg.b,
    )
    return replace(table, placement=new_rp, intervals=intervals)
