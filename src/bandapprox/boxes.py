"""Box partition of the position line, root placements, and per-vertex
admissible box intervals.

This is the shared front end of both approximation back ends: positions
1..n are grouped into boxes of ``boxsize`` consecutive positions, roots are
assigned to boxes without exceeding any box's capacity, and each vertex
gets an interval of boxes it may occupy — the intersection of a window of
+/-2 boxes around each root within two hops and (by default) +/-3 around
each root at exactly three hops.  For the one-hop baseline the window is
+/-1 around each neighboring root.

Every root's ball (the vertices within ``hop_radius`` hops) and ring (those
one hop further) come from one truncated layer walk on the adjacency
bitsets, :func:`root_balls`; everything the search needs of the graph is
read off these masks.  The window rule lives in two places only:
:func:`root_windows` says which vertices each root constrains and by how
many boxes, and
:meth:`PlacementPrefix.place` intersects the windows.  Non-root vertices
that every root sees alike (near, far or outside its windows) always get
the same interval, so :func:`root_windows` groups them into classes and
the windows list one representative per class; the prefix weighs each
class by its size in the Hall histogram and expands it back to vertices
only when it reads off an interval table.  On a diameter-2 graph every
non-root lies in every root's near window, so there is one class.  The
search in :mod:`bandapprox.search` walks placements with a
:class:`PlacementPrefix` and reads the winner's table off it;
:func:`build_intervals` and :func:`update_intervals` place a whole
placement into a fresh one.  :func:`enumerate_placements` lists every
placement in the order that search visits them, and :func:`root_twins`
names the roots whose windows agree, whose boxes the search may sort.
:meth:`PlacementPrefix.cut` uses the twins to look ahead: the unplaced
members of the next root's twin class lie between their placed twin's box
and the box of the class's last member, and the prefix is cut when no
choice of that last box passes the Hall test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterator, Sequence

from .domset import RootSet
from .graph import Graph, bfs_from_set, hop_balls

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


# ``(near, far, near_window, far_window, classes)`` as :func:`root_windows`
# gives it
RootWindows = tuple[
    tuple[tuple[int, ...], ...],
    tuple[tuple[int, ...], ...],
    int,
    int | None,
    tuple[tuple[int, ...], ...],
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

    The search does not use these: it reads the roots' balls and rings off
    :func:`root_balls`.  They remain for callers that want the distances
    themselves.
    """
    return {u: bfs_from_set(g, (u,)).dist for u in rs.roots}


# ``(ball, ring)`` bitmasks per root, as :func:`root_balls` gives them
RootBalls = tuple[tuple[int, int], ...]


def root_balls(g: Graph, rs: RootSet) -> RootBalls:
    """Per root (aligned with ``rs.roots``), the bitmasks of its ball, the
    vertices within ``rs.hop_radius`` hops of it (itself included), and of
    its ring, those at exactly ``rs.hop_radius + 1`` hops.

    One :func:`~bandapprox.graph.hop_balls` walk of ``hop_radius + 1``
    layers per root, on the adjacency bitsets; :func:`root_windows` and
    :func:`root_twins` read everything they need off these masks.
    """
    r = rs.hop_radius
    out = []
    for u in rs.roots:
        balls = hop_balls(g, (u,), r + 1)
        out.append((balls[r], balls[r + 1] ^ balls[r]))
    return tuple(out)


def _members(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending."""
    bits = bin(mask)[:1:-1]  # bits[v] == "1" iff bit v is set
    members = []
    v = bits.find("1")
    while v >= 0:
        members.append(v)
        v = bits.find("1", v + 1)
    return tuple(members)


def root_windows(
    rs: RootSet,
    balls: RootBalls,
    n: int,
    use_3hop: bool = True,
) -> RootWindows:
    """``(near, far, near_window, far_window, classes)``: which of the
    ``n`` vertices each root constrains, and by how many boxes.

    A vertex within ``near_window = rs.hop_radius`` hops of a root (in its
    ball, as :func:`root_balls` gives it) stays within that many boxes of
    it, one at exactly ``near_window + 1`` hops (in its ring) within
    ``far_window = 3`` boxes; ``far_window`` is ``None`` when the
    three-hop tightening is off or the roots are one-hop.  Roots are left
    out: they are pinned to their own box instead.

    The non-root vertices are grouped into ``classes``: two share a class
    iff every root holds both in its near window, both in its far window or
    neither, so they get the same interval under every placement.  Each
    class is a tuple of its members, ascending, and is represented by its
    first member; the classes are sorted by representative.  ``near[d]``
    and ``far[d]`` list the representatives of the classes root ``d``
    (aligned with ``rs.roots``) holds in each window; ``far[d]`` is empty
    without the tightening.  The classes come from partition refinement
    over the roots' window bitmasks.  Only :meth:`PlacementPrefix.place`
    intersects these windows.
    """
    near_window = rs.hop_radius
    far_window = 3 if (use_3hop and rs.hop_radius == 2) else None
    k = len(rs.roots)
    if k == n:  # nothing left to constrain
        return ((),) * k, ((),) * k, near_window, far_window, ()
    non_roots = (1 << n) - 1
    for u in rs.roots:
        non_roots ^= 1 << u
    windows = [
        (ball & non_roots, ring & non_roots if far_window is not None else 0)
        for ball, ring in balls
    ]
    blocks = [non_roots]
    for near_mask, far_mask in windows:
        outside = ~(near_mask | far_mask)
        blocks = [
            part
            for block in blocks
            for part in (block & near_mask, block & far_mask, block & outside)
            if part
        ]
    blocks.sort(key=lambda block: block & -block)  # by lowest member
    classes = tuple(map(_members, blocks))
    reps = [members[0] for members in classes]
    near = tuple(
        tuple(r for r, block in zip(reps, blocks) if block & near_mask)
        for near_mask, _ in windows
    )
    far = tuple(
        tuple(r for r, block in zip(reps, blocks) if block & far_mask)
        for _, far_mask in windows
    )
    return near, far, near_window, far_window, classes


def root_twins(balls: RootBalls) -> tuple[int, ...]:
    """For each root (aligned with the ``balls`` of :func:`root_balls`),
    the index of the last earlier root that is its closed twin, or -1.

    Two roots are closed twins when their balls of radius ``hop_radius``
    agree, roots included: then every vertex falls in the same window class
    for both, since a ball ``B`` also fixes the next layer ``N(B) - B`` that
    the far window covers.  Swapping the boxes of two twins changes no
    interval and no box load, so a placement is feasible iff the one with
    each twin class's boxes sorted is.  Each root is keyed by its ball's
    bitmask.
    """
    last: dict[int, int] = {}
    twins = []
    for d, (ball, _) in enumerate(balls):
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
    the intervals of the non-root classes, indexed by representative: the
    intersection of the windows of the placed roots that constrain the
    class (``near[d]``/``far[d]`` list those of root ``d``, and ``classes``
    the members of each, as :func:`root_windows` gives them).  :meth:`place`
    is the one code that intersects root windows: the search walks
    placements with it and :func:`build_intervals` places whole placements
    with it.  ``count`` is the histogram the Hall test reads, in vertices:
    each class weighs its size, each placed root is pinned to ``(k, k)``,
    each unplaced one counted as ``(1, b)`` and empty intervals left out
    (``empty`` counts their vertices).  Roots are placed in index order and
    retracted last in, first out; each placement costs O(classes the root
    constrains), one step for all non-roots on a diameter-2 graph.

    ``twins`` are the :func:`root_twins` links, all -1 (no twins) by
    default.  With them, :meth:`cut` assumes the completions are
    twin-ordered, each twin class taking non-decreasing boxes, and looks
    ahead over the next root's twin class.
    """

    def __init__(
        self,
        n: int,
        cfg: BoxConfig,
        near: Sequence[Sequence[int]],
        far: Sequence[Sequence[int]],
        near_window: int,
        far_window: int | None,
        classes: Sequence[Sequence[int]],
        twins: Sequence[int] | None = None,
    ) -> None:
        b = cfg.b
        k = len(near)
        self.cfg = cfg
        self.near = near
        self.far = far
        self.near_window = near_window
        self.far_window = far_window
        self.classes = classes
        self.twins = tuple(twins) if twins is not None else (-1,) * k
        # rest[d]: the members of root d's twin class from d on
        self.rest = [1] * k
        for d in range(k - 1, -1, -1):
            if self.twins[d] >= 0:
                self.rest[self.twins[d]] += self.rest[d]
        self.cum = list(accumulate(cfg.capacities, initial=0))
        self.boxes = [0] * k
        self.placed = 0
        self.load = [0] * (b + 1)
        self.lo = [1] * n
        self.hi = [b] * n
        self.weight = [0] * n
        for members in classes:
            self.weight[members[0]] = len(members)
        self.count = [[0] * (b + 1) for _ in range(b + 1)]
        self.count[1][b] = n
        self.empty = 0
        self._undo: list[list[tuple[int, int, int]]] = [[] for _ in near]

    def has_room(self, box: int) -> bool:
        return self.load[box] < self.cfg.capacities[box - 1]

    def _narrow(self, d: int, box: int, changed: list[tuple[int, int, int]]) -> None:
        """Intersect every class root ``d`` constrains with its window
        around ``box``, logging each old interval in ``changed``."""
        lo, hi, count, weight = self.lo, self.hi, self.count, self.weight
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
                    w = weight[v]
                    count[lv][hv] -= w
                    if nl <= nh:
                        count[nl][nh] += w
                    else:
                        self.empty += w

    def _restore(self, changed: list[tuple[int, int, int]]) -> None:
        """Undo the :meth:`_narrow` calls that logged into ``changed``."""
        lo, hi, count, weight = self.lo, self.hi, self.count, self.weight
        for v, lv, hv in reversed(changed):
            nl, nh = lo[v], hi[v]
            if lv <= hv:
                w = weight[v]
                if nl <= nh:
                    count[nl][nh] -= w
                else:
                    self.empty -= w
                count[lv][hv] += w
            lo[v] = lv
            hi[v] = hv
        changed.clear()

    def place(self, d: int, box: int) -> None:
        self._narrow(d, box, self._undo[d])
        self.count[1][self.cfg.b] -= 1
        self.count[box][box] += 1
        self.load[box] += 1
        self.boxes[d] = box
        self.placed += 1

    def retract(self, d: int) -> None:
        self._restore(self._undo[d])
        box = self.boxes[d]
        self.count[box][box] -= 1
        self.count[1][self.cfg.b] += 1
        self.load[box] -= 1
        self.boxes[d] = 0
        self.placed -= 1

    def cut(self) -> str | None:
        """Why no twin-ordered completion of this prefix is feasible
        (``"empty"`` or ``"hall"``), or ``None`` if it may have one.  Exact
        once every root is placed.

        When the next root ``e`` has a placed twin at box ``f``, the ``r``
        members of its twin class from ``e`` on all take boxes in
        ``f..y``, where ``y`` is the box of the class's last member.  For
        each ``y`` in ``f..b`` the look-ahead counts those ``r`` roots as
        ``(f, y)`` instead of ``(1, b)``, narrows the classes they constrain
        to their windows around ``y`` and runs the Hall test; the prefix is
        cut (``"hall"``) when no ``y`` passes.  Every interval stays a
        superset of its value in any completion with that ``y``, so only
        prefixes without a feasible twin-ordered completion are cut.
        """
        if self.empty:
            return "empty"
        e = self.placed
        if e == len(self.boxes) or self.twins[e] < 0:
            return "hall" if hall_violation(self.count, self.cum) is not None else None
        f = self.boxes[self.twins[e]]
        r = self.rest[e]
        b = self.cfg.b
        count, trial = self.count, []
        count[1][b] -= r
        passed = False
        for y in range(f, b + 1):
            count[f][y] += r
            self._narrow(e, y, trial)
            passed = not self.empty and hall_violation(count, self.cum) is None
            self._restore(trial)
            count[f][y] -= r
            if passed:
                break
        count[1][b] += r
        return None if passed else "hall"

    def intervals(self, roots: Sequence[int]) -> tuple[tuple[int, int] | None, ...]:
        """Every vertex's interval, as ``count`` weighs it: each class's
        members take their representative's, ``None`` if empty, and root
        ``roots[d]`` is pinned to ``boxes[d]``, or spans ``(1, b)`` while
        unplaced.  Under a complete placement these are the ``intervals``
        of its :class:`IntervalTable`."""
        out: list[tuple[int, int] | None] = [None] * self.cfg.n
        lo, hi = self.lo, self.hi
        for members in self.classes:
            r = members[0]
            interval = (lo[r], hi[r]) if lo[r] <= hi[r] else None
            for v in members:
                out[v] = interval
        for root, box in zip(roots, self.boxes):
            out[root] = (box, box) if box else (1, self.cfg.b)
        return tuple(out)


def _placed_intervals(
    cfg: BoxConfig, rp: RootPlacement, windows: RootWindows
) -> tuple[tuple[int, int] | None, ...]:
    """Every root of ``rp`` placed into a fresh :class:`PlacementPrefix`,
    then its intervals read off."""
    prefix = PlacementPrefix(cfg.n, cfg, *windows)
    for d, box in enumerate(rp.boxes):
        prefix.place(d, box)
    return prefix.intervals(rp.roots)


def build_intervals(
    g: Graph,
    rs: RootSet,
    rp: RootPlacement,
    cfg: BoxConfig,
    balls: RootBalls,
    use_3hop: bool = True,
) -> IntervalTable:
    """Interval table for one placement, from the precomputed
    :func:`root_balls`.

    Requires a certified root set: certification is what guarantees every
    non-root vertex lies in some root's near window, so an unconstrained
    interval cannot occur.
    """
    if not rs.certified:
        raise ValueError("root set must be certified before building intervals")
    if rp.roots != rs.roots:
        raise ValueError("placement roots differ from the root set")
    windows = root_windows(rs, balls, g.n, use_3hop)
    near, _, _, _, classes = windows
    held = set().union(*near)
    for members in classes:
        if members[0] not in held:
            raise AssertionError(
                f"certified root set leaves vertex {members[0]} unconstrained"
            )
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
