"""Box partition of the position line, root placements, and per-vertex
admissible box intervals.

This is the shared front end of both approximation back ends: positions
1..n are grouped into boxes of ``boxsize`` consecutive positions, roots are
assigned to boxes without exceeding any box's capacity, and each vertex
gets an interval of boxes it may occupy.  One rule gives it: a vertex ``h``
hops from a root stays within ``w(h)`` boxes of that root's box, with
``w = 2`` up to two hops and (by default) ``w = 3`` at exactly three hops
for the two-hop pipelines, and ``w = 1`` for the one-hop baseline's
neighbors.

A placement is the tuple of the roots' boxes, aligned with ``rs.roots``,
and its intervals are one tuple over the vertices: ``(lo, hi)``, or
``None`` where the windows leave a vertex no box.  That tuple is all the
back ends read.

Every root's ball (the vertices within ``hop_radius`` hops) and ring (those
one hop further) come from one truncated layer walk on the adjacency
bitsets, :func:`root_balls`; everything the search needs of the graph is
read off these masks.  The window rule lives in two places only:
:func:`root_windows` turns the masks into one :class:`RootWindows` record,
each root's windows as ``(width, members)`` layers plus the roots' twin
links, and :meth:`PlacementPrefix.place` intersects the windows.  Non-root
vertices that every root holds in the same window, or in none, always get
the same interval, so the record groups them into classes and the windows
list one representative per class; the prefix weighs each class by its
size in the Hall histogram, which counts its placed roots but not the
unplaced ones, and expands each class back to vertices only when it reads
off the intervals.  On a diameter-2 graph every non-root lies in every
root's ball, so there is one class.  The search in
:mod:`bandapprox.search` walks placements with a :class:`PlacementPrefix`
and reads the winner's intervals off it; :func:`update_intervals` places a
whole placement into a fresh one, and :func:`build_intervals` does so
straight from the root balls.  :func:`enumerate_placements` lists every
placement in the order that search visits them, and :func:`root_twins`
names the roots whose windows agree, whose boxes the search may sort.
:meth:`PlacementPrefix.cut` uses the twins to look ahead: the unplaced
members of the next root's twin class lie between their placed twin's box
and the box of the class's last member, and the prefix is cut when no
choice of that last box passes the Hall test.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def positions_for(self, boxes: Sequence[int]) -> tuple[int, ...]:
        """Every vertex's position, given ``boxes[v]``, the box each vertex
        ``v`` takes: each box hands out its positions in ascending vertex
        id.  Both back ends choose only the boxes; this is the one rule
        that turns them into a layout.  ``AssertionError`` unless every
        box receives exactly its capacity."""
        members: dict[int, list[int]] = {box: [] for box in range(1, self.b + 1)}
        for v, box in enumerate(boxes):
            members.setdefault(box, []).append(v)  # ids ascend within each box
        pos = [0] * len(boxes)
        for box, vs in members.items():
            slots = self.positions(box) if 1 <= box <= self.b else range(0)
            if len(vs) != len(slots):
                raise AssertionError(
                    f"box {box} received {len(vs)} vertices for {len(slots)} positions"
                )
            for v, p in zip(vs, slots):
                pos[v] = p
        return tuple(pos)


def make_box_config(n: int, boxsize: int) -> BoxConfig:
    if not 1 <= boxsize <= n:
        raise ValueError(f"boxsize must be in 1..{n}, got {boxsize}")
    b = -(-n // boxsize)
    capacities = (boxsize,) * (b - 1) + (n - (b - 1) * boxsize,)
    return BoxConfig(n=n, boxsize=boxsize, b=b, capacities=capacities)


def enumerate_placements(rs: RootSet, cfg: BoxConfig) -> Iterator[tuple[int, ...]]:
    """All capacity-respecting placements, each the tuple of the roots'
    boxes (aligned with ``rs.roots``), in lexicographic order."""
    k = len(rs.roots)
    load = [0] * (cfg.b + 1)
    choice: list[int] = []

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == k:
            yield tuple(choice)
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
class RootWindows:
    """Which vertices each root constrains, and by how many boxes, as
    :func:`root_windows` gives it.

    ``layers[d]`` holds one ``(width, members)`` pair per window of root
    ``d`` (aligned with ``rs.roots``): every listed vertex stays within
    ``width`` boxes of the root's box.  ``members`` are class
    representatives, each standing for its whole class in ``classes``.
    ``twins[d]`` is the :func:`root_twins` link of root ``d``.
    """

    layers: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    classes: tuple[tuple[int, ...], ...]
    twins: tuple[int, ...]


# every vertex's ``(lo, hi)`` box interval, ``None`` where it is empty
Intervals = tuple[tuple[int, int] | None, ...]


def root_distances(g: Graph, rs: RootSet) -> dict[int, tuple[int | None, ...]]:
    """Hop distances from each individual root (one BFS per root).

    The search does not use these: it reads the roots' balls and rings off
    :func:`root_balls`.  They remain for callers that want the distances
    themselves.
    """
    return {u: bfs_from_set(g, (u,)) for u in rs.roots}


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
    """Which of the ``n`` vertices each root constrains, and by how many
    boxes.

    Each root has one or two windows.  Its ball (as :func:`root_balls`
    gives it) comes first, with width ``rs.hop_radius``: a vertex within
    that many hops stays within that many boxes of the root.  With the
    three-hop tightening on and two-hop roots, its ring follows, with
    width 3: a vertex at exactly three hops stays within 3 boxes.  Roots
    are left out: they are pinned to their own box instead.

    The non-root vertices are grouped into ``classes``: two share a class
    iff every root holds both in the same window or neither, so they get
    the same interval under every placement.  Each class is a tuple of its
    members, ascending, and is represented by its first member; the classes
    are sorted by representative, and each window lists the representatives
    of the classes it holds.  The classes come from partition refinement
    over the roots' window bitmasks.  ``twins`` are :func:`root_twins` of
    ``balls``.  Only :meth:`PlacementPrefix.place` intersects these
    windows.
    """
    widths = (rs.hop_radius, 3) if use_3hop and rs.hop_radius == 2 else (rs.hop_radius,)
    non_roots = (1 << n) - 1
    for u in rs.roots:
        non_roots ^= 1 << u
    # twins' balls agree, and so do their rings: one entry per twin class
    masks = {ball: (ball & non_roots, ring & non_roots)[: len(widths)] for ball, ring in balls}
    blocks = [non_roots]
    for layer in masks.values():
        parts = (*layer, ~sum(layer))  # a root's windows are disjoint
        blocks = [part for block in blocks for mask in parts if (part := block & mask)]
    blocks.sort(key=lambda block: block & -block)  # by lowest member
    classes = tuple(map(_members, blocks))
    pairs = [(members[0], block) for members, block in zip(classes, blocks)]
    listed = {}
    for ball, layer in masks.items():
        # list comprehensions: generators cost more at these sizes
        listed[ball] = tuple(
            [(w, tuple([r for r, block in pairs if block & mask])) for w, mask in zip(widths, layer)]
        )
    layers = tuple(listed[ball] for ball, _ in balls)
    return RootWindows(layers=layers, classes=classes, twins=root_twins(balls))


def root_twins(balls: RootBalls) -> tuple[int, ...]:
    """For each root (aligned with the ``balls`` of :func:`root_balls`),
    the index of the last earlier root that is its closed twin, or -1.

    Two roots are closed twins when their balls of radius ``hop_radius``
    agree, roots included: then every vertex falls in the same window class
    for both, since a ball ``B`` also fixes the next layer ``N(B) - B``, the
    ring.  Swapping the boxes of two twins changes no interval and no box
    load, so a placement is feasible iff the one with each twin class's
    boxes sorted is.  Each root is keyed by its ball's bitmask.
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
    intersection of the windows of the placed roots that hold the class
    (``layers[d]`` lists root ``d``'s ``(width, members)`` windows, and
    ``classes`` the members of each class, as the :class:`RootWindows`
    record gives them).  :meth:`place` is the one code that intersects
    root windows: the search walks placements with it and
    :func:`build_intervals` places whole placements with it.  ``count`` is
    the histogram the Hall test reads, in vertices: each class weighs its
    size, each placed root is pinned to ``(k, k)``, and unplaced roots and
    empty intervals are left out (``empty`` counts the latter's vertices).
    An unplaced root would count as ``(1, b)``, which lies in no range but
    ``(1, b)`` itself; that range holds all ``n`` positions and the
    histogram never more than ``n`` vertices, so leaving the unplaced roots
    out changes no verdict.  Roots are placed in index order and retracted
    last in, first out; each placement costs O(classes the root
    constrains), one step for all non-roots on a diameter-2 graph.

    :meth:`cut` assumes the completions are twin-ordered, each class of
    the record's ``twins`` taking non-decreasing boxes, and looks ahead
    over the next root's twin class.
    """

    def __init__(self, cfg: BoxConfig, windows: RootWindows) -> None:
        n, b = cfg.n, cfg.b
        k = len(windows.layers)
        self.cfg = cfg
        self.layers = windows.layers
        self.classes = windows.classes
        self.twins = windows.twins
        # rest[d]: the members of root d's twin class from d on
        self.rest = [1] * k
        for d in range(k - 1, -1, -1):
            if self.twins[d] >= 0:
                self.rest[self.twins[d]] += self.rest[d]
        self.cum = list(accumulate(cfg.capacities, initial=0))
        self.boxes = [0] * k
        self.load = [0] * (b + 1)
        self.lo = [1] * n
        self.hi = [b] * n
        self.weight = [0] * n
        for members in self.classes:
            self.weight[members[0]] = len(members)
        self.count = [[0] * (b + 1) for _ in range(b + 1)]
        self.count[1][b] = n - k
        self.empty = 0
        self._undo: list[list[tuple[int, int, int]]] = [[] for _ in range(k)]

    def has_room(self, box: int) -> bool:
        return self.load[box] < self.cfg.capacities[box - 1]

    def _narrow(self, d: int, box: int, changed: list[tuple[int, int, int]]) -> None:
        """Intersect every class root ``d`` constrains with its window
        around ``box``, logging each old interval in ``changed``."""
        lo, hi, count, weight = self.lo, self.hi, self.count, self.weight
        for width, members in self.layers[d]:
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
        self.count[box][box] += 1
        self.load[box] += 1
        self.boxes[d] = box

    def retract(self, d: int) -> None:
        self._restore(self._undo[d])
        box = self.boxes[d]
        self.count[box][box] -= 1
        self.load[box] -= 1
        self.boxes[d] = 0

    def cut(self, e: int) -> str | None:
        """Why no twin-ordered completion of this prefix, whose roots
        ``0..e-1`` are placed, is feasible (``"empty"`` or ``"hall"``), or
        ``None`` if it may have one.  Exact once every root is placed.

        When the next root ``e`` has a placed twin at box ``f``, the ``r``
        members of its twin class from ``e`` on all take boxes in
        ``f..y``, where ``y`` is the box of the class's last member.  For
        each ``y`` in ``f..b`` the look-ahead counts those ``r`` roots as
        ``(f, y)``, narrows the classes they constrain to their windows
        around ``y`` and runs the Hall test; the prefix is cut (``"hall"``)
        when no ``y`` passes.  Every interval stays a superset of its value
        in any completion with that ``y``, so only prefixes without a
        feasible twin-ordered completion are cut.
        """
        if self.empty:
            return "empty"
        if e == len(self.boxes) or self.twins[e] < 0:
            return "hall" if hall_violation(self.count, self.cum) is not None else None
        f = self.boxes[self.twins[e]]
        r = self.rest[e]
        b = self.cfg.b
        count, trial = self.count, []
        passed = False
        for y in range(f, b + 1):
            count[f][y] += r
            self._narrow(e, y, trial)
            passed = not self.empty and hall_violation(count, self.cum) is None
            self._restore(trial)
            count[f][y] -= r
            if passed:
                break
        return None if passed else "hall"

    def intervals(self, roots: Sequence[int]) -> Intervals:
        """Every vertex's interval: each class's members take their
        representative's, ``None`` if empty, and root ``roots[d]`` is
        pinned to ``boxes[d]``, or spans ``(1, b)`` while unplaced.
        ``count`` weighs all of them but the unplaced roots.  Under a
        complete placement these are the placement's intervals, as
        :func:`update_intervals` gives them."""
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


def update_intervals(
    rs: RootSet, windows: RootWindows, cfg: BoxConfig, boxes: Sequence[int]
) -> Intervals:
    """Every vertex's interval under the placement ``boxes`` (aligned with
    ``rs.roots``), from the :func:`root_windows` record ``windows``: each
    root placed into a fresh :class:`PlacementPrefix`, then the intervals
    read off.  Does no BFS and never touches the graph."""
    if not rs.certified:
        raise ValueError("root set must be certified before building intervals")
    if len(boxes) != len(rs.roots):
        raise ValueError(f"root count mismatch: {len(boxes)} boxes for {len(rs.roots)} roots")
    for box in boxes:
        if not 1 <= box <= cfg.b:
            raise ValueError(f"box {box} out of range 1..{cfg.b}")
    prefix = PlacementPrefix(cfg, windows)
    for d, box in enumerate(boxes):
        prefix.place(d, box)
    return prefix.intervals(rs.roots)


def build_intervals(
    g: Graph,
    rs: RootSet,
    boxes: Sequence[int],
    cfg: BoxConfig,
    balls: RootBalls,
    use_3hop: bool = True,
) -> Intervals:
    """Every vertex's interval under the placement ``boxes``, from the
    precomputed :func:`root_balls`: their :func:`root_windows`, then
    :func:`update_intervals`.

    Requires a certified root set: certification is what guarantees every
    non-root vertex lies in some root's ball, its first window, so an
    unconstrained interval cannot occur.
    """
    windows = root_windows(rs, balls, g.n, use_3hop)
    intervals = update_intervals(rs, windows, cfg, boxes)
    held = {v for layer in windows.layers for v in layer[0][1]}  # the balls
    for members in windows.classes:
        if members[0] not in held:
            raise AssertionError(
                f"certified root set leaves vertex {members[0]} unconstrained"
            )
    return intervals
