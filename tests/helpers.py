"""Graph builders and independent oracles shared across the test modules.

Every oracle here is deliberately naive (Floyd-Warshall, exhaustive
matching enumeration, cut enumeration, a scan of every permutation) so
that the fast implementations are checked against something that cannot
share their bugs.  ``frozen_gen_dense_random`` keeps the first version of
the graph generator and ``frozen_exact_bandwidth`` the list-based exact
solver, which the current ones must reproduce exactly, and
``recorded_leaves`` lists every complete placement a search tests.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from math import sqrt

import numpy as np

from bandapprox.boxes import BoxConfig, PlacementPrefix, RootWindows
from bandapprox.domset import RootSet
from bandapprox.flow import FlowInstance
from bandapprox.graph import Graph, make_graph, min_degree
from bandapprox.oracle import DEFAULT_ORACLE_CAP, Layout, OracleCapError, degree_lower_bound
from bandapprox.util import ceil_snapped

ENUMERATION_CAP = 10


def sample_rootset(g: Graph, size: int, seed: int, hop_radius: int = 2) -> RootSet:
    """Uniformly random vertex subset of the given size, uncertified."""
    if not 1 <= size <= g.n:
        raise ValueError(f"size must be in 1..{g.n}, got {size}")
    rng = random.Random(seed)
    roots = tuple(sorted(rng.sample(range(g.n), size)))
    return RootSet(roots=roots, hop_radius=hop_radius)


@contextmanager
def recorded_leaves():
    """Every complete placement the searches run inside the block test, as
    ``(boxsize, boxes, feasible)`` in walk order, the winner last.

    Wraps :meth:`PlacementPrefix.cut`, which the walk calls once per node;
    a call with every root placed is a leaf.
    """
    leaves = []
    cut = PlacementPrefix.cut

    def recording(self, e):
        verdict = cut(self, e)
        if e == len(self.boxes):
            leaves.append((self.cfg.boxsize, tuple(self.boxes), verdict is None))
        return verdict

    PlacementPrefix.cut = recording
    try:
        yield leaves
    finally:
        PlacementPrefix.cut = cut


def three_hop_listings(windows: RootWindows) -> int:
    """How many class representatives the roots hold in +/-3 windows."""
    return sum(len(members) for layer in windows.layers for width, members in layer if width == 3)


def reference_intervals(g: Graph, rs: RootSet, placement, cfg: BoxConfig,
                        dists, use_3hop: bool = True):
    """Every vertex's box interval under a complete placement (the roots'
    boxes, aligned with ``rs.roots``), derived vertex by vertex straight
    from hop distances: a root sits in its own box; any other vertex lies
    within ``hop_radius`` boxes of each root at most ``hop_radius`` hops
    away and, for two-hop roots with the tightening on, within 3 boxes of
    each root at exactly 3 hops.  ``None`` marks an empty intersection."""
    boxes = dict(zip(rs.roots, placement))
    out = []
    for v in range(g.n):
        if v in boxes:
            out.append((boxes[v], boxes[v]))
            continue
        lo, hi = 1, cfg.b
        for u in rs.roots:
            d = dists[u][v]
            if d is None:
                continue
            if d <= rs.hop_radius:
                width = rs.hop_radius
            elif use_3hop and rs.hop_radius == 2 and d == 3:
                width = 3
            else:
                continue
            lo, hi = max(lo, boxes[u] - width), min(hi, boxes[u] + width)
        out.append((lo, hi) if lo <= hi else None)
    return tuple(out)


def path_graph(n: int) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def planted_order(n: int, seed: int) -> list[int]:
    """The vertices of ``planted_band(n, w, seed, p)`` in planted order:
    the layout putting ``order[i]`` at position ``i + 1`` has bandwidth at
    most ``w``."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def planted_band(n: int, w: int, seed: int, p: float = 1.0) -> Graph:
    """The w-th power of a path on n vertices, relabeled at random
    (:func:`planted_order`); every edge but the path's own is kept with
    probability ``p``, so the graph stays connected."""
    order = planted_order(n, seed)
    keep = random.Random(f"planted-keep-{seed}")
    edges = [
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, min(n, i + w + 1))
        if j == i + 1 or keep.random() < p
    ]
    return make_graph(n, edges)


def cycle_graph(n: int) -> Graph:
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves: int) -> Graph:
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def empty_graph(n: int) -> Graph:
    return make_graph(n, [])


def er_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def floyd_warshall_from_set(g: Graph, sources) -> list[int | None]:
    """All-pairs shortest paths, then min over the source set."""
    big = g.n + 10
    dist = [[big] * g.n for _ in range(g.n)]
    for v in range(g.n):
        dist[v][v] = 0
    for u, v in g.edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(g.n):
        dk = dist[k]
        for i in range(g.n):
            dik = dist[i][k]
            if dik >= big:
                continue
            di = dist[i]
            for j in range(g.n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    out: list[int | None] = []
    for v in range(g.n):
        best = min(dist[s][v] for s in sources)
        out.append(None if best >= big else best)
    return out


def box_gap_violations(g: Graph, layout, rs: RootSet, placement, cfg: BoxConfig):
    """Edges whose box gap exceeds the window case analysis, for a layout
    the two-hop pipeline emits with the three-hop tightening on under the
    placement ``placement`` of ``rs``.

    An edge (u, v) whose designated roots sit gamma boxes apart can span at
    most 7 - gamma boxes for 1 <= gamma <= 5 and at most 5 boxes for
    gamma = 0.  A root designates itself, any other vertex its lowest root
    within two hops, found by Floyd-Warshall rather than from the root
    windows.  Returns offending ``(u, v, gap, gamma)`` tuples; empty on
    every such layout.
    """
    if rs.hop_radius != 2:
        raise ValueError("gap analysis applies to two-hop root sets")
    boxes = dict(zip(rs.roots, placement))
    designated = {v: v for v in boxes}
    for u in sorted(boxes):
        for v, d in enumerate(floyd_warshall_from_set(g, [u])):
            if d is not None and d <= 2:
                designated.setdefault(v, u)
    out = []
    for u, v in g.edges:
        gap = abs(cfg.box_of(layout.pos[u]) - cfg.box_of(layout.pos[v]))
        gamma = abs(boxes[designated[u]] - boxes[designated[v]])
        bound = 5 if gamma == 0 else 7 - gamma
        if gamma > 5 or gap > bound:
            out.append((u, v, gap, gamma))
    return out


def brute_force_matching_size(adj) -> int:
    """Maximum matching size by exhaustive search over left vertices.

    Memoized on the set of used right vertices, so it stays exact while
    handling sides of size 12; shares no structure with the
    augmenting-path engine it checks.
    """
    n = len(adj)
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best(i: int, used_mask: int) -> int:
        if i == n:
            return 0
        result = best(i + 1, used_mask)  # leave vertex i unmatched
        for p in adj[i]:
            bit = 1 << p
            if not used_mask & bit:
                result = max(result, 1 + best(i + 1, used_mask | bit))
        return result

    return best(0, 0)


def min_cut_value(inst: FlowInstance) -> int:
    """Minimum s-t cut by enumerating all source-side subsets."""
    internal = [v for v in range(inst.node_count) if v not in (inst.source, inst.sink)]
    best = None
    for mask in range(1 << len(internal)):
        side = {inst.source}
        for i, node in enumerate(internal):
            if mask >> i & 1:
                side.add(node)
        cut = sum(c for u, v, c in inst.arcs if u in side and v not in side)
        if best is None or cut < best:
            best = cut
    assert best is not None
    return best


_perm_tables: dict[int, np.ndarray] = {}


def _perm_table(n: int) -> np.ndarray:
    """All permutations of range(n) as one int8 array, cached per n."""
    arr = _perm_tables.get(n)
    if arr is None:
        chunks = []
        it = itertools.permutations(range(n))
        while True:
            chunk = list(itertools.islice(it, 200_000))
            if not chunk:
                break
            chunks.append(np.array(chunk, dtype=np.int8))
        arr = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        _perm_tables[n] = arr
    return arr


def enumerate_bandwidth(g: Graph, cap: int = ENUMERATION_CAP) -> int:
    """Exact bandwidth by scanning every permutation (n <= 10).

    Independent of ``oracle.exact_bandwidth``; the second opinion that the
    branch-and-bound answers are checked against.
    """
    n = g.n
    if n > cap:
        raise OracleCapError(n, cap)
    if g.m == 0:
        return 0
    perms = _perm_table(n)
    best = np.zeros(len(perms), dtype=np.int8)
    tmp = np.empty(len(perms), dtype=np.int8)
    for u, v in g.edges:
        np.subtract(perms[:, u], perms[:, v], out=tmp)
        np.abs(tmp, out=tmp)
        np.maximum(best, tmp, out=best)
    return int(best.min())


def frozen_gen_dense_random(n: int, delta: float, seed: int, top_ups=None) -> Graph:
    """``graph.gen_dense_random`` as first written, set-based with a final
    sort, frozen so the faster generator can be checked to draw the same
    graphs.  Appends the number of top-up edges to ``top_ups`` if given."""
    required = min(ceil_snapped(delta * n), n - 1)
    p = min(1.0, delta + 3.0 * sqrt(delta * (1.0 - delta) / n))
    rng = random.Random(seed)

    neighbors: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                neighbors[u].add(v)
                neighbors[v].add(u)
    added = 0
    for v in range(n):
        while len(neighbors[v]) < required:
            pool = [w for w in range(n) if w != v and w not in neighbors[v]]
            w = rng.choice(pool)
            neighbors[v].add(w)
            neighbors[w].add(v)
            added += 1
    if top_ups is not None:
        top_ups.append(added)

    return Graph(n=n, adj=tuple(tuple(sorted(row)) for row in neighbors))


def frozen_exact_bandwidth(g: Graph, cap: int = DEFAULT_ORACLE_CAP) -> tuple[int, Layout]:
    """``oracle.exact_bandwidth`` as it was before its search state became
    adjacency bitsets: per-vertex pending-neighbour counters, a claimed
    set and a scan of each candidate's placed neighbours.  Frozen so the
    bitset search can be checked to return the same value and witness.

    Iteratively deepens a target bound k starting from the larger of the
    half-max-degree and min-degree lower bounds.  For each k a DFS fills
    positions 1..n left to right, trying candidate vertices in
    descending-degree order (ties by id, which makes the witness
    deterministic) and pruning a prefix as soon as the placed vertices'
    remaining neighbors cannot all fit under the bound.
    """
    n = g.n
    if n > cap:
        raise OracleCapError(n, cap)
    if g.m == 0:
        return 0, Layout(tuple(range(1, n + 1)))
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    # the vertex at position 1 needs all its neighbors to the right within
    # the bound, so bandwidth >= min degree as well
    start = max(degree_lower_bound(g), min_degree(g))
    for k in range(start, n):
        witness = _frozen_layout_within(g, k, order)
        if witness is not None:
            return k, Layout(witness)
    raise AssertionError("every layout has bandwidth <= n-1; search cannot exhaust")


def _frozen_layout_within(g: Graph, k: int, order: list[int]) -> tuple[int, ...] | None:
    """First layout (in search order) with bandwidth <= k, or None."""
    n = g.n
    pos = [0] * n  # 0 = unplaced
    at = [0] * (n + 1)  # at[q] is the vertex at position q < p
    pending = [g.degree(v) for v in range(n)]  # unplaced-neighbor counts
    degrees = [g.degree(v) for v in range(n)]
    adj = g.adj

    def feasible_position(v: int, p: int) -> bool:
        # a vertex of degree d needs d positions within distance k of p
        return min(p - 1, k) + min(n - p, k) >= degrees[v]

    def dfs(p: int) -> bool:
        if p > n:
            return True
        # Hall-type demand check: pending neighbors of a placed vertex w
        # must all sit in positions p..pos[w]+k, so for every deadline d
        # the union of demands with deadline <= d cannot exceed the open
        # slots p..d; a single w whose pending neighbors outnumber its open
        # slots fails here too.  A union that exactly fills its slots claims
        # them, forcing the current position to one of its members.
        # The vertex at p-k-1 has no open slot left; those before it were
        # cleared at earlier depths and pending counts only fall, so only
        # positions p-k..p-1 can claim, in deadline order.
        if p > k + 1 and pending[at[p - k - 1]]:
            return False
        allowed: frozenset[int] | None = None
        claimed: set[int] = set()
        for q in range(max(1, p - k), p):
            w = at[q]
            if not pending[w]:
                continue
            for u in adj[w]:
                if not pos[u]:
                    claimed.add(u)
            slots = q + k - p + 1
            if len(claimed) > slots:
                return False
            if allowed is None and len(claimed) == slots:
                allowed = frozenset(claimed)
        for v in order:
            if pos[v]:
                continue
            if allowed is not None and v not in allowed:
                continue
            if not feasible_position(v, p):
                continue
            ok = True
            for u in adj[v]:
                if pos[u] and p - pos[u] > k:
                    ok = False
                    break
            if not ok:
                continue
            pos[v] = p
            at[p] = v
            for u in adj[v]:
                pending[u] -= 1
            if dfs(p + 1):
                return True
            pos[v] = 0
            for u in adj[v]:
                pending[u] += 1
        return False

    if dfs(1):
        return tuple(pos)
    return None
