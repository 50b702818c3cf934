"""Graph builders and independent oracles shared across the test modules.

Every oracle here is deliberately naive (Floyd-Warshall, exhaustive
matching enumeration, cut enumeration, a scan of every permutation) so
that the fast implementations are checked against something that cannot
share their bugs.  ``frozen_gen_dense_random`` keeps the first version of
the graph generator, which the current one must reproduce exactly.
"""

from __future__ import annotations

import itertools
import random
from math import sqrt

import numpy as np

from bandapprox.boxes import BoxConfig, RootWindows
from bandapprox.domset import RootSet
from bandapprox.flow import FlowInstance
from bandapprox.graph import Graph, make_graph
from bandapprox.oracle import OracleCapError
from bandapprox.util import ceil_snapped

ENUMERATION_CAP = 10


def sample_rootset(g: Graph, size: int, seed: int, hop_radius: int = 2) -> RootSet:
    """Uniformly random vertex subset of the given size, uncertified."""
    if not 1 <= size <= g.n:
        raise ValueError(f"size must be in 1..{g.n}, got {size}")
    rng = random.Random(seed)
    roots = tuple(sorted(rng.sample(range(g.n), size)))
    return RootSet(roots=roots, hop_radius=hop_radius)


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


def planted_band(n: int, w: int, seed: int) -> Graph:
    """The w-th power of a path on n vertices, relabeled at random."""
    label = list(range(n))
    random.Random(seed).shuffle(label)
    edges = [(label[i], label[j]) for i in range(n) for j in range(i + 1, min(n, i + w + 1))]
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

    edges = tuple(sorted((u, v) for u in range(n) for v in neighbors[u] if u < v))
    return Graph(
        n=n,
        edges=edges,
        adj=tuple(tuple(sorted(row)) for row in neighbors),
    )
