"""Auxiliary vertex-position bipartite graph and its matching engine.

A perfect matching between the n graph vertices and the n layout positions,
with vertex v connectable only to positions inside its box interval, is
exactly a feasible box-respecting layout.  The engine is Hopcroft-Karp
(O(sqrt(V) * E)), deterministic for a fixed input ordering.  This back
end only chooses each vertex's box: :func:`normalize_matching` keeps the
boxes and :meth:`~bandapprox.boxes.BoxConfig.positions_for` places the
vertices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .boxes import BoxConfig, Intervals
from .domset import DEFAULT_MAX_TRIES
from .graph import Graph
from .oracle import Layout


@dataclass(frozen=True)
class AuxGraph:
    """Left side: graph vertices 0..n-1; right side: positions 1..n.

    ``adj[v]`` lists v's admissible positions ascending; a vertex with an
    infeasible (empty) interval is isolated.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Matching:
    """Vertex-position pairs, each side used at most once, sorted by vertex."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    def is_perfect(self, n: int) -> bool:
        return len(self.pairs) == n


def build_auxiliary(intervals: Intervals, cfg: BoxConfig) -> AuxGraph:
    """Connect each vertex to every position of every box in its interval."""
    rows: list[tuple[int, ...]] = []
    for iv in intervals:
        if iv is None:
            rows.append(())
            continue
        lo, hi = iv
        if not 1 <= lo <= hi <= cfg.b:
            raise ValueError(f"interval ({lo}, {hi}) out of range for b={cfg.b}")
        rows.append(tuple(range(cfg.positions(lo).start, cfg.positions(hi).stop)))
    return AuxGraph(n=cfg.n, adj=tuple(rows))


def max_matching(aux: AuxGraph) -> Matching:
    """Maximum-cardinality matching via Hopcroft-Karp."""
    n = aux.n
    adj = aux.adj
    INF = n + 1
    match_v = [0] * n  # vertex -> position, 0 = free
    match_p = [-1] * (n + 1)  # position -> vertex, -1 = free
    dist = [INF] * n
    dist_nil = INF

    def bfs() -> bool:
        nonlocal dist_nil
        dist_nil = INF
        q: deque[int] = deque()
        for v in range(n):
            if match_v[v] == 0:
                dist[v] = 0
                q.append(v)
            else:
                dist[v] = INF
        while q:
            v = q.popleft()
            if dist[v] >= dist_nil:
                continue
            for p in adj[v]:
                w = match_p[p]
                if w == -1:
                    if dist_nil == INF:
                        dist_nil = dist[v] + 1
                elif dist[w] == INF:
                    dist[w] = dist[v] + 1
                    q.append(w)
        return dist_nil != INF

    def augment(root: int) -> bool:
        """Layered augmenting path from a free vertex, depth first.

        Each stack frame is ``[vertex, index of its next position]``, so the
        positions are tried in ``adj`` order exactly as a recursive search
        would; a vertex that leads nowhere is taken out of the layering.
        """
        stack = [[root, 0]]
        while stack:
            frame = stack[-1]
            v, i = frame
            row = adj[v]
            child = None
            while i < len(row):
                p = row[i]
                i += 1
                w = match_p[p]
                if w == -1:
                    if dist[v] + 1 == dist_nil:
                        frame[1] = i
                        for u, j in stack:  # flip the path, root to free position
                            q = adj[u][j - 1]
                            match_v[u] = q
                            match_p[q] = u
                        return True
                elif dist[w] == dist[v] + 1:
                    child = w
                    break
            frame[1] = i
            if child is None:
                dist[v] = INF
                stack.pop()
            else:
                stack.append([child, 0])
        return False

    while bfs():
        for v in range(n):
            if match_v[v] == 0 and dist[v] == 0:
                augment(v)

    pairs = tuple((v, match_v[v]) for v in range(n) if match_v[v])
    return Matching(pairs=pairs)


def matching_to_layout(m: Matching, cfg: BoxConfig) -> Layout:
    """Read a perfect matching off as a layout: f(v) = matched position."""
    if not m.is_perfect(cfg.n):
        raise ValueError(f"matching has size {m.size}, need a perfect one ({cfg.n})")
    pos = [0] * cfg.n
    for v, p in m.pairs:
        pos[v] = p
    return Layout(tuple(pos))


def normalize_matching(m: Matching, cfg: BoxConfig) -> Matching:
    """Keep each vertex's box and let
    :meth:`~bandapprox.boxes.BoxConfig.positions_for` place it: a canonical
    layout independent of the augmenting-path history."""
    if not m.is_perfect(cfg.n):
        raise ValueError("only perfect matchings are normalized")
    boxes = [0] * cfg.n
    for v, p in m.pairs:
        boxes[v] = cfg.box_of(p)
    return Matching(pairs=tuple(enumerate(cfg.positions_for(boxes))))


def approx_bandwidth_alg1(
    g: Graph,
    params=None,
    seed: int = 0,
    *,
    use_3hop: bool = True,
    max_tries: int = DEFAULT_MAX_TRIES,
    record_trace: bool = False,
):
    """Approximate bandwidth via placement search + perfect matching.

    Scans box sizes ascending; for each, searches root placements in
    lexicographic order (see :mod:`bandapprox.search`), builds the auxiliary
    graph of the first feasible one, and returns its perfect matching as a
    layout together with the winning box size and run statistics.
    """
    from .search import run_search

    return run_search(
        g,
        params,
        seed,
        backend="matching",
        hop_radius=2,
        use_3hop=use_3hop,
        max_tries=max_tries,
        record_trace=record_trace,
    )


def approx_bandwidth_baseline(
    g: Graph,
    params=None,
    seed: int = 0,
    *,
    max_tries: int = DEFAULT_MAX_TRIES,
    record_trace: bool = False,
):
    """Comparison mode: one-hop dominating roots with +/-1 windows feeding
    the same matching back end."""
    from .search import run_search

    return run_search(
        g,
        params,
        seed,
        backend="matching",
        hop_radius=1,
        use_3hop=False,
        max_tries=max_tries,
        record_trace=record_trace,
    )
