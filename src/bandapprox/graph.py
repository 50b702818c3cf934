"""Undirected simple graphs: edge-list parsing, BFS distances, density
measurement, and deterministic generation of dense random instances."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterable

from .util import ceil_snapped


class GraphParseError(ValueError):
    """Malformed edge-list document; ``line_no`` is 1-based."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on vertices ``0..n-1``.

    Adjacency lists are kept sorted so every traversal of the graph is
    reproducible run to run.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])


@dataclass(frozen=True)
class DistanceMap:
    """Hop distances from a source set; ``None`` marks unreachable vertices."""

    sources: tuple[int, ...]
    dist: tuple[int | None, ...]

    def layer(self, h: int) -> tuple[int, ...]:
        """Vertices at hop distance exactly ``h`` from the source set."""
        return tuple(v for v, d in enumerate(self.dist) if d == h)

    def max_distance(self) -> int | None:
        """Largest finite distance, or ``None`` if any vertex is unreachable."""
        worst = 0
        for d in self.dist:
            if d is None:
                return None
            if d > worst:
                worst = d
        return worst


def _add_edge(seen: set[tuple[int, int]], n: int, u: int, v: int) -> None:
    """Add edge ``(u, v)`` to ``seen`` as ``(min, max)``; ``ValueError`` on
    an id outside ``0..n-1``, a self-loop or a duplicate."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range 0..{n - 1}")
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    key = (u, v) if u < v else (v, u)
    if key in seen:
        raise ValueError(f"duplicate edge {key}")
    seen.add(key)


def _graph_of(n: int, seen: set[tuple[int, int]]) -> Graph:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in seen:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(
        n=n,
        edges=tuple(sorted(seen)),
        adj=tuple(tuple(sorted(row)) for row in adj),
    )


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge iterable, validating simplicity.

    Raises ``ValueError`` on self-loops, duplicate edges, or ids outside
    ``0..n-1``.
    """
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        _add_edge(seen, n, u, v)
    return _graph_of(n, seen)


def parse_graph(text: str) -> Graph:
    """Parse the edge-list interchange format.

    First line is ``"n m"``; each of the following ``m`` lines is ``"u v"``
    with 0-based ids, no self-loops, no duplicates.  Blank lines are only
    tolerated after the last edge.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GraphParseError(1, "missing 'n m' header")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphParseError(1, f"expected 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphParseError(1, f"expected two integers, got {lines[0]!r}") from None
    if n < 1:
        raise GraphParseError(1, "vertex count must be at least 1")
    if m < 0:
        raise GraphParseError(1, "edge count must be nonnegative")

    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        if len(seen) == m:
            raise GraphParseError(line_no, f"more than {m} edge lines")
        parts = raw.split()
        if len(parts) != 2:
            raise GraphParseError(line_no, f"expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(line_no, f"expected two integers, got {raw!r}") from None
        try:
            _add_edge(seen, n, u, v)
        except ValueError as exc:
            raise GraphParseError(line_no, str(exc)) from None
    if len(seen) != m:
        raise GraphParseError(len(lines) + 1, f"expected {m} edge lines, found {len(seen)}")
    return _graph_of(n, seen)


def serialize_graph(g: Graph) -> str:
    """Inverse of :func:`parse_graph` (round-trips the edge set)."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def min_degree(g: Graph) -> int:
    return min(len(row) for row in g.adj)


def density(g: Graph) -> Fraction:
    """Largest d such that every vertex has degree >= d*n, as an exact ratio."""
    return Fraction(min_degree(g), g.n)


def bfs_from_set(g: Graph, sources: Iterable[int]) -> DistanceMap:
    """Exact hop distances from the nearest source, via multi-source BFS."""
    src = tuple(sorted(set(sources)))
    if not src:
        raise ValueError("source set must be nonempty")
    for s in src:
        if not 0 <= s < g.n:
            raise ValueError(f"source {s} out of range 0..{g.n - 1}")
    dist: list[int | None] = [None] * g.n
    queue: list[int] = []
    for s in src:
        dist[s] = 0
        queue.append(s)
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        dv = dist[v]
        assert dv is not None
        for w in g.adj[v]:
            if dist[w] is None:
                dist[w] = dv + 1
                queue.append(w)
    return DistanceMap(sources=src, dist=tuple(dist))


def gen_dense_random(n: int, delta: float, seed: int) -> Graph:
    """Random graph with minimum degree at least ``ceil(delta*n)``.

    Edges are sampled independently with probability
    ``p = min(1, delta + 3*sqrt(delta*(1-delta)/n))``; any vertex still short
    of the target degree is then topped up with edges to uniformly random
    non-neighbors.  The top-up (rather than reject-and-resample) guarantees
    termination and makes the density invariant exact.  Deterministic for a
    fixed ``(n, delta, seed)``.

    The target degree is capped at ``n - 1``: for delta large enough that
    ``ceil(delta*n) = n`` only the complete graph qualifies, and K_n is what
    gets produced.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    required = min(ceil_snapped(delta * n), n - 1)
    p = min(1.0, delta + 3.0 * sqrt(delta * (1.0 - delta) / n))
    rng = random.Random(seed)
    rnd = rng.random

    # row u gets its lower neighbors while u is still ahead of the loop and
    # its higher ones in its own turn, so every row comes out sorted
    rows: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        higher = [v for v in range(u + 1, n) if rnd() < p]
        for v in higher:
            rows[v].append(u)
        rows[u].extend(higher)
    if any(len(row) < required for row in rows):
        neighbors = [set(row) for row in rows]
        for v in range(n):
            while len(neighbors[v]) < required:
                pool = [w for w in range(n) if w != v and w not in neighbors[v]]
                w = rng.choice(pool)
                neighbors[v].add(w)
                neighbors[w].add(v)
        rows = [sorted(row) for row in neighbors]

    return Graph(
        n=n,
        edges=tuple((u, v) for u in range(n) for v in rows[u] if u < v),
        adj=tuple(map(tuple, rows)),
    )
