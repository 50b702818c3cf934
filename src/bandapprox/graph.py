"""Undirected simple graphs: edge-list parsing, BFS distances, density
measurement, and deterministic generation of dense random instances."""

from __future__ import annotations

import random
from bisect import bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
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

    The graph is its sorted adjacency rows, so every traversal of it is
    reproducible run to run; ``n`` and ``adj`` alone take part in equality
    and hashing.  ``edges``, ``m`` and ``adj_masks`` are read off the rows
    when asked for, not by the constructors; ``edges`` and ``adj_masks`` are
    then kept.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once as ``(u, v)`` with ``u < v``, sorted: each row's
        higher neighbours in row order."""
        return tuple(
            edge
            for u, row in enumerate(self.adj)
            for edge in zip(repeat(u), row[bisect_right(row, u):])
        )

    @property
    def m(self) -> int:
        return sum(map(len, self.adj)) // 2

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """``adj_masks[v]`` has bit ``w`` set iff ``w`` is a neighbour of ``v``."""
        zeros = b"0" * self.n
        top = self.n - 1
        masks = []
        for row in self.adj:
            bits = bytearray(zeros)  # bits[i] is the binary digit of vertex n-1-i
            for w in row:
                bits[top - w] = 49  # ord("1")
            masks.append(int(bits, 2))
        return tuple(masks)

    def degree(self, v: int) -> int:
        return len(self.adj[v])


def _add_edge(seen: set[int], n: int, u: int, v: int) -> None:
    """Add edge ``(u, v)`` to ``seen`` as ``min * n + max``; ``ValueError``
    on an id outside ``0..n-1``, a self-loop or a duplicate."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range 0..{n - 1}")
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if u > v:
        u, v = v, u
    key = u * n + v
    if key in seen:
        raise ValueError(f"duplicate edge ({u}, {v})")
    seen.add(key)


def _graph_of(n: int, seen: set[int]) -> Graph:
    """The graph of a validated edge set keyed as by :func:`_add_edge`,
    each adjacency row sorted."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for key in seen:
        u, v = divmod(key, n)
        rows[u].append(v)
        rows[v].append(u)
    for row in rows:
        row.sort()
    return Graph(n=n, adj=tuple(map(tuple, rows)))


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge iterable, validating simplicity.  The
    graph keeps only the adjacency rows; its ``edges`` tuple is read off
    them on first use, sorted whatever the input order.

    Raises ``ValueError`` on self-loops, duplicate edges, or ids outside
    ``0..n-1``.
    """
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    seen: set[int] = set()
    for u, v in edges:
        _add_edge(seen, n, u, v)
    return _graph_of(n, seen)


def parse_graph(text: str) -> Graph:
    """Parse the edge-list interchange format.

    First line is ``"n m"``; each of the following ``m`` lines is ``"u v"``
    with 0-based ids, no self-loops, no duplicates.  Blank lines after the
    header are skipped, between edges too; a blank first line is a missing
    header.
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

    seen: set[int] = set()
    for line_no, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
        if len(seen) == m:
            raise GraphParseError(line_no, f"more than {m} edge lines")
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
    return min(map(len, g.adj))


def density(g: Graph) -> Fraction:
    """Largest d such that every vertex has degree >= d*n, as an exact ratio."""
    return Fraction(min_degree(g), g.n)


def _source_mask(g: Graph, sources: Iterable[int]) -> int:
    """Bitmask of a source set; ``ValueError`` if it is empty or names a
    vertex outside ``0..n-1``."""
    mask = 0
    for s in sources:
        if not 0 <= s < g.n:
            raise ValueError(f"source {s} out of range 0..{g.n - 1}")
        mask |= 1 << s
    if not mask:
        raise ValueError("source set must be nonempty")
    return mask


def bfs_from_set(g: Graph, sources: Iterable[int]) -> tuple[int | None, ...]:
    """Exact hop distances from the nearest source, via multi-source BFS:
    ``dist[v]`` for every vertex, ``None`` where ``v`` is unreachable.

    Read off the :func:`hop_balls` layers: ``dist[v]`` is the first ``h``
    whose ball holds ``v``.
    """
    dist: list[int | None] = [None] * g.n
    seen = 0
    for h, ball in enumerate(hop_balls(g, sources, g.n - 1)):
        layer, seen = ball ^ seen, ball
        while layer:
            low = layer & -layer
            dist[low.bit_length() - 1] = h
            layer ^= low
    return tuple(dist)


def hop_balls(g: Graph, sources: Iterable[int], radius: int) -> list[int]:
    """``balls[h]``, for ``h = 0..radius``: the bitmask of the vertices
    within ``h`` hops of the nearest source.

    A breadth-first search cut off after ``radius`` layers that keeps only
    the reached set, on :attr:`Graph.adj_masks`.  Each layer ORs the
    neighbourhoods of the vertices the last one newly reached and stops
    early once the union covers every vertex not yet reached; once nothing
    is left to reach, the remaining balls repeat the last one.  An empty
    source set or one naming a vertex outside ``0..n-1`` is a ``ValueError``.
    """
    masks = g.adj_masks
    ball = _source_mask(g, sources)
    balls = [ball]
    frontier = ball
    unseen = ((1 << g.n) - 1) ^ ball
    for _ in range(radius):
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            if reach & unseen == unseen:
                break
            frontier ^= low
        frontier = reach & unseen
        unseen ^= frontier
        ball |= frontier
        balls.append(ball)
    return balls


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
    for v in range(n):
        row = rows[v]
        if len(row) < required:
            # v's non-neighbours, listed once and shrunk as partners are
            # drawn: the same list, so the same draws, as relisting them
            pool = sorted(set(range(n)).difference(row, (v,)))
            while len(row) < required:
                w = rng.choice(pool)
                pool.remove(w)
                insort(row, w)
                insort(rows[w], v)

    return Graph(n=n, adj=tuple(map(tuple, rows)))
