"""Exact bandwidth computation at desk scale, plus layout utilities.

The exact solver is a branch-and-bound search over layout prefixes,
usable up to ``DEFAULT_ORACLE_CAP`` vertices.  Its search state is
integer bitmasks over :attr:`Graph.adj_masks`.  The tests pin its values
and witnesses (``tests/golden/exact.json`` and the list-based
``frozen_exact_bandwidth``, which it reproduces exactly) and cross-check
it against an independent scan of every permutation on very small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, min_degree

DEFAULT_ORACLE_CAP = 14


class OracleCapError(ValueError):
    """Refusal to run an exponential solver past its configured size cap."""

    def __init__(self, n: int, cap: int) -> None:
        super().__init__(f"exact solver capped at n={cap}, got n={n}")
        self.n = n
        self.cap = cap


@dataclass(frozen=True)
class Layout:
    """Bijective labeling of vertices with positions ``1..n``."""

    pos: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.pos)


def is_permutation(layout: Layout, n: int) -> bool:
    return len(layout.pos) == n and sorted(layout.pos) == list(range(1, n + 1))


def layout_bandwidth(g: Graph, layout: Layout) -> int:
    """Largest position gap across an edge; 0 for edgeless graphs.

    Reads each vertex's adjacency row, so it builds no edge tuple: every
    edge is seen from its lower end as its highest neighbor's gap."""
    if not is_permutation(layout, g.n):
        raise ValueError(f"layout is not a permutation of 1..{g.n}")
    pos = layout.pos
    pos_of = pos.__getitem__
    worst = 0
    for p, row in zip(pos, g.adj):
        if row:
            worst = max(worst, max(map(pos_of, row)) - p)
    return worst


def degree_lower_bound(g: Graph) -> int:
    """``ceil(max_degree / 2)``: a vertex of degree D forces bandwidth >= D/2."""
    worst = max(map(len, g.adj))
    return (worst + 1) // 2


def exact_bandwidth(g: Graph, cap: int = DEFAULT_ORACLE_CAP) -> tuple[int, Layout]:
    """Minimum bandwidth with a witnessing layout, by branch and bound.

    Iteratively deepens a target bound k starting from the larger of the
    half-max-degree and min-degree lower bounds.  For each k a DFS fills
    positions 1..n left to right, trying candidate vertices in
    descending-degree order (ties by id, which makes the witness
    deterministic) and pruning a prefix as soon as the placed vertices'
    remaining neighbors cannot all fit under the bound.  The prefix state
    is bitmasks: the unplaced vertices are one mask, the pending neighbors
    of ``w`` are ``adj_masks[w] & unplaced``, and claimed sets are ORs of
    those, sized by ``int.bit_count``.  Values and witnesses are unchanged
    from the list-based search (``tests/golden/exact.json``).
    """
    n = g.n
    if n > cap:
        raise OracleCapError(n, cap)
    if g.m == 0:
        return 0, Layout(tuple(range(1, n + 1)))
    # candidates in descending-degree order, each with its bit
    order = [(v, 1 << v) for v in sorted(range(n), key=lambda v: (-g.degree(v), v))]
    within = [0] * n  # within[d]: the vertices of degree <= d
    for v, row in enumerate(g.adj):
        within[len(row)] |= 1 << v
    for d in range(1, n):
        within[d] |= within[d - 1]
    # the vertex at position 1 needs all its neighbors to the right within
    # the bound, so bandwidth >= min degree as well
    start = max(degree_lower_bound(g), min_degree(g))
    for k in range(start, n):
        witness = _layout_within(g.adj_masks, k, order, within)
        if witness is not None:
            return k, Layout(witness)
    raise AssertionError("every layout has bandwidth <= n-1; search cannot exhaust")


def _layout_within(
    masks: tuple[int, ...], k: int, order: list[tuple[int, int]], within: list[int]
) -> tuple[int, ...] | None:
    """First layout (in search order) with bandwidth <= k, or None."""
    n = len(masks)
    at = [0] * (n + 1)  # at[q] is the vertex at position q < p
    # fits[p]: the vertices whose neighbors all fit in the positions within
    # distance k of p, min(p-1, k) + min(n-p, k) of them
    fits = [0] + [within[min(p - 1, k) + min(n - p, k)] for p in range(1, n + 1)]

    def dfs(p: int, unplaced: int) -> bool:
        if p > n:
            return True
        # Hall-type demand check: pending neighbors of a placed vertex w
        # must all sit in positions p..pos[w]+k, so for every deadline d
        # the union of demands with deadline <= d cannot exceed the open
        # slots p..d; a single w whose pending neighbors outnumber its open
        # slots fails here too.  A union that exactly fills its slots claims
        # them, forcing the current position to one of its members.
        # Only positions p-k..p-1 can claim, in deadline order.  The vertex
        # at p-k has one open slot, p, so it keeps at most one pending
        # neighbor and that neighbor is forced here: no vertex is ever
        # placed more than k after a neighbor.
        candidates = unplaced & fits[p]
        claimed = 0
        for q in range(max(1, p - k), p):
            pending = masks[at[q]] & unplaced
            if not pending:
                continue
            claimed |= pending
            slots = q + k - p + 1
            size = claimed.bit_count()
            if size > slots:
                return False
            if size == slots:
                candidates &= claimed
        for v, bit in order:
            if not candidates & bit:
                continue
            at[p] = v
            if dfs(p + 1, unplaced ^ bit):
                return True
        return False

    if not dfs(1, (1 << n) - 1):
        return None
    pos = [0] * n
    for q in range(1, n + 1):
        pos[at[q]] = q
    return tuple(pos)


def format_layout(layout: Layout) -> str:
    """Serialize as ``"vertex position"`` lines, vertices ascending."""
    return "\n".join(f"{v} {p}" for v, p in enumerate(layout.pos)) + "\n"


def parse_layout(text: str, n: int) -> Layout:
    """Parse ``"vertex position"`` lines into a layout for an n-vertex graph."""
    pos: list[int | None] = [None] * n
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise ValueError(f"layout line {line_no}: expected 'vertex position'")
        try:
            v, p = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"layout line {line_no}: expected two integers") from None
        if not 0 <= v < n:
            raise ValueError(f"layout line {line_no}: vertex {v} out of range")
        if pos[v] is not None:
            raise ValueError(f"layout line {line_no}: vertex {v} listed twice")
        pos[v] = p
    if any(p is None for p in pos):
        missing = [v for v, p in enumerate(pos) if p is None]
        raise ValueError(f"layout is missing vertices {missing}")
    layout = Layout(tuple(p for p in pos if p is not None))
    if not is_permutation(layout, n):
        raise ValueError(f"layout positions are not a permutation of 1..{n}")
    return layout
