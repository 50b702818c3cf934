"""Exact bandwidth computation at desk scale, plus layout utilities.

The exact solver is a branch-and-bound search over layout prefixes,
usable up to ``DEFAULT_ORACLE_CAP`` vertices; the tests cross-check it
against an independent scan of every permutation on very small graphs.
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
    """Largest position gap across an edge; 0 for edgeless graphs."""
    if not is_permutation(layout, g.n):
        raise ValueError(f"layout is not a permutation of 1..{g.n}")
    pos = layout.pos
    worst = 0
    for u, v in g.edges:
        d = abs(pos[u] - pos[v])
        if d > worst:
            worst = d
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
        witness = _layout_within(g, k, order)
        if witness is not None:
            return k, Layout(witness)
    raise AssertionError("every layout has bandwidth <= n-1; search cannot exhaust")


def _layout_within(g: Graph, k: int, order: list[int]) -> tuple[int, ...] | None:
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
