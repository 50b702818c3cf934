"""Compressed max-flow feasibility test and its conversion back to a layout.

Instead of matching n vertices to n positions, vertices are bucketed by
their box interval (:func:`count_intervals` turns the per-vertex interval
tuple into a dict from interval to vertex count): with b boxes there are
at most 5b distinct intervals, so the flow network (source -> interval
nodes -> box nodes -> sink) has a size independent of n.  A saturating
integral flow of value n exists iff the auxiliary bipartite graph has a
perfect matching, and its arc values say how many vertices of each
interval class go to each box.  That choice of boxes is all this back end
makes: :meth:`~bandapprox.boxes.BoxConfig.positions_for` places the
vertices inside their boxes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .boxes import BoxConfig, Intervals
from .domset import DEFAULT_MAX_TRIES
from .graph import Graph
from .oracle import Layout


def count_intervals(intervals: Intervals) -> dict[tuple[int, int], int] | None:
    """Histogram of box intervals: ``counts[(i, j)]`` is the number of
    vertices whose admissible boxes are exactly ``i..j``, roots as
    degenerate ``(k, k)``.  ``None`` when some vertex has an empty interval
    (the configuration is infeasible; not an error)."""
    counts: dict[tuple[int, int], int] = {}
    for iv in intervals:
        if iv is None:
            return None
        counts[iv] = counts.get(iv, 0) + 1
    return counts


@dataclass(frozen=True)
class FlowInstance:
    """Flow network over interval nodes and box nodes.

    Node ids: 0 is the source, ``1..K`` the interval keys (sorted), then b
    box nodes, then the sink.  ``arcs`` hold (tail, head, capacity); interior
    arcs get capacity n, a finite stand-in for "unbounded" that no flow can
    exceed.  The sink arc of the last box carries only the remainder
    ``n - (b-1)*boxsize`` so that value-n flows correspond to perfect
    matchings into the n real positions.
    """

    keys: tuple[tuple[int, int], ...]
    b: int
    n: int
    arcs: tuple[tuple[int, int, int], ...]

    @property
    def node_count(self) -> int:
        return len(self.keys) + self.b + 2

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return len(self.keys) + self.b + 1


@dataclass(frozen=True)
class FlowResult:
    """Integral flow per arc (aligned with the instance's arc tuple)."""

    value: int
    arc_flow: tuple[int, ...]


def build_flow_instance(counts: dict[tuple[int, int], int], cfg: BoxConfig) -> FlowInstance:
    keys = tuple(sorted(counts))
    for i, j in keys:
        if not (1 <= i <= j <= cfg.b):
            raise ValueError(f"interval ({i}, {j}) out of range for b={cfg.b}")
    arcs: list[tuple[int, int, int]] = []
    k_count = len(keys)
    for idx, key in enumerate(keys):
        arcs.append((0, 1 + idx, counts[key]))
    for idx, (i, j) in enumerate(keys):
        for box in range(i, j + 1):
            arcs.append((1 + idx, 1 + k_count + (box - 1), cfg.n))
    sink = k_count + cfg.b + 1
    for box in range(1, cfg.b + 1):
        arcs.append((1 + k_count + (box - 1), sink, cfg.capacities[box - 1]))
    return FlowInstance(keys=keys, b=cfg.b, n=cfg.n, arcs=tuple(arcs))


def max_flow(inst: FlowInstance) -> FlowResult:
    """Integral maximum flow by Dinic's blocking-flow algorithm.

    The instance size is independent of n, so any correct engine would do;
    this one is deterministic for a fixed arc order.
    """
    node_count = inst.node_count
    source, sink = inst.source, inst.sink

    # residual edge lists: to[], cap[], paired via xor of the edge index
    to: list[int] = []
    cap: list[int] = []
    head: list[list[int]] = [[] for _ in range(node_count)]
    for u, v, c in inst.arcs:
        head[u].append(len(to))
        to.append(v)
        cap.append(c)
        head[v].append(len(to))
        to.append(u)
        cap.append(0)

    level = [0] * node_count
    it = [0] * node_count

    def bfs() -> bool:
        for i in range(node_count):
            level[i] = -1
        level[source] = 0
        q = deque([source])
        while q:
            v = q.popleft()
            for e in head[v]:
                if cap[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[v] + 1
                    q.append(to[e])
        return level[sink] >= 0

    def dfs(v: int, pushed: int) -> int:
        if v == sink:
            return pushed
        while it[v] < len(head[v]):
            e = head[v][it[v]]
            w = to[e]
            if cap[e] > 0 and level[w] == level[v] + 1:
                got = dfs(w, min(pushed, cap[e]))
                if got > 0:
                    cap[e] -= got
                    cap[e ^ 1] += got
                    return got
            it[v] += 1
        return 0

    total = 0
    infinity = sum(c for u, v, c in inst.arcs if u == source) + 1
    while bfs():
        it = [0] * node_count
        while True:
            pushed = dfs(source, infinity)
            if pushed == 0:
                break
            total += pushed

    flows = tuple(inst.arcs[i][2] - cap[2 * i] for i in range(len(inst.arcs)))
    _check_flow(inst, total, flows)
    return FlowResult(value=total, arc_flow=flows)


def _check_flow(inst: FlowInstance, value: int, flows: tuple[int, ...]) -> None:
    """Conservation and capacity sanity; the instance is tiny, so always on."""
    balance = [0] * inst.node_count
    for (u, v, c), f in zip(inst.arcs, flows):
        if not 0 <= f <= c:
            raise AssertionError(f"arc ({u},{v}) flow {f} violates capacity {c}")
        balance[u] -= f
        balance[v] += f
    if -balance[inst.source] != value or balance[inst.sink] != value:
        raise AssertionError("flow value does not match terminal balance")
    for node in range(1, inst.node_count - 1):
        if node not in (inst.source, inst.sink) and balance[node] != 0:
            raise AssertionError(f"conservation violated at node {node}")


def flow_to_layout(
    res: FlowResult, inst: FlowInstance, intervals: Intervals, cfg: BoxConfig
) -> Layout:
    """Turn a saturating flow on ``inst``, the instance built from
    ``intervals``, into a layout.

    For each interval-to-box arc carrying e units, the e lowest-id not yet
    placed vertices of that interval class go to that box;
    :meth:`~bandapprox.boxes.BoxConfig.positions_for` then places each
    box's vertices.
    """
    if res.value != cfg.n:
        raise ValueError(f"flow value {res.value} does not saturate n={cfg.n}")
    if len(res.arc_flow) != len(inst.arcs):
        raise ValueError("flow result does not match this instance")

    queues: dict[tuple[int, int], deque[int]] = {key: deque() for key in inst.keys}
    for v, iv in enumerate(intervals):
        if iv not in queues:
            raise ValueError(f"vertex {v} has interval {iv}, not a class of this instance")
        queues[iv].append(v)  # vertex ids ascend, so each class queue does too

    k_count = len(inst.keys)
    boxes = [0] * cfg.n
    for (u, v, _c), f in zip(inst.arcs, res.arc_flow):
        if f <= 0 or not (1 <= u <= k_count and k_count < v < inst.sink):
            continue
        q = queues[inst.keys[u - 1]]
        if len(q) < f:
            raise AssertionError("flow routes more vertices than the class holds")
        for _ in range(f):
            boxes[q.popleft()] = v - k_count
    return Layout(cfg.positions_for(boxes))


def approx_bandwidth_alg2(
    g: Graph,
    params=None,
    seed: int = 0,
    *,
    use_3hop: bool = True,
    max_tries: int = DEFAULT_MAX_TRIES,
    record_trace: bool = False,
):
    """Approximate bandwidth with the compressed-flow feasibility test.

    Same contract and same placement search as the matching pipeline, but
    the winning configuration's layout is extracted by interval counting +
    max flow.
    """
    from .search import run_search

    return run_search(
        g,
        params,
        seed,
        backend="flow",
        hop_radius=2,
        use_3hop=use_3hop,
        max_tries=max_tries,
        record_trace=record_trace,
    )
