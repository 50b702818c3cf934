"""Benchmark inputs: the three workloads, drawn from the workload seed.

Every instance carries the edge-list text the library parses, the
benchmark's own copy of the edges (for the independent layout check), the
provable lower bound and, where one is known, the optimum bandwidth.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

import numpy as np

from bandapprox import domset, graph, oracle

# Approximation factor each algorithm claims (the baseline claims none).
FACTORS = {"alg2": 6, "alg1": 6, "alg2-no3hop": 10, "baseline": None}
ALL_ALGS = ("alg2", "alg1", "alg2-no3hop", "baseline")

# dense-scan: the scan is exponential in k', so draws of the same family
# differ wildly in cost.  Each run keeps a fixed quota per plan shape, so
# that every seed gives the same mix of cheap, scan-heavy and hopeless
# instances; which graphs fill the quota changes with the seed.  Shapes are
# known before any solve, so no graph is dropped for its outcome.  Graphs
# with b0 <= 3 boxes at the first box size are answered at the first
# placement; those with b0 = 4 and k' >= 9 need tens of thousands of
# configurations or more and are cut at the limit.  With b0 = 4 and k' = 7
# the scan tries a number of configurations set by n and the first box size
# alone (3099 at (49, 16), 4648 at (50, 16), 5442 at (58, 18)), so the
# scan-heavy quota names those exactly and every seed does the same scan
# work.  No quota takes k' = 8: its 10k to 22k configurations end on either
# side of any limit a run can afford.
DENSE_SIZES = (49, 50, 58)
DENSE_DELTA = 0.3
DENSE_DRAWS = 400  # drawn on every seed, more only if a quota is still open
DENSE_QUOTA = {
    "b0<=3": 2,
    "b0=4,k'=7,n=49,boxsize0=16": 2,
    "b0=4,k'=7,n=50,boxsize0=16": 2,
    "b0=4,k'=7,n=58,boxsize0=18": 2,
    "b0=4,k'>=9": 2,
}

WIDE_SIZES = (400, 800, 1600)
WIDE_DELTA = 0.5
WIDE_ALG1_MAX_N = 400  # alg 1 takes about 33 s at n = 800

# (n, w, copies): planted graphs with delta = w/n between 1/8 and 1/4, each
# copy relabeled from the seed.  The pairs with n <= 14 also check the
# oracle against the planted optimum; (30, 5) is beyond the shipped
# placement scan (alg 2 ran past 3 s on 21 of 21 relabelings, while (24, 4)
# answered in 1.46 s on one of 18, too close to any affordable limit).
# Where k' >= n every vertex is a root and the layout is whatever the first
# placement gives, so the ratio depends on the labels: those calls take
# about a millisecond, and three copies of each steady the guarantee and
# ratio metrics from seed to seed.  The answered scan work is in (20, 4)
# and (24, 6).  (24, 6) takes 729 configurations on every relabeling tried
# (60 of 60), so its eight copies carry most of it; (20, 4) takes 2423 on
# most relabelings but 760 or 220 on about one in thirteen, and one copy
# keeps such a seed from moving the median of ten.
PLANTED = (
    (12, 2, 3), (14, 3, 3), (16, 2, 3), (20, 3, 3), (24, 3, 3),
    (20, 4, 1), (24, 6, 8), (30, 5, 1),
)
ORACLE_SIZES = (9, 10, 11, 12, 13, 14)
ORACLE_DELTA = 0.3

# Per-call time limit in seconds.  Each sits well clear of every call that
# finishes, at 200 to 350 us per configuration: dense-scan answers take at
# most about 2 s and its k' >= 9 graphs need 8 s or more; known-opt answers
# take at most about 0.45 s and its unanswered calls run past 15 s; wide-n's
# slowest call takes about 10 s.
TIME_LIMITS = {"dense-scan": 4.0, "wide-n": 30.0, "known-opt": 1.5}

# Least passes per run.  Times take each call's fastest pass, so every
# answered call gets at least three tries (only the first pass tries the
# calls that are cut at the limit).
PASSES = {"dense-scan": 3, "wide-n": 3, "known-opt": 3}


@dataclass(frozen=True)
class Plan:
    """What the scan faces before it starts: k' roots and b0 boxes at the
    first box size, hence b0**k' naive placements for that size."""

    delta: float
    kprime: int
    boxsize0: int
    b0: int

    @property
    def naive(self) -> int:
        return self.b0 ** self.kprime


@dataclass
class Instance:
    name: str
    n: int
    m: int
    text: str
    edges: np.ndarray
    lb: int
    opt: int | None
    plan: Plan
    algs: tuple[str, ...]


@dataclass
class Workload:
    instances: list[Instance]
    time_limit: float
    passes: int
    self_check_failures: list[str] = field(default_factory=list)


def sub_seed(*parts: object) -> int:
    """Stable 63-bit seed for one named stream of the workload seed."""
    digest = hashlib.sha256("\x1f".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def planted_band(n: int, w: int, seed: int) -> graph.Graph:
    """The w-th power of a path on n vertices, relabeled at random.

    Vertices at path distance at most w are adjacent, so the identity
    order has bandwidth w, and the path's middle vertex has degree 2w,
    which forces bandwidth at least w: the optimum is exactly w.
    """
    label = list(range(n))
    random.Random(seed).shuffle(label)
    edges = [(label[i], label[j]) for i in range(n) for j in range(i + 1, min(n, i + w + 1))]
    return graph.make_graph(n, edges)


def lower_bound(n: int, edges: np.ndarray) -> int:
    """``max(min degree, ceil(max degree / 2))``, from the edge array."""
    deg = np.bincount(edges.ravel(), minlength=n)
    return max(int(deg.min()), (int(deg.max()) + 1) // 2)


def plan_of(g: graph.Graph) -> Plan:
    """The two-hop pipelines' sizing, as ``run_search`` derives it."""
    delta = float(graph.density(g))
    kprime = min(g.n, domset.kprime_size(g.n, domset.SamplingParams(delta=delta)))
    boxsize0 = max(oracle.degree_lower_bound(g), 1)
    return Plan(delta=delta, kprime=kprime, boxsize0=boxsize0, b0=-(-g.n // boxsize0))


def _instance(name: str, g: graph.Graph, algs, opt: int | None = None, plan=None) -> Instance:
    edges = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    return Instance(
        name=name,
        n=g.n,
        m=g.m,
        text=graph.serialize_graph(g),
        edges=edges,
        lb=lower_bound(g.n, edges),
        opt=opt,
        plan=plan or plan_of(g),
        algs=tuple(algs),
    )


def _shape(n: int, plan: Plan) -> str:
    if plan.b0 <= 3:
        return "b0<=3"
    if plan.b0 == 4 and plan.kprime == 7:
        return f"b0=4,k'=7,n={n},boxsize0={plan.boxsize0}"
    if plan.b0 == 4 and plan.kprime >= 9:
        return "b0=4,k'>=9"
    return "other"


def dense_scan(seed: int) -> Workload:
    rng = random.Random(sub_seed(seed, "dense-scan"))
    left = dict(DENSE_QUOTA)
    kept: list[Instance] = []
    draw = 0
    while draw < DENSE_DRAWS or any(left.values()):
        n = rng.choice(DENSE_SIZES)
        g = graph.gen_dense_random(n, DENSE_DELTA, rng.getrandbits(63))
        draw += 1
        plan = plan_of(g)
        shape = _shape(n, plan)
        if left.get(shape):
            left[shape] -= 1
            kept.append(_instance(f"dense#{draw}", g, ("alg2",), plan=plan))
    return Workload(kept, TIME_LIMITS["dense-scan"], PASSES["dense-scan"])


def wide_n(seed: int) -> Workload:
    kept = []
    for n in WIDE_SIZES:
        g = graph.gen_dense_random(n, WIDE_DELTA, sub_seed(seed, "wide-n", n))
        algs = ("alg2", "alg1") if n <= WIDE_ALG1_MAX_N else ("alg2",)
        kept.append(_instance(f"wide-n{n}", g, algs))
        del g
    return Workload(kept, TIME_LIMITS["wide-n"], PASSES["wide-n"])


def known_opt(seed: int) -> Workload:
    kept = []
    failures = []
    for n, w, copies in PLANTED:
        for copy in range(copies):
            name = f"planted-n{n}-w{w}#{copy}"
            g = planted_band(n, w, sub_seed(seed, "planted", n, w, copy))
            if n <= oracle.DEFAULT_ORACLE_CAP:
                exact, _ = oracle.exact_bandwidth(g)
                if exact != w:
                    failures.append(f"{name}: the oracle says {exact}, planted {w}")
            kept.append(_instance(name, g, ALL_ALGS, opt=w))
    for n in ORACLE_SIZES:
        g = graph.gen_dense_random(n, ORACLE_DELTA, sub_seed(seed, "oracle", n))
        exact, _ = oracle.exact_bandwidth(g)
        kept.append(_instance(f"random-n{n}", g, ALL_ALGS, opt=exact))
    return Workload(kept, TIME_LIMITS["known-opt"], PASSES["known-opt"], failures)


BUILDERS = {"dense-scan": dense_scan, "wide-n": wide_n, "known-opt": known_opt}
