"""One pass over a workload: load every instance, solve it with each of its
algorithms under a per-call time limit, and check every answer without
trusting the solver.  Also turns passes into the reported metrics."""

from __future__ import annotations

import gc
import math
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from bandapprox import domset, flow, graph, matching, oracle, search
from workloads import FACTORS, Instance, Workload

# Other tenants of the machine slow it down in spells of seconds to
# minutes, which shows most on work that takes milliseconds.  So set-up is
# timed again between library calls, as long as each repeat costs at most
# REPEAT_SHARE of the run so far.
REPEAT_SHARE = 0.05

# The same spells slow a whole run by up to 1.7 times, and they switch
# within a second.  So a sampled library call also times a small fixed
# pure-Python workload every REFERENCE_EVERY seconds of CPU time it uses (a
# SIGVTALRM handler), and its solve time is also given in units of that
# workload's mean time during the call.  The handler's own time is taken
# off the call's seconds; the interruptions still cost the call a few
# percent.  On this VM that cut the spread of a pass's solve time from 14%
# to 3%.
REFERENCE_EVERY = 0.05
REFERENCE_LOOPS = 750
_samples: list[float] = []  # reference_s() times taken during the open call

SOLVERS = {
    "alg2": lambda g: flow.approx_bandwidth_alg2(g),
    "alg2-no3hop": lambda g: flow.approx_bandwidth_alg2(g, use_3hop=False),
    "alg1": lambda g: matching.approx_bandwidth_alg1(g),
    "baseline": lambda g: matching.approx_bandwidth_baseline(g),
}
ALG2_FAMILY = ("alg2", "alg2-no3hop")


class CutOff(Exception):
    """A library call reached the workload's per-call time limit."""


def _alarm(signum, frame):
    raise CutOff


def _sample(signum, frame):
    _samples.append(reference_s())


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGVTALRM, _sample)


def reference_s() -> float:
    """Time of a fixed pure-Python workload like the library's own loops
    (tuples, dict access, small integers), about half a millisecond."""
    t0 = perf_counter()
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(REFERENCE_LOOPS):
        key = (i & 255, i % 7)
        counts[key] = counts.get(key, 0) + 1
        acc += min(i % 13, key[1])
    return perf_counter() - t0


@dataclass
class Call:
    instance: Instance
    alg: str
    status: str  # answered, cut, error (library error) or bad (failed the check)
    seconds: float
    bandwidth: int | None = None
    configs: int | None = None
    boxsizes: int | None = None
    boxsize: int | None = None
    note: str = ""
    trace_id: int = 0  # the tracer's call id, 0 when untraced
    references: tuple[float, ...] = ()  # reference_s() samples taken during the call

    @property
    def opt_or_lb(self) -> int:
        inst = self.instance
        return inst.opt if inst.opt is not None else inst.lb

    def ratio(self, base: int) -> float:
        """Bandwidth over ``base``; an unanswered call counts as n-1, the
        widest any layout can be."""
        bw = self.bandwidth if self.status == "answered" else self.instance.n - 1
        return bw / base

    @property
    def breaks_guarantee(self) -> bool:
        factor = FACTORS[self.alg]
        return (
            self.status == "answered"
            and factor is not None
            and self.instance.opt is not None
            and self.bandwidth > factor * self.instance.opt
        )


@dataclass
class Pass:
    loads: list[float]  # parse time per instance, in workload order
    calls: list[Call]  # per (instance, algorithm), in workload order
    start_reference: float  # one reference_s() sample before the first call

    @property
    def reference(self) -> float:
        """Mean reference time over the pass's calls, for calls too short
        to have samples of their own."""
        samples = [r for c in self.calls for r in c.references]
        return statistics.fmean(samples) if samples else self.start_reference


def cut_in(passes: list[Pass]) -> set[tuple[str, str]]:
    """The (instance, algorithm) calls cut at the limit in ``passes``."""
    return {(c.instance.name, c.alg) for p in passes for c in p.calls if c.status == "cut"}


def fastest_solve(passes: list[Pass], algs=None, answered_only: bool = False) -> float:
    """Summed time of the calls, each taken from its fastest pass.  Other
    processes on the machine only ever add time, so the fastest pass is the
    steadiest estimate of the work.  A cut call counts as the limit unless
    ``answered_only`` leaves it out; a call answered in any pass is in, at
    its fastest answered time (a cut takes the limit, which is longer)."""
    same: dict[tuple[str, str], list[float]] = {}
    answered: set[tuple[str, str]] = set()
    for p in passes:
        for c in p.calls:
            if algs is None or c.alg in algs:
                key = (c.instance.name, c.alg)
                same.setdefault(key, []).append(c.seconds)
                if c.status == "answered":
                    answered.add(key)
    return sum(min(t) for key, t in same.items() if not answered_only or key in answered)


def answered_in_reference(passes: list[Pass], algs=None) -> float:
    """Summed time of the calls answered in the first pass, each in units of
    its mean reference time (the pass's, if the call took no sample), at the
    fastest pass."""
    keys = {
        (c.instance.name, c.alg)
        for c in passes[0].calls
        if c.status == "answered" and (algs is None or c.alg in algs)
    }

    def in_reference(p: Pass) -> float:
        fallback = p.reference
        return sum(
            c.seconds / (statistics.fmean(c.references) if c.references else fallback)
            for c in p.calls
            if (c.instance.name, c.alg) in keys
        )

    return min(map(in_reference, passes))


class Repeats:
    """Results of ``action``, run ``times`` times now and again between
    library calls while the repeats cost at most REPEAT_SHARE of the run."""

    def __init__(self, action, times: int) -> None:
        self.action = action
        self.results: list = []
        self.spent = 0.0
        self.start = perf_counter()
        for _ in range(times):
            self.run()

    def run(self) -> None:
        t0 = perf_counter()
        self.results.append(self.action())
        self.spent += perf_counter() - t0

    def between_calls(self) -> None:
        cost = self.spent / len(self.results)
        if self.spent + cost <= REPEAT_SHARE * (perf_counter() - self.start):
            self.run()


def fastest_load_s(passes: list[Pass]) -> float:
    """Summed parse time of the instances, each at its fastest pass."""
    return sum(map(min, zip(*(p.loads for p in passes))))


def check_layout(inst: Instance, layout: oracle.Layout, solver_bw: int) -> str:
    """Empty when the layout survives a write/read round trip, is a
    permutation, and its bandwidth, recomputed from the benchmark's own
    edge array, equals the solver's and is not below the known optimum."""
    try:
        back = oracle.parse_layout(oracle.format_layout(layout), inst.n)
    except ValueError as exc:
        return f"layout does not read back: {exc}"
    pos = np.asarray(back.pos, dtype=np.int64)
    if back.pos != layout.pos:
        return "layout changed in the round trip"
    if not np.array_equal(np.sort(pos), np.arange(1, inst.n + 1)):
        return "layout is not a permutation of 1..n"
    edges = inst.edges
    bw = int(np.abs(pos[edges[:, 0]] - pos[edges[:, 1]]).max()) if len(edges) else 0
    if bw != solver_bw:
        return f"recomputed bandwidth {bw} differs from the solver's {solver_bw}"
    if bw < inst.lb or (inst.opt is not None and bw < inst.opt):
        return f"bandwidth {bw} is below the known lower bound or optimum"
    return ""


def parse(text: str) -> tuple[graph.Graph, float]:
    t0 = perf_counter()
    g = graph.parse_graph(text)
    return g, perf_counter() - t0


def solve(
    inst: Instance, g: graph.Graph, alg: str, limit: float, tracer=None, sample: bool = False
) -> Call:
    token = tracer.begin_call(f"call.{alg}") if tracer else None
    call_id = tracer.call_id if tracer else 0
    _samples.clear()
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        if sample:
            signal.setitimer(signal.ITIMER_VIRTUAL, REFERENCE_EVERY, REFERENCE_EVERY)
        try:
            layout, boxsize, stats = SOLVERS[alg](g)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    except CutOff:
        return Call(inst, alg, "cut", limit, trace_id=call_id)
    except (search.InfeasibleError, domset.CertificationError) as exc:
        return Call(
            inst, alg, "error", perf_counter() - t0, note=type(exc).__name__, trace_id=call_id
        )
    finally:
        if tracer:
            tracer.end_call(token, t0)
    references = tuple(_samples)
    seconds = perf_counter() - t0 - sum(references)
    try:
        bw = oracle.layout_bandwidth(g, layout)
    except ValueError as exc:
        return Call(inst, alg, "bad", seconds, note=f"layout_bandwidth: {exc}", trace_id=call_id)
    problem = check_layout(inst, layout, bw)
    return Call(
        inst,
        alg,
        "bad" if problem else "answered",
        seconds,
        bandwidth=bw,
        configs=stats.configs_tried,
        boxsizes=stats.boxsizes_tried,
        boxsize=boxsize,
        note=problem,
        trace_id=call_id,
        references=references,
    )


def run_pass(
    wl: Workload, tracer=None, between_calls=None, skip=frozenset(), sample: bool = False
) -> Pass:
    """Load and solve every instance; the calls in ``skip``, already cut at
    the limit in an earlier pass, are not tried again.  ``sample`` takes
    reference samples during the calls."""
    loads = []
    calls = []
    start_reference = reference_s()
    for inst in wl.instances:
        gc.collect()
        g, t = parse(inst.text)
        loads.append(t)
        for alg in inst.algs:
            if (inst.name, alg) in skip:
                continue
            calls.append(solve(inst, g, alg, wl.time_limit, tracer, sample))
            if between_calls:
                between_calls()
        del g
    return Pass(loads, calls, start_reference)


def _gmean(values: list[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values))


def quality(calls: list[Call]) -> dict[str, float]:
    """Answer and ratio metrics over every call of the run."""
    claiming = [c for c in calls if FACTORS[c.alg] is not None]
    fail = sum(c.breaks_guarantee for c in claiming) / len(claiming) if claiming else 0.0
    return {
        "answered_share": sum(c.status == "answered" for c in calls) / len(calls),
        "guarantee_fail_share": fail,
        "guarantee_kept_share": 1.0 - fail,
        "ratio_opt_gmean": _gmean([c.ratio(c.opt_or_lb) for c in calls]),
        "ratio_opt_max": max(c.ratio(c.opt_or_lb) for c in calls),
        "ratio_lb_gmean": _gmean([c.ratio(c.instance.lb) for c in calls]),
    }


def _sum_by(spans: np.ndarray, values: np.ndarray, names: list[str], name: str) -> float:
    if name not in names:
        return 0.0
    return float(values[spans[:, 2] == names.index(name)].sum())


def answered_spans(spans: np.ndarray, calls: list[Call]) -> np.ndarray:
    """The spans of answered calls, plus those outside any call (parsing).
    How far a call cut at the limit gets depends on the machine's speed, so
    its partial work stays out of the per-layer metrics."""
    ids = [c.trace_id for c in calls if c.status == "answered"]
    return spans[np.isin(spans[:, 3], ids) | (spans[:, 3] == 0)]


def layer_metrics(tracer, spans: np.ndarray, setup: np.ndarray, calls: list[Call]) -> dict:
    """Per-layer metrics of the answered calls of one traced pass (``spans``
    and ``calls``) and of the traced set-up (``setup``)."""
    names = tracer.names
    answered = [c for c in calls if c.status == "answered"]
    counts, nodes_max = tracer.call_counts([c.trace_id for c in answered])
    spans = answered_spans(spans, calls)
    dur = spans[:, 5] - spans[:, 4]
    own = tracer.self_times(spans)
    setup_dur = setup[:, 5] - setup[:, 4]

    def total(name):
        return _sum_by(spans, dur, names, name)

    def n(name):
        return int(_sum_by(spans, np.ones(len(spans)), names, name))

    placements = counts["boxes.placements"]
    matchings = n("matching.max_matching")
    return {
        "graph.gen_s": _sum_by(setup, setup_dur, names, "graph.gen"),
        "graph.parse_s": total("graph.parse"),
        "graph.bfs_calls": n("graph.bfs"),
        "graph.bfs_s": total("graph.bfs"),
        "domset.certify_s": total("domset.certify"),
        "domset.certify_attempts": counts["domset.certify_attempts"],
        "domset.roots": counts["domset.roots"],
        "boxes.root_distances_s": total("boxes.root_distances"),
        "boxes.placements": placements,
        "boxes.enumerate_s": total("boxes.enumerate"),
        "boxes.build_intervals_calls": n("boxes.build_intervals"),
        "boxes.build_intervals_s": total("boxes.build_intervals"),
        "boxes.update_intervals_calls": n("boxes.update_intervals"),
        "boxes.update_intervals_s": total("boxes.update_intervals"),
        "flow.count_intervals_s": total("flow.count_intervals"),
        "flow.empty_configs": counts["flow.empty_configs"],
        "flow.build_instance_s": total("flow.build_instance"),
        "flow.max_flow_calls": n("flow.max_flow"),
        "flow.max_flow_s": total("flow.max_flow"),
        "flow.nodes_max": nodes_max,
        "flow.to_layout_s": total("flow.to_layout"),
        "matching.build_aux_s": total("matching.build_aux"),
        "matching.aux_edges": counts["matching.aux_edges"],
        "matching.max_matching_calls": matchings,
        "matching.max_matching_s": total("matching.max_matching"),
        "matching.perfect_share": counts["matching.perfect"] / matchings if matchings else 0.0,
        "matching.normalize_s": total("matching.normalize"),
        "search.configs": sum(c.configs for c in answered),
        "search.boxsizes": sum(c.boxsizes for c in answered),
        "search.feasible_share": len(answered) / placements if placements else 0.0,
        "search.scan_s": total("search.scan"),
        "search.self_s": _sum_by(spans, own, names, "search.scan"),
        "search.us_per_config": total("search.scan") / placements * 1e6 if placements else 0.0,
        "oracle.exact_calls": int(_sum_by(setup, np.ones(len(setup)), names, "oracle.exact")),
        "oracle.exact_s": _sum_by(setup, setup_dur, names, "oracle.exact"),
    }


def layer_shares(tracer, spans: np.ndarray) -> dict[str, dict[str, float]]:
    """For each algorithm, the share of its call time spent in each span
    name (self time), so the shares of one algorithm sum to 1."""
    names = tracer.names
    name_idx = spans[:, 2].astype(np.int64)
    call = spans[:, 3].astype(np.int64)
    dur = spans[:, 5] - spans[:, 4]
    own = tracer.self_times(spans)
    alg_of_call = np.full(tracer.calls + 1, -1, dtype=np.int64)
    call_names = [i for i, name in enumerate(names) if name.startswith("call.")]
    roots = np.isin(name_idx, call_names)
    alg_of_call[call[roots]] = name_idx[roots]
    alg = alg_of_call[call]
    shares = {}
    for a in np.unique(alg[alg >= 0]):
        mask = alg == a
        total = dur[mask & roots].sum()
        by_name = np.bincount(name_idx[mask], weights=own[mask], minlength=len(names))
        shares[names[a][len("call."):]] = {
            names[i]: float(v / total) for i, v in enumerate(by_name) if v
        }
    return shares
