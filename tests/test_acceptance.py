"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Budgets are asserted where the criteria state them.
"""

import itertools
import time

import numpy as np

from bandapprox.boxes import (
    build_intervals,
    enumerate_placements,
    make_box_config,
    root_balls,
    root_distances,
    root_windows,
    update_intervals,
)
from bandapprox.domset import SamplingParams, is_dominating, kprime_size, sample_certified
from bandapprox.flow import (
    approx_bandwidth_alg2,
    build_flow_instance,
    count_intervals,
    max_flow,
)
from bandapprox.graph import gen_dense_random, min_degree
from bandapprox.matching import (
    approx_bandwidth_alg1,
    build_auxiliary,
    max_matching,
)
from bandapprox.oracle import exact_bandwidth, layout_bandwidth
from bandapprox.util import ceil_snapped
from helpers import (
    box_gap_violations,
    complete_graph,
    cycle_graph,
    enumerate_bandwidth,
    er_graph,
    path_graph,
    planted_band,
    reference_intervals,
    sample_rootset,
    three_hop_listings,
)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed {suffix}"


def dense_instances(count, sizes, seed0):
    """Mixed pool of instances with min degree >= ceil(n/2).

    Generator output saturates to near-complete graphs at this scale, so
    half the pool is rejection-sampled Erdos-Renyi for structural variety.
    """
    out = []
    seed = seed0
    while len(out) < count:
        n = sizes[len(out) % len(sizes)]
        seed += 1
        if len(out) % 2 == 0:
            g = gen_dense_random(n, 0.5, seed)
            out.append((g, seed))
        else:
            g = er_graph(n, 0.72, seed)
            if min_degree(g) >= -(-n // 2):
                out.append((g, seed))
    return out


class TestAcceptance:
    def test_1_oracle_correctness(self):
        t0 = time.perf_counter()
        mismatches = []
        for i in range(200):
            n = 5 + i % 6
            g = er_graph(n, 0.5, 1000 + i)
            bb, witness = exact_bandwidth(g)
            brute = enumerate_bandwidth(g)
            if bb != brute or layout_bandwidth(g, witness) != bb:
                mismatches.append((i, n, bb, brute))
        for n in range(2, 13):
            if exact_bandwidth(path_graph(n))[0] != 1:
                mismatches.append(("path", n))
            if n >= 3 and exact_bandwidth(cycle_graph(n))[0] != 2:
                mismatches.append(("cycle", n))
            if exact_bandwidth(complete_graph(n))[0] != n - 1:
                mismatches.append(("complete", n))
        elapsed = time.perf_counter() - t0
        report(
            1, "oracle-correctness",
            not mismatches and elapsed < 60,
            f"200 random + families, {elapsed:.1f}s",
        )

    def test_2_approximation_ratio(self):
        t0 = time.perf_counter()
        instances = dense_instances(100, sizes=(8, 9, 10, 11, 12), seed0=5000)
        violations = []
        gap_violations = 0
        for g, seed in instances:
            exact, _ = exact_bandwidth(g)
            for use_3hop, bound in ((True, 6), (False, 10)):
                for run, name in (
                    (approx_bandwidth_alg1, "alg1"),
                    (approx_bandwidth_alg2, "alg2"),
                ):
                    layout, boxsize, stats = run(
                        g, seed=seed, use_3hop=use_3hop, record_trace=True
                    )
                    bw = layout_bandwidth(g, layout)
                    if bw > bound * exact:
                        violations.append((name, use_3hop, seed, bw, exact))
                    if use_3hop:
                        rs = sample_certified(g, stats.root_count, seed=seed)
                        cfg = make_box_config(g.n, boxsize)
                        gap_violations += len(
                            box_gap_violations(g, layout, rs, stats.trace[-1][1], cfg)
                        )
        elapsed = time.perf_counter() - t0
        report(
            2, "approximation-ratio",
            not violations and gap_violations == 0 and elapsed < 300,
            f"100 instances x 2 algs x (6x, 10x), {elapsed:.1f}s",
        )

    def test_3_flow_matching_equivalence(self):
        t0 = time.perf_counter()
        disagreements, configs, _ = exhaustive_verdict_scan()
        elapsed = time.perf_counter() - t0
        assert configs > 0
        report(
            3, "flow-matching-equivalence",
            disagreements == 0 and elapsed < 600,
            f"{configs} configurations on 50 instances, {elapsed:.1f}s",
        )

    def test_4_domination_probability(self):
        t0 = time.perf_counter()
        g = gen_dense_random(60, 0.4, 2024)
        params = SamplingParams(alpha=0.5, c=1.0, delta=0.4)
        size = kprime_size(60, params)
        hits = sum(
            is_dominating(g, sample_rootset(g, size, seed)) for seed in range(1000)
        )
        rate = hits / 1000
        elapsed = time.perf_counter() - t0
        report(
            4, "domination-probability",
            rate >= 0.15 and elapsed < 60,
            f"rate {rate:.3f} with size {size}, {elapsed:.1f}s",
        )

    def test_5_compressed_instance_size(self):
        # every configuration of the criterion-2/3 style workloads obeys the
        # b-dependent bounds: rerun the exhaustive scan counting violations,
        # plus ratio-style pipeline runs whose stats carry the maxima seen
        _, configs, violations = exhaustive_verdict_scan()
        checked = 0
        for idx in range(20):
            g = gen_dense_random(10 + idx % 4, 0.5, 9000 + idx)
            _, boxsize, stats = approx_bandwidth_alg2(g, seed=idx)
            # bound with the largest b the scan can encounter, which the
            # smallest scanned boxsize determines
            b_max = make_box_config(g.n, max(1, exact_lower(g))).b
            if stats.max_interval_keys > 5 * b_max:
                violations += 1
            if stats.max_flow_nodes > 2 + 6 * b_max:
                violations += 1
            checked += 1
        report(
            5, "compressed-instance-size",
            violations == 0,
            f"{configs} exhaustive configs + {checked} pipeline runs, 0 violations"
            if violations == 0 else f"{violations} violations",
        )

    def test_6_scaling(self):
        t0 = time.perf_counter()
        sizes = (200, 400, 800)
        reps_ordered = 0
        flow_exponents = []
        for rep in range(3):
            flow_times = []
            match_times = []
            for n in sizes:
                tf, tm = measure_feasibility_times(n, 0.3, seed=10 + rep)
                flow_times.append(tf)
                match_times.append(tm)
            fx = fitted_exponent(sizes, flow_times)
            mx = fitted_exponent(sizes, match_times)
            flow_exponents.append(fx)
            if fx < mx:
                reps_ordered += 1
        elapsed = time.perf_counter() - t0
        ok = reps_ordered == 3 and all(fx <= 1.5 for fx in flow_exponents)
        report(
            6, "scaling",
            ok and elapsed < 600,
            f"flow exponents {['%.2f' % f for f in flow_exponents]}, "
            f"ordering 3/3, {elapsed:.0f}s",
        )

    def test_7_interval_update_equivalence(self):
        import random as _random

        rng = _random.Random(99)
        checked = 0
        mismatches = 0
        three_hop = 0
        # the dense graph has diameter 2; the path power puts vertices three
        # hops from a root, so its intervals also use the +/-3 windows
        for g in (gen_dense_random(24, 0.4, 77), planted_band(24, 3, 0)):
            rs = sample_certified(g, 3, seed=1)
            dists = root_distances(g, rs)
            balls = root_balls(g, rs)
            windows = root_windows(rs, balls, g.n)
            three_hop += three_hop_listings(windows)
            checked_here = 0
            while checked_here < 1000:
                boxsize = rng.randrange(max(1, exact_lower(g)), g.n + 1)
                cfg = make_box_config(g.n, boxsize)
                placements = list(enumerate_placements(rs, cfg))
                for _ in range(min(40, 1000 - checked_here)):
                    target = rng.choice(placements)
                    updated = update_intervals(rs, windows, cfg, target)
                    fresh = build_intervals(g, rs, target, cfg, balls)
                    reference = reference_intervals(g, rs, target, cfg, dists)
                    if not updated == fresh == reference:
                        mismatches += 1
                    checked_here += 1
            checked += checked_here
        report(
            7, "interval-update-equivalence",
            mismatches == 0 and three_hop > 0,
            f"{checked} transitions on two graphs, equal to a fresh build and the "
            f"reference derivation; {three_hop} vertex-root pairs at three hops",
        )

    def test_8_determinism(self):
        def ratio_workload():
            lines = []
            for g, seed in dense_instances(12, sizes=(8, 10, 12), seed0=8000):
                for run in (approx_bandwidth_alg1, approx_bandwidth_alg2):
                    layout, boxsize, stats = run(g, seed=seed)
                    lines.append(
                        f"{stats.algorithm},{seed},{boxsize},"
                        f"{layout_bandwidth(g, layout)},{stats.configs_tried},"
                        f"{layout.pos}"
                    )
            return "\n".join(lines).encode()

        def domination_workload():
            g = gen_dense_random(60, 0.4, 2024)
            size = kprime_size(60, SamplingParams(alpha=0.5, c=1.0, delta=0.4))
            bits = "".join(
                "1" if is_dominating(g, sample_rootset(g, size, seed)) else "0"
                for seed in range(200)
            )
            return bits.encode()

        ok = (
            ratio_workload() == ratio_workload()
            and domination_workload() == domination_workload()
        )
        report(8, "determinism", ok, "byte-identical reports and layouts")


def exact_lower(g):
    from bandapprox.oracle import degree_lower_bound

    return degree_lower_bound(g)


def exhaustive_verdict_scan():
    """Walk every (boxsize, placement) configuration on 50 instances with
    n <= 14 and three roots, comparing back-end verdicts and checking the
    n-independent size bounds of the compressed instance.

    Returns (verdict disagreements, configurations, size-bound violations).
    """
    disagreements = 0
    configs = 0
    size_violations = 0
    for idx in range(50):
        n = 8 + idx % 7  # 8..14
        g = gen_dense_random(n, 0.5, 7000 + idx)
        rs = sample_certified(g, 3, seed=idx)
        windows = root_windows(rs, root_balls(g, rs), n)
        for boxsize in range(max(1, exact_lower(g)), n + 1):
            cfg = make_box_config(n, boxsize)
            for rp in enumerate_placements(rs, cfg):
                intervals = update_intervals(rs, windows, cfg, rp)
                configs += 1
                matched = max_matching(build_auxiliary(intervals, cfg)).is_perfect(n)
                counts = count_intervals(intervals)
                if counts is None:
                    flows = False
                else:
                    if len(counts) > 5 * cfg.b:
                        size_violations += 1
                    inst = build_flow_instance(counts, cfg)
                    if inst.node_count > 2 + 6 * cfg.b:
                        size_violations += 1
                    flows = max_flow(inst).value == n
                if matched != flows:
                    disagreements += 1
    return disagreements, configs, size_violations


def measure_feasibility_times(n, delta, seed, placements=6):
    """Mean per-configuration times: flow test vs matching phase.

    Both back ends are timed on the same intervals at boxsize
    ceil(delta*n) (so the box count stays fixed across n).  The flow
    pipeline's steady state is interval update -> count -> max flow, so the
    one-time root windows are excluded from both timings.
    """
    g = gen_dense_random(n, delta, seed)
    params = SamplingParams(alpha=0.5, c=1.0, delta=delta)
    size = kprime_size(n, params)
    rs = sample_certified(g, size, seed)
    cfg = make_box_config(n, ceil_snapped(delta * n))
    windows = root_windows(rs, root_balls(g, rs), n)
    t_flow = t_match = 0.0
    for rp in itertools.islice(enumerate_placements(rs, cfg), 1, placements + 1):
        t0 = time.perf_counter()
        intervals = update_intervals(rs, windows, cfg, rp)
        counts = count_intervals(intervals)
        if counts is not None:
            max_flow(build_flow_instance(counts, cfg))
        t_flow += time.perf_counter() - t0

        t0 = time.perf_counter()
        max_matching(build_auxiliary(intervals, cfg))
        t_match += time.perf_counter() - t0
    return t_flow / placements, t_match / placements


def fitted_exponent(sizes, times):
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
