"""End-to-end and per-layer benchmark of the bandapprox library.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dense-scan --seed 0 --seconds 20 --trace 0

The command builds the workload's graphs from ``--seed``, then repeats
passes over them (load every graph from its edge-list text, solve it with
each of the workload's algorithms under a per-call time limit, check every
answer independently) for about ``--seconds`` seconds, one library call at
a time.  It prints a readable report and, as its last line, one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced pass (``--trace 1``).  It exits 1 if any answer fails the check and
without a result if the library sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "solve_answered_ref": "ref",
    "solve_alg2_answered_ref": "ref",
    "answered_share": "share",
    "guarantee_kept_share": "share",
    "ratio_opt_gmean": "ratio",
    "ratio_opt_max": "ratio",
    "ratio_lb_gmean": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.gen_s": "s",
    "graph.parse_s": "s",
    "graph.bfs_calls": "count",
    "graph.bfs_s": "s",
    "domset.certify_s": "s",
    "domset.certify_attempts": "count",
    "domset.roots": "count",
    "boxes.root_distances_s": "s",
    "boxes.placements": "count",
    "boxes.enumerate_s": "s",
    "boxes.build_intervals_calls": "count",
    "boxes.build_intervals_s": "s",
    "boxes.update_intervals_calls": "count",
    "boxes.update_intervals_s": "s",
    "flow.count_intervals_s": "s",
    "flow.empty_configs": "count",
    "flow.build_instance_s": "s",
    "flow.max_flow_calls": "count",
    "flow.max_flow_s": "s",
    "flow.nodes_max": "count",
    "flow.to_layout_s": "s",
    "matching.build_aux_s": "s",
    "matching.aux_edges": "count",
    "matching.max_matching_calls": "count",
    "matching.max_matching_s": "s",
    "matching.perfect_share": "share",
    "matching.normalize_s": "s",
    "search.configs": "count",
    "search.boxsizes": "count",
    "search.feasible_share": "share",
    "search.scan_s": "s",
    "search.self_s": "s",
    "search.us_per_config": "us",
    "oracle.exact_calls": "count",
    "oracle.exact_s": "s",
    "trace.overhead_s": "s",
}


def import_library() -> None:
    """Put the checkout's own sources first on the path, or stop."""
    if not (SRC / "bandapprox" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import bandapprox

    if Path(bandapprox.__file__).resolve().parent != (SRC / "bandapprox").resolve():
        sys.exit(f"perfbench: imported bandapprox from {bandapprox.__file__}, not {SRC}")


def build(workload: str, seed: int):
    from workloads import BUILDERS

    gc.collect()
    t0 = perf_counter()
    wl = BUILDERS[workload](seed)
    return wl, perf_counter() - t0


def passes_for(seconds: float, one_pass, minimum: int) -> list:
    """Call ``one_pass(done)`` with the passes done so far, at least
    ``minimum`` times, then while another as long as the last still fits in
    ``seconds``."""
    start = perf_counter()
    done = []
    while True:
        t0 = perf_counter()
        done.append(one_pass(done))
        last = perf_counter() - t0
        if len(done) >= minimum and perf_counter() - start + last > seconds:
            return done


def median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median_low(d[k] for d in dicts) for k in dicts[0]}


def report_calls(wl, calls) -> list[str]:
    """The per-instance work record: plan sizes, then each call's outcome."""
    lines = []
    by_inst = {}
    for c in calls:
        by_inst.setdefault(c.instance.name, []).append(c)
    for inst in wl.instances:
        p = inst.plan
        opt = inst.opt if inst.opt is not None else "-"
        lines.append(
            f"instance {inst.name}: n={inst.n} m={inst.m} delta={p.delta:.4f} "
            f"k'={p.kprime} boxsize0={p.boxsize0} b0={p.b0} naive_placements={p.naive} "
            f"lb={inst.lb} opt={opt}"
        )
        for c in by_inst.get(inst.name, []):
            if c.status == "answered":
                lines.append(
                    f"  {c.alg}: answered bandwidth={c.bandwidth} configs={c.configs} "
                    f"boxsize={c.boxsize} seconds={c.seconds:.6f}"
                )
            else:
                lines.append(f"  {c.alg}: {c.status} seconds={c.seconds:.6f} {c.note}".rstrip())
    return lines


def run_plain(workload: str, seed: int, seconds: float):
    import measure

    built = {}

    def setup() -> float:
        built.pop("wl", None)  # free the previous copy before building the next
        built["wl"], t = build(workload, seed)
        return t

    setups = measure.Repeats(setup, times=SETUP_REPEATS)
    wl = built["wl"]
    passes = passes_for(
        seconds,
        lambda done: measure.run_pass(
            wl, between_calls=setups.between_calls, skip=measure.cut_in(done[:1]), sample=True
        ),
        wl.passes,
    )
    calls = [c for p in passes for c in p.calls]
    # the first pass tries every call once; later ones skip its cut calls
    quality = measure.quality(passes[0].calls)
    metrics = {
        # other tenants only ever add time, so the fastest set-up is the steadiest
        "setup_s": min(setups.results),
        "solve_answered_ref": measure.answered_in_reference(passes),
        "solve_alg2_answered_ref": measure.answered_in_reference(passes, measure.ALG2_FAMILY),
        **{k: quality[k] for k in END_TO_END if k in quality},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_alg = {alg: measure.fastest_solve(passes, (alg,)) for alg in measure.SOLVERS}
    lines = report_calls(wl, passes[0].calls)
    lines.append(
        f"passes: {len(passes)}  set-ups: {len(setups.results)}  time_limit_s: {wl.time_limit}"
    )
    lines += [f"{k}: {v!r} {END_TO_END[k]}" for k, v in metrics.items()]
    lines.append(
        f"reference_s per pass: {', '.join(f'{p.reference:.3g}' for p in passes)} s"
    )
    lines.append(
        f"solve_answered_s: {measure.fastest_solve(passes, answered_only=True)!r} s"
    )
    lines.append(f"load_s: {measure.fastest_load_s(passes)!r} s")
    lines.append(f"solve_s: {measure.fastest_solve(passes)!r} s (a cut call counts as the limit)")
    lines.append(f"solve_alg2_s: {sum(per_alg[a] for a in measure.ALG2_FAMILY)!r} s")
    lines.append(f"solve_alg1_s: {per_alg['alg1']!r} s")
    lines.append(f"solve_baseline_s: {per_alg['baseline']!r} s")
    lines.append(f"solve_alg2_no3hop_s: {per_alg['alg2-no3hop']!r} s (part of solve_alg2_s)")
    lines.append(f"guarantee_fail_share: {quality['guarantee_fail_share']!r} share")
    return wl, calls, metrics, END_TO_END, lines


def run_traced(workload: str, seed: int, seconds: float):
    import measure
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    wl, _ = build(workload, seed)
    tracer.uninstall()
    setup_spans = tracer.table()

    def pair(done):
        """An untraced pass, then a traced one over the same calls."""
        skip = measure.cut_in([plain for plain, _, _, _ in done[:1]])
        plain = measure.run_pass(wl, skip=skip)
        mark = tracer.mark()
        tracer.install()
        try:
            traced = measure.run_pass(wl, tracer, skip=skip)
        finally:
            tracer.uninstall()
        spans = tracer.table(mark)
        layers = measure.layer_metrics(tracer, spans, setup_spans, traced.calls)
        return plain, traced, layers, spans

    pairs = passes_for(seconds, pair, minimum=2)
    metrics = median_of([layers for _, _, layers, _ in pairs])
    plains = [u for u, _, _, _ in pairs]
    traceds = [t for _, t, _, _ in pairs]
    metrics["trace.overhead_s"] = measure.fastest_solve(
        traceds, answered_only=True
    ) - measure.fastest_solve(plains, answered_only=True)
    calls = [c for p in plains + traceds for c in p.calls]

    lines = report_calls(wl, traceds[0].calls)
    lines.append(f"traced passes: {len(pairs)}  time_limit_s: {wl.time_limit}")
    lines += [f"{k}: {v!r} {PER_LAYER[k]}" for k, v in metrics.items()]
    _, first, _, first_spans = pairs[0]
    cut = [c for c in first.calls if c.status == "cut"]
    cut_placements = tracer.call_counts([c.trace_id for c in cut])[0]["boxes.placements"]
    lines.append(
        f"cut calls (left out of the layer metrics): {len(cut)}  "
        f"placements before the cut: {cut_placements}"
    )
    shares = measure.layer_shares(tracer, measure.answered_spans(first_spans, first.calls))
    for alg, by_name in sorted(shares.items()):
        top = sorted(by_name.items(), key=lambda kv: -kv[1])
        lines.append(f"self-time shares of {alg} calls: " + ", ".join(
            f"{name}={v:.3f}" for name, v in top if v >= 0.005))
        update_flow = sum(
            v for name, v in by_name.items()
            if name == "boxes.update_intervals" or name.startswith("flow.")
        )
        lines.append(f"  {alg}: boxes.update_intervals + flow.* share: {update_flow:.3f}")
        matching_share = sum(v for name, v in by_name.items() if name.startswith("matching."))
        lines.append(f"  {alg}: matching.* share: {matching_share:.3f}")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}.npz")
    return wl, calls, metrics, PER_LAYER, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("dense-scan", "wide-n", "known-opt"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    sys.path.insert(0, str(HERE))
    import measure

    measure.install_alarm()
    run = run_traced if args.trace else run_plain
    wl, calls, metrics, units, lines = run(args.workload, args.seed, args.seconds)

    bad = [c for c in calls if c.status == "bad"]
    errors = [c for c in calls if c.status == "error"]
    lines.append(
        f"workload: {args.workload}  seed: {args.seed}  calls: {len(calls)}  "
        f"cut_at_limit: {sum(c.status == 'cut' for c in calls)}  "
        f"library_errors: {len(errors)}  failed_checks: {len(bad)}"
    )
    lines += [f"CHECK FAILED: {c.instance.name} {c.alg}: {c.note}" for c in bad]
    lines += [f"SELF-CHECK FAILED: {msg}" for msg in wl.self_check_failures]
    correct = not bad and not wl.self_check_failures
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": len(calls),
        "failed": len(bad) + len(errors),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
