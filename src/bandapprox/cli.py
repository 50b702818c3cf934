"""Command-line front end: generate, exact, approx, verify, bench.

Exit codes: 0 success, 1 usage or input error, 2 certification failure
(or the infeasible-search error, kept as a defensive check), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from .domset import DEFAULT_MAX_TRIES, CertificationError, SamplingParams
from .flow import approx_bandwidth_alg2
from .graph import (
    Graph,
    GraphParseError,
    gen_dense_random,
    parse_graph,
    serialize_graph,
)
from .matching import approx_bandwidth_alg1, approx_bandwidth_baseline
from .oracle import (
    DEFAULT_ORACLE_CAP,
    OracleCapError,
    exact_bandwidth,
    format_layout,
    layout_bandwidth,
    parse_layout,
)
from .search import InfeasibleError, SearchStats
from .util import derive_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3

ORACLE_CAP_ENV = "BANDAPPROX_ORACLE_CAP"

BENCH_HEADER = [
    "n", "delta", "seed", "alg", "boxsize", "bandwidth", "exact", "ratio",
    "configs", "t_certify", "t_bfs", "t_scan", "t_total", "error",
]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this project reserves 2 for
    certification failure, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def oracle_cap() -> int:
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}") from None


def _read_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def _run_algorithm(g: Graph, alg: str, seed: int, args) -> tuple:
    params = SamplingParams(alpha=args.alpha, c=args.c, delta=args.delta)
    common = dict(seed=seed, max_tries=args.max_tries)
    if alg == "1":
        return approx_bandwidth_alg1(g, params, use_3hop=not args.no_3hop, **common)
    if alg == "2":
        return approx_bandwidth_alg2(g, params, use_3hop=not args.no_3hop, **common)
    if alg == "baseline":
        return approx_bandwidth_baseline(g, params, **common)
    raise ValueError(f"unknown algorithm {alg!r}")


def _report_lines(
    stats: SearchStats, m: int, boxsize: int, bw: int, exact: int | None, timings: bool
) -> list[str]:
    """The ``approx`` report, one ``key: value`` line each.

    Timings are printed only on request, so that a fixed seed yields
    byte-identical default output.
    """
    out = [
        f"algorithm: {stats.algorithm}",
        f"seed: {stats.seed}",
        f"n: {stats.n}",
        f"m: {m}",
        f"delta: {stats.delta:.6g}",
        f"alpha: {stats.alpha:.6g}",
        f"c: {stats.c:.6g}",
        f"roots: {stats.root_count}",
        f"certify_attempts: {stats.certify_attempts}",
        f"boxsize: {boxsize}",
        f"bandwidth: {bw}",
        f"configs: {stats.configs_tried}",
    ]
    if exact is not None:
        ratio = bw / exact if exact > 0 else 1.0
        out += [f"exact: {exact}", f"ratio: {ratio:.4f}"]
    if timings:
        out.append(f"time_certify_s: {stats.time_certify:.6f}")
        out.append(f"time_bfs_s: {stats.time_bfs:.6f}")
        out.append(f"time_scan_s: {stats.time_scan:.6f}")
        out.append(f"time_total_s: {stats.time_total:.6f}")
    return out


def cmd_generate(args) -> int:
    g = gen_dense_random(args.n, args.delta, args.seed)
    text = serialize_graph(g)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK


def cmd_exact(args) -> int:
    g = _read_graph(args.graph)
    value, layout = exact_bandwidth(g, cap=oracle_cap())
    print(value)
    sys.stdout.write(format_layout(layout))
    return EXIT_OK


def cmd_approx(args) -> int:
    g = _read_graph(args.graph)
    layout, boxsize, stats = _run_algorithm(g, args.alg, args.seed, args)
    bw = layout_bandwidth(g, layout)
    exact = exact_bandwidth(g, cap=oracle_cap())[0] if args.with_exact else None
    print("\n".join(_report_lines(stats, g.m, boxsize, bw, exact, args.timings)))
    if args.layout_out is None:
        print()
        sys.stdout.write(format_layout(layout))
    else:
        Path(args.layout_out).write_text(format_layout(layout), encoding="utf-8")
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    layout = parse_layout(Path(args.layout).read_text(encoding="utf-8"), g.n)
    print(layout_bandwidth(g, layout))
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = _parse_int_list(args.sizes)
    seeds = _parse_int_list(args.seeds)
    algs = [a.strip() for a in args.algs.split(",") if a.strip()] if args.algs else []
    for a in algs:
        if a not in ("1", "2", "baseline"):
            raise ValueError(f"unknown algorithm {a!r} in --algs")

    rows: list[list] = []
    for n in sizes:
        for seed in seeds:
            gseed = derive_seed(seed, "gen", n)
            g = gen_dense_random(n, args.delta_gen, gseed)
            exact_val: int | None = None
            if args.exact_max and n <= args.exact_max:
                exact_val, _ = exact_bandwidth(g, cap=args.exact_max)
            for alg in algs:
                aseed = derive_seed(seed, "approx", n, alg)
                row: list = [n, f"{args.delta_gen:.6g}", seed, alg]
                try:
                    layout, boxsize, stats = _run_algorithm(g, alg, aseed, args)
                    bw = layout_bandwidth(g, layout)
                    ratio = (
                        f"{bw / exact_val:.4f}" if exact_val else ""
                    )
                    row += [
                        boxsize, bw,
                        exact_val if exact_val is not None else "",
                        ratio, stats.configs_tried,
                        f"{stats.time_certify:.6f}", f"{stats.time_bfs:.6f}",
                        f"{stats.time_scan:.6f}", f"{stats.time_total:.6f}", "",
                    ]
                except (CertificationError, InfeasibleError, ValueError) as exc:
                    row += ["", "", "", "", "", "", "", "", "", type(exc).__name__]
                rows.append(row)

    out = sys.stdout if args.out is None else open(args.out, "w", newline="", encoding="utf-8")
    try:
        writer = csv.writer(out)
        writer.writerow(BENCH_HEADER)
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def _parse_int_list(raw: str | None) -> list[int]:
    if not raw:
        return []
    return [int(part) for part in raw.split(",") if part.strip()]


def _add_sampling_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--alpha", type=float, default=0.5,
                   help="sampling failure budget in (0,1)")
    p.add_argument("--c", type=float, default=1.0,
                   help="slack constant in the second-stage sample size")
    p.add_argument("--delta", type=float, default=None,
                   help="assume this density instead of measuring it")
    p.add_argument("--max-tries", type=int, default=DEFAULT_MAX_TRIES,
                   help="certification attempts before giving up")
    p.add_argument("--no-3hop", action="store_true",
                   help="drop the three-hop window tightening (wider layouts)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bandapprox",
                     description="Bandwidth approximation for dense graphs")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="emit a dense random graph as an edge list")
    p.add_argument("n", type=int)
    p.add_argument("delta", type=float)
    p.add_argument("seed", type=int)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("exact", help="exact bandwidth by branch and bound")
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("approx", help="randomized approximation")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--alg", choices=("1", "2", "baseline"), default="2",
                   help="1 = matching back end, 2 = flow back end, "
                        "baseline = one-hop comparison mode")
    p.add_argument("--layout-out", default=None,
                   help="write the layout here instead of stdout")
    p.add_argument("--with-exact", action="store_true",
                   help="also solve exactly (small graphs) and report the ratio")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock phase timings in the report")
    _add_sampling_flags(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("verify", help="bandwidth of a layout file")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("layout", help="layout file ('vertex position' lines)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="sweep instances and write a CSV")
    p.add_argument("--sizes", default=None, help="comma-separated n values")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--algs", default="1,2", help="comma-separated algorithms")
    p.add_argument("--delta-gen", dest="delta_gen", type=float, default=0.5,
                   help="density of generated instances")
    p.add_argument("--exact-max", type=int, default=0,
                   help="solve exactly (and emit ratios) when n <= this")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    _add_sampling_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse help/usage paths
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CertificationError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GraphParseError, OracleCapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
