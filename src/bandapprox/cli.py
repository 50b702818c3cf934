"""Command-line front end: generate, exact, approx, verify, bench.

Exit codes: 0 success, 1 usage or input error, 2 certification failure
(or the infeasible-search error, kept as a defensive check), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .domset import ALPHA, C, CertificationError, SamplingParams
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

# the text report's formats for the record's floats; the time_* fields print
# as .6f, every other value as it is
REPORT_FORMATS = {"delta": ".6g", "alpha": ".6g", "c": ".6g", "ratio": ".4f"}


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


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to the file at ``path``, or to stdout if none."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _run_algorithm(
    g: Graph, alg: str, seed: int, params: SamplingParams, use_3hop: bool
) -> tuple:
    if alg == "1":
        return approx_bandwidth_alg1(g, params, seed, use_3hop=use_3hop)
    if alg == "2":
        return approx_bandwidth_alg2(g, params, seed, use_3hop=use_3hop)
    if alg == "baseline":
        return approx_bandwidth_baseline(g, params, seed)
    raise ValueError(f"unknown algorithm {alg!r}")


def _run_record(stats: SearchStats, m: int, boxsize: int, bw: int, exact: int | None) -> dict:
    """One run as an ordered dict of raw values: what ``approx`` prints
    and ``bench`` writes.  ``exact`` and ``ratio`` are present only when
    the exact bandwidth is known; the ``time_*`` fields come last."""
    record = {
        "algorithm": stats.algorithm, "seed": stats.seed, "n": stats.n, "m": m,
        "delta": stats.delta, "alpha": ALPHA, "c": C, "roots": stats.root_count,
        "certify_attempts": stats.certify_attempts, "boxsize": boxsize, "bandwidth": bw,
        "configs": stats.configs_tried,
    }
    if exact is not None:
        # approx accepts an edgeless graph under --delta: bandwidth 0 both ways
        record.update(exact=exact, ratio=bw / exact if exact else 1.0)
    record.update(
        time_certify_s=stats.time_certify,
        time_bfs_s=stats.time_bfs,
        time_scan_s=stats.time_scan,
        time_total_s=stats.time_total,
    )
    return record


def _report_lines(record: dict, timings: bool) -> list[str]:
    """The ``approx`` report, one ``key: value`` line per record field.

    Timings are printed only on request, so that a fixed seed yields
    byte-identical default output.
    """
    lines = []
    for key, value in record.items():
        if not key.startswith("time_"):
            lines.append(f"{key}: {value:{REPORT_FORMATS.get(key, '')}}")
        elif timings:
            lines.append(f"{key}: {value:.6f}")
    return lines


def cmd_generate(args) -> int:
    _write(serialize_graph(gen_dense_random(args.n, args.delta, args.seed)), args.out)
    return EXIT_OK


def cmd_exact(args) -> int:
    g = _read_graph(args.graph)
    value, layout = exact_bandwidth(g, cap=oracle_cap())
    print(value)
    sys.stdout.write(format_layout(layout))
    return EXIT_OK


def cmd_approx(args) -> int:
    g = _read_graph(args.graph)
    params = SamplingParams(delta=args.delta)
    layout, boxsize, stats = _run_algorithm(g, args.alg, args.seed, params, not args.no_3hop)
    bw = layout_bandwidth(g, layout)
    exact = exact_bandwidth(g, cap=oracle_cap())[0] if args.with_exact else None
    print("\n".join(_report_lines(_run_record(stats, g.m, boxsize, bw, exact), args.timings)))
    if args.layout_out is None:
        print()
    _write(format_layout(layout), args.layout_out)
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
    params = SamplingParams(delta=args.delta)

    lines = []
    for n in sizes:
        for seed in seeds:
            g = gen_dense_random(n, args.delta_gen, derive_seed(seed, "gen", n))
            exact = None
            if args.exact_max and n <= args.exact_max:
                exact = exact_bandwidth(g, cap=args.exact_max)[0]
            for alg in algs:
                aseed = derive_seed(seed, "approx", n, alg)
                record = {"n": n, "delta_gen": args.delta_gen, "sweep_seed": seed, "alg": alg}
                try:
                    layout, boxsize, stats = _run_algorithm(g, alg, aseed, params, not args.no_3hop)
                    bw = layout_bandwidth(g, layout)
                    record.update(_run_record(stats, g.m, boxsize, bw, exact))
                except (CertificationError, InfeasibleError) as exc:
                    record["error"] = type(exc).__name__
                lines.append(json.dumps(record) + "\n")
    _write("".join(lines), args.out)
    return EXIT_OK


def _parse_int_list(raw: str | None) -> list[int]:
    if not raw:
        return []
    return [int(part) for part in raw.split(",") if part.strip()]


def _add_sampling_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, default=None,
                   help="assume this density instead of measuring it")
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
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    _add_sampling_flags(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("verify", help="bandwidth of a layout file")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("layout", help="layout file ('vertex position' lines)")
    p.set_defaults(func=cmd_verify)

    # no prefix matching: "--seed" would otherwise be read as "--seeds"
    p = sub.add_parser("bench", help="sweep instances and write JSON lines", allow_abbrev=False)
    p.add_argument("--sizes", default=None, help="comma-separated n values")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--algs", default="1,2", help="comma-separated algorithms")
    p.add_argument("--delta-gen", dest="delta_gen", type=float, default=0.5,
                   help="density of generated instances")
    p.add_argument("--exact-max", type=int, default=0,
                   help="solve exactly (and emit ratios) when n <= this")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
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
