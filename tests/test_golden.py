"""Default ``approx`` reports against fixtures recorded from an earlier tree.

Each run goes through ``cli.main`` on a graph file, so the whole pipeline
and the report format are covered.  ``golden/reports.json`` holds, per run,
the sha256 of the report as printed plus the box size, bandwidth and walk
counters as plain values, so a mismatch says what moved.
``golden/approx-g50.txt`` is the full report on ``generate 50 0.3 1``, which
CI also diffs against the installed package's output.

A change that is meant to alter reports re-records both files and says so
in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from bandapprox import cli
from bandapprox.graph import gen_dense_random, serialize_graph
from helpers import planted_band

GOLDEN = Path(__file__).parent / "golden"
REPORTS = GOLDEN / "reports.json"
G50_REPORT = GOLDEN / "approx-g50.txt"

GRAPHS = {
    **{f"generate-{n}-{d}-{s}": (gen_dense_random, n, d, s)
       for n, d, s in ((14, 0.5, 4), (30, 0.4, 1), (50, 0.3, 2), (60, 0.5, 3), (49, 0.3, 7))},
    **{f"planted-{n}-{w}-{s}": (planted_band, n, w, s)
       for n, w, s in ((16, 2, 1), (20, 4, 2), (24, 6, 0))},
}
ALGORITHMS = {
    "alg1": ("--alg", "1"),
    "alg2": ("--alg", "2"),
    "alg2-no3hop": ("--alg", "2", "--no-3hop"),
    "baseline": ("--alg", "baseline"),
}
SEEDS = (0, 5)
RUNS = [f"{graph}/{alg}/seed{seed}" for graph in GRAPHS for alg in ALGORITHMS for seed in SEEDS]


def approx(path: Path, *flags: str) -> tuple[str, dict]:
    """The default ``approx`` report on the graph at ``path``, and the run's
    box size, bandwidth and walk counters."""
    run_algorithm = cli._run_algorithm
    runs = []

    def recording(*args):
        runs.append(run_algorithm(*args))
        return runs[-1]

    out = io.StringIO()
    cli._run_algorithm = recording
    try:
        with redirect_stdout(out):
            code = cli.main(["approx", str(path), *flags])
    finally:
        cli._run_algorithm = run_algorithm
    assert code == cli.EXIT_OK
    _, boxsize, stats = runs[0]
    report = out.getvalue()
    return report, {
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
        "boxsize": boxsize,
        "bandwidth": int(re.search(r"^bandwidth: (\d+)$", report, re.M)[1]),
        "nodes_visited": stats.nodes_visited,
        "configs_tried": stats.configs_tried,
        "pruned_empty": stats.pruned_empty,
        "pruned_by_hall": stats.pruned_by_hall,
    }


def graph_file(directory: Path, name: str) -> Path:
    make, *args = GRAPHS[name]
    path = directory / f"{name}.txt"
    if not path.exists():
        path.write_text(serialize_graph(make(*args)), encoding="utf-8")
    return path


def run(directory: Path, run_id: str) -> dict:
    graph, alg, seed = run_id.split("/")
    _, record = approx(graph_file(directory, graph), *ALGORITHMS[alg], "--seed", seed[4:])
    return record


def g50_report(directory: Path) -> str:
    path = directory / "g50.txt"
    assert cli.main(["generate", "50", "0.3", "1", "--out", str(path)]) == cli.EXIT_OK
    report, _ = approx(path)
    return report


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden-graphs")


@pytest.fixture(scope="module")
def recorded():
    return json.loads(REPORTS.read_text(encoding="utf-8"))


def test_fixture_covers_every_run(recorded):
    assert sorted(recorded) == sorted(RUNS)


@pytest.mark.parametrize("run_id", RUNS)
def test_report_matches_the_recording(graph_dir, recorded, run_id):
    assert run(graph_dir, run_id) == recorded[run_id]


def test_g50_report_matches_the_committed_file(tmp_path):
    assert g50_report(tmp_path) == G50_REPORT.read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        GOLDEN.mkdir(exist_ok=True)
        records = {run_id: run(directory, run_id) for run_id in RUNS}
        REPORTS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        G50_REPORT.write_text(g50_report(directory), encoding="utf-8")
    print(f"recorded {len(records)} runs in {REPORTS} and the g50 report in {G50_REPORT}")
