import json
import subprocess
import sys

import pytest

from bandapprox import cli
from bandapprox.cli import main
from bandapprox.graph import density, min_degree, parse_graph, serialize_graph
from bandapprox.search import InfeasibleError
from helpers import complete_graph, cycle_graph, path_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def raise_infeasible(g, alg, seed, params, use_3hop):
    raise InfeasibleError("no feasible configuration for box sizes 1..1")


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


class TestGenerate:
    def test_roundtrip_and_density(self, capsys, tmp_path):
        out = tmp_path / "gen.txt"
        code, _, _ = run_cli(capsys, "generate", "20", "0.5", "1", "--out", str(out))
        assert code == 0
        g = parse_graph(out.read_text())
        assert g.n == 20 and density(g) >= 0.5

    def test_k2(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "2", "0.6", "1")
        assert code == 0
        assert out == "2 1\n0 1\n"

    def test_k10(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "10", "0.99", "1")
        assert code == 0
        g = parse_graph(out)
        assert g.m == 45 and min_degree(g) == 9

    def test_bad_parameters(self, capsys):
        code, _, err = run_cli(capsys, "generate", "1", "0.5", "0")
        assert code == 1 and "error" in err


class TestExact:
    def test_path(self, capsys, tmp_path):
        path = write_graph(tmp_path, path_graph(5))
        code, out, _ = run_cli(capsys, "exact", path)
        assert code == 0
        assert out.splitlines()[0] == "1"

    def test_cycle(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(6))
        code, out, _ = run_cli(capsys, "exact", path)
        assert code == 0 and out.splitlines()[0] == "2"

    def test_complete(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(6))
        code, out, _ = run_cli(capsys, "exact", path)
        assert code == 0 and out.splitlines()[0] == "5"

    def test_witness_verifies(self, capsys, tmp_path):
        gpath = write_graph(tmp_path, cycle_graph(7))
        code, out, _ = run_cli(capsys, "exact", gpath)
        value = out.splitlines()[0]
        layout_path = tmp_path / "lay.txt"
        layout_path.write_text("\n".join(out.splitlines()[1:]) + "\n")
        code, out2, _ = run_cli(capsys, "verify", gpath, str(layout_path))
        assert code == 0 and out2.strip() == value

    def test_cap_exceeded(self, capsys, tmp_path, monkeypatch):
        path = write_graph(tmp_path, path_graph(15))
        code, _, err = run_cli(capsys, "exact", path)
        assert code == 1 and "capped" in err
        monkeypatch.setenv("BANDAPPROX_ORACLE_CAP", "16")
        code, out, _ = run_cli(capsys, "exact", path)
        assert code == 0 and out.splitlines()[0] == "1"
        monkeypatch.setenv("BANDAPPROX_ORACLE_CAP", "10")
        code, _, err = run_cli(capsys, "exact", path)
        assert code == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "exact", str(tmp_path / "nope.txt"))
        assert code == 3

    def test_malformed_graph(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0 0\n")
        code, _, err = run_cli(capsys, "exact", str(path))
        assert code == 1 and "self-loop" in err


class TestApprox:
    def test_complete_graph_alg2(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(8))
        code, out, _ = run_cli(capsys, "approx", path, "--alg", "2", "--seed", "3")
        assert code == 0
        fields = dict(
            line.split(": ") for line in out.split("\n\n")[0].splitlines()
        )
        assert fields["bandwidth"] == "7"
        assert fields["algorithm"] == "alg2"

    def test_layout_file_verifies_at_reported_bandwidth(self, capsys, tmp_path):
        gpath = write_graph(tmp_path, complete_graph(9))
        lpath = tmp_path / "layout.txt"
        code, out, _ = run_cli(
            capsys, "approx", gpath, "--alg", "1", "--seed", "5",
            "--layout-out", str(lpath),
        )
        assert code == 0
        fields = dict(line.split(": ") for line in out.splitlines())
        code, vout, _ = run_cli(capsys, "verify", gpath, str(lpath))
        assert code == 0
        assert vout.strip() == fields["bandwidth"]

    def test_all_algorithms_run(self, capsys, tmp_path):
        gpath = write_graph(tmp_path, complete_graph(8))
        for alg in ("1", "2", "baseline"):
            code, out, _ = run_cli(capsys, "approx", gpath, "--alg", alg, "--seed", "1")
            assert code == 0
            assert f"algorithm: {'alg' + alg if alg != 'baseline' else 'baseline'}" in out

    def test_same_seed_alg1_alg2_same_boxsize(self, capsys, tmp_path):
        import bandapprox.graph as bg

        g = bg.gen_dense_random(12, 0.55, 8)
        gpath = write_graph(tmp_path, g)
        outs = {}
        for alg in ("1", "2"):
            code, out, _ = run_cli(capsys, "approx", gpath, "--alg", alg, "--seed", "9")
            assert code == 0
            outs[alg] = dict(line.split(": ") for line in out.split("\n\n")[0].splitlines())
        assert outs["1"]["boxsize"] == outs["2"]["boxsize"]
        assert outs["1"]["configs"] == outs["2"]["configs"]

    def test_with_exact_reports_ratio(self, capsys, tmp_path):
        gpath = write_graph(tmp_path, complete_graph(7))
        code, out, _ = run_cli(capsys, "approx", gpath, "--with-exact", "--seed", "2")
        assert code == 0
        fields = dict(line.split(": ") for line in out.split("\n\n")[0].splitlines())
        assert fields["exact"] == "6"
        assert float(fields["ratio"]) == 1.0

    def test_deterministic_output(self, capsys, tmp_path):
        import bandapprox.graph as bg

        gpath = write_graph(tmp_path, bg.gen_dense_random(14, 0.5, 4))
        runs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "approx", gpath, "--alg", "2", "--seed", "7")
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]

    def test_timings_flag_adds_lines(self, capsys, tmp_path):
        gpath = write_graph(tmp_path, complete_graph(8))
        code, out, _ = run_cli(capsys, "approx", gpath, "--timings", "--seed", "1")
        assert code == 0 and "time_total_s: " in out

    def test_report_prints_the_run_record(self, capsys, tmp_path, monkeypatch):
        # every report line is one record field, in the record's order,
        # with floats in their documented formats
        formats = {"delta": ".6g", "alpha": ".6g", "c": ".6g", "ratio": ".4f",
                   "time_certify_s": ".6f", "time_bfs_s": ".6f", "time_scan_s": ".6f",
                   "time_total_s": ".6f"}
        records = []
        run_record = cli._run_record

        def recording(*args):
            records.append(run_record(*args))
            return records[-1]

        monkeypatch.setattr(cli, "_run_record", recording)
        gpath = write_graph(tmp_path, cycle_graph(9))
        for alg in ("1", "2", "baseline"):
            code, out, _ = run_cli(
                capsys, "approx", gpath, "--alg", alg, "--with-exact", "--timings",
                "--delta", "0.5",
            )
            assert code == 0
            record = records.pop()
            assert list(record)[-6:-4] == ["exact", "ratio"]
            assert out.split("\n\n")[0].splitlines() == [
                f"{key}: {format(value, formats.get(key, ''))}"
                for key, value in record.items()
            ]

    def test_infeasible_search_exit_code(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_run_algorithm", raise_infeasible)
        gpath = write_graph(tmp_path, complete_graph(8))
        code, _, err = run_cli(capsys, "approx", gpath, "--seed", "1")
        assert code == 2 and "no feasible configuration" in err

    @pytest.mark.parametrize("flag", [
        ["--search", "binary"], ["--verify-monotone"], ["--narrow-range"],
    ])
    def test_removed_search_flags_are_usage_errors(self, capsys, tmp_path, flag):
        gpath = write_graph(tmp_path, complete_graph(6))
        code, _, err = run_cli(capsys, "approx", gpath, *flag)
        assert code == 1 and "unrecognized arguments" in err

    def test_certification_failure_exit_code(self, capsys, tmp_path):
        import bandapprox.graph as bg

        # two far-apart cliques: a 2-root draw often misses one side, and
        # delta override keeps the requested size at 2
        g = bg.make_graph(
            12,
            [(u, v) for u in range(6) for v in range(u + 1, 6)]
            + [(u, v) for u in range(6, 12) for v in range(u + 1, 12)],
        )
        gpath = write_graph(tmp_path, g)
        code, _, err = run_cli(capsys, "approx", gpath, "--seed", "0", "--delta", "0.9")
        # delta=0.9 requests a single root, which cannot dominate two
        # components, so certification fails deterministically
        assert code == 2 and "dominating" in err

    @pytest.mark.parametrize("delta", ["0", "1.5"])
    def test_delta_out_of_range_is_a_usage_error(self, capsys, tmp_path, delta):
        # min degree 10, so the flag, not the graph, is at fault
        gpath = write_graph(tmp_path, complete_graph(11))
        code, _, err = run_cli(capsys, "approx", gpath, "--delta", delta)
        assert code == 1 and "delta must lie strictly between 0 and 1" in err

    def test_usage_error(self, capsys, tmp_path):
        gpath = write_graph(tmp_path, complete_graph(6))
        code, _, _ = run_cli(capsys, "approx", gpath, "--alg", "9")
        assert code == 1


class TestVerify:
    def test_path_identity(self, capsys, tmp_path):
        gpath = write_graph(tmp_path, path_graph(4))
        lpath = tmp_path / "lay.txt"
        lpath.write_text("0 1\n1 2\n2 3\n3 4\n")
        code, out, _ = run_cli(capsys, "verify", gpath, str(lpath))
        assert code == 0 and out.strip() == "1"

    def test_k4(self, capsys, tmp_path):
        gpath = write_graph(tmp_path, complete_graph(4))
        lpath = tmp_path / "lay.txt"
        lpath.write_text("0 2\n1 4\n2 1\n3 3\n")
        code, out, _ = run_cli(capsys, "verify", gpath, str(lpath))
        assert code == 0 and out.strip() == "3"

    def test_missing_vertex(self, capsys, tmp_path):
        gpath = write_graph(tmp_path, path_graph(4))
        lpath = tmp_path / "lay.txt"
        lpath.write_text("0 1\n1 2\n2 3\n")
        code, _, err = run_cli(capsys, "verify", gpath, str(lpath))
        assert code == 1 and "missing" in err


class TestBench:
    def parse_lines(self, text):
        return [json.loads(line) for line in text.splitlines()]

    def test_small_sweep_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--sizes", "10,12", "--seeds", "0,1",
            "--algs", "1,2", "--delta-gen", "0.5", "--exact-max", "12",
        )
        assert code == 0
        runs = self.parse_lines(out)
        assert list(runs[0])[:5] == ["n", "delta_gen", "sweep_seed", "alg", "algorithm"]
        assert len(runs) == 8
        assert [r["n"] for r in runs] == sorted(r["n"] for r in runs)
        for run in runs:
            assert "error" not in run
            assert run["ratio"] == run["bandwidth"] / run["exact"] <= 6.0

    def test_empty_sweep_prints_nothing(self, capsys):
        code, out, _ = run_cli(capsys, "bench")
        assert code == 0 and out == ""

    def test_failed_runs_keep_their_row(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_run_algorithm", raise_infeasible)
        code, out, _ = run_cli(
            capsys, "bench", "--sizes", "6", "--seeds", "0", "--algs", "2",
            "--delta-gen", "0.9",
        )
        assert code == 0
        assert self.parse_lines(out) == [
            {"n": 6, "delta_gen": 0.9, "sweep_seed": 0, "alg": "2", "error": "InfeasibleError"},
        ]

    def test_seed_flag_is_a_usage_error(self, capsys):
        # run seeds come from --seeds; a --seed would be silently ignored
        code, out, err = run_cli(
            capsys, "bench", "--sizes", "8", "--seeds", "0", "--algs", "2", "--seed", "7",
        )
        assert code == 1
        assert out == "" and "--seed" in err

    @pytest.mark.parametrize("delta", ["0", "1.5"])
    def test_delta_out_of_range_is_a_usage_error(self, capsys, delta):
        code, out, err = run_cli(
            capsys, "bench", "--sizes", "12", "--seeds", "0", "--algs", "2", "--delta", delta,
        )
        assert code == 1 and out == ""
        assert "delta must lie strictly between 0 and 1" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "bench.jsonl"
        argv = ["bench", "--sizes", "8", "--seeds", "0", "--algs", "2"]
        code, out, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0 and out == ""
        _, printed, _ = run_cli(capsys, *argv)
        # the lines stdout gets, but for their timings
        untimed = [
            {k: v for k, v in run.items() if not k.startswith("time_")}
            for run in self.parse_lines(path.read_text()) + self.parse_lines(printed)
        ]
        assert len(untimed) == 2 and untimed[0] == untimed[1]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bandapprox.cli", "generate", "2", "0.6", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "2 1\n0 1\n"

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bandapprox.cli", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1

    def test_runs_without_numpy(self, tmp_path):
        # numpy is a test dependency only: with its import failing, the
        # package still imports and generate and approx (alg 2) still run
        graph = str(tmp_path / "g.txt")
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "import bandapprox\n"
            "from bandapprox.cli import main\n"
            f"assert main(['generate', '50', '0.3', '1', '--out', {graph!r}]) == 0\n"
            f"sys.exit(main(['approx', {graph!r}]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "algorithm: alg2" in proc.stdout and "bandwidth: " in proc.stdout
