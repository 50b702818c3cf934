"""The package root's user API, the shared ``max_tries`` default, the
benchmark tracer's bindings into the library's modules and its callbacks on
what they return, and the library's imports, each one used."""

from __future__ import annotations

import ast
import importlib.util
import inspect
from pathlib import Path
from time import perf_counter

import pytest

import bandapprox
from bandapprox import boxes, cli, domset, flow, graph, matching, oracle, search

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
SRC = Path(bandapprox.__file__).resolve().parent

# imported but never called: perfbench/tracer.py wraps these names in these
# modules, so they stay bound until the benchmark stops wrapping them
TRACER_ONLY = {
    "search": {"build_intervals", "enumerate_placements", "root_distances", "update_intervals"},
    "domset": {"bfs_from_set"},
}

USER_API = {
    # the pipelines and the exact oracle
    "approx_bandwidth_alg1", "approx_bandwidth_alg2", "approx_bandwidth_baseline",
    "exact_bandwidth",
    # graph and layout I/O
    "Graph", "make_graph", "parse_graph", "serialize_graph", "gen_dense_random",
    "density", "min_degree", "Layout", "layout_bandwidth", "format_layout",
    "parse_layout", "degree_lower_bound", "DEFAULT_ORACLE_CAP",
    # parameters and statistics
    "SamplingParams", "SearchStats",
    # errors
    "CertificationError", "GraphParseError", "InfeasibleError", "OracleCapError",
}


class TestPackageRoot:
    def test_all_is_the_user_api(self):
        assert len(bandapprox.__all__) == len(USER_API) == 23
        assert set(bandapprox.__all__) == USER_API

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from bandapprox import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(bandapprox.__all__)
        for name in bandapprox.__all__:
            assert namespace[name] is getattr(bandapprox, name)


class TestMaxTriesDefault:
    @pytest.mark.parametrize("fn", [
        search.run_search, flow.approx_bandwidth_alg2, matching.approx_bandwidth_alg1,
        matching.approx_bandwidth_baseline, domset.sample_certified,
    ])
    def test_library_defaults(self, fn):
        assert inspect.signature(fn).parameters["max_tries"].default == domset.DEFAULT_MAX_TRIES

    @pytest.mark.parametrize("command", [["approx", "g.txt"], ["bench"]])
    def test_cli_default(self, command):
        args = cli.build_parser().parse_args(command)
        assert args.max_tries == domset.DEFAULT_MAX_TRIES


class TestTracerBindings:
    """``perfbench/tracer.py`` wraps library names by module attribute, so
    deleting or renaming a name it binds breaks the benchmark.  Load it
    read-only, install it and take it off again."""

    def load_tracer(self):
        pytest.importorskip("numpy")
        spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.Tracer()

    def test_install_then_uninstall_restores_every_attribute(self):
        modules = (boxes, domset, flow, graph, oracle, search)
        before = [dict(vars(m)) for m in modules]
        tracer = self.load_tracer()
        tracer.install()
        try:
            patched = list(tracer._saved)
            assert patched
            for module, attr, original in patched:
                assert getattr(module, attr) is not original
                assert getattr(module, attr).__wrapped__ is original
        finally:
            tracer.uninstall()
        for module, attr, original in patched:
            assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
        assert [dict(vars(m)) for m in modules] == before

    def test_callbacks_read_what_the_pipelines_return(self):
        # the callbacks read the back ends' return values, so a changed
        # return type fails here, not only in a traced benchmark run
        tracer = self.load_tracer()
        g = graph.gen_dense_random(12, 0.5, 0)
        tracer.install()
        try:
            for run in (matching.approx_bandwidth_alg1, flow.approx_bandwidth_alg2,
                        matching.approx_bandwidth_baseline):
                token = tracer.begin_call(run.__name__)
                t0 = perf_counter()
                run(g, seed=0)
                tracer.end_call(token, t0)
        finally:
            tracer.uninstall()
        spans = {tracer.names[int(row[2])] for row in tracer.table()}
        assert {
            "flow.count_intervals", "flow.build_instance", "flow.max_flow", "flow.to_layout",
            "matching.build_aux", "matching.max_matching", "matching.normalize",
            "matching.to_layout",
        } <= spans
        counts, nodes_max = tracer.call_counts([1, 2, 3])
        assert nodes_max > 0 and counts["flow.nodes"] == nodes_max
        assert counts["matching.aux_edges"] > 0
        assert counts["matching.perfect"] == 2
        assert counts["domset.roots"] > 0


def unused_imports(source: str) -> set[str]:
    """Names a module imports but never reads, by its syntax tree alone;
    a name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


class TestImports:
    @pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
    def test_every_import_is_used(self, path):
        assert unused_imports(path.read_text(encoding="utf-8")) == TRACER_ONLY.get(path.stem, set())

    def test_tracer_still_binds_each_exception(self):
        text = TRACER.read_text(encoding="utf-8")
        for names in TRACER_ONLY.values():
            for name in names:
                assert f'"{name}"' in text, name

    def test_unused_import_is_caught(self):
        assert unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == {"os", "c"}
