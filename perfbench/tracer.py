"""Spans around the library's public functions, installed from outside.

The tracer rebinds module attributes, so it sees every call that goes
through a module's namespace.  ``search.py`` binds its callees with
``from .x import y``, so those names are wrapped in ``bandapprox.search``;
the functions other modules call internally are wrapped where they are
looked up.  Nothing under ``src/`` changes.

Each span is stored as one row ``(id, parent, name, call, start, end)``
appended in a single step, so a per-call alarm that interrupts the program
can lose at most the span it interrupts, never half a row.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from bandapprox import boxes, domset, flow, graph, oracle, search

ROW = 6  # span id, parent id, name index, call id, start, end


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.rows = array("d")
        self.stack: list[int] = []
        self.next_id = 1
        self.calls = 0  # library calls opened so far
        self.call_id = 0  # the open call, 0 between calls
        self.counts: dict[int, Counter[str]] = {}  # per call id
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self) -> tuple[int, int]:
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else 0
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, idx: int, t0: float) -> None:
        t1 = perf_counter()
        if self.stack and self.stack[-1] == sid:
            self.stack.pop()
        self.rows.extend((sid, parent, idx, self.call_id, t0, t1))

    def count(self, name: str, value: int = 1) -> None:
        self.counts.setdefault(self.call_id, Counter())[name] += value

    def call_counts(self, ids: list[int]) -> tuple[Counter[str], int]:
        """The counters summed over the calls ``ids``, and the largest flow
        network any of them built."""
        per_call = [self.counts.get(i, Counter()) for i in ids]
        total = sum(per_call, Counter())
        return total, max((c["flow.nodes"] for c in per_call), default=0)

    def begin_call(self, name: str) -> tuple[int, int, int]:
        """Open the root span of one library call made by the benchmark."""
        self.calls += 1
        self.call_id = self.calls
        self.stack.clear()  # an interrupted call may have left spans open
        sid, parent = self._open()
        return sid, parent, self._name(name)

    def end_call(self, token: tuple[int, int, int], t0: float) -> None:
        sid, parent, idx = token
        self._close(sid, parent, idx, t0)
        self.stack.clear()
        self.call_id = 0

    def span(self, name: str, fn, on_result=None):
        idx = self._name(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, idx, t0)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def span_each_next(self, name: str, fn):
        """Wrap a generator function so every ``next()`` is its own span."""
        idx = self._name(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid, parent = self._open()
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(sid, parent, idx, t0)
                self.count("boxes.placements")
                yield item

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        def certified(args, rs):
            self.count("domset.certify_attempts", rs.attempts or 0)
            self.count("domset.roots", len(rs.roots))

        def counted(args, counts):
            if counts is None:
                self.count("flow.empty_configs")

        def flow_instance(args, inst):
            c = self.counts.setdefault(self.call_id, Counter())
            c["flow.nodes"] = max(c["flow.nodes"], inst.node_count)

        def aux(args, a):
            self.count("matching.aux_edges", sum(map(len, a.adj)))

        def matched(args, m):
            self.count("matching.perfect", m.is_perfect(args[0].n))

        wrap = self.span
        # bandapprox.search binds these names at import time
        plan = {
            (search, "run_search"): ("search.scan", None),
            (search, "sample_certified"): ("domset.certify", certified),
            (search, "root_distances"): ("boxes.root_distances", None),
            (search, "make_box_config"): ("boxes.box_config", None),
            (search, "build_intervals"): ("boxes.build_intervals", None),
            (search, "update_intervals"): ("boxes.update_intervals", None),
            (search, "count_intervals"): ("flow.count_intervals", counted),
            (search, "build_flow_instance"): ("flow.build_instance", flow_instance),
            (search, "max_flow"): ("flow.max_flow", None),
            (search, "flow_to_layout"): ("flow.to_layout", None),
            (search, "build_auxiliary"): ("matching.build_aux", aux),
            (search, "max_matching"): ("matching.max_matching", matched),
            (search, "normalize_matching"): ("matching.normalize", None),
            (search, "matching_to_layout"): ("matching.to_layout", None),
            # looked up inside their own modules
            (domset, "bfs_from_set"): ("graph.bfs", None),
            (boxes, "bfs_from_set"): ("graph.bfs", None),
            (flow, "count_intervals"): ("flow.count_intervals", None),
            (flow, "build_flow_instance"): ("flow.build_instance", None),
            # called by the benchmark itself
            (graph, "parse_graph"): ("graph.parse", None),
            (graph, "gen_dense_random"): ("graph.gen", None),
            (graph, "make_graph"): ("graph.gen", None),
            (oracle, "exact_bandwidth"): ("oracle.exact", None),
        }
        for (module, attr), (name, on_result) in plan.items():
            self._patch(module, attr, wrap(name, getattr(module, attr), on_result))
        self._patch(
            search,
            "enumerate_placements",
            self.span_each_next("boxes.enumerate", search.enumerate_placements),
        )

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def mark(self) -> int:
        """Row offset of the next span, to slice one phase of the run."""
        return len(self.rows) // ROW

    def table(self, start: int = 0) -> np.ndarray:
        return np.frombuffer(self.rows, dtype=np.float64).reshape(-1, ROW)[start:].copy()

    def self_times(self, spans: np.ndarray) -> np.ndarray:
        """Span duration minus the part of it its child spans cover."""
        dur = spans[:, 5] - spans[:, 4]
        ids = spans[:, 0].astype(np.int64)
        parents = spans[:, 1].astype(np.int64)
        child = np.bincount(parents, weights=dur, minlength=self.next_id + 1)
        return dur - child[ids]

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            columns=np.array(["id", "parent", "name", "call", "start_s", "end_s"]),
            spans=self.table(),
            names=np.array(self.names),
        )
