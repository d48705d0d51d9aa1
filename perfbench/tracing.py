"""Spans around calls into qme's layers, recorded from the benchmark's files.

``Tracer.install`` replaces the names the calling modules look up (modules
bind imported names, so the caller's copy is patched) with wrappers that
record a span per call: name, start, end, parent and thread. Spans opened on
``count_grid``'s pool threads get the submitting span as parent through a
patched ``ThreadPoolExecutor``. Spans stay in memory until ``dump``.

``layer_metrics`` turns a span list into the per-layer metrics; it needs no
qme import, so the parent process uses it too.
"""
from __future__ import annotations

import concurrent.futures
import functools
import itertools
import json
import threading
import time

SOLVERS = ("greedy_cover", "greedy_separated", "exact_cover", "exact_separated")
QUANTITIES = ("r1", "s1", "r2", "s2")

# per-layer metrics that must repeat exactly between runs of the same inputs
COUNTERS = (
    "quasimetric.pairwise.calls", "quasimetric.pairwise.entries",
    "dynamics.snap_entries", "covering.bowen_matrix.calls", "covering.cells",
    "covering.exact_cell_share", "covering.greedy_cover.calls",
    "covering.greedy_separated.calls", "covering.exact_cover.nodes",
    "covering.exact_separated.nodes", "cli.bytes_written",
)


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: id, name, parent, t0, t1, thread, plus counters
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        """Run fn inside a span; count(result) may return counters to attach."""
        stack = self._stack()
        span = {"id": next(self._ids), "name": name,
                "parent": stack[-1] if stack else getattr(self._local, "root", None),
                "thread": threading.get_ident()}
        stack.append(span["id"])
        span["t0"] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span["t1"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if count is not None:
            span.update(count(result))
        return result

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced

    def _pool_class(self):
        tracer = self

        class TracingPool(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run():
                    tracer._local.root = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.root = None
                return super().submit(run)
        return TracingPool

    def install(self) -> None:
        """Patch the callers' copies of every traced name."""
        import qme.cli
        import qme.covering
        import qme.dynamics
        import qme.entropy

        def shape_entries(result):
            return {"entries": int(result.shape[0]) * int(result.shape[1])}

        def bnb_nodes(result):
            return {"nodes": int(result[1])}

        def grid_cells(grid):
            solved = exact = cells = 0
            for cell in grid.cells.values():
                for q in QUANTITIES:
                    res = cell.get(q)
                    if res is not None:
                        solved += 1
                        exact += bool(res.optimal)
                cells += len(grid.variants)
            return {"cells": cells, "quantities": solved, "exact": exact}

        patches = [
            (qme.covering, "pairwise", "quasimetric.pairwise", shape_entries),
            (qme.dynamics, "pairwise", "dynamics.snap_pairwise", shape_entries),
            (qme.covering, "greedy_cover", "covering.greedy_cover", None),
            (qme.covering, "greedy_separated", "covering.greedy_separated", None),
            (qme.covering, "exact_cover", "covering.exact_cover", bnb_nodes),
            (qme.covering, "exact_separated", "covering.exact_separated", bnb_nodes),
            (qme.entropy, "count_grid", "covering.count_grid", grid_cells),
            (qme.entropy, "build_orbits", "dynamics.build_orbits", None),
            (qme.entropy, "bowen_matrix", "covering.bowen_matrix", None),
            (qme.entropy, "estimate_from_grid", "entropy.estimate_from_grid", None),
            (qme.cli, "count_grid", "covering.count_grid", grid_cells),
            (qme.cli, "build_orbits", "dynamics.build_orbits", None),
            (qme.cli, "estimate_from_grid", "entropy.estimate_from_grid", None),
            (qme.cli, "compare_theorems", "entropy.compare_theorems", None),
            (qme.cli, "power_rule_check", "entropy.power_rule_check", None),
            (qme.cli, "load_config", "config.load_config", None),
        ]
        patches += [(qme.cli, name, f"cli.{name}", None)
                    for name in vars(qme.cli) if name.startswith("cmd_")]
        for module, attr, span_name, count in patches:
            setattr(module, attr, self.wrap(span_name, getattr(module, attr), count))
        qme.covering.ThreadPoolExecutor = self._pool_class()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def self_times(spans: list) -> dict:
    """span id -> duration minus the part of it that its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return {s["id"]: (s["t1"] - s["t0"])
            - _union_length(children.get(s["id"], ())) for s in spans}


def layer_metrics(spans: list, bytes_written: int) -> dict:
    """Per-layer metrics (name -> value) from the spans of one traced child."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def spans_named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key=None):
        return sum((s[key] if key else s["t1"] - s["t0"]) for s in spans_named(name))

    def self_total(prefix):
        return sum(selfs[s["id"]] for s in spans if s["name"].startswith(prefix))

    solver_names = {f"covering.{n}" for n in SOLVERS}
    top_solvers = [s for s in spans if s["name"] in solver_names
                   and by_id.get(s["parent"], {}).get("name") not in solver_names]
    solve_wall = _union_length((s["t0"], s["t1"]) for s in top_solvers)
    grids = spans_named("covering.count_grid")
    quantities = sum(s["quantities"] for s in grids)
    commands = spans_named("cli.main")

    # quasimetric.pairwise counts the calls from covering and from snapping
    m = {
        "quasimetric.pairwise.s": total("quasimetric.pairwise")
        + total("dynamics.snap_pairwise"),
        "quasimetric.pairwise.calls": len(spans_named("quasimetric.pairwise"))
        + len(spans_named("dynamics.snap_pairwise")),
        "quasimetric.pairwise.entries": total("quasimetric.pairwise", "entries")
        + total("dynamics.snap_pairwise", "entries"),
        "dynamics.build_orbits.s": total("dynamics.build_orbits"),
        "dynamics.snap_pairwise.s": total("dynamics.snap_pairwise"),
        "dynamics.snap_entries": total("dynamics.snap_pairwise", "entries"),
        "covering.count_grid.s": total("covering.count_grid"),
        "covering.count_grid.self_s": self_total("covering.count_grid"),
        "covering.bowen_matrix.s": total("covering.bowen_matrix"),
        "covering.bowen_matrix.calls": len(spans_named("covering.bowen_matrix")),
        "covering.cells": sum(s["cells"] for s in grids),
        "covering.exact_cell_share": (sum(s["exact"] for s in grids) / quantities
                                      if quantities else 0.0),
        "covering.solver_parallelism": (sum(s["t1"] - s["t0"] for s in top_solvers)
                                        / solve_wall if solve_wall else 0.0),
        "entropy.estimate_from_grid.s": total("entropy.estimate_from_grid"),
        "entropy.compare_theorems.self_s": self_total("entropy.compare_theorems"),
        "entropy.power_rule_check.self_s": self_total("entropy.power_rule_check"),
        "config.load_config.s": total("config.load_config"),
        "cli.self_s": self_total("cli."),
        "cli.bytes_written": bytes_written,
        "trace.command_s": sum(s["t1"] - s["t0"] for s in commands),
        # everything under the command spans; the set-up config loads are top level
        "trace.self_sum_s": sum(selfs[s["id"]] for s in spans
                                if s["parent"] is not None or s["name"] == "cli.main"),
    }
    for name in SOLVERS:
        m[f"covering.{name}.s"] = total(f"covering.{name}")
        if name.startswith("greedy"):
            m[f"covering.{name}.calls"] = len(spans_named(f"covering.{name}"))
        else:
            m[f"covering.{name}.nodes"] = total(f"covering.{name}", "nodes")
    return m


def top_self_layers(spans: list, limit: int = 5) -> list:
    """(span name, summed self seconds), largest first."""
    selfs = self_times(spans)
    acc = {}
    for s in spans:
        acc[s["name"]] = acc.get(s["name"], 0.0) + selfs[s["id"]]
    return sorted(acc.items(), key=lambda kv: -kv[1])[:limit]
