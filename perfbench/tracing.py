"""Spans around the program's public functions, recorded from outside it.

``Recorder.install`` replaces each traced function with a timing wrapper in
every loaded ``dgbp`` module that holds it.  The modules import each other's
functions with ``from ... import``, so a wrapper must sit at the name the
caller looks up (``dgbp.solver.extend_positions``, ``dgbp.cli.solve``, ...),
not only in the defining module.  Spans (name, start, end, parent) stay in
memory until ``dump``; ``aggregate`` and ``layer_metrics`` turn the dumps of
one pass into per-layer figures, with self time = span minus its children.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

# (span name, defining module, function)
TRACED = (
    ("geometry.extend_positions", "dgbp.geometry", "extend_positions"),
    ("geometry.hyperplane_through", "dgbp.geometry", "hyperplane_through"),
    ("geometry.reflect", "dgbp.geometry", "reflect"),
    ("instance.parse_instance", "dgbp.instance", "parse_instance"),
    ("instance.validate", "dgbp.instance", "validate"),
    ("instance.edge_violations", "dgbp.instance", "edge_violations"),
    ("solver.solve", "dgbp.solver", "solve"),
    ("solver.serialize_result", "dgbp.solver", "serialize_result"),
    ("solver.parse_result", "dgbp.solver", "parse_result"),
    ("solver.brute_force", "dgbp.solver", "brute_force"),
    ("solver.recompute_code", "dgbp.solver", "recompute_code"),
    ("symmetry.verify_orbit", "dgbp.symmetry", "verify_orbit"),
    ("symmetry.branch_levels", "dgbp.symmetry", "branch_levels"),
    ("symmetry.partial_reflection", "dgbp.symmetry", "partial_reflection"),
    ("symmetry.distance_spectrum", "dgbp.symmetry", "distance_spectrum"),
    ("symmetry.serialize_report", "dgbp.symmetry", "serialize_report"),
    ("cli.write_output", "dgbp.cli", "write_output"),
)


def _solve_counts(args, result):
    stats = result.stats
    return {"nodes_feasible": stats.nodes_feasible,
            "nodes_infeasible": stats.nodes_infeasible,
            "candidates_pruned": stats.candidates_pruned}


def _brute_force_counts(args, result):
    inst = args[0]
    return {"brute_force_sequences": 2 ** (inst.n - inst.dimension)}


def _deterministic_size(path: str) -> int:
    """Size of a written output file without its wall-time trailer line."""
    with open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        fh.seek(max(0, size - 256))
        tail = fh.read()
    last = tail.rstrip(b"\n").rfind(b"\n") + 1
    return size - (len(tail) - last) if tail[last:].startswith(b"# wall_time_s:") else size


# Exact work counts read off a traced call's arguments and result.
HOOKS = {
    "solver.solve": _solve_counts,
    "solver.serialize_result": lambda args, result: {"result_bytes": len(result)},
    "solver.brute_force": _brute_force_counts,
    "symmetry.verify_orbit": lambda args, result: {
        "reflection_checks": len(result.reflection_checks)},
    "cli.write_output": lambda args, result: {"bytes_written": _deterministic_size(args[0])},
}


COUNTERS = ("nodes_feasible", "nodes_infeasible", "candidates_pruned", "result_bytes",
            "brute_force_sequences", "reflection_checks", "bytes_written")


class Recorder:
    """In-memory span list for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name index, start, end, parent span index or -1]
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _begin(self, name_idx: int) -> int:
        idx = len(self.spans)
        self.spans.append([name_idx, time.perf_counter(), None, self.stack[-1]])
        self.stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(self._name_index(name))
        try:
            yield
        finally:
            self._end(idx)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        name_idx = self._name_index(name)
        begin, end, counters = self._begin, self._end, self.counters

        def traced(*args, **kwargs):
            idx = begin(name_idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if hook is not None:
                for key, value in hook(args, result).items():
                    counters[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every traced function for its wrapper wherever it is bound."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dgbp" or key.startswith("dgbp."))]
        for name, module, attr in TRACED:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:  # the program no longer has this function
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters, **extra}, fh)


def aggregate(dumps) -> dict:
    """Per span name: [calls, total seconds, self seconds]; plus the counters
    and the geometry time spent directly under ``solver.solve``."""
    table: dict = {}
    counters = dict.fromkeys(COUNTERS, 0)
    geometry_in_solve = 0.0
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        child_time = [0.0] * len(spans)
        for name_idx, start, end, parent in spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
                if (names[spans[parent][0]] == "solver.solve"
                        and names[name_idx].startswith("geometry.")):
                    geometry_in_solve += end - start
        for i, (name_idx, start, end, _) in enumerate(spans):
            if end is None:
                continue
            row = table.setdefault(names[name_idx], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
        for key in COUNTERS:
            counters[key] += dump["counters"].get(key, 0)
    return {"spans": table, "counters": counters, "geometry_in_solve": geometry_in_solve}


#: Per-layer metrics that are exact counts; they must repeat run to run.
COUNT_METRICS = (
    "geometry.extend_positions_calls", "geometry.hyperplane_through_calls",
    "geometry.reflect_calls", "solver.nodes_created", "solver.nodes_feasible",
    "solver.candidates_pruned", "solver.result_bytes", "solver.brute_force_sequences",
    "symmetry.partial_reflection_calls", "symmetry.reflection_checks",
    "instance.edge_violations_calls", "cli.bytes_written",
)


def _unit(name: str) -> str:
    if name in COUNT_METRICS:
        return "count" if "bytes" not in name else "bytes"
    if name.endswith("_us") or name == "solver.us_per_node":
        return "us"
    if name == "solver.nodes_per_s":
        return "1/s"
    return "s" if name.endswith("_s") else "ratio"


def layer_metrics(agg: dict, import_times) -> dict:
    """Per-layer figures for one pass (every input of the workload once).

    Times are pass totals in seconds, except ``*_us`` (microseconds per call)
    and ``cli.import_s`` (median per process).  A layer the workload does not
    call reads 0.
    """
    spans, c = agg["spans"], agg["counters"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def per_call_us(name):
        return total(name) / calls(name) * 1e6 if calls(name) else 0.0

    solve_s = total("solver.solve")
    created = c["nodes_feasible"] + c["nodes_infeasible"]
    return {
        "geometry.extend_positions_calls": calls("geometry.extend_positions"),
        "geometry.extend_positions_us": per_call_us("geometry.extend_positions"),
        "geometry.hyperplane_through_calls": calls("geometry.hyperplane_through"),
        "geometry.hyperplane_through_us": per_call_us("geometry.hyperplane_through"),
        "geometry.share_of_solve": agg["geometry_in_solve"] / solve_s if solve_s else 0.0,
        "geometry.reflect_calls": calls("geometry.reflect"),
        "geometry.reflect_us": per_call_us("geometry.reflect"),
        "solver.nodes_created": created,
        "solver.nodes_feasible": c["nodes_feasible"],
        "solver.candidates_pruned": c["candidates_pruned"],
        "solver.feasible_ratio": c["nodes_feasible"] / created if created else 0.0,
        "solver.nodes_per_s": created / solve_s if solve_s else 0.0,
        "solver.us_per_node": solve_s / created * 1e6 if created else 0.0,
        "solver.search_self_s": spans.get("solver.solve", [0, 0.0, 0.0])[2],
        "solver.serialize_result_s": total("solver.serialize_result"),
        "solver.result_bytes": c["result_bytes"],
        "solver.parse_result_s": total("solver.parse_result"),
        "solver.brute_force_s": total("solver.brute_force"),
        "solver.brute_force_sequences": c["brute_force_sequences"],
        "solver.recompute_code_s": total("solver.recompute_code"),
        "symmetry.verify_orbit_s": total("symmetry.verify_orbit"),
        "symmetry.branch_levels_s": total("symmetry.branch_levels"),
        "symmetry.partial_reflection_calls": calls("symmetry.partial_reflection"),
        "symmetry.partial_reflection_s": total("symmetry.partial_reflection"),
        "symmetry.reflection_checks": c["reflection_checks"],
        "symmetry.distance_spectrum_s": total("symmetry.distance_spectrum"),
        "symmetry.serialize_report_s": total("symmetry.serialize_report"),
        "instance.parse_instance_s": total("instance.parse_instance"),
        "instance.validate_s": total("instance.validate"),
        "instance.edge_violations_calls": calls("instance.edge_violations"),
        "instance.edge_violations_s": total("instance.edge_violations"),
        "cli.import_s": statistics.median(import_times) if import_times else 0.0,
        "cli.write_output_s": total("cli.write_output"),
        "cli.bytes_written": c["bytes_written"],
    }


#: Every per-layer metric with its unit, in report order.
UNITS = {name: _unit(name)
         for name in [*layer_metrics(aggregate([]), []), "trace_overhead_frac"]}
