"""Span tracer for the traced benchmark mode.

`Tracer.install` wraps each listed public function of gtpoly in its
defining module and at every gtpoly import site (``faces.compute_tiling``
gets the same wrapper as ``tiling.compute_tiling``), so calls between
modules are seen as well as calls from the benchmark.  Each call records
a span: function, start, end, parent span and request id.  Spans stay in
memory in flat arrays and are written out once, at exit.

A span's self time is its duration minus the time its direct children
cover; calls run on one thread, so children never overlap.  Nothing in
gtpoly waits on a queue, a lock or another thread, so waiting time is
zero by construction and is not measured.

Counts are taken at the same boundaries (`_COUNTERS`): matrix sizes into
`linalg`, cells tiled, vertices and lattice points returned, and points a
caller asked to have counted.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from functools import update_wrapper
from time import perf_counter

LAYERS = {
    "linalg": ("rank", "kernel_basis", "solve", "determinant", "primitive_integer"),
    "tiling": ("compute_tiling", "tiling_matrix_of"),
    "faces": ("face_dimension", "is_vertex", "face_basis", "nonintegrality_certificate",
              "construct_nonintegral_vertex", "truncate_integral"),
    "core": ("membership", "require_membership", "validate_pattern", "spec_of"),
    "family": ("counterexample", "counterexample_even_n"),
    "oracle": ("enumerate_vertices", "face_dimension_oracle", "polytope_dimension",
               "constraint_system"),
    "combinatorics": ("enumerate_lattice_points", "kostka", "ehrhart_values",
                      "ehrhart_polynomial"),
    "cli": ("main",),
}

# callers of enumerate_lattice_points that only want the number of points
_COUNTING_CALLERS = ("combinatorics.kostka", "combinatorics.ehrhart_values")


def _entries(cols_position: int):
    """Counter of rows x cols for a linalg routine taking (m, ..., cols)."""

    def count(tracer, args, kwargs, result) -> None:
        m = args[0]
        cols = kwargs.get("cols", args[cols_position] if len(args) > cols_position else None)
        if cols is None:
            cols = len(m[0]) if len(m) else 0
        tracer.counters["linalg.entries_in"] += len(m) * cols

    return count


def _count_cells(tracer, args, kwargs, result) -> None:
    n = args[0].n
    tracer.counters["tiling.cells"] += n * (n + 1) // 2


def _count_vertices(tracer, args, kwargs, result) -> None:
    tracer.counters["oracle.vertices_out"] += len(result)


def _count_points(tracer, args, kwargs, result) -> None:
    tracer.counters["combinatorics.points_materialized"] += len(result)
    if tracer.parent_name() not in _COUNTING_CALLERS:
        tracer.counters["combinatorics.points_counted"] += len(result)


def _count_kostka(tracer, args, kwargs, result) -> None:
    tracer.counters["combinatorics.points_counted"] += result


def _count_ehrhart_values(tracer, args, kwargs, result) -> None:
    tracer.counters["combinatorics.points_counted"] += sum(s.count for s in result)


_COUNTERS = {
    "linalg.rank": _entries(1),
    "linalg.kernel_basis": _entries(1),
    "linalg.solve": _entries(2),
    "linalg.determinant": _entries(1),
    "tiling.compute_tiling": _count_cells,
    "oracle.enumerate_vertices": _count_vertices,
    "combinatorics.enumerate_lattice_points": _count_points,
    "combinatorics.kostka": _count_kostka,
    "combinatorics.ehrhart_values": _count_ehrhart_values,
}


class Tracer:
    """In-memory span recorder; off until `enabled` is set."""

    def __init__(self):
        self.names: list[str] = []
        self.func = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self.enabled = False
        self.request_id = -1
        self._stack = [-1]

    def install(self, modules: dict) -> None:
        """Wrap every function of `LAYERS` wherever a gtpoly module holds it.

        `modules` maps module names (``gtpoly``, ``gtpoly.linalg``, ...) to
        the imported modules; every one of them is searched for import sites.
        """
        for layer, functions in LAYERS.items():
            home = modules[f"gtpoly.{layer}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        count = _COUNTERS.get(name)
        stack, func, parent, request = self._stack, self.func, self.parent, self.request
        start, end = self.start, self.end

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            func.append(fid)
            parent.append(stack[-1])
            request.append(self.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return update_wrapper(wrapper, fn)

    def parent_name(self) -> str:
        """Name of the span that is open, from inside a counter hook."""
        top = self._stack[-1]
        return self.names[self.func[top]] if top >= 0 else ""

    def totals(self, speeds: list[float]) -> dict[str, tuple[int, float]]:
        """Calls and summed self time per traced function, each span's self
        time scaled by ``speeds[request]`` (see `calibration`)."""
        n = len(self.start)
        covered = [0.0] * n
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0:
                covered[p] += self.end[idx] - self.start[idx]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for idx in range(n):
            fid = self.func[idx]
            calls[fid] += 1
            own = self.end[idx] - self.start[idx] - covered[idx]
            self_s[fid] += own * speeds[self.request[idx]]
        return {name: (calls[fid], self_s[fid]) for fid, name in enumerate(self.names)}

    def write(self, path) -> None:
        """All spans as gzipped CSV: function, parent span, request, start, end."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as handle:
            handle.write("span,function,parent,request,start_s,end_s\n")
            for idx in range(len(self.start)):
                handle.write(f"{idx},{self.names[self.func[idx]]},{self.parent[idx]},"
                             f"{self.request[idx]},{self.start[idx]!r},{self.end[idx]!r}\n")


def gtpoly_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "gtpoly" or name.startswith("gtpoly.")}
