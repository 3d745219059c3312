"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces the public functions that each polyserend module
calls by module-level name (and three ``SparseMatrix`` methods) with
wrappers that record a span or bump a counter, and puts the originals back
on exit.  No file of the program is edited.  A target that no longer exists
is reported as absent with zero calls, so the benchmark keeps running
across refactors that remove it.

A span is (name, parent, start, end); the benchmark opens one root span
per operation ("op") and one for the one-time set-up ("setup").  Spans are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


def _rows(result):
    return result[0].shape[0]


# (module, attribute path, span name, counter name, counter value from the result).
# A span name of None means "count calls only": matvec runs ~730 times per
# solve, and a span per call would inflate the traced run.
TARGETS = (
    ("polyserend.fem", "convergence_study", "fem.convergence_study", None, None),
    ("polyserend.fem", "trapezoid_mesh", "fem.trapezoid_mesh", None, None),
    ("polyserend.fem", "PolyMesh.build", "fem.mesh_build", None, None),
    ("polyserend.fem", "Polygon", "geometry.Polygon", None, None),
    ("polyserend.fem", "dof_map", "fem.dof_map", None, None),
    ("polyserend.fem", "cell_maps", "fem.cell_maps", None, None),
    ("polyserend.fem", "build_map", "serendipity.build_map", None, None),
    ("polyserend.fem", "assemble", "fem.assemble", None, None),
    ("polyserend.fem", "polygon_rule", "quadrature.rule", "quadrature.points", len),
    ("polyserend.fem", "fan_rule", "quadrature.rule", "quadrature.points", len),
    ("polyserend.fem", "eval_basis_batch", "serendipity.eval_basis_batch", None, None),
    ("polyserend.serendipity", "eval_coords_batch", "barycentric.eval_coords_batch",
     "barycentric.points", _rows),
    ("polyserend.serendipity", "pairwise_batch", "barycentric.pairwise_batch", None, None),
    ("polyserend.fem", "SparseMatrix.from_triplets", "linalg.from_triplets", None, None),
    ("polyserend.fem", "SparseMatrix.submatrix", "linalg.submatrix", None, None),
    ("polyserend.fem", "SparseMatrix.matvec", None, "linalg.matvec.calls", None),
    ("polyserend.fem", "cg_solve", "linalg.cg_solve", "linalg.cg_iterations",
     lambda report: report.iterations),
    ("polyserend.fem", "solve_dirichlet", "fem.solve_dirichlet", None, None),
    ("polyserend.fem", "error_norms", "fem.error_norms", None, None),
)

ROOTS = ("setup", "op")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()      # (root name, counter name) -> total
        self.absent: set[str] = set()

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _exit(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self.stack.pop()

    def _count(self, name: str, amount) -> None:
        root = self.names[self.stack[0]] if self.stack else "none"
        self.counts[root, name] += amount

    @contextmanager
    def span(self, name: str):
        sid = self._enter(name)
        try:
            yield
        finally:
            self._exit(sid)

    def _wrap(self, fn, span, counter, measure):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if span is None:
                self._count(counter, 1)
                return fn(*args, **kwargs)
            sid = self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(sid)
            if counter is not None:
                try:
                    self._count(counter, measure(result))
                except (AttributeError, TypeError, IndexError):
                    self.absent.add(counter)
            return result

        return wrapper

    @contextmanager
    def install(self, targets=TARGETS):
        """Wrap every target that exists; restore the originals on exit."""
        restore = []
        try:
            for module_name, path, span, counter, measure in targets:
                *outer, attr = path.split(".")
                try:
                    owner = importlib.import_module(module_name)
                    for part in outer:
                        owner = getattr(owner, part)
                    raw = inspect.getattr_static(owner, attr)
                except (ModuleNotFoundError, AttributeError):
                    self.absent.add(f"{module_name}.{path}")
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, span, counter, measure))
                else:
                    wrapped = self._wrap(raw, span, counter, measure)
                setattr(owner, attr, wrapped)
                restore.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its child spans cover."""
        children: list[list[int]] = [[] for _ in self.names]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(sid)
        out = []
        for sid, kids in enumerate(children):
            covered = 0.0
            reach = self.starts[sid]
            for k in sorted(kids, key=self.starts.__getitem__):
                lo, hi = max(self.starts[k], reach), min(self.ends[k], self.ends[sid])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(self.ends[sid] - self.starts[sid] - covered)
        return out

    def roots(self) -> list[int]:
        root = []
        for sid, parent in enumerate(self.parents):
            root.append(sid if parent < 0 else root[parent])
        return root

    def root_self_times(self, names) -> dict[int, float]:
        """For each root span: the summed self time of the spans under it named in ``names``."""
        own, root = self.self_times(), self.roots()
        out = {sid: 0.0 for sid, parent in enumerate(self.parents) if parent < 0}
        for sid, name in enumerate(self.names):
            if name in names:
                out[root[sid]] += own[sid]
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per root kind ("setup", "op"): span time, self time and calls by name.

        A span nested in a span of the same name (recursion) adds to calls
        and self time but not again to span time.
        """
        own = self.self_times()
        root = self.roots()
        out: dict[str, dict[str, float]] = {r: Counter() for r in ROOTS}
        for sid, name in enumerate(self.names):
            acc = out.setdefault(self.names[root[sid]], Counter())
            acc[f"{name}.calls"] += 1
            acc[f"{name}.self_s"] += own[sid]
            parent = self.parents[sid]
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                acc[f"{name}.s"] += self.ends[sid] - self.starts[sid]
        for (r, name), value in self.counts.items():
            out.setdefault(r, Counter())[name] += value
        return out

    def dump(self, path: Path, meta: dict) -> None:
        root = self.roots()
        spans = [
            [name, parent, root[sid], self.starts[sid], self.ends[sid]]
            for sid, (name, parent) in enumerate(zip(self.names, self.parents))
        ]
        counts = [[r, name, value] for (r, name), value in sorted(self.counts.items())]
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {**meta, "absent": sorted(self.absent), "counts": counts, "spans": spans}
        path.write_text(json.dumps(record))
