"""The benchmark's three workloads: seeded inputs, one operation, checks.

Each workload is built from a seed and owns its generated inputs; the
program sees only those inputs.  ``setup`` runs the workload's one-time
program calls, ``op(i)`` runs operation ``i`` and returns its result, and
``check(i, result)`` returns a list of problems (empty when correct).

Program calls go through ``polyserend.fem`` attribute lookups at call time,
so the traced run's wrappers (see ``spans.py``) see every call.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.spatial import Voronoi

from polyserend import fem
from polyserend.serendipity import Strategy

DEFAULT_SEED = 0
KINDS = ("meanvalue", "wachspress", "triangulation")
REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def repeated_shapes(polygons) -> int:
    """Number of cells equal to an earlier cell up to translation.

    Two cells match when their vertex offsets from the first vertex agree
    to 1e-9 of the cell size: far above round-off, far below any real
    shape difference.
    """
    shapes: dict[int, list[np.ndarray]] = {}
    repeated = 0
    for verts in polygons:
        offsets = verts - verts[0]
        tol = 1e-9 * float(np.max(np.abs(offsets)))
        known = shapes.setdefault(len(verts), [])
        if known and np.any(np.all(np.abs(np.array(known) - offsets) <= tol, axis=(1, 2))):
            repeated += 1
        else:
            known.append(offsets)
    return repeated


def input_properties(meshes) -> dict[str, float]:
    """Cells, DOFs, repeated-shape and generic-strategy shares, as the program sees them."""
    polys = [mesh.vertices[list(cell)] for mesh in meshes for cell in mesh.cells]
    maps = [smap for mesh in meshes for smap in fem.cell_maps(mesh)]
    generic = sum(smap.strategy is Strategy.GENERIC for smap in maps)
    return {
        "input.cells": len(polys),
        "input.dofs": sum(fem.dof_map(mesh).n_dofs for mesh in meshes),
        "input.repeated_shape_ratio": repeated_shapes(polys) / len(polys),
        "input.generic_cell_ratio": generic / len(maps),
    }


class TrapezoidStudy:
    """The paper's refinement study on congruent-trapezoid meshes, all kinds."""

    name = "trapezoid-study"
    levels = (4, 8, 16)
    # A-priori bounds at the finest level.  A basis whose diagonal
    # coefficients are 1% off gives L2 >= 2.8e-4, H1 >= 4.3e-2 and rates
    # below 1 here; the bounds sit an order of magnitude under that.
    l2_bound, h1_bound = 2.8e-5, 4.3e-3
    l2_rate_floor, h1_rate_floor = 2.7, 1.8

    def __init__(self, seed: int, kinds: tuple[str, ...] = KINDS):
        self.seed = seed
        self.kinds = kinds
        rng = np.random.default_rng(seed)
        self.offset = 0.25 if seed == DEFAULT_SEED else float(rng.uniform(0.1, 0.35))

    def input_bytes(self) -> bytes:
        return np.float64(self.offset).tobytes()

    def setup(self) -> None:
        pass

    def op(self, i: int) -> dict[str, list]:
        return {
            kind: fem.convergence_study(levels=self.levels, kind=kind, offset=self.offset)
            for kind in self.kinds
        }

    def check(self, i: int, result: dict[str, list]) -> list[str]:
        problems = []
        ref = REFERENCE["trapezoid-study"] if self.seed == DEFAULT_SEED else None
        tol = REFERENCE["tolerance"]
        for kind, rows in result.items():
            last = rows[-1]
            if not (last.l2_error <= self.l2_bound and last.h1_error <= self.h1_bound):
                problems.append(
                    f"{kind}: errors {last.l2_error:.3e}/{last.h1_error:.3e} above bounds"
                )
            if not (last.l2_rate >= self.l2_rate_floor and last.h1_rate >= self.h1_rate_floor):
                problems.append(
                    f"{kind}: rates {last.l2_rate:.3f}/{last.h1_rate:.3f} below floors"
                )
            if ref is None:
                continue
            for row, want in zip(rows, ref[kind]):
                if not (
                    _rel(row.l2_error, want["l2"]) <= tol["l2_rtol"]
                    and _rel(row.h1_error, want["h1"]) <= tol["h1_rtol"]
                    and (row.n == self.levels[0] or (
                        abs(row.l2_rate - want["l2_rate"]) <= tol["rate_atol"]
                        and abs(row.h1_rate - want["h1_rate"]) <= tol["rate_atol"]
                    ))
                ):
                    problems.append(f"{kind} n={row.n}: differs from the reference")
        return problems

    def meshes(self) -> list:
        return [fem.trapezoid_mesh(n, self.offset) for n in self.levels]


def voronoi_mesh(seed: int):
    """Clipped Voronoi mesh of the unit square from a jittered hexagonal lattice.

    16 x 16 sites, each moved by up to 15% of the lattice step.  Mirroring
    the sites across the four sides puts the square's sides on Voronoi
    edges, so the cells of the original sites tile the square.  Returns
    (vertices, cells) with counterclockwise cells and no unused vertex.
    """
    nx = ny = 16
    jitter = 0.15
    rng = np.random.default_rng(seed)
    j, i = np.mgrid[0:ny, 0:nx]
    sites = np.stack([(i + 0.25 + 0.5 * (j % 2)).ravel() / nx, (j + 0.5).ravel() / ny], axis=1)
    sites += rng.uniform(-jitter, jitter, sites.shape) / [nx, ny]
    x, y = sites[:, 0], sites[:, 1]
    mirrored = np.vstack([
        sites,
        np.c_[-x, y], np.c_[2.0 - x, y], np.c_[x, -y], np.c_[x, 2.0 - y],
    ])
    vor = Voronoi(mirrored)
    corners = vor.vertices.copy()
    for side in (0.0, 1.0):
        corners[np.abs(corners - side) < 1e-12] = side
    index: dict[int, int] = {}
    cells = []
    for s in range(len(sites)):
        region = vor.regions[vor.point_region[s]]
        angle = np.arctan2(*(corners[region] - sites[s]).T[::-1])
        cells.append([index.setdefault(region[k], len(index)) for k in np.argsort(angle)])
    vertices = np.empty((len(index), 2))
    for v, k in index.items():
        vertices[k] = corners[v]
    return vertices, cells


class VoronoiPoisson:
    """One harmonic Dirichlet solve with Wachspress coordinates on a Voronoi mesh."""

    name = "voronoi-poisson"
    kind = "wachspress"
    # A basis whose diagonal coefficients are 1% off gives L2 2.6e-4 and
    # H1 4.9e-2 on this mesh; the bounds sit an order of magnitude under that.
    l2_bound, h1_bound = 2.5e-5, 4.8e-3

    def __init__(self, seed: int):
        self.seed = seed
        self.vertices, self.cells = voronoi_mesh(seed)

    def input_bytes(self) -> bytes:
        return self.vertices.tobytes() + json.dumps(self.cells).encode()

    def setup(self) -> None:
        pass

    def op(self, i: int) -> fem.ErrorNorms:
        mesh = fem.PolyMesh.build(self.vertices, self.cells)
        dofmap = fem.dof_map(mesh)
        maps = fem.cell_maps(mesh)
        matrix, rhs = fem.assemble(mesh, self.kind, maps=maps, dofmap=dofmap)
        sol = fem.solve_dirichlet(
            matrix, rhs, mesh, dofmap, self.kind, fem.harmonic_exact, maps=maps
        )
        return fem.error_norms(sol, fem.harmonic_exact, fem.harmonic_gradient)

    def check(self, i: int, result: fem.ErrorNorms) -> list[str]:
        problems = []
        if not (result.l2 <= self.l2_bound and result.h1 <= self.h1_bound):
            problems.append(f"errors {result.l2:.3e}/{result.h1:.3e} above bounds")
        if self.seed == DEFAULT_SEED:
            want = REFERENCE["voronoi-poisson"]
            tol = REFERENCE["tolerance"]
            if not (
                _rel(result.l2, want["l2"]) <= tol["l2_rtol"]
                and _rel(result.h1, want["h1"]) <= tol["h1_rtol"]
            ):
                problems.append("errors differ from the reference")
        return problems

    def meshes(self) -> list:
        return [fem.PolyMesh.build(self.vertices, self.cells)]


class DirichletSweep:
    """Repeated solves on one assembled trapezoid_mesh(64) with fresh boundary data.

    The data are quadratic harmonic polynomials, which the element
    reproduces exactly, so the discrete solution must match them at every
    node up to the solver tolerance.
    """

    name = "dirichlet-sweep"
    kind = "triangulation"
    n = 64
    nodal_rtol = 1e-8

    def __init__(self, seed: int):
        self.seed = seed

    def coefficients(self, i: int) -> np.ndarray:
        return np.random.default_rng([self.seed, i]).uniform(-1.0, 1.0, 5)

    def input_bytes(self) -> bytes:
        return b"".join(self.coefficients(i).tobytes() for i in range(8))

    def boundary_data(self, i: int):
        a, b, c, d, e = self.coefficients(i)
        return lambda p: (
            a * (p[:, 0] ** 2 - p[:, 1] ** 2) + b * p[:, 0] * p[:, 1]
            + c * p[:, 0] + d * p[:, 1] + e
        )

    def setup(self) -> None:
        self.mesh = fem.trapezoid_mesh(self.n)
        self.dofmap = fem.dof_map(self.mesh)
        self.maps = fem.cell_maps(self.mesh)
        self.matrix, self.rhs = fem.assemble(
            self.mesh, self.kind, maps=self.maps, dofmap=self.dofmap
        )
        edges = np.array(self.dofmap.edges)
        v = self.mesh.vertices
        self.nodes = np.vstack([v, 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])])

    def op(self, i: int) -> np.ndarray:
        sol = fem.solve_dirichlet(
            self.matrix, self.rhs, self.mesh, self.dofmap, self.kind,
            self.boundary_data(i), maps=self.maps,
        )
        return sol.values

    def check(self, i: int, result: np.ndarray) -> list[str]:
        exact = self.boundary_data(i)(self.nodes)
        err = float(np.max(np.abs(result - exact)))
        if not err <= self.nodal_rtol * float(np.max(np.abs(exact))):
            return [f"nodal error {err:.3e} exceeds reproduction tolerance"]
        return []

    def meshes(self) -> list:
        return [self.mesh]


WORKLOADS = {w.name: w for w in (TrapezoidStudy, VoronoiPoisson, DirichletSweep)}
