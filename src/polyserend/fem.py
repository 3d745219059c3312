"""Conforming quadratic finite elements on convex polygonal meshes.

Degrees of freedom sit at mesh vertices and edge midpoints.  Every cell
carries the 2n-function serendipity basis built from its own generalized
barycentric coordinates; because each basis function restricted to an edge
is the univariate quadratic Lagrange polynomial of its three edge nodes,
matching nodes across cells give a globally continuous space regardless of
the coordinate kind or cell shapes.

The flagship problem is the Poisson equation with Dirichlet data, assembled
cell by cell with centroid-fan quadrature and solved with preconditioned
conjugate gradients after symmetric elimination of boundary values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .barycentric import CoordinateKind, fan_apex
from .geometry import GeometryError, Polygon
from .linalg import SolveReport, SparseMatrix, cg_solve
from .quadrature import QuadratureRule, fan_rule, polygon_rule
from .serendipity import SerendipityMap, build_map, eval_basis_batch

__all__ = [
    "MeshError",
    "PolyMesh",
    "trapezoid_mesh",
    "DofMap",
    "dof_map",
    "node_coordinates",
    "cell_maps",
    "assemble",
    "DiscreteSolution",
    "solve_dirichlet",
    "ErrorNorms",
    "error_norms",
    "ConvergenceRow",
    "convergence_study",
    "harmonic_exact",
    "harmonic_gradient",
    "mesh_from_json",
    "mesh_to_json",
    "load_mesh",
    "save_mesh",
]


class MeshError(GeometryError):
    """Mesh is malformed or non-conforming."""


@dataclass(frozen=True, eq=False)
class PolyMesh:
    """Conforming mesh of convex polygonal cells.

    ``cells`` lists each cell's vertex indices in counterclockwise order.
    Cells may have collinear (flat) vertices, which is how a quadrilateral
    neighbors a polygon along a subdivided side.
    """

    vertices: np.ndarray                      # (N, 2)
    cells: tuple[tuple[int, ...], ...]
    polygons: tuple[Polygon, ...] = field(repr=False)

    @classmethod
    def build(cls, vertices: np.ndarray, cells: Sequence[Sequence[int]]) -> "PolyMesh":
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise MeshError(f"vertices must have shape (N, 2), got {verts.shape}")
        if not np.all(np.isfinite(verts)):
            raise MeshError("vertices contain non-finite values")
        n_verts = len(verts)
        cell_tuples: list[tuple[int, ...]] = []
        polygons: list[Polygon] = []
        directed: set[tuple[int, int]] = set()
        undirected: dict[tuple[int, int], int] = {}
        for ci, cell in enumerate(cells):
            idx = tuple(int(i) for i in cell)
            if len(set(idx)) != len(idx):
                raise MeshError(f"cell {ci} repeats a vertex")
            if any(i < 0 or i >= n_verts for i in idx):
                raise MeshError(f"cell {ci} references a vertex out of range")
            try:
                poly = Polygon(verts[list(idx)], allow_flat=True)
            except GeometryError as exc:
                raise MeshError(f"cell {ci} is not a valid convex polygon: {exc}") from exc
            for k in range(len(idx)):
                e = (idx[k], idx[(k + 1) % len(idx)])
                if e in directed:
                    raise MeshError(
                        f"directed edge {e} appears twice; cells overlap or share "
                        "an edge with the same orientation"
                    )
                directed.add(e)
                key = (min(e), max(e))
                undirected[key] = undirected.get(key, 0) + 1
                if undirected[key] > 2:
                    raise MeshError(f"edge {key} is shared by more than two cells")
            cell_tuples.append(idx)
            polygons.append(poly)
        if not cell_tuples:
            raise MeshError("mesh has no cells")
        unused = set(range(n_verts)).difference(*cell_tuples)
        if unused:
            raise MeshError(f"vertex {min(unused)} is used by no cell ({len(unused)} unused)")
        return cls(vertices=verts, cells=tuple(cell_tuples), polygons=tuple(polygons))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)


def trapezoid_mesh(n: int, offset: float = 0.25) -> PolyMesh:
    """Mesh of the unit square by n x n congruent-trapezoid cells.

    Columns are vertical strips of width 1/n; interior grid rows are shifted
    up or down by offset/n in a checkerboard pattern, so each cell is a
    trapezoid with vertical parallel sides.  ``offset`` must lie in
    [0, 0.5); at 0 the mesh degenerates to squares, at 0.5 to triangles.
    """
    if n < 1:
        raise MeshError("trapezoid mesh needs n >= 1")
    if not 0.0 <= offset < 0.5:
        raise MeshError(f"offset must lie in [0, 0.5), got {offset}")
    m = n + 1
    verts = np.empty((m * m, 2))
    for i in range(m):
        for j in range(m):
            x = i / n
            if j == 0:
                y = 0.0
            elif j == n:
                y = 1.0
            else:
                y = j / n + ((-1) ** (i + j)) * offset / n
            verts[i * m + j] = (x, y)
    cells = []
    for i in range(n):
        for j in range(n):
            bl = i * m + j
            br = (i + 1) * m + j
            cells.append((bl, br, br + 1, bl + 1))
    return PolyMesh.build(verts, cells)


@dataclass(frozen=True, eq=False)
class DofMap:
    """Global numbering: vertex unknowns first, then one unknown per edge."""

    n_vertex_dofs: int
    edges: tuple[tuple[int, int], ...]        # sorted undirected vertex pairs
    cell_dofs: tuple[np.ndarray, ...]         # per cell: 2k global indices
    boundary: np.ndarray                      # bool mask over all dofs

    @property
    def n_dofs(self) -> int:
        return self.n_vertex_dofs + len(self.edges)

    @property
    def boundary_dofs(self) -> np.ndarray:
        return np.flatnonzero(self.boundary)

    @property
    def interior_dofs(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary)


def dof_map(mesh: PolyMesh) -> DofMap:
    edge_count: dict[tuple[int, int], int] = {}
    for cell in mesh.cells:
        k = len(cell)
        for t in range(k):
            key = tuple(sorted((cell[t], cell[(t + 1) % k])))
            edge_count[key] = edge_count.get(key, 0) + 1
    edges = tuple(sorted(edge_count))
    edge_index = {e: i for i, e in enumerate(edges)}
    nv = mesh.n_vertices
    cell_dofs = []
    for cell in mesh.cells:
        k = len(cell)
        local = list(cell)
        for t in range(k):
            key = tuple(sorted((cell[t], cell[(t + 1) % k])))
            local.append(nv + edge_index[key])
        cell_dofs.append(np.array(local, dtype=np.int64))
    boundary = np.zeros(nv + len(edges), dtype=bool)
    for key, count in edge_count.items():
        if count == 1:
            boundary[key[0]] = boundary[key[1]] = True
            boundary[nv + edge_index[key]] = True
    return DofMap(
        n_vertex_dofs=nv,
        edges=edges,
        cell_dofs=tuple(cell_dofs),
        boundary=boundary,
    )


def node_coordinates(mesh: PolyMesh, dofmap: DofMap) -> np.ndarray:
    """Coordinates of every global unknown: vertices, then edge midpoints."""
    ea = np.array(dofmap.edges, dtype=np.int64)
    mids = 0.5 * (mesh.vertices[ea[:, 0]] + mesh.vertices[ea[:, 1]])
    return np.vstack([mesh.vertices, mids])


def cell_maps(mesh: PolyMesh) -> tuple[SerendipityMap, ...]:
    """Serendipity reduction for every cell."""
    return tuple(build_map(poly) for poly in mesh.polygons)


def _cell_rule(poly: Polygon, kind: CoordinateKind, degree: int) -> QuadratureRule:
    """Quadrature adapted to the coordinate kind.

    Triangulation coordinates are piecewise polynomial on their own vertex
    fan, so a fan-aligned rule integrates them exactly; the other kinds use
    the vertex-clustered centroid decomposition.
    """
    if kind is CoordinateKind.TRIANGULATION:
        return fan_rule(poly, degree, fan_apex(poly))
    return polygon_rule(poly, degree)


def assemble(
    mesh: PolyMesh,
    kind: CoordinateKind | str,
    source: Callable[[np.ndarray], np.ndarray] | None = None,
    quad_degree: int = 10,
    maps: Sequence[SerendipityMap] | None = None,
    dofmap: DofMap | None = None,
) -> tuple[SparseMatrix, np.ndarray]:
    """Stiffness matrix and load vector for the Poisson problem.

    ``source`` is the right-hand side f as a callable on point arrays; None
    means f = 0.  Per-cell quadrature uses a centroid fan exact to
    ``quad_degree``.
    """
    if dofmap is None:
        dofmap = dof_map(mesh)
    if maps is None:
        maps = cell_maps(mesh)
    kind = CoordinateKind(kind)
    ndof = dofmap.n_dofs
    rows, cols, vals = [], [], []
    rhs = np.zeros(ndof)
    for poly, smap, dofs in zip(mesh.polygons, maps, dofmap.cell_dofs):
        rule = _cell_rule(poly, kind, quad_degree)
        psi, dpsi = eval_basis_batch(poly, kind, smap, rule.points)
        k_loc = np.einsum("q,qid,qjd->ij", rule.weights, dpsi, dpsi, optimize=True)
        m = len(dofs)
        rows.append(np.repeat(dofs, m))
        cols.append(np.tile(dofs, m))
        vals.append(k_loc.ravel())
        if source is not None:
            f_vals = np.asarray(source(rule.points), dtype=float)
            rhs[dofs] += psi.T @ (rule.weights * f_vals)
    matrix = SparseMatrix.from_triplets(
        ndof, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )
    return matrix, rhs


@dataclass(frozen=True, eq=False)
class DiscreteSolution:
    """Finite element solution: one value per global unknown."""

    mesh: PolyMesh
    dofmap: DofMap
    kind: CoordinateKind
    values: np.ndarray
    maps: tuple[SerendipityMap, ...]
    report: SolveReport


def solve_dirichlet(
    matrix: SparseMatrix,
    rhs: np.ndarray,
    mesh: PolyMesh,
    dofmap: DofMap,
    kind: CoordinateKind | str,
    dirichlet: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-12,
    maps: Sequence[SerendipityMap] | None = None,
) -> DiscreteSolution:
    """Impose boundary values at boundary nodes and solve the reduced system."""
    if maps is None:
        maps = cell_maps(mesh)
    coords = node_coordinates(mesh, dofmap)
    bnd = dofmap.boundary_dofs
    inner = dofmap.interior_dofs
    values = np.zeros(dofmap.n_dofs)
    values[bnd] = np.asarray(dirichlet(coords[bnd]), dtype=float)
    lifted = matrix.matvec(values)
    reduced = matrix.submatrix(inner)
    report = cg_solve(reduced, rhs[inner] - lifted[inner], tol=tol)
    values[inner] = report.solution
    return DiscreteSolution(
        mesh=mesh,
        dofmap=dofmap,
        kind=CoordinateKind(kind),
        values=values,
        maps=tuple(maps),
        report=report,
    )


@dataclass(frozen=True)
class ErrorNorms:
    """L2 error and H1 seminorm (gradient L2) error against an exact field."""

    l2: float
    h1: float


def error_norms(
    solution: DiscreteSolution,
    u_exact: Callable[[np.ndarray], np.ndarray],
    grad_u_exact: Callable[[np.ndarray], np.ndarray],
    quad_degree: int = 14,
) -> ErrorNorms:
    acc_l2 = 0.0
    acc_h1 = 0.0
    for poly, smap, dofs in zip(
        solution.mesh.polygons, solution.maps, solution.dofmap.cell_dofs
    ):
        rule = _cell_rule(poly, solution.kind, quad_degree)
        psi, dpsi = eval_basis_batch(poly, solution.kind, smap, rule.points)
        coeff = solution.values[dofs]
        u_h = psi @ coeff
        g_h = np.einsum("qid,i->qd", dpsi, coeff)
        du = u_h - np.asarray(u_exact(rule.points), dtype=float)
        dg = g_h - np.asarray(grad_u_exact(rule.points), dtype=float)
        acc_l2 += float(rule.weights @ du**2)
        acc_h1 += float(rule.weights @ np.sum(dg**2, axis=1))
    return ErrorNorms(l2=float(np.sqrt(acc_l2)), h1=float(np.sqrt(acc_h1)))


def harmonic_exact(points: np.ndarray) -> np.ndarray:
    """Smooth harmonic benchmark field sin(x) e^y on the unit square."""
    pts = np.atleast_2d(points)
    return np.sin(pts[:, 0]) * np.exp(pts[:, 1])


def harmonic_gradient(points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(points)
    ex = np.exp(pts[:, 1])
    return np.stack([np.cos(pts[:, 0]) * ex, np.sin(pts[:, 0]) * ex], axis=1)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    dofs: int
    l2_error: float
    l2_rate: float | None
    h1_error: float
    h1_rate: float | None


def convergence_study(
    levels: Sequence[int],
    kind: CoordinateKind | str = CoordinateKind.MEAN_VALUE,
    offset: float = 0.25,
    quad_degree: int = 10,
    norm_degree: int = 14,
    tol: float = 1e-12,
    u_exact: Callable[[np.ndarray], np.ndarray] = harmonic_exact,
    grad_u_exact: Callable[[np.ndarray], np.ndarray] = harmonic_gradient,
    source: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[ConvergenceRow]:
    """Refinement study on trapezoid meshes of the unit square.

    Defaults to the zero-source Dirichlet problem whose solution is the
    harmonic field sin(x) e^y.  Rates compare successive levels through the
    mesh-size ratio, so any strictly increasing sequence of n works (others
    raise MeshError); doubling gives the classic log2 ratios.
    """
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise MeshError(f"levels must be strictly increasing, got {tuple(levels)}")
    rows: list[ConvergenceRow] = []
    prev: ConvergenceRow | None = None
    for n in levels:
        mesh = trapezoid_mesh(n, offset)
        dofmap = dof_map(mesh)
        maps = cell_maps(mesh)
        matrix, rhs = assemble(
            mesh, kind, source=source, quad_degree=quad_degree, maps=maps, dofmap=dofmap
        )
        sol = solve_dirichlet(
            matrix, rhs, mesh, dofmap, kind, u_exact, tol=tol, maps=maps
        )
        err = error_norms(sol, u_exact, grad_u_exact, quad_degree=norm_degree)
        if prev is None:
            l2_rate = h1_rate = None
        else:
            scale = np.log(n / prev.n)
            l2_rate = float(np.log(prev.l2_error / err.l2) / scale)
            h1_rate = float(np.log(prev.h1_error / err.h1) / scale)
        row = ConvergenceRow(
            n=n,
            dofs=dofmap.n_dofs,
            l2_error=err.l2,
            l2_rate=l2_rate,
            h1_error=err.h1,
            h1_rate=h1_rate,
        )
        rows.append(row)
        prev = row
    return rows


def mesh_to_json(mesh: PolyMesh) -> dict:
    return {
        "vertices": mesh.vertices.tolist(),
        "cells": [list(c) for c in mesh.cells],
    }


def mesh_from_json(data: dict) -> PolyMesh:
    try:
        return PolyMesh.build(np.asarray(data["vertices"], dtype=float), data["cells"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, MeshError):
            raise
        raise MeshError(f"malformed mesh data: {exc}") from exc


def save_mesh(path: str | Path, mesh: PolyMesh) -> None:
    Path(path).write_text(json.dumps(mesh_to_json(mesh), indent=2) + "\n")


def load_mesh(path: str | Path) -> PolyMesh:
    return mesh_from_json(json.loads(Path(path).read_text()))
