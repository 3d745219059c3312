"""Conforming quadratic finite elements on convex polygonal meshes.

Degrees of freedom sit at mesh vertices and edge midpoints.  Every cell
carries the 2n-function serendipity basis built from its own generalized
barycentric coordinates; because each basis function restricted to an edge
is the univariate quadratic Lagrange polynomial of its three edge nodes,
matching nodes across cells give a globally continuous space regardless of
the coordinate kind or cell shapes.

The flagship problem is the Poisson equation with Dirichlet data, solved
with preconditioned conjugate gradients after symmetric elimination of
boundary values.  Assembly and error norms share one element kernel.  The
basis does not change when a cell is translated, so the kernel evaluates it
on one representative per translation class (``PolyMesh.translation_classes``),
in chunks of representatives with a leading cell axis, and every other
cell of the class reuses it at its own, shifted quadrature points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .barycentric import CoordinateKind, _fan_apices, fan_apex
from .geometry import GeometryError, Polygon
from .linalg import SolveReport, SparseMatrix, cg_solve
from .quadrature import _has_flat_vertex, fan_rule, polygon_rule, rule_layouts
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

    @cached_property
    def translation_classes(self) -> np.ndarray:
        """For every cell, the index of the representative cell of its translation class.

        Two cells share a class when they have the same vertex count and rule
        layout (flat vertex or not, fan apex) and their vertex offsets from
        vertex 0 agree to 1e-12 of the representative's diameter.  Offsets
        rounded to 1e-9 of the cell's diameter only propose a representative:
        every cell is checked against that representative's own offsets, and
        the cells that fail are classed again among themselves, so a rounding
        boundary can split a class but never merges two shapes.  A
        representative represents itself.
        """
        rep = np.arange(self.n_cells)
        counts = np.array([len(cell) for cell in self.cells])
        for n in np.unique(counts).tolist():
            cells = np.flatnonzero(counts == n)
            verts = self.vertices[[self.cells[i] for i in cells]]            # (c, n, 2)
            pairs = verts[:, :, None] - verts[:, None]
            diameters = np.max(np.hypot(pairs[..., 0], pairs[..., 1]), axis=(1, 2))
            offsets = (verts - verts[:, :1]).reshape(len(cells), -1)
            keys = np.column_stack([
                _has_flat_vertex(verts, diameters),
                _fan_apices(verts, diameters),
                np.round(offsets / (1e-9 * diameters[:, None])),
            ])
            todo = np.arange(len(cells))
            while todo.size:
                _, first, inverse = np.unique(
                    keys[todo], axis=0, return_index=True, return_inverse=True
                )
                owner = todo[first][inverse.ravel()]
                same = np.all(
                    np.abs(offsets[todo] - offsets[owner]) <= 1e-12 * diameters[owner, None],
                    axis=1,
                )
                rep[cells[todo[same]]] = cells[owner[same]]
                todo = todo[~same]
        rep.setflags(write=False)
        return rep


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
    """Serendipity reduction for every cell.

    A and B do not change under translation, so ``build_map`` runs once per
    translation class (``PolyMesh.translation_classes``), on its
    representative, and every member cell shares that read-only map.
    """
    rep = mesh.translation_classes
    built = {r: build_map(mesh.polygons[r]) for r in np.unique(rep).tolist()}
    return tuple(built[r] for r in rep.tolist())


# Quadrature points per chunk of the element kernel.  Much below this the
# fixed cost of each numpy call dominates; above it the kernel's temporaries
# (about 1.3 KB per point) raise peak memory and are no faster, since every
# fresh large temporary is page-faulted in again.
CHUNK_POINTS = 1024


def _element_chunks(mesh: PolyMesh, maps: Sequence[SerendipityMap], kind: CoordinateKind,
                    degree: int):
    """The element kernel: basis values on chunks of class representatives.

    Rule weights and basis values are the same for every cell of a
    translation class, so they are evaluated on the class representatives
    only, with each representative's map.  Representatives are grouped by
    the point layout of their rules and taken in chunks of about
    ``CHUNK_POINTS`` points, so every stage (rule, coordinates, products,
    basis) is one array operation over the chunk.  Triangulation
    coordinates are piecewise polynomial on their own vertex fan, so a
    fan-aligned rule integrates them exactly; the other kinds use the
    vertex-clustered centroid decomposition.

    Yields (rule, psi, dpsi, members) for r representatives, with rule points
    (r, m, 2), weights (r, m), psi (r, m, 2n) and dpsi (r, m, 2n, 2).
    ``members`` holds every cell of their classes, representatives included,
    in slices of about ``CHUNK_POINTS`` points: (cells, owner, shift), where
    ``owner`` indexes each cell's representative in the chunk and
    ``rule.points[owner] + shift[:, None]`` are the cell's own points.  When
    the cells are distinct, consecutive representatives, as on a mesh without
    repeated shapes, ``owner`` is a slice, so indexing with it copies nothing.
    """
    fan = kind is CoordinateKind.TRIANGULATION
    rep_of = mesh.translation_classes
    reps = np.flatnonzero(rep_of == np.arange(mesh.n_cells))
    layouts = rule_layouts([mesh.polygons[r] for r in reps], degree, fan=fan)
    order = np.concatenate([reps[group] for group, _ in layouts])
    rank = np.empty(mesh.n_cells, dtype=np.int64)
    rank[order] = np.arange(len(order))
    cell_rank = rank[rep_of]
    by_rank = np.argsort(cell_rank, kind="stable")
    owner_rank = cell_rank[by_rank]
    bounds = np.searchsorted(owner_rank, np.arange(len(order) + 1))
    origin = mesh.vertices[[cell[0] for cell in mesh.cells]]
    shifts = origin[by_rank] - origin[order[owner_rank]]
    start = 0
    for group, size in layouts:
        step = max(1, CHUNK_POINTS // size)
        for lo in range(start, start + len(group), step):
            chunk = order[lo:min(lo + step, start + len(group))]
            polys = [mesh.polygons[i] for i in chunk]
            if fan:
                rule = fan_rule(polys, degree, fan_apex(polys))
            else:
                rule = polygon_rule(polys, degree)
            psi, dpsi = eval_basis_batch(polys, kind, [maps[i] for i in chunk], rule.points)
            members = []
            end = bounds[lo + len(chunk)]
            for k in range(bounds[lo], end, step):
                part = slice(k, min(k + step, end))
                owner = owner_rank[part] - lo
                if owner[-1] - owner[0] == len(owner) - 1:
                    owner = slice(owner[0], owner[-1] + 1)
                members.append((by_rank[part], owner, shifts[part]))
            yield rule, psi, dpsi, members
        start += len(group)


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
    ``quad_degree``.  Each translation class's element stiffness is formed
    once, on its representative; the load evaluates f at every cell's own
    points.
    """
    if dofmap is None:
        dofmap = dof_map(mesh)
    if maps is None:
        maps = cell_maps(mesh)
    kind = CoordinateKind(kind)
    ndof = dofmap.n_dofs
    rows, cols, vals = [], [], []
    rhs = np.zeros(ndof)
    for rule, psi, dpsi, members in _element_chunks(mesh, maps, kind, quad_degree):
        grad = np.swapaxes(dpsi, 1, 3)                              # (r, 2, 2n, m)
        k_loc = np.sum((grad * rule.weights[:, None, None]) @ np.swapaxes(grad, 2, 3), axis=1)
        psi_t = np.swapaxes(psi, 1, 2)                              # (r, 2n, m)
        for cells, owner, shift in members:
            dofs = np.stack([dofmap.cell_dofs[i] for i in cells])  # (c, 2n)
            size = dofs.shape[1]
            rows.append(np.repeat(dofs, size, axis=1).ravel())
            cols.append(np.tile(dofs, size).ravel())
            vals.append(k_loc[owner].ravel())
            if source is not None:
                points = rule.points[owner] + shift[:, None]
                f_vals = np.asarray(source(points.reshape(-1, 2)), dtype=float)
                wf = rule.weights[owner] * f_vals.reshape(len(cells), -1)
                np.add.at(rhs, dofs, (psi_t[owner] @ wf[..., None])[..., 0])
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
    """L2 and H1-seminorm errors of ``solution`` against an exact field.

    The exact field is evaluated at every cell's own quadrature points and
    compared with its representative's basis values there.
    """
    acc_l2 = 0.0
    acc_h1 = 0.0
    for rule, psi, dpsi, members in _element_chunks(
        solution.mesh, solution.maps, solution.kind, quad_degree
    ):
        psi_t = np.swapaxes(psi, 1, 2)                              # (r, 2n, m)
        grad = np.swapaxes(dpsi, 1, 3)                              # (r, 2, 2n, m)
        for cells, owner, shift in members:
            dofs = np.stack([solution.dofmap.cell_dofs[i] for i in cells])
            coeff = solution.values[dofs][:, None, :]               # (c, 1, 2n)
            points = (rule.points[owner] + shift[:, None]).reshape(-1, 2)
            weights = rule.weights[owner].ravel()
            u_h = (coeff @ psi_t[owner]).ravel()
            g_h = (coeff[:, None] @ grad[owner])[:, :, 0]           # (c, 2, m)
            du = u_h - np.asarray(u_exact(points), dtype=float)
            dg = np.swapaxes(g_h, 1, 2).reshape(-1, 2) - np.asarray(
                grad_u_exact(points), dtype=float
            )
            acc_l2 += float(weights @ du**2)
            acc_h1 += float(weights @ np.sum(dg**2, axis=1))
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
