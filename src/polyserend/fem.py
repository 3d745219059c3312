"""Conforming quadratic finite elements on convex polygonal meshes.

Degrees of freedom sit at mesh vertices and edge midpoints.  Every cell
carries the 2n-function serendipity basis built from its own generalized
barycentric coordinates; because each basis function restricted to an edge
is the univariate quadratic Lagrange polynomial of its three edge nodes,
matching nodes across cells give a globally continuous space regardless of
the coordinate kind or cell shapes.

A mesh is stored as arrays: the vertex indices of its cells, one (c, n)
array per vertex count n, and its numbered edges.  ``PolyMesh.build``
validates each vertex-count group in one array pass.  The element kernel
builds no ``Polygon``: it reads the class representatives of each group
from one ``PolygonBatch``.

The flagship problem is the Poisson equation with Dirichlet data, solved
with preconditioned conjugate gradients after symmetric elimination of
boundary values.  The basis does not change when a cell is translated, so
assembly and error norms walk the same chunks of one representative per
translation class (``PolyMesh.translation_classes``), with a leading cell
axis, and every other cell of a class reuses its representative's values
at its own, shifted quadrature points.  Assembly evaluates the basis on
every chunk.  The error norms evaluate it only on chunks with a repeated
class: on a cell of its own, the solution is one quadratic form in the
cell's coordinates.

``assemble`` returns an ``AssembledMatrix``, which carries the mesh and
coordinate kind ``solve_dirichlet`` checks, and keeps its interior system.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .barycentric import (DEFAULT_BOUNDARY_EPS, CoordinateKind, _coordinates, _pair_arrays,
                          _refuse_flat, _reject_boundary_points)
from .geometry import (_DEFECTS, GeometryError, Polygon, PolygonBatch, _as_array, _neighbours,
                       _VERTICES, _polygon_defects)
from .linalg import SolveReport, SparseMatrix, cg_solve
from .quadrature import QuadratureRule, fan_rule, polygon_rule, rule_layouts
from .serendipity import SerendipityError, SerendipityMap, _basis, _reduction, build_map
# Unused here: the element kernel calls ``_basis``.  perfbench/spans.py traces
# the basis by this name on this module and reports a missing name as absent.
from .serendipity import eval_basis_batch  # noqa: F401

__all__ = [
    "MeshError",
    "CellGroup",
    "PolyMesh",
    "trapezoid_mesh",
    "DofMap",
    "dof_map",
    "node_coordinates",
    "cell_maps",
    "assemble",
    "AssembledMatrix",
    "DiscreteSolution",
    "solve_dirichlet",
    "ErrorNorms",
    "error_norms",
    "ConvergenceRow",
    "convergence_study",
    "harmonic_field",
    "harmonic_exact",
    "harmonic_gradient",
    "mesh_from_json",
    "mesh_to_json",
]


class MeshError(GeometryError):
    """Mesh is malformed or non-conforming."""


class CellGroup(NamedTuple):
    """The cells of a mesh that have one vertex count n.

    ``ids`` (c,) are their cell ids, increasing; ``cells`` (c, n) their vertex
    indices, counterclockwise; ``edges`` (c, n) the index into ``PolyMesh.edges``
    of each cell's edge k, which joins its vertices k and k + 1.
    """

    ids: np.ndarray
    cells: np.ndarray
    edges: np.ndarray


# A boundary vertex closer than this, relative to a boundary edge's length,
# to the inside of that edge is a hanging vertex.
_HANGING_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class PolyMesh:
    """Conforming mesh of convex polygonal cells, stored as arrays.

    ``groups`` holds one ``CellGroup`` per vertex count, in increasing
    order, ``edges`` (E, 2) the sorted vertex pairs of all edges, in
    lexicographic order, and ``boundary_edges`` (E,) which of them are used
    by one cell only.  Cells may have collinear (flat) vertices, which is
    how a quadrilateral neighbors a polygon along a subdivided side.
    ``cells`` (a tuple of vertex-index tuples) and ``polygons`` are built on
    first use; the element kernel reads the translation-class
    representatives of each group from one ``PolygonBatch``
    (``class_batches``) and builds no ``Polygon``.
    """

    vertices: np.ndarray                      # (N, 2)
    groups: tuple[CellGroup, ...] = field(repr=False)
    edges: np.ndarray = field(repr=False)     # (E, 2), read-only
    boundary_edges: np.ndarray = field(repr=False)   # (E,) bool, read-only

    @classmethod
    def build(cls, vertices: np.ndarray, cells: Sequence[Sequence[int]] | np.ndarray) -> "PolyMesh":
        """Validate a mesh: ``cells`` is a sequence of vertex-index sequences or one (c, n) array.

        The cells of each vertex count are checked together in one array
        pass, with the checks of ``Polygon``, which allows flat vertices.  A
        failing mesh raises the ``MeshError`` of its lowest-numbered bad
        cell.  Then each directed edge may occur once, every vertex must be
        used, and boundary edges may meet only at the vertices they share: a
        vertex inside a boundary edge (a hanging vertex its neighbor does not
        list) and two boundary edges that cross (overlapping cells) fail.
        Last, one cell only may cover the centroid of each cell on the
        boundary, which fails for cells nested inside another cell.
        """
        verts = _as_array(vertices, MeshError, _VERTICES).astype(float)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise MeshError(f"vertices must have shape (N, 2), got {verts.shape}")
        if not np.all(np.isfinite(verts)):
            raise MeshError("vertices contain non-finite values")
        n_verts = len(verts)
        groups = _group_cells(cells)
        if not groups:
            raise MeshError("mesh has no cells")
        first_bad = None
        for ids, idx in groups:
            codes = _invalid_cells(verts, idx)
            k = int(np.argmax(codes != 0))
            if codes[k] and (first_bad is None or ids[k] < first_bad[0]):
                first_bad = (int(ids[k]), int(codes[k]), idx.shape[1])
        # Directed edges in group order: src[i] -> dst[i] is edge k of cell owner[i].
        owner = np.concatenate([np.repeat(ids, idx.shape[1]) for ids, idx in groups])
        src = np.concatenate([idx.ravel() for _, idx in groups])
        dst = np.concatenate([idx[:, _neighbours(idx.shape[1])[0]].ravel() for _, idx in groups])
        repeated = _repeated_edge(owner, src, dst, n_verts)
        if first_bad is not None and (repeated is None or first_bad[0] <= repeated[0]):
            raise MeshError(f"cell {first_bad[0]} {_cell_defect(*first_bad[1:])}")
        if repeated is not None:
            raise MeshError(
                f"directed edge {repeated[1]} appears twice; cells overlap or share "
                "an edge with the same orientation"
            )
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        keys, inverse, counts = np.unique(lo * n_verts + hi, return_inverse=True,
                                          return_counts=True)
        edges = np.stack([keys // n_verts, keys % n_verts], axis=1)
        outer = counts == 1
        for array in (verts, edges, outer):
            array.setflags(write=False)
        used = np.zeros(n_verts, dtype=bool)
        used[edges] = True
        unused = np.flatnonzero(~used)
        if unused.size:
            raise MeshError(f"vertex {unused[0]} is used by no cell ({unused.size} unused)")
        contact = _boundary_contact(verts, edges[outer])
        if contact is not None:
            raise MeshError(contact)
        on_boundary = outer[inverse]
        _check_single_cover(verts, groups, owner[on_boundary], src[on_boundary], dst[on_boundary])
        splits = np.cumsum([idx.size for _, idx in groups])[:-1]
        cell_groups = tuple(
            CellGroup(ids, idx, part.reshape(idx.shape))
            for (ids, idx), part in zip(groups, np.split(inverse.ravel(), splits))
        )
        for group in cell_groups:
            for array in group:
                array.setflags(write=False)
        return cls(vertices=verts, groups=cell_groups, edges=edges, boundary_edges=outer)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return sum(len(group.ids) for group in self.groups)

    @cached_property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        """Each cell's vertex indices, counterclockwise, in cell order."""
        out: list = [None] * self.n_cells
        for ids, cells, _ in self.groups:
            for ci, cell in zip(ids.tolist(), cells.tolist()):
                out[ci] = tuple(cell)
        return tuple(out)

    @cached_property
    def polygons(self) -> tuple[Polygon, ...]:
        """Every cell as a ``Polygon``, built on first use."""
        return tuple(Polygon(self.vertices[list(cell)]) for cell in self.cells)

    @property
    def translation_classes(self) -> np.ndarray:
        """For every cell, the index of the representative cell of its translation class.

        Two cells share a class when they have the same vertex count and rule
        layout (flat vertex or not, fan apex) and their vertex offsets from
        vertex 0 agree to 1e-12 of the representative's diameter.  Offsets
        rounded to 1e-9 of the cell's diameter only propose a representative:
        every cell is checked against that representative's own offsets, and
        the cells that fail are classed again among themselves, so a rounding
        boundary can split a class but never merges two shapes.  A class's
        representative is its lowest cell, and represents itself.
        """
        return self._classes[0]

    @property
    def class_batches(self) -> tuple[tuple[np.ndarray, PolygonBatch], ...]:
        """Per group: the rows (increasing) of its translation-class
        representatives and their ``PolygonBatch``, the rows of the group's
        batch."""
        return self._classes[1]

    @cached_property
    def _classes(self) -> tuple[np.ndarray, tuple[tuple[np.ndarray, PolygonBatch], ...]]:
        """``translation_classes`` and ``class_batches``, from one ``PolygonBatch``
        per group, derived without checks from cells that ``build`` validated
        and kept only for the representatives."""
        rep = np.arange(self.n_cells)
        batches = []
        for ids, cells, _ in self.groups:
            batch = PolygonBatch._derive(self.vertices[cells])
            diameters = batch.diameters
            offsets = (batch.vertices - batch.vertices[:, :1]).reshape(len(ids), -1)
            keys = np.column_stack([batch.flat, batch.apices,
                                    np.round(offsets / (1e-9 * diameters[:, None]))])
            todo = np.arange(len(ids))
            while todo.size:
                # Equal keys sort next to each other, first occurrence first:
                # each cell's proposed representative is the first of its run.
                order = np.lexsort(keys[todo].T[::-1])
                ranked = keys[todo[order]]
                starts = np.flatnonzero(np.r_[True, np.any(ranked[1:] != ranked[:-1], axis=1)])
                owner = np.empty_like(todo)
                owner[order] = todo[order[np.repeat(starts, np.diff(np.r_[starts, len(order)]))]]
                same = np.all(
                    np.abs(offsets[todo] - offsets[owner]) <= 1e-12 * diameters[owner, None],
                    axis=1,
                )
                rep[ids[todo[same]]] = ids[owner[same]]
                todo = todo[~same]
            reps = np.flatnonzero(rep[ids] == ids)
            reps.setflags(write=False)
            batches.append((reps, batch[reps]))
        rep.setflags(write=False)
        return rep, tuple(batches)

    @cached_property
    def _dof_map(self) -> DofMap:
        """``dof_map(self)``, numbered on first use."""
        nv = self.n_vertices
        outer = self.boundary_edges
        boundary = np.zeros(nv + len(self.edges), dtype=bool)
        boundary[self.edges[outer].ravel()] = True
        boundary[nv:] = outer
        boundary.setflags(write=False)
        groups = []
        for ids, cells, edges in self.groups:
            dofs = np.hstack([cells, nv + edges])
            dofs.setflags(write=False)
            groups.append((ids, dofs))
        return DofMap(n_vertex_dofs=nv, edges=self.edges, groups=tuple(groups), boundary=boundary)

    @cached_property
    def _cell_maps(self) -> tuple[SerendipityMap, ...]:
        """``cell_maps(self)``, built on first use."""
        built = {}
        for (ids, _, _), (reps, batch) in zip(self.groups, self.class_batches):
            try:
                maps = build_map(batch)
            except SerendipityError:
                # The same solve fails again and raises, now naming the mesh cell.
                _reduction(batch.vertices, lambda k: f"cell {ids[reps[k]]}")
            built.update(zip(ids[reps].tolist(), maps))
        return tuple(built[r] for r in self.translation_classes.tolist())


def _group_cells(cells: Sequence[Sequence[int]] | np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cell ids (c,) and vertex indices (c, n) for each vertex count n, in increasing order.

    Cells that are not a sequence of sequences (a set has no order), or an
    array of another shape than (c, n), raise ``MeshError``, and so does an
    index that is not an integer (a bool, a float such as 3.0, a string),
    naming the first cell with one.
    """
    if isinstance(cells, np.ndarray):
        if cells.ndim != 2:
            raise MeshError(f"cells must be a (c, n) array, got shape {cells.shape}")
        sizes = np.full(len(cells), cells.shape[1])
    else:
        try:
            cells = list(cells)
            if any(isinstance(cell, (set, frozenset, dict)) for cell in cells):
                raise TypeError("a cell is a set or a dict, which has no order")
            sizes = np.array([len(cell) for cell in cells], dtype=np.int64)
        except TypeError as exc:
            raise MeshError(f"cells must be a sequence of vertex-index sequences: {exc}") from exc
        if not cells:
            return []
        width = sizes.max()                # padded: one conversion, and a bad entry's row is its cell
        cells = [list(cell) + [0] * (width - len(cell)) for cell in cells]
    index = _as_array(cells, MeshError, "cell {0} has a vertex index that is not an integer: {entry!r}",
                      integer=True)
    if index.ndim != 2:                                      # an index that is a sequence
        raise MeshError("cells must be a sequence of vertex-index sequences")
    index = index.astype(np.int64, copy=False)               # past 2**63 wraps: out of range
    return [(np.flatnonzero(sizes == n), index[sizes == n, :n]) for n in np.unique(sizes).tolist()]


def _invalid_cells(verts: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The first defect (c,) of each cell (c, n) of one vertex count, 0 for a
    valid cell: -1 if it repeats a vertex, -2 if it references one out of
    range, -3 if n < 3, else the first failed check of ``Polygon`` (flat
    vertices pass), an index into ``_DEFECTS``."""
    ordered = np.sort(idx, axis=1)
    codes = np.where(np.any(ordered[:, 1:] == ordered[:, :-1], axis=1), -1, 0)
    codes[(codes == 0) & np.any((idx < 0) | (idx >= len(verts)), axis=1)] = -2
    rows = np.flatnonzero(codes == 0)
    if idx.shape[1] < 3:
        codes[rows] = -3
    else:
        codes[rows] = _polygon_defects(verts[idx[rows]])
    return codes


def _cell_defect(code: int, n: int) -> str:
    """What the ``_invalid_cells`` code of a cell of n vertices means."""
    if code == -1:
        return "repeats a vertex"
    if code == -2:
        return "references a vertex out of range"
    detail = f"a polygon needs at least 3 vertices, got {n}" if code == -3 else _DEFECTS[code]
    return f"is not a valid convex polygon: {detail}"


def _repeated_edge(owner: np.ndarray, src: np.ndarray, dst: np.ndarray,
                   n_verts: int) -> tuple[int, tuple[int, int]] | None:
    """The first directed edge src -> dst, in cell order, that an earlier one repeats.

    Returns (owning cell, edge) or None.  When every directed edge is unique,
    no edge is shared by more than two cells.
    """
    order = np.argsort(owner, kind="stable")
    owner, src, dst = owner[order], src[order], dst[order]
    valid = (src >= 0) & (src < n_verts) & (dst >= 0) & (dst < n_verts)
    keys = np.where(valid, src * n_verts + dst, -1 - np.arange(len(src)))
    _, first = np.unique(keys, return_index=True)
    if len(first) == len(keys):
        return None
    repeats = np.ones(len(keys), dtype=bool)
    repeats[first] = False
    k = int(np.argmax(repeats))
    return int(owner[k]), (int(src[k]), int(dst[k]))


def _boundary_contact(verts: np.ndarray, outer: np.ndarray) -> str | None:
    """Where two of the boundary edges ``outer`` (b, 2) meet other than at a shared end, or None.

    In a conforming mesh of cells that do not overlap, boundary edges touch
    only at the vertices they share.  A vertex inside a boundary edge is a
    hanging vertex that the cell owning the edge does not list; a vertex at
    an end of a boundary edge that is not that end is a second vertex id at
    one point, which cracks the mesh there; two boundary edges that cross
    belong to overlapping cells.  A vertex within ``_HANGING_RTOL`` of an
    edge's length of the edge's line is on that line.
    """
    nodes, ends = np.unique(outer, return_inverse=True)
    ends = ends.reshape(outer.shape)                                     # rows of nodes
    start = verts[outer[:, 0]]
    along = verts[outer[:, 1]] - start                                   # (b, 2)
    length2 = np.sum(along * along, axis=1)
    side = np.empty((len(nodes), len(outer)), dtype=np.int8)   # of each edge's line
    step = max(1, 2**16 // len(outer))       # vertex-edge pairs per block: small temporaries
    for lo in range(0, len(nodes), step):
        rel = verts[nodes[lo:lo + step], None] - start                    # (v, b, 2)
        t = (rel[..., 0] * along[:, 0] + rel[..., 1] * along[:, 1]) / length2
        off = along[:, 0] * rel[..., 1] - along[:, 1] * rel[..., 0]
        on_line = np.abs(off) <= _HANGING_RTOL * length2
        inside = on_line & (t > _HANGING_RTOL) & (t < 1.0 - _HANGING_RTOL)
        if np.any(inside):
            v, e = np.unravel_index(np.argmax(inside), inside.shape)
            return (f"vertex {nodes[lo + v]} lies inside boundary edge {tuple(outer[e].tolist())}; "
                    "the mesh is not conforming (a hanging vertex that the cell owning the "
                    "edge does not list)")
        rows = np.arange(lo, lo + len(rel))[:, None]
        twin = on_line & (np.minimum(np.abs(t), np.abs(1.0 - t)) <= _HANGING_RTOL)
        twin &= (ends[:, 0] != rows) & (ends[:, 1] != rows)
        if np.any(twin):
            v, e = np.unravel_index(np.argmax(twin), twin.shape)
            end = outer[e, int(abs(t[v, e]) > _HANGING_RTOL)]
            return (f"vertices {nodes[lo + v]} and {end} lie at one point; the mesh is cracked "
                    "there (cells that meet at the point list distinct vertices)")
        side[lo:lo + step] = np.where(on_line, 0, np.sign(off))
    # straddles[f, e]: the ends of edge f lie on both sides of edge e's line.
    straddles = side[ends[:, 0]] * side[ends[:, 1]] < 0
    crosses = straddles & straddles.T
    if np.any(crosses):
        f, e = np.unravel_index(np.argmax(crosses), crosses.shape)
        return (f"boundary edges {tuple(outer[f].tolist())} and {tuple(outer[e].tolist())} "
                "cross; two cells overlap")
    return None


def _check_single_cover(verts: np.ndarray, groups: list[tuple[np.ndarray, np.ndarray]],
                        owner: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    """Raise ``MeshError`` unless one cell covers the centroid of each cell on the boundary.

    ``src`` -> ``dst`` (b,) are the boundary edges oriented as their cells
    ``owner`` (b,) have them.  The winding number of a point about these
    edges counts the cells that cover it: every interior edge occurs in both
    directions and cancels, and no two boundary edges cross.  A cell's
    centroid (its vertex mean) is inside it, so the count must be 1; at the
    boundary cells of a cell or patch nested inside another cell it is 2.
    """
    cells = np.unique(owner)
    points = np.empty((len(cells), 2))
    for ids, idx in groups:
        rows = np.minimum(np.searchsorted(ids, cells), len(ids) - 1)
        mine = ids[rows] == cells
        points[mine] = verts[idx[rows[mine]]].mean(axis=1)
    # The edges that a point's rightward ray can cross have the point's y in
    # [lower end, upper end): with the points sorted by y, a range for each.
    order = np.argsort(points[:, 1])
    ys = points[order, 1]
    first = np.searchsorted(ys, np.minimum(verts[src, 1], verts[dst, 1]))
    count = np.searchsorted(ys, np.maximum(verts[src, 1], verts[dst, 1])) - first
    edge = np.repeat(np.arange(len(src)), count)
    point = order[np.arange(len(edge)) - np.repeat(np.cumsum(count) - count - first, count)]
    start, end = verts[src[edge]], verts[dst[edge]]
    along, rel = end - start, points[point] - start
    side = along[:, 0] * rel[:, 1] - along[:, 1] * rel[:, 0]      # > 0: point left of the edge
    up = along[:, 1] > 0
    # An edge crossing the ray upward with the point on its left counts +1,
    # downward with the point on its right -1.
    winding = (np.bincount(point[up & (side > 0)], minlength=len(cells))
               - np.bincount(point[~up & (side < 0)], minlength=len(cells)))
    bad = np.flatnonzero(winding != 1)
    if bad.size:
        raise MeshError(
            f"cells overlap: the centroid of cell {cells[bad[0]]} is covered by "
            f"{winding[bad[0]]} cells (a cell nested inside another)"
        )


def trapezoid_mesh(n: int, offset: float = 0.25) -> PolyMesh:
    """Mesh of the unit square by n x n congruent-trapezoid cells.

    Columns are vertical strips of width 1/n; interior grid rows are shifted
    up or down by offset/n in a checkerboard pattern, so each cell is a
    trapezoid with vertical parallel sides.  ``offset`` must lie in
    [0, 0.5); at 0 the mesh degenerates to squares, at 0.5 to triangles.
    Vertex (i, j), column i and row j, has index i (n + 1) + j, and cell
    (i, j) is (bottom-left, bottom-right, top-right, top-left), numbered
    i n + j.
    """
    if _as_array(n, MeshError, "trapezoid mesh needs an integer n >= 1, got {entry!r}",
                 integer=True).ndim or n < 1:
        raise MeshError(f"trapezoid mesh needs an integer n >= 1, got {n!r}")
    if _as_array(offset, MeshError, "offset must be a number, got {entry!r}").ndim \
            or not 0.0 <= offset < 0.5:
        raise MeshError(f"offset must lie in [0, 0.5), got {offset}")
    m = n + 1
    i, j = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    y = j / n + (1 - 2 * ((i + j) % 2)) * offset / n
    y[:, 0] = 0.0
    y[:, n] = 1.0
    verts = np.stack([(i / n).ravel(), y.ravel()], axis=1)
    bl = (m * np.arange(n)[:, None] + np.arange(n)).ravel()
    return PolyMesh.build(verts, np.stack([bl, bl + m, bl + m + 1, bl + 1], axis=1))


@dataclass(frozen=True, eq=False)
class DofMap:
    """Global numbering: vertex unknowns first, then one unknown per edge.

    ``groups`` follows ``mesh.groups``: per vertex count n, the cell ids (c,)
    and their unknowns (c, 2n), the n vertex unknowns and then the n edge
    unknowns, edge k joining vertices k and k + 1.
    """

    n_vertex_dofs: int
    edges: np.ndarray                         # (E, 2) sorted undirected vertex pairs
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
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
    """Vertex unknowns, then one unknown per mesh edge in ``mesh.edges`` order.

    The unknowns of a boundary edge (``mesh.boundary_edges``, used by one
    cell) and of its two vertices are boundary unknowns.  The map is
    numbered once per mesh: every call returns the same ``DofMap``.
    """
    return mesh._dof_map


def node_coordinates(mesh: PolyMesh) -> np.ndarray:
    """Coordinates of every unknown of ``dof_map(mesh)``: vertices, then edge midpoints."""
    ea = mesh.edges
    mids = 0.5 * (mesh.vertices[ea[:, 0]] + mesh.vertices[ea[:, 1]])
    return np.vstack([mesh.vertices, mids])


def cell_maps(mesh: PolyMesh) -> tuple[SerendipityMap, ...]:
    """Serendipity reduction for every cell.

    A and B do not change under translation, so they are built once per
    translation class (``PolyMesh.translation_classes``), on its
    representative, with one ``build_map`` call per vertex count on the
    group's ``PolygonBatch`` of representatives, and every member cell
    shares that read-only map.  The maps are built once per mesh: every
    call returns the same tuple.  An error names the representative's cell.
    """
    return mesh._cell_maps


def _check_own(mesh: PolyMesh, maps: Sequence[SerendipityMap] | None,
               dofmap: DofMap | None) -> None:
    """Raise ValueError unless ``maps`` and ``dofmap``, where given, are the mesh's
    own ``cell_maps(mesh)`` and ``dof_map(mesh)``.  Maps compare by identity, so
    the mesh's tuple passes at once, and a list of the same maps item by item."""
    if dofmap is not None and dofmap is not dof_map(mesh):
        raise ValueError("dofmap must be the mesh's own dof_map(mesh)")
    if maps is not None and maps is not cell_maps(mesh) and tuple(maps) != cell_maps(mesh):
        raise ValueError("maps must be the mesh's own cell_maps(mesh)")


# Quadrature points per chunk of the element kernel.  Each chunk pays a
# fixed cost in numpy calls, so fewer, larger chunks are faster: a
# Voronoi-mesh solve runs 100 chunks here where 2048 points took 181, and
# its op time fell by about 15%.  The basis evaluation peaks at about
# 0.8 KB per point (its coordinates, products and results), and no
# chunk's arrays outlive it, so the peak resident memory of that solve rose
# by about 0.3 MB (0.4%); 4096 added about 1 MB more, on it and on the trapezoid
# refinement study.  A member slice takes the points of four chunks: a
# member point holds only its points, field values and its share of two
# matrix products, and the fewer, larger products made the trapezoid
# refinement study about 6% faster; its slices of 12 288 points raise that
# study's peak resident memory by 0.6 MB (0.8%) over 8192.
CHUNK_POINTS = 3072


def _element_chunks(mesh: PolyMesh, kind: CoordinateKind, degree: int):
    """Chunks of class representatives, their maps and rules, and the member cells.

    Rule weights and basis values are the same for every cell of a
    translation class, so the callers evaluate them on the class
    representatives only, with each representative's map.  Within each
    vertex-count group, representatives are grouped by the point layout of
    their rules and taken in chunks of about ``CHUNK_POINTS`` points, so
    every stage a caller runs (coordinates, products, basis) is one array
    operation over the chunk.  The geometry of the representatives
    (``PolyMesh.class_batches``) is put in chunk order once per group and
    each chunk takes a slice of it.  The rule is mapped once per span of
    whole chunks of at most the points of a member slice, and each chunk
    takes a row view of it, so a chunk pays only for its coordinates,
    products and basis.  Those come from the unchecked kernels, on the
    rule's coordinate-major points: the flat Wachspress cell is refused
    here, once per pass, and each chunk's points are vouched for by
    ``_check_interior``.
    Triangulation coordinates are piecewise polynomial on their own vertex
    fan, so a fan-aligned rule integrates them exactly; the other kinds use
    the vertex-clustered centroid decomposition.

    Yields (chunk, maps, rule, members) for r representatives: their
    ``PolygonBatch``, their r maps and their rule, with points (r, m, 2)
    and weights (r, m).  ``members`` holds every cell of their classes,
    representatives included, in slices of about 4 ``CHUNK_POINTS`` points:
    (dofs, owner, shift), where ``dofs`` (c, 2n) are the cells' global
    unknowns, ``owner`` (c,) indexes each cell's representative in the chunk
    and ``rule.points[owner] + shift[:, None]`` are the cell's own points.
    When every class of the chunk is one cell, ``members`` is one slice
    with ``owner`` 0, ..., r - 1 and zero shifts.
    """
    kind = CoordinateKind(kind)
    if kind is CoordinateKind.WACHSPRESS:
        # The class key keeps flat and non-flat cells apart and a class's
        # representative is its lowest cell, so the lowest flat cell is one.
        flat = [(ids[reps[k]], batch, k) for (ids, _, _), (reps, batch) in
                zip(mesh.groups, mesh.class_batches) for k in np.flatnonzero(batch.flat)[:1]]
        if flat:
            cell, batch, k = min(flat, key=lambda entry: entry[0])
            _refuse_flat(batch, int(k), f"cell {cell}")
    fan = kind is CoordinateKind.TRIANGULATION
    maps = cell_maps(mesh)
    for (ids, cells, _), (_, dofs), (reps, batch) in zip(mesh.groups, dof_map(mesh).groups,
                                                         mesh.class_batches):
        rep_of = np.searchsorted(ids, mesh.translation_classes[ids])   # group rows
        layouts = rule_layouts(batch, degree, fan=fan)
        in_order = np.concatenate([group for group, _ in layouts])     # batch rows
        order = reps[in_order]
        batch = batch[in_order]
        ordered_maps = [maps[i] for i in ids[order].tolist()]
        rank = np.empty(len(ids), dtype=np.int64)
        rank[order] = np.arange(len(order))
        cell_rank = rank[rep_of]
        by_rank = np.argsort(cell_rank, kind="stable")
        owner_rank = cell_rank[by_rank]
        bounds = np.searchsorted(owner_rank, np.arange(len(order) + 1))
        origin = mesh.vertices[cells[:, 0]]
        shifts = origin[by_rank] - origin[order[owner_rank]]
        start = 0
        for group, size in layouts:
            step = max(1, CHUNK_POINTS // size)
            member_step = max(1, 4 * CHUNK_POINTS // size)
            span_step = member_step // step * step            # whole chunks
            stop = start + len(group)
            for span in range(start, stop, span_step):
                reps_span = batch[span:min(span + span_step, stop)]
                span_rule = fan_rule(reps_span, degree) if fan else polygon_rule(reps_span, degree)
                for lo in range(span, span + len(reps_span), step):
                    rows = slice(lo, min(lo + step, stop))
                    members = []
                    end = bounds[rows.stop]
                    for k in range(bounds[lo], end, member_step):
                        part = slice(k, min(k + member_step, end))
                        members.append((dofs[by_rank[part]], owner_rank[part] - lo, shifts[part]))
                    chunk, rule = batch[rows], span_rule[lo - span:rows.stop - span]
                    _check_interior(chunk, rule)
                    yield chunk, ordered_maps[rows], rule, members
            start = stop


def _check_interior(chunk: PolygonBatch, rule: QuadratureRule) -> None:
    """Raise ``BoundaryEvaluationError``, as ``eval_coords_batch`` would, unless
    every point of ``rule`` lies strictly inside its polygon of ``chunk``.

    The rule's clearance bound (``_mapped_rule``) settles this at once for
    any chunk whose polygons all clear ``DEFAULT_BOUNDARY_EPS`` times their
    diameters; the points are checked one by one only on another chunk,
    such as one with a sliver cell.
    """
    if not np.all(rule._clearance > DEFAULT_BOUNDARY_EPS * chunk.diameters):
        # In a caller's (c, m, 2) layout, so that the distances, and the
        # message, are bitwise those of eval_coords_batch.
        _reject_boundary_points(chunk, np.ascontiguousarray(rule.points))


def _member_points(rule: QuadratureRule, owner: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The own points (N, 2) of a member slice, ``rule.points[owner] + shift[:, None]``
    in cell order, added coordinate-major so that they are a view of (2, N) storage."""
    own = np.moveaxis(rule.points, -1, 0)[:, owner] + shift.T[:, :, None]     # (2, c, m)
    return np.moveaxis(own, 0, -1).reshape(-1, 2)


def _solution_forms(maps: Sequence[SerendipityMap], coeff: np.ndarray) -> np.ndarray:
    """The symmetric matrices M (r, n, n) with u_h = lambda^T M lambda on each of r cells.

    On a cell the basis is psi = B A mu over the coordinate products mu in
    ``pair_order(n)``, so a solution with coefficients u (the rows of
    ``coeff``, (r, 2n)) is sum_p w_p mu_p with w = (B A)^T u: a square's
    weight goes on the diagonal of M and every other pair's weight is split
    over its two symmetric entries.
    """
    r, n = coeff.shape[0], maps[0].n
    weights = (coeff @ maps[0].B)[:, None] @ np.stack([sm.A for sm in maps])    # (r, 1, P)
    half = 0.5 * weights[:, 0]
    first, second = _pair_arrays(n)
    forms = np.zeros((r, n, n))
    forms[:, first, second] = half
    forms[:, second, first] += half
    return forms


def _values_at(f: Callable[[np.ndarray], np.ndarray], name: str, points: np.ndarray,
               gradient: bool = False) -> np.ndarray:
    """``f(points)`` as floats: one value (N,), or with ``gradient`` one
    gradient (N, 2), per point (N, 2).  Raises ValueError naming ``name``
    for any other shape."""
    return _shaped(f(points), name, (len(points), 2) if gradient else (len(points),))


def _shaped(values, name: str, want: tuple[int, ...]) -> np.ndarray:
    """``values`` as floats of shape ``want``, one row per point, or ValueError naming ``name``."""
    values = _as_array(values, ValueError, f"{name} must return numbers, got {{entry!r}}")
    if values.shape != want:
        raise ValueError(f"{name} must return shape {want} at {want[0]} points, "
                         f"got shape {values.shape}")
    return values


def _field_at(field: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
              points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``field(points)`` as floats: the pair of one value (N,) and one gradient
    (N, 2) per point (N, 2).  Raises ValueError naming ``field`` for anything else."""
    pair = field(points)
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
        raise ValueError(f"field must return a pair (u, grad), got {type(pair).__name__}")
    n = len(points)
    return _shaped(pair[0], "field", (n,)), _shaped(pair[1], "field", (n, 2))


@dataclass(frozen=True, eq=False)
class AssembledMatrix(SparseMatrix):
    """A stiffness matrix from ``assemble``, with the mesh and coordinate kind
    it was built on.  Its ``interior`` system is extracted on first use and
    kept, so every solve after the first reuses it."""

    mesh: PolyMesh = field(repr=False)
    kind: CoordinateKind

    @cached_property
    def interior(self) -> SparseMatrix:
        """The matrix on the interior unknowns of ``dof_map(mesh)``."""
        return self.submatrix(dof_map(self.mesh).interior_dofs)


def assemble(
    mesh: PolyMesh,
    kind: CoordinateKind | str,
    source: Callable[[np.ndarray], np.ndarray] | None = None,
    quad_degree: int = 10,
    maps: Sequence[SerendipityMap] | None = None,
    dofmap: DofMap | None = None,
) -> tuple[AssembledMatrix, np.ndarray]:
    """Stiffness matrix, as an ``AssembledMatrix`` that carries ``mesh`` and
    ``kind``, and load vector for the Poisson problem.

    ``source`` is the right-hand side f as a callable from points (N, 2) to
    one finite value each (N,); None means f = 0.  Per-cell quadrature uses
    a centroid fan exact to ``quad_degree``.  Each translation class's
    element stiffness is formed once, on its representative; the load
    evaluates f at every cell's own points.  ``maps`` and ``dofmap`` select
    nothing: anything but the mesh's own raises ValueError.

    Each cell gives (2n)^2 triplets, written in place a member slice at a time into
    arrays sized once from ``dof_map(mesh).groups``.
    """
    _check_own(mesh, maps, dofmap)
    kind = CoordinateKind(kind)
    dofmap = dof_map(mesh)
    ndof = dofmap.n_dofs
    total = sum(dofs.shape[0] * dofs.shape[1] ** 2 for _, dofs in dofmap.groups)
    index = np.int32 if ndof <= np.iinfo(np.int32).max else np.int64
    rows = np.empty(total, dtype=index)
    cols = np.empty(total, dtype=index)
    vals = np.empty(total)
    at = 0
    rhs = np.zeros(ndof)
    for chunk, chunk_maps, rule, members in _element_chunks(mesh, kind, quad_degree):
        # The stiffness reads only the gradients; the values serve the load.
        basis = _basis(chunk, kind, chunk_maps, np.moveaxis(rule.points, -1, 0),
                       values=source is not None)
        dpsi = basis[-2:]
        k_loc = np.sum((dpsi * rule.weights[:, None]) @ np.swapaxes(dpsi, 2, 3), axis=0)
        del dpsi
        r, size, _ = k_loc.shape
        for dofs, owner, shift in members:
            c = len(dofs)
            block = slice(at, at + c * size * size)
            rows[block].reshape(c, size, size)[...] = dofs[:, :, None]
            cols[block].reshape(c, size, size)[...] = dofs[:, None, :]
            vals[block].reshape(c, size, size)[...] = k_loc[owner]
            at = block.stop
            if source is not None:
                points = _member_points(rule, owner, shift)
                wf = rule.weights[owner] * _values_at(source, "source", points).reshape(c, -1)
                # Every cell against every basis row of the chunk; each keeps its owner's block.
                # A non-finite source value (inf - inf here) is raised below, from rhs.
                with np.errstate(invalid="ignore"):
                    loads = wf @ basis[0].reshape(r * size, -1).T           # (c, r 2n)
                np.add.at(rhs, dofs, loads.reshape(c, r, size)[np.arange(c), owner])
        del basis                                   # before the next chunk's basis
    if not np.all(np.isfinite(rhs)):
        raise ValueError("source must return finite values")
    matrix = SparseMatrix.from_triplets(ndof, rows, cols, vals)
    return AssembledMatrix(matrix.dim, matrix.data, matrix.indices, matrix.indptr,
                           mesh=mesh, kind=kind), rhs


@dataclass(frozen=True, eq=False)
class DiscreteSolution:
    """Finite element solution: one value per unknown of ``dof_map(mesh)``, or ValueError."""

    mesh: PolyMesh
    kind: CoordinateKind
    values: np.ndarray
    report: SolveReport

    def __post_init__(self) -> None:
        values = _as_array(self.values, ValueError, "values must be numbers, got {entry!r}")
        object.__setattr__(self, "values", values)
        want = (dof_map(self.mesh).n_dofs,)
        if values.shape != want:
            raise ValueError(f"values must have shape {want}, one per unknown, got {values.shape}")

    @property
    def dofmap(self) -> DofMap:
        """The mesh's own ``dof_map(mesh)``."""
        return dof_map(self.mesh)


def solve_dirichlet(
    matrix: AssembledMatrix,
    rhs: np.ndarray,
    mesh: PolyMesh,
    dofmap: DofMap,
    kind: CoordinateKind | str,
    dirichlet: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-12,
    maps: Sequence[SerendipityMap] | None = None,
) -> DiscreteSolution:
    """Impose boundary values at boundary nodes and solve the reduced system.

    ``matrix`` must be the ``AssembledMatrix`` that ``assemble`` built on
    this mesh with this coordinate kind, and ``rhs`` hold one load per
    unknown; anything else raises ValueError.  ``dirichlet`` maps the
    boundary nodes (b, 2) to one finite value each (b,).  ``dofmap`` and
    ``maps`` select nothing: anything but the mesh's own raises ValueError.
    The reduced system is the matrix's ``interior``, extracted once per matrix.
    """
    _check_own(mesh, maps, dofmap)
    kind = CoordinateKind(kind)
    if not isinstance(matrix, AssembledMatrix):
        raise ValueError("matrix must be the AssembledMatrix that assemble returned")
    if matrix.mesh is not mesh:
        raise ValueError("matrix was assembled on another mesh")
    if matrix.kind is not kind:
        raise ValueError(f"matrix was assembled with {matrix.kind.value} coordinates, "
                         f"not {kind.value}")
    rhs = _as_array(rhs, ValueError, "rhs must be an array of numbers, got {entry!r}")
    if rhs.shape != (dofmap.n_dofs,):
        raise ValueError(f"rhs must have shape ({dofmap.n_dofs},), one load per unknown, "
                         f"got {rhs.shape}")
    coords = node_coordinates(mesh)
    bnd = dofmap.boundary_dofs
    inner = dofmap.interior_dofs
    values = np.zeros(dofmap.n_dofs)
    values[bnd] = _values_at(dirichlet, "dirichlet", coords[bnd])
    if not np.all(np.isfinite(values)):
        raise ValueError("dirichlet must return finite values")
    lifted = matrix.matvec(values)
    report = cg_solve(matrix.interior, rhs[inner] - lifted[inner], tol=tol)
    values[inner] = report.solution
    return DiscreteSolution(mesh=mesh, kind=kind, values=values, report=report)


@dataclass(frozen=True)
class ErrorNorms:
    """L2 error and H1 seminorm (gradient L2) error against an exact field."""

    l2: float
    h1: float


def _solution_slices(solution: DiscreteSolution, quad_degree: int):
    """The solution on slices of cells: (points (N, 2), weights (N,), block
    (3, N)) at the quadrature points of every cell, the block holding the
    values and then the two gradient components, a new array per slice.

    A chunk in which every translation class is one cell (every chunk of a
    mesh with no two cells alike) is one slice, and forms no basis: on each
    cell u_h = lambda^T M lambda (``_solution_forms``) and
    grad u_h = 2 sum_i (M lambda)_i grad lambda_i.  A chunk with a repeated
    class evaluates the basis on its representatives, and each slice of
    members takes one matrix product with its values and gradients: each
    cell's coefficients fill its representative's block of an otherwise
    zero row.  There one basis serves many cells: a form per member, at its
    representative's coordinates, made the trapezoid refinement study 5%
    slower.
    """
    kind = CoordinateKind(solution.kind)
    for chunk, chunk_maps, rule, members in _element_chunks(solution.mesh, kind, quad_degree):
        r, m = rule.weights.shape
        if sum(len(dofs) for dofs, _, _ in members) == r:
            [(dofs, _, _)] = members                                    # owners 0, ..., r - 1
            lam, dlam = _coordinates(chunk, kind, np.moveaxis(rule.points, -1, 0))
            lam, dlam = lam.transpose(1, 0, 2), dlam.transpose(2, 0, 1, 3)  # (r, n, m), (r, 2, n, m)
            m_lam = _solution_forms(chunk_maps, solution.values[dofs]) @ lam  # (r, n, m)
            block = np.empty((3, r, m))
            np.einsum("rnm,rnm->rm", lam, m_lam, out=block[0])
            np.einsum("rdnm,rnm->drm", dlam, m_lam, out=block[1:])
            block[1:] *= 2.0
            del lam, dlam, m_lam                    # before the next chunk's coordinates
            yield rule.points.reshape(-1, 2), rule.weights.ravel(), block.reshape(3, -1)
            continue
        basis = _basis(chunk, kind, chunk_maps, np.moveaxis(rule.points, -1, 0)).reshape(3, -1, m)
        for dofs, owner, shift in members:
            c = len(dofs)
            coeff = np.zeros((c, r, dofs.shape[1]))
            coeff[np.arange(c), owner] = solution.values[dofs]
            coeff = coeff.reshape(c, -1)                                # (c, r 2n)
            yield (_member_points(rule, owner, shift), rule.weights[owner].ravel(),
                   (coeff @ basis).reshape(3, -1))                      # (3, c m)
        del basis                                   # before the next chunk's basis


def error_norms(
    solution: DiscreteSolution,
    field: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    grad_u_exact: Callable[[np.ndarray], np.ndarray] | None = None,
    quad_degree: int = 14,
) -> ErrorNorms:
    """L2 and H1-seminorm errors of ``solution`` against an exact field.

    ``field`` maps points (N, 2) to the pair of one finite value each (N,)
    and one gradient each (N, 2), as ``harmonic_field`` does; anything else,
    or a non-finite error sum, raises ValueError naming ``field``.  Given
    ``grad_u_exact``, ``field`` is the value alone, u_exact (N,), and
    ``grad_u_exact`` the gradient (N, 2), and the errors name those two.
    The exact field is evaluated at every cell's own quadrature points, and
    the solution there as ``_solution_slices`` says: a cell that is its own
    translation class as one quadratic form in its coordinates, with no
    basis formed, and any other from its class representative's basis.
    Each slice's block of values and gradients becomes the squared errors
    in place.  The L2 row takes its own dot product with the weights and
    the two gradient rows one product: a single product of all three rows
    sums in another order, and moved the errors in their last digit.
    """
    if grad_u_exact is None:
        names, exact = ("field", "field"), lambda points: _field_at(field, points)
    else:
        names = ("u_exact", "grad_u_exact")
        exact = lambda points: (_values_at(field, "u_exact", points),
                                _values_at(grad_u_exact, "grad_u_exact", points, gradient=True))
    acc_l2 = 0.0
    acc_h1 = 0.0
    for points, weights, block in _solution_slices(solution, quad_degree):
        u, grad = exact(points)
        block[0] -= u
        block[1:] -= grad.T
        np.square(block, out=block)
        acc_l2 += float(block[0] @ weights)
        gx, gy = (block[1:] @ weights).tolist()
        acc_h1 += gx + gy
    for name, acc in zip(names, (acc_l2, acc_h1)):
        if not math.isfinite(acc):
            raise ValueError(f"{name} must return finite values")
    return ErrorNorms(l2=float(np.sqrt(acc_l2)), h1=float(np.sqrt(acc_h1)))


def harmonic_field(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``harmonic_exact`` and ``harmonic_gradient`` at points (N, 2), bitwise,
    with sin(x), cos(x) and e^y computed once.

    Both are views of one (3, N) array: u its first row, and the gradient
    (N, 2) the transpose of the other two, as ``harmonic_gradient`` returns it.
    """
    pts = np.atleast_2d(points)
    block = np.empty((3, len(pts)))
    np.sin(pts[:, 0], out=block[0])
    np.cos(pts[:, 0], out=block[1])
    np.exp(pts[:, 1], out=block[2])
    block[:2] *= block[2]                       # sin(x) e^y, cos(x) e^y
    block[2] = block[0]
    return block[0], block[1:].T


def harmonic_exact(points: np.ndarray) -> np.ndarray:
    """Smooth harmonic benchmark field sin(x) e^y on the unit square."""
    pts = np.atleast_2d(points)
    return np.sin(pts[:, 0]) * np.exp(pts[:, 1])


def harmonic_gradient(points: np.ndarray) -> np.ndarray:
    """Gradient (N, 2) of ``harmonic_exact``, (cos(x) e^y, sin(x) e^y), at points (N, 2).

    The result is the transposed view of a coordinate-major (2, N) array,
    so each component, and the transpose, is contiguous.
    """
    pts = np.atleast_2d(points)
    ex = np.exp(pts[:, 1])
    grad = np.empty((2, len(pts)))
    np.multiply(np.cos(pts[:, 0]), ex, out=grad[0])
    np.multiply(np.sin(pts[:, 0]), ex, out=grad[1])
    return grad.T


@dataclass(frozen=True)
class ConvergenceRow:
    """One level of ``convergence_study``.  ``timings`` holds the seconds
    (``time.perf_counter``) of its phases: "mesh", "maps" (the DOF map and
    the cell maps), "assemble", "solve" and "norms"; rows compare without it."""

    n: int
    dofs: int
    l2_error: float
    l2_rate: float | None
    h1_error: float
    h1_rate: float | None
    timings: dict[str, float] = field(compare=False)


def convergence_study(
    levels: Sequence[int],
    kind: CoordinateKind | str = CoordinateKind.MEAN_VALUE,
    offset: float = 0.25,
    quad_degree: int = 10,
    norm_degree: int = 14,
    tol: float = 1e-12,
) -> list[ConvergenceRow]:
    """Refinement study on trapezoid meshes of the unit square.

    Solves the zero-source Dirichlet problem whose solution is the
    harmonic field sin(x) e^y.  Rates compare successive levels through the
    mesh-size ratio, so any strictly increasing sequence of n works (others
    raise MeshError); doubling gives the classic log2 ratios.  The maps are
    built before the assembly, so that each row's ``timings`` show them apart.
    """
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise MeshError(f"levels must be strictly increasing, got {tuple(levels)}")
    rows: list[ConvergenceRow] = []
    prev: ConvergenceRow | None = None
    for n in levels:
        clock = [time.perf_counter()]
        mesh = trapezoid_mesh(n, offset)
        clock.append(time.perf_counter())
        dofmap = dof_map(mesh)
        cell_maps(mesh)
        clock.append(time.perf_counter())
        matrix, rhs = assemble(mesh, kind, quad_degree=quad_degree)
        clock.append(time.perf_counter())
        sol = solve_dirichlet(matrix, rhs, mesh, dofmap, kind, harmonic_exact, tol=tol)
        clock.append(time.perf_counter())
        err = error_norms(sol, harmonic_field, quad_degree=norm_degree)
        clock.append(time.perf_counter())
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
            timings=dict(zip(("mesh", "maps", "assemble", "solve", "norms"),
                             np.diff(clock).tolist())),
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
        vertices, cells = data["vertices"], data["cells"]
    except (KeyError, TypeError) as exc:
        raise MeshError(f"malformed mesh data: {exc}") from exc
    return PolyMesh.build(vertices, cells)
