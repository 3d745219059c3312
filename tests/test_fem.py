"""Meshes, degree-of-freedom layout, Poisson assembly/solve, error norms,
inter-element continuity, and the refinement study driver."""

from __future__ import annotations

import json
import re
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import corpus
import oracles
from polyserend import (
    CoefficientBlowupError,
    CoordinateKind,
    GeometryError,
    MeshError,
    Polygon,
    PolygonBatch,
    PolyMesh,
    SolveReport,
    assemble,
    boundary_basis_values,
    build_map,
    cell_maps,
    check_conditions,
    convergence_study,
    dof_map,
    error_norms,
    eval_basis_batch,
    harmonic_exact,
    harmonic_field,
    harmonic_gradient,
    interior_angles,
    mesh_from_json,
    mesh_to_json,
    node_coordinates,
    polygon_rule,
    solve_dirichlet,
    trapezoid_mesh,
)
from polyserend.barycentric import DEFAULT_BOUNDARY_EPS, BoundaryEvaluationError, fan_apex
from polyserend import fem
from polyserend.fem import DiscreteSolution
from polyserend.quadrature import fan_rule, rule_layouts
from polyserend.serendipity import Strategy

MV = CoordinateKind.MEAN_VALUE


def make_solution(mesh, values, kind=MV):
    return DiscreteSolution(mesh=mesh, kind=kind, values=values,
                            report=SolveReport(values, 0, 0.0, True))


def quadratic_field():
    u = lambda p: p[:, 0] ** 2 + 0.5 * p[:, 0] * p[:, 1] - p[:, 1] ** 2 + p[:, 0] - 2.0
    gu = lambda p: np.stack(
        [2.0 * p[:, 0] + 0.5 * p[:, 1] + 1.0, 0.5 * p[:, 0] - 2.0 * p[:, 1]], axis=1
    )
    return u, gu


def loop_trapezoid_mesh(n, offset):
    """Vertices and cells of trapezoid_mesh(n, offset), one vertex and one cell at a time."""
    m = n + 1
    verts = np.empty((m * m, 2))
    for i in range(m):
        for j in range(m):
            y = 0.0 if j == 0 else 1.0 if j == n else j / n + ((-1) ** (i + j)) * offset / n
            verts[i * m + j] = (i / n, y)
    cells = [(i * m + j, (i + 1) * m + j, (i + 1) * m + j + 1, i * m + j + 1)
             for i in range(n) for j in range(n)]
    return verts, cells


class TestTrapezoidMesh:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("offset", [0.0, 0.25, 0.45])
    def test_matches_loop_construction(self, n, offset):
        """The array construction gives the loop's vertices bit for bit, and
        the same mesh as building from a list of cell tuples."""
        verts, cells = loop_trapezoid_mesh(n, offset)
        mesh = trapezoid_mesh(n, offset)
        assert np.array_equal(mesh.vertices, verts)
        assert mesh.cells == tuple(cells)
        from_list = PolyMesh.build(verts, cells)
        assert np.array_equal(mesh.edges, from_list.edges)
        [(ids, idx, edges)] = mesh.groups
        [(ids2, idx2, edges2)] = from_list.groups
        assert np.array_equal(ids, ids2) and np.array_equal(idx, idx2)
        assert np.array_equal(edges, edges2)

    def test_single_cell_is_unit_square(self):
        mesh = trapezoid_mesh(1, 0.37)
        assert mesh.n_cells == 1
        assert mesh.vertices == pytest.approx(
            np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float), abs=0.0
        )
        assert mesh.polygons[0].area == pytest.approx(1.0, abs=1e-15)

    def test_two_by_two_layout(self):
        mesh = trapezoid_mesh(2, 0.25)
        assert mesh.n_vertices == 9
        assert mesh.n_cells == 4
        # every interior grid point shifts by offset/n; boundary rows stay flat
        center = mesh.vertices[1 * 3 + 1]
        assert center == pytest.approx([0.5, 0.5 + 0.25 / 2], abs=1e-15)
        total = sum(p.area for p in mesh.polygons)
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_zero_offset_gives_squares(self):
        mesh = trapezoid_mesh(3, 0.0)
        for poly in mesh.polygons:
            lengths = oracles.edge_lengths(poly)
            assert lengths == pytest.approx(np.full(4, 1.0 / 3.0), abs=1e-15)

    def test_cells_are_trapezoids_with_vertical_parallel_sides(self):
        mesh = trapezoid_mesh(4, 0.4)
        for poly in mesh.polygons:
            v = poly.vertices
            # ordering: bottom-left, bottom-right, top-right, top-left
            left = v[3] - v[0]
            right = v[2] - v[1]
            assert left[0] == pytest.approx(0.0, abs=1e-15)
            assert right[0] == pytest.approx(0.0, abs=1e-15)

    def test_cells_have_equal_area(self):
        """The checkerboard shift moves area between neighbors symmetrically:
        every cell keeps area exactly 1/n^2."""
        for n, off in ((2, 0.25), (3, 0.2), (4, 0.45)):
            mesh = trapezoid_mesh(n, off)
            areas = np.array([p.area for p in mesh.polygons])
            assert areas == pytest.approx(np.full(n * n, 1.0 / n**2), abs=1e-15)

    def test_offset_domain_validated(self):
        with pytest.raises(MeshError, match="offset"):
            trapezoid_mesh(2, 0.5)
        with pytest.raises(MeshError, match="offset"):
            trapezoid_mesh(2, -0.1)
        with pytest.raises(MeshError):
            trapezoid_mesh(0, 0.25)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
    def test_non_integer_size_rejected(self, n):
        with pytest.raises(MeshError, match=f"integer n >= 1, got {n!r}"):
            trapezoid_mesh(n)
        assert trapezoid_mesh(2, 0.45).n_cells == 4
        assert trapezoid_mesh(2, 0.0).n_cells == 4


@st.composite
def candidate_cells(draw):
    """Vertices of one cell near the unit circle: convex, or flattened at a
    vertex, nearly flat, collinear, with a repeated vertex, clockwise or
    reflex."""
    n = draw(st.integers(3, 7))
    gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
    angles = 2.0 * np.pi * np.cumsum(gaps) / np.sum(gaps)
    verts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    flaw = draw(st.sampled_from(
        ["none", "flat", "near-flat", "collinear", "repeated", "clockwise", "reflex"]))
    if flaw in ("flat", "near-flat"):
        edge = verts[1] - verts[0]
        mid = verts[0] + draw(st.floats(0.1, 0.9)) * edge
        if flaw == "near-flat":
            # Off the edge by a sine of about the convexity tolerance, either way.
            sine = draw(st.sampled_from([-1e-11, -1e-13, 1e-13, 1e-11]))
            mid = mid + sine * np.hypot(*edge) * np.array([-edge[1], edge[0]]) / np.hypot(*edge)
        verts = np.insert(verts, 1, mid, axis=0)
    elif flaw == "collinear":
        verts[:, 1] = 0.5 * verts[:, 0]
    elif flaw == "repeated":
        verts[1] = verts[0] + draw(st.sampled_from([0.0, 1e-13]))
    elif flaw == "clockwise":
        verts = verts[::-1].copy()
    elif flaw == "reflex":
        verts[1] *= draw(st.floats(0.05, 0.9))
    return verts


def hanging_node_mesh() -> PolyMesh:
    """The unit square as a triangle whose long side two smaller triangles
    split: a quadrilateral with a flat vertex at the centre."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
    return PolyMesh.build(verts, [(0, 1, 4, 3), (1, 2, 4), (4, 2, 3)])


class TestPolyMeshValidation:
    def test_repeated_vertex_in_cell(self):
        with pytest.raises(MeshError, match="repeats"):
            PolyMesh.build(np.eye(2), [(0, 1, 0)])

    def test_out_of_range_index(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="out of range"):
            PolyMesh.build(verts, [(0, 1, 5)])

    def test_nonconvex_cell_rejected(self):
        verts = np.array(
            [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0], [1.0, 1.0]]
        )
        with pytest.raises(MeshError, match="cell 0"):
            PolyMesh.build(verts, [(0, 1, 4, 2, 3)])

    def test_clockwise_cell_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(MeshError):
            PolyMesh.build(verts, [(0, 3, 2, 1)])

    def test_cell_with_two_vertices_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(MeshError, match=r"^cell 1 is not a valid convex polygon: "
                                            r"a polygon needs at least 3 vertices, got 2$"):
            PolyMesh.build(verts, [[0, 1, 2, 3], [1, 4]])

    def test_index_that_is_a_sequence_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="^cells must be a sequence of vertex-index sequences$"):
            PolyMesh.build(verts, [[[0], [1], [2]]])

    def test_duplicate_directed_edge(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="directed edge"):
            PolyMesh.build(verts, [(0, 1, 2, 3), (0, 1, 2, 3)])

    def test_orphan_vertex_rejected(self):
        """A vertex no cell uses would leave a zero row in the stiffness
        matrix; the mesh is refused before assembly."""
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 2.0]])
        with pytest.raises(MeshError, match="vertex 3 is used by no cell"):
            PolyMesh.build(verts, [(0, 1, 2)])

    @pytest.mark.parametrize("entry", [1.7, 1.0, "1", True, None, np.float64(1.0), np.True_],
                             ids=["float", "whole-float", "str", "bool", "None", "np-float",
                                  "np-bool"])
    def test_non_integer_index_rejected(self, entry):
        """An index that is not an integer used to be cast to one (1.7 became 1)."""
        square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        with pytest.raises(MeshError, match=f"cell 1 has a vertex index that is not an integer: "
                                            f"{re.escape(repr(entry))}"):
            PolyMesh.build(np.array(square + [[2.0, 0.0], [2.0, 1.0]]),
                           [[1, 4, 5, 2], [0, entry, 2, 3]])
        with pytest.raises(MeshError, match="cell 0 has a vertex index that is not an integer"):
            mesh_from_json({"vertices": square, "cells": [[0, entry, 2, 3]]})

    def test_integer_indices_accepted_in_every_form(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        for cells in ([[0, 1, 2, 3]], [(np.int32(0), 1, np.uint8(2), 3)],
                      np.array([[0, 1, 2, 3]], dtype=np.uint16)):
            assert PolyMesh.build(square, cells).cells == ((0, 1, 2, 3),)
        with pytest.raises(MeshError, match="cell 0 has a vertex index that is not an integer"):
            PolyMesh.build(square, np.array([[0.0, 1.0, 2.0, 3.0]]))

    def test_empty_mesh_rejected(self):
        with pytest.raises(MeshError, match="no cells"):
            PolyMesh.build(np.zeros((3, 2)), [])

    @pytest.mark.parametrize("vertices", [
        [[0, 0], [1, 0], [1]],
        [[0, 0], ["a", 0], [0, 1]],
        {"x": [0, 1, 0], "y": [0, 0, 1]},
        [[0, 0], [10**400, 0], [0, 1]],
        [["0", "0"], ["1", "0"], ["0", "1e0"]],
        [[False, False], [True, False], [False, True]],
        [[0, 0], [True, 0], [0, 1]],
    ], ids=["ragged", "string", "dict", "int-overflow", "numeric-string", "bool", "bool-among-ints"])
    def test_vertices_that_are_not_numbers_rejected(self, vertices):
        """The first four used to escape as a bare ValueError, TypeError or
        OverflowError; numeric strings and booleans were read as the unit
        triangle, and so was a JSON true among numbers.  Meshes and polygons
        share one conversion."""
        with pytest.raises(MeshError, match="vertices must be an array of numbers"):
            PolyMesh.build(vertices, [(0, 1, 2)])
        with pytest.raises(MeshError, match="vertices must be an array of numbers"):
            mesh_from_json({"vertices": vertices, "cells": [[0, 1, 2]]})
        with pytest.raises(GeometryError, match="vertices must be an array of numbers"):
            Polygon(vertices)
        with pytest.raises(GeometryError, match="vertices must be an array of numbers"):
            PolygonBatch.from_vertices([vertices])

    @pytest.mark.parametrize("cells", [5, [5], [[0, 1, 2], 5], np.zeros((1, 4, 2), int),
                                       np.array([0, 1, 2]), [{0, 1, 2}]],
                             ids=["int", "list-of-int", "int-after-cell", "3-d", "1-d", "set"])
    def test_cells_that_are_not_index_sequences_rejected(self, cells):
        """These used to escape as a bare TypeError or ValueError.  A set
        has no order, so its cell has no orientation."""
        verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(MeshError, match="cells must be a"):
            PolyMesh.build(verts, cells)

    def test_bad_vertex_array(self):
        with pytest.raises(MeshError, match="shape"):
            PolyMesh.build(np.zeros((4, 3)), [(0, 1, 2)])
        bad = np.array([[0.0, 0.0], [1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(MeshError, match="finite"):
            PolyMesh.build(bad, [(0, 1, 2)])

    def test_hanging_vertex_rejected(self):
        """A T-junction: vertex 6 splits the right side of cell 0 for its two
        neighbors, but cell 0 does not list it.  The three edges along that
        side each belong to one cell, so 18 of the 19 unknowns would land on
        the boundary."""
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                          [2.0, 0.0], [2.0, 0.5], [1.0, 0.5], [2.0, 1.0]])
        with pytest.raises(MeshError, match=r"vertex 6 lies inside boundary edge \(1, 2\)"):
            PolyMesh.build(verts, [(0, 1, 2, 3), (1, 4, 5, 6), (6, 5, 7, 2)])
        # Listing the vertex in cell 0 makes it a flat vertex and the mesh conforming.
        mesh = PolyMesh.build(verts, [(0, 1, 6, 2, 3), (1, 4, 5, 6), (6, 5, 7, 2)])
        assert len(dof_map(mesh).interior_dofs) == 4

    def test_crossing_boundary_edges_rejected(self):
        """Two unit squares offset by (0.5, 0.5), each with its own vertices:
        they share no vertex and no edge, but they overlap, and the right side
        of the first crosses the bottom side of the second."""
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        verts = np.vstack([square, square + 0.5])
        with pytest.raises(MeshError, match=r"boundary edges \(1, 2\) and \(4, 5\) cross"):
            PolyMesh.build(verts, [(0, 1, 2, 3), (4, 5, 6, 7)])
        # Apart, the two squares make a valid two-cell mesh.
        assert PolyMesh.build(np.vstack([square, square + 2.0]),
                              [(0, 1, 2, 3), (4, 5, 6, 7)]).n_cells == 2

    @pytest.mark.parametrize("verts, cells, twins", [
        ([[0, 0], [1, 0], [1, 1], [0, 1], [1, 0], [2, 0], [2, 1], [1, 1]],
         [(0, 1, 2, 3), (4, 5, 6, 7)], (1, 4)),
        ([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1], [1, 1]],
         [(0, 1, 4, 5), (1, 2, 3, 6)], (4, 6)),
        ([[0, 0], [1, 0], [1, 1], [0, 1], [1, 1], [2, 1], [2, 2], [1, 2]],
         [(0, 1, 2, 3), (4, 5, 6, 7)], (2, 4)),
    ], ids=["cracked-edge", "one-sided-crack", "corner"])
    def test_two_vertex_ids_at_one_point_rejected(self, verts, cells, twins):
        """Two unit squares that meet through distinct vertex ids at the same
        points.  Along a shared side this made both sides boundary edges: with
        f = 1 and u = 0 on the boundary, meanvalue gave u(1, 0.5) = 0.0 where
        the conforming mesh gives its largest value, 0.145, with no error."""
        with pytest.raises(MeshError, match=f"vertices {twins[0]} and {twins[1]} lie at one point"):
            PolyMesh.build(np.array(verts, dtype=float), cells)

    def test_squares_touching_at_a_shared_corner_build(self):
        """Through one vertex id, two squares that touch at a corner are a mesh."""
        verts = [[0, 0], [1, 0], [1, 1], [0, 1], [2, 1], [2, 2], [1, 2]]
        assert PolyMesh.build(verts, [(0, 1, 2, 3), (2, 4, 5, 6)]).n_cells == 2

    @pytest.mark.parametrize("shift, covered", [(1.0, 0), (0.2, 1)])
    def test_nested_cell_rejected(self, shift, covered):
        """A unit square with its own four vertices inside a 3 x 3 square: no
        boundary edges touch, but the inner square's centroid is covered by
        both cells (and so is the outer one's when they are concentric)."""
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        verts = np.vstack([3.0 * square, square + shift])
        with pytest.raises(MeshError, match=f"cells overlap: the centroid of cell {covered} "
                                            "is covered by 2 cells"):
            PolyMesh.build(verts, [(0, 1, 2, 3), (4, 5, 6, 7)])
        with pytest.raises(MeshError, match="the centroid of cell 0 is covered by 2 cells"):
            PolyMesh.build(verts, [(4, 5, 6, 7), (0, 1, 2, 3)])

    def test_nested_patch_rejected(self):
        """A 2 x 2 patch of cells inside one large cell: its interior edges
        cancel, and each of its cells is covered twice."""
        patch = trapezoid_mesh(2, 0.0)
        outer = np.array([[-1.0, -1.0], [3.0, -1.0], [3.0, 3.0], [-1.0, 3.0]])
        verts = np.vstack([patch.vertices, outer])
        cells = list(patch.cells) + [(9, 10, 11, 12)]
        with pytest.raises(MeshError, match="cell 0 is covered by 2 cells"):
            PolyMesh.build(verts, cells)

    def test_mesh_with_hole_accepted(self):
        """Eight unit squares around a missing ninth: the hole's boundary runs
        clockwise, and every cell covers its centroid once."""
        full = trapezoid_mesh(3, 0.0)
        ring = [cell for i, cell in enumerate(full.cells) if i != 4]
        mesh = PolyMesh.build(full.vertices, ring)
        assert mesh.n_cells == 8
        assert int(np.sum(mesh.boundary_edges)) == 16

    @pytest.mark.parametrize("make", [
        corpus.mixed_mesh, corpus.voronoi_mesh, hanging_node_mesh,
        *[lambda n=n, o=o: trapezoid_mesh(n, o) for n in (1, 2, 5, 16) for o in (0.0, 0.25, 0.45)],
    ])
    def test_conforming_meshes_accepted(self, make):
        """Flat-vertex pentagons, Voronoi cells, a hanging-node quadrilateral
        and every trapezoid mesh have no vertex inside a boundary edge and
        cover every point once."""
        mesh = make()
        assert PolyMesh.build(mesh.vertices, mesh.cells).cells == mesh.cells

    @pytest.mark.parametrize("cells, message", [
        # Cell 2 (a clockwise quadrilateral) is in the group checked first.
        ([(0, 1, 2, 3), (4, 5, 6, 7, 8), (12, 11, 10, 9)],
         "cell 1 is not a valid convex polygon: polygon is not convex (reflex vertex)"),
        ([(0, 1, 2, 3), (0, 1, 2, 3), (12, 11, 10, 9)], "directed edge (0, 1) appears twice"),
        ([(12, 11, 10, 9), (0, 1, 2, 3), (0, 1, 2, 3)],
         "cell 0 is not a valid convex polygon: vertices must be in counterclockwise order"),
    ])
    def test_lowest_bad_cell_is_reported(self, cells, message):
        """With several faults, the one a cell-by-cell check would meet first
        is raised: the lowest-numbered bad cell, whatever its vertex count."""
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        pentagon = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [2.0, 2.0], [0.0, 2.0]])
        verts = np.vstack([square, pentagon + [2.0, 0.0], square + [5.0, 0.0]])
        with pytest.raises(MeshError) as err:
            PolyMesh.build(verts, cells)
        assert str(err.value).startswith(message)

    @given(st.lists(candidate_cells(), min_size=1, max_size=6))
    def test_group_validation_accepts_exactly_what_polygon_accepts(self, shapes):
        """Cells of mixed vertex counts, apart from each other: the array pass
        per vertex count accepts a cell exactly when Polygon and a
        PolygonBatch of it do, and a mesh with bad cells reports the lowest
        one with Polygon's own message."""
        shapes = [shape + [4.0 * i, 0.0] for i, shape in enumerate(shapes)]
        problems = []
        for shape in shapes:
            try:
                Polygon(shape)
                problems.append(None)
            except GeometryError as exc:
                problems.append(str(exc))
            if problems[-1] is None:
                assert len(PolygonBatch.from_vertices(shape[None])) == 1
            else:
                with pytest.raises(GeometryError) as err:
                    PolygonBatch.from_vertices(shape[None])
                assert str(err.value) == f"polygon 0: {problems[-1]}"
            cell = [tuple(range(len(shape)))]
            if problems[-1] is None:
                assert PolyMesh.build(shape, cell).n_cells == 1
            else:
                with pytest.raises(MeshError, match="cell 0 is not a valid convex polygon"):
                    PolyMesh.build(shape, cell)
        starts = np.cumsum([0] + [len(shape) for shape in shapes])
        cells = [tuple(range(a, b)) for a, b in zip(starts, starts[1:])]
        verts = np.vstack(shapes)
        bad = [i for i, p in enumerate(problems) if p is not None]
        if not bad:
            assert PolyMesh.build(verts, cells).cells == tuple(cells)
        else:
            with pytest.raises(MeshError) as err:
                PolyMesh.build(verts, cells)
            assert str(err.value) == (
                f"cell {bad[0]} is not a valid convex polygon: {problems[bad[0]]}"
            )

    def test_mixed_mesh_valid(self):
        mesh = corpus.mixed_mesh()
        assert mesh.n_cells == 3
        sizes = sorted(len(c) for c in mesh.cells)
        assert sizes == [4, 4, 5]
        total = sum(p.area for p in mesh.polygons)
        assert total == pytest.approx(1.0, abs=1e-14)


def loop_dof_map(mesh):
    """Edges, per-cell unknowns and boundary mask numbered one cell at a time."""
    edge_count = defaultdict(int)
    for cell in mesh.cells:
        for t in range(len(cell)):
            edge_count[tuple(sorted((cell[t], cell[(t + 1) % len(cell)])))] += 1
    edges = sorted(edge_count)
    index = {e: mesh.n_vertices + k for k, e in enumerate(edges)}
    cell_dofs = [
        list(cell) + [index[tuple(sorted((cell[t], cell[(t + 1) % len(cell)])))]
                      for t in range(len(cell))]
        for cell in mesh.cells
    ]
    boundary = np.zeros(mesh.n_vertices + len(edges), dtype=bool)
    for e, count in edge_count.items():
        if count == 1:
            boundary[[e[0], e[1], index[e]]] = True
    return edges, cell_dofs, boundary


class TestDofMap:
    @pytest.mark.parametrize("make", [
        lambda: trapezoid_mesh(5, 0.3), corpus.mixed_mesh, corpus.voronoi_mesh,
    ])
    def test_matches_per_cell_numbering(self, make):
        mesh = make()
        dm = dof_map(mesh)
        edges, cell_dofs, boundary = loop_dof_map(mesh)
        assert dm.edges.dtype == np.int64 and not dm.edges.flags.writeable
        assert [tuple(e) for e in dm.edges.tolist()] == edges
        assert [d.tolist() for d in oracles.cell_dofs(dm)] == cell_dofs
        assert np.array_equal(dm.boundary, boundary)
        assert not mesh.boundary_edges.flags.writeable
        assert np.array_equal(mesh.boundary_edges, boundary[mesh.n_vertices:])
        for ids, dofs in dm.groups:
            assert np.array_equal(dofs, np.array([cell_dofs[i] for i in ids]))

    def test_counts_on_two_by_two(self):
        mesh = trapezoid_mesh(2, 0.25)
        dm = dof_map(mesh)
        assert dm.n_vertex_dofs == 9
        assert len(dm.edges) == 12
        assert dm.n_dofs == 21
        assert len(dm.boundary_dofs) == 16
        assert len(dm.interior_dofs) == 5

    def test_cell_dofs_order_vertices_then_edges(self):
        mesh = trapezoid_mesh(2, 0.25)
        dm = dof_map(mesh)
        for cell, dofs in zip(mesh.cells, oracles.cell_dofs(dm)):
            k = len(cell)
            assert len(dofs) == 2 * k
            assert tuple(dofs[:k]) == cell
            for t in range(k):
                edge = tuple(sorted((cell[t], cell[(t + 1) % k])))
                assert tuple(dm.edges[dofs[k + t] - dm.n_vertex_dofs]) == edge

    def test_node_coordinates_layout(self):
        mesh = trapezoid_mesh(2, 0.25)
        dm = dof_map(mesh)
        coords = node_coordinates(mesh)
        assert coords.shape == (dm.n_dofs, 2)
        assert coords[: dm.n_vertex_dofs] == pytest.approx(mesh.vertices, abs=0.0)
        e0 = dm.edges[0]
        assert coords[dm.n_vertex_dofs] == pytest.approx(
            0.5 * (mesh.vertices[e0[0]] + mesh.vertices[e0[1]]), abs=0.0
        )

    def test_shared_edge_gets_one_dof(self):
        mesh = corpus.mixed_mesh()
        dm = dof_map(mesh)
        seen = defaultdict(int)
        for dofs, cell in zip(oracles.cell_dofs(dm), mesh.cells):
            for d in dofs[len(cell):]:
                seen[int(d)] += 1
        interior_edge_dofs = [d for d, c in seen.items() if c == 2]
        # the mixed mesh has exactly three shared edges
        assert len(interior_edge_dofs) == 3


def reachable_arrays(obj, seen=None):
    """Every ndarray reachable from ``obj`` through dataclass fields, tuples,
    lists and named tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        children = obj
    elif hasattr(obj, "__dataclass_fields__"):
        children = [getattr(obj, name) for name in obj.__dataclass_fields__]
    else:
        return []
    return [array for child in children for array in reachable_arrays(child, seen)]


class TestDerivedFromTheMesh:
    """The mesh determines its DOF map and cell maps, so they are computed
    once per mesh, and a ``maps`` or ``dofmap`` argument that is not the
    mesh's own raises instead of giving a wrong matrix or solution."""

    @pytest.mark.parametrize("make", [lambda: trapezoid_mesh(2), corpus.mixed_mesh])
    def test_every_array_of_a_mesh_and_its_cached_results_is_read_only(self, make):
        """The class batches and maps are cached on the mesh, so a moved
        vertex once left the next assemble unchanged while node_coordinates
        moved, and a vertex moved to make a cell reflex raised nothing."""
        mesh = make()
        cached = (mesh, mesh.translation_classes, mesh.class_batches, dof_map(mesh),
                  cell_maps(mesh), mesh.polygons)
        arrays = reachable_arrays(cached)
        assert len(arrays) > 20
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]

    def test_computed_once_per_mesh(self):
        mesh = trapezoid_mesh(4)
        assert cell_maps(mesh) is cell_maps(mesh)
        assert dof_map(mesh) is dof_map(mesh)
        sol = make_solution(mesh, np.zeros(dof_map(mesh).n_dofs))
        assert sol.dofmap is dof_map(mesh)

    def test_own_maps_accepted_as_tuple_or_list(self):
        mesh = trapezoid_mesh(4)
        mat, rhs = assemble(mesh, MV)
        dm, maps = dof_map(mesh), cell_maps(mesh)
        want = solve_dirichlet(mat, rhs, mesh, dm, MV, harmonic_exact).values
        for given in (maps, list(maps)):
            matrix, load = assemble(mesh, MV, maps=given, dofmap=dm)
            assert np.array_equal(matrix.data, mat.data) and np.array_equal(load, rhs)
            sol = solve_dirichlet(mat, rhs, mesh, dm, MV, harmonic_exact, maps=given)
            assert np.array_equal(sol.values, want)

    def test_maps_of_another_mesh_rejected(self):
        """With the maps of trapezoid_mesh(4, 0.1) the stiffness entries were
        off by up to 0.96, and the errors read L2 1.37e-3 for 4.49e-4."""
        mesh = trapezoid_mesh(4, 0.25)
        other = cell_maps(trapezoid_mesh(4, 0.1))
        mat, rhs = assemble(mesh, MV)
        dm = dof_map(mesh)
        swapped = list(cell_maps(mesh))
        swapped[5] = other[5]
        for maps in (other, swapped, cell_maps(mesh)[:-1]):
            with pytest.raises(ValueError, match="maps must be the mesh's own"):
                assemble(mesh, MV, maps=maps)
            with pytest.raises(ValueError, match="maps must be the mesh's own"):
                solve_dirichlet(mat, rhs, mesh, dm, MV, harmonic_exact, maps=maps)

    def test_dofmap_of_another_mesh_rejected(self):
        """trapezoid_mesh(5)'s map gave a 96 x 96 matrix for 65 unknowns."""
        mesh = trapezoid_mesh(4)
        mat, rhs = assemble(mesh, MV)
        for dm in (dof_map(trapezoid_mesh(5)), dof_map(trapezoid_mesh(4))):
            with pytest.raises(ValueError, match="dofmap must be the mesh's own"):
                assemble(mesh, MV, dofmap=dm)
            with pytest.raises(ValueError, match="dofmap must be the mesh's own"):
                solve_dirichlet(mat, rhs, mesh, dm, MV, harmonic_exact)

    def test_matrix_of_another_mesh_rejected(self):
        """Solved on trapezoid_mesh(4, 0.25), the matrix of trapezoid_mesh(4, 0.1)
        gave L2/H1 1.10e-2/1.81e-1 for 4.49e-4/9.26e-3, with no error; a
        Wachspress matrix solved as mean value would be measured in a basis
        it was not assembled in.  A hand-built matrix carries no mesh at all.
        The f = 1 load of trapezoid_mesh(5), 96 entries, solved on
        trapezoid_mesh(4)'s 65 unknowns gave nodal values off by 0.041 where
        the largest is 0.073, with no error."""
        mesh = trapezoid_mesh(4, 0.25)
        dm = dof_map(mesh)
        mat, rhs = assemble(mesh, MV)
        other, _ = assemble(trapezoid_mesh(4, 0.1), MV)
        with pytest.raises(ValueError, match="matrix was assembled on another mesh"):
            solve_dirichlet(other, rhs, mesh, dm, MV, harmonic_exact)
        wachspress, _ = assemble(mesh, CoordinateKind.WACHSPRESS)
        with pytest.raises(ValueError, match="matrix was assembled with wachspress coordinates, "
                                             "not meanvalue"):
            solve_dirichlet(wachspress, rhs, mesh, dm, "meanvalue", harmonic_exact)
        hand_built = fem.SparseMatrix(mat.dim, mat.data, mat.indices, mat.indptr)
        with pytest.raises(ValueError, match="matrix must be the AssembledMatrix"):
            solve_dirichlet(hand_built, rhs, mesh, dm, MV, harmonic_exact)
        _, longer = assemble(trapezoid_mesh(5), MV, source=lambda p: np.ones(len(p)))
        for load in (longer, rhs[:-1], rhs[:, None]):
            with pytest.raises(ValueError, match=r"rhs must have shape \(65,\)"):
                solve_dirichlet(mat, load, mesh, dm, MV, harmonic_exact)
        err = error_norms(solve_dirichlet(mat, rhs, mesh, dm, MV, harmonic_exact), harmonic_field)
        assert err.l2 == pytest.approx(4.49e-4, rel=1e-2)
        assert err.h1 == pytest.approx(9.26e-3, rel=1e-2)

    def test_interior_system_is_extracted_once_per_matrix(self, monkeypatch):
        """Later solves of a matrix from ``assemble`` reuse its interior system
        and give the same bits; the mesh and kind are still checked on every
        solve.  A matrix that ``assemble`` did not build is tied to no mesh,
        so it is refused, not solved by extracting the system again."""
        mesh = trapezoid_mesh(4, 0.25)
        dm = dof_map(mesh)
        mat, rhs = assemble(mesh, MV)
        first = solve_dirichlet(mat, rhs, mesh, dm, MV, harmonic_exact)
        calls = []
        real = fem.SparseMatrix.submatrix
        monkeypatch.setattr(fem.SparseMatrix, "submatrix",
                            lambda self, keep: calls.append(len(keep)) or real(self, keep))
        second = solve_dirichlet(mat, rhs, mesh, dm, MV, harmonic_exact)
        assert calls == []
        assert np.array_equal(second.values, first.values)
        assert second.report.iterations == first.report.iterations
        other = trapezoid_mesh(4, 0.1)
        with pytest.raises(ValueError, match="matrix was assembled on another mesh"):
            solve_dirichlet(mat, rhs, other, dof_map(other), MV, harmonic_exact)
        with pytest.raises(ValueError, match="matrix was assembled with meanvalue coordinates"):
            solve_dirichlet(mat, rhs, mesh, dm, CoordinateKind.WACHSPRESS, harmonic_exact)
        unrecorded = fem.SparseMatrix(mat.dim, mat.data, mat.indices, mat.indptr)
        with pytest.raises(ValueError, match="matrix must be the AssembledMatrix"):
            solve_dirichlet(unrecorded, rhs, mesh, dm, MV, harmonic_exact)
        u, _ = quadratic_field()
        fresh, _ = assemble(mesh, MV)
        want = solve_dirichlet(fresh, rhs, mesh, dm, MV, u).values
        assert np.array_equal(solve_dirichlet(mat, rhs, mesh, dm, MV, u).values, want)
        assert calls == [len(dm.interior_dofs)]

    def test_solution_needs_one_value_per_unknown(self):
        mesh = trapezoid_mesh(4)
        with pytest.raises(ValueError, match=r"values must have shape \(65,\)"):
            make_solution(mesh, np.zeros(72))


class TestAssembly:
    @pytest.mark.parametrize("kind", [MV, CoordinateKind.TRIANGULATION])
    def test_non_integer_degree_rejected(self, kind):
        """quad_degree=3.5 used to assemble, and measure errors, with the
        degree-3 rule."""
        mesh = trapezoid_mesh(2)
        with pytest.raises(GeometryError, match="expected integer quadrature degree"):
            assemble(mesh, kind, quad_degree=3.5)
        mat, rhs = assemble(mesh, kind)
        sol = solve_dirichlet(mat, rhs, mesh, dof_map(mesh), kind, harmonic_exact)
        with pytest.raises(GeometryError, match="expected integer quadrature degree"):
            error_norms(sol, harmonic_field, quad_degree=3.5)

    def test_row_sums_vanish(self):
        mesh = trapezoid_mesh(2, 0.25)
        mat, _ = assemble(mesh, MV)
        dense = mat.toarray()
        scale = float(np.max(np.abs(dense)))
        assert float(np.max(np.abs(dense.sum(axis=1)))) <= 1e-10 * scale

    def test_symmetric(self):
        mesh = corpus.mixed_mesh()
        mat, _ = assemble(mesh, MV)
        dense = mat.toarray()
        assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))

    def test_unit_load_integrates_area(self):
        mesh = trapezoid_mesh(3, 0.3)
        _, rhs = assemble(mesh, MV, source=lambda p: np.ones(len(p)))
        assert float(rhs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_single_cell_matches_refinement_oracle(self):
        """Structural check of the assembly loop against an independently
        triangulated integrator (entry tolerance reflects the production
        rule's own accuracy on rational integrands, not the loop)."""
        mesh = trapezoid_mesh(1, 0.0)
        poly = mesh.polygons[0]
        smap = build_map(poly)
        mat, _ = assemble(mesh, MV)
        dense = mat.toarray()
        dm = dof_map(mesh)
        dofs = oracles.cell_dofs(dm)[0]

        def entry(i, j):
            def f(pts):
                _, d = eval_basis_batch(poly, MV, smap, pts)
                return np.sum(d[:, i, :] * d[:, j, :], axis=1)
            return f

        for i in (0, 3, 5):
            for j in (0, 2, 7):
                want = corpus.refined_polygon_integral(poly, entry(i, j),
                                                       levels=4, degree=12)
                assert dense[dofs[i], dofs[j]] == pytest.approx(want, abs=5e-6)

    def test_constant_in_kernel(self):
        mesh = corpus.mixed_mesh()
        mat, _ = assemble(mesh, MV)
        ones = np.ones(dof_map(mesh).n_dofs)
        assert float(np.max(np.abs(mat.matvec(ones)))) <= 1e-9


class TestSolveAndErrors:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_values_rejected(self, bad):
        """Non-finite data used to end in a ConvergenceError (CLI exit 3) at a
        nan residual, and a non-finite exact field in l2 = nan."""
        mesh = trapezoid_mesh(2, 0.25)
        dm = dof_map(mesh)
        poisoned = lambda p: np.where(p[:, 0] > 0.5, bad, 1.0)
        with pytest.raises(ValueError, match="source must return finite values"):
            assemble(mesh, MV, source=poisoned, dofmap=dm)
        mat, rhs = assemble(mesh, MV, dofmap=dm)
        with pytest.raises(ValueError, match="dirichlet must return finite values"):
            solve_dirichlet(mat, rhs, mesh, dm, MV, poisoned)
        sol = solve_dirichlet(mat, rhs, mesh, dm, MV, harmonic_exact)
        with pytest.raises(ValueError, match="u_exact must return finite values"):
            error_norms(sol, poisoned, harmonic_gradient)
        with pytest.raises(ValueError, match="grad_u_exact must return finite values"):
            error_norms(sol, harmonic_exact, lambda p: np.where(p > 0.5, bad, 1.0))
        with pytest.raises(ValueError, match="field must return finite values"):
            error_norms(sol, lambda p: (harmonic_exact(p), np.where(p > 0.5, bad, 1.0)))

    def test_field_values_need_one_per_point(self):
        """A scalar or wrongly shaped field used to fail inside numpy's
        reshape or broadcasting."""
        mesh = trapezoid_mesh(2, 0.25)
        dm = dof_map(mesh)
        mat, rhs = assemble(mesh, MV, dofmap=dm)
        with pytest.raises(ValueError, match=r"source must return shape \(\d+,\)"):
            assemble(mesh, MV, source=lambda p: 1.0, dofmap=dm)
        with pytest.raises(ValueError, match=r"dirichlet must return shape \(16,\) at 16 points"):
            solve_dirichlet(mat, rhs, mesh, dm, MV, lambda p: np.ones((len(p), 1)))
        sol = solve_dirichlet(mat, rhs, mesh, dm, MV, harmonic_exact)
        with pytest.raises(ValueError, match="u_exact must return shape"):
            error_norms(sol, lambda p: 0.0, harmonic_gradient)
        with pytest.raises(ValueError, match=r"grad_u_exact must return shape \(\d+, 2\)"):
            error_norms(sol, harmonic_exact, harmonic_exact)

    def test_zero_data_gives_zero(self):
        mesh = trapezoid_mesh(2, 0.25)
        dm = dof_map(mesh)
        mat, rhs = assemble(mesh, MV, dofmap=dm)
        sol = solve_dirichlet(mat, rhs, mesh, dm, MV, lambda p: np.zeros(len(p)))
        assert sol.values == pytest.approx(np.zeros(dm.n_dofs), abs=1e-13)

    @pytest.mark.parametrize("kind", [MV, CoordinateKind.WACHSPRESS,
                                      CoordinateKind.TRIANGULATION])
    def test_patch_quadratic_on_trapezoids(self, kind):
        """Quadratic exact solutions are reproduced to solver/quadrature
        accuracy on skewed meshes, for every coordinate kind."""
        mesh = trapezoid_mesh(2, 0.25)
        dm = dof_map(mesh)
        maps = cell_maps(mesh)
        u = lambda p: p[:, 0] ** 2
        gu = lambda p: np.stack([2.0 * p[:, 0], np.zeros(len(p))], axis=1)
        mat, rhs = assemble(mesh, kind, source=lambda p: -2.0 * np.ones(len(p)),
                            maps=maps, dofmap=dm)
        sol = solve_dirichlet(mat, rhs, mesh, dm, kind, u, maps=maps)
        err = error_norms(sol, u, gu)
        assert err.l2 <= 1e-8
        assert err.h1 <= 1e-7

    def test_patch_quadratic_on_mixed_mesh(self):
        """For both kinds that support the pentagon's flat vertex."""
        mesh = corpus.mixed_mesh()
        dm = dof_map(mesh)
        maps = cell_maps(mesh)
        u, gu = quadratic_field()
        for kind in (MV, CoordinateKind.TRIANGULATION):
            # The field x^2 + 0.5xy - y^2 + x - 2 is harmonic, so the source is zero.
            mat, rhs = assemble(mesh, kind, source=None, maps=maps, dofmap=dm)
            sol = solve_dirichlet(mat, rhs, mesh, dm, kind, u, maps=maps)
            err = error_norms(sol, u, gu)
            assert err.l2 <= 1e-8
            assert err.h1 <= 1e-7

    def test_hanging_node_quadrilateral_mesh(self):
        """The unit square as a triangle whose long side two smaller triangles
        split: a quadrilateral with a flat vertex at the centre.  Both kinds
        that support it pass the patch test; Wachspress coordinates refuse it."""
        mesh = hanging_node_mesh()
        dm = dof_map(mesh)
        maps = cell_maps(mesh)
        assert maps[0].strategy is Strategy.QUADRILATERAL
        assert len(dm.interior_dofs) == 4
        u, gu = quadratic_field()
        for kind in (MV, CoordinateKind.TRIANGULATION):
            mat, rhs = assemble(mesh, kind, source=None, maps=maps, dofmap=dm)
            sol = solve_dirichlet(mat, rhs, mesh, dm, kind, u, maps=maps)
            err = error_norms(sol, u, gu)
            assert err.l2 <= 1e-8
            assert err.h1 <= 1e-7
        with pytest.raises(GeometryError, match="flat vertex"):
            assemble(mesh, CoordinateKind.WACHSPRESS, maps=maps, dofmap=dm)

    def test_single_cell_mesh_all_boundary(self):
        """A one-cell mesh has no interior unknowns; the solve degenerates to
        pure interpolation of the boundary data and must not crash."""
        mesh = trapezoid_mesh(1, 0.0)
        dm = dof_map(mesh)
        assert len(dm.interior_dofs) == 0
        mat, rhs = assemble(mesh, MV, source=lambda p: -2.0 * np.ones(len(p)))
        u = lambda p: p[:, 0] ** 2
        gu = lambda p: np.stack([2.0 * p[:, 0], np.zeros(len(p))], axis=1)
        sol = solve_dirichlet(mat, rhs, mesh, dm, MV, u)
        err = error_norms(sol, u, gu)
        assert err.l2 <= 1e-10

    def test_harmonic_benchmark_coarse(self):
        rows = convergence_study([2], kind=MV)
        assert rows[0].l2_error == pytest.approx(2.34e-3, rel=2.0)
        assert rows[0].h1_error == pytest.approx(2.22e-2, rel=2.0)
        assert rows[0].l2_rate is None and rows[0].h1_rate is None

    def test_error_norms_of_nodal_interpolant(self):
        mesh = trapezoid_mesh(2, 0.25)
        u, gu = quadratic_field()
        coords = node_coordinates(mesh)
        sol = make_solution(mesh, u(coords))
        err = error_norms(sol, u, gu)
        assert err.l2 <= 1e-12
        assert err.h1 <= 1e-11

    def test_error_norms_absolute_reference(self):
        mesh = trapezoid_mesh(2, 0.3)
        dm = dof_map(mesh)
        sol = make_solution(mesh, np.zeros(dm.n_dofs))
        err = error_norms(sol, lambda p: np.ones(len(p)),
                          lambda p: np.zeros((len(p), 2)))
        assert err.l2 == pytest.approx(1.0, abs=1e-13)
        assert err.h1 == pytest.approx(0.0, abs=1e-13)

    def test_error_norms_match_refinement_oracle(self):
        mesh = corpus.mixed_mesh()
        dm = dof_map(mesh)
        rng = np.random.default_rng(3)
        values = rng.normal(size=dm.n_dofs)
        sol = make_solution(mesh, values)
        u, gu = quadratic_field()
        err = error_norms(sol, u, gu)

        acc = 0.0
        for poly, smap, dofs in zip(mesh.polygons, cell_maps(mesh), oracles.cell_dofs(dm)):
            def sq(pts, poly=poly, smap=smap, dofs=dofs):
                psi, _ = eval_basis_batch(poly, MV, smap, pts)
                return (psi @ values[dofs] - u(pts)) ** 2
            acc += corpus.refined_polygon_integral(poly, sq, levels=3, degree=12)
        assert err.l2 == pytest.approx(float(np.sqrt(acc)), rel=1e-7)


def cell_rule(poly, kind, degree):
    if kind is CoordinateKind.TRIANGULATION:
        return fan_rule(poly, degree)
    return polygon_rule(poly, degree)


def reference_assembly(mesh, kind, source, degree=10):
    """Dense stiffness and load summed one cell at a time from single-polygon calls."""
    dm = dof_map(mesh)
    stiffness = np.zeros((dm.n_dofs, dm.n_dofs))
    load = np.zeros(dm.n_dofs)
    for poly, smap, dofs in zip(mesh.polygons, cell_maps(mesh), oracles.cell_dofs(dm)):
        rule = cell_rule(poly, kind, degree)
        psi, dpsi = eval_basis_batch(poly, kind, smap, rule.points)
        stiffness[np.ix_(dofs, dofs)] += np.einsum("q,qid,qjd->ij", rule.weights, dpsi, dpsi)
        load[dofs] += psi.T @ (rule.weights * source(rule.points))
    return stiffness, load


def reference_norms(sol, u, gu, degree=14):
    """L2 and H1 errors summed one cell at a time from single-polygon calls."""
    l2 = h1 = 0.0
    mesh = sol.mesh
    for poly, smap, dofs in zip(mesh.polygons, cell_maps(mesh), oracles.cell_dofs(dof_map(mesh))):
        rule = cell_rule(poly, sol.kind, degree)
        psi, dpsi = eval_basis_batch(poly, sol.kind, smap, rule.points)
        coeff = sol.values[dofs]
        l2 += rule.weights @ (psi @ coeff - u(rule.points)) ** 2
        dg = np.einsum("qid,i->qd", dpsi, coeff) - gu(rule.points)
        h1 += rule.weights @ np.sum(dg**2, axis=1)
    return float(np.sqrt(l2)), float(np.sqrt(h1))


def perturbed_trapezoid_mesh(n: int, shift: float) -> PolyMesh:
    """trapezoid_mesh(n) with one interior vertex moved by shift * h along x."""
    mesh = trapezoid_mesh(n)
    vertices = mesh.vertices.copy()
    vertices[3 * (n + 1) + 2, 0] += shift / n
    return PolyMesh.build(vertices, mesh.cells)


def stacked_mixed_mesh() -> PolyMesh:
    """Two copies of corpus.mixed_mesh, one on top of the other: two
    translated flat-vertex pentagons and four squares."""
    mixed = corpus.mixed_mesh()
    # Vertex of the bottom copy -> its translate in the top copy; the top
    # copy's bottom row (0, 1, 6) is the bottom copy's top row (4, 5, 7).
    top = {0: 4, 1: 5, 6: 7, 2: 8, 3: 9, 4: 10, 5: 11, 7: 12}
    vertices = np.vstack([mixed.vertices, mixed.vertices[[2, 3, 4, 5, 7]] + [0.0, 1.0]])
    cells = list(mixed.cells) + [[top[i] for i in c] for c in mixed.cells]
    return PolyMesh.build(vertices, cells)


def layout_keys(mesh: PolyMesh) -> list[tuple]:
    """Per cell: vertex count, polygon-rule layout size and fan apex."""
    size = {}
    for cells, points in oracles.rule_layouts(mesh.polygons, 10):
        size.update((int(i), points) for i in cells)
    return [(p.n, size[i], fan_apex(p)) for i, p in enumerate(mesh.polygons)]


def refined_levels() -> list[PolyMesh]:
    """trapezoid_mesh(4), then its lower-left 2 x 2 block of cells split in
    four, then the four children of cell 0 split again (``refine`` puts a
    split cell's children where the cell was)."""
    levels = [trapezoid_mesh(4)]
    for marked in ([0, 1, 4, 5], [0, 1, 2, 3]):
        levels.append(corpus.refine(levels[-1], marked))
    return levels


def solve_on(mesh, kind, u, gu, quad_degree=10, source=None):
    """Assemble, solve with Dirichlet data u and measure the errors against u."""
    dm = dof_map(mesh)
    maps = cell_maps(mesh)
    matrix, rhs = assemble(mesh, kind, source=source, quad_degree=quad_degree,
                           maps=maps, dofmap=dm)
    sol = solve_dirichlet(matrix, rhs, mesh, dm, kind, u, maps=maps)
    nodal = float(np.max(np.abs(sol.values - u(node_coordinates(mesh)))))
    return error_norms(sol, u, gu), nodal


KERNEL_MESHES = {
    # Its flat-vertex pentagon takes the raised-degree rule: two layouts.
    "mixed": corpus.mixed_mesh,
    # Quadrilaterals, pentagons and hexagons; quadrilateral and generic maps.
    "voronoi": corpus.voronoi_mesh,
    # 256 cells at 512 points each, far more than one chunk, in 6 translation
    # classes: members take shifted copies of their representative's points.
    "trapezoid16": lambda: trapezoid_mesh(16),
    # Repeated shapes, and the four cells around the moved vertex on their own.
    "trapezoid8_moved": lambda: perturbed_trapezoid_mesh(8, 1e-3),
    # Two levels of local refinement: squares, trapezoids and flat-vertex
    # pentagons with different fan apices.
    "refined": lambda: refined_levels()[2],
}

# The meshes on which Wachspress coordinates meet a flat vertex.
FLAT_MESHES = ("mixed", "refined")


# Chunk sizes the kernel is checked at besides fem.CHUNK_POINTS, so that it
# crosses chunk and member-slice boundaries more often: at 256 points a
# chunk of polygon_rule points holds one representative and a member slice,
# of four chunks' points, two or three cells; at 1024 a chunk holds two or
# three representatives and a member slice 8 to 14 cells of a class.
SMALL_CHUNK_POINTS = (256, 1024)


def kernel_chunk_sizes(monkeypatch):
    """Set fem.CHUNK_POINTS to each small size in turn, then back to its own."""
    for size in (*SMALL_CHUNK_POINTS, fem.CHUNK_POINTS):
        monkeypatch.setattr(fem, "CHUNK_POINTS", size)
        yield size


class TestElementKernel:
    """assemble and error_norms run over chunks of cells that share a rule
    layout; summing one cell at a time through the single-polygon calls is
    the reference."""

    def test_meshes_cover_layouts_and_chunks(self):
        mixed = corpus.mixed_mesh()
        assert len(oracles.rule_layouts(mixed.polygons, 10)) == 2
        voronoi = corpus.voronoi_mesh()
        assert {p.n for p in voronoi.polygons} == {4, 5, 6}
        assert any(m.strategy is Strategy.GENERIC for m in cell_maps(voronoi))
        [(cells, size)] = oracles.rule_layouts(trapezoid_mesh(16).polygons, 14)
        assert len(cells) * size > 100 * max(SMALL_CHUNK_POINTS)

    @pytest.mark.parametrize("kind", list(CoordinateKind))
    @pytest.mark.parametrize("name", list(KERNEL_MESHES))
    def test_assembly_matches_per_cell_reference(self, name, kind, monkeypatch):
        mesh = KERNEL_MESHES[name]()
        source = lambda p: np.cos(3.0 * p[:, 0]) + p[:, 1]
        if name in FLAT_MESHES and kind is CoordinateKind.WACHSPRESS:
            # Both refuse the flat-vertex pentagon.
            for build in (assemble, reference_assembly):
                with pytest.raises(GeometryError, match="flat vertex"):
                    build(mesh, kind, source)
            return
        stiffness, load = reference_assembly(mesh, kind, source)
        for _ in kernel_chunk_sizes(monkeypatch):
            mat, rhs = assemble(mesh, kind, source=source)
            assert np.max(np.abs(mat.toarray() - stiffness)) <= 1e-13 * np.max(np.abs(stiffness))
            assert np.max(np.abs(rhs - load)) <= 1e-13 * np.max(np.abs(load))

    @pytest.mark.parametrize("name, kind", [
        (name, kind) for name in KERNEL_MESHES for kind in CoordinateKind
        if not (name in FLAT_MESHES and kind is CoordinateKind.WACHSPRESS)
    ])
    def test_stiffness_bits_do_not_depend_on_the_chunk_size(self, name, kind, monkeypatch):
        """A representative's element matrix is formed from its own basis
        alone, whichever chunk holds it, so the stiffness matrix is bitwise
        the same at every chunk size, with or without a source: the
        conjugate gradient iterates do not move when the chunk size does."""
        mesh = KERNEL_MESHES[name]()
        source = lambda p: np.cos(3.0 * p[:, 0]) + p[:, 1]
        seen = set()
        for _ in kernel_chunk_sizes(monkeypatch):
            for m, _ in (assemble(mesh, kind), assemble(mesh, kind, source=source)):
                seen.add((m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes()))
        assert len(seen) == 1

    @pytest.mark.parametrize("kind", list(CoordinateKind))
    @pytest.mark.parametrize("name", list(KERNEL_MESHES))
    def test_error_norms_match_per_cell_reference(self, name, kind, monkeypatch):
        mesh = KERNEL_MESHES[name]()
        dm = dof_map(mesh)
        coords = node_coordinates(mesh)
        values = harmonic_exact(coords) + 1e-3 * np.cos(np.arange(dm.n_dofs))
        sol = make_solution(mesh, values, kind)
        if name in FLAT_MESHES and kind is CoordinateKind.WACHSPRESS:
            # Both refuse the flat-vertex pentagon.
            for norms in (error_norms, reference_norms):
                with pytest.raises(GeometryError, match="flat vertex"):
                    norms(sol, harmonic_exact, harmonic_gradient)
            return
        l2, h1 = reference_norms(sol, harmonic_exact, harmonic_gradient)
        for _ in kernel_chunk_sizes(monkeypatch):
            err = error_norms(sol, harmonic_field)
            assert err.l2 == pytest.approx(l2, rel=1e-13)
            assert err.h1 == pytest.approx(h1, rel=1e-13)

    @pytest.mark.parametrize("name, kind", [
        (name, kind) for name in ("trapezoid16", "voronoi", "mixed", "refined")
        for kind in CoordinateKind
        if not (name in FLAT_MESHES and kind is CoordinateKind.WACHSPRESS)
    ])
    def test_quadratic_interpolant_has_no_error(self, name, kind, monkeypatch):
        """The nodal interpolant of a quadratic is the quadratic itself, so
        its errors are round-off; a member cell that takes another
        representative's basis gives errors of order one."""
        mesh = KERNEL_MESHES[name]()
        u = lambda p: p[:, 0] ** 2 - p[:, 0] * p[:, 1] + 2.0 * p[:, 1]
        gu = lambda p: np.stack([2.0 * p[:, 0] - p[:, 1], 2.0 - p[:, 0]], axis=1)
        sol = make_solution(mesh, u(node_coordinates(mesh)), kind)
        for _ in kernel_chunk_sizes(monkeypatch):
            err = error_norms(sol, u, gu)
            assert err.l2 <= 1e-12 and err.h1 <= 1e-12

    @pytest.mark.parametrize("degree", [10, 14])
    @pytest.mark.parametrize("kind", [MV, CoordinateKind.TRIANGULATION])
    @pytest.mark.parametrize("name", list(KERNEL_MESHES))
    def test_chunk_rules_equal_rules_of_each_chunk(self, name, kind, degree, monkeypatch):
        """The rule is mapped once per span of whole chunks; each chunk's
        view of it is bitwise the rule of the chunk alone."""
        mesh = KERNEL_MESHES[name]()
        rule_of = fan_rule if kind is CoordinateKind.TRIANGULATION else polygon_rule
        for _ in kernel_chunk_sizes(monkeypatch):
            for chunk, _, rule, _ in fem._element_chunks(mesh, kind, degree):
                own = rule_of(chunk, degree)
                assert rule.degree == own.degree and len(rule) == len(own)
                assert rule.points.tobytes() == own.points.tobytes()
                assert rule.weights.tobytes() == own.weights.tobytes()
                assert not (rule.points.flags.writeable or rule.weights.flags.writeable)

    def test_rules_are_mapped_once_per_span(self, monkeypatch):
        """At 1024 points a chunk of a Voronoi mesh holds two or three
        representatives, and a span the 8 to 12 of three or four chunks."""
        mesh = corpus.voronoi_mesh(per_side=8)
        calls = []
        real_rule = fem.polygon_rule

        def counting_rule(batch, degree):
            calls.append(len(batch))
            return real_rule(batch, degree)

        monkeypatch.setattr(fem, "polygon_rule", counting_rule)
        monkeypatch.setattr(fem, "CHUNK_POINTS", 1024)
        chunks = sum(1 for _ in fem._element_chunks(mesh, MV, 10))
        assert sum(calls) == mesh.n_cells
        assert len(calls) <= chunks / 3

    def test_basis_and_maps_are_built_once_per_class(self, monkeypatch):
        """One assemble and one error_norms evaluate the basis on each class
        representative once per quadrature degree, not on every cell."""
        mesh = trapezoid_mesh(16)
        classes = len(np.unique(mesh.translation_classes))
        evaluated, built = [], []
        real_eval, real_build = fem._basis, fem.build_map

        def counting_eval(polygon, *args, **kwargs):
            evaluated.append(len(polygon))
            return real_eval(polygon, *args, **kwargs)

        def counting_build(polygons):
            built.extend(polygons)
            return real_build(polygons)

        monkeypatch.setattr(fem, "_basis", counting_eval)
        monkeypatch.setattr(fem, "build_map", counting_build)
        maps = cell_maps(mesh)
        assert len(built) == classes
        matrix, rhs = assemble(mesh, MV, source=lambda p: p[:, 0], maps=maps)
        sol = make_solution(mesh, harmonic_exact(node_coordinates(mesh)))
        error_norms(sol, harmonic_field)
        assert 0 < sum(evaluated) <= 2 * classes


    @staticmethod
    def count_polygons(monkeypatch) -> list:
        """Count ``fem.Polygon`` calls and, separately, every Polygon built anywhere."""
        built = []
        real_polygon, real_init = fem.Polygon, Polygon.__post_init__

        def counting_polygon(*args, **kwargs):
            built.append("fem")
            return real_polygon(*args, **kwargs)

        def counting_init(self):
            built.append("any")
            real_init(self)

        monkeypatch.setattr(fem, "Polygon", counting_polygon)
        monkeypatch.setattr(Polygon, "__post_init__", counting_init)
        return built

    def test_no_polygon_is_built_per_op(self, monkeypatch):
        """Mesh build, DOF map, maps, assembly, solve and error norms of a
        refinement study build no Polygon: the kernel reads each group's
        class representatives from one PolygonBatch."""
        built = self.count_polygons(monkeypatch)
        rows = convergence_study((4, 8, 16))
        assert len(rows) == 3
        assert built == []

    def test_no_polygon_is_built_on_a_voronoi_mesh(self, monkeypatch):
        """The same on a mesh with one class per cell."""
        template = corpus.voronoi_mesh()
        built = self.count_polygons(monkeypatch)
        mesh = PolyMesh.build(template.vertices, template.cells)
        dm = dof_map(mesh)
        maps = cell_maps(mesh)
        kind = CoordinateKind.WACHSPRESS
        matrix, rhs = assemble(mesh, kind, maps=maps, dofmap=dm)
        sol = solve_dirichlet(matrix, rhs, mesh, dm, kind, harmonic_exact, maps=maps)
        err = error_norms(sol, harmonic_field)
        assert err.l2 < 1e-3
        assert built == []


def strip_mesh(w: float) -> PolyMesh:
    """The unit square split at y = w: a strip of height w under a near-square."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, w], [0.0, w], [1.0, 1.0], [0.0, 1.0]])
    return PolyMesh.build(vertices, [[0, 1, 2, 3], [3, 2, 4, 5]])


def translated(mesh: PolyMesh, shift: float) -> PolyMesh:
    return PolyMesh.build(mesh.vertices + shift, [list(cell) for cell in mesh.cells])


def every_cell_rule(mesh: PolyMesh, degree: int, fan: bool):
    """(polygon, rule) of every cell of ``mesh``, each rule a row of the batch
    rule of its cells' layout, as the element kernel maps it."""
    rule_of = fan_rule if fan else polygon_rule
    for ids, cells, _ in mesh.groups:
        batch = PolygonBatch.from_vertices(mesh.vertices[cells])
        for rows, _ in rule_layouts(batch, degree, fan=fan):
            rule = rule_of(batch[rows], degree)
            for k, cell in enumerate(ids[rows].tolist()):
                yield mesh.polygons[cell], rule[k]


class TestRulePointsInside:
    """The element kernel evaluates its own rule points unchecked; a per-cell
    clearance bound of each rule vouches for them, and where it cannot, the
    points are checked one by one and refused as ``eval_coords_batch``
    refuses them."""

    # The point and edge distance that the per-point check names on the strip
    # of height 1e-9, from assemble (degree 10) and from error_norms (degree 14).
    SLIVER = {
        "wachspress": (("0.0365272, 1.23335e-12", "1.233e-12"), ("0.977683, 4.43105e-13", "4.431e-13")),
        "triangulation": (("0.0705876, 9.97533e-10", "2.467e-12"),
                          ("0.0437477, 9.99114e-10", "8.862e-13")),
    }
    SLIVER["meanvalue"] = SLIVER["wachspress"]

    @staticmethod
    def refusal(point: str, distance: str) -> str:
        return (f"point ({point}) is not strictly inside the polygon "
                f"(closest edge distance {distance}, required > 1.000e-10)")

    @pytest.mark.parametrize("kind", list(CoordinateKind))
    def test_sliver_cell_is_refused(self, kind):
        """A strip of height 1e-9 has rule points within 1e-10 diameters of
        its edges: assemble and error_norms raise, with the per-point message.
        A strip of height 1e-6 assembles and measures; one of 1e-11 is no mesh."""
        mesh = strip_mesh(1e-9)
        in_assembly, in_norms = self.SLIVER[kind.value]
        for source in (None, lambda p: p[:, 0]):
            with pytest.raises(BoundaryEvaluationError) as raised:
                assemble(mesh, kind, source=source)
            assert str(raised.value) == self.refusal(*in_assembly)
        solution = make_solution(mesh, np.zeros(dof_map(mesh).n_dofs), kind=kind.value)
        with pytest.raises(BoundaryEvaluationError) as raised:
            error_norms(solution, harmonic_field)
        assert str(raised.value) == self.refusal(*in_norms)
        mesh = strip_mesh(1e-6)
        matrix, _ = assemble(mesh, kind.value)
        assert np.all(np.isfinite(matrix.data))
        solution = make_solution(mesh, harmonic_exact(node_coordinates(mesh)), kind=kind.value)
        norms = error_norms(solution, harmonic_field)
        assert 0.0 < norms.l2 < norms.h1 < 1.0
        with pytest.raises(MeshError, match="lie at one point"):
            strip_mesh(1e-11)

    @pytest.mark.parametrize("name, mesh", [
        ("mixed", corpus.mixed_mesh),
        ("refined", lambda: refined_levels()[-1]),
        ("voronoi", corpus.voronoi_mesh),
        *((f"voronoi16-{seed}", lambda seed=seed: corpus.voronoi_mesh(16, seed))
          for seed in range(10)),
        ("trapezoid4", lambda: trapezoid_mesh(4)),
        ("trapezoid16", lambda: trapezoid_mesh(16)),
        ("trapezoid16-far", lambda: translated(trapezoid_mesh(16), 1e6)),
    ])
    def test_clearance_bounds_every_rule_point(self, name, mesh):
        """No point of a polygon_rule or fan_rule lies nearer its polygon's
        edges, as edge_distances computes them, than the rule's clearance
        bound, and on these meshes the bound clears the boundary check."""
        mesh = mesh()
        for degree, fan in ((10, False), (14, False), (10, True), (14, True)):
            for polygon, rule in every_cell_rule(mesh, degree, fan):
                assert rule._clearance <= np.min(polygon.edge_distances(rule.points))
                assert rule._clearance > DEFAULT_BOUNDARY_EPS * polygon.diameter

    def test_no_point_is_checked_on_the_benchmark_meshes(self, monkeypatch):
        """Assembly and error norms on the meshes of the benchmark workloads
        never fall back to checking points one by one; the strip of height
        1e-9, whose bound cannot vouch for it, does, and is refused there."""
        checked = []
        real = fem._reject_boundary_points

        def counting(chunk, points):
            checked.append(len(chunk))
            return real(chunk, points)

        monkeypatch.setattr(fem, "_reject_boundary_points", counting)
        cases = [(corpus.voronoi_mesh(16, seed), CoordinateKind.WACHSPRESS) for seed in (0, 1)]
        cases += [(trapezoid_mesh(n), kind) for n in (4, 8, 16) for kind in CoordinateKind]
        cases += [(trapezoid_mesh(64), CoordinateKind.TRIANGULATION)]
        for mesh, kind in cases:
            for degree in (10, 14):
                assert sum(1 for _ in fem._element_chunks(mesh, kind, degree)) > 0
        assert checked == []
        with pytest.raises(BoundaryEvaluationError):
            assemble(strip_mesh(1e-9), MV)
        assert checked


# Meshes with the kinds they admit, on which error_norms takes the solution's
# quadratic form on some or all chunks: the Voronoi mesh has no two cells
# alike, the mixed mesh a single flat-vertex pentagon next to two squares.
FORM_MESHES = [
    (name, make, kind)
    for name, make in (("voronoi", corpus.voronoi_mesh), ("mixed", corpus.mixed_mesh),
                       ("trapezoid8_moved", lambda: moved_trapezoid_mesh(8, 0.25, 0)))
    for kind in CoordinateKind
    if not (name == "mixed" and kind is CoordinateKind.WACHSPRESS)
]


class TestQuadraticFormNorms:
    """A chunk of single-cell classes measures the solution as one quadratic
    form in the coordinates per cell; the basis route of
    ``oracles.basis_error_norms`` is the reference."""

    @staticmethod
    def rough_solution(mesh, kind):
        values = harmonic_exact(node_coordinates(mesh))
        return make_solution(mesh, values + 1e-3 * np.cos(np.arange(len(values))), kind)

    @pytest.mark.parametrize("name, make, kind", FORM_MESHES)
    def test_matches_basis_route(self, name, make, kind, monkeypatch):
        sol = self.rough_solution(make(), kind)
        want = oracles.basis_error_norms(sol, harmonic_exact, harmonic_gradient)
        for _ in kernel_chunk_sizes(monkeypatch):
            err = error_norms(sol, harmonic_field)
            assert err.l2 == pytest.approx(want.l2, rel=1e-12, abs=0.0)
            assert err.h1 == pytest.approx(want.h1, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", list(CoordinateKind))
    def test_repeated_classes_take_the_basis_route_bitwise(self, kind):
        """Every chunk of trapezoid_mesh(16) holds a repeated class."""
        sol = self.rough_solution(trapezoid_mesh(16), kind)
        want = oracles.basis_error_norms(sol, harmonic_exact, harmonic_gradient)
        assert error_norms(sol, harmonic_field) == want

    def test_no_basis_on_a_mesh_of_distinct_cells(self, monkeypatch):
        """On corpus.voronoi_mesh error_norms evaluates coordinates only; the
        assembly on the same mesh, the control, calls both counted kernels."""
        from polyserend import serendipity
        calls = defaultdict(int)

        def counting(module, name):
            real = getattr(module, name)

            def count(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, count)

        counting(fem, "_basis")
        counting(serendipity, "_products")
        mesh = corpus.voronoi_mesh()
        sol = self.rough_solution(mesh, CoordinateKind.WACHSPRESS)
        error_norms(sol, harmonic_field)
        assert calls == {}
        assemble(mesh, CoordinateKind.WACHSPRESS)
        assert calls["_basis"] > 0 and calls["_products"] > 0


class TestExactField:
    """``error_norms(solution, field)`` with one callable for the value and
    the gradient, and ``harmonic_field``, the study's field, computed once."""

    def test_harmonic_field_is_the_two_callables_bitwise(self):
        rng = np.random.default_rng(11)
        for points in (rng.uniform(-3.0, 3.0, (500, 2)), rng.uniform(-3.0, 3.0, (1, 2)),
                       np.moveaxis(rng.uniform(size=(2, 37)), 0, -1)):   # coordinate-major storage
            u, grad = harmonic_field(points)
            assert u.tobytes() == harmonic_exact(points).tobytes()
            assert grad.shape == (len(points), 2)
            assert grad.tobytes() == harmonic_gradient(points).tobytes()

    @pytest.mark.parametrize("name, make, kind", [
        *FORM_MESHES, *(("trapezoid8", lambda: trapezoid_mesh(8), kind) for kind in CoordinateKind)])
    def test_field_form_equals_the_two_callable_form(self, name, make, kind):
        """Both forms take the one accumulation, so they agree bit for bit."""
        sol = TestQuadraticFormNorms.rough_solution(make(), kind)
        assert error_norms(sol, harmonic_field) == error_norms(sol, harmonic_exact, harmonic_gradient)

    def test_study_calls_the_field_once_per_slice(self, monkeypatch):
        """The study evaluates its exact field once per solution slice, and
        never computes the gradient apart."""
        slices, calls = [], []
        real_slices, real_field = fem._solution_slices, fem.harmonic_field

        def counting_slices(*args):
            for points, weights, block in real_slices(*args):
                slices.append(len(points))
                yield points, weights, block

        def counting_field(points):
            calls.append(len(points))
            return real_field(points)

        def gradient_apart(points):
            raise AssertionError("harmonic_gradient was called")

        monkeypatch.setattr(fem, "_solution_slices", counting_slices)
        monkeypatch.setattr(fem, "harmonic_field", counting_field)
        monkeypatch.setattr(fem, "harmonic_gradient", gradient_apart)
        convergence_study((2, 4))
        assert calls == slices and len(calls) >= 2

    def test_rows_carry_phase_timings(self):
        """Every row times its five phases; rows compare without them."""
        first, second = convergence_study((2, 4)), convergence_study((2, 4))
        assert first == second
        for row in first + second:
            assert set(row.timings) == {"mesh", "maps", "assemble", "solve", "norms"}
            assert all(isinstance(t, float) and t >= 0.0 for t in row.timings.values())


class TestLocalRefinement:
    """Locally refined meshes: a split cell's neighbours list the new
    midpoints as flat vertices, the hanging nodes made conforming."""

    def test_refine_makes_flat_vertex_pentagons(self):
        coarse, once, twice = refined_levels()
        assert (coarse.n_cells, once.n_cells, twice.n_cells) == (16, 28, 40)
        for mesh, pentagons in ((once, 4), (twice, 8)):
            flat = [bool(np.any(np.isclose(interior_angles(p), np.pi))) for p in mesh.polygons]
            assert flat == [p.n == 5 for p in mesh.polygons]
            assert sum(flat) == pentagons
            assert sum(p.area for p in mesh.polygons) == pytest.approx(1.0, abs=1e-14)
        # The pentagons take the top-degree base rule (11 x 11 points a triangle).
        layouts = oracles.rule_layouts(once.polygons, 10)
        assert [size for _, size in layouts] == [8 * 6 * 6, 10 * 11 * 11]

    # Mean value coordinates are not polynomial, so the discrete solution
    # meets the quadratic only up to the quadrature error of the stiffness
    # integrals.  At a flat vertex that error stays at about 5e-9 in the
    # nodal values whatever the degree, because the pentagons already take
    # the top-degree base rule; degree 14 brings the rest below it.
    PATCH_CASES = [(CoordinateKind.TRIANGULATION, 10, 1e-9),
                   (CoordinateKind.MEAN_VALUE, 14, 1e-8)]

    @pytest.mark.parametrize("kind, degree, nodal_tol", PATCH_CASES)
    def test_quadratic_patch_test_on_three_levels(self, kind, degree, nodal_tol):
        u, gu = quadratic_field()
        for mesh in refined_levels():
            err, nodal = solve_on(mesh, kind, u, gu, quad_degree=degree)
            assert err.l2 <= 1e-9
            assert nodal <= nodal_tol

    @pytest.mark.parametrize("kind", [MV, CoordinateKind.TRIANGULATION])
    def test_rates_when_every_cell_is_split(self, kind):
        mesh = trapezoid_mesh(4)
        errors = []
        for _ in range(3):
            err, _ = solve_on(mesh, kind, harmonic_exact, harmonic_gradient)
            errors.append((err.l2, err.h1))
            mesh = corpus.refine(mesh, range(mesh.n_cells))
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(rates[:, 0] >= 2.7) and np.all(rates[:, 1] >= 1.8)

    @pytest.mark.parametrize("kind", [MV, CoordinateKind.TRIANGULATION])
    def test_refined_patch_lowers_the_errors(self, kind):
        coarse, once, _ = refined_levels()
        before, _ = solve_on(coarse, kind, harmonic_exact, harmonic_gradient)
        after, _ = solve_on(once, kind, harmonic_exact, harmonic_gradient)
        assert after.l2 < before.l2 and after.h1 < before.h1

    def test_wachspress_names_the_flat_vertex(self):
        """The refusal names the lowest mesh cell with a flat vertex, not the
        row of the chunk it was evaluated in."""
        _, once, _ = refined_levels()
        flat = [(cell, int(np.argmax(angles))) for cell, angles in
                enumerate(map(interior_angles, once.polygons)) if np.max(angles) > np.pi - 1e-9]
        (cell, vertex), *_ = flat
        assert cell > 0
        with pytest.raises(GeometryError, match=rf"^cell {cell} has a flat vertex \(vertex {vertex}\)"):
            assemble(once, CoordinateKind.WACHSPRESS)

    def test_only_quadrilaterals_are_split(self):
        _, once, _ = refined_levels()
        pentagon = next(i for i, p in enumerate(once.polygons) if p.n == 5)
        with pytest.raises(ValueError, match="only quadrilaterals"):
            corpus.refine(once, [pentagon])

    def test_flat_vertex_angles_read_pi(self):
        """A flat vertex whose cross product comes out as -0.0 used to read
        -pi, so G3 and its single-run test did not see it."""
        meshes = [corpus.refine(trapezoid_mesh(8), range(0, 64, 3)),
                  corpus.refine(trapezoid_mesh(4), [5])]
        for mesh in meshes:
            for poly in mesh.polygons:
                angles = interior_angles(poly)
                assert np.all((angles > 0.0) & (angles <= np.pi))
        cell = meshes[0].polygons[4]
        assert np.allclose(np.degrees(interior_angles(cell)),
                           [63.43, 180.0, 116.57, 180.0, 116.57, 63.43], atol=0.01)
        cond = check_conditions(cell, 50.0, 0.01, 0.99 * np.pi)
        # Its flat vertices 1 and 3 are two runs of violations, not one.
        assert cond.g3 is False and cond.g3_relaxed is False
        assert all(type(flag) is bool for flag in (cond.g1, cond.g2, cond.satisfied))

    def test_coefficient_blowup_names_the_mesh_cell(self):
        """The only hexagon class of this mesh is cell 14, row 0 of its batch."""
        mesh = corpus.refine(trapezoid_mesh(8), [10, 12])
        with pytest.raises(CoefficientBlowupError, match=r"^cell 14, diagonal \(1, 4\): "):
            cell_maps(mesh)


def moved_trapezoid_mesh(n: int, offset: float, seed: int) -> PolyMesh:
    """trapezoid_mesh(n, offset) with every interior vertex moved by up to
    0.1 h per coordinate, uniformly from ``seed``: hardly two cells alike."""
    mesh = trapezoid_mesh(n, offset)
    rng = np.random.default_rng(seed)
    vertices = mesh.vertices.copy()
    inner = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    vertices[inner] += 0.1 / n * rng.uniform(-1.0, 1.0, (int(inner.sum()), 2))
    return PolyMesh.build(vertices, mesh.cells)


@st.composite
def perturbed_trapezoid_meshes(draw):
    """``moved_trapezoid_mesh`` with n in {2, 3, 4}, a drawn offset up to 0.25
    and a drawn seed (drawn shifts would mostly be 0); larger offsets can
    make a vertex flat."""
    return moved_trapezoid_mesh(draw(st.sampled_from([2, 3, 4])), draw(st.floats(0.0, 0.25)),
                                draw(st.integers(0, 2**32 - 1)))


class TestPerturbedPatch:
    """The quadratic patch test on trapezoid meshes whose interior vertices
    are moved by up to 0.1 h per coordinate, so that hardly two cells are
    alike, for every kind at assembly degree 20 (at the default degree 10
    the mean value nodal error reaches about 2e-7 on such meshes)."""

    @staticmethod
    def field():
        """u = x^2 + 0.5xy + 2y^2 - x + 1, its gradient, and its source -6."""
        u = lambda p: p[:, 0] ** 2 + 0.5 * p[:, 0] * p[:, 1] + 2.0 * p[:, 1] ** 2 - p[:, 0] + 1.0
        gu = lambda p: np.stack(
            [2.0 * p[:, 0] + 0.5 * p[:, 1] - 1.0, 0.5 * p[:, 0] + 4.0 * p[:, 1]], axis=1
        )
        return u, gu, lambda p: np.full(len(p), -6.0)

    # Nodal, L2 and H1 bounds per kind.  The worst values of these examples
    # are 4.2e-11, 8.9e-12, 2.1e-10 (meanvalue), 1.0e-12, 3.9e-13, 6.6e-12
    # (wachspress) and 1.1e-12, 2.4e-13, 4.5e-12 (triangulation).  Every
    # bound is at least 10x the worst value found on 200 meshes with every
    # interior vertex moved by the full +-0.1 h in both coordinates:
    # 2.7e-8, 3.4e-9, 6.9e-8; 7.0e-9, 8.8e-10, 3.1e-8; 2.2e-12, 5.6e-13, 9.6e-12.
    BOUNDS = {
        CoordinateKind.MEAN_VALUE: (3e-7, 4e-8, 7e-7),
        CoordinateKind.WACHSPRESS: (1e-7, 1e-8, 4e-7),
        CoordinateKind.TRIANGULATION: (3e-11, 6e-12, 1e-10),
    }

    @given(perturbed_trapezoid_meshes())
    def test_quadratic_patch_on_perturbed_trapezoids(self, mesh):
        u, gu, source = self.field()
        for kind, (nodal_tol, l2_tol, h1_tol) in self.BOUNDS.items():
            err, nodal = solve_on(mesh, kind, u, gu, quad_degree=20, source=source)
            assert nodal <= nodal_tol and err.l2 <= l2_tol and err.h1 <= h1_tol, kind


class TestPerturbedRates:
    """The harmonic problem keeps the element's rates when every interior
    vertex of trapezoid_mesh(n), n = 4, 8, 16, is moved by up to 0.1 h, so
    that every cell is its own translation class and ``error_norms`` takes
    the solution's quadratic form on every chunk."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", list(CoordinateKind))
    def test_finest_rates(self, kind, seed):
        errors = []
        for n in (4, 8, 16):
            mesh = moved_trapezoid_mesh(n, 0.25, seed)
            assert len(np.unique(mesh.translation_classes)) == mesh.n_cells
            err, _ = solve_on(mesh, kind, harmonic_exact, harmonic_gradient)
            errors.append((err.l2, err.h1))
        (l2_coarse, h1_coarse), (l2_fine, h1_fine) = errors[-2:]
        assert np.log2(l2_coarse / l2_fine) >= 2.7
        assert np.log2(h1_coarse / h1_fine) >= 1.8


class TestTranslationClasses:
    """Cells that are translates of each other share one class."""

    @pytest.mark.parametrize("n", [4, 16])
    def test_trapezoid_meshes_have_six_classes(self, n):
        classes = trapezoid_mesh(n).translation_classes
        reps = np.unique(classes)
        assert len(reps) == 6
        assert np.array_equal(classes[reps], reps)

    def test_moved_vertex_isolates_its_cells(self):
        mesh = perturbed_trapezoid_mesh(8, 1e-9)
        classes = mesh.translation_classes
        moved = 3 * 9 + 2
        around = [i for i, c in enumerate(mesh.cells) if moved in c]
        assert len(around) == 4
        sizes = np.bincount(classes, minlength=mesh.n_cells)
        assert all(sizes[classes[i]] == 1 for i in around)
        assert len(np.unique(classes)) == 6 + 4

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-14, 1e-12, 1e-10, 1e-9, 1e-6]),
           st.sampled_from([4, 8, 13]))
    def test_classes_equal_one_cell_at_a_time(self, seed, scale, n):
        """Interior vertices of a trapezoid mesh moved by about ``scale`` h,
        near the 1e-12 match tolerance and the 1e-9 rounding of the keys:
        the classes are those of the cell-by-cell oracle."""
        mesh = trapezoid_mesh(n, 0.2)
        rng = np.random.default_rng(seed)
        vertices = mesh.vertices.copy()
        inner = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
        picked = inner & (rng.random(len(vertices)) < 0.3)
        vertices[picked] += scale / n * rng.standard_normal((int(picked.sum()), 2))
        moved = PolyMesh.build(vertices, mesh.cells)
        assert np.array_equal(moved.translation_classes, oracles.translation_classes(moved))

    @pytest.mark.parametrize("make", [corpus.voronoi_mesh, corpus.mixed_mesh, stacked_mixed_mesh,
                                      lambda: perturbed_trapezoid_mesh(8, 1e-9)])
    def test_classes_equal_oracle_on_corpus_meshes(self, make):
        mesh = make()
        assert np.array_equal(mesh.translation_classes, oracles.translation_classes(mesh))

    def test_voronoi_cells_are_all_distinct(self):
        mesh = corpus.voronoi_mesh()
        assert np.array_equal(mesh.translation_classes, np.arange(mesh.n_cells))

    @pytest.mark.parametrize("make", [corpus.mixed_mesh, stacked_mixed_mesh])
    def test_classes_never_mix_layouts(self, make):
        mesh = make()
        classes = mesh.translation_classes
        keys = layout_keys(mesh)
        assert all(keys[i] == keys[r] for i, r in enumerate(classes))
        flat = [i for i, p in enumerate(mesh.polygons) if p.n == 5]
        assert [int(classes[i]) for i in flat] == [flat[0]] * len(flat)
        assert sum(int(classes[i]) == flat[0] for i in range(mesh.n_cells)) == len(flat)

    def test_stacked_mixed_mesh_has_two_classes(self):
        mesh = stacked_mixed_mesh()
        assert mesh.n_cells == 6
        assert len(np.unique(mesh.translation_classes)) == 2

    def test_members_share_the_representative_map(self):
        mesh = trapezoid_mesh(8)
        classes = mesh.translation_classes
        maps = cell_maps(mesh)
        assert len({id(m) for m in maps}) == 6
        for i, poly in enumerate(mesh.polygons):
            assert maps[i] is maps[classes[i]]
            assert np.max(np.abs(maps[i].A - build_map(poly).A)) <= 1e-13


class TestContinuity:
    @pytest.mark.parametrize("mesh_maker", [
        lambda: trapezoid_mesh(3, 0.3),
        corpus.mixed_mesh,
    ])
    def test_interface_traces_agree(self, mesh_maker):
        """A random coefficient vector defines one function per cell; across
        every shared edge the two traces coincide, orientation included."""
        mesh = mesh_maker()
        dm = dof_map(mesh)
        maps = cell_maps(mesh)
        rng = np.random.default_rng(11)
        coeff = rng.normal(size=dm.n_dofs)
        occurrences = defaultdict(list)
        for ci, cell in enumerate(mesh.cells):
            k = len(cell)
            for t in range(k):
                a, b = cell[t], cell[(t + 1) % k]
                occurrences[(min(a, b), max(a, b))].append((ci, t, a < b))
        ts = np.linspace(0.0, 1.0, 5)
        shared = 0
        for lst in occurrences.values():
            if len(lst) != 2:
                continue
            shared += 1
            traces = []
            for ci, t_loc, fwd in lst:
                dofs = oracles.cell_dofs(dm)[ci]
                values = boundary_basis_values(
                    mesh.polygons[ci], maps[ci], t_loc, ts if fwd else 1.0 - ts)
                traces.append(values @ coeff[dofs])
            assert np.max(np.abs(traces[0] - traces[1])) <= 1e-12
        assert shared > 0


class TestConvergenceStudy:
    def test_square_mesh_rates(self):
        rows = convergence_study([2, 4, 8], kind=CoordinateKind.WACHSPRESS,
                                 offset=0.0)
        assert rows[1].l2_rate == pytest.approx(3.0, abs=0.35)
        assert rows[2].l2_rate == pytest.approx(3.0, abs=0.2)
        assert rows[2].h1_rate == pytest.approx(2.0, abs=0.2)
        assert rows[0].dofs == 21
        assert [r.n for r in rows] == [2, 4, 8]

    @pytest.mark.parametrize("levels", [(2, 2), (4, 2)])
    def test_levels_must_increase(self, levels):
        """Equal or decreasing sizes give a zero or negative log ratio, so
        the rates would be NaN or meaningless."""
        with pytest.raises(MeshError, match="strictly increasing"):
            convergence_study(levels, kind=MV)


class TestMeshSerialization:
    def test_json_roundtrip(self):
        mesh = corpus.mixed_mesh()
        data = mesh_to_json(mesh)
        back = mesh_from_json(data)
        assert back.vertices == pytest.approx(mesh.vertices, abs=0.0)
        assert back.cells == mesh.cells
        loaded = mesh_from_json(json.loads(json.dumps(data)))
        assert loaded.cells == mesh.cells
        assert loaded.vertices == pytest.approx(mesh.vertices, abs=0.0)

    def test_malformed_payload(self):
        with pytest.raises(MeshError):
            mesh_from_json({"vertices": [[0, 0], [1, 0]]})
        with pytest.raises(MeshError):
            mesh_from_json({"cells": [[0, 1, 2]]})
