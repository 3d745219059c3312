"""Meshes, degree-of-freedom layout, Poisson assembly/solve, error norms,
inter-element continuity, and the refinement study driver."""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

import corpus
from polyserend import (
    CoordinateKind,
    MeshError,
    PolyMesh,
    SolveReport,
    assemble,
    boundary_basis_values,
    build_map,
    cell_maps,
    convergence_study,
    dof_map,
    error_norms,
    eval_basis_batch,
    harmonic_exact,
    harmonic_gradient,
    load_mesh,
    mesh_from_json,
    mesh_to_json,
    node_coordinates,
    polygon_rule,
    save_mesh,
    solve_dirichlet,
    trapezoid_mesh,
)
from polyserend.barycentric import fan_apex
from polyserend.fem import CHUNK_POINTS, DiscreteSolution
from polyserend.quadrature import fan_rule, rule_layouts
from polyserend.serendipity import Strategy

MV = CoordinateKind.MEAN_VALUE


def make_solution(mesh, values, kind=MV):
    dm = dof_map(mesh)
    maps = cell_maps(mesh)
    return DiscreteSolution(
        mesh=mesh, dofmap=dm, kind=kind, values=values, maps=tuple(maps),
        report=SolveReport(values, 0, 0.0, True),
    )


def quadratic_field():
    u = lambda p: p[:, 0] ** 2 + 0.5 * p[:, 0] * p[:, 1] - p[:, 1] ** 2 + p[:, 0] - 2.0
    gu = lambda p: np.stack(
        [2.0 * p[:, 0] + 0.5 * p[:, 1] + 1.0, 0.5 * p[:, 0] - 2.0 * p[:, 1]], axis=1
    )
    return u, gu


class TestTrapezoidMesh:
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
            lengths = poly.edge_lengths
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
        assert trapezoid_mesh(2, 0.45).n_cells == 4
        assert trapezoid_mesh(2, 0.0).n_cells == 4


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

    def test_empty_mesh_rejected(self):
        with pytest.raises(MeshError, match="no cells"):
            PolyMesh.build(np.zeros((3, 2)), [])

    def test_bad_vertex_array(self):
        with pytest.raises(MeshError, match="shape"):
            PolyMesh.build(np.zeros((4, 3)), [(0, 1, 2)])
        bad = np.array([[0.0, 0.0], [1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(MeshError, match="finite"):
            PolyMesh.build(bad, [(0, 1, 2)])

    def test_mixed_mesh_valid(self):
        mesh = corpus.mixed_mesh()
        assert mesh.n_cells == 3
        sizes = sorted(len(c) for c in mesh.cells)
        assert sizes == [4, 4, 5]
        total = sum(p.area for p in mesh.polygons)
        assert total == pytest.approx(1.0, abs=1e-14)


class TestDofMap:
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
        for cell, dofs in zip(mesh.cells, dm.cell_dofs):
            k = len(cell)
            assert len(dofs) == 2 * k
            assert tuple(dofs[:k]) == cell
            for t in range(k):
                edge = tuple(sorted((cell[t], cell[(t + 1) % k])))
                assert dm.edges[dofs[k + t] - dm.n_vertex_dofs] == edge

    def test_node_coordinates_layout(self):
        mesh = trapezoid_mesh(2, 0.25)
        dm = dof_map(mesh)
        coords = node_coordinates(mesh, dm)
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
        for dofs, cell in zip(dm.cell_dofs, mesh.cells):
            for d in dofs[len(cell):]:
                seen[int(d)] += 1
        interior_edge_dofs = [d for d, c in seen.items() if c == 2]
        # the mixed mesh has exactly three shared edges
        assert len(interior_edge_dofs) == 3


class TestAssembly:
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
        dofs = dm.cell_dofs[0]

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
        mesh = corpus.mixed_mesh()
        dm = dof_map(mesh)
        maps = cell_maps(mesh)
        u, gu = quadratic_field()
        # The field x^2 + 0.5xy - y^2 + x - 2 is harmonic, so the source is zero.
        mat, rhs = assemble(mesh, MV, source=None, maps=maps, dofmap=dm)
        sol = solve_dirichlet(mat, rhs, mesh, dm, MV, u, maps=maps)
        err = error_norms(sol, u, gu)
        assert err.l2 <= 1e-8
        assert err.h1 <= 1e-7

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
        coords = node_coordinates(mesh, dof_map(mesh))
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
        for poly, smap, dofs in zip(mesh.polygons, sol.maps, dm.cell_dofs):
            def sq(pts, poly=poly, smap=smap, dofs=dofs):
                psi, _ = eval_basis_batch(poly, MV, smap, pts)
                return (psi @ values[dofs] - u(pts)) ** 2
            acc += corpus.refined_polygon_integral(poly, sq, levels=3, degree=12)
        assert err.l2 == pytest.approx(float(np.sqrt(acc)), rel=1e-7)


def cell_rule(poly, kind, degree):
    if kind is CoordinateKind.TRIANGULATION:
        return fan_rule(poly, degree, fan_apex(poly))
    return polygon_rule(poly, degree)


def reference_assembly(mesh, kind, source, degree=10):
    """Dense stiffness and load summed one cell at a time from single-polygon calls."""
    dm = dof_map(mesh)
    stiffness = np.zeros((dm.n_dofs, dm.n_dofs))
    load = np.zeros(dm.n_dofs)
    for poly, smap, dofs in zip(mesh.polygons, cell_maps(mesh), dm.cell_dofs):
        rule = cell_rule(poly, kind, degree)
        psi, dpsi = eval_basis_batch(poly, kind, smap, rule.points)
        stiffness[np.ix_(dofs, dofs)] += np.einsum("q,qid,qjd->ij", rule.weights, dpsi, dpsi)
        load[dofs] += psi.T @ (rule.weights * source(rule.points))
    return stiffness, load


def reference_norms(sol, u, gu, degree=14):
    """L2 and H1 errors summed one cell at a time from single-polygon calls."""
    l2 = h1 = 0.0
    for poly, smap, dofs in zip(sol.mesh.polygons, sol.maps, sol.dofmap.cell_dofs):
        rule = cell_rule(poly, sol.kind, degree)
        psi, dpsi = eval_basis_batch(poly, sol.kind, smap, rule.points)
        coeff = sol.values[dofs]
        l2 += rule.weights @ (psi @ coeff - u(rule.points)) ** 2
        dg = np.einsum("qid,i->qd", dpsi, coeff) - gu(rule.points)
        h1 += rule.weights @ np.sum(dg**2, axis=1)
    return float(np.sqrt(l2)), float(np.sqrt(h1))


KERNEL_MESHES = {
    # Its flat-vertex pentagon takes the raised-degree rule: two layouts.
    "mixed": corpus.mixed_mesh,
    # Quadrilaterals, pentagons and hexagons; quadrilateral and generic maps.
    "voronoi": corpus.voronoi_mesh,
    # 256 cells at 512 points each: far more than one chunk.
    "trapezoid16": lambda: trapezoid_mesh(16),
}


class TestElementKernel:
    """assemble and error_norms run over chunks of cells that share a rule
    layout; summing one cell at a time through the single-polygon calls is
    the reference."""

    def test_meshes_cover_layouts_and_chunks(self):
        mixed = corpus.mixed_mesh()
        assert len(rule_layouts(mixed.polygons, 10)) == 2
        voronoi = corpus.voronoi_mesh()
        assert {p.n for p in voronoi.polygons} == {4, 5, 6}
        assert any(m.strategy is Strategy.GENERIC for m in cell_maps(voronoi))
        [(cells, size)] = rule_layouts(trapezoid_mesh(16).polygons, 14)
        assert len(cells) * size > 100 * CHUNK_POINTS

    @pytest.mark.parametrize("kind", list(CoordinateKind))
    @pytest.mark.parametrize("name", ["mixed", "voronoi"])
    def test_assembly_matches_per_cell_reference(self, name, kind):
        mesh = KERNEL_MESHES[name]()
        source = lambda p: np.cos(3.0 * p[:, 0]) + p[:, 1]
        mat, rhs = assemble(mesh, kind, source=source)
        stiffness, load = reference_assembly(mesh, kind, source)
        assert np.max(np.abs(mat.toarray() - stiffness)) <= 1e-13 * np.max(np.abs(stiffness))
        assert np.max(np.abs(rhs - load)) <= 1e-13 * np.max(np.abs(load))

    @pytest.mark.parametrize("kind", list(CoordinateKind))
    @pytest.mark.parametrize("name", list(KERNEL_MESHES))
    def test_error_norms_match_per_cell_reference(self, name, kind):
        mesh = KERNEL_MESHES[name]()
        dm = dof_map(mesh)
        coords = node_coordinates(mesh, dm)
        values = harmonic_exact(coords) + 1e-3 * np.cos(np.arange(dm.n_dofs))
        sol = make_solution(mesh, values, kind)
        err = error_norms(sol, harmonic_exact, harmonic_gradient)
        l2, h1 = reference_norms(sol, harmonic_exact, harmonic_gradient)
        assert err.l2 == pytest.approx(l2, rel=1e-13)
        assert err.h1 == pytest.approx(h1, rel=1e-13)


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
                dofs = dm.cell_dofs[ci]
                values = boundary_basis_values(
                    mesh.polygons[ci], maps[ci], t_loc, ts if fwd else 1.0 - ts)
                traces.append(values @ coeff[dofs])
            assert np.max(np.abs(traces[0] - traces[1])) <= 1e-12
        assert shared > 0


class TestConvergenceStudy:
    def test_quadratic_solution_floors_immediately(self):
        u = lambda p: p[:, 0] ** 2
        gu = lambda p: np.stack([2.0 * p[:, 0], np.zeros(len(p))], axis=1)
        rows = convergence_study(
            [1, 2], kind=MV, u_exact=u, grad_u_exact=gu,
            source=lambda p: -2.0 * np.ones(len(p)),
        )
        for row in rows:
            assert row.l2_error <= 1e-8
            assert row.h1_error <= 1e-7

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
    def test_json_roundtrip(self, tmp_path):
        mesh = corpus.mixed_mesh()
        data = mesh_to_json(mesh)
        back = mesh_from_json(data)
        assert back.vertices == pytest.approx(mesh.vertices, abs=0.0)
        assert back.cells == mesh.cells
        path = tmp_path / "mesh.json"
        save_mesh(path, mesh)
        loaded = load_mesh(path)
        assert loaded.cells == mesh.cells
        assert loaded.vertices == pytest.approx(mesh.vertices, abs=0.0)

    def test_malformed_payload(self):
        with pytest.raises(MeshError):
            mesh_from_json({"vertices": [[0, 0], [1, 0]]})
        with pytest.raises(MeshError):
            mesh_from_json({"cells": [[0, 1, 2]]})
