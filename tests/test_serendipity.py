"""The quadratic serendipity reduction: the per-diagonal construction build_A,
the closed-form oracles it is checked against, constraint verification,
Lagrange structure, and bounds."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import corpus
import oracles
from oracles import build_A_quadrilateral, build_A_regular, build_A_unit_square, diagonal_column
from polyserend import (
    BoundaryEvaluationError,
    DiscreteSolution,
    SolveReport,
    CoefficientBlowupError,
    CoordinateKind,
    Polygon,
    PolygonBatch,
    SerendipityError,
    Strategy,
    bound_from_margin,
    boundary_basis_values,
    build_A,
    build_B,
    build_map,
    check_conditions,
    coefficient_bound,
    error_norms,
    eval_basis_batch,
    eval_coords_batch,
    fan_rule,
    harmonic_exact,
    harmonic_field,
    lagrange_table,
    node_coordinates,
    pair_order,
    pairwise_batch,
    polygon_rule,
    precision_residuals,
    sample_interior,
    trapezoid_mesh,
    verify_constraints,
)
from polyserend import fem

SQUARE = corpus.unit_square()

# The reduction matrix of the unit square: identity on the vertex and edge
# columns, and two extra columns redistributing the diagonal products
# (0,2) and (1,3) onto vertex rows (coefficient -1) and all edge rows (1/2).
UNIT_SQUARE_A = np.hstack([
    np.eye(8),
    np.array([
        [-1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [0.0, -1.0],
        [0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5],
    ]),
])


class TestNodalTransform:
    def test_segment_quadratic_analog(self):
        """One-dimensional version of the transform: with segment coordinates
        (1-t, t), the matrix [[1,0,-1],[0,1,-1],[0,0,4]] maps the products
        (la^2, lb^2, la*lb) onto the quadratic functions that are 1 at one
        node (endpoint, endpoint, midpoint) and 0 at the other two."""
        M = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [0.0, 0.0, 4.0]])
        t = np.linspace(0.0, 1.0, 11)
        la, lb = 1.0 - t, t
        products = np.stack([la * la, lb * lb, la * lb])
        psi = M @ products
        assert psi[0] == pytest.approx((1 - t) * (1 - 2 * t), abs=1e-15)
        assert psi[1] == pytest.approx(t * (2 * t - 1), abs=1e-15)
        assert psi[2] == pytest.approx(4 * t * (1 - t), abs=1e-15)
        nodes = np.array([0.0, 1.0, 0.5])
        table = M @ np.stack([
            (1 - nodes) ** 2, nodes ** 2, (1 - nodes) * nodes
        ])
        assert table == pytest.approx(np.eye(3), abs=1e-15)

    def test_square_rows(self):
        B = build_B(4)
        # vertex row i: +1 on its own square column, -1 on both incident
        # edge columns; edge rows scale by 4.
        expected_row0 = np.array([1, 0, 0, 0, -1, 0, 0, -1], dtype=float)
        assert B[0] == pytest.approx(expected_row0, abs=0.0)
        assert B[4] == pytest.approx([0, 0, 0, 0, 4, 0, 0, 0], abs=0.0)

    def test_entry_alphabet_and_row_sums(self):
        for n in (3, 5, 8):
            B = build_B(n)
            assert set(np.unique(B)) <= {-1.0, 0.0, 1.0, 4.0}
            sums = np.sum(np.abs(B), axis=1)
            assert np.all(sums[:n] == 3.0)
            assert np.all(sums[n:] == 4.0)
            assert np.linalg.matrix_rank(B) == 2 * n


class TestUnitSquare:
    def test_literal_matrix(self):
        A = build_A_unit_square()
        assert A == pytest.approx(UNIT_SQUARE_A, abs=0.0)
        assert A[0, 8] == -1.0
        assert A[4, 8] == 0.5

    def test_quadrilateral_construction_reproduces_it(self):
        """The quadrilateral closed form agrees with the hand-checked matrix."""
        A = build_A_quadrilateral(SQUARE)
        assert np.max(np.abs(A - UNIT_SQUARE_A)) <= 1e-14

    def test_reduced_vertex_function_closed_form(self):
        """On the unit square the first reduced function equals
        (1-x)(1-y)(1-x-y)."""
        smap = build_map(SQUARE)
        rng = np.random.default_rng(0)
        pts = sample_interior(SQUARE, 20, rng, margin=1e-3)
        lam, dlam = eval_coords_batch(SQUARE, CoordinateKind.WACHSPRESS, pts)
        mu, _ = pairwise_batch(lam, dlam)
        xi = mu @ smap.A.T
        x, y = pts[:, 0], pts[:, 1]
        assert xi[:, 0] == pytest.approx((1 - x) * (1 - y) * (1 - x - y), abs=1e-13)

    def test_center_value(self):
        smap = build_map(SQUARE)
        lam, dlam = eval_coords_batch(SQUARE, CoordinateKind.WACHSPRESS, np.array([[0.5, 0.5]]))
        mu, _ = pairwise_batch(lam, dlam)
        xi = mu @ smap.A.T
        assert xi[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_cubic_monomials_in_span(self):
        """x^2 y and x y^2 are exact combinations of the reduced functions:
        x^2 y = xi[edge 1-2] + xi[vertex 2] and
        x y^2 = xi[vertex 2] + xi[edge 2-3] (0-based indices 5, 2, 6)."""
        smap = build_map(SQUARE)
        rng = np.random.default_rng(1)
        pts = sample_interior(SQUARE, 100, rng, margin=1e-4)
        lam, dlam = eval_coords_batch(SQUARE, CoordinateKind.WACHSPRESS, pts)
        mu, _ = pairwise_batch(lam, dlam)
        xi = mu @ smap.A.T
        x, y = pts[:, 0], pts[:, 1]
        assert np.max(np.abs(xi[:, 5] + xi[:, 2] - x * x * y)) <= 1e-12
        assert np.max(np.abs(xi[:, 2] + xi[:, 6] - x * y * y)) <= 1e-12


class TestQuadrilateral:
    def test_coefficient_identities_and_bounds(self):
        rng = np.random.default_rng(0)
        quads = [corpus.random_convex_quadrilateral(rng) for _ in range(200)]
        for smap in build_map(oracles.polygon_batch(quads)):
            for a, b in ((0, 2), (1, 3)):
                col = diagonal_column(smap.A, 4, a, b)
                assert all(0.0 < c < 1.0 for c in col.edges)
                assert abs(col.vertex_a) <= 2.0 and abs(col.vertex_b) <= 2.0
                assert col.vertex_a + col.vertex_b == pytest.approx(-2.0, abs=1e-12)

    def test_convex_combination_lands_on_diagonal_axis(self):
        """The two edge coefficients of one diagonal column average the two
        off-diagonal vertices onto the diagonal's axis."""
        trap = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.75, 1.0], [0.25, 1.0]]))
        col = diagonal_column(build_map(trap).A, 4, 0, 2)
        c34, c12 = col.edges[:2]
        assert c12 + c34 == pytest.approx(1.0, abs=1e-12)
        v = trap.vertices
        landed = c12 * v[1] + c34 * v[3] - v[0]
        chord = v[2] - v[0]
        assert chord[0] * landed[1] - chord[1] * landed[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form_oracle(self):
        """The per-diagonal solve reproduces the quadrilateral closed form:
        both diagonals share one neighbor line, so d_a = -d_b and s = 1."""
        rng = np.random.default_rng(61)
        quads = [corpus.random_convex_quadrilateral(rng) for _ in range(200)]
        mesh = trapezoid_mesh(16)
        quads += [mesh.polygons[i] for i in np.unique(mesh.translation_classes)]
        for quad, smap in zip(quads, build_map(oracles.polygon_batch(quads))):
            assert np.max(np.abs(smap.A - build_A_quadrilateral(quad))) <= 1e-14
            for a, b in ((0, 2), (1, 3)):
                assert diagonal_column(smap.A, 4, a, b).s == pytest.approx(1.0, abs=1e-14)
        assert np.array_equal(build_map(SQUARE).A, build_A_unit_square())

    def test_hanging_node_quadrilateral(self):
        """A triangle whose side a neighbor splits is a quadrilateral with a
        flat vertex.  The closed form needs the off-diagonal vertices strictly
        on both sides of each diagonal and refuses it; the per-diagonal solve
        builds it."""
        quad = Polygon(np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(SerendipityError, match="not strictly convex"):
            build_A_quadrilateral(quad)
        smap = build_map(quad)
        assert verify_constraints(quad, smap, tol=1e-10).passed
        assert np.max(np.abs(lagrange_table(quad, smap) - np.eye(8))) <= 1e-10

    def test_constraints_pass_on_random_quads(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            quad = corpus.random_convex_quadrilateral(rng)
            smap = build_map(quad)
            assert smap.strategy is Strategy.QUADRILATERAL
            report = verify_constraints(quad, smap)
            assert report.passed, report.max_residual
            table = lagrange_table(quad, smap)
            assert np.max(np.abs(table - np.eye(8))) <= 1e-10


class TestRegular:
    def test_square_matches_unit_square_matrix(self):
        assert np.max(np.abs(build_A_regular(4) - UNIT_SQUARE_A)) <= 1e-12

    def test_hexagon_long_diagonal_values(self):
        """Across the long diagonal of a regular hexagon the vertex rebalance
        weight reaches -3 and all four edge weights are 1."""
        A = build_A_regular(6)
        col = pair_order(6).index((0, 3))
        assert A[0, col] == pytest.approx(-3.0, abs=1e-12)
        assert A[3, col] == pytest.approx(-3.0, abs=1e-12)
        for edge_row in (6 + 5, 6 + 3, 6 + 0, 6 + 2):
            assert A[edge_row, col] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 10, 12])
    def test_partition_identity_per_column(self, n):
        """Every diagonal column keeps the weighted partition sum at 2:
        vertex rows count once, edge rows twice."""
        A = build_A_regular(n)
        weights = np.concatenate([np.ones(n), 2.0 * np.ones(n)])
        sums = weights @ A[:, 2 * n:]
        assert sums == pytest.approx(np.full(n * (n - 3) // 2, 2.0), abs=1e-12)

    @pytest.mark.parametrize("n", [5, 6, 7, 9, 12])
    def test_constraints_pass(self, n):
        """Regular polygons go through the generic solve; it and the closed
        form both satisfy the constraints."""
        poly = corpus.regular_polygon(n)
        smap = build_map(poly)
        assert smap.strategy is Strategy.GENERIC
        for candidate in (smap, replace(smap, A=build_A_regular(n))):
            report = verify_constraints(poly, candidate, tol=1e-10)
            assert report.passed, report.max_residual

    @pytest.mark.parametrize("n", range(5, 13))
    def test_agrees_with_generic_solver(self, n):
        """The per-diagonal linear systems have unique solutions, so the
        closed form and the numeric solve must coincide on regular polygons."""
        poly = corpus.regular_polygon(n)
        A_closed = build_A_regular(n)
        A_generic = build_A(poly.vertices[None])[0]
        assert np.max(np.abs(A_closed - A_generic)) <= 1e-10

    def test_rotation_and_scale_invariance(self):
        poly = corpus.regular_polygon(7, radius=3.2, rotation=0.61)
        smap = build_map(poly)
        assert smap.strategy is Strategy.GENERIC
        assert verify_constraints(poly, smap, tol=1e-10).passed
        assert np.max(np.abs(smap.A - build_A_regular(7))) <= 1e-10


class TestGeneric:
    def test_constraints_on_random_polygons(self):
        rng = np.random.default_rng(9)
        for n in (5, 6, 7, 8, 9):
            poly = corpus.random_convex_polygon(rng, n)
            smap = build_map(poly)
            assert smap.strategy is Strategy.GENERIC
            report = verify_constraints(poly, smap, tol=1e-10)
            assert report.passed, (n, report.max_residual)

    def test_triangle_is_identity(self):
        tri = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]]))
        assert build_A(np.stack([tri.vertices] * 2)) == pytest.approx(
            np.stack([np.eye(6)] * 2), abs=0.0)

    def test_batch_equals_single_builds(self):
        rng = np.random.default_rng(19)
        for n in (3, 4, 5, 8):
            polys = [corpus.random_convex_polygon(rng, n) for _ in range(4)]
            maps = build_map(oracles.polygon_batch(polys))
            assert isinstance(maps, tuple) and len(maps) == 4
            for poly, smap in zip(polys, maps):
                assert np.array_equal(smap.A, build_map(poly).A)
                assert not smap.A.flags.writeable
        with pytest.raises(SerendipityError, match="shape"):
            build_A(polys[0].vertices)

    @pytest.mark.parametrize("bad, message", [
        # Reflex at vertex 1: it lies above the diagonal (0, 2).
        ([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]],
         r"polygon 1, diagonal \(0, 2\): a boundary neighbor lies on the wrong side"),
        # Vertices 1 and 3 both on the line of the diagonal (0, 2).
        ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],
         r"polygon 1, diagonal \(0, 2\): neighbor vertices collinear"),
    ])
    def test_errors_name_polygon_and_diagonal(self, bad, message):
        good = corpus.regular_polygon(len(bad)).vertices
        with pytest.raises(SerendipityError, match=message):
            build_A(np.stack([good, np.array(bad)]))

    def test_straight_vertex_on_diagonal(self):
        """The corner diagonal of the flat pentagon passes through its
        straight vertex; both axis intercepts vanish and no rebalancing
        beyond the neighboring edges is needed."""
        poly = corpus.degenerate_pentagon()
        col = diagonal_column(build_map(poly).A, 5, 1, 4)
        assert abs(col.d_a) <= 1e-12
        assert abs(col.d_b) <= 1e-12
        assert col.s == pytest.approx(1.0, abs=1e-12)

    def test_flat_pentagon_full_construction(self):
        poly = corpus.degenerate_pentagon()
        smap = build_map(poly)
        assert verify_constraints(poly, smap, tol=1e-10).passed
        assert np.max(np.abs(lagrange_table(poly, smap) - np.eye(10))) <= 1e-10

    def test_edge_coefficients_split_s(self):
        rng = np.random.default_rng(14)
        poly = corpus.random_convex_polygon(rng, 8)
        A = build_map(poly).A
        for (a, b) in pair_order(8)[16:]:
            col = diagonal_column(A, 8, a, b)
            assert -1.0 <= col.d_a <= 1.0 and -1.0 <= col.d_b <= 1.0
            assert col.s == pytest.approx(2.0 / (2.0 - (col.d_a + col.d_b)), abs=1e-12)
            for pair in (col.edges[:2], col.edges[2:]):
                assert pair[0] >= -1e-12 and pair[1] >= -1e-12
                assert pair[0] + pair[1] == pytest.approx(col.s, abs=1e-10)


class TestBlowupFamily:
    def test_coefficients_grow_as_edges_shrink(self):
        ts = [0.3, 0.1, 0.03, 0.01, 0.003, 0.001]
        s_values = []
        for t in ts:
            poly = corpus.blowup_hexagon(t)
            s_values.append(diagonal_column(build_map(poly).A, 6, 0, 3).s)
        assert all(b > a for a, b in zip(s_values, s_values[1:]))

    def test_blowup_threshold_reached_at_short_edge(self):
        """Once the short edges reach ~1e-3 of the diameter the scale factor
        is far beyond any uniform constant."""
        poly = corpus.blowup_hexagon(2e-3)  # edge length ~2e-3, diameter 2
        assert float(np.min(oracles.edge_lengths(poly))) <= 1e-3 * poly.diameter
        col = diagonal_column(build_map(poly).A, 6, 0, 3)
        assert col.s > 10.0
        assert max(abs(col.vertex_a), abs(col.vertex_b)) > 10.0

    def test_construction_still_consistent_under_stress(self):
        poly = corpus.blowup_hexagon(1e-4)
        smap = build_map(poly)
        assert smap.strategy is Strategy.GENERIC
        assert verify_constraints(poly, smap, tol=1e-8).passed

    def test_guard_raises_past_the_threshold(self):
        """White-box check of the degeneracy guard: polygon validation keeps
        such thin wedges out of normal reach, so bypass it to confirm the
        solver refuses rather than emitting garbage."""
        safe = Polygon(np.array([
            [-1.0, 0.0], [-0.9, -0.5], [0.9, -0.5],
            [1.0, 0.0], [0.9, 0.5], [-0.9, 0.5],
        ]))
        delta = 1e-13
        doctored = np.array([
            [-1.0, 0.0], [-1.0 + delta, -0.5], [1.0 - delta, -0.5],
            [1.0, 0.0], [1.0 - delta, 0.5], [-1.0 + delta, 0.5],
        ])
        object.__setattr__(safe, "vertices", doctored)
        with pytest.raises(CoefficientBlowupError, match=r"^the polygon, diagonal \(0, 3\): "):
            build_map(safe)


class TestCoefficientBound:
    def test_margin_validation(self):
        with pytest.raises(SerendipityError):
            bound_from_margin(0.0)
        with pytest.raises(SerendipityError):
            bound_from_margin(-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_margin_rejected(self, bad):
        with pytest.raises(SerendipityError, match="finite positive margin"):
            bound_from_margin(bad)

    def test_small_margin_behaviour(self):
        assert bound_from_margin(0.25) == pytest.approx(3.0)
        assert bound_from_margin(0.05) == pytest.approx(19.0)
        assert bound_from_margin(0.9) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [6, 8])
    def test_regular_polygon_bound_is_sharp(self, n):
        """With the tightest thresholds a regular polygon satisfies, the
        bound almost exactly matches the largest entry actually produced
        (3 for the hexagon, about 5.83 for the octagon)."""
        poly = corpus.regular_polygon(n)
        side = float(oracles.edge_lengths(poly)[0])
        beta = math.pi * (n - 2) / n + 1e-9
        cond = check_conditions(poly, gamma_star=10.0, d_star=side * (1 - 1e-9),
                                beta_star=beta)
        assert cond.satisfied
        bound = coefficient_bound(poly, cond)
        peak = float(np.max(np.abs(build_A_regular(n))))
        assert peak <= bound
        # The bound is nearly attained by the long-diagonal columns.
        assert bound <= peak * 1.01

    def test_bound_covers_random_corpus(self):
        rng = np.random.default_rng(23)
        for poly in corpus.shape_regular_corpus(rng, 20):
            cond = check_conditions(
                poly, corpus.GAMMA_STAR, corpus.D_STAR_FRACTION * poly.diameter,
                corpus.BETA_STAR,
            )
            assert cond.satisfied
            bound = coefficient_bound(poly, cond)
            A = build_map(poly).A
            assert float(np.max(np.abs(A))) <= bound

    def test_row_sum_norm_bound(self):
        rng = np.random.default_rng(29)
        for poly in corpus.shape_regular_corpus(rng, 5):
            cond = check_conditions(
                poly, corpus.GAMMA_STAR, corpus.D_STAR_FRACTION * poly.diameter,
                corpus.BETA_STAR,
            )
            A = build_map(poly).A
            n_diag = poly.n * (poly.n - 3) // 2
            row_norm = float(np.max(np.sum(np.abs(A), axis=1)))
            assert row_norm <= 1.0 + n_diag * coefficient_bound(poly, cond)


class TestBuildMapDispatch:
    def test_auto_choices(self):
        tri = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]]))
        assert build_map(tri).strategy is Strategy.GENERIC
        assert build_map(tri).A == pytest.approx(np.eye(6), abs=0.0)
        assert build_map(SQUARE).strategy is Strategy.QUADRILATERAL
        assert build_map(corpus.regular_polygon(5)).strategy is Strategy.GENERIC
        rng = np.random.default_rng(2)
        assert build_map(corpus.random_convex_polygon(rng, 5)).strategy is Strategy.GENERIC

    def test_forced_strategies_validated(self):
        """Called directly, each closed-form oracle refuses polygons outside
        its domain."""
        rng = np.random.default_rng(3)
        with pytest.raises(SerendipityError):
            build_A_quadrilateral(corpus.random_convex_polygon(rng, 5))
        with pytest.raises(SerendipityError):
            build_A_regular(2)

    def test_unit_square_strategy(self):
        smap = build_map(SQUARE)
        assert smap.strategy is Strategy.QUADRILATERAL
        assert smap.A == pytest.approx(UNIT_SQUARE_A, abs=0.0)

    def test_regular_pentagon_both_strategies_valid(self):
        poly = corpus.regular_polygon(5)
        smap = build_map(poly)
        for A in (smap.A, build_A_regular(5)):
            assert verify_constraints(poly, replace(smap, A=A), tol=1e-10).passed


class TestConstraintReport:
    def test_unit_square_exact(self):
        report = verify_constraints(SQUARE, build_map(SQUARE))
        assert report.passed
        assert report.max_residual <= 1e-14

    def test_identity_block_asserted(self):
        for poly in (SQUARE, corpus.regular_polygon(6)):
            smap = build_map(poly)
            n = poly.n
            assert smap.A[:, : 2 * n] == pytest.approx(np.eye(2 * n), abs=0.0)

    def test_octagon_passes(self):
        rng = np.random.default_rng(17)
        poly = corpus.random_convex_polygon(rng, 8)
        assert verify_constraints(poly, build_map(poly)).passed

    def test_corrupted_column_detected(self):
        poly = corpus.regular_polygon(6)
        smap = build_map(poly)
        A = smap.A.copy()
        bad_col = 2 * 6 + 3  # fourth diagonal column
        A[0, bad_col] += 1e-3
        corrupted = replace(smap, A=A)
        report = verify_constraints(poly, corrupted)
        assert not report.passed
        assert report.worst_pair == pair_order(6)[12 + 3]
        assert report.max_residual > 1e-5

    def test_mismatched_size_rejected(self):
        with pytest.raises(SerendipityError):
            verify_constraints(corpus.regular_polygon(5), build_map(SQUARE))

    @pytest.mark.parametrize("target", ["A", "xi"])
    @pytest.mark.parametrize("k", range(6), ids=["1", "x", "y", "xx", "xy", "yy"])
    def test_each_moment_raises_only_its_group(self, k, target):
        """A change that moves moment k (of 1, x, y, xx, xy, yy) alone raises
        only k's group: the partition (q1), the first moments (q2) or the
        second moments (q3), and the same column of ``precision_residuals``.

        The moment table is built here from ``pair_order``.  The gates read
        the polygon moved to its centroid and scaled to unit diameter, which
        leaves this hexagon where it is; in another frame a change of a first
        moment would move the second moments too."""
        group = (0, 1, 1, 2, 2, 2)[k]
        poly = corpus.regular_polygon(6, radius=0.5)
        v, n = poly.vertices, poly.n
        table = []
        for a, b in pair_order(n):
            outer = 0.5 * (np.outer(v[a], v[b]) + np.outer(v[b], v[a]))
            moments = [1.0, *(0.5 * (v[a] + v[b])), outer[0, 0], outer[0, 1], outer[1, 1]]
            table.append((1.0 if a == b else 2.0) * np.array(moments))
        c = np.linalg.lstsq(np.array(table)[: 2 * n].T, np.eye(6)[k], rcond=None)[0]
        smap = build_map(poly)
        if target == "A":
            A = smap.A.copy()
            A[:, 2 * n] += 1e-3 * c                           # the first diagonal column
            report = verify_constraints(poly, replace(smap, A=A))
            groups = np.array([report.q1, report.q2, report.q3]).max(axis=1)
        else:
            pts = sample_interior(poly, 10, np.random.default_rng(3), margin=1e-3)
            lam, dlam = eval_coords_batch(poly, CoordinateKind.MEAN_VALUE, pts)
            xi = pairwise_batch(lam, dlam)[0] @ smap.A.T + 1e-3 * c
            residuals = precision_residuals(poly, xi, pts)
            groups = residuals.max(axis=0)
            assert residuals[:, group].min() > 1e-6     # at every point
        assert groups[group] > 1e-6
        assert np.delete(groups, group).max() <= 1e-12


class TestBasisEvaluation:
    @pytest.mark.parametrize("kind", list(CoordinateKind))
    def test_nodal_monomial_reproduction(self, kind):
        """Interpolating 1, x, y, x^2, xy, y^2 at the nodes reproduces the
        monomial pointwise: the basis spans all quadratics."""
        rng = np.random.default_rng(31)
        poly = corpus.random_convex_polygon(rng, 6)
        smap = build_map(poly)
        v = poly.vertices
        nodes = np.vstack([v, 0.5 * (v + np.roll(v, -1, axis=0))])
        pts = sample_interior(poly, 50, rng, margin=1e-4)
        psi, _ = eval_basis_batch(poly, kind, smap, pts)
        monomials = [
            lambda q: np.ones(len(q)),
            lambda q: q[:, 0],
            lambda q: q[:, 1],
            lambda q: q[:, 0] ** 2,
            lambda q: q[:, 0] * q[:, 1],
            lambda q: q[:, 1] ** 2,
        ]
        for m in monomials:
            interp = psi @ m(nodes)
            assert np.max(np.abs(interp - m(pts))) <= 1e-9

    def test_nodes_are_vertices_then_midpoints(self):
        """Edge e runs from vertex e to vertex e + 1: its start, midpoint and
        end are the nodes of basis functions e, n + e and e + 1 (mod n)."""
        poly = corpus.regular_polygon(5)
        n = poly.n
        edges = np.tile(np.arange(n), 3)
        ts = np.repeat([0.0, 0.5, 1.0], n)
        values = boundary_basis_values(poly, build_map(poly), edges, ts)
        want = np.concatenate([np.arange(n), n + np.arange(n), (np.arange(n) + 1) % n])
        assert values == pytest.approx(np.eye(2 * n)[want], abs=1e-10)

    def test_lagrange_tables_identity(self):
        rng = np.random.default_rng(37)
        for name, poly in corpus.standard_corpus(rng):
            smap = build_map(poly)
            table = lagrange_table(poly, smap)
            dev = float(np.max(np.abs(table - np.eye(2 * poly.n))))
            assert dev <= 1e-10, f"{name}: {dev:.2e}"

    def test_boundary_trace_is_quadratic(self):
        """Restricted to any edge, every basis function is a univariate
        quadratic in the edge parameter."""
        rng = np.random.default_rng(41)
        poly = corpus.random_convex_polygon(rng, 7)
        smap = build_map(poly)
        ts = np.linspace(0.0, 1.0, 5)
        values = boundary_basis_values(poly, smap, np.arange(poly.n)[:, None], ts[None, :])
        # (edge, t, basis) -> (t, edge * basis): one quadratic fit per column.
        rows = values.reshape(poly.n, len(ts), -1).transpose(1, 0, 2).reshape(len(ts), -1)
        vander = np.vander(ts, 3)
        coeffs, *_ = np.linalg.lstsq(vander, rows, rcond=None)
        residual = np.max(np.abs(vander @ coeffs - rows))
        assert residual <= 1e-9

    def test_gradients_match_value_differences(self):
        poly = corpus.regular_polygon(6)
        smap = build_map(poly)
        rng = np.random.default_rng(43)
        pts = corpus.fd_safe_points(poly, 10, rng)
        kind = CoordinateKind.MEAN_VALUE
        psi, dpsi = eval_basis_batch(poly, kind, smap, pts)
        h = 1e-6 * poly.diameter
        fd = corpus.fd_gradients(
            lambda q: eval_basis_batch(poly, kind, smap, q)[0], pts, h
        )
        assert corpus.relative_gradient_error(dpsi, fd) <= 1e-5

    def test_pointwise_eval_consistency(self):
        """psi = B xi at every point, for values and gradients."""
        poly = corpus.regular_polygon(5)
        smap = build_map(poly)
        pts = np.array([[0.07, -0.22], [0.3, 0.1]])
        psi, dpsi = eval_basis_batch(poly, CoordinateKind.WACHSPRESS, smap, pts)
        lam, dlam = eval_coords_batch(poly, CoordinateKind.WACHSPRESS, pts)
        mu, dmu = pairwise_batch(lam, dlam)
        xi = mu @ smap.A.T
        dxi = np.einsum("rp,mpd->mrd", smap.A, dmu)
        # psi multiplies (B @ A) @ mu, B @ xi is B @ (A @ mu): equal up to
        # rounding, not bitwise
        assert psi == pytest.approx(xi @ smap.B.T, abs=1e-13)
        assert dpsi == pytest.approx(np.einsum("rs,msd->mrd", smap.B, dxi), abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [[math.nan, 0.5], [0.5, math.inf]])
    def test_non_finite_point_rejected(self, bad):
        smap = build_map(SQUARE)
        with pytest.raises(BoundaryEvaluationError, match="not strictly inside"):
            eval_basis_batch(SQUARE, CoordinateKind.MEAN_VALUE, smap, np.array([bad]))

    def test_polygon_batch_equals_polygon_list(self):
        """build_map and eval_basis_batch read a PolygonBatch as its polygons one at a time."""
        rng = np.random.default_rng(67)
        polys = [corpus.random_convex_polygon(rng, 7) for _ in range(3)]
        batch = PolygonBatch.from_vertices(np.stack([p.vertices for p in polys]))
        maps = [build_map(p) for p in polys]
        assert all(np.array_equal(a.A, b.A) for a, b in zip(build_map(batch), maps))
        pts = np.stack([sample_interior(p, 8, rng, margin=1e-3) for p in polys])
        for kind in CoordinateKind:
            got = eval_basis_batch(batch, kind, maps, pts)
            for k, poly in enumerate(polys):
                want = eval_basis_batch(poly, kind, maps[k], pts[k])
                assert all(np.array_equal(g[k], w) for g, w in zip(got, want))

    def test_batch_rows_equal_single_calls(self):
        rng = np.random.default_rng(59)
        polys = [corpus.random_convex_polygon(rng, 6) for _ in range(3)]
        maps = [build_map(p) for p in polys]
        pts = np.stack([sample_interior(p, 9, rng, margin=1e-3) for p in polys])
        psi, dpsi = eval_basis_batch(oracles.polygon_batch(polys), CoordinateKind.MEAN_VALUE,
                                     maps, pts)
        assert psi.shape == (3, 9, 12) and dpsi.shape == (3, 9, 12, 2)
        for k in range(3):
            want, dwant = eval_basis_batch(polys[k], CoordinateKind.MEAN_VALUE, maps[k], pts[k])
            assert psi[k] == pytest.approx(want, rel=1e-14, abs=1e-15)
            assert dpsi[k] == pytest.approx(dwant, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("batched", [True, False])
    def test_gradients_are_BA_times_product_gradients(self, batched):
        """Each gradient component is B A applied to the product gradients,
        bit for bit, whatever layout the kernel writes it in."""
        rng = np.random.default_rng(71)
        polys = [corpus.random_convex_polygon(rng, 6) for _ in range(3 if batched else 1)]
        maps = [build_map(p) for p in polys]
        pts = np.stack([sample_interior(p, 9, rng, margin=1e-3) for p in polys])
        args = (oracles.polygon_batch(polys), maps, pts) if batched else (polys[0], maps[0], pts[0])
        _, dpsi = eval_basis_batch(args[0], CoordinateKind.MEAN_VALUE, args[1], args[2])
        _, dmu = pairwise_batch(*eval_coords_batch(args[0], CoordinateKind.MEAN_VALUE, args[2]))
        if not batched:
            dpsi, dmu = dpsi[None], dmu[None]
        for k, smap in enumerate(maps):
            for d in range(2):
                want = (smap.B @ smap.A) @ dmu[k, :, :, d].T
                assert np.array_equal(dpsi[k, :, :, d].T, want)

    def test_batch_needs_one_map_per_polygon(self):
        hexagon = corpus.regular_polygon(6)
        pts = np.full((2, 1, 2), 0.1)
        with pytest.raises(SerendipityError, match="one serendipity map per polygon"):
            eval_basis_batch(oracles.polygon_batch([hexagon, hexagon]), "meanvalue",
                             [build_map(hexagon)], pts)
        with pytest.raises(SerendipityError, match="one serendipity map per polygon"):
            eval_basis_batch(hexagon, "meanvalue", build_map(corpus.regular_polygon(5)),
                             pts[0])

    @pytest.mark.parametrize("kind", list(CoordinateKind))
    def test_chunk_memory_per_point(self, kind):
        """One chunk of the element kernel, three hexagons on the rule fem
        uses for the kind (432 points each, or 144 on the fan rule of
        triangulation coordinates), allocates at most 890 B per point at its
        peak, results included (798 B measured, 851 B on the fan rule, where
        the chunk's fixed arrays weigh more); the chunk size of
        fem.CHUNK_POINTS rests on this figure."""
        rng = np.random.default_rng(61)
        hexagons = oracles.polygon_batch([corpus.random_convex_polygon(rng, 6) for _ in range(3)])
        fan = kind is CoordinateKind.TRIANGULATION
        rule = fan_rule(hexagons, 10) if fan else polygon_rule(hexagons, 10)
        maps = build_map(hexagons)
        assert rule.weights.size == (432 if fan else 1296)
        eval_basis_batch(hexagons, kind, maps, rule.points)          # fill the caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = eval_basis_batch(hexagons, kind, maps, rule.points)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert result[1].shape == (3, rule.weights.shape[1], 12, 2)
        assert peak <= 890 * rule.weights.size

    # What the element kernel may allocate at its peak, in bytes, whatever
    # fem.CHUNK_POINTS is: 2.40 MiB, 1.1 KB for each point of a 2048-point
    # chunk plus 256 KiB for the arrays of the mesh or group it holds besides
    # one chunk (the group's representative batch in chunk order, member
    # indices and shifts, the exact field at one member slice).  Larger
    # chunks fit in it only as far as the memory per point shrinks.
    KERNEL_PEAK = 1100 * 2048 + 256 * 1024

    @staticmethod
    def kernel_peak(run) -> int:
        """Bytes ``run()`` allocates at its peak, measured on a second call."""
        run()                                                        # fill the caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind", list(CoordinateKind))
    def test_kernel_memory_per_chunk_point(self, kind):
        """The whole element kernel, as error_norms runs it on a Voronoi mesh
        (the solution as a form in each cell's coordinates), peaks within
        ``KERNEL_PEAK``: no chunk's coordinates outlive it, and only one
        chunk is alive at a time."""
        mesh = corpus.voronoi_mesh()
        values = harmonic_exact(node_coordinates(mesh))
        sol = DiscreteSolution(mesh=mesh, kind=kind, values=values,
                               report=SolveReport(values, 0, 0.0, True))
        assert self.kernel_peak(lambda: error_norms(sol, harmonic_field)) <= self.KERNEL_PEAK

    @pytest.mark.parametrize("kind", list(CoordinateKind))
    def test_assembly_kernel_memory(self, kind):
        """assemble without a source, on the same mesh, forms only the basis
        gradients and peaks within ``KERNEL_PEAK`` too, its triplet arrays
        and the sparse matrix included."""
        mesh = corpus.voronoi_mesh()
        assert self.kernel_peak(lambda: fem.assemble(mesh, kind)) <= self.KERNEL_PEAK

    def test_assembly_memory_per_triplet(self):
        """assemble writes every cell's (2n)^2 triplets in place, into int32
        rows and columns and float64 values sized once, which scipy converts
        without a copy: the whole call peaks within 40 B per triplet.  Lists
        of int64 triplets and their concatenation peaked at 71 B."""
        mesh = fem.trapezoid_mesh(64)
        triplets = sum(len(dofs) * dofs.shape[1] ** 2 for _, dofs in fem.dof_map(mesh).groups)
        assert triplets == 262144
        fem.assemble(mesh, CoordinateKind.TRIANGULATION)             # fill the caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fem.assemble(mesh, CoordinateKind.TRIANGULATION)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 40 * triplets

    def test_precision_residuals_flag_corruption(self):
        poly = corpus.regular_polygon(6)
        smap = build_map(poly)
        rng = np.random.default_rng(47)
        pts = sample_interior(poly, 20, rng, margin=1e-3)
        lam, dlam = eval_coords_batch(poly, CoordinateKind.MEAN_VALUE, pts)
        mu, _ = pairwise_batch(lam, dlam)
        xi = mu @ smap.A.T
        good = precision_residuals(poly, xi, pts)
        assert float(np.max(good)) <= 1e-12
        xi_bad = xi.copy()
        xi_bad[:, 0] += 1e-3
        bad = precision_residuals(poly, xi_bad, pts)
        assert float(np.max(bad)) > 1e-5
