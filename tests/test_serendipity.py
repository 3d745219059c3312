"""The quadratic serendipity reduction: the two constructions build_map picks
between, the closed-form oracles they are checked against, constraint
verification, Lagrange structure, and bounds."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import corpus
from polyserend import (
    BoundaryEvaluationError,
    CoefficientBlowupError,
    CoordinateKind,
    Polygon,
    SerendipityError,
    Strategy,
    basis_nodes,
    bound_from_margin,
    boundary_basis_values,
    build_A_generic,
    build_A_quadrilateral,
    build_A_regular,
    build_A_unit_square,
    build_B,
    build_map,
    check_conditions,
    coefficient_bound,
    diagonal_frame,
    eval_basis_batch,
    eval_coords_batch,
    generic_diagonal_coefficients,
    lagrange_table,
    pair_order,
    pairwise_batch,
    precision_residuals,
    quadrilateral_diagonal_coefficients,
    sample_interior,
    verify_constraints,
)

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
        for _ in range(200):
            quad = corpus.random_convex_quadrilateral(rng)
            for a in (0, 1):
                co = quadrilateral_diagonal_coefficients(quad, a)
                edges = [co.c_edge_before_a, co.c_edge_after_a,
                         co.c_edge_before_b, co.c_edge_after_b]
                assert all(0.0 < c < 1.0 for c in edges)
                assert abs(co.c_aa) <= 2.0 and abs(co.c_bb) <= 2.0
                assert co.c_aa + co.c_bb == pytest.approx(-2.0, abs=1e-12)

    def test_convex_combination_lands_on_diagonal_axis(self):
        """The two edge coefficients of one diagonal column average the two
        off-diagonal vertices onto the diagonal's axis."""
        trap = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.75, 1.0], [0.25, 1.0]]))
        co = quadrilateral_diagonal_coefficients(trap, 0)
        frame = diagonal_frame(trap, 0, 2)
        q = frame.apply(trap.vertices)
        c12, c34 = co.c_edge_after_a, co.c_edge_before_a
        assert c12 + c34 == pytest.approx(1.0, abs=1e-12)
        assert c12 * q[1, 1] + c34 * q[3, 1] == pytest.approx(0.0, abs=1e-12)

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
        A_generic = build_A_generic(poly)
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

    def test_rejects_quadrilaterals(self):
        with pytest.raises(SerendipityError, match="quadrilateral"):
            build_A_generic(SQUARE)

    def test_triangle_is_identity(self):
        tri = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]]))
        assert build_A_generic(tri) == pytest.approx(np.eye(6), abs=0.0)

    def test_straight_vertex_on_diagonal(self):
        """The corner diagonal of the flat pentagon passes through its
        straight vertex; both axis intercepts vanish and no rebalancing
        beyond the neighboring edges is needed."""
        poly = corpus.degenerate_pentagon()
        co = generic_diagonal_coefficients(poly, 1, 4)
        assert abs(co.d_a) <= 1e-12
        assert abs(co.d_b) <= 1e-12
        assert co.s == pytest.approx(1.0, abs=1e-12)

    def test_flat_pentagon_full_construction(self):
        poly = corpus.degenerate_pentagon()
        smap = build_map(poly)
        assert verify_constraints(poly, smap, tol=1e-10).passed
        assert np.max(np.abs(lagrange_table(poly, smap) - np.eye(10))) <= 1e-10

    def test_edge_coefficients_split_s(self):
        rng = np.random.default_rng(14)
        poly = corpus.random_convex_polygon(rng, 8)
        for (a, b) in pair_order(8)[16:]:
            co = generic_diagonal_coefficients(poly, a, b)
            assert -1.0 <= co.d_a <= 1.0 and -1.0 <= co.d_b <= 1.0
            assert co.s == pytest.approx(2.0 / (2.0 - (co.d_a + co.d_b)), abs=1e-12)
            for pair in ((co.c_edge_before_a, co.c_edge_after_a),
                         (co.c_edge_before_b, co.c_edge_after_b)):
                assert pair[0] >= -1e-12 and pair[1] >= -1e-12
                assert pair[0] + pair[1] == pytest.approx(co.s, abs=1e-10)


class TestBlowupFamily:
    def test_coefficients_grow_as_edges_shrink(self):
        ts = [0.3, 0.1, 0.03, 0.01, 0.003, 0.001]
        s_values = []
        for t in ts:
            poly = corpus.blowup_hexagon(t)
            co = generic_diagonal_coefficients(poly, 0, 3)
            s_values.append(co.s)
        assert all(b > a for a, b in zip(s_values, s_values[1:]))

    def test_blowup_threshold_reached_at_short_edge(self):
        """Once the short edges reach ~1e-3 of the diameter the scale factor
        is far beyond any uniform constant."""
        poly = corpus.blowup_hexagon(2e-3)  # edge length ~2e-3, diameter 2
        assert float(np.min(poly.edge_lengths)) <= 1e-3 * poly.diameter
        co = generic_diagonal_coefficients(poly, 0, 3)
        assert co.s > 10.0
        assert max(abs(co.c_aa), abs(co.c_bb)) > 10.0

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
        with pytest.raises(CoefficientBlowupError):
            generic_diagonal_coefficients(safe, 0, 3)


class TestCoefficientBound:
    def test_margin_validation(self):
        with pytest.raises(SerendipityError):
            bound_from_margin(0.0)
        with pytest.raises(SerendipityError):
            bound_from_margin(-0.1)

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
        side = float(poly.edge_lengths[0])
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
            A = build_A_generic(poly)
            assert float(np.max(np.abs(A))) <= bound

    def test_row_sum_norm_bound(self):
        rng = np.random.default_rng(29)
        for poly in corpus.shape_regular_corpus(rng, 5):
            cond = check_conditions(
                poly, corpus.GAMMA_STAR, corpus.D_STAR_FRACTION * poly.diameter,
                corpus.BETA_STAR,
            )
            A = build_A_generic(poly)
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
        """Called directly, each construction refuses polygons outside its
        domain."""
        rng = np.random.default_rng(3)
        with pytest.raises(SerendipityError):
            build_A_quadrilateral(corpus.random_convex_polygon(rng, 5))
        with pytest.raises(SerendipityError):
            build_A_generic(SQUARE)
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


class TestBasisEvaluation:
    @pytest.mark.parametrize("kind", list(CoordinateKind))
    def test_nodal_monomial_reproduction(self, kind):
        """Interpolating 1, x, y, x^2, xy, y^2 at the nodes reproduces the
        monomial pointwise: the basis spans all quadratics."""
        rng = np.random.default_rng(31)
        poly = corpus.random_convex_polygon(rng, 6)
        smap = build_map(poly)
        nodes = basis_nodes(poly)
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
        poly = corpus.regular_polygon(5)
        nodes = basis_nodes(poly)
        assert nodes[:5] == pytest.approx(poly.vertices, abs=0.0)
        assert nodes[5] == pytest.approx(0.5 * (poly.vertices[0] + poly.vertices[1]))

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

    def test_batch_rows_equal_single_calls(self):
        rng = np.random.default_rng(59)
        polys = [corpus.random_convex_polygon(rng, 6) for _ in range(3)]
        maps = [build_map(p) for p in polys]
        pts = np.stack([sample_interior(p, 9, rng, margin=1e-3) for p in polys])
        psi, dpsi = eval_basis_batch(polys, CoordinateKind.MEAN_VALUE, maps, pts)
        assert psi.shape == (3, 9, 12) and dpsi.shape == (3, 9, 12, 2)
        for k in range(3):
            want, dwant = eval_basis_batch(polys[k], CoordinateKind.MEAN_VALUE, maps[k], pts[k])
            assert psi[k] == pytest.approx(want, rel=1e-14, abs=1e-15)
            assert dpsi[k] == pytest.approx(dwant, rel=1e-14, abs=1e-14)

    def test_batch_needs_one_map_per_polygon(self):
        hexagon = corpus.regular_polygon(6)
        pts = np.full((2, 1, 2), 0.1)
        with pytest.raises(SerendipityError, match="one serendipity map per polygon"):
            eval_basis_batch([hexagon, hexagon], "meanvalue", [build_map(hexagon)], pts)
        with pytest.raises(SerendipityError, match="one serendipity map per polygon"):
            eval_basis_batch(hexagon, "meanvalue", build_map(corpus.regular_polygon(5)),
                             pts[0])

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
