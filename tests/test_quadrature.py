"""Quadrature rules: reference-triangle exactness and tightness, polygon
rules against an independent divergence-theorem oracle, fan rules, and the
degree-stability guard for coordinate-based integrands."""

from __future__ import annotations

from math import factorial

import numpy as np
import pytest

import corpus
from polyserend import (
    CoordinateKind,
    GeometryError,
    Polygon,
    build_map,
    eval_basis_batch,
    integrate,
    polygon_rule,
    triangle_rule,
)
from polyserend.quadrature import MAX_DEGREE, fan_rule, rule_layouts


def reference_monomial(i: int, j: int) -> float:
    """Exact integral of x^i y^j over the unit reference triangle."""
    return factorial(i) * factorial(j) / factorial(i + j + 2)


class TestTriangleRule:
    def test_lowest_rule_is_centroid(self):
        rule = triangle_rule(1)
        assert len(rule) == 1
        assert rule.points[0] == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=1e-15)
        assert rule.weights[0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
    def test_exact_for_all_reachable_monomials(self, degree):
        rule = triangle_rule(degree)
        assert rule.degree >= degree
        for total in range(rule.degree + 1):
            for i in range(total + 1):
                j = total - i
                approx = float(np.dot(rule.weights,
                                      rule.points[:, 0] ** i * rule.points[:, 1] ** j))
                assert approx == pytest.approx(reference_monomial(i, j), abs=1e-13)

    @pytest.mark.parametrize("degree", range(1, 14))
    def test_exactness_degree_is_tight(self, degree):
        """One degree past the advertised exactness, some monomial misses by
        far more than rounding; the degree label is honest, not padded."""
        rule = triangle_rule(degree)
        beyond = rule.degree + 1
        worst = max(
            abs(float(np.dot(rule.weights,
                             rule.points[:, 0] ** i * rule.points[:, 1] ** (beyond - i)))
                - reference_monomial(i, beyond - i))
            for i in range(beyond + 1)
        )
        assert worst > 1e-10

    @pytest.mark.parametrize("degree", [1, 2, 5, 10, 20])
    def test_points_interior_weights_positive(self, degree):
        rule = triangle_rule(degree)
        x, y = rule.points[:, 0], rule.points[:, 1]
        assert np.all(x > 0.0) and np.all(y > 0.0) and np.all(x + y < 1.0)
        assert np.all(rule.weights > 0.0)
        assert np.sum(rule.weights) == pytest.approx(0.5, abs=1e-14)

    def test_degree_validation(self):
        for bad in (0, -3, MAX_DEGREE + 1):
            with pytest.raises(GeometryError):
                triangle_rule(bad)

    def test_rules_cached_and_immutable(self):
        rule = triangle_rule(7)
        assert triangle_rule(7) is rule
        with pytest.raises(ValueError):
            rule.points[0, 0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0


class TestPolygonRule:
    def test_weights_sum_to_area(self):
        rng = np.random.default_rng(3)
        for _, poly in corpus.standard_corpus(rng):
            rule = polygon_rule(poly, 4)
            assert np.sum(rule.weights) == pytest.approx(poly.area, rel=1e-12)
            assert np.all(rule.weights > 0.0)

    def test_unit_square_bilinear_moment(self):
        rule = polygon_rule(corpus.unit_square(), 2)
        val = float(np.dot(rule.weights, rule.points[:, 0] * rule.points[:, 1]))
        assert val == pytest.approx(0.25, abs=1e-14)

    def test_point_count_scales_with_degree(self):
        poly = corpus.regular_polygon(5)
        for degree in (1, 3, 7):
            m = (degree + 2) // 2
            assert len(polygon_rule(poly, degree)) == 2 * poly.n * m * m

    @pytest.mark.parametrize("degree", [3, 6, 9])
    def test_monomials_match_divergence_oracle(self, degree):
        rng = np.random.default_rng(11)
        for n in (5, 7, 8):
            poly = corpus.random_convex_polygon(rng, n)
            rule = polygon_rule(poly, degree)
            for total in range(degree + 1):
                for i in range(total + 1):
                    j = total - i
                    got = float(np.dot(rule.weights,
                                       rule.points[:, 0] ** i * rule.points[:, 1] ** j))
                    want = corpus.polygon_monomial_oracle(poly, i, j)
                    assert got == pytest.approx(want, abs=1e-12 * max(1.0, poly.area))

    def test_points_strictly_interior(self):
        rng = np.random.default_rng(19)
        poly = corpus.random_convex_polygon(rng, 6)
        rule = polygon_rule(poly, 8)
        signed = poly.edge_distances(rule.points)
        assert float(np.min(signed)) > 0.0

    def test_flat_vertex_forces_top_base_rule(self):
        """Collinear vertices make coordinate integrands rough, so the rule
        silently upgrades to the strongest base rule; a strictly convex
        polygon keeps the requested resolution."""
        degen = corpus.degenerate_pentagon()
        bumped = polygon_rule(degen, 2)
        assert bumped.degree == 2 * ((MAX_DEGREE + 2) // 2) - 1
        plain = polygon_rule(corpus.unit_square(), 2)
        assert plain.degree == 3
        # still a correct rule for the flat-vertex polygon
        got = float(np.dot(bumped.weights,
                           bumped.points[:, 0] ** 2 * bumped.points[:, 1] ** 3))
        assert got == pytest.approx(corpus.polygon_monomial_oracle(degen, 2, 3),
                                    abs=1e-13)
        assert np.sum(bumped.weights) == pytest.approx(degen.area, rel=1e-12)


class TestFanRule:
    def test_full_fan_matches_area_and_monomials(self):
        rng = np.random.default_rng(23)
        poly = corpus.random_convex_polygon(rng, 7)
        for apex in (0, 3):
            rule = fan_rule(poly, 6, apex=apex)
            m = (6 + 2) // 2
            assert len(rule) == (poly.n - 2) * m * m
            assert np.sum(rule.weights) == pytest.approx(poly.area, rel=1e-12)
            got = float(np.dot(rule.weights,
                               rule.points[:, 0] ** 2 * rule.points[:, 1] ** 3))
            want = corpus.polygon_monomial_oracle(poly, 2, 3)
            assert got == pytest.approx(want, abs=1e-12)

    def test_apex_wraps_modulo_n(self):
        poly = corpus.regular_polygon(5)
        a = fan_rule(poly, 3, apex=5)
        b = fan_rule(poly, 3, apex=0)
        assert a.points == pytest.approx(b.points, abs=0.0)

    def test_flat_pentagon_drops_empty_triangle(self):
        """Fanning from a vertex adjacent to the straight joint produces one
        zero-area triangle, which must be skipped, not integrated."""
        degen = corpus.degenerate_pentagon()
        m = (3 + 2) // 2
        thinned = fan_rule(degen, 3, apex=1)
        assert len(thinned) == (degen.n - 3) * m * m
        full = fan_rule(degen, 3, apex=0)
        assert len(full) == (degen.n - 2) * m * m
        for rule in (thinned, full):
            assert np.sum(rule.weights) == pytest.approx(degen.area, abs=1e-13)
        # The thinned fan must still integrate exactly; x^2 y^3 has degree 5,
        # so build the matching degree-5 rule for the exactness check.
        quintic = fan_rule(degen, 5, apex=1)
        val = float(np.dot(quintic.weights,
                           quintic.points[:, 0] ** 2 * quintic.points[:, 1] ** 3))
        assert val == pytest.approx(corpus.polygon_monomial_oracle(degen, 2, 3),
                                    abs=1e-13)


class TestBatchedRules:
    """A batch of polygons gets one rule with a leading polygon axis."""

    def test_rows_equal_single_rules_and_length_counts_points(self):
        rng = np.random.default_rng(29)
        polys = [corpus.random_convex_polygon(rng, 6) for _ in range(3)]
        for batch, singles in (
            (polygon_rule(polys, 5), [polygon_rule(p, 5) for p in polys]),
            (fan_rule(polys, 5, np.array([0, 2, 4])),
             [fan_rule(p, 5, a) for p, a in zip(polys, (0, 2, 4))]),
        ):
            assert batch.points.shape[:2] == batch.weights.shape
            assert len(batch) == batch.weights.size == sum(len(r) for r in singles)
            for k, rule in enumerate(singles):
                assert np.array_equal(batch.points[k], rule.points)
                assert np.array_equal(batch.weights[k], rule.weights)

    def test_batch_must_share_one_layout(self):
        flat, square = corpus.degenerate_pentagon(), corpus.unit_square()
        with pytest.raises(GeometryError, match="vertex count"):
            polygon_rule([flat, square], 4)
        with pytest.raises(GeometryError, match="flat vertex"):
            polygon_rule([flat, corpus.regular_polygon(5)], 4)
        with pytest.raises(GeometryError, match="empty triangles"):
            fan_rule([flat, flat], 3, np.array([0, 1]))

    def test_layouts_group_by_vertex_count_and_flat_vertices(self):
        polys = [corpus.unit_square(), corpus.degenerate_pentagon(),
                 corpus.regular_polygon(5), corpus.unit_square()]
        m = (4 + 2) // 2
        top = (MAX_DEGREE + 2) // 2
        groups = {tuple(cells): size for cells, size in rule_layouts(polys, 4)}
        assert groups == {(0, 3): 8 * m * m, (2,): 10 * m * m, (1,): 10 * top * top}
        groups = {tuple(cells): size for cells, size in rule_layouts(polys, 4, fan=True)}
        assert groups == {(0, 3): 2 * m * m, (1, 2): 3 * m * m}


class TestIntegrateHelper:
    def test_matches_manual_dot(self):
        poly = corpus.regular_polygon(6)
        rule = polygon_rule(poly, 4)
        f = lambda p: np.cos(p[:, 0]) * p[:, 1]
        assert integrate(rule, f) == pytest.approx(
            float(np.dot(rule.weights, f(rule.points))), abs=0.0
        )

    def test_constant_gives_area(self):
        poly = corpus.regular_polygon(9)
        rule = polygon_rule(poly, 1)
        assert integrate(rule, lambda p: np.ones(len(p))) == pytest.approx(
            poly.area, rel=1e-12
        )


class TestCoordinateIntegrandStability:
    """The production degree must sit on the flat part of the convergence
    curve for the rational integrands the element assembly produces."""

    def test_basis_product_matches_refinement_oracle(self):
        poly = corpus.regular_polygon(5)
        smap = build_map(poly)

        def product(pts):
            psi, _ = eval_basis_batch(poly, CoordinateKind.WACHSPRESS, smap, pts)
            return psi[:, 0] * psi[:, 1]

        oracle = corpus.refined_polygon_integral(poly, product, levels=3, degree=12)
        direct = integrate(polygon_rule(poly, 14), product)
        assert direct == pytest.approx(oracle, abs=1e-8)

    def test_stiffness_entries_stable_under_degree_increase(self):
        trap = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.75, 1.0], [0.25, 1.0]]))
        smap = build_map(trap)

        def stiffness(degree):
            rule = polygon_rule(trap, degree)
            _, dpsi = eval_basis_batch(trap, CoordinateKind.MEAN_VALUE, smap,
                                       rule.points)
            return np.einsum("m,mid,mjd->ij", rule.weights, dpsi, dpsi)

        K10, K14 = stiffness(10), stiffness(14)
        rel = float(np.max(np.abs(K10 - K14)) / np.max(np.abs(K14)))
        assert rel <= 5e-6

    def test_mass_matrix_symmetric_positive(self):
        rng = np.random.default_rng(29)
        poly = corpus.random_convex_polygon(rng, 6)
        smap = build_map(poly)
        rule = polygon_rule(poly, 10)
        psi, _ = eval_basis_batch(poly, CoordinateKind.MEAN_VALUE, smap, rule.points)
        M = np.einsum("m,mi,mj->ij", rule.weights, psi, psi)
        assert M == pytest.approx(M.T, abs=1e-14)
        eigenvalues = np.linalg.eigvalsh(M)
        assert float(eigenvalues[0]) > 0.0
