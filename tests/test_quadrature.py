"""Quadrature rules: reference-triangle exactness and tightness, polygon
rules against an independent divergence-theorem oracle, fan rules, and the
degree-stability guard for coordinate-based integrands."""

from __future__ import annotations

from math import factorial

import numpy as np
import pytest

import corpus
import oracles
from polyserend import (
    CoordinateKind,
    GeometryError,
    Polygon,
    build_map,
    eval_basis_batch,
    eval_coords_batch,
    pairwise_batch,
    polygon_rule,
    triangle_rule,
)
from polyserend.barycentric import fan_apex
from polyserend.quadrature import MAX_DEGREE, _gauss_jacobi, fan_rule, rule_layouts


def reference_monomial(i: int, j: int) -> float:
    """Exact integral of x^i y^j over the unit reference triangle."""
    return factorial(i) * factorial(j) / factorial(i + j + 2)


class TestGaussJacobi:
    """The Gauss rules behind triangle_rule, with weight (1 - x)^alpha on [-1, 1]."""

    @pytest.mark.parametrize("m", range(1, 12))
    def test_matches_scipy(self, m):
        from scipy.special import roots_jacobi, roots_legendre   # the package does not import it
        for alpha, (x_ref, w_ref) in ((0, roots_legendre(m)), (1, roots_jacobi(m, 1.0, 0.0))):
            x, w = _gauss_jacobi(m, alpha)
            assert np.max(np.abs(x - x_ref)) <= 1e-14
            assert np.max(np.abs(w - w_ref)) <= 1e-14

    def test_closed_forms(self):
        s3, s6 = np.sqrt(3.0), np.sqrt(6.0)
        closed = {
            (1, 0): ([0.0], [2.0]),
            (2, 0): ([-1.0 / s3, 1.0 / s3], [1.0, 1.0]),
            (1, 1): ([-1.0 / 3.0], [2.0]),
            (2, 1): ([(-1.0 - s6) / 5.0, (-1.0 + s6) / 5.0], [1.0 + s6 / 9.0, 1.0 - s6 / 9.0]),
        }
        for (m, alpha), (x_want, w_want) in closed.items():
            x, w = _gauss_jacobi(m, alpha)
            assert x == pytest.approx(x_want, abs=1e-15)
            assert w == pytest.approx(w_want, abs=1e-15)


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
        """A non-integer degree used to be truncated: 3.5 gave the 4-point
        degree-3 rule, where degree 4 needs 9 points.  True and 3.0 would find
        the cached rules of 1 and 3, so the check comes before the cache."""
        triangle_rule(1), triangle_rule(3)
        square = corpus.unit_square()
        for bad in (0, -3, MAX_DEGREE + 1, 3.5, 3.0, True, "3", np.float64(4.0)):
            for make in (triangle_rule, lambda d: polygon_rule(square, d),
                         lambda d: fan_rule(square, d)):
                with pytest.raises(GeometryError, match="degree"):
                    make(bad)
        assert len(triangle_rule(np.int32(3))) == 4

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


def _rolled(poly: Polygon, shift: int) -> Polygon:
    """The polygon with its vertex k renumbered k - shift."""
    return Polygon(np.roll(poly.vertices, -shift, axis=0))


def _flat_hexagon() -> Polygon:
    """Rectangle 2 x 1 with flat vertices 0 and 3 at the midpoints of its
    long sides: fans from their neighbours 1, 2, 4 and 5 are degenerate."""
    return Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                             [-1.0, 1.0], [-1.0, 0.0]]))


class TestFanRule:
    def test_full_fan_matches_area_and_monomials(self):
        """Fans from vertices 0 and 3 of a heptagon (the polygon rolled by 3)."""
        rng = np.random.default_rng(23)
        poly = corpus.random_convex_polygon(rng, 7)
        for shifted in (poly, _rolled(poly, 3)):
            rule = fan_rule(shifted, 6)
            m = (6 + 2) // 2
            assert len(rule) == (poly.n - 2) * m * m
            assert np.sum(rule.weights) == pytest.approx(poly.area, rel=1e-12)
            got = float(np.dot(rule.weights,
                               rule.points[:, 0] ** 2 * rule.points[:, 1] ** 3))
            want = corpus.polygon_monomial_oracle(poly, 2, 3)
            assert got == pytest.approx(want, abs=1e-12)

    def test_flat_pentagon_keeps_every_fan_triangle(self):
        """Fanning from a vertex next to the straight joint would produce a
        zero-area triangle; the fan from the apex has none, so every one of
        the n - 2 triangles carries points."""
        degen = corpus.degenerate_pentagon()
        m = (3 + 2) // 2
        for shift, apex in ((0, 0), (1, 1)):
            poly = _rolled(degen, shift)
            assert fan_apex(poly) == apex
            rule = fan_rule(poly, 3)
            assert len(rule) == (degen.n - 2) * m * m
            assert np.sum(rule.weights) == pytest.approx(degen.area, abs=1e-13)
            # x^2 y^3 has degree 5, so build the matching degree-5 rule.
            quintic = fan_rule(poly, 5)
            val = float(np.dot(quintic.weights,
                               quintic.points[:, 0] ** 2 * quintic.points[:, 1] ** 3))
            assert val == pytest.approx(corpus.polygon_monomial_oracle(degen, 2, 3),
                                        abs=1e-13)

    @pytest.mark.parametrize("poly, apex", [
        (_rolled(corpus.degenerate_pentagon(), 1), 1),
        (_rolled(corpus.degenerate_pentagon(), 3), 0),
        (_rolled(_flat_hexagon(), 1), 2),
    ], ids=["pentagon-rolled-1", "pentagon-rolled-3", "hexagon-rolled-1"])
    def test_triangulation_mass_matrix_exact_from_the_apex(self, poly, apex):
        """Triangulation-kind coordinates are linear on each triangle of their
        fan, so the products of their pairwise products, which span every
        mass-matrix entry of the basis, are quartic there: the fan rule of
        degree 4 integrates them exactly, whichever vertex is the apex.  (A
        polygon with apex 2 has a diagonal between two flat vertices and so
        no serendipity map; its pairwise products still have a mass matrix.)"""
        assert fan_apex(poly) == apex

        def mass(degree, smap=None):
            rule = fan_rule(poly, degree)
            assert len(rule) == (poly.n - 2) * ((degree + 2) // 2) ** 2
            if smap is None:
                f, _ = pairwise_batch(*eval_coords_batch(poly, CoordinateKind.TRIANGULATION,
                                                         rule.points))
            else:
                f, _ = eval_basis_batch(poly, CoordinateKind.TRIANGULATION, smap, rule.points)
            return np.einsum("m,mi,mj->ij", rule.weights, f, f)

        assert np.max(np.abs(mass(4) - mass(20))) <= 1e-13
        if apex < 2:
            smap = build_map(poly)
            assert np.max(np.abs(mass(4, smap) - mass(20, smap))) <= 1e-13


class TestBatchedRules:
    """A batch of polygons gets one rule with a leading polygon axis."""

    def test_rows_equal_single_rules_and_length_counts_points(self):
        rng = np.random.default_rng(29)
        polys = [corpus.random_convex_polygon(rng, 6) for _ in range(3)]
        flats = [_rolled(_flat_hexagon(), shift) for shift in (0, 1, 2)]
        assert oracles.polygon_batch(flats).apices.tolist() == [0, 2, 1]
        for rule, group in ((polygon_rule, polys), (fan_rule, polys), (fan_rule, flats)):
            batch = rule(oracles.polygon_batch(group), 5)
            singles = [rule(p, 5) for p in group]
            assert batch.points.shape[:2] == batch.weights.shape
            assert len(batch) == batch.weights.size == sum(len(r) for r in singles)
            for k, single in enumerate(singles):
                assert np.array_equal(batch.points[k], single.points)
                assert np.array_equal(batch.weights[k], single.weights)

    def test_polygon_batch_equals_polygon_list(self):
        """Rules of a sliced batch equal the rules of its polygons, one at a time."""
        flat = corpus.degenerate_pentagon()
        polys = [corpus.regular_polygon(5), flat, corpus.regular_polygon(5, rotation=0.3),
                 _rolled(flat, 1)]
        batch = oracles.polygon_batch(polys)
        for fan in (False, True):
            got = rule_layouts(batch, 4, fan=fan)
            want = oracles.rule_layouts(polys, 4, fan=fan)
            assert [(c.tolist(), m) for c, m in got] == [(c.tolist(), m) for c, m in want]
        for got, rule, rows in ((polygon_rule(batch[np.array([0, 2])], 6), polygon_rule, (0, 2)),
                                (fan_rule(batch[1::2], 6), fan_rule, (1, 3))):
            for row, k in enumerate(rows):
                want = rule(polys[k], 6)
                assert np.array_equal(got.points[row], want.points)
                assert np.array_equal(got.weights[row], want.weights)

    def test_row_slices_are_read_only_views_of_the_batch_rule(self):
        rng = np.random.default_rng(31)
        polys = [corpus.random_convex_polygon(rng, 5) for _ in range(5)]
        batch = oracles.polygon_batch(polys)
        for rule in (polygon_rule, fan_rule):
            whole = rule(batch, 7)
            part = whole[1:4]
            assert part.degree == whole.degree
            assert part.points.shape == (3, *whole.points.shape[1:])
            assert len(part) == part.weights.size == 3 * whole.weights.shape[1]
            for got, base in ((part.points, whole.points), (part.weights, whole.weights)):
                assert np.shares_memory(got, base) and not got.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    got[...] = 0.0
            own = rule(batch[1:4], 7)
            assert part.points.tobytes() == own.points.tobytes()
            assert part.weights.tobytes() == own.weights.tobytes()
            single = whole[2]
            assert len(single) == len(rule(polys[2], 7)) and single.points.shape[-1] == 2

    def test_batch_must_share_one_layout(self):
        batch = oracles.polygon_batch([corpus.degenerate_pentagon(), corpus.regular_polygon(5)])
        with pytest.raises(GeometryError, match="flat vertex"):
            polygon_rule(batch, 4)

    def test_layouts_group_by_vertex_count_and_flat_vertices(self):
        polys = [corpus.unit_square(), corpus.degenerate_pentagon(),
                 corpus.regular_polygon(5), corpus.unit_square()]
        m = (4 + 2) // 2
        top = (MAX_DEGREE + 2) // 2
        groups = {tuple(cells): size for cells, size in oracles.rule_layouts(polys, 4)}
        assert groups == {(0, 3): 8 * m * m, (2,): 10 * m * m, (1,): 10 * top * top}
        groups = {tuple(cells): size for cells, size in oracles.rule_layouts(polys, 4, fan=True)}
        assert groups == {(0, 3): 2 * m * m, (1, 2): 3 * m * m}


class TestRuleIntegrals:
    def test_constant_gives_area(self):
        poly = corpus.regular_polygon(9)
        assert polygon_rule(poly, 1).weights.sum() == pytest.approx(poly.area, rel=1e-12)

    def test_batch_rule_gives_one_integral_per_polygon(self):
        square = corpus.unit_square()
        square2 = Polygon(2.0 * square.vertices + 1.0)
        rule = polygon_rule(oracles.polygon_batch([square, square2]), 3)
        f = lambda p: p[..., 0] * p[..., 1]
        got = np.einsum("cm,cm->c", rule.weights, f(rule.points))
        assert got == pytest.approx([0.25, 16.0], rel=1e-13)
        for k, poly in enumerate((square, square2)):
            single = polygon_rule(poly, 3)
            assert got[k] == pytest.approx(single.weights @ f(single.points), rel=1e-14)

    def test_single_polygon_rule_has_no_rows(self):
        """Indexing a rule of one polygon used to give a 'rule' of one point's
        coordinates, with weights of shape () and length 1."""
        rule = polygon_rule(corpus.unit_square(), 4)
        for rows in (0, slice(0, 1), np.array([0])):
            with pytest.raises(GeometryError, match="only a batch rule has rows"):
                rule[rows]


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
        rule = polygon_rule(poly, 14)
        direct = rule.weights @ product(rule.points)
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
