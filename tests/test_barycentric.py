"""Generalized barycentric coordinates: defining properties, exact special
cases, gradients, boundary traces, and the pairwise-product basis."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from polyserend import (
    BoundaryEvaluationError,
    CoordinateKind,
    GeometryError,
    Polygon,
    build_map,
    eval_basis_batch,
    eval_boundary,
    eval_coords_batch,
    pair_order,
    pairwise_batch,
    sample_interior,
)
from polyserend.barycentric import _coordinates, fan_apex

KINDS = list(CoordinateKind)
SQUARE = corpus.unit_square()


def _poly_and_points(seed: int, n: int, count: int = 20):
    rng = np.random.default_rng(seed)
    poly = corpus.random_convex_polygon(rng, n)
    pts = sample_interior(poly, count, rng, margin=1e-4 * poly.diameter)
    return poly, pts


class TestDefiningProperties:
    """Non-negativity, partition of unity, linear precision, invariance."""

    @pytest.mark.parametrize("kind", KINDS)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 10))
    def test_partition_linear_precision_nonnegative(self, kind, seed, n):
        poly, pts = _poly_and_points(seed, n, count=40)
        lam, grad = eval_coords_batch(poly, kind, pts)
        assert np.min(lam) >= -1e-12
        assert np.max(np.abs(np.sum(lam, axis=1) - 1.0)) <= 1e-12
        recon = lam @ poly.vertices
        assert np.max(np.abs(recon - pts)) <= 1e-10
        assert np.max(np.abs(np.sum(grad, axis=1))) <= 1e-9

    @pytest.mark.parametrize("kind", KINDS)
    def test_similarity_invariance(self, kind):
        poly, pts = _poly_and_points(3, 6)
        theta, scale, shift = 0.7, 2.5, np.array([3.0, -1.0])
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        mapped_poly = Polygon(scale * poly.vertices @ rot.T + shift)
        mapped_pts = scale * pts @ rot.T + shift
        lam, _ = eval_coords_batch(poly, kind, pts)
        lam_mapped, _ = eval_coords_batch(mapped_poly, kind, mapped_pts)
        assert np.max(np.abs(lam - lam_mapped)) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_triangle_coordinates_are_affine(self, kind):
        tri = Polygon(np.array([[0.0, 0.0], [2.0, 0.2], [0.5, 1.5]]))
        rng = np.random.default_rng(0)
        pts = sample_interior(tri, 30, rng, margin=1e-3)
        lam, _ = eval_coords_batch(tri, kind, pts)
        # Affine coordinates from the linear system [v; 1] lam = [x; 1].
        mat = np.vstack([tri.vertices.T, np.ones(3)])
        exact = np.linalg.solve(mat, np.vstack([pts.T, np.ones(len(pts))])).T
        assert np.max(np.abs(lam - exact)) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_near_vertex_interpolation_limit(self, kind):
        poly = corpus.regular_polygon(5)
        for i in range(poly.n):
            target = poly.vertices[i]
            x = target + 1e-7 * (poly.centroid - target)
            lam, _ = eval_coords_batch(poly, kind, x[None, :])
            assert abs(lam[0, i] - 1.0) <= 1e-5
            assert np.max(np.abs(np.delete(lam[0], i))) <= 1e-5


class TestExactSpecialCases:
    def test_square_center_is_symmetric(self):
        for kind in (CoordinateKind.WACHSPRESS, CoordinateKind.MEAN_VALUE):
            lam, _ = eval_coords_batch(SQUARE, kind, np.array([[0.5, 0.5]]))
            assert lam[0] == pytest.approx(np.full(4, 0.25), abs=1e-12)

    def test_square_rational_coordinates_are_bilinear(self):
        rng = np.random.default_rng(1)
        pts = sample_interior(SQUARE, 50, rng, margin=1e-3)
        lam, _ = eval_coords_batch(SQUARE, CoordinateKind.WACHSPRESS, pts)
        x, y = pts[:, 0], pts[:, 1]
        exact = np.stack([(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y], axis=1)
        assert np.max(np.abs(lam - exact)) <= 1e-12

    def test_square_rational_gradient_closed_form(self):
        pts = np.array([[0.3, 0.6], [0.71, 0.12]])
        _, grad = eval_coords_batch(SQUARE, CoordinateKind.WACHSPRESS, pts)
        x, y = pts[:, 0], pts[:, 1]
        expected0 = np.stack([-(1 - y), -(1 - x)], axis=1)
        assert grad[:, 0, :] == pytest.approx(expected0, abs=1e-12)

    def test_regular_hexagon_centroid(self):
        hexagon = corpus.regular_polygon(6)
        for kind in (CoordinateKind.WACHSPRESS, CoordinateKind.MEAN_VALUE):
            lam, _ = eval_coords_batch(hexagon, kind, np.array([[0.0, 0.0]]))
            assert lam[0] == pytest.approx(np.full(6, 1.0 / 6.0), abs=1e-12)

    def test_piecewise_linear_kind_matches_fan_triangles(self):
        poly, pts = _poly_and_points(9, 6, count=40)
        apex = fan_apex(poly)
        lam, _ = eval_coords_batch(poly, CoordinateKind.TRIANGULATION, pts)
        v = poly.vertices
        n = poly.n
        for p, row in zip(pts, lam):
            # Find a fan triangle (apex, j, j+1) containing the point and
            # compare against its affine coordinates.
            matched = False
            for j in range(n):
                if j == apex or (j + 1) % n == apex:
                    continue
                tri = np.array([v[apex], v[j], v[(j + 1) % n]])
                mat = np.vstack([tri.T, np.ones(3)])
                coeff = np.linalg.solve(mat, np.array([p[0], p[1], 1.0]))
                if np.min(coeff) >= -1e-12:
                    expected = np.zeros(n)
                    for idx, c in zip((apex, j, (j + 1) % n), coeff):
                        expected[idx] += c
                    assert row == pytest.approx(expected, abs=1e-12)
                    matched = True
                    break
            assert matched

    def test_flat_vertex_rational_coordinate_vanishes(self):
        """On a polygon with a straight vertex, the area-ratio construction
        assigns that vertex the zero function (its interpolation property
        fails there; the angle-based kind below keeps it), so evaluation
        refuses the polygon with a typed error instead."""
        poly = corpus.degenerate_pentagon()
        rng = np.random.default_rng(4)
        pts = sample_interior(poly, 50, rng, margin=1e-3)
        lam, grad = _kernel(oracles.polygon_batch([poly]), CoordinateKind.WACHSPRESS, pts[None])
        assert np.max(np.abs(lam[0])) <= 1e-13
        assert np.max(np.abs(grad[:, 0])) <= 1e-12
        pentagon = corpus.regular_polygon(5)
        with pytest.raises(GeometryError, match="polygon 1 has a flat vertex"):
            eval_coords_batch(oracles.polygon_batch([pentagon, poly]), CoordinateKind.WACHSPRESS,
                              np.stack([sample_interior(pentagon, 50, rng), pts]))

    def test_flat_vertex_angle_coordinate_interpolates(self):
        poly = corpus.degenerate_pentagon()
        x = np.array([[0.0, 1e-5]])  # just above the straight vertex at the origin
        lam, _ = eval_coords_batch(poly, CoordinateKind.MEAN_VALUE, x)
        assert lam[0, 0] > 0.99


class TestGradients:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_central_differences(self, kind):
        rng = np.random.default_rng(12)
        for name, poly in corpus.standard_corpus(rng)[:6]:
            pts = corpus.fd_safe_points(poly, 8, rng)
            lam, grad = eval_coords_batch(poly, kind, pts)
            h = 1e-6 * poly.diameter
            fd = corpus.fd_gradients(
                lambda q: eval_coords_batch(poly, kind, q)[0], pts, h
            )
            err = corpus.relative_gradient_error(grad, fd)
            assert err <= 1e-5, f"{name}: {err:.2e}"


class TestBoundaryTrace:
    def test_midpoint_values(self):
        poly = corpus.regular_polygon(6)
        lam = eval_boundary(poly, 1, 0.5)
        assert lam.shape == (1, 6)
        assert lam[0, 1] == pytest.approx(0.5)
        assert lam[0, 2] == pytest.approx(0.5)
        assert np.count_nonzero(lam) == 2

    def test_endpoint_is_vertex_indicator(self):
        poly = corpus.regular_polygon(5)
        lam = eval_boundary(poly, np.arange(5), 0.0)
        assert lam == pytest.approx(np.eye(5), abs=0.0)

    def test_quarter_point_on_pentagon(self):
        poly = corpus.regular_polygon(5)
        lam = eval_boundary(poly, 2, 0.25)[0]
        assert lam[2] == pytest.approx(0.75)
        assert lam[3] == pytest.approx(0.25)
        assert np.count_nonzero(lam) == 2

    def test_wrap_edge(self):
        poly = corpus.regular_polygon(5)
        lam = eval_boundary(poly, 4, 0.5)[0]
        assert lam[4] == pytest.approx(0.5)
        assert lam[0] == pytest.approx(0.5)

    def test_edges_broadcast_against_parameters(self):
        poly = corpus.regular_polygon(5)
        ts = np.array([0.0, 0.3, 1.0])
        lam = eval_boundary(poly, np.arange(5)[:, None], ts[None, :])
        assert lam.shape == (15, 5)
        for row, (edge, t) in enumerate((e, t) for e in range(5) for t in ts):
            expected = np.zeros(5)
            expected[edge] += 1.0 - t
            expected[(edge + 1) % 5] += t
            assert lam[row] == pytest.approx(expected, abs=0.0)

    def test_parameter_range_validated(self):
        poly = corpus.regular_polygon(5)
        for ts in (1.5, [0.5, -0.1], [0.2, math.nan]):
            with pytest.raises(GeometryError, match="outside"):
                eval_boundary(poly, 0, ts)

    @pytest.mark.parametrize("edges", [[1.7], 1.0, True, "1", [1, 2.5]])
    def test_edge_index_must_be_integer(self, edges):
        """[1.7] used to give the trace on edge 1; True and "1" were read as 1."""
        poly = corpus.regular_polygon(5)
        with pytest.raises(GeometryError, match="expected integer edge indices"):
            eval_boundary(poly, edges, 0.5)

    def test_interior_formulas_approach_trace(self):
        poly = corpus.regular_polygon(5)
        mid = 0.5 * (poly.vertices[1] + poly.vertices[2])
        x = mid + 1e-7 * (poly.centroid - mid)
        for kind in KINDS:
            lam, _ = eval_coords_batch(poly, kind, x[None, :])
            assert np.max(np.abs(lam[0] - eval_boundary(poly, 1, 0.5))) <= 1e-5


class TestBoundaryRejection:
    def test_exterior_point_rejected(self):
        with pytest.raises(BoundaryEvaluationError, match="not strictly inside"):
            eval_coords_batch(SQUARE, CoordinateKind.MEAN_VALUE, np.array([[2.0, 0.5]]))

    def test_vertex_and_edge_points_rejected(self):
        for bad in ([0.0, 0.0], [0.5, 0.0]):
            with pytest.raises(BoundaryEvaluationError):
                eval_coords_batch(SQUARE, CoordinateKind.WACHSPRESS, np.array([bad]))

    def test_near_edge_point_accepted_at_default_margin(self):
        x = np.array([[0.5, 0.01]])
        lam, _ = eval_coords_batch(SQUARE, CoordinateKind.MEAN_VALUE, x)
        assert lam.shape == (1, 4)

    # Rejected before any distance is computed, so no RuntimeWarning either.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad", [[math.nan, 0.5], [math.inf, 0.5]])
    def test_non_finite_point_rejected(self, kind, bad):
        pts = np.array([[0.5, 0.5], bad])
        with pytest.raises(BoundaryEvaluationError, match="not strictly inside"):
            eval_coords_batch(SQUARE, kind, pts)


class TestBatchedEvaluation:
    """A batch of polygons is evaluated at once; each row equals a single call."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_equal_single_calls(self, kind):
        rng = np.random.default_rng(53)
        flat = corpus.degenerate_pentagon()
        rolled = Polygon(np.roll(flat.vertices, 1, axis=0))  # fan apex 1
        polys = [corpus.random_convex_polygon(rng, 5) for _ in range(3)] + [flat, rolled]
        if kind is CoordinateKind.WACHSPRESS:       # refuses flat vertices
            polys[3:] = [corpus.random_convex_polygon(rng, 5) for _ in range(2)]
        pts = np.stack([sample_interior(p, 7, rng, margin=1e-3) for p in polys])
        lam, dlam = eval_coords_batch(oracles.polygon_batch(polys), kind, pts)
        assert lam.shape == (5, 7, 5) and dlam.shape == (5, 7, 5, 2)
        for k, poly in enumerate(polys):
            want, dwant = eval_coords_batch(poly, kind, pts[k])
            assert np.array_equal(lam[k], want) and np.array_equal(dlam[k], dwant)
        mu, dmu = pairwise_batch(lam, dlam)
        want, dwant = pairwise_batch(lam[2], dlam[2])
        assert np.array_equal(mu[2], want) and np.array_equal(dmu[2], dwant)

    def test_fan_apex_per_polygon(self):
        flat = corpus.degenerate_pentagon()
        rolled = Polygon(np.roll(flat.vertices, 1, axis=0))
        polys = [corpus.regular_polygon(5), rolled, flat]
        apices = [fan_apex(p) for p in polys]
        assert apices == [0, 1, 0]
        assert fan_apex(oracles.polygon_batch(polys)).tolist() == apices

    def test_point_outside_its_own_polygon_rejected(self):
        moved = Polygon(SQUARE.vertices + 2.0)
        pts = np.array([[[0.5, 0.5]], [[0.5, 0.5]]])
        with pytest.raises(BoundaryEvaluationError, match="not strictly inside"):
            eval_coords_batch(oracles.polygon_batch([SQUARE, moved]), CoordinateKind.WACHSPRESS,
                              pts)

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_slice_equals_polygon_list(self, kind):
        """A slice of a mesh group's batch evaluates as its polygons one at a time."""
        mesh = corpus.voronoi_mesh()
        (ids, reps, batch), = [(group.ids, reps, batch) for group, (reps, batch)
                               in zip(mesh.groups, mesh.class_batches) if batch.n == 6]
        part = batch[1:4]
        polys = [mesh.polygons[i] for i in ids[reps[1:4]].tolist()]
        rng = np.random.default_rng(89)
        pts = np.stack([sample_interior(p, 6, rng, margin=1e-3) for p in polys])
        got = eval_coords_batch(part, kind, pts)
        for k, poly in enumerate(polys):
            want = eval_coords_batch(poly, kind, pts[k])
            assert all(np.array_equal(g[k], w) for g, w in zip(got, want))

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_slice_rejects_point_on_edge(self, kind):
        """The stored normals and offsets of a sliced batch still find a point
        on an edge of its last polygon."""
        rng = np.random.default_rng(97)
        batch = oracles.polygon_batch([corpus.random_convex_polygon(rng, 6) for _ in range(4)])[1:3]
        pts = np.stack([sample_interior(Polygon(v), 5, rng, margin=1e-3)
                        for v in batch.vertices])
        eval_coords_batch(batch, kind, pts)
        pts[1, 2] = 0.5 * (batch.vertices[1, 2] + batch.vertices[1, 3])
        with pytest.raises(BoundaryEvaluationError, match="not strictly inside"):
            eval_coords_batch(batch, kind, pts)

    def test_batch_shape_validated(self):
        with pytest.raises(GeometryError, match="shape"):
            eval_coords_batch(oracles.polygon_batch([SQUARE, SQUARE]), "meanvalue",
                              np.full((3, 1, 2), 0.5))


def _equal(got, want) -> bool:
    """Bitwise equality of (values, gradients) pairs, shapes included."""
    return all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, want))


def _kernel(batch, kind: CoordinateKind, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unchecked coordinate kernel, vertex-major, at points (c, m, 2),
    which it reads coordinate-major (2, c, m) through a view."""
    return _coordinates(batch, kind, np.moveaxis(pts, -1, 0))


def _cell_major(values: np.ndarray, gradients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A coordinate kernel's vertex-major (n, c, m) and (2, n, c, m) results
    as the oracles' (c, n, m) and (c, 2, n, m), by views."""
    return values.transpose(1, 0, 2), gradients.transpose(2, 0, 1, 3)


class TestKernelOracles:
    """The kernels take neighbours and pairs as slices; the gathered-index
    formulas of tests/oracles.py give bitwise the same values."""

    @pytest.mark.parametrize("n", range(3, 11))
    def test_coordinate_kernels_equal_gather_formulas(self, n):
        rng = np.random.default_rng(100 + n)
        polys = [corpus.random_convex_polygon(rng, n) for _ in range(4)]
        pts = np.stack([sample_interior(p, 33, rng, margin=1e-4) for p in polys])
        verts = np.stack([p.vertices for p in polys])
        batch = oracles.polygon_batch(polys)
        for kind, oracle in ((CoordinateKind.WACHSPRESS, oracles.wachspress),
                             (CoordinateKind.MEAN_VALUE, oracles.mean_value)):
            assert _equal(_cell_major(*_kernel(batch, kind, pts)), oracle(verts, pts))
            assert _equal(_cell_major(*_kernel(batch[:1], kind, pts[:1])),
                          oracle(verts[:1], pts[:1]))

    def test_mean_value_on_flat_vertex_polygon(self):
        poly = corpus.degenerate_pentagon()
        pts = sample_interior(poly, 40, np.random.default_rng(6), margin=1e-4)[None]
        assert _equal(_cell_major(*_kernel(oracles.polygon_batch([poly]), CoordinateKind.MEAN_VALUE,
                                           pts)),
                      oracles.mean_value(poly.vertices[None], pts))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(3, 11))
    def test_pairwise_equals_gather_formula(self, n, kind):
        rng = np.random.default_rng(200 + n)
        polys = [corpus.random_convex_polygon(rng, n) for _ in range(3)]
        pts = np.stack([sample_interior(p, 29, rng, margin=1e-4) for p in polys])
        lam, dlam = eval_coords_batch(oracles.polygon_batch(polys), kind, pts)
        assert _equal(pairwise_batch(lam, dlam), oracles.pairwise(lam, dlam))
        single = eval_coords_batch(polys[0], kind, pts[0])
        assert _equal(pairwise_batch(*single), oracles.pairwise(*single))


class TestLayoutIndependence:
    """The kernel stores coordinates and products vertex-major and returns
    views of that storage; no result depends on it, bit for bit."""

    @staticmethod
    def polygons_and_points(n: int, m: int, seed: int):
        rng = np.random.default_rng(seed)
        polys = [corpus.random_convex_polygon(rng, n) for _ in range(3)]
        return polys, np.stack([sample_interior(p, m, rng, margin=1e-4) for p in polys])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(3, 11))
    def test_pairwise_on_arrays_a_caller_builds(self, n, kind):
        polys, pts = self.polygons_and_points(n, 13, 300 + n)
        for polygon, points in ((oracles.polygon_batch(polys), pts), (polys[0], pts[0])):
            views = eval_coords_batch(polygon, kind, points)
            built = tuple(np.ascontiguousarray(a) for a in views)
            assert all(a.flags.c_contiguous for a in built)
            assert _equal(pairwise_batch(*built), pairwise_batch(*views))

    @pytest.mark.parametrize("m", [1, 2, 13])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(3, 11))
    def test_batch_equals_each_polygon_alone(self, n, kind, m):
        """One point per polygon included: there a sum over vertices is no
        longer a sum of rows of points, and must still add in one order."""
        polys, pts = self.polygons_and_points(n, m, 400 + n)
        batch, maps = oracles.polygon_batch(polys), [build_map(p) for p in polys]
        coords = eval_coords_batch(batch, kind, pts)
        basis = eval_basis_batch(batch, kind, maps, pts)
        for k, poly in enumerate(polys):
            assert _equal([a[k] for a in coords], eval_coords_batch(poly, kind, pts[k]))
            assert _equal([a[k] for a in basis], eval_basis_batch(poly, kind, maps[k], pts[k]))


class TestPairOrder:
    def test_square_ordering(self):
        assert pair_order(4) == (
            (0, 0), (1, 1), (2, 2), (3, 3),
            (0, 1), (1, 2), (2, 3), (3, 0),
            (0, 2), (1, 3),
        )

    def test_triangle_has_no_diagonals(self):
        pairs = pair_order(3)
        assert len(pairs) == 6
        assert pairs[3:] == ((0, 1), (1, 2), (2, 0))

    def test_hexagon_diagonal_block(self):
        pairs = pair_order(6)
        assert len(pairs) == 21
        diag = pairs[12:]
        assert diag == (
            (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5),
            (2, 4), (2, 5), (3, 5),
        )

    @given(n=st.integers(3, 15))
    def test_counts(self, n):
        pairs = pair_order(n)
        assert len(pairs) == n * (n + 1) // 2
        assert len(pairs) - 2 * n == n * (n - 3) // 2

    def test_too_small(self):
        with pytest.raises(GeometryError):
            pair_order(2)


class TestPairwiseProducts:
    def test_square_center_products(self):
        lam, grad = eval_coords_batch(SQUARE, CoordinateKind.WACHSPRESS, np.array([[0.5, 0.5]]))
        mu, _ = pairwise_batch(lam, grad)
        assert mu == pytest.approx(np.full((1, 10), 1.0 / 16.0), abs=1e-12)

    def test_square_diagonal_product_closed_form(self):
        rng = np.random.default_rng(2)
        pts = sample_interior(SQUARE, 30, rng, margin=1e-3)
        lam, grad = eval_coords_batch(SQUARE, CoordinateKind.WACHSPRESS, pts)
        mu, _ = pairwise_batch(lam, grad)
        x, y = pts[:, 0], pts[:, 1]
        exact = (1 - x) * x * (1 - y) * y
        assert mu[:, 8] == pytest.approx(exact, abs=1e-12)   # pair (0, 2)
        assert mu[:, 9] == pytest.approx(exact, abs=1e-12)   # pair (1, 3)

    @pytest.mark.parametrize("kind", KINDS)
    def test_quadratic_moment_sums(self, kind):
        """Direct summation check of the three reproduction identities for
        the ordered pairwise products, with squares counted once and mixed
        products twice."""
        rng = np.random.default_rng(8)
        poly = corpus.random_convex_polygon(rng, 7)
        pts = sample_interior(poly, 100, rng, margin=1e-4)
        lam, grad = eval_coords_batch(poly, kind, pts)
        mu, _ = pairwise_batch(lam, grad)
        pairs = pair_order(7)
        weights = np.array([1.0 if a == b else 2.0 for a, b in pairs])
        v = poly.vertices
        mids = np.array([0.5 * (v[a] + v[b]) for a, b in pairs])
        outer = np.array([
            0.5 * (np.outer(v[a], v[b]) + np.outer(v[b], v[a])) for a, b in pairs
        ])
        s0 = mu @ weights
        assert np.max(np.abs(s0 - 1.0)) <= 1e-11
        s1 = mu @ (weights[:, None] * mids)
        assert np.max(np.abs(s1 - pts)) <= 1e-10
        s2 = np.einsum("mp,p,pij->mij", mu, weights, outer)
        target = np.einsum("mi,mj->mij", pts, pts)
        assert np.max(np.abs(s2 - target)) <= 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    def test_product_gradients_match_differences(self, kind):
        rng = np.random.default_rng(21)
        poly = corpus.random_convex_polygon(rng, 6)
        pts = corpus.fd_safe_points(poly, 10, rng)
        lam, grad = eval_coords_batch(poly, kind, pts)
        _, dmu = pairwise_batch(lam, grad)
        h = 1e-6 * poly.diameter

        def mu_of(q):
            lamq, gradq = eval_coords_batch(poly, kind, q)
            return pairwise_batch(lamq, gradq)[0]

        fd = corpus.fd_gradients(mu_of, pts, h)
        assert corpus.relative_gradient_error(dmu, fd) <= 1e-5

    def test_ordering_tag_matches_pair_order(self):
        poly = corpus.regular_polygon(5)
        pts = np.array([[0.05, 0.1], [-0.2, 0.3]])
        lam, grad = eval_coords_batch(poly, CoordinateKind.MEAN_VALUE, pts)
        mu, _ = pairwise_batch(lam, grad)
        manual = np.array([[row[a] * row[b] for a, b in pair_order(5)] for row in lam])
        assert mu == pytest.approx(manual, abs=1e-15)
