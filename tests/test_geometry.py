"""Polygon validation, shape metrics, screening conditions, frames, and I/O."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import corpus
from polyserend import (
    GeometryError,
    InvalidPolygonError,
    Polygon,
    check_conditions,
    diagonal_frame,
    interior_angles,
    load_polygon,
    polygon_from_json,
    polygon_to_json,
    sample_interior,
    save_polygon,
    shape_metrics,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestPolygonValidation:
    def test_accepts_ccw_convex(self):
        poly = Polygon(SQUARE)
        assert poly.n == 4
        assert poly.area == pytest.approx(1.0)

    def test_rejects_too_few_vertices(self):
        with pytest.raises(InvalidPolygonError, match="at least 3"):
            Polygon(np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidPolygonError, match=r"shape \(n, 2\)"):
            Polygon(np.array([0.0, 1.0, 2.0]))

    def test_rejects_nonfinite(self):
        bad = SQUARE.copy()
        bad[2, 1] = np.nan
        with pytest.raises(InvalidPolygonError, match="finite"):
            Polygon(bad)

    def test_rejects_repeated_vertices(self):
        with pytest.raises(InvalidPolygonError, match="repeated"):
            Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))

    def test_rejects_clockwise_order(self):
        with pytest.raises(InvalidPolygonError, match="counterclockwise"):
            Polygon(SQUARE[::-1])

    def test_rejects_reflex_vertex(self):
        arrow = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [1.0, 2.0]])
        with pytest.raises(InvalidPolygonError, match="convex"):
            Polygon(arrow)

    def test_rejects_straight_vertex_by_default(self):
        with pytest.raises(InvalidPolygonError, match="strictly convex"):
            Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, 0.0]]))

    def test_accepts_straight_vertex_when_allowed(self):
        poly = corpus.degenerate_pentagon()
        assert poly.n == 5
        assert poly.area == pytest.approx(2.0)

    def test_reflex_rejected_even_when_flat_allowed(self):
        arrow = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [1.0, 2.0]])
        with pytest.raises(InvalidPolygonError, match="reflex"):
            Polygon(arrow, allow_flat=True)

    def test_vertices_are_read_only(self):
        poly = Polygon(SQUARE)
        with pytest.raises(ValueError):
            poly.vertices[0, 0] = 5.0

    def test_basic_measures_of_square(self):
        poly = Polygon(SQUARE)
        assert poly.area == pytest.approx(1.0, abs=1e-15)
        assert poly.centroid == pytest.approx([0.5, 0.5], abs=1e-15)
        assert poly.diameter == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert poly.edge_lengths == pytest.approx(np.ones(4), abs=1e-15)

    def test_edge_distance_signs(self):
        poly = Polygon(SQUARE)
        inside = poly.edge_distances(np.array([[0.5, 0.5]]))
        outside = poly.edge_distances(np.array([[1.5, 0.5]]))
        assert np.all(inside > 0)
        assert np.min(outside) < 0
        assert poly.contains(np.array([0.5, 0.5]))
        assert not poly.contains(np.array([1.5, 0.5]))


def _chebyshev_lp(poly: Polygon) -> tuple[np.ndarray, float]:
    """Independent incircle oracle: linear program over (center, radius)."""
    normals = poly.inward_normals
    offsets = np.einsum("ij,ij->i", normals, poly.vertices)
    # maximize r subject to normals @ c - r >= offsets
    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=np.hstack([-normals, np.ones((poly.n, 1))]),
        b_ub=-offsets,
        bounds=[(None, None), (None, None), (0.0, None)],
        method="highs",
    )
    assert res.success
    return res.x[:2], float(res.x[2])


class TestShapeMetrics:
    def test_unit_square(self):
        m = shape_metrics(Polygon(SQUARE))
        assert m.diameter == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert m.inradius == pytest.approx(0.5, abs=1e-12)
        assert m.incenter == pytest.approx([0.5, 0.5], abs=1e-9)
        assert m.aspect_ratio == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)

    def test_equilateral_triangle(self):
        tri = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]))
        m = shape_metrics(tri)
        assert m.diameter == pytest.approx(1.0, abs=1e-12)
        assert m.inradius == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-12)
        assert m.interior_angles == pytest.approx(np.full(3, math.pi / 3.0), abs=1e-12)

    def test_right_triangle_345(self):
        tri = Polygon(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]))
        m = shape_metrics(tri)
        assert m.inradius == pytest.approx(1.0, abs=1e-12)
        assert m.incenter == pytest.approx([1.0, 1.0], abs=1e-9)
        assert m.diameter == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_incircle_matches_linear_program(self, seed):
        rng = np.random.default_rng(seed)
        poly = corpus.random_convex_polygon(rng, 6)
        m = shape_metrics(poly)
        _, r_lp = _chebyshev_lp(poly)
        assert m.inradius == pytest.approx(r_lp, abs=1e-9)
        # The reported center must realize the reported radius.
        assert float(np.min(poly.edge_distances(m.incenter))) == pytest.approx(
            m.inradius, abs=1e-9
        )

    def test_incircle_matches_grid_search(self):
        rng = np.random.default_rng(7)
        poly = corpus.random_convex_polygon(rng, 6)
        m = shape_metrics(poly)
        # Two-stage dense grid maximization of the min edge distance.
        lo = poly.vertices.min(axis=0)
        hi = poly.vertices.max(axis=0)
        best = None
        for _ in range(3):
            xs = np.linspace(lo[0], hi[0], 120)
            ys = np.linspace(lo[1], hi[1], 120)
            gx, gy = np.meshgrid(xs, ys)
            pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
            dist = np.min(poly.edge_distances(pts), axis=1)
            k = int(np.argmax(dist))
            best = float(dist[k])
            span = np.array([xs[1] - xs[0], ys[1] - ys[0]])
            lo = pts[k] - 2.0 * span
            hi = pts[k] + 2.0 * span
        assert best <= m.inradius + 1e-12
        assert m.inradius - best <= 1e-4

    def test_incircle_touches_two_edges(self):
        rng = np.random.default_rng(11)
        for n in (4, 5, 7):
            poly = corpus.random_convex_polygon(rng, n)
            m = shape_metrics(poly)
            d = poly.edge_distances(m.incenter)
            assert np.all(d >= m.inradius - 1e-9)
            assert np.count_nonzero(d <= m.inradius + 1e-6) >= 2

    @given(st.integers(0, 10_000), st.integers(3, 10))
    def test_interior_angles_sum(self, seed, n):
        poly = corpus.random_convex_polygon(np.random.default_rng(seed), n)
        assert float(np.sum(interior_angles(poly))) == pytest.approx(
            (n - 2) * math.pi, abs=1e-9
        )

    @given(st.integers(0, 10_000), st.integers(3, 10))
    def test_aspect_ratio_exceeds_two(self, seed, n):
        poly = corpus.random_convex_polygon(np.random.default_rng(seed), n)
        assert shape_metrics(poly).aspect_ratio > 2.0

    def test_diameter_is_max_over_boundary_sample(self):
        rng = np.random.default_rng(3)
        poly = corpus.random_convex_polygon(rng, 8)
        v = poly.vertices
        ts = np.linspace(0.0, 1.0, 25)[:, None, None]
        sample = (1.0 - ts) * v[None] + ts * np.roll(v, -1, axis=0)[None]
        pts = sample.reshape(-1, 2)
        diff = pts[:, None, :] - pts[None, :, :]
        brute = float(np.max(np.hypot(diff[..., 0], diff[..., 1])))
        assert brute <= poly.diameter + 1e-9


class TestShapeScreening:
    def test_unit_square_thresholds(self):
        cond = check_conditions(Polygon(SQUARE), gamma_star=4.0, d_star=0.5, beta_star=2.0)
        assert cond.g1 and cond.g2 and cond.g3
        assert cond.satisfied
        assert cond.epsilon_star == pytest.approx(0.5 * math.sin((math.pi - 2.0) / 2.0))

    def test_failure_modes(self):
        square = Polygon(SQUARE)
        # aspect ratio of the square is 2*sqrt(2) ~ 2.83
        assert not check_conditions(square, 2.5, 0.5, 2.0).g1
        # closest vertex pair is at distance 1
        assert not check_conditions(square, 4.0, 1.0, 2.0).g2
        # all angles are pi/2
        assert not check_conditions(square, 4.0, 0.5, 1.5).g3

    def test_straight_vertex_fails_strict_angle_but_passes_relaxed(self):
        poly = corpus.degenerate_pentagon()
        cond = check_conditions(poly, 8.0, 0.3, 0.95 * math.pi, relaxed_g3=True)
        assert not cond.g3
        assert cond.g3_relaxed
        assert cond.satisfied
        strict = check_conditions(poly, 8.0, 0.3, 0.95 * math.pi)
        assert not strict.satisfied

    def test_two_separated_wide_angles_fail_relaxed(self):
        # Long thin hexagon: near-straight vertices at indices 1 and 4,
        # which are not circularly adjacent.
        delta = 0.01
        verts = np.array([
            [0.0, 0.0], [1.0, -delta], [2.0, 0.0],
            [2.0, 0.2], [1.0, 0.2 + delta], [0.0, 0.2],
        ])
        poly = Polygon(verts)
        cond = check_conditions(poly, 50.0, 0.05, 0.9 * math.pi, relaxed_g3=True)
        assert not cond.g3
        assert not cond.g3_relaxed
        assert not cond.satisfied

    def test_adjacent_wide_angles_pass_relaxed(self):
        # Flatten two neighboring corners of a regular octagon.
        base = corpus.regular_polygon(8).vertices.copy()
        base[1] = 0.55 * base[1] + 0.45 * 0.5 * (base[0] + base[2])
        base[2] = 0.55 * base[2] + 0.45 * 0.5 * (base[1] + base[3])
        poly = Polygon(base)
        angles = interior_angles(poly)
        beta = float(np.sort(angles)[-3]) + 1e-6  # exactly two violators
        cond = check_conditions(poly, 50.0, 0.01, beta, relaxed_g3=True)
        assert not cond.g3
        assert cond.g3_relaxed

    def test_threshold_validation(self):
        square = Polygon(SQUARE)
        with pytest.raises(GeometryError):
            check_conditions(square, 2.0, 0.5, 2.0)
        with pytest.raises(GeometryError):
            check_conditions(square, 4.0, 0.0, 2.0)
        with pytest.raises(GeometryError):
            check_conditions(square, 4.0, 0.5, math.pi)


class TestDiagonalFrame:
    def test_square_diagonal(self):
        poly = Polygon(SQUARE)
        frame = diagonal_frame(poly, 0, 2)
        ell = math.sqrt(2.0) / 2.0
        assert frame.half_length == pytest.approx(ell, abs=1e-12)
        mapped = frame.apply(poly.vertices)
        assert mapped[0] == pytest.approx([-ell, 0.0], abs=1e-12)
        assert mapped[2] == pytest.approx([ell, 0.0], abs=1e-12)

    def test_hexagon_long_diagonal(self):
        poly = corpus.regular_polygon(6)
        frame = diagonal_frame(poly, 0, 3)
        assert frame.half_length == pytest.approx(1.0, abs=1e-12)

    def test_intermediate_vertices_lie_below_axis(self):
        rng = np.random.default_rng(5)
        poly = corpus.random_convex_polygon(rng, 7)
        mapped = diagonal_frame(poly, 1, 5).apply(poly.vertices)
        assert np.all(mapped[[2, 3, 4], 1] < 0.0)
        assert np.all(mapped[[6, 0], 1] > 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rigid_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        poly = corpus.random_convex_polygon(rng, 5)
        frame = diagonal_frame(poly, 1, 3)
        mapped = frame.apply(poly.vertices)
        # Distances preserved, orientation preserved, round trip exact.
        orig = poly.vertices
        d0 = np.linalg.norm(orig[:, None] - orig[None], axis=-1)
        d1 = np.linalg.norm(mapped[:, None] - mapped[None], axis=-1)
        assert d1 == pytest.approx(d0, abs=1e-12)
        assert Polygon(mapped).area == pytest.approx(poly.area, abs=1e-12)
        assert frame.invert(mapped) == pytest.approx(orig, abs=1e-12)

    def test_rejects_non_diagonal_pairs(self):
        poly = corpus.regular_polygon(5)
        for a, b in [(0, 0), (0, 1), (0, 4), (2, 3)]:
            with pytest.raises(GeometryError, match="not a strict diagonal"):
                diagonal_frame(poly, a, b)


class TestInteriorSampling:
    def test_points_are_interior_with_margin(self):
        poly = corpus.regular_polygon(7)
        pts = sample_interior(poly, 200, np.random.default_rng(0), margin=0.05)
        assert pts.shape == (200, 2)
        assert float(np.min(poly.edge_distances(pts))) > 0.05

    def test_deterministic_under_seed(self):
        poly = corpus.regular_polygon(5)
        a = sample_interior(poly, 50, np.random.default_rng(42))
        b = sample_interior(poly, 50, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_unreachable_margin_raises(self):
        poly = Polygon(SQUARE)
        with pytest.raises(GeometryError, match="margin"):
            sample_interior(poly, 10, np.random.default_rng(0), margin=10.0)

    def test_zero_count_gives_empty_array(self):
        pts = sample_interior(Polygon(SQUARE), 0, np.random.default_rng(0))
        assert pts.shape == (0, 2)

    def test_negative_count_raises(self):
        with pytest.raises(GeometryError, match="non-negative"):
            sample_interior(Polygon(SQUARE), -1, np.random.default_rng(0))


class TestJsonIO:
    def test_roundtrip(self, tmp_path):
        poly = corpus.regular_polygon(6)
        path = tmp_path / "hexagon.json"
        save_polygon(poly, str(path))
        loaded = load_polygon(str(path))
        assert loaded.vertices == pytest.approx(poly.vertices, abs=0.0)

    def test_roundtrip_flat_vertex(self, tmp_path):
        poly = corpus.degenerate_pentagon()
        path = tmp_path / "flat.json"
        save_polygon(poly, str(path))
        with pytest.raises(InvalidPolygonError):
            load_polygon(str(path))
        loaded = load_polygon(str(path), allow_flat=True)
        assert loaded.n == 5

    def test_dict_and_text_forms(self):
        payload = {"vertices": SQUARE.tolist()}
        a = polygon_from_json(payload)
        b = polygon_from_json(json.dumps(payload))
        assert a.vertices == pytest.approx(b.vertices, abs=0.0)
        assert polygon_to_json(a) == payload

    def test_missing_key_rejected(self):
        with pytest.raises(InvalidPolygonError, match="vertices"):
            polygon_from_json({"points": SQUARE.tolist()})

    def test_invalid_geometry_rejected(self):
        with pytest.raises(InvalidPolygonError):
            polygon_from_json({"vertices": SQUARE[::-1].tolist()})
