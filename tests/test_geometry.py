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
import oracles
from polyserend import (
    GeometryError,
    InvalidPolygonError,
    Polygon,
    PolygonBatch,
    fan_apex,
    check_conditions,
    interior_angles,
    load_polygon,
    polygon_from_json,
    sample_interior,
    shape_metrics,
)
from polyserend.barycentric import eval_coords_batch
from polyserend.geometry import _DEFECTS, _as_batch, _diagonal_frames
from polyserend.quadrature import fan_rule, polygon_rule
from polyserend.serendipity import (
    CoefficientBlowupError,
    SerendipityError,
    build_map,
    eval_basis_batch,
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

    def test_flat_vertex_builds_and_stays_loud_downstream(self):
        """A flat vertex is valid input; what cannot use it refuses it by name."""
        poly = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(GeometryError, match=r"flat vertex \(vertex 0\)"):
            eval_coords_batch(poly, "wachspress", np.array([[0.1, 0.5]]))
        assert not check_conditions(poly, 100.0, 0.01, 0.9 * math.pi).g3
        # Flat vertices 1 and 3, joined by the diagonal (1, 3).
        two_flat = Polygon([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (0, 2)])
        with pytest.raises(CoefficientBlowupError, match=r"diagonal \(1, 3\)"):
            build_map(two_flat)

    def test_accepts_straight_vertex_when_allowed(self):
        poly = corpus.degenerate_pentagon()
        assert poly.n == 5
        assert poly.area == pytest.approx(2.0)

    def test_reflex_rejected_even_when_flat_allowed(self):
        arrow = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [1.0, 2.0]])
        with pytest.raises(InvalidPolygonError, match="reflex"):
            Polygon(arrow)

    def test_vertices_are_read_only(self):
        poly = Polygon(SQUARE)
        with pytest.raises(ValueError):
            poly.vertices[0, 0] = 5.0

    def test_basic_measures_of_square(self):
        poly = Polygon(SQUARE)
        assert poly.area == pytest.approx(1.0, abs=1e-15)
        assert poly.centroid == pytest.approx([0.5, 0.5], abs=1e-15)
        assert poly.diameter == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_edge_distance_signs(self):
        poly = Polygon(SQUARE)
        inside = poly.edge_distances(np.array([[0.5, 0.5]]))
        outside = poly.edge_distances(np.array([[1.5, 0.5]]))
        assert np.all(inside > 0)
        assert np.min(outside) < 0

    @pytest.mark.parametrize("bad", [[np.inf, 0.5], [0.5, -np.inf], [np.nan, 0.5]])
    def test_non_finite_point_has_no_edge_distance(self, bad):
        with pytest.raises(GeometryError, match="finite"):
            Polygon(SQUARE).edge_distances(np.array([[0.5, 0.5], bad]))


def batch_corpus() -> list[Polygon]:
    """Polygons whose batch geometry is checked against ``Polygon``: the named
    corpus, random shape-regular polygons, the hanging-node quadrilateral and
    every cell of the flat-vertex and Voronoi corpus meshes."""
    rng = np.random.default_rng(83)
    polys = [poly for _, poly in corpus.standard_corpus(rng)]
    polys += corpus.shape_regular_corpus(rng, 12)
    polys.append(Polygon(np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 1.0]])))
    polys += corpus.mixed_mesh().polygons + corpus.voronoi_mesh().polygons
    return polys


class TestPolygonBatch:
    """A batch computes each polygon's geometry once, with Polygon's formulas."""

    def test_geometry_equals_polygon_bitwise(self):
        polys = batch_corpus()
        assert any(p.n == 5 and np.any(np.isclose(interior_angles(p), np.pi)) for p in polys)
        for n in sorted({p.n for p in polys}):
            group = [p for p in polys if p.n == n]
            verts = np.stack([p.vertices for p in group])
            for batch in (PolygonBatch.from_vertices(verts), PolygonBatch._derive(verts)):
                assert len(batch) == len(group) and batch.n == n
                for k, poly in enumerate(group):
                    assert np.array_equal(batch.vertices[k], poly.vertices)
                    assert np.array_equal(batch.centroids[k], poly.centroid)
                    assert np.array_equal(batch.normals[k], poly.inward_normals)
                    assert np.array_equal(batch.offsets[k], poly._batch.offsets[0])
                    assert batch.diameters[k] == poly.diameter
                    flat = bool(np.any(np.abs(interior_angles(poly) - np.pi) <= 1e-9))
                    assert bool(batch.flat[k]) == flat
                    assert int(batch.apices[k]) == fan_apex(poly)

    @pytest.mark.parametrize("code, verts", [
        (1, [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]),
        (2, [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        (3, SQUARE[::-1]),
        (4, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        (5, [[0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [1.0, 2.0]]),
    ])
    def test_rejects_each_defect_as_polygon_does(self, code, verts):
        verts = np.array(verts, dtype=float)
        with pytest.raises(InvalidPolygonError) as single:
            Polygon(verts)
        assert str(single.value) == _DEFECTS[code]
        good = corpus.regular_polygon(len(verts)).vertices
        with pytest.raises(InvalidPolygonError) as batch:
            PolygonBatch.from_vertices(np.stack([good, verts]))
        assert str(batch.value) == f"polygon 1: {_DEFECTS[code]}"

    def test_accepts_flat_vertices_and_rejects_bad_arrays(self):
        flat = corpus.degenerate_pentagon()
        assert PolygonBatch.from_vertices(flat.vertices[None]).flat.tolist() == [True]
        with pytest.raises(InvalidPolygonError, match=r"shape \(c, n, 2\)"):
            PolygonBatch.from_vertices(SQUARE)
        with pytest.raises(InvalidPolygonError, match="at least 3"):
            PolygonBatch.from_vertices(SQUARE[None, :2])
        with pytest.raises(InvalidPolygonError, match="finite"):
            PolygonBatch.from_vertices(np.where(SQUARE == 1.0, np.inf, SQUARE)[None])
        with pytest.raises(GeometryError, match="at least one polygon"):
            PolygonBatch.from_vertices(np.empty((0, 4, 2)))

    def test_indexing_slices_every_array(self):
        polys = [corpus.regular_polygon(5, rotation=0.1 * k) for k in range(4)]
        polys.append(corpus.degenerate_pentagon())
        batch = oracles.polygon_batch(polys)
        for rows in (slice(1, 3), np.array([4, 0]), 4):
            part = batch[rows]
            want = oracles.polygon_batch([polys[k] for k in np.arange(5)[rows].reshape(-1)])
            for name in ("vertices", "diameters", "centroids", "normals", "offsets",
                         "flat", "apices"):
                assert np.array_equal(getattr(part, name), getattr(want, name))
        assert not batch.vertices.flags.writeable
        assert _as_batch(batch) is batch

    def test_polygon_keeps_its_batch(self):
        poly = corpus.regular_polygon(7)
        assert _as_batch(poly) is _as_batch(poly)
        assert len(_as_batch(poly)) == 1

    def test_kernels_refuse_a_list_of_polygons(self):
        """The batched kernels take a Polygon or a PolygonBatch, nothing else."""
        polys = [corpus.regular_polygon(5), corpus.regular_polygon(5, rotation=0.3)]
        maps = [build_map(p) for p in polys]
        pts = np.zeros((2, 1, 2))
        for call in (lambda: eval_coords_batch(polys, "meanvalue", pts),
                     lambda: eval_basis_batch(polys, "meanvalue", maps, pts),
                     lambda: polygon_rule(polys, 4),
                     lambda: fan_rule(polys, 4),
                     lambda: fan_apex(polys),
                     lambda: build_map(polys)):
            with pytest.raises(TypeError, match="expected a Polygon or a PolygonBatch, got list"):
                call()

    def test_polygon_without_a_fan_apex(self):
        # Every vertex lies on the line of an edge it does not touch, so every
        # fan has a degenerate triangle; only what needs a fan may fail.
        thirds = [(0, 0), (1 / 3, 0), (2 / 3, 0), (1, 0), (1, 1), (2 / 3, 1), (1 / 3, 1), (0, 1)]
        poly = Polygon(thirds)
        batch = oracles.polygon_batch([poly, poly])
        assert batch.apices.tolist() == [-1, -1] and poly._batch.apices.tolist() == [-1]
        assert poly.centroid == pytest.approx([0.5, 0.5]) and poly.diameter == math.sqrt(2.0)
        rule = polygon_rule(poly, 6)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
        lam, _ = eval_coords_batch(batch, "meanvalue", np.stack([rule.points] * 2))
        assert np.allclose(lam.sum(axis=-1), 1.0)
        for polygon in (poly, batch):
            with pytest.raises(GeometryError, match="no valid fan triangulation"):
                fan_apex(polygon)
            with pytest.raises(GeometryError, match="no valid fan triangulation"):
                fan_rule(polygon, 6)
        with pytest.raises(GeometryError, match="no valid fan triangulation"):
            eval_coords_batch(poly, "triangulation", rule.points)
        # Two flat vertices on one side leave a diagonal whose end has both
        # neighbours on it: the serendipity map refuses the polygon itself.
        with pytest.raises(SerendipityError, match=r"diagonal \(0, 2\): neighbor vertices"):
            build_map(poly)


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

    def test_rectangle_keeps_the_tie_broken_incenter(self):
        # Every center on the segment from (0.5, 0.5) to (1.5, 0.5) is optimal;
        # the lexicographically smallest one is chosen.
        m = shape_metrics(Polygon(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])))
        assert m.incenter.tolist() == [0.5, 0.5]
        assert m.inradius == 0.5

    def test_flat_vertex_pentagon_matches_linear_program(self):
        # Its two bottom edges lie on one line, so some edge triples are singular.
        poly = corpus.degenerate_pentagon()
        m = shape_metrics(poly)
        _, r_lp = _chebyshev_lp(poly)
        assert m.inradius == pytest.approx(r_lp, abs=1e-9)
        assert float(np.min(poly.edge_distances(m.incenter))) == pytest.approx(
            m.inradius, abs=1e-9
        )

    def test_incircle_matches_per_triple_loop(self):
        polys = [poly for _, poly in corpus.standard_corpus(np.random.default_rng(0))]
        polys += corpus.mixed_mesh().polygons + corpus.voronoi_mesh().polygons
        for poly in polys:
            m = shape_metrics(poly)
            center, radius = oracles.incircle(poly)
            assert abs(m.inradius - radius) <= 1e-15 * poly.diameter
            scale = poly.diameter + float(np.max(np.abs(center)))
            assert np.max(np.abs(m.incenter - center)) <= 1e-15 * scale

    def test_angles_and_closest_pair_equal_loop_oracle(self):
        for name, poly in corpus.standard_corpus(np.random.default_rng(0)):
            angles, closest = oracles.angles_and_closest_pair(poly)
            assert np.array_equal(interior_angles(poly), angles), name
            assert np.array_equal(shape_metrics(poly).interior_angles, angles), name
            # G2 holds for every d_star below the closest pair distance and at no other.
            assert not check_conditions(poly, 50.0, closest, 2.0).g2, name
            assert check_conditions(poly, 50.0, np.nextafter(closest, 0.0), 2.0).g2, name

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
        cond = check_conditions(poly, 8.0, 0.3, 0.95 * math.pi)
        assert not cond.g3
        assert cond.g3_relaxed
        assert not cond.satisfied

    def test_two_separated_wide_angles_fail_relaxed(self):
        # Long thin hexagon: near-straight vertices at indices 1 and 4,
        # which are not circularly adjacent.
        delta = 0.01
        verts = np.array([
            [0.0, 0.0], [1.0, -delta], [2.0, 0.0],
            [2.0, 0.2], [1.0, 0.2 + delta], [0.0, 0.2],
        ])
        poly = Polygon(verts)
        cond = check_conditions(poly, 50.0, 0.05, 0.9 * math.pi)
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
        cond = check_conditions(poly, 50.0, 0.01, beta)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_thresholds_rejected(self, bad):
        square = Polygon(SQUARE)
        with pytest.raises(GeometryError, match="gamma_star must be finite"):
            check_conditions(square, bad, 0.5, 2.0)
        with pytest.raises(GeometryError, match="d_star must be finite"):
            check_conditions(square, 4.0, bad, 2.0)
        with pytest.raises(GeometryError, match="beta_star"):
            check_conditions(square, 4.0, 0.5, bad)


def diagonal_frame(poly: Polygon, a: int, b: int) -> tuple[np.ndarray, float]:
    """The polygon's vertices in the frame of its diagonal (a, b), and the half length."""
    mapped, half = _diagonal_frames(poly.vertices[None], np.array([a]), np.array([b]))
    return mapped[0, 0], float(half[0, 0])


class TestDiagonalFrame:
    def test_square_diagonal(self):
        poly = Polygon(SQUARE)
        mapped, half_length = diagonal_frame(poly, 0, 2)
        ell = math.sqrt(2.0) / 2.0
        assert half_length == pytest.approx(ell, abs=1e-12)
        assert mapped[0] == pytest.approx([-ell, 0.0], abs=1e-12)
        assert mapped[2] == pytest.approx([ell, 0.0], abs=1e-12)

    def test_hexagon_long_diagonal(self):
        poly = corpus.regular_polygon(6)
        _, half_length = diagonal_frame(poly, 0, 3)
        assert half_length == pytest.approx(1.0, abs=1e-12)

    def test_intermediate_vertices_lie_below_axis(self):
        rng = np.random.default_rng(5)
        poly = corpus.random_convex_polygon(rng, 7)
        mapped, _ = diagonal_frame(poly, 1, 5)
        assert np.all(mapped[[2, 3, 4], 1] < 0.0)
        assert np.all(mapped[[6, 0], 1] > 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rigid_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        poly = corpus.random_convex_polygon(rng, 5)
        mapped, _ = diagonal_frame(poly, 1, 3)
        # Distances preserved, orientation preserved, and the frame of the
        # mapped polygon is the identity.
        orig = poly.vertices
        d0 = np.linalg.norm(orig[:, None] - orig[None], axis=-1)
        d1 = np.linalg.norm(mapped[:, None] - mapped[None], axis=-1)
        assert d1 == pytest.approx(d0, abs=1e-12)
        assert Polygon(mapped).area == pytest.approx(poly.area, abs=1e-12)
        assert diagonal_frame(Polygon(mapped), 1, 3)[0] == pytest.approx(mapped, abs=1e-12)

    def test_batch_rows_equal_single_frames(self):
        rng = np.random.default_rng(7)
        polys = [corpus.random_convex_polygon(rng, 6) for _ in range(3)]
        a, b = np.array([0, 1, 2, 0]), np.array([2, 4, 5, 3])
        mapped, half = _diagonal_frames(np.stack([p.vertices for p in polys]), a, b)
        assert mapped.shape == (3, 4, 6, 2) and half.shape == (3, 4)
        for k, poly in enumerate(polys):
            for j in range(4):
                single, ell = diagonal_frame(poly, a[j], b[j])
                assert np.array_equal(mapped[k, j], single) and half[k, j] == ell


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


def write_polygon(path, poly: Polygon) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"vertices": poly.vertices.tolist()}, fh)


class TestJsonIO:
    def test_roundtrip(self, tmp_path):
        poly = corpus.regular_polygon(6)
        path = tmp_path / "hexagon.json"
        write_polygon(path, poly)
        loaded = load_polygon(str(path))
        assert loaded.vertices == pytest.approx(poly.vertices, abs=0.0)

    def test_roundtrip_flat_vertex(self, tmp_path):
        poly = corpus.degenerate_pentagon()
        path = tmp_path / "flat.json"
        write_polygon(path, poly)
        loaded = load_polygon(str(path))
        assert loaded.n == 5

    def test_dict_and_text_forms(self):
        payload = {"vertices": SQUARE.tolist()}
        a = polygon_from_json(payload)
        b = polygon_from_json(json.dumps(payload))
        assert a.vertices == pytest.approx(b.vertices, abs=0.0)

    def test_missing_key_rejected(self):
        with pytest.raises(InvalidPolygonError, match="vertices"):
            polygon_from_json({"points": SQUARE.tolist()})

    def test_invalid_geometry_rejected(self):
        with pytest.raises(InvalidPolygonError):
            polygon_from_json({"vertices": SQUARE[::-1].tolist()})
