"""Acceptance gate: the eight headline guarantees of the package, each
reported as a single PASS/FAIL line through the ``criterion`` fixture.

Every check aggregates its worst case over the relevant corpus and asserts
at the stated tolerance, so a failure both flips the printed line and fails
the test.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import corpus
from oracles import (build_A_quadrilateral, build_A_regular, build_A_unit_square, diagonal_column,
                     polygon_batch)
from polyserend import (
    CoordinateKind,
    assemble,
    build_map,
    cell_maps,
    check_conditions,
    coefficient_bound,
    convergence_study,
    dof_map,
    error_norms,
    eval_basis_batch,
    eval_coords_batch,
    lagrange_table,
    pairwise_batch,
    precision_residuals,
    sample_interior,
    solve_dirichlet,
    trapezoid_mesh,
)

KINDS = (CoordinateKind.WACHSPRESS, CoordinateKind.MEAN_VALUE,
         CoordinateKind.TRIANGULATION)

# Reference accuracy of the harmonic benchmark on checkerboard-trapezoid
# meshes (offset 0.25, mean value coordinates); measured with this package
# and cross-checked against the expected third/second-order model.
L2_REFERENCE = {2: 2.34e-3, 4: 3.03e-4, 8: 3.87e-5, 16: 4.88e-6,
                32: 6.13e-7, 64: 7.67e-8, 128: 9.59e-9, 256: 1.20e-9}
H1_REFERENCE = {2: 2.22e-2, 4: 6.10e-3, 8: 1.59e-3, 16: 4.04e-4,
                32: 1.02e-4, 64: 2.56e-5, 128: 6.40e-6, 256: 1.64e-6}


@pytest.fixture(scope="module")
def quad_corpus():
    rng = np.random.default_rng(2024)
    return [corpus.random_convex_quadrilateral(rng) for _ in range(1000)]


@pytest.fixture(scope="module")
def shape_regular():
    rng = np.random.default_rng(77)
    return corpus.shape_regular_corpus(rng, 200)


def precision_case(poly, A, kind, points):
    lam, dlam = eval_coords_batch(poly, kind, points)
    mu, _ = pairwise_batch(lam, dlam)
    xi = mu @ A.T
    return float(np.max(precision_residuals(poly, xi, points)))


class TestAcceptance:
    def test_1_quadratic_precision_across_constructions(
        self, criterion, quad_corpus, shape_regular
    ):
        """Every construction, and every closed-form oracle, on its full
        domain reproduces all quadratics at randomly sampled interior points,
        for all three coordinate kinds."""
        start = time.monotonic()
        rng = np.random.default_rng(1)
        cases = []
        square = corpus.unit_square()
        for A in (build_A_unit_square(), build_A_quadrilateral(square),
                  build_A_regular(4)):
            cases.append((square, A))
        for quad in quad_corpus:
            cases.append((quad, build_map(quad).A))
        for n in range(5, 13):
            reg = corpus.regular_polygon(n)
            cases.append((reg, build_A_regular(n)))
            cases.append((reg, build_map(reg).A))
        for poly in shape_regular:
            cases.append((poly, build_map(poly).A))

        worst = 0.0
        for poly, A in cases:
            pts = sample_interior(poly, 50, rng, margin=1e-4 * poly.diameter)
            for kind in KINDS:
                worst = max(worst, precision_case(poly, A, kind, pts))
        elapsed = time.monotonic() - start
        ok = worst <= 1e-9 and elapsed < 120.0
        assert criterion(
            1, "quadratic precision across constructions", ok,
            f"{len(cases)} maps, worst residual {worst:.2e}, {elapsed:.1f}s",
        )

    def test_2_lagrange_property_at_nodes(self, criterion, quad_corpus):
        """The transformed basis is a true Lagrange basis at vertices and
        edge midpoints, including on a polygon with a straight vertex."""
        rng = np.random.default_rng(2)
        polys = [poly for _, poly in corpus.standard_corpus(rng)]
        polys += quad_corpus[:50]
        polys.append(corpus.degenerate_pentagon())
        worst = 0.0
        for poly in polys:
            smap = build_map(poly)
            table = lagrange_table(poly, smap)
            worst = max(worst, float(np.max(np.abs(table - np.eye(2 * poly.n)))))
        degen = corpus.degenerate_pentagon()
        col = diagonal_column(build_map(degen).A, 5, 1, 4)
        flat_ok = (abs(col.d_a) <= 1e-12 and abs(col.d_b) <= 1e-12
                   and abs(col.s - 1.0) <= 1e-12)
        ok = worst <= 1e-10 and flat_ok
        assert criterion(
            2, "lagrange property at nodes", ok,
            f"{len(polys)} polygons, worst deviation {worst:.2e}",
        )

    def test_3_unit_square_closed_form(self, criterion):
        """On the unit square the construction reduces to the hand-checked
        matrix, and the two cubic monomials the reduced space still contains
        come out exactly."""
        square = corpus.unit_square()
        literal = build_A_unit_square()
        smap = build_map(square)
        matrix_dev = float(np.max(np.abs(smap.A - literal)))
        rng = np.random.default_rng(3)
        pts = sample_interior(square, 100, rng, margin=1e-4)
        lam, dlam = eval_coords_batch(square, CoordinateKind.WACHSPRESS, pts)
        mu, _ = pairwise_batch(lam, dlam)
        xi = mu @ smap.A.T
        x, y = pts[:, 0], pts[:, 1]
        cubic_dev = max(
            float(np.max(np.abs(xi[:, 5] + xi[:, 2] - x * x * y))),
            float(np.max(np.abs(xi[:, 2] + xi[:, 6] - x * y * y))),
        )
        ok = matrix_dev <= 1e-14 and cubic_dev <= 1e-12
        assert criterion(
            3, "unit square closed form", ok,
            f"matrix dev {matrix_dev:.1e}, cubic monomial dev {cubic_dev:.1e}",
        )

    def test_4_coefficient_bounds(self, criterion, shape_regular):
        """Quadrilateral coefficients obey their universal bounds; on the
        shape-regular corpus all entries stay within the margin-derived
        bound; thin-wedge geometries drive the coefficients past any fixed
        constant, so no universal bound exists without shape assumptions."""
        rng = np.random.default_rng(4)
        quads = [corpus.random_convex_quadrilateral(rng) for _ in range(10_000)]
        # The two diagonal columns (0, 2) and (1, 3) of every quadrilateral.
        maps = build_map(polygon_batch(quads))
        columns = np.stack([smap.A[:, 8:] for smap in maps])               # (q, 8, 2)
        vertex_a = columns[:, [0, 1], [0, 1]]
        vertex_b = columns[:, [2, 3], [0, 1]]
        edges = columns[:, 4:]
        quad_ok = bool(np.all((edges > 0.0) & (edges < 1.0)))
        quad_ok &= bool(np.all(np.abs(vertex_a) <= 2.0) and np.all(np.abs(vertex_b) <= 2.0))
        worst_sum = float(np.max(np.abs(vertex_a + vertex_b + 2.0)))
        quad_ok &= worst_sum <= 1e-12

        bound_ok = True
        for poly in shape_regular:
            cond = check_conditions(
                poly, corpus.GAMMA_STAR, corpus.D_STAR_FRACTION * poly.diameter,
                corpus.BETA_STAR,
            )
            peak = float(np.max(np.abs(build_map(poly).A)))
            bound_ok &= peak <= coefficient_bound(poly, cond)

        s_values = [
            diagonal_column(build_map(corpus.blowup_hexagon(t)).A, 6, 0, 3).s
            for t in (0.3, 0.1, 0.03, 0.01, 0.003, 2e-3)
        ]
        blowup_ok = (
            all(b > a for a, b in zip(s_values, s_values[1:]))
            and s_values[-1] > 10.0
        )
        ok = quad_ok and bound_ok and blowup_ok
        assert criterion(
            4, "coefficient bounds and blowup", ok,
            f"quad sum dev {worst_sum:.1e}, blowup s {s_values[-1]:.1f}",
        )

    def test_5_gradient_consistency(self, criterion):
        """Analytic gradients of coordinates, products, and basis functions
        match central finite differences away from non-smooth lines, for
        every coordinate kind a polygon supports (Wachspress coordinates
        refuse a flat vertex)."""
        rng = np.random.default_rng(5)
        worst = 0.0
        for name, poly in corpus.standard_corpus(rng):
            smap = build_map(poly)
            pts = corpus.fd_safe_points(poly, 20, rng)
            h = 1e-6 * poly.diameter
            for kind in KINDS[1:] if name == "flat-vertex pentagon" else KINDS:
                lam, dlam = eval_coords_batch(poly, kind, pts)
                fd_lam = corpus.fd_gradients(
                    lambda q: eval_coords_batch(poly, kind, q)[0], pts, h)
                worst = max(worst, corpus.relative_gradient_error(dlam, fd_lam))

                mu, dmu = pairwise_batch(lam, dlam)
                fd_mu = corpus.fd_gradients(
                    lambda q: pairwise_batch(*eval_coords_batch(poly, kind, q))[0],
                    pts, h)
                worst = max(worst, corpus.relative_gradient_error(dmu, fd_mu))

                psi, dpsi = eval_basis_batch(poly, kind, smap, pts)
                fd_psi = corpus.fd_gradients(
                    lambda q: eval_basis_batch(poly, kind, smap, q)[0], pts, h)
                worst = max(worst, corpus.relative_gradient_error(dpsi, fd_psi))
        ok = worst <= 1e-5
        assert criterion(
            5, "gradient consistency", ok, f"worst relative error {worst:.2e}",
        )

    def test_6_patch_test(self, criterion):
        """Exact quadratic solutions are reproduced on skewed trapezoid
        meshes and on a mixed quad/pentagon mesh, whose pentagon has a flat
        vertex."""
        fields = [
            (lambda p: p[:, 0] ** 2,
             lambda p: np.stack([2 * p[:, 0], np.zeros(len(p))], axis=1),
             lambda p: np.full(len(p), -2.0)),
            (lambda p: p[:, 0] * p[:, 1],
             lambda p: np.stack([p[:, 1], p[:, 0]], axis=1),
             None),
            (lambda p: p[:, 1] ** 2,
             lambda p: np.stack([np.zeros(len(p)), 2 * p[:, 1]], axis=1),
             lambda p: np.full(len(p), -2.0)),
        ]
        configs = [
            (trapezoid_mesh(2, 0.25), CoordinateKind.MEAN_VALUE),
            (trapezoid_mesh(2, 0.25), CoordinateKind.WACHSPRESS),
            (trapezoid_mesh(4, 0.25), CoordinateKind.MEAN_VALUE),
            (trapezoid_mesh(4, 0.25), CoordinateKind.WACHSPRESS),
            (corpus.mixed_mesh(), CoordinateKind.MEAN_VALUE),
            (corpus.mixed_mesh(), CoordinateKind.TRIANGULATION),
        ]
        # The discrete solution equals the exact quadratic up to the quadrature
        # floor of the assembled integrals; degree 12 keeps that floor well
        # below the target for the mean-value basis on the finer trapezoid mesh.
        worst = 0.0
        for mesh, kind in configs:
            dm = dof_map(mesh)
            maps = cell_maps(mesh)
            for u, gu, source in fields:
                mat, rhs = assemble(mesh, kind, source=source, quad_degree=12,
                                    maps=maps, dofmap=dm)
                sol = solve_dirichlet(mat, rhs, mesh, dm, kind, u, maps=maps)
                err = error_norms(sol, u, gu)
                worst = max(worst, err.l2, err.h1)
        ok = worst <= 1e-7
        assert criterion(
            6, "quadratic patch test", ok, f"worst error norm {worst:.2e}",
        )

    def test_7_convergence_benchmark(self, criterion, deep):
        """Third-order L2 / second-order H1 convergence for the harmonic
        benchmark on successively refined trapezoid meshes."""
        start = time.monotonic()
        levels = [2, 4, 8, 16, 32, 64]
        if deep:
            levels += [128, 256]
        rows = convergence_study(levels, kind=CoordinateKind.MEAN_VALUE)
        elapsed = time.monotonic() - start
        within = all(
            L2_REFERENCE[r.n] / 3.0 <= r.l2_error <= 3.0 * L2_REFERENCE[r.n]
            and H1_REFERENCE[r.n] / 3.0 <= r.h1_error <= 3.0 * H1_REFERENCE[r.n]
            for r in rows
        )
        at64 = next(r for r in rows if r.n == 64)
        rates_ok = 2.9 <= at64.l2_rate <= 3.1 and 1.9 <= at64.h1_rate <= 2.1
        budget = 1800.0 if deep else 120.0
        ok = within and rates_ok and elapsed < budget
        assert criterion(
            7, "harmonic convergence benchmark", ok,
            f"n=64 rates l2 {at64.l2_rate:.3f} h1 {at64.h1_rate:.3f}, "
            f"errors within x3 of reference: {within}, {elapsed:.1f}s",
        )

    def test_8_quadrature_degree_robustness(self, criterion):
        """Raising the assembly quadrature degree from the production value
        leaves the discretization error essentially unchanged."""
        rows10 = convergence_study([8], kind=CoordinateKind.MEAN_VALUE,
                                   quad_degree=10)
        rows14 = convergence_study([8], kind=CoordinateKind.MEAN_VALUE,
                                   quad_degree=14)
        l2_shift = abs(rows10[0].l2_error - rows14[0].l2_error) / rows14[0].l2_error
        h1_shift = abs(rows10[0].h1_error - rows14[0].h1_error) / rows14[0].h1_error
        ok = l2_shift <= 0.01 and h1_shift <= 0.01
        assert criterion(
            8, "quadrature degree robustness", ok,
            f"relative shift l2 {l2_shift:.2e}, h1 {h1_shift:.2e}",
        )
