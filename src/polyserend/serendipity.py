"""Quadratic serendipity basis on convex polygons.

The n(n+1)/2 pairwise products of generalized barycentric coordinates span
all quadratics but carry interior degrees of freedom.  This module builds a
sparse reduction matrix A of shape (2n, n(n+1)/2) whose rows define 2n
boundary-associated functions

    xi = A @ mu,

one per vertex and one per edge, that still reproduce every quadratic
polynomial exactly.  A second transform B turns xi into a Lagrange-type
basis psi that interpolates at the vertices and edge midpoints.

The first 2n columns of A are the identity (products indexed by vertices and
edges are kept); each strict-diagonal product is redistributed onto the six
functions touching its two endpoints.  Column coefficients are found in a
rigid frame that puts the diagonal on the x axis: quadrilaterals, where the
general construction is undefined, have a closed form, and every other
polygon takes a 2x2 solve per diagonal endpoint.  The unit-square and
regular-polygon closed forms are kept as reference oracles for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .barycentric import (
    CoordinateKind,
    _pair_arrays,
    eval_boundary,
    eval_coords_batch,
    pair_order,
    pairwise_batch,
)
from .geometry import GeometryError, Polygon, diagonal_frame

__all__ = [
    "SerendipityError",
    "CoefficientBlowupError",
    "Strategy",
    "SerendipityMap",
    "DiagonalCoefficients",
    "build_B",
    "build_A_unit_square",
    "build_A_quadrilateral",
    "build_A_regular",
    "build_A_generic",
    "build_map",
    "quadrilateral_diagonal_coefficients",
    "generic_diagonal_coefficients",
    "eval_basis_batch",
    "basis_nodes",
    "boundary_basis_values",
    "lagrange_table",
    "ConstraintReport",
    "verify_constraints",
    "precision_residuals",
    "coefficient_bound",
    "bound_from_margin",
]


class SerendipityError(GeometryError):
    """Serendipity construction failed."""


class CoefficientBlowupError(SerendipityError):
    """Diagonal coefficients are unbounded for this geometry (s -> infinity)."""


class Strategy(str, Enum):
    QUADRILATERAL = "quadrilateral"
    GENERIC = "generic"


@dataclass(frozen=True, eq=False)
class SerendipityMap:
    """Reduction matrix A, nodal transform B and the strategy that built A."""

    n: int
    A: np.ndarray          # (2n, n(n+1)/2)
    B: np.ndarray          # (2n, 2n)
    strategy: Strategy

    def __post_init__(self) -> None:
        self.A.setflags(write=False)
        self.B.setflags(write=False)


@dataclass(frozen=True)
class DiagonalCoefficients:
    """Six nonzero entries of one diagonal column plus construction details.

    Row placement: ``c_aa``/``c_bb`` on the vertex functions at the diagonal
    endpoints, ``c_edge_before_a`` on edge (a-1, a), ``c_edge_after_a`` on
    edge (a, a+1), and likewise around b.  For the generic construction the
    frame quantities d_a, d_b (x-intercepts of the neighbor lines divided by
    the half diagonal) and the shared edge-sum s are reported; quadrilateral
    columns report their single intercept parameter d instead.
    """

    a: int
    b: int
    c_aa: float
    c_bb: float
    c_edge_before_a: float
    c_edge_after_a: float
    c_edge_before_b: float
    c_edge_after_b: float
    half_length: float
    d_a: float | None = None
    d_b: float | None = None
    s: float | None = None
    d: float | None = None


def build_B(n: int) -> np.ndarray:
    """Nodal transform: psi_vertex_i = xi_ii - xi_{i,i+1} - xi_{i-1,i}; psi_edge_i = 4 xi_{i,i+1}."""
    if n < 3:
        raise SerendipityError("nodal transform requires n >= 3")
    B = np.zeros((2 * n, 2 * n))
    B[:n, :n] = np.eye(n)
    for i in range(n):
        B[i, n + i] = -1.0
        B[i, n + (i - 1) % n] = -1.0
        B[n + i, n + i] = 4.0
    return B


def build_A_unit_square() -> np.ndarray:
    """Hand-checked reduction for the unit square (0,0),(1,0),(1,1),(0,1); a test oracle.

    The two diagonal products are split evenly over the four edge functions
    with weight 1/2 and subtracted from the opposite vertex functions.
    """
    cols = np.array(
        [
            [-1.0, 0.0],
            [0.0, -1.0],
            [-1.0, 0.0],
            [0.0, -1.0],
            [0.5, 0.5],
            [0.5, 0.5],
            [0.5, 0.5],
            [0.5, 0.5],
        ]
    )
    return np.hstack([np.eye(8), cols])


def quadrilateral_diagonal_coefficients(polygon: Polygon, a: int) -> DiagonalCoefficients:
    """Coefficients for the diagonal (a, a+2) of a convex quadrilateral.

    In the frame with the diagonal on the x axis the two off-diagonal
    vertices straddle the axis; the four edge coefficients are the convex
    weights with which the segment between them crosses the axis, and the
    crossing abscissa fixes the two vertex coefficients.
    """
    if polygon.n != 4:
        raise SerendipityError("quadrilateral construction requires n = 4")
    a %= 4
    b = (a + 2) % 4
    frame = diagonal_frame(polygon, a, b)
    q = frame.apply(polygon.vertices)
    below = q[(a + 1) % 4]
    above = q[(a + 3) % 4]
    if not (below[1] < 0.0 < above[1]):
        raise SerendipityError("quadrilateral is not strictly convex across its diagonal")
    w_below = above[1] / (above[1] - below[1])
    w_above = below[1] / (below[1] - above[1])
    d = (w_below * below[0] + w_above * above[0]) / frame.half_length
    return DiagonalCoefficients(
        a=a,
        b=b,
        c_aa=d - 1.0,
        c_bb=-d - 1.0,
        c_edge_before_a=w_above,
        c_edge_after_a=w_below,
        c_edge_before_b=w_below,
        c_edge_after_b=w_above,
        half_length=frame.half_length,
        d=d,
    )


def _place_column(A: np.ndarray, n: int, col: int, co: DiagonalCoefficients) -> None:
    A[co.a, col] = co.c_aa
    A[co.b, col] = co.c_bb
    A[n + (co.a - 1) % n, col] = co.c_edge_before_a
    A[n + co.a, col] = co.c_edge_after_a
    A[n + (co.b - 1) % n, col] = co.c_edge_before_b
    A[n + co.b, col] = co.c_edge_after_b


def build_A_quadrilateral(polygon: Polygon) -> np.ndarray:
    if polygon.n != 4:
        raise SerendipityError("quadrilateral construction requires n = 4")
    A = np.eye(8, 10)
    for col, (a, _) in zip((8, 9), ((0, 2), (1, 3))):
        _place_column(A, 4, col, quadrilateral_diagonal_coefficients(polygon, a))
    return A


def _regular_closed_form(theta: float, sigma: float) -> tuple[float, float, float]:
    """Coefficients (c0, c_minus, c_plus) for a regular-polygon diagonal.

    The diagonal is the vertical chord between angles +-theta on the unit
    circle, with neighbors sigma away.  The 3x3 moment system has the closed
    form below; at theta = pi/2 (diagonals through the center) the raw
    expressions are 0/0 and the limits are used instead.
    """
    if abs(theta - 0.5 * math.pi) < 1e-13:
        c0 = -(1.0 + math.cos(sigma)) / (1.0 - math.cos(sigma))
        cm = 1.0 / (2.0 * (1.0 - math.cos(sigma)))
        return c0, cm, cm
    tan_t = math.tan(theta)
    cot_t = 1.0 / tan_t
    cos_s = math.cos(sigma)
    sin_s = math.sin(sigma)
    c0 = ((-1.0 + cos_s) * cot_t + (1.0 + cos_s) * tan_t) / ((-1.0 + cos_s) * (cot_t + tan_t))
    denom = 2.0 * (tan_t + cot_t) * sin_s * (cos_s - 1.0)
    cm = (cos_s - sin_s * tan_t - 1.0) / denom
    cp = (1.0 - cos_s - sin_s * tan_t) / denom
    return c0, cm, cp


def build_A_regular(n: int) -> np.ndarray:
    """Reduction matrix for the regular n-gon (any similar copy shares it); a test oracle.

    Every diagonal is mirror-symmetric in a rotated frame, which collapses
    the six coefficients to three; they depend only on the angular step
    sigma = 2 pi / n and the half-opening theta = k sigma / 2, where k is the
    number of boundary steps along the short side of the diagonal.
    """
    if n < 3:
        raise SerendipityError("regular construction requires n >= 3")
    pairs = pair_order(n)
    A = np.eye(2 * n, len(pairs))
    sigma = 2.0 * math.pi / n
    for col, (p, q) in enumerate(pairs[2 * n :], start=2 * n):
        m0 = q - p
        if m0 <= n - m0:
            a, b, k = q, p, m0
        else:
            a, b, k = p, q, n - m0
        theta = 0.5 * k * sigma
        c0, cm, cp = _regular_closed_form(theta, sigma)
        A[a, col] = c0
        A[b, col] = c0
        A[n + (a - 1) % n, col] = cm
        A[n + b, col] = cm
        A[n + a, col] = cp
        A[n + (b - 1) % n, col] = cp
    return A


def generic_diagonal_coefficients(polygon: Polygon, a: int, b: int) -> DiagonalCoefficients:
    """Coefficients for one strict diagonal of an arbitrary convex polygon.

    With the diagonal endpoints at (-l, 0) and (l, 0), d_a and d_b locate the
    x-intercepts of the lines through the neighbors of a and b.  The combined
    edge weight on each side is s = 2 / (2 - (d_a + d_b)); splitting it
    between the two adjacent edge functions so the weighted neighbors hit the
    intercept is a 2x2 solve whose x component must close automatically.
    """
    n = polygon.n
    a %= n
    b %= n
    frame = diagonal_frame(polygon, a, b)
    q = frame.apply(polygon.vertices)
    ell = frame.half_length
    # Counterclockwise travel from a to b stays below the axis.
    if q[a][0] > 0.0:
        a, b = b, a
    va_prev, va_next = q[(a - 1) % n], q[(a + 1) % n]
    vb_prev, vb_next = q[(b - 1) % n], q[(b + 1) % n]
    if va_next[1] > 0.0 or vb_prev[1] > 0.0:
        raise SerendipityError(
            f"diagonal ({a}, {b}): a boundary neighbor lies on the wrong side "
            "of the diagonal"
        )
    # Each endpoint's neighbors straddle the axis: prev(a)/next(b) above (or
    # on) it, next(a)/prev(b) below (or on, at a collinear vertex sitting on
    # the diagonal itself), so these denominators are > 0.
    den_a = va_prev[1] - va_next[1]
    den_b = vb_next[1] - vb_prev[1]
    if den_a <= 1e-14 * ell or den_b <= 1e-14 * ell:
        raise SerendipityError(
            f"diagonal ({a}, {b}): neighbor vertices collinear with the diagonal"
        )
    d_a = (va_prev[0] * va_next[1] - va_next[0] * va_prev[1]) / (den_a * ell)
    d_b = (vb_prev[0] * vb_next[1] - vb_next[0] * vb_prev[1]) / (den_b * ell)
    gap = 2.0 - (d_a + d_b)
    if gap <= 1e-12:
        raise CoefficientBlowupError(
            f"diagonal ({a}, {b}): intercepts d_a={d_a:.6g}, d_b={d_b:.6g} leave no margin; "
            "coefficients blow up for this geometry"
        )
    s = 2.0 / gap
    c_before_a = s * va_next[1] / (va_next[1] - va_prev[1])
    c_after_a = s * va_prev[1] / (va_prev[1] - va_next[1])
    c_before_b = s * vb_next[1] / (vb_next[1] - vb_prev[1])
    c_after_b = s * vb_prev[1] / (vb_prev[1] - vb_next[1])
    # The x components of the two endpoint systems are redundant; verify.
    res_a = c_before_a * va_prev[0] + c_after_a * va_next[0] - s * d_a * (-ell)
    res_b = c_before_b * vb_prev[0] + c_after_b * vb_next[0] - s * d_b * ell
    if max(abs(res_a), abs(res_b)) > 1e-9 * max(1.0, s) * 2.0 * ell:
        raise SerendipityError(
            f"diagonal ({a}, {b}): intercept consistency residual "
            f"{max(abs(res_a), abs(res_b)):.3e} exceeds tolerance"
        )
    return DiagonalCoefficients(
        a=a,
        b=b,
        c_aa=(-2.0 - 2.0 * d_a) / gap,
        c_bb=(-2.0 - 2.0 * d_b) / gap,
        c_edge_before_a=c_before_a,
        c_edge_after_a=c_after_a,
        c_edge_before_b=c_before_b,
        c_edge_after_b=c_after_b,
        half_length=ell,
        d_a=d_a,
        d_b=d_b,
        s=s,
    )


def build_A_generic(polygon: Polygon) -> np.ndarray:
    n = polygon.n
    if n == 4:
        raise SerendipityError(
            "the generic construction is undefined for quadrilaterals; "
            "use the quadrilateral strategy"
        )
    pairs = pair_order(n)
    A = np.eye(2 * n, len(pairs))
    for col, (p, q) in enumerate(pairs[2 * n :], start=2 * n):
        _place_column(A, n, col, generic_diagonal_coefficients(polygon, p, q))
    return A


def build_map(polygon: Polygon) -> SerendipityMap:
    """Build the serendipity reduction for a polygon.

    Quadrilaterals use the closed quadrilateral form, the one case where the
    per-diagonal solve is undefined; every other polygon uses the generic
    solve, which for a triangle has no diagonals and returns the identity.
    """
    n = polygon.n
    if n == 4:
        A, strategy = build_A_quadrilateral(polygon), Strategy.QUADRILATERAL
    else:
        A, strategy = build_A_generic(polygon), Strategy.GENERIC
    return SerendipityMap(n=n, A=A, B=build_B(n), strategy=strategy)


def basis_nodes(polygon: Polygon) -> np.ndarray:
    """Interpolation nodes: the n vertices followed by the n edge midpoints."""
    v = polygon.vertices
    return np.vstack([v, 0.5 * (v + np.roll(v, -1, axis=0))])


def eval_basis_batch(
    polygon: Polygon | Sequence[Polygon],
    kind: CoordinateKind | str,
    smap: SerendipityMap | Sequence[SerendipityMap],
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange basis values (m, 2n) and gradients (m, 2n, 2) at interior points.

    Given a batch of c polygons that share a vertex count, one map each and
    points (c, m, 2), the results are (c, m, 2n) and (c, m, 2n, 2).
    """
    values, gradients = eval_coords_batch(polygon, kind, points)
    mu, dmu = pairwise_batch(values, gradients)
    single = values.ndim == 2
    maps = (smap,) if isinstance(smap, SerendipityMap) else tuple(smap)
    n = values.shape[-1]
    if len(maps) != (1 if single else len(values)) or any(sm.n != n for sm in maps):
        raise SerendipityError("needs one serendipity map per polygon, built for that polygon")
    c, P = len(maps), mu.shape[-1]
    # Contract on the points-last layout of the products: B A of every
    # polygon (c, 2n, P) times products (c, P, m) and gradients (c, 2, P, m).
    BA = maps[0].B @ np.stack([sm.A for sm in maps])
    psi = BA @ np.swapaxes(mu, -1, -2).reshape(c, P, -1)
    dpsi = BA[:, None] @ np.swapaxes(dmu, -1, -3).reshape(c, 2, P, -1)
    psi, dpsi = np.swapaxes(psi, 1, 2), np.swapaxes(dpsi, 1, 3)
    return (psi[0], dpsi[0]) if single else (psi, dpsi)


def boundary_basis_values(
    polygon: Polygon,
    smap: SerendipityMap,
    edges: np.ndarray,
    ts: np.ndarray,
) -> np.ndarray:
    """Lagrange basis values (m, 2n) on edges (v_e, v_e+1) at parameters t.

    Uses the exact piecewise-linear boundary trace of the coordinates, so it
    is kind-independent and valid on the boundary itself.
    """
    lam = eval_boundary(polygon, edges, ts)
    ia, ib = _pair_arrays(polygon.n)
    return (lam[:, ia] * lam[:, ib]) @ smap.A.T @ smap.B.T


def lagrange_table(polygon: Polygon, smap: SerendipityMap) -> np.ndarray:
    """Matrix T[p, q] = psi_q(node_p); equals the identity for a correct map."""
    n = polygon.n
    return boundary_basis_values(polygon, smap, np.tile(np.arange(n), 2), np.repeat([0.0, 0.5], n))


@dataclass(frozen=True, eq=False)
class ConstraintReport:
    """Residuals of the three quadratic-precision constraint groups per column.

    Columns follow ``pair_order``; residuals are evaluated on the polygon
    rescaled to unit diameter (centroid at the origin) so the tolerance is
    scale-free.  ``q1`` is the scalar partition constraint, ``q2`` the
    max-abs of the first-moment (midpoint) constraint, ``q3`` the max-abs of
    the second-moment constraint.
    """

    pairs: tuple[tuple[int, int], ...]
    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray
    max_residual: float
    tolerance: float
    passed: bool
    worst_pair: tuple[int, int]


def _constraint_matrices(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row functionals applied to A's rows: partition, first and second moments."""
    n = len(verts)
    mid = 0.5 * (verts + np.roll(verts, -1, axis=0))
    nxt = np.roll(verts, -1, axis=0)
    m1 = np.concatenate([np.ones(n), 2.0 * np.ones(n)])
    m2 = np.hstack([verts.T, 2.0 * mid.T])  # (2, 2n)
    sym_v = np.stack([verts[:, 0] ** 2, verts[:, 0] * verts[:, 1], verts[:, 1] ** 2])
    sym_e = np.stack(
        [
            2.0 * verts[:, 0] * nxt[:, 0],
            verts[:, 0] * nxt[:, 1] + verts[:, 1] * nxt[:, 0],
            2.0 * verts[:, 1] * nxt[:, 1],
        ]
    )
    m3 = np.hstack([sym_v, sym_e])  # (3, 2n): xx, xy, yy components
    return m1, m2, m3


def verify_constraints(
    polygon: Polygon,
    smap: SerendipityMap,
    tol: float = 1e-9,
) -> ConstraintReport:
    """Check that every column of A satisfies the quadratic moment constraints.

    Column (a, b) must redistribute the product L_a L_b without changing the
    partition sum, the first moment (2 v_ab = v_a + v_b) or the symmetrized
    second moment v_a v_b^T + v_b v_a^T; together these make the reduced
    basis reproduce all quadratics wherever the coordinates do.
    """
    if smap.n != polygon.n:
        raise SerendipityError("map size does not match polygon")
    verts = (polygon.vertices - polygon.centroid) / polygon.diameter
    n = polygon.n
    pairs = pair_order(n)
    ia, ib = _pair_arrays(n)
    m1, m2, m3 = _constraint_matrices(verts)
    # Unordered-pair weights: the ordered-pair reproduction identities count
    # a square (a, a) once but an off-diagonal product twice.
    t1 = np.where(ia == ib, 1.0, 2.0)
    half = 0.5 * t1
    t2 = half * (verts[ia].T + verts[ib].T)  # v_a on squares, v_a + v_b otherwise
    t3 = half * np.stack(
        [
            2.0 * verts[ia, 0] * verts[ib, 0],
            verts[ia, 0] * verts[ib, 1] + verts[ia, 1] * verts[ib, 0],
            2.0 * verts[ia, 1] * verts[ib, 1],
        ]
    )
    r1 = np.abs(m1 @ smap.A - t1)
    r2 = np.max(np.abs(m2 @ smap.A - t2), axis=0)
    r3 = np.max(np.abs(m3 @ smap.A - t3), axis=0)
    per_column = np.maximum(r1, np.maximum(r2, r3))
    worst = int(np.argmax(per_column))
    max_res = float(per_column[worst])
    return ConstraintReport(
        pairs=pairs,
        q1=r1,
        q2=r2,
        q3=r3,
        max_residual=max_res,
        tolerance=tol,
        passed=bool(max_res <= tol),
        worst_pair=pairs[worst],
    )


def precision_residuals(
    polygon: Polygon,
    xi_values: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Pointwise quadratic-reproduction residuals of reduced basis values.

    Given xi evaluated at m points, returns (m, 3) residuals: partition of
    unity, linear reproduction (max-abs over components) and quadratic
    moment reproduction (max-abs over the three distinct entries of x x^T).
    Inputs are rescaled to the unit-diameter frame so results are scale-free.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    verts = (polygon.vertices - polygon.centroid) / polygon.diameter
    pts = (pts - polygon.centroid) / polygon.diameter
    m1, m2, m3 = _constraint_matrices(verts)
    xiT = np.atleast_2d(xi_values).T  # (2n, m)
    r1 = np.abs(m1 @ xiT - 1.0)
    r2 = np.max(np.abs(m2 @ xiT - pts.T), axis=0)
    quad = np.stack([pts[:, 0] ** 2, pts[:, 0] * pts[:, 1], pts[:, 1] ** 2])
    r3 = np.max(np.abs(m3 @ xiT - quad), axis=0)
    return np.stack([r1, r2, r3], axis=1)


def bound_from_margin(eps: float) -> float:
    """Uniform coefficient bound implied by a unit-diameter margin eps.

    Derivation sketch (unit diameter, half diagonal l <= 1/2): the shape
    conditions force both intercepts to satisfy d l < l - eps, hence
    d <= 1 - 2 eps and 2 - (d_a + d_b) > 2 eps / l >= 4 eps.  Therefore
    s < 1 / (2 eps), edge coefficients lie in (0, s), and the vertex
    coefficients obey |c| = (2 + 2 d) / (2 - (d_a + d_b)) < (1 - eps) / eps.
    The bound is sharp: long diagonals of regular polygons approach it.
    """
    if eps <= 0.0:
        raise SerendipityError("coefficient bound requires a positive margin")
    return max((1.0 - eps) / eps, 1.0 / (2.0 * eps), 1.0)


def coefficient_bound(polygon: Polygon, conditions) -> float:
    """Bound on all A entries for polygons passing the shape conditions.

    ``conditions.epsilon_star`` is measured in absolute length; it is
    normalized by the polygon diameter, matching the unit-diameter setting
    in which the bound is derived.
    """
    return bound_from_margin(conditions.epsilon_star / polygon.diameter)
