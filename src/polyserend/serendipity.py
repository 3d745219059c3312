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
rigid frame that puts the diagonal on the x axis, with one construction for
every n >= 3 and a batch of polygons (``build_A``): a 2x2 solve per diagonal
endpoint, written once on arrays.  Quadrilaterals take it too: both ends
of each of their diagonals share one neighbor line.
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
from .geometry import (GeometryError, Polygon, PolygonBatch, _as_array, _as_batch, _diagonal_frames,
                       _VERTICES, _neighbours)

__all__ = [
    "SerendipityError",
    "CoefficientBlowupError",
    "Strategy",
    "SerendipityMap",
    "build_A",
    "build_B",
    "build_map",
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
    """Reduction matrix A and nodal transform B of one polygon."""

    n: int
    A: np.ndarray          # (2n, n(n+1)/2)
    B: np.ndarray          # (2n, 2n)

    def __post_init__(self) -> None:
        self.A.setflags(write=False)
        self.B.setflags(write=False)

    @property
    def strategy(self) -> Strategy:
        """``quadrilateral`` for n = 4, whose two diagonals share one neighbor
        line (so s = 1), and ``generic`` otherwise; ``build_A`` builds both."""
        return Strategy.QUADRILATERAL if self.n == 4 else Strategy.GENERIC


def build_B(n: int) -> np.ndarray:
    """Nodal transform: psi_vertex_i = xi_ii - xi_{i,i+1} - xi_{i-1,i}; psi_edge_i = 4 xi_{i,i+1}."""
    if _as_array(n, SerendipityError, "nodal transform requires an integer n, got {entry!r}",
                 integer=True).ndim or n < 3:
        raise SerendipityError("nodal transform requires n >= 3")
    B = np.zeros((2 * n, 2 * n))
    B[:n, :n] = np.eye(n)
    for i in range(n):
        B[i, n + i] = -1.0
        B[i, n + (i - 1) % n] = -1.0
        B[n + i, n + i] = 4.0
    return B


def build_A(vertices: np.ndarray) -> np.ndarray:
    """Reduction matrices (c, 2n, n(n+1)/2) of polygons (c, n, 2) that share a vertex count.

    The vertex and edge columns are the identity.  Every strict diagonal
    (a, b), a < b, is solved in the rigid frame that puts a at (-l, 0) and b
    at (l, 0), with the vertices between them below the axis.  d_a and d_b
    are the x-intercepts, over l, of the lines through the two neighbors of a
    and of b.  The two edge coefficients at each endpoint sum to
    s = 2 / (2 - (d_a + d_b)) and split it so that the weighted neighbors
    meet the axis at the intercept; the x component of that 2x2 solve is
    redundant and is checked.  The vertex coefficients are
    (-2 - 2 d) / (2 - (d_a + d_b)).  A quadrilateral's two endpoints share
    one neighbor line, so d_a = -d_b and s = 1; a triangle has no diagonal.

    Raises ``SerendipityError`` naming the polygon of the batch (its row is
    the error's ``_row``) and the diagonal, and ``CoefficientBlowupError``
    when d_a + d_b leaves no margin below 2.
    """
    verts = _as_array(vertices, SerendipityError, _VERTICES)
    if verts.ndim != 3 or verts.shape[2] != 2:
        raise SerendipityError(f"vertices must have shape (c, n, 2), got {verts.shape}")
    c, n, _ = verts.shape
    pairs = pair_order(n)
    A = np.tile(np.eye(2 * n, len(pairs)), (c, 1, 1))
    a, b = np.array(pairs[2 * n:], dtype=int).reshape(-1, 2).T
    nxt, prv = _neighbours(n)
    q, ell = _diagonal_frames(verts, a, b)                  # (c, D, n, 2), (c, D)
    cols = np.arange(len(a))
    (xap, yap), (xan, yan), (xbp, ybp), (xbn, ybn) = (
        np.moveaxis(q[:, cols, k], -1, 0) for k in (prv[a], nxt[a], prv[b], nxt[b])
    )
    # Each endpoint's neighbors straddle the axis: prev(a) and next(b) above
    # (or on) it, next(a) and prev(b) below (or on, at a flat vertex on the
    # diagonal itself), so both denominators are > 0.
    den_a, den_b = yap - yan, ybn - ybp
    with np.errstate(divide="ignore", invalid="ignore"):
        d_a = (xap * yan - xan * yap) / (den_a * ell)
        d_b = (xbp * ybn - xbn * ybp) / (den_b * ell)
        gap = 2.0 - (d_a + d_b)
        s = 2.0 / gap
        coefficients = np.stack([
            (-2.0 - 2.0 * d_a) / gap,                       # vertex a
            (-2.0 - 2.0 * d_b) / gap,                       # vertex b
            s * yan / (yan - yap),                          # edge (a - 1, a)
            s * yap / (yap - yan),                          # edge (a, a + 1)
            s * ybn / (ybn - ybp),                          # edge (b - 1, b)
            s * ybp / (ybp - ybn),                          # edge (b, b + 1)
        ], axis=-1)                                         # (c, D, 6)
        residual = np.maximum(
            np.abs(coefficients[..., 2] * xap + coefficients[..., 3] * xan + s * d_a * ell),
            np.abs(coefficients[..., 4] * xbp + coefficients[..., 5] * xbn - s * d_b * ell),
        )
        failed = np.array([
            (yan > 0.0) | (ybp > 0.0),
            (den_a <= 1e-14 * ell) | (den_b <= 1e-14 * ell),
            ~(gap > 1e-12),
            ~(residual <= 1e-9 * np.maximum(1.0, s) * 2.0 * ell),
        ])                                                  # (4, c, D)
    bad = failed.any(axis=0)
    if np.any(bad):
        k, j = np.unravel_index(np.argmax(bad), bad.shape)
        defect = int(np.argmax(failed[:, k, j]))
        detail = (
            "a boundary neighbor lies on the wrong side of the diagonal",
            "neighbor vertices collinear with the diagonal",
            f"intercepts d_a={d_a[k, j]:.6g}, d_b={d_b[k, j]:.6g} leave no margin; "
            "coefficients blow up for this geometry",
            f"intercept consistency residual {residual[k, j]:.3e} exceeds tolerance",
        )[defect]
        error = CoefficientBlowupError if defect == 2 else SerendipityError
        exc = error(f"polygon {k}, diagonal ({a[j]}, {b[j]}): {detail}")
        exc._row = int(k)       # for a caller that names the polygon otherwise
        raise exc
    rows = np.stack([a, b, n + prv[a], n + a, n + prv[b], n + b], axis=1)   # (D, 6)
    A[:, rows, 2 * n + cols[:, None]] = coefficients
    return A


def build_map(polygon: Polygon | PolygonBatch) -> SerendipityMap | tuple[SerendipityMap, ...]:
    """Serendipity reduction of a polygon, with A from ``build_A``.

    A ``PolygonBatch`` is built at once and gets a tuple of maps, one per
    polygon.
    """
    verts = _as_batch(polygon).vertices
    n = verts.shape[1]
    B = build_B(n)
    maps = tuple(SerendipityMap(n=n, A=A, B=B) for A in build_A(verts))
    return maps[0] if isinstance(polygon, Polygon) else maps


def basis_nodes(polygon: Polygon) -> np.ndarray:
    """Interpolation nodes: the n vertices followed by the n edge midpoints."""
    v = polygon.vertices
    return np.vstack([v, 0.5 * (v + np.roll(v, -1, axis=0))])


def eval_basis_batch(
    polygon: Polygon | PolygonBatch,
    kind: CoordinateKind | str,
    smap: SerendipityMap | Sequence[SerendipityMap],
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange basis values (m, 2n) and gradients (m, 2n, 2) at interior points.

    Given a ``PolygonBatch`` of c polygons, one map each and points
    (c, m, 2), the results are (c, m, 2n) and (c, m, 2n, 2).

    Both are views of points-last arrays: the values of (c, 2n, m) and the
    gradients of a component-major (2, c, 2n, m), so each gradient
    component of the whole batch is one contiguous block.
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
    # polygon (c, 2n, P) times products (c, P, m) and gradients (2, c, P, m).
    # The gradients are written component-major through ``out``: by default
    # matmul would keep the (c, 2, ...) stride order of the products.
    BA = maps[0].B @ np.stack([sm.A for sm in maps])
    psi = BA @ np.swapaxes(mu, -1, -2).reshape(c, P, -1)
    dmu_pl = np.swapaxes(dmu, -1, -3).reshape(c, 2, P, -1).transpose(1, 0, 2, 3)
    dpsi = np.matmul(BA, dmu_pl, out=np.empty((2, c, 2 * n, dmu_pl.shape[-1])))
    psi, dpsi = np.swapaxes(psi, 1, 2), dpsi.transpose(1, 3, 2, 0)
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
    if _as_array(tol, SerendipityError, "tol must be a number, got {entry!r}").ndim \
            or not 0.0 < tol < math.inf:
        raise SerendipityError(f"tol must be finite and positive, got {tol!r}")
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
    pts = _as_array(points, SerendipityError, "points must be an array of numbers, got {entry!r}")
    xi = _as_array(xi_values, SerendipityError, "xi_values must be an array of numbers, got {entry!r}")
    verts = (polygon.vertices - polygon.centroid) / polygon.diameter
    pts = (np.atleast_2d(pts) - polygon.centroid) / polygon.diameter
    m1, m2, m3 = _constraint_matrices(verts)
    xiT = np.atleast_2d(xi).T  # (2n, m)
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
    if _as_array(eps, SerendipityError, "margin must be a number, got {entry!r}").ndim \
            or not (math.isfinite(eps) and eps > 0.0):
        raise SerendipityError(f"coefficient bound requires a finite positive margin, got {eps}")
    return max((1.0 - eps) / eps, 1.0 / (2.0 * eps), 1.0)


def coefficient_bound(polygon: Polygon, conditions) -> float:
    """Bound on all A entries for polygons passing the shape conditions.

    ``conditions.epsilon_star`` is measured in absolute length; it is
    normalized by the polygon diameter, matching the unit-diameter setting
    in which the bound is derived.
    """
    return bound_from_margin(conditions.epsilon_star / polygon.diameter)
