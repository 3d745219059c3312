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
from typing import Callable, Sequence

import numpy as np

from .barycentric import (
    CoordinateKind,
    _checked_points,
    _coordinates,
    _pair_arrays,
    _products,
    eval_boundary,
    pair_order,
)
# Unused here: the basis calls the kernels above.  perfbench/spans.py traces
# coordinate work by these two names on this module and reports a missing
# name as absent, so both stay importable from it.
from .barycentric import eval_coords_batch, pairwise_batch  # noqa: F401
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
    """Reduction matrix A and nodal transform B of one polygon.

    An ``n`` that is not an integer >= 3, or an A or B of another shape,
    raises ``SerendipityError``.  A and B are kept read-only.
    """

    n: int
    A: np.ndarray          # (2n, n(n+1)/2)
    B: np.ndarray          # (2n, 2n)

    def __post_init__(self) -> None:
        n = self.n
        if _as_array(n, SerendipityError, "a serendipity map requires an integer n, got {entry!r}",
                     integer=True).ndim or n < 3:
            raise SerendipityError(f"a serendipity map requires an integer n >= 3, got {n!r}")
        A = _as_array(self.A, SerendipityError, "A must be an array of numbers, got {entry!r}")
        B = _as_array(self.B, SerendipityError, "B must be an array of numbers, got {entry!r}")
        shapes = (2 * n, n * (n + 1) // 2), (2 * n, 2 * n)
        if (A.shape, B.shape) != shapes:
            raise SerendipityError(f"a map with n = {n} needs A of shape {shapes[0]} and B of "
                                   f"shape {shapes[1]}, got {A.shape} and {B.shape}")
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

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

    Raises ``SerendipityError`` naming the polygon of the batch ("polygon k")
    and the diagonal, and ``CoefficientBlowupError`` when d_a + d_b leaves no
    margin below 2.
    """
    return _reduction(vertices, "polygon {}".format)


def _reduction(vertices: np.ndarray, name: Callable[[int], str]) -> np.ndarray:
    """``build_A``, whose errors call the polygon of row k ``name(k)``."""
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
        raise error(f"{name(int(k))}, diagonal ({a[j]}, {b[j]}): {detail}")
    rows = np.stack([a, b, n + prv[a], n + a, n + prv[b], n + b], axis=1)   # (D, 6)
    A[:, rows, 2 * n + cols[:, None]] = coefficients
    return A


def build_map(polygon: Polygon | PolygonBatch) -> SerendipityMap | tuple[SerendipityMap, ...]:
    """Serendipity reduction of a polygon, with A from ``build_A``.

    A ``PolygonBatch`` is built at once and gets a tuple of maps, one per
    polygon.
    """
    verts = _as_batch(polygon).vertices
    single = isinstance(polygon, Polygon)
    B = build_B(verts.shape[1])
    As = _reduction(verts, (lambda k: "the polygon") if single else "polygon {}".format)
    maps = tuple(SerendipityMap(n=verts.shape[1], A=A, B=B) for A in As)
    return maps[0] if single else maps


def _basis(batch: PolygonBatch, kind: CoordinateKind, maps: Sequence[SerendipityMap],
           x: np.ndarray, values: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """The basis kernel: values (c, 2n, m), or None unless ``values``, and
    gradients (2, c, 2n, m), component-major, on the c polygons of ``batch``
    with one map each, at coordinate-major points (2, c, m).

    It checks nothing, as the coordinate kernel (``_coordinates``) it calls.
    The basis is contracted from the pair-major products (``_products``),
    read in place; with ``values=False`` the products themselves are not
    formed.  The coordinates are dropped once their products exist, so
    they, the products and the basis are never all alive at once.
    """
    lam, dlam = _coordinates(batch, kind, x)
    products = _products(lam, dlam, values)
    del lam, dlam
    # The products (P, c, m) and their gradients (2, P, c, m), read as
    # strided batch operands (c, P, m) and (2, c, P, m) with no copy: B A of
    # every polygon (c, 2n, P) times each.
    c, n = len(maps), maps[0].n
    BA = maps[0].B @ np.stack([sm.A for sm in maps])
    psi = BA @ products[0].transpose(1, 0, 2) if values else None
    dmu = products[1:].transpose(0, 2, 1, 3)
    return psi, np.matmul(BA, dmu, out=np.empty((2, c, 2 * n, dmu.shape[-1])))


def eval_basis_batch(
    polygon: Polygon | PolygonBatch,
    kind: CoordinateKind | str,
    smap: SerendipityMap | Sequence[SerendipityMap],
    points: np.ndarray,
    values: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Lagrange basis values (m, 2n) and gradients (m, 2n, 2) at interior points.

    Given a ``PolygonBatch`` of c polygons, one map each and points
    (c, m, 2), the results are (c, m, 2n) and (c, m, 2n, 2).  With
    ``values=False`` only the gradients are formed and the values are None.
    The points are refused as ``eval_coords_batch`` refuses them.

    Both are views of points-last arrays: the values of (c, 2n, m) and the
    gradients of a component-major (2, c, 2n, m), so each gradient
    component of the whole batch is one contiguous block.
    """
    kind, batch, x = _checked_points(polygon, kind, points)
    single = isinstance(polygon, Polygon)
    maps = (smap,) if isinstance(smap, SerendipityMap) else tuple(smap)
    if len(maps) != len(batch) or any(sm.n != batch.n for sm in maps):
        raise SerendipityError("needs one serendipity map per polygon, built for that polygon")
    psi, dpsi = _basis(batch, kind, maps, x, values)
    psi = None if psi is None else np.swapaxes(psi, 1, 2)
    dpsi = dpsi.transpose(1, 3, 2, 0)
    if single:
        return (None if psi is None else psi[0]), dpsi[0]
    return psi, dpsi


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
    if smap.n != polygon.n:
        raise SerendipityError("map size does not match polygon")
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

    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray
    max_residual: float
    passed: bool
    worst_pair: tuple[int, int]


def _moments(verts: np.ndarray) -> np.ndarray:
    """The six moments (6, n(n+1)/2) of the products, in ``pair_order``: rows 1, x, y, xx, xy, yy.

    Summed over ordered pairs against 1, the midpoint (v_a + v_b) / 2 and the
    symmetrized second moment (v_a v_b^T + v_b v_a^T) / 2, the products
    L_a L_b give 1, x and x x^T; an unordered pair counts a square (a, a)
    once and any other product twice.
    """
    ia, ib = _pair_arrays(len(verts))
    (xa, ya), (xb, yb) = verts[ia].T, verts[ib].T
    return np.where(ia == ib, 1.0, 2.0) * np.stack(
        [np.ones(len(ia)), 0.5 * (xa + xb), 0.5 * (ya + yb), xa * xb, 0.5 * (xa * yb + ya * xb), ya * yb])


def _group_maxima(residuals: np.ndarray) -> list[np.ndarray]:
    """Max-abs of residuals (6, ...) of the ``_moments`` rows over each constraint
    group: the partition (row 0), the first moments (1-2), the second moments (3-5)."""
    return [np.abs(r).max(axis=0) for r in np.split(residuals, [1, 3])]


def verify_constraints(
    polygon: Polygon,
    smap: SerendipityMap,
    tol: float = 1e-9,
) -> ConstraintReport:
    """Check that every column of A keeps the six moments (``_moments``) of its product.

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
    n = polygon.n
    M = _moments((polygon.vertices - polygon.centroid) / polygon.diameter)
    q1, q2, q3 = _group_maxima(M[:, :2 * n] @ smap.A - M)
    per_column = np.maximum(q1, np.maximum(q2, q3))
    worst = int(np.argmax(per_column))
    max_res = float(per_column[worst])
    return ConstraintReport(q1=q1, q2=q2, q3=q3, max_residual=max_res,
                            passed=bool(max_res <= tol), worst_pair=pair_order(n)[worst])


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
    Raises SerendipityError for a non-finite point, which has no residual.
    """
    pts = _as_array(points, SerendipityError, "points must be an array of numbers, got {entry!r}")
    if not np.all(np.isfinite(pts)):
        raise SerendipityError("points must be finite to have residuals")
    xi = _as_array(xi_values, SerendipityError, "xi_values must be an array of numbers, got {entry!r}")
    pts, xi = np.atleast_2d(pts, xi)
    n = polygon.n
    if pts.shape[1:] != (2,) or xi.shape != (len(pts), 2 * n):
        raise SerendipityError(f"needs points (m, 2) and xi_values (m, 2n) with 2n = {2 * n}, "
                               f"got {pts.shape} and {xi.shape}")
    M = _moments((polygon.vertices - polygon.centroid) / polygon.diameter)
    x, y = ((pts - polygon.centroid) / polygon.diameter).T
    monomials = np.stack([np.ones(len(pts)), x, y, x * x, x * y, y * y])
    return np.stack(_group_maxima(M[:, :2 * n] @ xi.T - monomials), axis=1)


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
