"""Numerical integration on triangles and convex polygons.

Triangle rules come from a conical (Duffy-style) product of a Gauss-Legendre
rule in one direction and a Gauss-Jacobi rule (weight 1 - x) in the other,
which absorbs the Jacobian of the square-to-triangle collapse exactly.  Both
Gauss rules come from the Golub-Welsch eigenvalue method.  The
resulting rule on the unit reference triangle {x, y >= 0, x + y <= 1} has
m^2 strictly interior points with positive weights and integrates all
polynomials of total degree 2m - 1 exactly.

Polygon rules triangulate by fanning from the centroid, splitting each fan
triangle at its boundary-edge midpoint, and pushing the reference rule
through the affine map of each piece with the polygon vertex at the
collapsed corner of the conical rule.  The split-and-collapse layout keeps
polynomial exactness and, crucially, clusters points toward the polygon
vertices, where generalized barycentric coordinates lose smoothness; plain
Gauss fans converge only algebraically for such integrands, this layout
restores fast convergence.

``fan_rule`` instead fans from each polygon's apex (``fan_apex``), the fan
of triangulation-kind coordinates, so it integrates their
piecewise-polynomial integrands exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import GeometryError, Polygon, PolygonBatch, _as_array, _as_batch, _fans, _neighbours

__all__ = [
    "QuadratureRule",
    "MAX_DEGREE",
    "triangle_rule",
    "polygon_rule",
    "fan_rule",
    "rule_layouts",
]

MAX_DEGREE = 20


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Points (m, 2) and weights (m,) exact for polynomials up to ``degree``.

    A rule for a batch of c polygons has points (c, m, 2) and weights (c, m);
    its length is the total point count.  Indexing a batch rule by rows, like
    ``PolygonBatch``, gives the rule of those polygons, as read-only views
    for a slice; one row gives that polygon's rule.  A rule for one polygon
    has no rows to index: indexing it raises ``GeometryError``.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self) -> None:
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return self.weights.size

    def __getitem__(self, rows: slice | int) -> QuadratureRule:
        if self.weights.ndim != 2:
            raise GeometryError("only a batch rule has rows to index")
        return QuadratureRule(points=self.points[rows], weights=self.weights[rows],
                              degree=self.degree)


def _gauss_jacobi(m: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [-1, 1] with weight (1 - x)^alpha, alpha 0 or 1: points
    (increasing) and weights, exact to degree 2m - 1 (Golub-Welsch).

    The points are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix of the recurrence of the Jacobi polynomials P^(alpha, 0), and
    each weight is mu_0 = 2^(alpha + 1) / (alpha + 1) times the squared first
    component of its eigenvector.
    """
    k = np.arange(m, dtype=float)
    # -alpha^2 / ((2k + alpha) (2k + alpha + 2)), which for alpha in {0, 1}
    # is defined at k = 0 in this form.
    diag = -alpha / ((2.0 * k + 1.0) * (2.0 * k + 3.0))
    j, s = k[1:], 2.0 * k[1:] + alpha
    off = 2.0 * j * (j + alpha) / (s * np.sqrt(s * s - 1.0))
    points, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return points, 2.0 ** (alpha + 1) / (alpha + 1) * vectors[0] ** 2


def triangle_rule(degree: int) -> QuadratureRule:
    """Rule on the reference triangle (0,0), (1,0), (0,1) exact to ``degree``,
    an integer in [1, ``MAX_DEGREE``]; built once per degree."""
    # Checked before the cache, where True would find the rule of 1 and 3.0 that of 3.
    if _as_array(degree, GeometryError, "expected integer quadrature degree, got {entry!r}",
                 integer=True).ndim or not 1 <= degree <= MAX_DEGREE:
        raise GeometryError(f"quadrature degree must be in [1, {MAX_DEGREE}], got {degree}")
    return _triangle_rule(int(degree))


@lru_cache(maxsize=None)
def _triangle_rule(degree: int) -> QuadratureRule:
    m = (degree + 2) // 2
    x_leg, w_leg = _gauss_jacobi(m, 0)
    x_jac, w_jac = _gauss_jacobi(m, 1)
    u = 0.5 * (x_leg + 1.0)          # Gauss-Legendre on [0, 1]
    a = 0.5 * w_leg
    v = 0.5 * (x_jac + 1.0)          # Gauss-Jacobi with weight (1 - v) on [0, 1]
    b = 0.25 * w_jac
    uu, vv = np.meshgrid(u, v, indexing="ij")
    aa, bb = np.meshgrid(a, b, indexing="ij")
    points = np.stack([(uu * (1.0 - vv)).ravel(), vv.ravel()], axis=1)
    weights = (aa * bb).ravel()
    return QuadratureRule(points=points, weights=weights, degree=2 * m - 1)


def _mapped_rule(base: QuadratureRule, A: np.ndarray, B: np.ndarray,
                 C: np.ndarray) -> QuadratureRule:
    """Push the reference rule through affine maps onto triangles (A, B, C) of shape (c, T, 2).

    The reference corner (0, 1) -- where the conical rule clusters points --
    lands on C.  Every triangle must be positively oriented.
    """
    e1 = B - A
    e2 = C - A
    areas2 = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    if not np.all(areas2 > 0.0):
        raise GeometryError("empty or negatively oriented triangle in quadrature decomposition")
    # A + x e1 + y e2 with the points last (c, T, 2, k), so every step runs
    # along rows of k values; the reshape stores the coordinates last.
    pts = e1[..., None] * base.points[:, 0]
    pts += A[..., None]
    pts += e2[..., None] * base.points[:, 1]
    wts = areas2[:, :, None] * base.weights
    c = len(A)
    return QuadratureRule(points=np.swapaxes(pts, 2, 3).reshape(c, -1, 2),
                          weights=wts.reshape(c, -1), degree=base.degree)


def _single_or_batch(polygon: Polygon | PolygonBatch, rule: QuadratureRule) -> QuadratureRule:
    return rule[0] if isinstance(polygon, Polygon) else rule


def _rule_degrees(flat: np.ndarray, degree: int) -> np.ndarray:
    """Base-rule degree ``polygon_rule`` uses on each polygon of a batch, given
    which of them have a flat vertex (``PolygonBatch.flat``); checks ``degree``."""
    triangle_rule(degree)
    return np.where(flat, max(degree, MAX_DEGREE), degree)


def polygon_rule(polygon: Polygon | PolygonBatch, degree: int) -> QuadratureRule:
    """Rule on a convex polygon: centroid fan split at edge midpoints.

    Each boundary edge contributes two triangles (midpoint, centroid, vertex)
    carrying the conical rule with the polygon vertex at the collapsed
    corner, so points cluster where coordinate-based integrands are least
    smooth.  2n m^2 points for a degree-(2m-1) rule.

    Polygons with collinear (flat) vertices always use the top-order base
    rule: coordinate integrands are markedly rougher around a straight joint,
    and the extra points keep stiffness integrals near machine accuracy
    there.  The returned rule is exact at least to the requested degree
    either way.

    Given a ``PolygonBatch`` whose polygons share one layout (see
    ``rule_layouts``), the rule has points (c, m, 2) and weights (c, m).
    """
    batch = _as_batch(polygon)
    degrees = _rule_degrees(batch.flat, degree)
    if np.any(degrees != degrees[0]):
        raise GeometryError("polygons of one batch must all or none have a flat vertex")
    base = _triangle_rule(int(degrees[0]))
    v = batch.vertices
    nxt, _ = _neighbours(v.shape[1])
    centroids = np.broadcast_to(batch.centroids[:, None, :], v.shape)
    mid = 0.5 * (v + v[:, nxt])
    A = np.concatenate([mid, centroids], axis=1)
    B = np.concatenate([centroids, mid], axis=1)
    C = np.concatenate([v, v[:, nxt]], axis=1)
    return _single_or_batch(polygon, _mapped_rule(base, A, B, C))


def fan_rule(polygon: Polygon | PolygonBatch, degree: int) -> QuadratureRule:
    """Rule on a convex polygon fanning from its apex (``fan_apex``).

    The fan is the one triangulation-kind coordinates use, whose basis
    functions are polynomial on each fan triangle, and none of its n - 2
    triangles is empty.  Raises ``GeometryError`` on a polygon without such
    a fan.

    Given a ``PolygonBatch``, each polygon fans from its own apex and the
    rule has points (c, m, 2) and weights (c, m).
    """
    base = triangle_rule(degree)
    batch = _as_batch(polygon)
    fans = _fans(batch)
    rows = np.arange(len(batch))[:, None]
    A, B, C = (batch.vertices[rows, fans[..., k]] for k in range(3))
    return _single_or_batch(polygon, _mapped_rule(base, A, B, C))


def rule_layouts(batch: PolygonBatch, degree: int,
                 fan: bool = False) -> list[tuple[np.ndarray, int]]:
    """Rows of a batch grouped by the point layout of their rules, with the points per polygon.

    The rules of one group stack into one batch.  ``polygon_rule`` layouts
    differ by the raised degree at flat vertices, read from ``batch.flat``;
    ``fan_rule`` layouts (``fan=True``) do not differ: every fan has n - 2
    triangles.
    """
    if fan:
        return [(np.arange(len(batch)), (batch.n - 2) * len(triangle_rule(degree)))]
    degrees = _rule_degrees(batch.flat, degree)
    return [(np.flatnonzero(degrees == d), 2 * batch.n * len(_triangle_rule(d)))
            for d in np.unique(degrees).tolist()]
