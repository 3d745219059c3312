"""Numerical integration on triangles and convex polygons.

Triangle rules come from a conical (Duffy-style) product of a Gauss-Legendre
rule in one direction and a Gauss-Jacobi rule (weight 1 - x) in the other,
which absorbs the Jacobian of the square-to-triangle collapse exactly.  The
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

``fan_rule`` instead fans from a chosen vertex; aligned with the fan used by
triangulation-kind coordinates it integrates their piecewise-polynomial
integrands exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .geometry import GeometryError, Polygon, _neighbours, polygon_batch

__all__ = [
    "QuadratureRule",
    "MAX_DEGREE",
    "triangle_rule",
    "polygon_rule",
    "fan_rule",
    "rule_layouts",
    "integrate",
]

MAX_DEGREE = 20


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Points (m, 2) and weights (m,) exact for polynomials up to ``degree``.

    A rule for a batch of c polygons has points (c, m, 2) and weights (c, m);
    its length is the total point count.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self) -> None:
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return self.weights.size


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadratureRule:
    """Rule on the reference triangle (0,0), (1,0), (0,1) exact to ``degree``."""
    if not 1 <= degree <= MAX_DEGREE:
        raise GeometryError(f"quadrature degree must be in [1, {MAX_DEGREE}], got {degree}")
    m = (degree + 2) // 2
    x_leg, w_leg = roots_legendre(m)
    x_jac, w_jac = roots_jacobi(m, 1.0, 0.0)
    u = 0.5 * (x_leg + 1.0)          # Gauss-Legendre on [0, 1]
    a = 0.5 * w_leg
    v = 0.5 * (x_jac + 1.0)          # Gauss-Jacobi with weight (1 - v) on [0, 1]
    b = 0.25 * w_jac
    uu, vv = np.meshgrid(u, v, indexing="ij")
    aa, bb = np.meshgrid(a, b, indexing="ij")
    points = np.stack([(uu * (1.0 - vv)).ravel(), vv.ravel()], axis=1)
    weights = (aa * bb).ravel()
    return QuadratureRule(points=points, weights=weights, degree=2 * m - 1)


def _mapped_rule(base: QuadratureRule, A: np.ndarray, B: np.ndarray, C: np.ndarray,
                 keep_tol: np.ndarray | float = 0.0) -> QuadratureRule:
    """Push the reference rule through affine maps onto triangles (A, B, C) of shape (c, T, 2).

    The reference corner (0, 1) -- where the conical rule clusters points --
    lands on C.  Triangles with doubled area <= keep_tol (c, 1) are dropped;
    every polygon of the batch must drop the same ones.
    """
    e1 = B - A
    e2 = C - A
    areas2 = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    if np.any(areas2 < -keep_tol):
        raise GeometryError("negatively oriented triangle in quadrature decomposition")
    keep = areas2 > keep_tol
    if np.any(keep != keep[0]):
        raise GeometryError("polygons of one batch drop different empty triangles")
    if not np.all(keep):
        A, e1, e2, areas2 = A[:, keep[0]], e1[:, keep[0]], e2[:, keep[0]], areas2[:, keep[0]]
    x = base.points[:, 0, None]
    y = base.points[:, 1, None]
    pts = A[:, :, None, :] + x * e1[:, :, None, :] + y * e2[:, :, None, :]
    wts = areas2[:, :, None] * base.weights
    c = len(A)
    return QuadratureRule(points=pts.reshape(c, -1, 2), weights=wts.reshape(c, -1),
                          degree=base.degree)


def _single_or_batch(polygon: Polygon | Sequence[Polygon], rule: QuadratureRule) -> QuadratureRule:
    if not isinstance(polygon, Polygon):
        return rule
    return QuadratureRule(points=rule.points[0], weights=rule.weights[0], degree=rule.degree)


def _rule_degrees(verts: np.ndarray, diameters: np.ndarray, degree: int) -> np.ndarray:
    """Base-rule degree ``polygon_rule`` uses on each polygon of a batch."""
    nxt, prv = _neighbours(verts.shape[1])
    into = verts - verts[:, prv]
    out = verts[:, nxt] - verts
    turn = into[..., 0] * out[..., 1] - into[..., 1] * out[..., 0]
    flat = np.any(np.abs(turn) <= 1e-12 * diameters[:, None] ** 2, axis=1)
    return np.where(flat, max(degree, MAX_DEGREE), degree)


def polygon_rule(polygon: Polygon | Sequence[Polygon], degree: int) -> QuadratureRule:
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

    Given a batch of polygons that share one layout (see ``rule_layouts``),
    the rule has points (c, m, 2) and weights (c, m).
    """
    polys, v, diameters = polygon_batch(polygon)
    degrees = _rule_degrees(v, diameters, degree)
    if np.any(degrees != degrees[0]):
        raise GeometryError("polygons of one batch must all or none have a flat vertex")
    base = triangle_rule(int(degrees[0]))
    nxt, _ = _neighbours(v.shape[1])
    centroids = np.broadcast_to(np.array([p.centroid for p in polys])[:, None, :], v.shape)
    mid = 0.5 * (v + v[:, nxt])
    A = np.concatenate([mid, centroids], axis=1)
    B = np.concatenate([centroids, mid], axis=1)
    C = np.concatenate([v, v[:, nxt]], axis=1)
    return _single_or_batch(polygon, _mapped_rule(base, A, B, C))


def fan_rule(polygon: Polygon | Sequence[Polygon], degree: int,
             apex: int | np.ndarray = 0) -> QuadratureRule:
    """Rule on a convex polygon fanning from the vertex ``apex``.

    Matches the decomposition used by triangulation-kind coordinates, whose
    basis functions are polynomial on each fan triangle; zero-area fan
    triangles at collinear vertices carry no measure and are skipped.

    Given a batch of polygons, ``apex`` may give one vertex per polygon and
    the rule has points (c, m, 2) and weights (c, m).
    """
    base = triangle_rule(degree)
    _, v, diameters = polygon_batch(polygon)
    c, n, _ = v.shape
    apex = np.broadcast_to(np.asarray(apex) % n, (c,))
    others = np.sort((apex[:, None] + np.arange(1, n - 1)) % n, axis=1)
    rows = np.arange(c)[:, None]
    A = np.broadcast_to(v[np.arange(c), apex][:, None, :], (c, n - 2, 2))
    B = v[rows, others]
    C = v[rows, (others + 1) % n]
    rule = _mapped_rule(base, A, B, C, keep_tol=1e-14 * diameters[:, None] ** 2)
    return _single_or_batch(polygon, rule)


def rule_layouts(polygons: Sequence[Polygon], degree: int,
                 fan: bool = False) -> list[tuple[np.ndarray, int]]:
    """Polygon indices grouped by the point layout of their rules, with the points per polygon.

    The rules of one group stack into one batch.  ``polygon_rule`` layouts
    differ by vertex count and by the raised degree at flat vertices;
    ``fan_rule`` layouts (``fan=True``) by vertex count, for fans that drop
    no triangle, as the fans of ``fan_apex`` do.
    """
    counts = np.array([p.n for p in polygons])
    groups = []
    for n in np.unique(counts).tolist():
        cells = np.flatnonzero(counts == n)
        if fan:
            groups.append((cells, (n - 2) * len(triangle_rule(degree))))
            continue
        _, verts, diameters = polygon_batch([polygons[i] for i in cells])
        degrees = _rule_degrees(verts, diameters, degree)
        for d in np.unique(degrees).tolist():
            groups.append((cells[degrees == d], 2 * n * len(triangle_rule(d))))
    return groups


def integrate(rule: QuadratureRule, f) -> float:
    """Integrate a callable f(points) -> (m,) against the rule."""
    return float(np.dot(rule.weights, np.asarray(f(rule.points), dtype=float)))
