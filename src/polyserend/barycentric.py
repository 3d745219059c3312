"""Generalized barycentric coordinates on convex polygons.

Three classical constructions are provided, all with analytic gradients:

* Wachspress coordinates: rational weights built from triangle areas,
  ``w_i = A(v_{i-1}, v_i, v_{i+1}) / (A(x, v_{i-1}, v_i) * A(x, v_i, v_{i+1}))``.
* Mean value coordinates: ``w_i = (tan(a_{i-1}/2) + tan(a_i/2)) / |v_i - x|``
  where ``a_i`` is the angle subtended at x by edge (v_i, v_{i+1}).
* Piecewise-linear coordinates over a fan triangulation of the polygon.

Every kind satisfies non-negativity, partition of unity, linear precision
(``sum_i v_i L_i(x) = x``), interpolation at the vertices, and piecewise
linearity along the boundary; values and gradients are invariant under
translation, rotation and uniform scaling of the polygon.

Evaluation is only defined strictly inside the polygon (the rational
constructions are singular on the boundary); boundary values are provided
separately through the exact piecewise-linear trace.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

from .geometry import GeometryError, Polygon

__all__ = [
    "fan_apex",
    "CoordinateKind",
    "BoundaryEvaluationError",
    "DEFAULT_BOUNDARY_EPS",
    "eval_coords_batch",
    "eval_boundary",
    "pair_order",
    "pairwise_batch",
]

# Points closer than this (times the polygon diameter) to an edge are rejected.
DEFAULT_BOUNDARY_EPS = 1e-10


class CoordinateKind(str, Enum):
    WACHSPRESS = "wachspress"
    MEAN_VALUE = "meanvalue"
    TRIANGULATION = "triangulation"


class BoundaryEvaluationError(GeometryError):
    """Interior-only evaluation was requested on or outside the boundary."""


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _edge_rotations(verts: np.ndarray) -> np.ndarray:
    """Constant gradient of the area A(x, v_i, v_{i+1}) with respect to x."""
    nxt = np.roll(verts, -1, axis=0)
    return 0.5 * np.stack([verts[:, 1] - nxt[:, 1], nxt[:, 0] - verts[:, 0]], axis=1)


def _wachspress(verts: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = verts[None, :, :] - pts[:, None, :]          # (m, n, 2)
    dn = np.roll(d, -1, axis=1)
    area = 0.5 * _cross(d, dn)                       # A(x, v_i, v_{i+1}) > 0 inside
    area_prev = np.roll(area, 1, axis=1)
    prv = np.roll(verts, 1, axis=0)
    nxt = np.roll(verts, -1, axis=0)
    corner = 0.5 * _cross(verts - prv, nxt - verts)  # A(v_{i-1}, v_i, v_{i+1}); 0 at flat vertices
    grad_area = _edge_rotations(verts)               # (n, 2)
    grad_prev = np.roll(grad_area, 1, axis=0)
    w = corner[None, :] / (area_prev * area)
    ratio = grad_prev[None] / area_prev[..., None] + grad_area[None] / area[..., None]
    total = np.sum(w, axis=1, keepdims=True)
    lam = w / total
    mean_ratio = np.sum(lam[..., None] * ratio, axis=1, keepdims=True)
    grads = lam[..., None] * (mean_ratio - ratio)
    return lam, grads


def _mean_value(verts: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = verts[None, :, :] - pts[:, None, :]
    r = np.hypot(d[..., 0], d[..., 1])
    dn = np.roll(d, -1, axis=1)
    rn = np.roll(r, -1, axis=1)
    crs = _cross(d, dn)                      # 2 * A(x, v_i, v_{i+1}) > 0 inside
    dot = np.einsum("mnd,mnd->mn", d, dn)
    t = (r * rn - dot) / crs                 # tan of half the subtended angle
    grad_crs = 2.0 * _edge_rotations(verts)  # constant in x
    grad_dot = -(d + dn)
    grad_rr = -(rn / r)[..., None] * d - (r / rn)[..., None] * dn
    grad_t = (grad_rr - grad_dot - t[..., None] * grad_crs[None]) / crs[..., None]
    t_prev = np.roll(t, 1, axis=1)
    grad_t_prev = np.roll(grad_t, 1, axis=1)
    w = (t_prev + t) / r
    grad_w = (grad_t_prev + grad_t) / r[..., None] + (w / (r * r))[..., None] * d
    total = np.sum(w, axis=1, keepdims=True)
    lam = w / total
    grads = (grad_w - lam[..., None] * np.sum(grad_w, axis=1, keepdims=True)) / total[..., None]
    return lam, grads


@lru_cache(maxsize=None)
def _fan_triangles(n: int, apex: int) -> np.ndarray:
    idx = [(apex, (apex + j) % n, (apex + j + 1) % n) for j in range(1, n - 1)]
    return np.array(idx, dtype=int)


def fan_apex(polygon: Polygon) -> int:
    """First vertex whose fan contains no degenerate triangle.

    For strictly convex polygons this is always vertex 0; flat vertices can
    make some fans degenerate, in which case the apex advances deterministically.
    """
    verts = polygon.vertices
    n = polygon.n
    floor = 1e-12 * polygon.diameter ** 2
    for apex in range(n):
        tri = verts[_fan_triangles(n, apex)]
        areas = 0.5 * _cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        if np.all(areas > floor):
            return apex
    raise GeometryError("no valid fan triangulation; polygon is degenerate")


def _triangulation(polygon: Polygon, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    verts = polygon.vertices
    n = polygon.n
    m = len(pts)
    tris = _fan_triangles(n, fan_apex(polygon))
    p, q, s = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    area2 = _cross(q - p, s - p)                              # (T,)
    # Barycentric coordinates of every point in every fan triangle.
    x = pts[:, None, :]
    b0 = _cross(q[None] - x, s[None] - x) / area2[None]
    b1 = _cross(s[None] - x, p[None] - x) / area2[None]
    b2 = _cross(p[None] - x, q[None] - x) / area2[None]
    bary = np.stack([b0, b1, b2], axis=-1)                    # (m, T, 3)
    inside = np.all(bary >= -1e-12, axis=-1)
    # Points on interior fan edges belong to the lowest-index triangle.
    tsel = np.argmax(inside, axis=1)
    missed = ~inside[np.arange(m), tsel]
    if np.any(missed):
        tsel[missed] = np.argmax(np.min(bary[missed], axis=-1), axis=1)
    # Constant gradients of the three linear shape functions per triangle.
    g0 = 0.5 * np.stack([q[:, 1] - s[:, 1], s[:, 0] - q[:, 0]], axis=1)
    g1 = 0.5 * np.stack([s[:, 1] - p[:, 1], p[:, 0] - s[:, 0]], axis=1)
    g2 = 0.5 * np.stack([p[:, 1] - q[:, 1], q[:, 0] - p[:, 0]], axis=1)
    gall = np.stack([g0, g1, g2], axis=1) / (0.5 * area2)[:, None, None]
    rows = np.repeat(np.arange(m), 3)
    cols = tris[tsel].ravel()
    lam = np.zeros((m, n))
    lam[rows, cols] = bary[np.arange(m), tsel].ravel()
    grads = np.zeros((m, n, 2))
    grads[rows, cols] = gall[tsel].reshape(-1, 2)
    return lam, grads


_DISPATCH = {
    CoordinateKind.WACHSPRESS: _wachspress,
    CoordinateKind.MEAN_VALUE: _mean_value,
}


def eval_coords_batch(
    polygon: Polygon,
    kind: CoordinateKind | str,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate values (m, n) and gradients (m, n, 2) at interior points (m, 2)."""
    kind = CoordinateKind(kind)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError("points must have shape (m, 2)")
    eps = DEFAULT_BOUNDARY_EPS * polygon.diameter
    closest = np.min(polygon.edge_distances(pts), axis=1)
    # Negated so that non-finite points (NaN distances) are rejected too.
    if not np.all(closest > eps):
        bad = pts[int(np.argmin(closest))]
        raise BoundaryEvaluationError(
            f"point ({bad[0]:.6g}, {bad[1]:.6g}) is not strictly inside the polygon "
            f"(closest edge distance {float(np.min(closest)):.3e}, required > {eps:.3e})"
        )
    if kind is CoordinateKind.TRIANGULATION:
        return _triangulation(polygon, pts)
    return _DISPATCH[kind](polygon.vertices, pts)


def eval_boundary(polygon: Polygon, edges: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Exact boundary trace (m, n) on edges (v_e, v_e+1) at parameters t in [0, 1].

    ``edges`` and ``ts`` broadcast against each other to m points.  Along the
    boundary every coordinate kind reduces to the same piecewise linear hat
    functions, so this path is kind-independent and avoids the singular
    rational formulas.
    """
    n = polygon.n
    edges, ts = np.broadcast_arrays(np.asarray(edges, dtype=int) % n, np.asarray(ts, float))
    edges, ts = edges.ravel(), ts.ravel()
    outside = ~((ts >= 0.0) & (ts <= 1.0))
    if np.any(outside):
        raise GeometryError(f"edge parameter t={ts[outside][0]} outside [0, 1]")
    rows = np.arange(len(ts))
    values = np.zeros((len(ts), n))
    values[rows, edges] = 1.0 - ts
    values[rows, (edges + 1) % n] = ts
    return values


@lru_cache(maxsize=None)
def pair_order(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical ordering of unordered coordinate pairs.

    Vertex squares (0,0)..(n-1,n-1), then edge pairs (i, i+1 mod n), then
    strict diagonal pairs lexicographically; n(n+1)/2 pairs in total.
    """
    if n < 3:
        raise GeometryError("pair ordering requires n >= 3")
    squares = [(i, i) for i in range(n)]
    edges = [(i, (i + 1) % n) for i in range(n)]
    diagonals = [
        (a, b)
        for a in range(n)
        for b in range(a + 2, n)
        if not (a == 0 and b == n - 1)
    ]
    return tuple(squares + edges + diagonals)


@lru_cache(maxsize=None)
def _pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = pair_order(n)
    ia = np.array([p[0] for p in pairs], dtype=int)
    ib = np.array([p[1] for p in pairs], dtype=int)
    return ia, ib


def pairwise_batch(values: np.ndarray, gradients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Products (m, n(n+1)/2) and their gradients, ordered as ``pair_order(n)``.

    Weighted sums of the products recover 1, x and x x^T exactly (partition,
    midpoint and second-moment identities), which is the property the
    serendipity reduction preserves.
    """
    ia, ib = _pair_arrays(values.shape[1])
    mu = values[:, ia] * values[:, ib]
    dmu = values[:, ia, None] * gradients[:, ib, :] + values[:, ib, None] * gradients[:, ia, :]
    return mu, dmu
