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
from typing import Sequence

import numpy as np

from .geometry import GeometryError, Polygon, _neighbours, polygon_batch

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
    """Constant gradient (c, 2, n, 1) of the area A(x, v_i, v_{i+1}) with respect to x."""
    nxt = verts[:, _neighbours(verts.shape[1])[0]]
    rot = 0.5 * np.stack([verts[..., 1] - nxt[..., 1], nxt[..., 0] - verts[..., 0]], axis=1)
    return rot[..., None]


# The kernels below take vertices (c, n, 2) and points (c, m, 2) and return
# values (c, n, m) and gradients (c, 2, n, m).  With the points last, every
# elementwise step, every shift to a neighbouring vertex and every sum over
# vertices runs along rows of m contiguous values.


def _offsets(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Vertex offsets v_i - x, (c, 2, n, m)."""
    return np.swapaxes(verts, 1, 2)[..., None] - np.swapaxes(pts, 1, 2)[:, :, None, :]


def _wachspress(verts: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nxt, prv = _neighbours(verts.shape[1])
    d = _offsets(verts, pts)
    dn = d[:, :, nxt]
    area = 0.5 * (d[:, 0] * dn[:, 1] - d[:, 1] * dn[:, 0])  # A(x, v_i, v_{i+1}) > 0 inside
    area_prev = area[:, prv]
    corner = 0.5 * _cross(verts - verts[:, prv], verts[:, nxt] - verts)  # 0 at flat vertices
    grad_area = _edge_rotations(verts)
    w = corner[..., None] / (area_prev * area)
    ratio = grad_area[:, :, prv] / area_prev[:, None] + grad_area / area[:, None]
    lam = w / np.sum(w, axis=1, keepdims=True)
    mean_ratio = np.sum(lam[:, None] * ratio, axis=2, keepdims=True)
    grads = lam[:, None] * (mean_ratio - ratio)
    return lam, grads


def _mean_value(verts: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nxt, prv = _neighbours(verts.shape[1])
    d = _offsets(verts, pts)
    dn = d[:, :, nxt]
    r = np.hypot(d[:, 0], d[:, 1])
    rn = r[:, nxt]
    crs = d[:, 0] * dn[:, 1] - d[:, 1] * dn[:, 0]  # 2 A(x, v_i, v_{i+1}) > 0 inside
    dot = d[:, 0] * dn[:, 0] + d[:, 1] * dn[:, 1]
    t = (r * rn - dot) / crs                       # tan of half the subtended angle
    grad_crs = 2.0 * _edge_rotations(verts)        # constant in x
    grad_dot = -(d + dn)
    grad_rr = -(rn / r)[:, None] * d - (r / rn)[:, None] * dn
    grad_t = (grad_rr - grad_dot - t[:, None] * grad_crs) / crs[:, None]
    w = (t[:, prv] + t) / r
    grad_w = (grad_t[:, :, prv] + grad_t) / r[:, None] + (w / (r * r))[:, None] * d
    total = np.sum(w, axis=1, keepdims=True)
    lam = w / total
    grads = (grad_w - lam[:, None] * np.sum(grad_w, axis=2, keepdims=True)) / total[:, None]
    return lam, grads


@lru_cache(maxsize=None)
def _fan_triangles(n: int, apex: int) -> np.ndarray:
    idx = [(apex, (apex + j) % n, (apex + j + 1) % n) for j in range(1, n - 1)]
    return np.array(idx, dtype=int)


def _fan_apices(verts: np.ndarray, diameters: np.ndarray) -> np.ndarray:
    """``fan_apex`` of every polygon of a batch."""
    n = verts.shape[1]
    floor = 1e-12 * diameters ** 2
    apex = np.full(len(verts), -1)
    for candidate in range(n):
        todo = np.flatnonzero(apex < 0)
        if not todo.size:
            break
        tri = verts[todo][:, _fan_triangles(n, candidate)]       # (k, n - 2, 3, 2)
        areas = 0.5 * _cross(tri[:, :, 1] - tri[:, :, 0], tri[:, :, 2] - tri[:, :, 0])
        apex[todo[np.all(areas > floor[todo, None], axis=1)]] = candidate
    if np.any(apex < 0):
        raise GeometryError("no valid fan triangulation; polygon is degenerate")
    return apex


def fan_apex(polygon: Polygon | Sequence[Polygon]) -> int | np.ndarray:
    """First vertex whose fan contains no degenerate triangle.

    For strictly convex polygons this is always vertex 0; flat vertices can
    make some fans degenerate, in which case the apex advances deterministically.
    A batch of polygons gets one apex each.
    """
    _, verts, diameters = polygon_batch(polygon)
    apex = _fan_apices(verts, diameters)
    return int(apex[0]) if isinstance(polygon, Polygon) else apex


def _triangulation(
    verts: np.ndarray, diameters: np.ndarray, pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    c, n, _ = verts.shape
    m = pts.shape[1]
    tris = (_fan_triangles(n, 0) + _fan_apices(verts, diameters)[:, None, None]) % n
    rows = np.arange(c)[:, None]
    p, q, s = (verts[rows, tris[..., k]] for k in range(3))  # (c, T, 2)
    area2 = _cross(q - p, s - p)                              # (c, T)
    # Constant gradients of the three linear shape functions per triangle.
    g0 = 0.5 * np.stack([q[..., 1] - s[..., 1], s[..., 0] - q[..., 0]], axis=-1)
    g1 = 0.5 * np.stack([s[..., 1] - p[..., 1], p[..., 0] - s[..., 0]], axis=-1)
    g2 = 0.5 * np.stack([p[..., 1] - q[..., 1], q[..., 0] - p[..., 0]], axis=-1)
    gall = np.stack([g0, g1, g2], axis=-1) / (0.5 * area2)[..., None, None]  # (c, T, 2, 3)
    # Barycentric coordinates of every point in every fan triangle.
    x = pts[:, :, None, :]
    p, q, s, area2 = p[:, None], q[:, None], s[:, None], area2[:, None]
    b0 = _cross(q - x, s - x) / area2
    b1 = _cross(s - x, p - x) / area2
    b2 = _cross(p - x, q - x) / area2
    bary = np.stack([b0, b1, b2], axis=-1)                    # (c, m, T, 3)
    inside = np.all(bary >= -1e-12, axis=-1)
    # Points on interior fan edges belong to the lowest-index triangle; a
    # point in none (round-off) to the triangle it is least outside of.
    tsel = np.where(np.any(inside, axis=-1), np.argmax(inside, axis=-1),
                    np.argmax(np.min(bary, axis=-1), axis=-1))  # (c, m)
    cols = np.swapaxes(tris[rows, tsel], 1, 2)                # (c, 3, m)
    picked = np.take_along_axis(bary, tsel[..., None, None], axis=2)[:, :, 0]
    lam = np.zeros((c, n, m))
    np.put_along_axis(lam, cols, np.swapaxes(picked, 1, 2), axis=1)
    grads = np.zeros((c, 2, n, m))
    np.put_along_axis(grads, np.broadcast_to(cols[:, None], (c, 2, 3, m)),
                      np.moveaxis(gall[rows, tsel], 1, 3), axis=2)
    return lam, grads


_DISPATCH = {
    CoordinateKind.WACHSPRESS: _wachspress,
    CoordinateKind.MEAN_VALUE: _mean_value,
}


def _reject_boundary_points(polys: tuple[Polygon, ...], verts: np.ndarray,
                            diameters: np.ndarray, pts: np.ndarray) -> None:
    """Raise unless every point (c, m, 2) lies strictly inside its polygon."""
    finite = np.all(np.isfinite(pts), axis=-1)
    if not np.all(finite):
        bad = pts[~finite][0]
        raise BoundaryEvaluationError(
            f"point ({bad[0]:.6g}, {bad[1]:.6g}) is not strictly inside the polygon "
            "(non-finite coordinate)"
        )
    normals = np.stack([p.inward_normals for p in polys])     # (c, n, 2)
    offsets = np.einsum("cnd,cnd->cn", normals, verts)
    dist = normals @ np.swapaxes(pts, 1, 2) - offsets[..., None]  # (c, n, m)
    closest = np.min(dist, axis=1)
    eps = DEFAULT_BOUNDARY_EPS * diameters[:, None]
    if not np.all(closest > eps):
        cell, point = np.unravel_index(np.argmin(closest - eps), closest.shape)
        bad = pts[cell, point]
        raise BoundaryEvaluationError(
            f"point ({bad[0]:.6g}, {bad[1]:.6g}) is not strictly inside the polygon "
            f"(closest edge distance {closest[cell, point]:.3e}, "
            f"required > {eps[cell, 0]:.3e})"
        )


def eval_coords_batch(
    polygon: Polygon | Sequence[Polygon],
    kind: CoordinateKind | str,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate values (m, n) and gradients (m, n, 2) at interior points (m, 2).

    Given a batch of c polygons that share a vertex count, ``points`` is
    (c, m, 2), one row of points per polygon, and the results gain a leading
    axis: values (c, m, n) and gradients (c, m, n, 2).
    """
    kind = CoordinateKind(kind)
    polys, verts, diameters = polygon_batch(polygon)
    pts = np.asarray(points, dtype=float)
    if isinstance(polygon, Polygon):
        pts = np.atleast_2d(pts)[None]
    if pts.ndim != 3 or pts.shape[0] != len(polys) or pts.shape[2] != 2:
        raise GeometryError("points must have shape (m, 2), or (c, m, 2) for c polygons")
    _reject_boundary_points(polys, verts, diameters, pts)
    if kind is CoordinateKind.TRIANGULATION:
        lam, grads = _triangulation(verts, diameters, pts)
    else:
        lam, grads = _DISPATCH[kind](verts, pts)
    # Views of the points-last arrays, which pairwise_batch takes back.
    lam, grads = np.swapaxes(lam, 1, 2), np.swapaxes(grads, 1, 3)
    return (lam[0], grads[0]) if isinstance(polygon, Polygon) else (lam, grads)


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
    """Products (..., m, n(n+1)/2) and gradients (..., m, n(n+1)/2, 2), in ``pair_order(n)``.

    ``values`` (..., m, n) and ``gradients`` (..., m, n, 2) at m points may
    carry any leading axes, such as one per polygon.  Weighted sums of the
    products recover 1, x and x x^T exactly (partition, midpoint and
    second-moment identities), which is the property the serendipity
    reduction preserves.
    """
    ia, ib = _pair_arrays(values.shape[-1])
    # Points-last views (..., n, m) and (..., 2, n, m); the results are views
    # of points-last arrays too (see eval_coords_batch).
    v = np.swapaxes(values, -1, -2)
    g = np.swapaxes(gradients, -1, -3)
    va, vb = v[..., ia, :], v[..., ib, :]
    mu = va * vb
    dmu = va[..., None, :, :] * g[..., ib, :] + vb[..., None, :, :] * g[..., ia, :]
    return np.swapaxes(mu, -1, -2), np.swapaxes(dmu, -1, -3)
