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

from .geometry import (GeometryError, Polygon, PolygonBatch, _as_array, _as_batch, _cross, _fans,
                       _flat_vertices, _neighbours)

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


def _edge_rotations(verts: np.ndarray) -> np.ndarray:
    """Constant gradient (c, 2, n, 1) of the area A(x, v_i, v_{i+1}) with respect to x."""
    nxt = verts[:, _neighbours(verts.shape[1])[0]]
    rot = 0.5 * np.stack([verts[..., 1] - nxt[..., 1], nxt[..., 0] - verts[..., 0]], axis=1)
    return rot[..., None]


# The kernels below take vertices (c, n, 2) and points (c, m, 2) and return
# values (c, n, m) and gradients (c, 2, n, m).  With the points last, every
# elementwise step and every sum over vertices runs along rows of m
# contiguous values.  A quantity needed at vertex i and at its neighbour
# i + 1 (or i - 1) is computed once on n + 1 rows, the extra row repeating
# the first (or last) one, and both are slices of it: no neighbour is a
# gathered copy.


def _offsets(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Vertex offsets v_i - x, (c, 2, n + 1, m); row n repeats row 0, so rows
    ``:n`` are the offsets of v_i and rows ``1:`` those of v_{i+1}."""
    closed = np.concatenate([verts, verts[:, :1]], axis=1)
    # Contiguous point rows: a broadcast subtraction from strided ones is 4x slower.
    coords = np.ascontiguousarray(np.swapaxes(pts, 1, 2))
    return np.swapaxes(closed, 1, 2)[..., None] - coords[:, :, None, :]


def _edge_rows(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Storage (rows, prev, cur) for a per-edge quantity of ``shape`` (..., n, m), with n + 1 rows.

    Fill ``cur`` (rows ``1:``) with the value of edge (v_i, v_{i+1}) at row i
    and copy row n to row 0: then ``prev`` (rows ``:n``) holds the value of
    edge (v_{i-1}, v_i) at row i.
    """
    rows = np.empty(shape[:-2] + (shape[-2] + 1, shape[-1]))
    return rows, rows[..., :-1, :], rows[..., 1:, :]


def _wachspress(verts: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c, n, _ = verts.shape
    nxt, prv = _neighbours(n)
    offsets = _offsets(verts, pts)
    d, dn = offsets[:, :, :n], offsets[:, :, 1:]
    rows, area_prev, area = _edge_rows((c, n, pts.shape[1]))
    np.multiply(d[:, 0], dn[:, 1], out=area)
    area -= d[:, 1] * dn[:, 0]
    area *= 0.5                                    # A(x, v_i, v_{i+1}) > 0 inside
    rows[:, 0] = rows[:, n]
    corner = 0.5 * _cross(verts - verts[:, prv], verts[:, nxt] - verts)  # 0 at flat vertices
    grad_area = _edge_rotations(verts)
    w = corner[..., None] / (area_prev * area)
    ratio = grad_area[:, :, prv] / area_prev[:, None]
    ratio += grad_area / area[:, None]
    lam = w / np.sum(w, axis=1, keepdims=True)
    mean_ratio = np.sum(lam[:, None] * ratio, axis=2, keepdims=True)
    grads = np.subtract(mean_ratio, ratio, out=ratio)
    grads *= lam[:, None]
    return lam, grads


def _mean_value(verts: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c, n, _ = verts.shape
    m = pts.shape[1]
    offsets = _offsets(verts, pts)
    d, dn = offsets[:, :, :n], offsets[:, :, 1:]
    radii = np.empty((c, n + 1, m))
    r, rn = radii[:, :n], radii[:, 1:]
    np.hypot(d[:, 0], d[:, 1], out=r)
    radii[:, n] = radii[:, 0]
    crs = d[:, 0] * dn[:, 1] - d[:, 1] * dn[:, 0]  # 2 A(x, v_i, v_{i+1}) > 0 inside
    dot = d[:, 0] * dn[:, 0] + d[:, 1] * dn[:, 1]
    t_rows, t_prev, t = _edge_rows((c, n, m))
    np.divide(r * rn - dot, crs, out=t)            # tan of half the subtended angle
    t_rows[:, 0] = t_rows[:, n]
    grad_crs = 2.0 * _edge_rotations(verts)        # constant in x
    grad_rr = -(rn / r)[:, None] * d
    grad_rr -= (r / rn)[:, None] * dn
    grad_rr += d + dn                              # minus the gradient of dot, -(d + dn)
    grad_rr -= t[:, None] * grad_crs
    grad_t_rows, grad_t_prev, grad_t = _edge_rows((c, 2, n, m))
    np.divide(grad_rr, crs[:, None], out=grad_t)
    grad_t_rows[:, :, 0] = grad_t_rows[:, :, n]
    w = np.add(t_prev, t)
    w /= r
    grad_w = np.add(grad_t_prev, grad_t)
    grad_w /= r[:, None]
    grad_w += (w / (r * r))[:, None] * d
    total = np.sum(w, axis=1, keepdims=True)
    lam = np.divide(w, total, out=w)
    grad_w -= lam[:, None] * np.sum(grad_w, axis=2, keepdims=True)
    grad_w /= total[:, None]
    return lam, grad_w


def fan_apex(polygon: Polygon | PolygonBatch) -> int | np.ndarray:
    """First vertex whose fan contains no degenerate triangle.

    For strictly convex polygons this is always vertex 0; flat vertices can
    make some fans degenerate, in which case the apex advances deterministically.
    A ``PolygonBatch`` gets one apex each (``PolygonBatch.apices``).
    Raises GeometryError if no vertex gives such a fan.
    """
    apex = _fans(_as_batch(polygon))[:, 0, 0]
    return int(apex[0]) if isinstance(polygon, Polygon) else apex


def _triangulation(batch: PolygonBatch, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    verts = batch.vertices
    c, n, _ = verts.shape
    m = pts.shape[1]
    tris = _fans(batch)
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


def _reject_boundary_points(batch: PolygonBatch, pts: np.ndarray) -> None:
    """Raise unless every point (c, m, 2) lies strictly inside its polygon."""
    if not np.all(np.isfinite(pts)):
        bad = pts[~np.all(np.isfinite(pts), axis=-1)][0]
        raise BoundaryEvaluationError(
            f"point ({bad[0]:.6g}, {bad[1]:.6g}) is not strictly inside the polygon "
            "(non-finite coordinate)"
        )
    dist = batch.normals @ np.swapaxes(pts, 1, 2) - batch.offsets[..., None]  # (c, n, m)
    closest = np.min(dist, axis=1)
    eps = DEFAULT_BOUNDARY_EPS * batch.diameters[:, None]
    if not np.all(closest > eps):
        cell, point = np.unravel_index(np.argmin(closest - eps), closest.shape)
        bad = pts[cell, point]
        raise BoundaryEvaluationError(
            f"point ({bad[0]:.6g}, {bad[1]:.6g}) is not strictly inside the polygon "
            f"(closest edge distance {closest[cell, point]:.3e}, "
            f"required > {eps[cell, 0]:.3e})"
        )


def _refuse_flat(batch: PolygonBatch, k: int, name: str) -> None:
    """Raise the ``GeometryError`` of Wachspress coordinates on row k of
    ``batch``, which has a flat vertex, calling the polygon ``name``."""
    vertex = int(np.argmax(_flat_vertices(batch.vertices[k:k + 1], batch.diameters[k:k + 1])))
    raise GeometryError(f"{name} has a flat vertex (vertex {vertex}), whose Wachspress weight "
                        "is 0: use meanvalue or triangulation coordinates")


def eval_coords_batch(
    polygon: Polygon | PolygonBatch,
    kind: CoordinateKind | str,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate values (m, n) and gradients (m, n, 2) at interior points (m, 2).

    Given a ``PolygonBatch`` of c polygons, ``points`` is (c, m, 2), one row
    of points per polygon, and the results gain a leading axis: values
    (c, m, n) and gradients (c, m, n, 2).

    Wachspress coordinates raise ``GeometryError`` on a polygon with a flat
    vertex: the vertex's weight, its corner area, is 0, so its coordinate
    would vanish and the basis would not interpolate there.
    """
    kind = CoordinateKind(kind)
    batch = _as_batch(polygon)
    pts = _as_array(points, GeometryError, "points must be an array of numbers, got {entry!r}")
    if isinstance(polygon, Polygon):
        pts = np.atleast_2d(pts)[None]
    if pts.ndim != 3 or pts.shape[0] != len(batch) or pts.shape[2] != 2:
        raise GeometryError("points must have shape (m, 2), or (c, m, 2) for c polygons")
    if kind is CoordinateKind.WACHSPRESS and np.any(batch.flat):
        k = int(np.argmax(batch.flat))
        _refuse_flat(batch, k, "the polygon" if isinstance(polygon, Polygon) else f"polygon {k}")
    _reject_boundary_points(batch, pts)
    if kind is CoordinateKind.TRIANGULATION:
        lam, grads = _triangulation(batch, pts)
    else:
        lam, grads = _DISPATCH[kind](batch.vertices, pts)
    # Views of the points-last arrays, which pairwise_batch takes back.
    lam, grads = np.swapaxes(lam, 1, 2), np.swapaxes(grads, 1, 3)
    return (lam[0], grads[0]) if isinstance(polygon, Polygon) else (lam, grads)


def eval_boundary(polygon: Polygon, edges: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Exact boundary trace (m, n) on edges (v_e, v_e+1) at parameters t in [0, 1].

    ``edges`` and ``ts`` broadcast against each other to m points.  Along the
    boundary every coordinate kind reduces to the same piecewise linear hat
    functions, so this path is kind-independent and avoids the singular
    rational formulas.  An edge index that is not an integer, or a parameter
    that is not a number (a bool, a string), raises ``GeometryError``.
    """
    n = polygon.n
    edges = _as_array(edges, GeometryError, "expected integer edge indices, got {entry!r}", integer=True)
    ts = _as_array(ts, GeometryError, "edge parameters must be numbers, got {entry!r}")
    edges, ts = (array.ravel() for array in np.broadcast_arrays(edges % n, ts))
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
    if _as_array(n, GeometryError, "pair ordering requires an integer n, got {entry!r}",
                 integer=True).ndim or n < 3:
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


@lru_cache(maxsize=None)
def _pair_blocks(n: int) -> tuple[tuple[slice, slice, slice], ...]:
    """``pair_order(n)`` as blocks (pairs, a, b) of slices: pair ``pairs[k]`` is (a[k], b[k]),
    and a one-row ``a`` stands for every pair of its block."""
    blocks = [(slice(0, n), slice(0, n), slice(0, n)),                  # squares
              (slice(n, 2 * n - 1), slice(0, n - 1), slice(1, n)),      # edges (i, i + 1)
              (slice(2 * n - 1, 2 * n), slice(n - 1, n), slice(0, 1))]  # edge (n - 1, 0)
    row = 2 * n
    for a in range(n - 2):                                              # diagonals (a, a + 2...)
        lo, hi = a + 2, n - 1 if a == 0 else n
        blocks.append((slice(row, row + hi - lo), slice(a, a + 1), slice(lo, hi)))
        row += hi - lo
    return tuple(block for block in blocks if block[0].stop > block[0].start)


def pairwise_batch(values: np.ndarray, gradients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Products (..., m, n(n+1)/2) and gradients (..., m, n(n+1)/2, 2), in ``pair_order(n)``.

    ``values`` (..., m, n) and ``gradients`` (..., m, n, 2) at m points may
    carry any leading axes, such as one per polygon.  Weighted sums of the
    products recover 1, x and x x^T exactly (partition, midpoint and
    second-moment identities), which is the property the serendipity
    reduction preserves.

    The pairs come in a few runs whose first and second factors are each a
    slice of the vertices (``_pair_blocks``), so every block is written in
    place into the preallocated results by products of slices, with no
    gathered copy of the factors.
    """
    n = values.shape[-1]
    # Points-last views (..., n, m) and (..., 2, n, m); the results are views
    # of points-last arrays too (see eval_coords_batch).
    v = np.swapaxes(values, -1, -2)
    g = np.swapaxes(gradients, -1, -3)
    lead, m = v.shape[:-2], v.shape[-1]
    dtype = np.result_type(values, gradients)
    mu = np.empty(lead + (n * (n + 1) // 2, m), dtype)
    dmu = np.empty(lead + (2, n * (n + 1) // 2, m), dtype)
    for pairs, a, b in _pair_blocks(n):
        va, vb = v[..., a, :], v[..., b, :]
        np.multiply(va, vb, out=mu[..., pairs, :])
        block = dmu[..., pairs, :]
        np.multiply(va[..., None, :, :], g[..., b, :], out=block)
        block += vb[..., None, :, :] * g[..., a, :]
    return np.swapaxes(mu, -1, -2), np.swapaxes(dmu, -1, -3)
