"""Closed forms and reference formulas that the tests check the program against.

The unit square has a hand-checked A, a strictly convex quadrilateral has
a closed form per diagonal, and so does every regular n-gon; ``build_A``
computes none of them this way, so each is an independent reference.
``diagonal_column`` reads the per-diagonal quantities back from A.

``wachspress``, ``mean_value`` and ``pairwise`` are the coordinate and
product kernels written with gathered neighbour and pair indices; the
program's kernels take the same neighbours and pairs as slices and must
give bitwise the same values.  ``translation_classes`` classes a mesh's
cells one at a time with dictionaries, ``angles_and_closest_pair``
measures a polygon one vertex and one vertex pair at a time, and
``incircle`` solves for the circle of one edge triple at a time.

``cell_dofs`` and ``rule_layouts`` are per-cell and mixed-vertex-count
views that the program computes only per vertex-count group, and
``polygon_batch`` stacks ``Polygon`` objects of one vertex count into the
``PolygonBatch`` that the batched kernels take.

``basis_error_norms`` measures a solution's errors through the basis on
every chunk of the element kernel, the cells of a class reusing their
representative's; ``fem.error_norms`` forms no basis on a chunk whose
classes are single cells.

``jacobi_pcg`` is the Jacobi-preconditioned conjugate gradient loop written
with a fresh vector for every update and ``SparseMatrix.matvec`` for every
product; ``cg_solve`` updates its vectors in place and calls the CSR kernel
directly, and must give bitwise the same iterates.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from polyserend import (DofMap, Polygon, PolygonBatch, PolyMesh, SerendipityError, fan_apex,
                        pair_order)
from polyserend import fem, quadrature


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


def build_A_quadrilateral(polygon: Polygon) -> np.ndarray:
    """Closed-form reduction of a strictly convex quadrilateral; a test oracle.

    In the frame with the diagonal (a, a + 2) on the x axis the two other
    vertices straddle the axis.  The four edge coefficients are the convex
    weights with which the segment between them crosses the axis, and the
    crossing abscissa d (over the half diagonal) gives the vertex
    coefficients d - 1 and -d - 1.
    """
    if polygon.n != 4:
        raise SerendipityError("quadrilateral construction requires n = 4")
    v = polygon.vertices
    A = np.eye(8, 10)
    for col, a in ((8, 0), (9, 1)):
        b = a + 2
        half = 0.5 * float(np.hypot(*(v[b] - v[a])))
        ex, ey = (v[b] - v[a]) / (2.0 * half)
        q = (v - 0.5 * (v[a] + v[b])) @ np.array([[ex, ey], [-ey, ex]]).T
        below, above = q[a + 1], q[(a + 3) % 4]
        if not below[1] < 0.0 < above[1]:
            raise SerendipityError("quadrilateral is not strictly convex across its diagonal")
        w_below = above[1] / (above[1] - below[1])
        w_above = below[1] / (below[1] - above[1])
        d = (w_below * below[0] + w_above * above[0]) / half
        A[a, col], A[b, col] = d - 1.0, -d - 1.0
        A[4 + (a - 1) % 4, col], A[4 + a, col] = w_above, w_below
        A[4 + (b - 1) % 4, col], A[4 + b, col] = w_below, w_above
    return A


class DiagonalColumn(NamedTuple):
    """The column of one strict diagonal (a, b), a < b, and the paper's quantities in it."""

    vertex_a: float
    vertex_b: float
    edges: np.ndarray    # edges (a - 1, a), (a, a + 1), (b - 1, b), (b, b + 1)
    s: float             # both pairs of edge coefficients sum to s
    d_a: float           # the vertex coefficients are -s (1 + d)
    d_b: float


def diagonal_column(A: np.ndarray, n: int, a: int, b: int) -> DiagonalColumn:
    """Read the column of diagonal (a, b), a < b, from a reduction matrix A."""
    column = A[:, pair_order(n).index((a, b))]
    edges = column[[n + (a - 1) % n, n + a, n + (b - 1) % n, n + b]]
    s = float(edges[0] + edges[1])
    return DiagonalColumn(
        vertex_a=float(column[a]), vertex_b=float(column[b]), edges=edges, s=s,
        d_a=-float(column[a]) / s - 1.0, d_b=-float(column[b]) / s - 1.0,
    )


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


def _neighbours(n: int) -> tuple[np.ndarray, np.ndarray]:
    return (np.arange(n) + 1) % n, (np.arange(n) - 1) % n


def _edge_rotations(verts: np.ndarray) -> np.ndarray:
    nxt = verts[:, _neighbours(verts.shape[1])[0]]
    rot = 0.5 * np.stack([verts[..., 1] - nxt[..., 1], nxt[..., 0] - verts[..., 0]], axis=1)
    return rot[..., None]


def _offsets(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    return np.swapaxes(verts, 1, 2)[..., None] - np.swapaxes(pts, 1, 2)[:, :, None, :]


def wachspress(verts: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wachspress values (c, n, m) and gradients (c, 2, n, m) at points (c, m, 2)."""
    nxt, prv = _neighbours(verts.shape[1])
    d = _offsets(verts, pts)
    dn = d[:, :, nxt]
    area = 0.5 * (d[:, 0] * dn[:, 1] - d[:, 1] * dn[:, 0])
    area_prev = area[:, prv]
    edge, back = verts[:, nxt] - verts, verts - verts[:, prv]
    corner = 0.5 * (back[..., 0] * edge[..., 1] - back[..., 1] * edge[..., 0])
    grad_area = _edge_rotations(verts)
    w = corner[..., None] / (area_prev * area)
    ratio = grad_area[:, :, prv] / area_prev[:, None] + grad_area / area[:, None]
    lam = w / np.sum(w, axis=1, keepdims=True)
    mean_ratio = np.sum(lam[:, None] * ratio, axis=2, keepdims=True)
    return lam, lam[:, None] * (mean_ratio - ratio)


def mean_value(verts: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean value values (c, n, m) and gradients (c, 2, n, m) at points (c, m, 2)."""
    nxt, prv = _neighbours(verts.shape[1])
    d = _offsets(verts, pts)
    dn = d[:, :, nxt]
    r = np.hypot(d[:, 0], d[:, 1])
    rn = r[:, nxt]
    crs = d[:, 0] * dn[:, 1] - d[:, 1] * dn[:, 0]
    dot = d[:, 0] * dn[:, 0] + d[:, 1] * dn[:, 1]
    t = (r * rn - dot) / crs
    grad_crs = 2.0 * _edge_rotations(verts)
    grad_dot = -(d + dn)
    grad_rr = -(rn / r)[:, None] * d - (r / rn)[:, None] * dn
    grad_t = (grad_rr - grad_dot - t[:, None] * grad_crs) / crs[:, None]
    w = (t[:, prv] + t) / r
    grad_w = (grad_t[:, :, prv] + grad_t) / r[:, None] + (w / (r * r))[:, None] * d
    total = np.sum(w, axis=1, keepdims=True)
    lam = w / total
    return lam, (grad_w - lam[:, None] * np.sum(grad_w, axis=2, keepdims=True)) / total[:, None]


def pairwise(values: np.ndarray, gradients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Products (..., m, P) and gradients (..., m, P, 2) in ``pair_order(n)``, by gathers."""
    pairs = pair_order(values.shape[-1])
    ia = np.array([a for a, _ in pairs])
    ib = np.array([b for _, b in pairs])
    v = np.swapaxes(values, -1, -2)
    g = np.swapaxes(gradients, -1, -3)
    va, vb = v[..., ia, :], v[..., ib, :]
    mu = va * vb
    dmu = va[..., None, :, :] * g[..., ib, :] + vb[..., None, :, :] * g[..., ia, :]
    return np.swapaxes(mu, -1, -2), np.swapaxes(dmu, -1, -3)


def translation_classes(mesh: PolyMesh) -> np.ndarray:
    """``PolyMesh.translation_classes`` with one Python step per cell.

    Per vertex count: the key of a cell is its flat-vertex flag, its fan
    apex and its vertex offsets from vertex 0 rounded to 1e-9 of its
    diameter; each key proposes its first cell as representative, a cell
    whose offsets are within 1e-12 of the representative's diameter joins
    it, and the rest are classed again among themselves.
    """
    rep = list(range(mesh.n_cells))
    by_count = defaultdict(list)
    for ci, cell in enumerate(mesh.cells):
        by_count[len(cell)].append(ci)
    for cells in by_count.values():
        polygons = [Polygon(mesh.vertices[list(mesh.cells[ci])]) for ci in cells]
        diameters = [max(math.hypot(*(p.vertices[i] - p.vertices[j]))
                         for i in range(p.n) for j in range(p.n)) for p in polygons]
        offsets = [(p.vertices - p.vertices[0]).ravel() for p in polygons]
        keys = [(bool(p._batch.flat[0]), fan_apex(p),
                 *np.round(o / (1e-9 * d)).tolist())
                for p, o, d in zip(polygons, offsets, diameters)]
        todo = list(range(len(cells)))
        while todo:
            first: dict = {}
            left = []
            for k in todo:
                owner = first.setdefault(keys[k], k)
                if np.all(np.abs(offsets[k] - offsets[owner]) <= 1e-12 * diameters[owner]):
                    rep[cells[k]] = cells[owner]
                else:
                    left.append(k)
            todo = left
    return np.array(rep)


def edge_lengths(polygon: Polygon) -> np.ndarray:
    """Length of each edge (v_i, v_{i+1})."""
    v = polygon.vertices
    return np.hypot(*(np.roll(v, -1, axis=0) - v).T)


def angles_and_closest_pair(polygon: Polygon) -> tuple[np.ndarray, float]:
    """Interior angles of a polygon and its closest vertex distance, with one
    Python step per vertex and per vertex pair (numpy's ``arctan2`` and
    ``hypot`` for the last step, as the program uses them)."""
    v = polygon.vertices.tolist()
    n = len(v)
    cross, dot = [], []
    for i in range(n):
        (x, y), (xn, yn), (xp, yp) = v[i], v[(i + 1) % n], v[i - 1]
        wx, wy, ux, uy = xn - x, yn - y, xp - x, yp - y
        cross.append(wx * uy - wy * ux)
        dot.append(wx * ux + wy * uy)
    closest = min(float(np.hypot(v[i][0] - v[j][0], v[i][1] - v[j][1]))
                  for i in range(n) for j in range(i + 1, n))
    return np.arctan2(cross, dot), closest


def incircle(polygon: Polygon) -> tuple[np.ndarray, float]:
    """Largest inscribed circle, one 3x3 solve per edge triple: every circle
    touching three edge lines that no edge line cuts by more than 1e-9 of
    the diameter is a candidate, and of those within 1e-12 of the diameter
    of the largest radius the lexicographically smallest center wins."""
    normals, offsets, scale = polygon.inward_normals, polygon._batch.offsets[0], polygon.diameter
    candidates = []
    for i, j, k in itertools.combinations(range(polygon.n), 3):
        mat = np.array([[*normals[e], -1.0] for e in (i, j, k)])
        try:
            sol = np.linalg.solve(mat, offsets[[i, j, k]])
        except np.linalg.LinAlgError:
            continue
        center, radius = sol[:2], float(sol[2])
        supported = float(np.min(normals @ center - offsets))
        if np.isfinite(radius) and radius > 0.0 and supported >= radius - 1e-9 * scale:
            candidates.append((supported, center))
    rmax = max(r for r, _ in candidates)
    center = min((c for r, c in candidates if r >= rmax - 1e-12 * scale), key=lambda c: (c[0], c[1]))
    return center, float(np.min(normals @ center - offsets))


def cell_dofs(dofmap: DofMap) -> tuple[np.ndarray, ...]:
    """Per cell, in cell order: its 2n global unknowns, a row of its group in ``dofmap.groups``."""
    out: list = [None] * sum(len(ids) for ids, _ in dofmap.groups)
    for ids, dofs in dofmap.groups:
        for ci, row in zip(ids.tolist(), dofs):
            out[ci] = row
    return tuple(out)


def rule_layouts(polygons: list[Polygon], degree: int,
                 fan: bool = False) -> list[tuple[np.ndarray, int]]:
    """``quadrature.rule_layouts`` of polygons of any vertex counts: the layouts
    of each vertex count in increasing order, with indices into ``polygons``."""
    counts = np.array([p.n for p in polygons])
    out = []
    for n in np.unique(counts).tolist():
        cells = np.flatnonzero(counts == n)
        batch = polygon_batch([polygons[i] for i in cells])
        out += [(cells[rows], size) for rows, size in quadrature.rule_layouts(batch, degree, fan)]
    return out


def polygon_batch(polygons: list[Polygon]) -> PolygonBatch:
    """Polygons of one vertex count as one ``PolygonBatch``, validated again."""
    return PolygonBatch.from_vertices(np.stack([p.vertices for p in polygons]))


def basis_error_norms(solution: fem.DiscreteSolution, u_exact, grad_u_exact,
                      quad_degree: int = 14) -> fem.ErrorNorms:
    """``fem.error_norms`` with the basis formed on every chunk's representatives.

    Each slice of member cells takes its values from two matrix products with
    the chunk's basis, at the members' shifted points; on a mesh whose
    chunks all hold a repeated class this is the program's own computation.
    """
    acc_l2 = acc_h1 = 0.0
    kind = fem.CoordinateKind(solution.kind)
    for chunk, maps, rule, members in fem._element_chunks(solution.mesh, kind, quad_degree):
        values_and_gradients = fem._basis(chunk, kind, maps, np.moveaxis(rule.points, -1, 0))
        _, r, size, m = values_and_gradients.shape
        basis = values_and_gradients[0].reshape(-1, m)              # (r 2n, m)
        grads = values_and_gradients[1:].reshape(2, -1, m)          # (2, r 2n, m)
        for dofs, owner, shift in members:
            c = len(dofs)
            coeff = np.zeros((c, r, size))
            coeff[np.arange(c), owner] = solution.values[dofs]
            coeff = coeff.reshape(c, -1)                            # (c, r 2n)
            points = (rule.points[owner] + shift[:, None]).reshape(-1, 2)
            weights = rule.weights[owner].ravel()
            du = (coeff @ basis).ravel() - u_exact(points)
            dg = (coeff @ grads).reshape(2, -1)                     # (2, c m)
            dg -= grad_u_exact(points).T
            acc_l2 += float(weights @ du**2)
            acc_h1 += float(np.sum(dg**2 @ weights))
    return fem.ErrorNorms(l2=float(np.sqrt(acc_l2)), h1=float(np.sqrt(acc_h1)))


def jacobi_pcg(matrix, b: np.ndarray, tol: float = 1e-12,
               max_iter: int | None = None) -> tuple[np.ndarray, int, float]:
    """Solution, iteration count and relative residual of Jacobi-preconditioned
    conjugate gradients from x = 0, stopped as ``cg_solve`` stops; no input checks."""
    n = matrix.dim
    if max_iter is None:
        max_iter = 10 * n
    inv_diag = 1.0 / matrix.diagonal()
    b_norm = float(np.linalg.norm(b))
    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    res = float(np.linalg.norm(r))
    it = 0
    while res > tol * b_norm and it < max_iter:
        Ap = matrix.matvec(p)
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        res = float(np.linalg.norm(r))
        it += 1
    return x, it, res / b_norm
