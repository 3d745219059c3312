"""Convex polygon geometry: validation, shape metrics, quality conditions, rigid frames.

Vertices are always stored counterclockwise and indices wrap modulo ``n``.
All tolerances that carry units of length are scaled by a characteristic
size of the polygon so the checks behave identically under uniform scaling.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "GeometryError",
    "InvalidPolygonError",
    "Polygon",
    "polygon_batch",
    "ShapeMetrics",
    "ShapeConditions",
    "DiagonalFrame",
    "interior_angles",
    "shape_metrics",
    "check_conditions",
    "diagonal_frame",
    "sample_interior",
    "polygon_from_json",
    "polygon_to_json",
    "load_polygon",
    "save_polygon",
]


class GeometryError(ValueError):
    """Invalid geometric input."""


class InvalidPolygonError(GeometryError):
    """Vertex list does not describe a convex counterclockwise polygon."""


# Relative tolerance used to decide whether consecutive edges turn left.
_CONVEXITY_RTOL = 1e-12


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


@lru_cache(maxsize=None)
def _neighbours(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the next and the previous vertex, (i + 1) % n and (i - 1) % n."""
    nxt = (np.arange(n) + 1) % n
    prv = (np.arange(n) - 1) % n
    nxt.setflags(write=False)
    prv.setflags(write=False)
    return nxt, prv


@dataclass(frozen=True, eq=False)
class Polygon:
    """Convex polygon with counterclockwise vertex order.

    With ``allow_flat`` the polygon may contain straight (angle exactly pi)
    vertices, as produced by hanging nodes in locally refined meshes; reflex
    vertices are always rejected.  Instances are immutable; the vertex array
    is marked read-only.
    """

    vertices: np.ndarray
    allow_flat: bool = False

    def __post_init__(self) -> None:
        verts = np.array(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise InvalidPolygonError("expected vertices with shape (n, 2)")
        n = len(verts)
        if n < 3:
            raise InvalidPolygonError(f"a polygon needs at least 3 vertices, got {n}")
        if not np.all(np.isfinite(verts)):
            raise InvalidPolygonError("vertices must be finite")
        scale = float(np.max(np.ptp(verts, axis=0)))
        if scale <= 0.0:
            raise InvalidPolygonError("degenerate polygon: zero spatial extent")
        diff = verts[:, None, :] - verts[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        np.fill_diagonal(dist, np.inf)
        if float(np.min(dist)) <= 1e-12 * scale:
            raise InvalidPolygonError("repeated vertices")
        nxt, _ = _neighbours(n)
        area2 = float(np.sum(verts[:, 0] * verts[nxt, 1] - verts[nxt, 0] * verts[:, 1]))
        if area2 < 1e-12 * scale * scale:
            if area2 <= 0.0 and abs(area2) > 1e-12 * scale * scale:
                raise InvalidPolygonError("vertices must be in counterclockwise order")
            raise InvalidPolygonError("degenerate polygon: near-zero area")
        edges = verts[nxt] - verts
        elen = np.hypot(edges[:, 0], edges[:, 1])
        turn = _cross(edges, edges[nxt])
        limit = _CONVEXITY_RTOL * elen * elen[nxt]
        if self.allow_flat:
            if np.any(turn < -limit):
                raise InvalidPolygonError("polygon is not convex (reflex vertex)")
        elif np.any(turn <= limit):
            raise InvalidPolygonError("polygon is not strictly convex")
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def area(self) -> float:
        v = self.vertices
        nxt, _ = _neighbours(self.n)
        return 0.5 * float(np.sum(v[:, 0] * v[nxt, 1] - v[nxt, 0] * v[:, 1]))

    @cached_property
    def centroid(self) -> np.ndarray:
        """Area centroid (always strictly interior for a convex polygon)."""
        v = self.vertices
        nxt, _ = _neighbours(self.n)
        w = v[:, 0] * v[nxt, 1] - v[nxt, 0] * v[:, 1]
        c = np.sum((v + v[nxt]) * w[:, None], axis=0) / (6.0 * self.area)
        c.setflags(write=False)
        return c

    @cached_property
    def diameter(self) -> float:
        """Largest vertex-to-vertex distance; equals the set diameter for convex polygons."""
        v = self.vertices
        diff = v[:, None, :] - v[None, :, :]
        return float(np.max(np.hypot(diff[..., 0], diff[..., 1])))

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        e = self.vertices[_neighbours(self.n)[0]] - self.vertices
        out = np.hypot(e[:, 0], e[:, 1])
        out.setflags(write=False)
        return out

    @cached_property
    def inward_normals(self) -> np.ndarray:
        """Unit normals of edge i = (v_i, v_{i+1}) pointing into the polygon."""
        e = self.vertices[_neighbours(self.n)[0]] - self.vertices
        nrm = np.stack([-e[:, 1], e[:, 0]], axis=1) / self.edge_lengths[:, None]
        nrm.setflags(write=False)
        return nrm

    @cached_property
    def _edge_offsets(self) -> np.ndarray:
        out = np.einsum("ij,ij->i", self.inward_normals, self.vertices)
        out.setflags(write=False)
        return out

    def edge_distances(self, points: np.ndarray) -> np.ndarray:
        """Signed distances of ``points`` (..., 2) to every edge line, positive inside."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.inward_normals.T - self._edge_offsets

    def contains(self, point: np.ndarray, tol: float = 0.0) -> bool:
        return bool(np.min(self.edge_distances(point)) >= -tol)


def polygon_batch(
    polygons: Polygon | Sequence[Polygon],
) -> tuple[tuple[Polygon, ...], np.ndarray, np.ndarray]:
    """Polygons that share a vertex count, their vertices (c, n, 2) and diameters (c,).

    A single polygon is a batch of one.
    """
    polys = (polygons,) if isinstance(polygons, Polygon) else tuple(polygons)
    if not polys:
        raise GeometryError("a polygon batch needs at least one polygon")
    if any(p.n != polys[0].n for p in polys):
        raise GeometryError("polygons of one batch must share a vertex count")
    verts = np.stack([p.vertices for p in polys])
    return polys, verts, np.array([p.diameter for p in polys])


def interior_angles(polygon: Polygon) -> np.ndarray:
    """Interior angle at every vertex, in (0, pi] (pi only for flat vertices)."""
    v = polygon.vertices
    w = np.roll(v, -1, axis=0) - v  # towards the next vertex
    u = np.roll(v, 1, axis=0) - v   # towards the previous vertex
    return np.arctan2(_cross(w, u), np.einsum("ij,ij->i", w, u))


def _chebyshev_incircle(polygon: Polygon) -> tuple[np.ndarray, float]:
    """Largest inscribed circle.

    The optimum of the underlying linear program is attained with (at least)
    three active edge constraints, so all edge triples are enumerated as
    candidates; parallel-edge optima (rectangles) appear among the triples as
    well.  Ties in the radius are broken by the lexicographically smallest
    center.
    """
    normals = polygon.inward_normals
    offsets = polygon._edge_offsets
    scale = polygon.diameter
    candidates: list[tuple[float, np.ndarray]] = []
    for i, j, k in itertools.combinations(range(polygon.n), 3):
        mat = np.array(
            [
                [normals[i, 0], normals[i, 1], -1.0],
                [normals[j, 0], normals[j, 1], -1.0],
                [normals[k, 0], normals[k, 1], -1.0],
            ]
        )
        rhs = np.array([offsets[i], offsets[j], offsets[k]])
        try:
            sol = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        center, radius = sol[:2], float(sol[2])
        if not np.isfinite(radius) or radius <= 0.0:
            continue
        slack = normals @ center - offsets
        supported = float(np.min(slack))
        if supported < radius - 1e-9 * scale:
            continue
        candidates.append((supported, center))
    if not candidates:
        raise GeometryError("incircle search failed: polygon is degenerate")
    rmax = max(r for r, _ in candidates)
    best = [c for r, c in candidates if r >= rmax - 1e-12 * scale]
    center = min(best, key=lambda c: (c[0], c[1]))
    radius = float(np.min(normals @ center - offsets))
    return center, radius


@dataclass(frozen=True)
class ShapeMetrics:
    """Size and quality numbers of a convex polygon."""

    diameter: float
    inradius: float
    incenter: np.ndarray
    aspect_ratio: float          # diameter / inradius, >= 2 for any convex set
    interior_angles: np.ndarray


def shape_metrics(polygon: Polygon) -> ShapeMetrics:
    center, radius = _chebyshev_incircle(polygon)
    if radius <= 0.0:
        raise GeometryError("degenerate polygon: vanishing inradius")
    return ShapeMetrics(
        diameter=polygon.diameter,
        inradius=radius,
        incenter=center,
        aspect_ratio=polygon.diameter / radius,
        interior_angles=interior_angles(polygon),
    )


def _single_circular_run(mask: np.ndarray) -> bool:
    """True if the marked index set is empty or one consecutive run modulo n."""
    if not np.any(mask):
        return True
    starts = np.count_nonzero(mask & ~np.roll(mask, 1))
    return starts <= 1


@dataclass(frozen=True)
class ShapeConditions:
    """Result of the three shape-regularity checks against given thresholds.

    ``g1``: aspect ratio below ``gamma_star``.
    ``g2``: every vertex pair further apart than ``d_star`` (all pairs, not
    just edges).
    ``g3``: every interior angle below ``beta_star``; ``g3_relaxed`` also
    accepts violations that form a single consecutive run of vertices.
    ``epsilon_star`` is the margin ``d_star * sin((pi - beta_star) / 2)``
    implied by the thresholds.
    """

    gamma_star: float
    d_star: float
    beta_star: float
    epsilon_star: float
    g1: bool
    g2: bool
    g3: bool
    g3_relaxed: bool
    relaxed_g3: bool = False

    @property
    def satisfied(self) -> bool:
        g3 = self.g3_relaxed if self.relaxed_g3 else self.g3
        return self.g1 and self.g2 and g3


def check_conditions(
    polygon: Polygon,
    gamma_star: float,
    d_star: float,
    beta_star: float,
    relaxed_g3: bool = False,
) -> ShapeConditions:
    if gamma_star <= 2.0:
        raise GeometryError("gamma_star must exceed 2 (no convex set beats aspect ratio 2)")
    if d_star <= 0.0:
        raise GeometryError("d_star must be positive")
    if not 0.0 < beta_star < math.pi:
        raise GeometryError("beta_star must lie in (0, pi)")
    metrics = shape_metrics(polygon)
    v = polygon.vertices
    diff = v[:, None, :] - v[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(dist, np.inf)
    violations = metrics.interior_angles >= beta_star
    return ShapeConditions(
        gamma_star=gamma_star,
        d_star=d_star,
        beta_star=beta_star,
        epsilon_star=d_star * math.sin(0.5 * (math.pi - beta_star)),
        g1=bool(metrics.aspect_ratio < gamma_star),
        g2=bool(np.min(dist) > d_star),
        g3=not bool(np.any(violations)),
        g3_relaxed=_single_circular_run(violations),
        relaxed_g3=relaxed_g3,
    )


@dataclass(frozen=True, eq=False)
class DiagonalFrame:
    """Orientation-preserving rigid motion placing a diagonal on the x axis.

    The diagonal endpoints (a, b) map to (-half_length, 0) and
    (+half_length, 0); vertices strictly between a and b in counterclockwise
    order end up below the axis.
    """

    rotation: np.ndarray     # (2, 2), det +1
    center: np.ndarray       # diagonal midpoint in original coordinates
    half_length: float

    def apply(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=float) - self.center) @ self.rotation.T

    def invert(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.rotation + self.center


def diagonal_frame(polygon: Polygon, a: int, b: int) -> DiagonalFrame:
    n = polygon.n
    a %= n
    b %= n
    if (b - a) % n in (0, 1, n - 1):
        raise GeometryError(f"vertex pair ({a}, {b}) is not a strict diagonal")
    va, vb = polygon.vertices[a], polygon.vertices[b]
    center = 0.5 * (va + vb)
    half_length = 0.5 * float(np.hypot(*(vb - va)))
    ex, ey = (vb - va) / (2.0 * half_length)
    rotation = np.array([[ex, ey], [-ey, ex]])
    return DiagonalFrame(rotation=rotation, center=center, half_length=half_length)


def sample_interior(
    polygon: Polygon,
    count: int,
    rng: np.random.Generator,
    margin: float = 0.0,
) -> np.ndarray:
    """Random strictly interior points, at least ``margin`` away from every edge.

    Points are convex combinations with Dirichlet weights, so they are interior
    by construction; the margin is enforced by rejection.
    """
    if count < 0:
        raise GeometryError(f"sample count must be non-negative, got {count}")
    out = [np.empty((0, 2))]
    attempts = 0
    while sum(len(p) for p in out) < count:
        if attempts > 200:
            raise GeometryError("interior sampling failed; margin too large for polygon")
        batch = rng.dirichlet(np.ones(polygon.n), size=max(count, 16)) @ polygon.vertices
        keep = np.min(polygon.edge_distances(batch), axis=1) > margin
        out.append(batch[keep])
        attempts += 1
    return np.concatenate(out)[:count]


def polygon_from_json(data: str | dict, allow_flat: bool = False) -> Polygon:
    """Build a polygon from ``{"vertices": [[x, y], ...]}`` (dict or JSON text)."""
    obj = json.loads(data) if isinstance(data, str) else data
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise InvalidPolygonError('polygon JSON must be an object with a "vertices" key')
    return Polygon(np.asarray(obj["vertices"], dtype=float), allow_flat=allow_flat)


def polygon_to_json(polygon: Polygon) -> dict:
    return {"vertices": polygon.vertices.tolist()}


def load_polygon(path: str, allow_flat: bool = False) -> Polygon:
    with open(path, "r", encoding="utf-8") as fh:
        return polygon_from_json(fh.read(), allow_flat=allow_flat)


def save_polygon(polygon: Polygon, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(polygon_to_json(polygon), fh, indent=2)
        fh.write("\n")
