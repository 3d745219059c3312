"""Convex polygon geometry: validation, shape metrics, quality conditions, rigid frames.

Vertices are always stored counterclockwise and indices wrap modulo ``n``.
All tolerances that carry units of length are scaled by a characteristic
size of the polygon so the checks behave identically under uniform scaling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "GeometryError",
    "InvalidPolygonError",
    "Polygon",
    "PolygonBatch",
    "ShapeMetrics",
    "ShapeConditions",
    "interior_angles",
    "shape_metrics",
    "check_conditions",
    "sample_interior",
    "polygon_from_json",
    "load_polygon",
]


class GeometryError(ValueError):
    """Invalid geometric input."""


class InvalidPolygonError(GeometryError):
    """Vertex list does not describe a convex counterclockwise polygon."""


# Relative tolerance used to decide whether consecutive edges turn left.
_CONVEXITY_RTOL = 1e-12
# What ``_as_array`` says of polygon and mesh vertices that are not numbers.
_VERTICES = "vertices must be an array of numbers, got {entry!r}"


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


@lru_cache(maxsize=None)
def _vertex_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices i < j of every pair of distinct vertices."""
    i, j = np.triu_indices(n, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


@lru_cache(maxsize=None)
def _edge_triples(n: int) -> np.ndarray:
    """Indices i < j < k (t, 3) of every triple of distinct edges, in lexicographic order."""
    grid = np.indices((n, n, n)).reshape(3, -1)
    triples = grid[:, (grid[0] < grid[1]) & (grid[1] < grid[2])].T
    triples.setflags(write=False)
    return triples


def _pair_distances(verts: np.ndarray) -> np.ndarray:
    """Distances (c, n (n - 1) / 2) between the vertices i < j (``_vertex_pairs``)
    of polygons (c, n, 2)."""
    i, j = _vertex_pairs(verts.shape[1])
    diff = verts[:, i] - verts[:, j]
    return np.hypot(diff[..., 0], diff[..., 1])


# What each check of ``_polygon_defects`` reports, in the order they apply;
# index 0 means every check passed.
_DEFECTS = (
    "",
    "degenerate polygon: zero spatial extent",
    "repeated vertices",
    "vertices must be in counterclockwise order",
    "degenerate polygon: near-zero area",
    "polygon is not convex (reflex vertex)",
)


def _polygon_defects(verts: np.ndarray) -> np.ndarray:
    """First failed ``Polygon`` check of each polygon of a batch, as an index into ``_DEFECTS``.

    ``verts`` (c, n, 2) are finite with n >= 3.  The checks are, in order:
    spatial extent, repeated vertices, counterclockwise order, non-zero
    area, and convexity, which flat vertices pass; all tolerances scale
    with the polygon's extent.  0 means the polygon passes.
    """
    n = verts.shape[1]
    scale = (verts.max(axis=1) - verts.min(axis=1)).max(axis=1)
    closest = _pair_distances(verts).min(axis=1)
    nxt, _ = _neighbours(n)
    nxt_verts = verts[:, nxt]
    area2 = (verts[..., 0] * nxt_verts[..., 1] - nxt_verts[..., 0] * verts[..., 1]).sum(axis=1)
    floor = 1e-12 * scale * scale
    edges = nxt_verts - verts
    elen = np.hypot(edges[..., 0], edges[..., 1])
    turn = _cross(edges, edges[:, nxt])
    reflex = (turn < -_CONVEXITY_RTOL * elen * elen[:, nxt]).any(axis=1)
    failed = np.array([scale <= 0.0, closest <= 1e-12 * scale,
                       (area2 <= 0.0) & (np.abs(area2) > floor), area2 < floor, reflex])
    return np.where(failed.any(axis=0), failed.argmax(axis=0) + 1, 0)


def _as_array(values, error: type[Exception], message: str, integer: bool = False) -> np.ndarray:
    """``values`` as a float64 array, or with ``integer`` an integer array: the one
    rule for every array, index and count a caller passes in.  A float64 ndarray,
    or with ``integer`` an integer one, passes uncopied.  Anything numpy would
    parse or cast (a string, a bool, also a JSON ``true`` among numbers, a float
    index, None, a set, a dict, a ragged list, an integer beyond 64 bits) raises
    ``error(message.format(*at, entry=entry))`` for the first such entry, at ``at``.
    """
    kinds = "iu" if integer else "iuf"
    if isinstance(values, np.ndarray) and values.dtype.kind in kinds:
        return values if integer or values.dtype == np.float64 else values.astype(float)
    # A Python int or float by its exact type, so never a bool: a 0-d array at once.
    if type(values) is int and -2**63 <= values < 2**63 or type(values) is float and not integer:
        return np.array(values, np.int64 if integer else np.float64)
    values = values.tolist() if isinstance(values, np.ndarray) else values     # walked as a list
    entries = np.array(values, dtype=object)                 # only a list pays for this walk
    try:
        array, reason = np.asarray(values), ""
    except ValueError as exc:                                # a ragged list
        array, reason = entries, f": {exc}"
    hidden = {bool, np.bool_} & set(map(type, entries.flat))     # numpy reads True as 1
    # An integer in [2**63, 2**64) reads as uint64, which int64 would wrap.
    wraps = integer and array.dtype == np.uint64 and np.any(array > np.iinfo(np.int64).max)
    if (array.dtype.kind in kinds or not array.size) and not hidden and not wraps:
        return array.astype(np.int64 if integer else float, copy=False)
    at, entry = next(((at, e) for at, e in np.ndenumerate(entries) if not (
        isinstance(e, (int, float, np.number)) and np.asarray(e).dtype.kind in kinds)),
        ((0,) * entries.ndim, values))
    raise error(message.format(*at, entry=entry) + reason)


def _valid_vertices(vertices, batch: bool) -> np.ndarray:
    """Polygons (c, n, 2) from one polygon (n, 2), or from a batch (c, n, 2)
    if ``batch``, checked against the rule of ``Polygon``: convex and
    counterclockwise, flat vertices allowed, reflex vertices rejected.

    Raises ``InvalidPolygonError`` at the first failure; in a batch, a
    polygon that fails a ``_DEFECTS`` check is named, "polygon k: ...".
    """
    verts = _as_array(vertices, InvalidPolygonError, _VERTICES).astype(float)
    if verts.ndim != 2 + batch or verts.shape[-1] != 2:
        shape = "(c, n, 2)" if batch else "(n, 2)"
        raise InvalidPolygonError(f"expected vertices with shape {shape}")
    if not batch:
        verts = verts[None]
    if not len(verts):
        raise GeometryError("a polygon batch needs at least one polygon")
    if verts.shape[1] < 3:
        raise InvalidPolygonError(f"a polygon needs at least 3 vertices, got {verts.shape[1]}")
    if not np.all(np.isfinite(verts)):
        raise InvalidPolygonError("vertices must be finite")
    defects = _polygon_defects(verts)
    if np.any(defects):
        k = int(np.argmax(defects != 0))
        raise InvalidPolygonError(f"polygon {k}: {_DEFECTS[defects[k]]}" if batch
                                  else _DEFECTS[defects[k]])
    return verts


def _areas_centroids(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Areas (c,) and area centroids (c, 2) of polygons (c, n, 2)."""
    nxt_verts = verts[:, _neighbours(verts.shape[1])[0]]
    w = verts[..., 0] * nxt_verts[..., 1] - nxt_verts[..., 0] * verts[..., 1]
    areas = 0.5 * np.sum(w, axis=1)
    return areas, np.sum((verts + nxt_verts) * w[..., None], axis=1) / (6.0 * areas)[:, None]


def _edge_lines(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit inward normals (c, n, 2) of the edges i = (v_i, v_{i+1}) of polygons
    (c, n, 2), and their offsets (c, n): ``normal . x - offset`` is the signed
    distance of x to the edge's line, positive inside."""
    e = verts[:, _neighbours(verts.shape[1])[0]] - verts
    length = np.hypot(e[..., 0], e[..., 1])
    normals = np.stack([-e[..., 1], e[..., 0]], axis=-1) / length[..., None]
    return normals, np.einsum("cnd,cnd->cn", normals, verts)


def _flat_vertices(verts: np.ndarray, diameters: np.ndarray) -> np.ndarray:
    """Which vertices (c, n) of polygons (c, n, 2) are collinear with their neighbours.

    ``polygon_rule`` raises its base degree on polygons with such a vertex,
    and Wachspress coordinates are refused on them.
    """
    nxt, prv = _neighbours(verts.shape[1])
    turn = _cross(verts - verts[:, prv], verts[:, nxt] - verts)
    return np.abs(turn) <= 1e-12 * diameters[:, None] ** 2


@lru_cache(maxsize=None)
def _fan_triangles(n: int, apex: int) -> np.ndarray:
    """Vertex triples (n - 2, 3) of the fan of an n-gon from vertex ``apex``."""
    idx = [(apex, (apex + j) % n, (apex + j + 1) % n) for j in range(1, n - 1)]
    return np.array(idx, dtype=int)


def _fan_apices(verts: np.ndarray, diameters: np.ndarray) -> np.ndarray:
    """First vertex (c,) of each polygon (c, n, 2) whose fan has no degenerate
    triangle, -1 where no vertex gives such a fan."""
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
    return apex


@dataclass(frozen=True, eq=False)
class Polygon:
    """Convex polygon with counterclockwise vertex order.

    The polygon may contain flat (angle pi) vertices, as produced by
    hanging nodes in locally refined meshes; reflex vertices are rejected.
    Instances are immutable; the vertex array is marked read-only.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        verts = _valid_vertices(self.vertices, batch=False)[0]
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def area(self) -> float:
        return float(_areas_centroids(self.vertices[None])[0][0])

    @property
    def centroid(self) -> np.ndarray:
        """Area centroid (always strictly interior for a convex polygon)."""
        return self._batch.centroids[0]

    @cached_property
    def diameter(self) -> float:
        """Largest vertex-to-vertex distance; equals the set diameter for convex polygons."""
        return float(self._batch.diameters[0])

    @property
    def inward_normals(self) -> np.ndarray:
        """Unit normals of edge i = (v_i, v_{i+1}) pointing into the polygon."""
        return self._batch.normals[0]

    @cached_property
    def _batch(self) -> PolygonBatch:
        """The polygon as a batch of one: the arrays its properties read."""
        return PolygonBatch._derive(self.vertices[None])

    def edge_distances(self, points: np.ndarray) -> np.ndarray:
        """Signed distances of ``points`` (..., 2) to every edge line, positive inside.

        Raises GeometryError for a non-finite point, which has no distance.
        """
        pts = _as_array(points, GeometryError, "points must be an array of numbers, got {entry!r}")
        if not np.all(np.isfinite(pts)):
            raise GeometryError("points must be finite to have edge distances")
        return pts @ self.inward_normals.T - self._batch.offsets[0]


@dataclass(frozen=True, eq=False)
class PolygonBatch:
    """Convex polygons that share a vertex count n, as arrays validated once.

    ``vertices`` (c, n, 2) keep the rule of ``Polygon``: convex and
    counterclockwise, flat vertices allowed.  Everything the
    element kernel needs of a polygon besides its vertices is computed once,
    with the formulas ``Polygon`` uses: ``diameters`` (c,), area
    ``centroids`` (c, 2), the unit inward ``normals`` (c, n, 2) of the edges
    (v_i, v_{i+1}) and their ``offsets`` (c, n) (``normal . x - offset`` is
    the signed distance to the edge's line), ``flat`` (c,), whether a
    polygon has a flat vertex, and ``apices`` (c,), its ``fan_apex``, or -1
    where no vertex gives a fan without a degenerate triangle (``fan_apex``,
    ``fan_rule`` and the triangulation kind raise ``GeometryError`` on such
    a polygon).

    Every array is read-only.  Indexing with a slice or an index array gives
    the batch of those polygons, every array sliced, with nothing validated
    or computed again.  Build a batch with ``from_vertices``; a ``Polygon``
    keeps its batch of one.
    """

    vertices: np.ndarray       # (c, n, 2)
    diameters: np.ndarray      # (c,)
    centroids: np.ndarray      # (c, 2)
    normals: np.ndarray        # (c, n, 2)
    offsets: np.ndarray        # (c, n)
    flat: np.ndarray           # (c,) bool
    apices: np.ndarray         # (c,)

    def __post_init__(self) -> None:
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    @classmethod
    def from_vertices(cls, vertices: np.ndarray) -> PolygonBatch:
        """Validate polygons (c, n, 2) in one array pass with the checks of
        ``Polygon``; raises ``InvalidPolygonError`` naming the first bad polygon."""
        return cls._derive(_valid_vertices(vertices, batch=True))

    @classmethod
    def _derive(cls, verts: np.ndarray) -> PolygonBatch:
        """The batch of polygons (c, n, 2) known to be valid."""
        diameters = np.max(_pair_distances(verts), axis=1)
        normals, offsets = _edge_lines(verts)
        return cls(verts, diameters, _areas_centroids(verts)[1], normals, offsets,
                   _flat_vertices(verts, diameters).any(axis=1), _fan_apices(verts, diameters))

    @property
    def n(self) -> int:
        return self.vertices.shape[1]

    def __len__(self) -> int:
        return len(self.vertices)

    def __getitem__(self, rows: slice | np.ndarray | int) -> PolygonBatch:
        if isinstance(rows, (int, np.integer)):
            rows = [rows]
        return PolygonBatch(*(getattr(self, f.name)[rows] for f in fields(self)))


def _as_batch(polygon: Polygon | PolygonBatch) -> PolygonBatch:
    """A polygon as its batch of one, kept with the polygon, or a batch as it is."""
    if isinstance(polygon, PolygonBatch):
        return polygon
    if isinstance(polygon, Polygon):
        return polygon._batch
    raise TypeError(f"expected a Polygon or a PolygonBatch, got {type(polygon).__name__}")


def _fans(batch: PolygonBatch) -> np.ndarray:
    """Vertex triples (c, n - 2, 3) of each polygon's fan from its apex
    (``PolygonBatch.apices``): ``_fan_triangles(n, 0)`` turned by the apex.

    Raises GeometryError if a polygon has no fan without a degenerate triangle.
    """
    if np.any(batch.apices < 0):
        raise GeometryError("no valid fan triangulation; polygon is degenerate")
    return (_fan_triangles(batch.n, 0) + batch.apices[:, None, None]) % batch.n


def _interior_angles(verts: np.ndarray) -> np.ndarray:
    """Interior angle (c, n) at every vertex of polygons (c, n, 2), in (0, pi]."""
    nxt, prv = _neighbours(verts.shape[1])
    w = verts[:, nxt] - verts     # towards the next vertex
    u = verts[:, prv] - verts     # towards the previous vertex
    # Convex: the sine is |w x u|.  At a flat vertex w x u can be -0.0, which reads -pi.
    return np.arctan2(np.abs(_cross(w, u)), np.einsum("cnd,cnd->cn", w, u))


def interior_angles(polygon: Polygon) -> np.ndarray:
    """Interior angle at every vertex, in (0, pi] (pi only for flat vertices)."""
    return _interior_angles(polygon._batch.vertices)[0]


def _incircles(batch: PolygonBatch) -> tuple[np.ndarray, np.ndarray]:
    """Largest inscribed circles of a batch: centers (c, 2) and radii (c,).

    The optimum of the underlying linear program is attained with (at least)
    three active edge constraints, so the circles touching the lines of every
    edge triple are the candidates, found in one stacked solve; a triple
    with a singular system (two edges on one line) has none, and
    parallel-edge optima (rectangles) appear among the other triples.  A
    candidate counts if no edge line is closer to its center than its radius
    less 1e-9 of the diameter.  Ties in the radius, to 1e-12 of the diameter,
    are broken by the lexicographically smallest center.
    """
    normals, offsets, scale = batch.normals, batch.offsets, batch.diameters[:, None]
    c, n, _ = normals.shape
    triples = _edge_triples(n)
    mat = np.concatenate([normals[:, triples], np.full((c, len(triples), 3, 1), -1.0)], axis=3)
    singular = np.linalg.det(mat) == 0.0
    mat[singular] = np.eye(3)
    sol = np.linalg.solve(mat, offsets[:, triples, None])[..., 0]           # (c, t, 3)
    centers, radii = sol[..., :2], sol[..., 2]
    # Each candidate's distance to its nearest edge line, in blocks of
    # triples: the (c, t, n) distances of a large n never exist at once.
    supported = np.empty_like(radii)
    step = max(1, 2**16 // n)
    for lo in range(0, len(triples), step):
        block = slice(lo, lo + step)
        slack = centers[:, block] @ np.swapaxes(normals, 1, 2) - offsets[:, None]
        supported[:, block] = np.min(slack, axis=2)
    found = ~singular & np.isfinite(radii) & (radii > 0.0) & (supported >= radii - 1e-9 * scale)
    if not np.all(np.any(found, axis=1)):
        raise GeometryError("incircle search failed: polygon is degenerate")
    rmax = np.max(np.where(found, supported, -np.inf), axis=1, keepdims=True)
    best = found & (supported >= rmax - 1e-12 * scale)
    for axis in (0, 1):
        coord = np.where(best, centers[..., axis], np.inf)
        best &= coord == np.min(coord, axis=1, keepdims=True)
    center = centers[np.arange(c), np.argmax(best, axis=1)]
    return center, np.min(normals @ center[..., None] - offsets[..., None], axis=(1, 2))


@dataclass(frozen=True)
class ShapeMetrics:
    """Size and quality numbers of a convex polygon."""

    diameter: float
    inradius: float
    incenter: np.ndarray
    aspect_ratio: float          # diameter / inradius, >= 2 for any convex set
    interior_angles: np.ndarray


def shape_metrics(polygon: Polygon) -> ShapeMetrics:
    centers, radii = _incircles(polygon._batch)
    radius = float(radii[0])
    if radius <= 0.0:
        raise GeometryError("degenerate polygon: vanishing inradius")
    return ShapeMetrics(
        diameter=polygon.diameter,
        inradius=radius,
        incenter=centers[0],
        aspect_ratio=polygon.diameter / radius,
        interior_angles=interior_angles(polygon),
    )


def _single_circular_run(mask: np.ndarray) -> bool:
    """True if the marked index set is empty or one consecutive run modulo n."""
    return bool(np.count_nonzero(mask & ~mask[_neighbours(len(mask))[1]]) <= 1)


@dataclass(frozen=True)
class ShapeConditions:
    """Result of the three shape-regularity checks against given thresholds.

    ``g1``: aspect ratio below ``gamma_star``.
    ``g2``: every vertex pair further apart than ``d_star`` (all pairs, not
    just edges).
    ``g3``: every interior angle below ``beta_star``; ``g3_relaxed`` also
    accepts violations that form a single consecutive run of vertices.
    ``satisfied`` is g1 and g2 and g3.  Every flag is a ``bool``.
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

    @property
    def satisfied(self) -> bool:
        return self.g1 and self.g2 and self.g3


def check_conditions(
    polygon: Polygon,
    gamma_star: float,
    d_star: float,
    beta_star: float,
) -> ShapeConditions:
    for name, value in (("gamma_star", gamma_star), ("d_star", d_star), ("beta_star", beta_star)):
        if _as_array(value, GeometryError, f"{name} must be a number, got {{entry!r}}").ndim:
            raise GeometryError(f"{name} must be a single number, got {value!r}")
    if not (math.isfinite(gamma_star) and gamma_star > 2.0):
        raise GeometryError("gamma_star must be finite and exceed 2 "
                            "(no convex set beats aspect ratio 2)")
    if not (math.isfinite(d_star) and d_star > 0.0):
        raise GeometryError("d_star must be finite and positive")
    if not 0.0 < beta_star < math.pi:
        raise GeometryError("beta_star must lie in (0, pi)")
    metrics = shape_metrics(polygon)
    violations = metrics.interior_angles >= beta_star
    return ShapeConditions(
        gamma_star=gamma_star,
        d_star=d_star,
        beta_star=beta_star,
        epsilon_star=d_star * math.sin(0.5 * (math.pi - beta_star)),
        g1=bool(metrics.aspect_ratio < gamma_star),
        g2=bool(np.min(_pair_distances(polygon._batch.vertices)) > d_star),
        g3=not bool(np.any(violations)),
        g3_relaxed=_single_circular_run(violations),
    )


def _diagonal_frames(verts: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (c, n, 2) in the rigid frame of every diagonal (a[k], b[k]): (c, D, n, 2).

    Each frame is an orientation-preserving rigid motion that maps a to
    (-l, 0) and b to (l, 0), so vertices strictly between a and b in
    counterclockwise order lie below the x axis.  Also returns the half
    lengths l, (c, D).
    """
    va, vb = verts[:, a], verts[:, b]                        # (c, D, 2)
    chord = vb - va
    half = 0.5 * np.hypot(chord[..., 0], chord[..., 1])
    unit = chord / (2.0 * half)[..., None]
    ex, ey = unit[..., 0], unit[..., 1]
    # The transposed rotation [[ex, ey], [-ey, ex]], applied to row vectors.
    rotate = np.stack([np.stack([ex, -ey], axis=-1), np.stack([ey, ex], axis=-1)], axis=-2)
    return (verts[:, None] - (0.5 * (va + vb))[:, :, None]) @ rotate, half


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
    if _as_array(count, GeometryError, "sample count must be an integer, got {entry!r}",
                 integer=True).ndim or count < 0:
        raise GeometryError(f"sample count must be non-negative, got {count}")
    if _as_array(margin, GeometryError, "margin must be a number, got {entry!r}").ndim \
            or not math.isfinite(margin):
        raise GeometryError(f"margin must be one finite number, got {margin!r}")
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


def polygon_from_json(data: str | dict) -> Polygon:
    """Build a polygon from ``{"vertices": [[x, y], ...]}`` (dict or JSON text)."""
    obj = json.loads(data) if isinstance(data, str) else data
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise InvalidPolygonError('polygon JSON must be an object with a "vertices" key')
    return Polygon(obj["vertices"])


def load_polygon(path: str) -> Polygon:
    with open(path, "r", encoding="utf-8") as fh:
        return polygon_from_json(fh.read())
