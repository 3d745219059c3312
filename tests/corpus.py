"""Deterministic polygon and mesh builders shared across the test suite."""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, QhullError, Voronoi

from polyserend import GeometryError, PolyMesh, Polygon, check_conditions, sample_interior
from polyserend.barycentric import fan_apex

# Screening thresholds used for the shape-regular random corpus: aspect ratio
# below 6, every vertex pair separated by 5% of the diameter, every interior
# angle below 0.95 pi.
GAMMA_STAR = 6.0
D_STAR_FRACTION = 0.05
BETA_STAR = 0.95 * np.pi


def unit_square() -> Polygon:
    return Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def regular_polygon(n: int, radius: float = 1.0, rotation: float = 0.0) -> Polygon:
    angles = rotation + 2.0 * np.pi * np.arange(n) / n
    return Polygon(radius * np.stack([np.cos(angles), np.sin(angles)], axis=1))


def degenerate_pentagon() -> Polygon:
    """Square of side 2 with an extra vertex at the midpoint of its bottom edge.

    The vertex at the origin has interior angle exactly pi; the diagonal
    between the two bottom corners (indices 1 and 4) passes through it.
    """
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, 0.0]])
    return Polygon(verts)


def blowup_hexagon(t: float) -> Polygon:
    """Hexagon on the unit circle with two edges of arc length t, one adjacent
    to each endpoint of the horizontal diagonal (0, 3).

    As t shrinks, the neighbor chords at both diagonal endpoints close onto
    the diagonal and the rebalancing coefficients for that diagonal grow
    without bound.
    """
    if not 0.0 < t < 0.9:
        raise ValueError("t must lie in (0, 0.9)")
    angles = np.array([np.pi, np.pi + 0.9, 2.0 * np.pi - t, 0.0, 0.9, np.pi - t])
    return Polygon(np.stack([np.cos(angles), np.sin(angles)], axis=1))


def random_convex_polygon(rng: np.random.Generator, n: int) -> Polygon:
    """Strictly convex n-gon, unit diameter: jittered points on a circle."""
    while True:
        gaps = rng.uniform(0.35, 1.0, n)
        angles = 2.0 * np.pi * np.cumsum(gaps) / np.sum(gaps) + rng.uniform(0.0, 2.0 * np.pi)
        radii = rng.uniform(0.8, 1.0, n)
        pts = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        try:
            poly = Polygon(pts)
        except GeometryError:
            continue
        return Polygon(poly.vertices / poly.diameter)


def random_convex_quadrilateral(rng: np.random.Generator, min_area: float = 0.08) -> Polygon:
    """Strictly convex quadrilateral: four points in convex position in [0,1]^2."""
    while True:
        pts = rng.uniform(0.0, 1.0, (4, 2))
        try:
            hull = ConvexHull(pts)
        except QhullError:
            continue
        if len(hull.vertices) != 4:
            continue
        try:
            quad = Polygon(pts[hull.vertices])
        except GeometryError:
            continue
        if quad.area < min_area:
            continue
        return quad


def shape_regular_corpus(rng: np.random.Generator, count: int,
                         sides: tuple[int, ...] = (5, 6, 7, 8, 9)) -> list[Polygon]:
    """Random polygons passing the aspect/separation/angle screening."""
    out: list[Polygon] = []
    side_choices = np.asarray(sides)
    while len(out) < count:
        n = int(side_choices[rng.integers(len(side_choices))])
        poly = random_convex_polygon(rng, n)
        cond = check_conditions(poly, GAMMA_STAR, D_STAR_FRACTION * poly.diameter, BETA_STAR)
        if cond.satisfied:
            out.append(poly)
    return out


def standard_corpus(rng: np.random.Generator) -> list[tuple[str, Polygon]]:
    """Small named mix of shapes used by several suites (flat pentagon included)."""
    return [
        ("unit square", unit_square()),
        ("lopsided quadrilateral",
         Polygon(np.array([[0.0, 0.0], [2.0, 0.1], [1.7, 1.4], [0.2, 1.0]]))),
        ("regular pentagon", regular_polygon(5)),
        ("regular hexagon", regular_polygon(6)),
        ("regular octagon", regular_polygon(8)),
        ("regular 12-gon", regular_polygon(12)),
        ("random pentagon", random_convex_polygon(rng, 5)),
        ("random heptagon", random_convex_polygon(rng, 7)),
        ("random nonagon", random_convex_polygon(rng, 9)),
        ("flat-vertex pentagon", degenerate_pentagon()),
    ]


def mixed_mesh() -> PolyMesh:
    """Three-cell mesh of the unit square: two small squares stacked on the
    left and a pentagon on the right whose left side passes straight through
    the squares' shared corner (a flat vertex of the pentagon)."""
    vertices = np.array([
        [0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5],
        [0.0, 1.0], [0.5, 1.0], [1.0, 0.0], [1.0, 1.0],
    ])
    cells = ((0, 1, 2, 3), (3, 2, 5, 4), (2, 1, 6, 7, 5))
    return PolyMesh.build(vertices, cells)


def voronoi_mesh(per_side: int = 4, seed: int = 0) -> PolyMesh:
    """Clipped Voronoi mesh of the unit square from a jittered hexagonal
    lattice of per_side x per_side sites: mixed vertex counts, cells on the
    generic construction, no two cells alike.  Mirroring the sites across the
    four sides puts the sides on Voronoi edges, so the cells tile the square."""
    rng = np.random.default_rng(seed)
    j, i = np.mgrid[0:per_side, 0:per_side]
    sites = np.stack([i.ravel() + 0.25 + 0.5 * (j.ravel() % 2), j.ravel() + 0.5], axis=1)
    sites = (sites + rng.uniform(-0.15, 0.15, sites.shape)) / per_side
    x, y = sites.T
    vor = Voronoi(np.vstack([sites, np.c_[-x, y], np.c_[2.0 - x, y],
                             np.c_[x, -y], np.c_[x, 2.0 - y]]))
    corners = vor.vertices.copy()
    for side in (0.0, 1.0):
        corners[np.abs(corners - side) < 1e-12] = side
    index: dict[int, int] = {}
    cells = []
    for s, site in enumerate(sites):
        region = vor.regions[vor.point_region[s]]
        angle = np.arctan2(*(corners[region] - site).T[::-1])
        cells.append([index.setdefault(region[k], len(index)) for k in np.argsort(angle)])
    return PolyMesh.build(corners[list(index)], cells)


def refine(mesh: PolyMesh, marked) -> PolyMesh:
    """Split every marked quadrilateral cell into four, at its edge midpoints
    and its vertex mean; every other cell lists the new midpoints on its
    edges, so a neighbour of a split cell gains a flat vertex per split side
    (a quadrilateral becomes a flat-vertex pentagon) and the mesh stays
    conforming."""
    marked = sorted({int(i) for i in marked})
    vertices = list(mesh.vertices)
    midpoints: dict[tuple[int, int], int] = {}
    for ci in marked:
        cell = mesh.cells[ci]
        if len(cell) != 4:
            raise ValueError(f"cell {ci} has {len(cell)} vertices; only quadrilaterals are split")
        for a, b in zip(cell, cell[1:] + cell[:1]):
            key = (min(a, b), max(a, b))
            if key not in midpoints:
                midpoints[key] = len(vertices)
                vertices.append(0.5 * (mesh.vertices[a] + mesh.vertices[b]))
    cells = []
    for ci, cell in enumerate(mesh.cells):
        mids = [midpoints.get((min(a, b), max(a, b))) for a, b in zip(cell, cell[1:] + cell[:1])]
        if ci in marked:
            centre = len(vertices)
            vertices.append(mesh.vertices[list(cell)].mean(axis=0))
            cells += [(cell[k], mids[k], centre, mids[k - 1]) for k in range(4)]
        else:
            cells.append(tuple(v for a, m in zip(cell, mids) for v in (a, m) if v is not None))
    return PolyMesh.build(np.array(vertices), cells)


def _segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from each point (m, 2) to each segment a[k]->b[k], shape (m, k)."""
    ab = b - a
    ap = points[:, None, :] - a[None, :, :]
    denom = np.einsum("kd,kd->k", ab, ab)
    tpar = np.clip(np.einsum("mkd,kd->mk", ap, ab) / denom, 0.0, 1.0)
    closest = a[None, :, :] + tpar[..., None] * ab[None, :, :]
    gap = points[:, None, :] - closest
    return np.hypot(gap[..., 0], gap[..., 1])


def fd_safe_points(poly: Polygon, count: int, rng: np.random.Generator,
                   clearance_fraction: float = 1e-3) -> np.ndarray:
    """Interior points clear of the boundary and of the coordinate fan chords,
    so a small central-difference stencil sees a smooth function."""
    apex = fan_apex(poly)
    v = poly.vertices
    others = [j for j in range(poly.n) if j != apex]
    a = np.repeat(v[apex][None, :], len(others), axis=0)
    b = v[others]
    clearance = clearance_fraction * poly.diameter
    picked: list[np.ndarray] = []
    total = 0
    while total < count:
        cand = sample_interior(poly, 4 * count, rng, margin=0.01 * poly.diameter)
        keep = np.min(_segment_distances(cand, a, b), axis=1) > clearance
        picked.append(cand[keep])
        total += int(np.count_nonzero(keep))
    return np.concatenate(picked)[:count]


def fd_gradients(evaluate, points: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradients of a batched function of (m, 2) points.

    ``evaluate`` maps (m, 2) points to values of shape (m, ...); the result
    appends a final axis of length 2.
    """
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    gx = (evaluate(points + ex) - evaluate(points - ex)) / (2.0 * h)
    gy = (evaluate(points + ey) - evaluate(points - ey)) / (2.0 * h)
    return np.stack([gx, gy], axis=-1)


def relative_gradient_error(analytic: np.ndarray, approx: np.ndarray) -> float:
    """Max entrywise deviation, scaled by the larger of 1 and the magnitude."""
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(approx)))
    return float(np.max(np.abs(analytic - approx) / scale))


def polygon_monomial_oracle(poly: Polygon, i: int, j: int) -> float:
    """Integral of x^i y^j over the polygon via the divergence theorem.

    Writing x^i y^j = d/dx [x^(i+1) y^j / (i+1)] turns the area integral
    into a boundary flux; on each straight edge the flux integrand is a
    1-D polynomial handled exactly by Gauss-Legendre nodes.  Completely
    independent of the 2-D triangulated rules it is used to check.
    """
    nodes, weights = np.polynomial.legendre.leggauss(25)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    v = poly.vertices
    nxt = np.roll(v, -1, axis=0)
    total = 0.0
    for a, b in zip(v, nxt):
        x = a[0] + t * (b[0] - a[0])
        y = a[1] + t * (b[1] - a[1])
        nx_ds = b[1] - a[1]  # outward normal x-component times edge length
        total += float(np.dot(w, x ** (i + 1) * y**j)) * nx_ds / (i + 1)
    return total


def _split_triangles(tris: np.ndarray) -> np.ndarray:
    """Uniform 4-way refinement of an (m, 3, 2) triangle array."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    return np.concatenate([
        np.stack([a, ab, ca], axis=1),
        np.stack([ab, b, bc], axis=1),
        np.stack([ca, bc, c], axis=1),
        np.stack([ab, bc, ca], axis=1),
    ], axis=0)


def refined_polygon_integral(poly: Polygon, f, levels: int = 3,
                             degree: int = 12) -> float:
    """Integrate f over the polygon on a uniformly refined centroid fan.

    A deliberately different decomposition (plain vertex fan, 4-way split)
    from the midpoint-split layout of the production rule, making this a
    structural cross-check rather than a reimplementation.
    """
    from polyserend import triangle_rule

    v = poly.vertices
    c = np.broadcast_to(poly.centroid, v.shape)
    tris = np.stack([c, v, np.roll(v, -1, axis=0)], axis=1)
    for _ in range(levels):
        tris = _split_triangles(tris)
    base = triangle_rule(degree)
    a, b, cc = tris[:, 0], tris[:, 1], tris[:, 2]
    e1, e2 = b - a, cc - a
    areas2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    x, y = base.points[:, 0], base.points[:, 1]
    pts = a[:, None, :] + x[None, :, None] * e1[:, None, :] + y[None, :, None] * e2[:, None, :]
    wts = areas2[:, None] * base.weights[None, :]
    return float(np.dot(wts.ravel(), np.asarray(f(pts.reshape(-1, 2)), dtype=float)))
