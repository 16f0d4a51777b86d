"""2D interface-fitted triangulations.

Structured right-triangle meshes over a rectangle, node snapping onto
circular material interfaces, region classification, point location and a
writer for a line-oriented mesh file format.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import GeometryError

BACKGROUND_TAG = 0

# Fraction of h_max used as the snap band around each interface circle.
SNAP_FRACTION = 0.45

_BARY_TOL = 1e-12


def _cross2(u, v):
    """z-component of the cross product of 2D vectors."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle (x0, y0) .. (x1, y1)."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise GeometryError("degenerate domain: zero area")

    @property
    def width(self):
        return self.x1 - self.x0

    @property
    def height(self):
        return self.y1 - self.y0


@dataclass(frozen=True)
class Circle:
    """Circular material interface."""

    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise GeometryError(f"circle radius must be positive, got {self.radius}")

    def signed_distance(self, points):
        """Distance from the circle line; negative inside the disk."""
        d = np.hypot(points[..., 0] - self.center[0], points[..., 1] - self.center[1])
        return d - self.radius

    def contains(self, points):
        """Closed-disk membership test."""
        return self.signed_distance(points) <= 0.0

    def strictly_inside(self, rect):
        cx, cy = self.center
        r = self.radius
        return (
            cx - r > rect.x0 and cx + r < rect.x1
            and cy - r > rect.y0 and cy + r < rect.y1
        )


@dataclass(frozen=True)
class Mesh:
    """Triangulation with region tags and boundary node flags.

    Frozen: operations that modify a mesh return a new instance.
    """

    nodes: np.ndarray        # (n, 2) float64
    triangles: np.ndarray    # (m, 3) int, counterclockwise
    region_tag: np.ndarray   # (m,) int
    boundary_node: np.ndarray   # (n,) bool
    h_max: float

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def triangle_corners(self):
        """Corner coordinate arrays (a, b, c), each (m, 2)."""
        t = self.triangles
        return self.nodes[t[:, 0]], self.nodes[t[:, 1]], self.nodes[t[:, 2]]

    def signed_areas(self):
        a, b, c = self.triangle_corners()
        return 0.5 * _cross2(b - a, c - a)

    def centroids(self):
        a, b, c = self.triangle_corners()
        return (a + b + c) / 3.0


def _compute_h_max(nodes, triangles):
    b = nodes[triangles[:, 1]] - nodes[triangles[:, 0]]
    c = nodes[triangles[:, 2]] - nodes[triangles[:, 1]]
    a = nodes[triangles[:, 0]] - nodes[triangles[:, 2]]
    e = np.stack([np.linalg.norm(v, axis=1) for v in (a, b, c)])
    return float(e.max())


def generate_structured_mesh(domain: Rect, h: float) -> Mesh:
    """Uniform right-triangle mesh with ceil(side/h) subdivisions per axis."""
    if not h > 0:
        raise GeometryError(f"mesh size must be positive, got {h}")
    if h > min(domain.width, domain.height):
        raise GeometryError("mesh size exceeds the smallest domain side")
    nx = int(np.ceil(domain.width / h))
    ny = int(np.ceil(domain.height / h))

    xs = np.linspace(domain.x0, domain.x1, nx + 1)
    ys = np.linspace(domain.y0, domain.y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(order="C"), Y.ravel(order="C")])

    def nid(i, j):
        return i * (ny + 1) + j

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    v00 = nid(ii, jj).ravel()
    v10 = nid(ii + 1, jj).ravel()
    v01 = nid(ii, jj + 1).ravel()
    v11 = nid(ii + 1, jj + 1).ravel()
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    boundary = np.zeros(len(nodes), dtype=bool)
    gi = np.arange(len(nodes)) // (ny + 1)
    gj = np.arange(len(nodes)) % (ny + 1)
    boundary[(gi == 0) | (gi == nx) | (gj == 0) | (gj == ny)] = True

    return Mesh(
        nodes=nodes,
        triangles=triangles,
        region_tag=np.full(len(triangles), BACKGROUND_TAG, dtype=np.int64),
        boundary_node=boundary,
        h_max=_compute_h_max(nodes, triangles),
    )


def _check_circles(mesh, circles):
    for k, ck in enumerate(circles):
        if mesh.h_max >= ck.radius:
            raise GeometryError(
                f"mesh size h_max={mesh.h_max:g} must be below circle radius {ck.radius:g}"
            )
        for cj in circles[k + 1:]:
            gap = np.hypot(ck.center[0] - cj.center[0], ck.center[1] - cj.center[1])
            # Tangent circles (gap == r1 + r2) are allowed; only true
            # overlap is rejected.
            if gap < ck.radius + cj.radius - 1e-12:
                raise GeometryError("interface circles must not overlap")


def _half_edges(triangles):
    """The three edges of every triangle as sorted node pairs (a, b), (3m, 2);
    an interior edge appears twice."""
    edges = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )
    edges.sort(axis=1)
    return edges


def _unique_edges(edges, n_nodes):
    """Each distinct sorted node pair once, in lexicographic order; the key
    a * n_nodes + b turns np.unique(edges, axis=0) into a 1-D unique."""
    keys = np.unique(edges[:, 0] * n_nodes + edges[:, 1])
    return np.column_stack([keys // n_nodes, keys % n_nodes])


def _project(points, circle):
    """Radial projection of points (..., 2) onto the circle."""
    c = np.asarray(circle.center)
    q = points - c
    return c + q * (circle.radius / np.hypot(q[..., 0], q[..., 1]))[..., None]


def fit_interfaces(mesh: Mesh, circles) -> Mesh:
    """Radially project nodes near each circle onto it.

    Nodes within SNAP_FRACTION * h_max of a circle move onto the circle.
    A completion pass then snaps the nearer endpoint of every edge that
    still crosses a circle, so no triangle is left straddling an
    interface; without it the region assignment would carry an O(h)
    coefficient error instead of O(h^2).
    If snapping inverts a triangle the snap band (and the completion move
    cap) is halved and the fit is retried; after 4 retries a
    GeometryError is raised.
    """
    if not circles:
        return mesh
    _check_circles(mesh, circles)
    half = _half_edges(mesh.triangles)
    # Node v lies in triangles corner[first[v]:first[v + 1]] // 3.
    corner = np.argsort(mesh.triangles, axis=None, kind="stable")
    first = np.searchsorted(mesh.triangles.ravel()[corner], np.arange(mesh.n_nodes + 1))

    for attempt in range(5):
        scale = 0.5 ** attempt
        band = SNAP_FRACTION * scale * mesh.h_max
        move_cap = scale * mesh.h_max
        nodes = mesh.nodes.copy()
        for circle in circles:
            # band < h_max < radius, so no node in the band sits at the centre.
            near = (np.abs(circle.signed_distance(nodes)) <= band) & ~mesh.boundary_node
            nodes[near] = _project(nodes[near], circle)
        for circle in circles:
            d = circle.signed_distance(nodes)
            crossing = _unique_edges(half[d[half[:, 0]] * d[half[:, 1]] < 0], mesh.n_nodes)
            for a, b in crossing:
                if d[a] * d[b] >= 0:  # resolved by an earlier snap
                    continue
                pick, other = (a, b) if abs(d[a]) <= abs(d[b]) else (b, a)
                for node in (pick, other):
                    # Veto a snap that would put all three vertices of a
                    # triangle on the circle (nearly flat for small arcs).
                    tris = mesh.triangles[corner[first[node]:first[node + 1]] // 3]
                    flattens = ((np.abs(d[tris]) < 1e-12) | (tris == node)).all(axis=1).any()
                    if mesh.boundary_node[node] or abs(d[node]) > move_cap or flattens:
                        continue
                    nodes[node] = _project(nodes[node], circle)
                    d[node] = 0.0
                    break
        candidate = replace(mesh, nodes=nodes, h_max=_compute_h_max(nodes, mesh.triangles))
        if candidate.signed_areas().min() > 0:
            return candidate
    raise GeometryError("interface snapping inverted triangles even after 4 retries")


def classify_regions(mesh: Mesh, circles) -> Mesh:
    """Tag each triangle by the circle whose closed disk holds its centroid.

    Circles get tags 1..k in order; triangles outside every disk keep the
    background tag 0.
    """
    centroids = mesh.centroids()
    tags = np.full(mesh.n_triangles, BACKGROUND_TAG, dtype=np.int64)
    for k, circle in enumerate(circles):
        inside = circle.contains(centroids) & (tags == BACKGROUND_TAG)
        tags[inside] = k + 1
    return replace(mesh, region_tag=tags)


class Locator:
    """Point location in one mesh, with exact barycentric coordinates.

    A uniform background grid lists, for each cell, every triangle whose
    bounding box (widened by far more than the inside tolerance) meets
    the cell, in ascending triangle index, as one padded (cells, K)
    table. Every triangle that holds a point is then a candidate of the
    point's cell, so the first inside candidate is the first inside
    triangle of a full scan, and a point that no candidate holds lies in
    no triangle. A caller builds one for its queries and drops it;
    nothing caches it.
    """

    def __init__(self, mesh):
        if mesh.n_triangles == 0:
            raise GeometryError("cannot locate a point in an empty mesh")
        a, b, c = mesh.triangle_corners()
        self.a = a
        self.e1 = b - a
        self.e2 = c - a
        self.det = _cross2(self.e1, self.e2)

        nodes = mesh.nodes
        cells = max(1, int(np.sqrt(mesh.n_triangles / 2)))
        span = nodes.max(axis=0) - nodes.min(axis=0)
        self.size = np.where(span > 0, span / cells, 1.0)
        # Shifted by half a cell, so the grid lines of a structured mesh
        # of about this size fall mid-cell instead of on the widened
        # bounding boxes (which would put each triangle in 3 x 3 cells).
        self.lo = nodes.min(axis=0) - 0.5 * self.size
        self.ncell = cells + 1
        corners = nodes[mesh.triangles]
        pad = 1e-9 * mesh.h_max
        lo = self._cell_ij(corners.min(axis=1) - pad)
        hi = self._cell_ij(corners.max(axis=1) + pad)
        ny = hi[:, 1] - lo[:, 1] + 1
        count = (hi[:, 0] - lo[:, 0] + 1) * ny
        tri = np.repeat(np.arange(mesh.n_triangles), count)
        k = np.arange(len(tri)) - np.repeat(np.cumsum(count) - count, count)
        cell = (lo[tri, 0] + k // ny[tri]) * self.ncell + lo[tri, 1] + k % ny[tri]
        order = np.argsort(cell, kind="stable")  # ascending triangles per cell
        cell, tri = cell[order], tri[order]
        self.count = np.bincount(cell, minlength=self.ncell ** 2)
        first = np.cumsum(self.count) - self.count
        self.table = np.full((self.ncell ** 2, self.count.max()), -1, dtype=np.int64)
        self.table[cell, np.arange(len(cell)) - first[cell]] = tri

    def _cell_ij(self, points):
        ij = np.floor((points - self.lo) / self.size)
        return np.clip(ij, 0, self.ncell - 1).astype(np.int64)

    def _cells(self, points):
        ij = self._cell_ij(points)
        return ij[..., 0] * self.ncell + ij[..., 1]

    def _bary(self, p, idx):
        d = p - self.a[idx]
        l2 = _cross2(d, self.e2[idx]) / self.det[idx]
        l3 = _cross2(self.e1[idx], d) / self.det[idx]
        l1 = 1.0 - l2 - l3
        return np.stack([l1, l2, l3], axis=-1)


def _outside(p):
    return GeometryError(f"point ({p[0]:.17g}, {p[1]:.17g}) lies in no triangle of the mesh")


def locate_point(locator: Locator, p):
    """(triangle, barycentric (3,)) of the triangle containing p.

    Of several triangles containing p (on shared edges and vertices) the
    smallest index wins. A point that no triangle holds (all barycentric
    coordinates >= -_BARY_TOL) raises GeometryError.
    """
    p = np.asarray(p, dtype=float)
    cell = locator._cells(p)
    idx = locator.table[cell, :locator.count[cell]]
    lam = locator._bary(p, idx)
    inside = np.flatnonzero(lam.min(axis=1) >= -_BARY_TOL)
    if not len(inside):
        raise _outside(p)
    return int(idx[inside[0]]), lam[inside[0]]


# Points per batch in locate_many; bounds its (chunk, K, 3) temporaries.
_LOCATE_CHUNK = 1024


def locate_many(locator: Locator, points):
    """``locate_point`` for an (n, 2) array of points, batched.

    Returns (triangle (n,), barycentric (n, 3)), point by point equal to
    ``locate_point``; the first point that no triangle holds raises.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    tri = np.empty(len(points), dtype=np.int64)
    bary = np.empty((len(points), 3))
    for s in range(0, len(points), _LOCATE_CHUNK):
        p = points[s:s + _LOCATE_CHUNK]
        cand = locator.table[locator._cells(p)]       # (c, K), -1 padded
        lam = locator._bary(p[:, None, :], cand)      # (c, K, 3)
        ok = (cand >= 0) & (lam.min(axis=2) >= -_BARY_TOL)
        pick = ok.argmax(axis=1)
        rows = np.arange(len(p))
        missed = np.flatnonzero(~ok[rows, pick])
        if len(missed):
            raise _outside(p[missed[0]])
        tri[s:s + len(p)] = cand[rows, pick]
        bary[s:s + len(p)] = lam[rows, pick]
    return tri, bary


def barycentric(locator: Locator, triangle_index, points):
    """Barycentric coordinates (n, 3) of points in the given triangles.

    Same arithmetic as ``locate_point``; no inside test, so points may
    lie outside their triangle.
    """
    return locator._bary(np.asarray(points, dtype=float), triangle_index)


def fitted_mesh(domain: Rect, circles, h) -> Mesh:
    """Structured mesh of size h, fitted to and classified by the circles."""
    mesh = generate_structured_mesh(domain, h)
    if circles:
        mesh = fit_interfaces(mesh, circles)
        mesh = classify_regions(mesh, circles)
    return mesh


def write_mesh(mesh: Mesh, path):
    """Write the line-oriented text format (17 significant digit floats)."""
    with open(path, "w") as f:
        f.write("meshfmt 1\n")
        f.write(f"nodes {mesh.n_nodes}\n")
        for (x, y), bnd in zip(mesh.nodes, mesh.boundary_node):
            f.write(f"{x:.17g} {y:.17g} {int(bnd)}\n")
        f.write(f"triangles {mesh.n_triangles}\n")
        for (i, j, k), tag in zip(mesh.triangles, mesh.region_tag):
            f.write(f"{i} {j} {k} {tag}\n")
