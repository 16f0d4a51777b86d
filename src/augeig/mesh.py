"""2D interface-fitted triangulations.

Structured right-triangle meshes over a rectangle, node snapping onto
circular material interfaces, region classification, point location and a
line-oriented mesh file format.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GeometryError, MeshFormatError

BACKGROUND_TAG = 0

# Fraction of h_max used as the snap band around each interface circle.
DEFAULT_SNAP_FRACTION = 0.45

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


@dataclass
class Mesh:
    """Triangulation with region tags and boundary/interface node flags.

    Treated as immutable after construction; operations that modify a mesh
    return a new instance.
    """

    nodes: np.ndarray        # (n, 2) float64
    triangles: np.ndarray    # (m, 3) int, counterclockwise
    region_tag: np.ndarray   # (m,) int
    boundary_node: np.ndarray   # (n,) bool
    interface_node: np.ndarray  # (n,) bool
    h_max: float
    _locator: "object" = field(default=None, repr=False, compare=False)

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


@dataclass(frozen=True)
class LocateResult:
    triangle_index: int
    barycentric: np.ndarray  # 3 nonnegative reals summing to 1
    status: str              # "inside" | "snapped-to-nearest"


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
        interface_node=np.zeros(len(nodes), dtype=bool),
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


def _unique_edges(triangles):
    edges = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )
    edges.sort(axis=1)
    return np.unique(edges, axis=0)


def fit_interfaces(mesh: Mesh, circles, snap_fraction=DEFAULT_SNAP_FRACTION) -> Mesh:
    """Radially project nodes near each circle onto it.

    Nodes within snap_fraction * h_max of a circle move onto the circle.
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
    edges = _unique_edges(mesh.triangles)

    frac = snap_fraction
    cap_scale = 1.0
    for _attempt in range(5):
        nodes = mesh.nodes.copy()
        on_interface = np.zeros(mesh.n_nodes, dtype=bool)
        band = frac * mesh.h_max
        move_cap = cap_scale * mesh.h_max
        for circle in circles:
            cx, cy = circle.center
            dx = nodes[:, 0] - cx
            dy = nodes[:, 1] - cy
            dist = np.hypot(dx, dy)
            near = (np.abs(dist - circle.radius) <= band) & ~mesh.boundary_node & (dist > 0)
            scale = circle.radius / dist[near]
            nodes[near, 0] = cx + dx[near] * scale
            nodes[near, 1] = cy + dy[near] * scale
            on_interface |= near
        for circle in circles:
            cx, cy = circle.center
            d = np.hypot(nodes[:, 0] - cx, nodes[:, 1] - cy) - circle.radius
            da, db = d[edges[:, 0]], d[edges[:, 1]]
            crossing = np.flatnonzero(da * db < 0)
            if len(crossing) == 0:
                continue
            # Incidence map for the nodes involved, to veto snaps that
            # would put all three vertices of a triangle on the circle
            # (such inscribed triangles are nearly flat for small arcs).
            cand = np.unique(edges[crossing])
            tri_mask = np.isin(mesh.triangles, cand).any(axis=1)
            incident = {}
            for tri in mesh.triangles[tri_mask]:
                for v in tri:
                    incident.setdefault(int(v), []).append(tri)

            def flattens(node):
                for tri in incident.get(int(node), []):
                    if all(abs(d[v]) < 1e-12 for v in tri if v != node):
                        return True
                return False

            for a, b in edges[crossing]:
                if d[a] * d[b] >= 0:  # resolved by an earlier snap
                    continue
                pick, other = (a, b) if abs(d[a]) <= abs(d[b]) else (b, a)
                for node in (pick, other):
                    if (mesh.boundary_node[node] or abs(d[node]) > move_cap
                            or flattens(node)):
                        continue
                    r = np.hypot(nodes[node, 0] - cx, nodes[node, 1] - cy)
                    scale = circle.radius / r
                    nodes[node, 0] = cx + (nodes[node, 0] - cx) * scale
                    nodes[node, 1] = cy + (nodes[node, 1] - cy) * scale
                    d[node] = 0.0
                    on_interface[node] = True
                    break
        candidate = Mesh(
            nodes=nodes,
            triangles=mesh.triangles,
            region_tag=mesh.region_tag.copy(),
            boundary_node=mesh.boundary_node.copy(),
            interface_node=on_interface,
            h_max=_compute_h_max(nodes, mesh.triangles),
        )
        if candidate.signed_areas().min() > 0:
            return candidate
        frac /= 2.0
        cap_scale /= 2.0
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
    return replace(mesh, region_tag=tags, _locator=None)


class _Locator:
    """Point location with exact barycentric coordinates.

    A uniform background grid lists, for each cell, every triangle whose
    bounding box (widened by far more than the inside tolerance) meets
    the cell, in ascending triangle index, as one padded (cells, K)
    table. Every triangle that holds a point is then a candidate of the
    point's cell, so the first inside candidate is the first inside
    triangle of a full scan. Points that no triangle holds are clamped
    by a full scan.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        a, b, c = mesh.triangle_corners()
        self.a = a
        self.e1 = b - a
        self.e2 = c - a
        self.det = _cross2(self.e1, self.e2)
        self._build_grid()

    def _build_grid(self):
        nodes = self.mesh.nodes
        cells = max(1, int(np.sqrt(self.mesh.n_triangles / 2)))
        span = nodes.max(axis=0) - nodes.min(axis=0)
        self.size = np.where(span > 0, span / cells, 1.0)
        # Shifted by half a cell, so the grid lines of a structured mesh
        # of about this size fall mid-cell instead of on the widened
        # bounding boxes (which would put each triangle in 3 x 3 cells).
        self.lo = nodes.min(axis=0) - 0.5 * self.size
        self.ncell = cells + 1
        corners = nodes[self.mesh.triangles]
        pad = 1e-9 * self.mesh.h_max
        lo = self._cell_ij(corners.min(axis=1) - pad)
        hi = self._cell_ij(corners.max(axis=1) + pad)
        ny = hi[:, 1] - lo[:, 1] + 1
        count = (hi[:, 0] - lo[:, 0] + 1) * ny
        tri = np.repeat(np.arange(self.mesh.n_triangles), count)
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

    def locate(self, p):
        p = np.asarray(p, dtype=float)
        cell = self._cells(p)
        idx = self.table[cell, :self.count[cell]]
        lam = self._bary(p, idx)
        inside = np.flatnonzero(lam.min(axis=1) >= -_BARY_TOL)
        if len(inside):
            return LocateResult(int(idx[inside[0]]), lam[inside[0]], "inside")
        return LocateResult(*self._clamp(p), "snapped-to-nearest")

    def _clamp(self, p):
        """(triangle, barycentric) with the smallest barycentric violation,
        the first on ties, coordinates clipped to >= 0 and renormalised."""
        lam = self._bary(p, np.arange(self.mesh.n_triangles))
        best = int(np.argmin(-lam.min(axis=1)))
        clipped = np.clip(lam[best], 0.0, None)
        return best, clipped / clipped.sum()

    def locate_many(self, points):
        n = len(points)
        tri = np.empty(n, dtype=np.int64)
        bary = np.empty((n, 3))
        inside = np.ones(n, dtype=bool)
        for s in range(0, n, _LOCATE_CHUNK):
            p = points[s:s + _LOCATE_CHUNK]
            cand = self.table[self._cells(p)]            # (c, K), -1 padded
            lam = self._bary(p[:, None, :], cand)        # (c, K, 3)
            ok = (cand >= 0) & (lam.min(axis=2) >= -_BARY_TOL)
            pick = ok.argmax(axis=1)
            rows = np.arange(len(p))
            tri[s:s + len(p)] = cand[rows, pick]
            bary[s:s + len(p)] = lam[rows, pick]
            for i in np.flatnonzero(~ok[rows, pick]):
                tri[s + i], bary[s + i] = self._clamp(p[i])
                inside[s + i] = False
        return tri, bary, inside


# Points per batch in locate_many; bounds its (chunk, K, 3) temporaries.
_LOCATE_CHUNK = 1024


def _locator(mesh):
    if mesh.n_triangles == 0:
        raise GeometryError("cannot locate a point in an empty mesh")
    if mesh._locator is None:
        mesh._locator = _Locator(mesh)
    return mesh._locator


def locate_point(mesh: Mesh, p) -> LocateResult:
    """Find the triangle containing p, or the nearest one if p is outside.

    Of several triangles containing p (on shared edges and vertices) the
    smallest index wins. Total function: outside points are clamped to
    the triangle with the smallest barycentric violation, ties broken by
    smallest triangle index.
    """
    return _locator(mesh).locate(p)


def locate_many(mesh: Mesh, points):
    """``locate_point`` for an (n, 2) array of points, batched.

    Returns (triangle_index (n,), barycentric (n, 3), inside (n,) bool),
    point by point equal to ``locate_point``; ``inside`` is False where
    its status is "snapped-to-nearest".
    """
    return _locator(mesh).locate_many(np.asarray(points, dtype=float).reshape(-1, 2))


def barycentric(mesh: Mesh, triangle_index, points):
    """Barycentric coordinates (n, 3) of points in the given triangles.

    Same arithmetic as ``locate_point``; no inside test, so points may
    lie outside their triangle.
    """
    return _locator(mesh)._bary(np.asarray(points, dtype=float), triangle_index)


def fitted_mesh(domain: Rect, circles, h, snap_fraction=DEFAULT_SNAP_FRACTION) -> Mesh:
    """Structured mesh of size h, fitted to and classified by the circles."""
    mesh = generate_structured_mesh(domain, h)
    if circles:
        mesh = fit_interfaces(mesh, circles, snap_fraction=snap_fraction)
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


def read_mesh(path) -> Mesh:
    """Parse a mesh file; raises MeshFormatError with a line number."""
    with open(path) as f:
        lines = f.read().splitlines()

    pos = 0

    def next_line():
        nonlocal pos
        if pos >= len(lines):
            raise MeshFormatError(pos + 1, "unexpected end of file")
        pos += 1
        return lines[pos - 1]

    if next_line().strip() != "meshfmt 1":
        raise MeshFormatError(1, "expected header 'meshfmt 1'")

    header = next_line().split()
    if len(header) != 2 or header[0] != "nodes":
        raise MeshFormatError(pos, "expected 'nodes N'")
    try:
        n_nodes = int(header[1])
    except ValueError:
        raise MeshFormatError(pos, f"bad node count {header[1]!r}") from None

    nodes = np.empty((n_nodes, 2))
    boundary = np.empty(n_nodes, dtype=bool)
    for i in range(n_nodes):
        parts = next_line().split()
        if len(parts) != 3:
            raise MeshFormatError(pos, "expected 'x y boundary_flag'")
        try:
            nodes[i, 0] = float(parts[0])
            nodes[i, 1] = float(parts[1])
            boundary[i] = bool(int(parts[2]))
        except ValueError:
            raise MeshFormatError(pos, f"bad node line {lines[pos - 1]!r}") from None

    header = next_line().split()
    if len(header) != 2 or header[0] != "triangles":
        raise MeshFormatError(pos, "expected 'triangles M'")
    try:
        n_tri = int(header[1])
    except ValueError:
        raise MeshFormatError(pos, f"bad triangle count {header[1]!r}") from None

    triangles = np.empty((n_tri, 3), dtype=np.int64)
    tags = np.empty(n_tri, dtype=np.int64)
    for i in range(n_tri):
        parts = next_line().split()
        if len(parts) != 4:
            raise MeshFormatError(pos, "expected 'i j k region_tag'")
        try:
            triangles[i] = [int(parts[0]), int(parts[1]), int(parts[2])]
            tags[i] = int(parts[3])
        except ValueError:
            raise MeshFormatError(pos, f"bad triangle line {lines[pos - 1]!r}") from None
        if triangles[i].min() < 0 or triangles[i].max() >= n_nodes:
            raise MeshFormatError(pos, "triangle references a node index out of range")

    return Mesh(
        nodes=nodes,
        triangles=triangles,
        region_tag=tags,
        boundary_node=boundary,
        interface_node=np.zeros(n_nodes, dtype=bool),
        h_max=_compute_h_max(nodes, triangles),
    )


def meshes_equal(m1: Mesh, m2: Mesh) -> bool:
    """Bit-exact equality of coordinates, connectivity, tags and flags."""
    return (
        np.array_equal(m1.nodes, m2.nodes)
        and np.array_equal(m1.triangles, m2.triangles)
        and np.array_equal(m1.region_tag, m2.region_tag)
        and np.array_equal(m1.boundary_node, m2.boundary_node)
    )
