"""P1 finite element spaces and assembly.

Fine-mesh stiffness/mass assembly, the nonnested transfer operator built
from coarse-mesh point location, and cross-mesh assembly of the bordered
(augmented-space) blocks in either Galerkin or exact-quadrature mode.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import LinalgError
from .linalg import SparseMatrix
from .mesh import Mesh, barycentric, locate_many, locate_point


@dataclass
class FeSpace:
    """P1 nodal space with Dirichlet boundary nodes eliminated."""

    mesh: Mesh
    free_nodes: np.ndarray   # node indices of the free dofs, ascending
    node_to_dof: np.ndarray  # -1 for boundary nodes

    @property
    def n_dof(self):
        return len(self.free_nodes)


@dataclass(frozen=True)
class Coefficient:
    """Piecewise-constant diffusion coefficient keyed by region tag."""

    values: dict

    def __post_init__(self):
        for tag, v in self.values.items():
            if not v > 0:
                raise LinalgError(f"coefficient for region {tag} must be positive, got {v}")

    def per_triangle(self, mesh):
        tags = mesh.region_tag
        missing = set(np.unique(tags)) - set(self.values)
        if missing:
            raise LinalgError(f"coefficient missing for region tags {sorted(missing)}")
        out = np.empty(len(tags))
        for tag, v in self.values.items():
            out[tags == tag] = v
        return out


@dataclass
class BorderedSystem:
    """Blocks of the (N_H + m)-dimensional augmented eigensystem."""

    A_H: np.ndarray
    a_h: np.ndarray
    alpha: np.ndarray
    B_H: np.ndarray
    b_h: np.ndarray
    beta: np.ndarray

    @property
    def m(self):
        return self.alpha.shape[0]

    def full_stiffness(self):
        return np.block([[self.A_H, self.a_h], [self.a_h.T, self.alpha]])

    def full_mass(self):
        return np.block([[self.B_H, self.b_h], [self.b_h.T, self.beta]])


def build_space(mesh: Mesh) -> FeSpace:
    free = np.flatnonzero(~mesh.boundary_node)
    if len(free) == 0:
        raise LinalgError("mesh has no interior nodes")
    node_to_dof = np.full(mesh.n_nodes, -1, dtype=np.int64)
    node_to_dof[free] = np.arange(len(free))
    return FeSpace(mesh=mesh, free_nodes=free, node_to_dof=node_to_dof)


def _p1_gradients(mesh):
    """Per-triangle constant gradients of the three nodal basis functions.

    Returns (grads, areas) with grads of shape (m, 3, 2).
    """
    a, b, c = mesh.triangle_corners()
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    areas = 0.5 * det
    grads = np.empty((len(det), 3, 2))
    grads[:, 0, 0] = b[:, 1] - c[:, 1]
    grads[:, 0, 1] = c[:, 0] - b[:, 0]
    grads[:, 1, 0] = c[:, 1] - a[:, 1]
    grads[:, 1, 1] = a[:, 0] - c[:, 0]
    grads[:, 2, 0] = a[:, 1] - b[:, 1]
    grads[:, 2, 1] = b[:, 0] - a[:, 0]
    grads /= det[:, None, None]
    return grads, areas


def local_stiffness(tri_coords, k=1.0):
    """3x3 element stiffness for one triangle given as (3, 2) coordinates."""
    a, b, c = tri_coords
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    g = np.array([
        [b[1] - c[1], c[0] - b[0]],
        [c[1] - a[1], a[0] - c[0]],
        [a[1] - b[1], b[0] - a[0]],
    ]) / det
    return 0.5 * det * k * (g @ g.T)


def local_mass(tri_coords):
    """3x3 element mass: |T|/12 * [[2,1,1],[1,2,1],[1,1,2]]."""
    a, b, c = tri_coords
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    area = 0.5 * det
    return area / 12.0 * (np.ones((3, 3)) + np.eye(3))


def _scatter(mesh, local, dof_map, n):
    """Accumulate (m, 3, 3) element matrices into a CSR on the given dofs."""
    tri_dofs = dof_map[mesh.triangles]  # (m, 3), -1 for eliminated rows
    rows = np.repeat(tri_dofs, 3, axis=1).ravel()
    cols = np.tile(tri_dofs, (1, 3)).ravel()
    vals = local.reshape(len(local), 9).ravel()
    keep = (rows >= 0) & (cols >= 0)
    coo = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n))
    return SparseMatrix(coo.tocsr())


def assemble_stiffness(space: FeSpace, coeff: Coefficient) -> SparseMatrix:
    """Stiffness matrix on free dofs; P1 gradients are integrated exactly."""
    mesh = space.mesh
    k = coeff.per_triangle(mesh)
    grads, areas = _p1_gradients(mesh)
    local = (k * areas)[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)
    return _scatter(mesh, local, space.node_to_dof, space.n_dof)


def assemble_mass(space: FeSpace) -> SparseMatrix:
    """Consistent P1 mass matrix on free dofs (exact integration)."""
    mesh = space.mesh
    _, areas = _p1_gradients(mesh)
    pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = areas[:, None, None] * pattern
    return _scatter(mesh, local, space.node_to_dof, space.n_dof)


def assemble_mass_full(mesh: Mesh) -> SparseMatrix:
    """Mass matrix over all nodes, boundary included (used for checks)."""
    _, areas = _p1_gradients(mesh)
    pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = areas[:, None, None] * pattern
    return _scatter(mesh, local, np.arange(mesh.n_nodes), mesh.n_nodes)


def a_norm(A, v):
    """Energy norm sqrt(v^T A v); rejects radicands below -1e-14."""
    v = np.asarray(v)
    Av = A.csr @ v if isinstance(A, SparseMatrix) else np.asarray(A) @ v
    q = float(v @ Av)
    if q < -1e-14:
        raise LinalgError(f"negative radicand {q:g}: matrix is not SPD")
    return np.sqrt(max(q, 0.0))


b_norm = a_norm


def build_transfer(coarse: FeSpace, fine: FeSpace) -> sp.csr_matrix:
    """Sparse N_fine x N_coarse interpolation matrix.

    Entry (f, c) is the value of the c-th coarse basis function at the
    f-th fine node: each fine free node is located in the coarse mesh and
    its row holds the barycentric weights of the coarse free vertices
    there (at most 3 nonzeros). Clamped (snapped-to-nearest) locations
    are permitted.
    """
    cmesh = coarse.mesh
    rows, cols, vals = [], [], []
    for f_dof, node in enumerate(fine.free_nodes):
        res = locate_point(cmesh, fine.mesh.nodes[node])
        verts = cmesh.triangles[res.triangle_index]
        for v, w in zip(verts, res.barycentric):
            c_dof = coarse.node_to_dof[v]
            if c_dof >= 0 and w != 0.0:
                rows.append(f_dof)
                cols.append(c_dof)
                vals.append(w)
    P = sp.coo_matrix((vals, (rows, cols)), shape=(fine.n_dof, coarse.n_dof))
    return P.tocsr()


def _csr(rows, cols, vals, shape):
    """CSR from broadcastable (rows, cols, vals); columns < 0 are dropped."""
    rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
    keep = cols >= 0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape)


class CrossAssembler:
    """Bordered-system assembly for a fixed (coarse, fine) space pair.

    The coarse blocks A_H, B_H do not depend on the augmenting fine
    functions and are built once, as are exact mode's border operators;
    each call assembles only the border column/corner blocks.
    """

    def __init__(self, coarse, fine, coeff, A_h, B_h, transfer, mode="galerkin"):
        if mode not in ("galerkin", "exact"):
            raise LinalgError(f"unknown cross-assembly mode {mode!r}")
        self.coarse = coarse
        self.fine = fine
        self.coeff = coeff
        self.A_h = A_h
        self.B_h = B_h
        self.P = transfer
        self.mode = mode
        if mode == "galerkin":
            self.A_H = (self.P.T @ (A_h.csr @ self.P)).toarray()
            self.B_H = (self.P.T @ (B_h.csr @ self.P)).toarray()
        else:
            self.A_H, self.B_H, self._C_A, self._C_B = self._exact_operators()
        self.A_H = 0.5 * (self.A_H + self.A_H.T)
        self.B_H = 0.5 * (self.B_H + self.B_H.T)

    # -- exact mode -----------------------------------------------------

    def _exact_operators(self):
        """(A_H, B_H, C_A, C_B) by quadrature on the fine mesh.

        The rule is the edge midpoints of every fine triangle (degree-2
        exact), weight |T|/3, one row per (triangle, edge). Phi, Gx and Gy
        map coarse dofs to the coarse basis values and gradients at those
        points, so A_H = Gx^T W_k Gx + Gy^T W_k Gy and B_H = Phi^T W Phi.
        Dx, Dy and Mid map fine dofs to the fine P1 gradient and value at
        the same points, which folds the border into a_h = C_A U and
        b_h = C_B U with C_A = Gx^T W_k Dx + Gy^T W_k Dy, C_B = Phi^T W Mid.

        Coarse gradients jump across coarse edges, and quadrature points
        can sit exactly on such an edge, so each point is located after a
        nudge toward the centroid of its fine triangle: the gradient comes
        from the coarse triangle that contains the fine one. Basis values
        are continuous there and are evaluated at the true point.
        """
        fmesh, cmesh = self.fine.mesh, self.coarse.mesh
        a, b, c = fmesh.triangle_corners()
        mids = np.stack([(a + b) / 2, (b + c) / 2, (c + a) / 2], axis=1).reshape(-1, 2)
        anchors = np.repeat(fmesh.centroids(), 3, axis=0)
        tri, _, _ = locate_many(cmesh, mids + 1e-6 * (anchors - mids))
        cgrads, _ = _p1_gradients(cmesh)
        cgrads = cgrads[tri]

        n_q = len(mids)
        rows = np.arange(n_q)[:, None]
        cdofs = self.coarse.node_to_dof[cmesh.triangles[tri]]
        coarse_shape = (n_q, self.coarse.n_dof)
        Phi = _csr(rows, cdofs, barycentric(cmesh, tri, mids), coarse_shape)
        Gx = _csr(rows, cdofs, cgrads[..., 0], coarse_shape)
        Gy = _csr(rows, cdofs, cgrads[..., 1], coarse_shape)

        fgrads, _ = _p1_gradients(fmesh)
        fdofs = self.fine.node_to_dof[fmesh.triangles]
        frows = rows.reshape(-1, 3, 1)
        fine_shape = (n_q, self.fine.n_dof)
        Dx = _csr(frows, fdofs[:, None, :], fgrads[:, None, :, 0], fine_shape)
        Dy = _csr(frows, fdofs[:, None, :], fgrads[:, None, :, 1], fine_shape)
        Mid = _csr(frows, fdofs[:, [[0, 1], [1, 2], [2, 0]]], 0.5, fine_shape)

        w = np.repeat(fmesh.signed_areas() / 3.0, 3)
        W = sp.diags(w)
        W_k = sp.diags(w * np.repeat(self.coeff.per_triangle(fmesh), 3))
        return (
            (Gx.T @ W_k @ Gx + Gy.T @ W_k @ Gy).toarray(),
            (Phi.T @ W @ Phi).toarray(),
            (Gx.T @ W_k @ Dx + Gy.T @ W_k @ Dy).tocsr(),
            (Phi.T @ W @ Mid).tocsr(),
        )

    # -- shared ----------------------------------------------------------

    def assemble(self, u_tilde) -> BorderedSystem:
        """Build the bordered system for the given fine block u_tilde."""
        U = np.atleast_2d(np.asarray(u_tilde, dtype=float))
        if U.shape[0] != self.fine.n_dof:
            U = U.T
        if U.shape[0] != self.fine.n_dof:
            raise LinalgError("u_tilde dimension does not match the fine space")

        AU = self.A_h.csr @ U
        BU = self.B_h.csr @ U
        alpha = U.T @ AU
        beta = U.T @ BU
        if self.mode == "galerkin":
            a_h = self.P.T @ AU
            b_h = self.P.T @ BU
        else:
            a_h = self._C_A @ U
            b_h = self._C_B @ U

        sys = BorderedSystem(
            A_H=self.A_H, a_h=a_h, alpha=0.5 * (alpha + alpha.T),
            B_H=self.B_H, b_h=b_h, beta=0.5 * (beta + beta.T),
        )
        try:
            np.linalg.cholesky(sys.full_mass())
        except np.linalg.LinAlgError:
            raise LinalgError(
                "bordered mass matrix is not SPD: u_tilde columns are not independent"
            ) from None
        return sys


def assemble_cross(coarse, fine, coeff, u_tilde, mode="galerkin",
                   A_h=None, B_h=None, transfer=None) -> BorderedSystem:
    """One-shot bordered assembly; see CrossAssembler for the cached form."""
    if A_h is None:
        A_h = assemble_stiffness(fine, coeff)
    if B_h is None:
        B_h = assemble_mass(fine)
    if transfer is None:
        transfer = build_transfer(coarse, fine)
    return CrossAssembler(coarse, fine, coeff, A_h, B_h, transfer, mode).assemble(u_tilde)
