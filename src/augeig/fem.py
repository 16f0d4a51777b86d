"""P1 finite element spaces and assembly.

Fine-mesh stiffness/mass assembly, the nonnested transfer operator built
from coarse-mesh point location, and cross-mesh assembly of the bordered
(augmented-space) blocks in either Galerkin or exact-quadrature mode.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import GeometryError, LinalgError
from .linalg import SparseMatrix
from .mesh import Locator, Mesh, barycentric, locate_many, locate_point

# A step is rejected when lambda_min(S_K) <= _SCHUR_TOL * max diag(alpha),
# S_K = alpha - a_h^T A_H^-1 a_h: healthy steps read 2.4e-3 or more, repeated
# columns 0.
_SCHUR_TOL = 1e-10


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
    """Blocks of the (N_H + m)-dimensional augmented eigensystem
    K = [[A_H, a_h], [a_h^T, alpha]], M = [[B_H, b_h], [b_h^T, beta]];
    A_H, B_H sparse. A_H_lu factors A_H, Y = A_H^-1 a_h, and
    S_K = alpha - a_h^T Y is K's m x m Schur complement.
    """

    A_H: sp.csr_matrix
    a_h: np.ndarray
    alpha: np.ndarray
    B_H: sp.csr_matrix
    b_h: np.ndarray
    beta: np.ndarray
    A_H_lu: object
    Y: np.ndarray
    S_K: np.ndarray

    @property
    def m(self):
        return self.alpha.shape[0]

    @classmethod
    def from_blocks(cls, A_H, a_h, alpha, B_H, b_h, beta, A_H_lu):
        """The system of these blocks, alpha and beta symmetrized, on
        A_H_lu, a sparse LU factor of A_H.

        With A_H SPD, K is SPD exactly when S_K is, and so is M: K and M are
        Gram matrices of the same functions. The border is rejected when
        lambda_min(S_K) <= _SCHUR_TOL * max diag(alpha).
        """
        alpha = 0.5 * (alpha + alpha.T)
        Y = A_H_lu.solve(a_h)
        S_K = alpha - a_h.T @ Y
        S_K = 0.5 * (S_K + S_K.T)
        if np.linalg.eigvalsh(S_K)[0] <= _SCHUR_TOL * np.diag(alpha).max():
            raise LinalgError("bordered stiffness matrix is not SPD: "
                              "u_tilde columns are not independent")
        return cls(A_H=A_H, a_h=a_h, alpha=alpha, B_H=B_H, b_h=b_h,
                   beta=0.5 * (beta + beta.T), A_H_lu=A_H_lu, Y=Y, S_K=S_K)


def build_space(mesh: Mesh) -> FeSpace:
    free = np.flatnonzero(~mesh.boundary_node)
    if len(free) == 0:
        raise GeometryError("mesh has no interior nodes")
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


def _basis_at(space: FeSpace, tri, values) -> sp.csr_matrix:
    """Sparse (n, N) matrix whose row i holds values[i] (n, 3) at the free
    dofs of triangle tri[i]'s vertices; zero values are dropped."""
    dofs = space.node_to_dof[space.mesh.triangles[tri]]
    rows = np.broadcast_to(np.arange(len(dofs))[:, None], dofs.shape)
    keep = (dofs >= 0) & (values != 0.0)
    return sp.csr_matrix((values[keep], (rows[keep], dofs[keep])),
                         shape=(len(dofs), space.n_dof))


def build_transfer(coarse: FeSpace, fine: FeSpace) -> sp.csr_matrix:
    """Sparse N_fine x N_coarse interpolation matrix.

    Entry (f, c) is the value of the c-th coarse basis function at the
    f-th fine node: each fine free node is located in the coarse mesh and
    its row holds the barycentric weights of the coarse free vertices
    there (at most 3 nonzeros). A fine node outside the coarse mesh
    raises GeometryError.
    """
    locator = Locator(coarse.mesh)
    points = fine.mesh.nodes[fine.free_nodes]
    tri, bary = np.empty(len(points), dtype=np.int64), np.empty((len(points), 3))
    for i, p in enumerate(points):
        tri[i], bary[i] = locate_point(locator, p)
    return _basis_at(coarse, tri, bary)


class CrossAssembler:
    """Bordered-system assembly for a fixed (coarse, fine) space pair.

    The coarse blocks A_H, B_H (symmetric CSR), A_H's factor and exact
    mode's border operators do not depend on the augmenting fine functions
    and are built once; each call assembles only the border blocks and
    their Schur complement on that factor.
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
            A_H = self.P.T @ (A_h.csr @ self.P)
            B_H = self.P.T @ (B_h.csr @ self.P)
        else:
            A_H, B_H, self._C_A, self._C_B = self._exact_operators()
        self.A_H = (0.5 * (A_H + A_H.T)).tocsr()
        self.B_H = (0.5 * (B_H + B_H.T)).tocsr()
        try:  # symmetric ordering, diagonal pivots: an LDL^T, all pivots > 0 iff SPD
            lu = splu(self.A_H.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
            spd = np.array_equal(lu.perm_r, lu.perm_c) and lu.U.diagonal().min() > 0.0
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            spd = False
        if not spd:
            raise LinalgError("coarse stiffness matrix is not SPD")
        self._A_H_lu = lu

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
        locator = Locator(cmesh)
        tri, _ = locate_many(locator, mids + 1e-6 * (anchors - mids))
        cgrads, _ = _p1_gradients(cmesh)
        cgrads = cgrads[tri]

        Phi = _basis_at(self.coarse, tri, barycentric(locator, tri, mids))
        Gx = _basis_at(self.coarse, tri, cgrads[..., 0])
        Gy = _basis_at(self.coarse, tri, cgrads[..., 1])

        # Row (t, e) of Dx, Dy holds fine triangle t's basis gradients, and
        # of Mid the value 1/2 at both ends of its edge e.
        fgrads, _ = _p1_gradients(fmesh)
        ftri = np.repeat(np.arange(fmesh.n_triangles), 3)
        Dx = _basis_at(self.fine, ftri, fgrads[ftri, :, 0])
        Dy = _basis_at(self.fine, ftri, fgrads[ftri, :, 1])
        mid = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        Mid = _basis_at(self.fine, ftri, np.tile(mid, (fmesh.n_triangles, 1)))

        w = np.repeat(fmesh.signed_areas() / 3.0, 3)
        W = sp.diags(w)
        W_k = sp.diags(w * np.repeat(self.coeff.per_triangle(fmesh), 3))
        return (
            Gx.T @ W_k @ Gx + Gy.T @ W_k @ Gy,
            Phi.T @ W @ Phi,
            (Gx.T @ W_k @ Dx + Gy.T @ W_k @ Dy).tocsr(),
            (Phi.T @ W @ Mid).tocsr(),
        )

    # -- shared ----------------------------------------------------------

    def assemble(self, U) -> BorderedSystem:
        """Build the bordered system for the fine block U, (n_dof, m)."""
        if np.ndim(U) != 2 or U.shape[0] != self.fine.n_dof:
            raise LinalgError(f"border block of shape {np.shape(U)} is not "
                              f"({self.fine.n_dof}, m)")

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

        return BorderedSystem.from_blocks(self.A_H, a_h, alpha, self.B_H, b_h, beta,
                                          self._A_H_lu)
