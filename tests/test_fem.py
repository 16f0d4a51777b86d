"""Element matrices, assembly, transfer operators and bordered assembly."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from augeig import harness
from augeig.errors import LinalgError
from augeig.fem import (
    Coefficient,
    CrossAssembler,
    assemble_mass,
    assemble_stiffness,
    build_space,
    build_transfer,
)
from augeig.linalg import SparseMatrix, a_norm
from augeig.mesh import Locator, Rect, generate_structured_mesh, locate_point

from conftest import fitted_mesh, full_scan_locate, local_stiffness

UNIT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


# -- element matrices ------------------------------------------------------

def test_local_stiffness_unit_triangle():
    K = local_stiffness(UNIT_TRI)
    expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], dtype=float)
    assert np.allclose(K, expected, atol=1e-14)


def test_local_stiffness_coefficient_and_translation():
    K1 = local_stiffness(UNIT_TRI, k=3.5)
    K2 = local_stiffness(UNIT_TRI + np.array([5.0, -2.0]), k=1.0)
    assert np.allclose(K1, 3.5 * local_stiffness(UNIT_TRI), atol=1e-14)
    assert np.allclose(K2, local_stiffness(UNIT_TRI), atol=1e-13)


def test_local_stiffness_rows_sum_to_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        tri = rng.random((3, 2))
        u, v = tri[1] - tri[0], tri[2] - tri[0]
        if u[0] * v[1] - u[1] * v[0] < 1e-3:
            continue
        K = local_stiffness(tri)
        assert np.abs(K.sum(axis=1)).max() < 1e-12  # constants are in the kernel


# -- coefficients ----------------------------------------------------------

def test_coefficient_validation():
    with pytest.raises(LinalgError):
        Coefficient({0: 0.0})
    with pytest.raises(LinalgError):
        Coefficient({0: -1.0})


def test_coefficient_per_triangle(ex1):
    mesh = fitted_mesh(ex1, 2 / 17)
    k = ex1.coefficient().per_triangle(mesh)
    assert np.array_equal(k == 10.0, mesh.region_tag > 0)
    with pytest.raises(LinalgError):
        Coefficient({0: 1.0}).per_triangle(mesh)  # tags 1, 2 missing


# -- global assembly -------------------------------------------------------

def test_mass_integrates_constants():
    # With no boundary nodes every node is a dof, so 1^T M 1 is the area.
    mesh = generate_structured_mesh(Rect(0, 0, 2, 2), 0.25)
    mesh = dataclasses.replace(mesh, boundary_node=np.zeros(mesh.n_nodes, dtype=bool))
    M = assemble_mass(build_space(mesh))
    ones = np.ones(mesh.n_nodes)
    assert abs(ones @ (M.csr @ ones) - 4.0) < 1e-12


def test_stiffness_symmetric_positive(ex1):
    mesh = fitted_mesh(ex1, 2 / 17)
    space = build_space(mesh)
    A = assemble_stiffness(space, ex1.coefficient())
    assert (abs(A.csr - A.csr.T)).nnz == 0
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(space.n_dof)
        assert v @ (A.csr @ v) > 0


def test_stiffness_matches_dense_reference():
    # Tiny mesh assembled independently from element matrices.
    mesh = generate_structured_mesh(Rect(0, 0, 2, 2), 0.5)
    space = build_space(mesh)
    coeff = Coefficient({0: 1.0})
    A = assemble_stiffness(space, coeff).csr.toarray()
    dense = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for tri in mesh.triangles:
        K = local_stiffness(mesh.nodes[tri])
        dense[np.ix_(tri, tri)] += K
    free = space.free_nodes
    assert np.allclose(A, dense[np.ix_(free, free)], atol=1e-13)


def test_a_norm_rejects_indefinite():
    A = SparseMatrix(sp.identity(4, format="csr") * -1.0)
    with pytest.raises(LinalgError):
        a_norm(A, np.ones(4))


# -- transfer operator -----------------------------------------------------

def test_transfer_identity_on_same_mesh():
    space = build_space(generate_structured_mesh(Rect(0, 0, 2, 2), 0.5))
    P = build_transfer(space, space)
    assert (abs(P - sp.identity(space.n_dof, format="csr"))).nnz == 0


def test_transfer_nested_interpolation_oracle():
    """On nested structured grids, rows interpolate the coarse hat functions.

    Every fine node is a coarse node or a coarse edge midpoint, so the
    interpolated values of g(x,y) = x(2-x)y(2-y) have a closed form.
    """
    H, h = 0.5, 0.25
    coarse = build_space(generate_structured_mesh(Rect(0, 0, 2, 2), H))
    fine = build_space(generate_structured_mesh(Rect(0, 0, 2, 2), h))
    P = build_transfer(coarse, fine)

    def g(p):
        return p[..., 0] * (2 - p[..., 0]) * p[..., 1] * (2 - p[..., 1])

    got = P @ g(coarse.mesh.nodes[coarse.free_nodes])
    expected = np.empty(fine.n_dof)
    for i, node in enumerate(fine.free_nodes):
        x, y = fine.mesh.nodes[node]
        on_x = abs(round(x / H) * H - x) < 1e-12
        on_y = abs(round(y / H) * H - y) < 1e-12
        if on_x and on_y:
            expected[i] = g(np.array([x, y]))
        elif on_y:  # midpoint of a horizontal coarse edge
            expected[i] = 0.5 * (g(np.array([x - h, y])) + g(np.array([x + h, y])))
        elif on_x:  # midpoint of a vertical coarse edge
            expected[i] = 0.5 * (g(np.array([x, y - h])) + g(np.array([x, y + h])))
        else:       # cell center: midpoint of the coarse diagonal edge
            expected[i] = 0.5 * (g(np.array([x - h, y - h])) + g(np.array([x + h, y + h])))
    assert np.abs(got - expected).max() < 1e-12


def test_transfer_partition_of_unity(ex1):
    coarse = build_space(fitted_mesh(ex1, 2 / 17))
    fine = build_space(fitted_mesh(ex1, 2 / 34))
    P = build_transfer(coarse, fine)
    sums = np.asarray(P.sum(axis=1)).ravel()
    assert sums.min() > -1e-12 and sums.max() < 1 + 1e-12
    pts = fine.mesh.nodes[fine.free_nodes]
    dom = ex1.domain
    dist = np.minimum.reduce([
        pts[:, 0] - dom.x0, dom.x1 - pts[:, 0],
        pts[:, 1] - dom.y0, dom.y1 - pts[:, 1],
    ])
    interior = dist > coarse.mesh.h_max
    assert interior.any()
    assert np.abs(sums[interior] - 1.0).max() < 1e-12


@pytest.mark.parametrize("coarse_h, fine_h", [(2 / 17, 2 / 19), (2 / 19, 2 / 38)])
def test_transfer_matches_full_scan_oracle(ex1, coarse_h, fine_h):
    coarse = build_space(fitted_mesh(ex1, coarse_h))
    fine = build_space(fitted_mesh(ex1, fine_h))
    tri, bary, _ = full_scan_locate(coarse.mesh, fine.mesh.nodes[fine.free_nodes])
    want = np.zeros((fine.n_dof, coarse.n_dof))
    for f, (t, lam) in enumerate(zip(tri, bary)):
        for v, w in zip(coarse.mesh.triangles[t], lam):
            if coarse.node_to_dof[v] >= 0:
                want[f, coarse.node_to_dof[v]] = w
    P = build_transfer(coarse, fine)
    assert P.nnz == np.count_nonzero(want)  # no stored zeros
    assert np.array_equal(P.toarray(), want)


# -- bordered (augmented-space) assembly -----------------------------------

def _orthonormal_block(A_h, n, m, seed=0):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((n, m))
    for j in range(m):
        for i in range(j):
            U[:, j] -= (U[:, i] @ (A_h.csr @ U[:, j])) * U[:, i]
        U[:, j] /= a_norm(A_h, U[:, j])
    return U


def test_bordered_blocks_galerkin(square_pair):
    sp_ = square_pair
    U = _orthonormal_block(sp_["A_h"], sp_["fine"].n_dof, 2)
    sys = sp_["assembler"].assemble(U)
    P = sp_["P"]
    assert np.allclose(sys.A_H.toarray(), (P.T @ (sp_["A_h"].csr @ P)).toarray(), atol=1e-12)
    assert np.allclose(sys.alpha, np.eye(2), atol=1e-10)
    K = sys.full_stiffness().toarray()
    assert np.allclose(K, K.T)
    np.linalg.cholesky(sys.full_mass().toarray())  # SPD


def test_bordered_rejects_dependent_columns(square_pair):
    sp_ = square_pair
    u = _orthonormal_block(sp_["A_h"], sp_["fine"].n_dof, 1)
    U = np.column_stack([u, u])
    with pytest.raises(LinalgError, match="not independent"):
        sp_["assembler"].assemble(U)


def test_bordered_accepts_single_vector(square_pair):
    # One fine function is an (n, 1) block; a bare vector or an (m, n)
    # block is rejected, not reshaped.
    sp_ = square_pair
    U = _orthonormal_block(sp_["A_h"], sp_["fine"].n_dof, 1)
    sys = sp_["assembler"].assemble(U)
    assert sys.m == 1
    for bad in (U[:, 0], U.T, np.column_stack([U, U]).T):
        with pytest.raises(LinalgError, match="is not"):
            sp_["assembler"].assemble(bad)


def test_cross_assembly_bad_mode(square_pair):
    sp_ = square_pair
    with pytest.raises(LinalgError):
        CrossAssembler(sp_["coarse"], sp_["fine"], sp_["coeff"],
                       sp_["A_h"], sp_["B_h"], sp_["P"], mode="nope")


def test_cross_assembly_rejects_singular_coarse_mass():
    # A fine mesh coarser than the coarse one leaves coarse dofs with no
    # fine node in their support, so P^T B_h P is singular.
    coarse = build_space(generate_structured_mesh(Rect(0, 0, 2, 2), 0.25))
    fine = build_space(generate_structured_mesh(Rect(0, 0, 2, 2), 0.5))
    coeff = Coefficient({0: 1.0})
    with pytest.raises(LinalgError, match="coarse mass matrix is not SPD"):
        CrossAssembler(coarse, fine, coeff, assemble_stiffness(fine, coeff),
                       assemble_mass(fine), build_transfer(coarse, fine))


def _bordered(coarse, fine, coeff, A_h, U, mode):
    P = build_transfer(coarse, fine)
    return CrossAssembler(coarse, fine, coeff, A_h, assemble_mass(fine), P, mode).assemble(U)


@pytest.mark.parametrize("mode", ["galerkin", "exact"])
def test_bordered_mass_guard_on_nonnested_pair(ex1, mode):
    # The bordered solve assumes an SPD mass and never checks it, so the
    # full Cholesky in assemble must reject an exactly repeated column.
    coarse = build_space(fitted_mesh(ex1, 2 / 17))
    fine = build_space(fitted_mesh(ex1, 2 / 19))
    coeff = ex1.coefficient()
    A_h = assemble_stiffness(fine, coeff)
    u = _orthonormal_block(A_h, fine.n_dof, 1, seed=6)
    with pytest.raises(LinalgError, match="bordered mass matrix is not SPD"):
        _bordered(coarse, fine, coeff, A_h, np.column_stack([u, u]), mode)


@pytest.mark.parametrize("example, coarse_h, fine_h, mode", [
    ("unit_square", 0.25, 1 / 32, "galerkin"),
    ("example1", 2 / 17, 2 / 19, "galerkin"),
    ("example1", 2 / 17, 2 / 19, "exact"),
    ("example2", 2 / 36, 2 / 40, "galerkin"),
])
def test_bordered_mass_guard_rejects_every_repeated_column(example, coarse_h, fine_h, mode):
    # A full Cholesky of the bordered mass accepted [u, u] for some of
    # these seeds by rounding luck; the Schur-complement threshold must not.
    ex = getattr(harness, example)()
    coarse = build_space(fitted_mesh(ex, coarse_h))
    fine = build_space(fitted_mesh(ex, fine_h))
    coeff = ex.coefficient()
    A_h = assemble_stiffness(fine, coeff)
    asm = CrossAssembler(coarse, fine, coeff, A_h, assemble_mass(fine),
                         build_transfer(coarse, fine), mode)
    for seed in range(10):
        u = _orthonormal_block(A_h, fine.n_dof, 1, seed=seed)
        with pytest.raises(LinalgError, match="bordered mass matrix is not SPD"):
            asm.assemble(np.column_stack([u, u]))


def test_exact_equals_galerkin_on_nested_pair():
    coarse = build_space(generate_structured_mesh(Rect(0, 0, 2, 2), 0.5))
    fine = build_space(generate_structured_mesh(Rect(0, 0, 2, 2), 0.25))
    coeff = Coefficient({0: 1.0})
    A_h = assemble_stiffness(fine, coeff)
    U = _orthonormal_block(A_h, fine.n_dof, 2, seed=4)
    sys_g = _bordered(coarse, fine, coeff, A_h, U, "galerkin")
    sys_e = _bordered(coarse, fine, coeff, A_h, U, "exact")
    for sys in (sys_g, sys_e):  # the assembler's own coarse blocks
        assert sp.issparse(sys.A_H) and sp.issparse(sys.B_H)
    for blk in ("A_H", "a_h", "alpha", "B_H", "b_h", "beta"):
        diff = np.abs(getattr(sys_e, blk) - getattr(sys_g, blk)).max()
        assert diff < 1e-12, blk


def _exact_oracle(coarse, fine, coeff, U):
    """Exact-mode blocks by a loop over the fine edge-midpoint rule.

    Each point is located with locate_point after the nudge toward its
    fine triangle's centroid; coarse basis values and gradients come from
    the inverse of the coarse triangle's [1, x, y] vertex matrix, the fine
    gradient of each column of U from a 2x2 solve.
    """
    cmesh, fmesh = coarse.mesh, fine.mesh
    k = coeff.per_triangle(fmesh)
    u = np.zeros((fmesh.n_nodes, U.shape[1]))
    u[fine.free_nodes] = U
    n_H = coarse.n_dof
    locator = Locator(cmesh)
    A_H, B_H = np.zeros((n_H, n_H)), np.zeros((n_H, n_H))
    a_h, b_h = np.zeros((n_H, U.shape[1])), np.zeros((n_H, U.shape[1]))
    for t, tri in enumerate(fmesh.triangles):
        x = fmesh.nodes[tri]
        edges = np.array([x[1] - x[0], x[2] - x[0]])
        w = 0.5 * np.linalg.det(edges) / 3.0
        grad_u = np.linalg.solve(edges, u[tri[1:]] - u[tri[0]])  # (2, m)
        centroid = x.mean(axis=0)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            p = 0.5 * (x[i] + x[j])
            verts = cmesh.triangles[locate_point(locator, p + 1e-6 * (centroid - p))[0]]
            inv = np.linalg.inv(np.column_stack([np.ones(3), cmesh.nodes[verts]])).T
            values = inv @ np.array([1.0, p[0], p[1]])
            grads = inv[:, 1:]
            d = coarse.node_to_dof[verts]
            keep = d >= 0
            d, values, grads = d[keep], values[keep], grads[keep]
            A_H[np.ix_(d, d)] += w * k[t] * grads @ grads.T
            B_H[np.ix_(d, d)] += w * np.outer(values, values)
            a_h[d] += w * k[t] * grads @ grad_u
            b_h[d] += w * np.outer(values, 0.5 * (u[tri[i]] + u[tri[j]]))
    return {"A_H": A_H, "B_H": B_H, "a_h": a_h, "b_h": b_h}


def test_exact_matches_quadrature_oracle_on_nonnested_pair(ex1):
    coarse = build_space(fitted_mesh(ex1, 2 / 17))
    fine = build_space(fitted_mesh(ex1, 2 / 19))
    coeff = ex1.coefficient()
    A_h = assemble_stiffness(fine, coeff)
    U = _orthonormal_block(A_h, fine.n_dof, 3, seed=5)
    sys = _bordered(coarse, fine, coeff, A_h, U, "exact")
    for blk, want in _exact_oracle(coarse, fine, coeff, U).items():
        got = getattr(sys, blk)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), blk
