"""Shared fixtures: example geometries and small cached discretizations."""

import os
from types import SimpleNamespace

# One BLAS thread, as perfbench/run.py uses, set before numpy is imported
# (OpenBLAS reads it once at load); a caller's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import eigsh

from augeig.augsub import EigenState
from augeig.fem import CrossAssembler, assemble_mass, assemble_stiffness, build_space, build_transfer
from augeig.harness import example1, unit_square
from augeig import linalg, mesh
from augeig.linalg import a_normalize, reference_eigensolve
from augeig.multilevel import LevelData


def fitted_mesh(ex, h):
    """Structured mesh for an example, interface-fitted when circles exist."""
    return mesh.fitted_mesh(ex.domain, ex.circles, h)


def eigsh_reference(A, B, nev):
    """Smallest nev eigenpairs of A u = lambda B u, ascending, a-normalized.

    Sparse-direct shift-invert Lanczos (shift 0, fixed start vector): an
    oracle that shares no solver with the PCG-based code under test.
    """
    lams, vecs = eigsh(A.csr, k=nev, M=B.csr, sigma=0, which="LM", v0=np.ones(A.n))
    order = np.argsort(lams)
    return lams[order], np.column_stack([a_normalize(A, vecs[:, j]) for j in order])


def local_stiffness(tri_coords, k=1.0):
    """3x3 element stiffness for one triangle given as (3, 2) coordinates:
    an oracle for the vectorised assembly."""
    a, b, c = tri_coords
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    g = np.array([
        [b[1] - c[1], c[0] - b[0]],
        [c[1] - a[1], a[0] - c[0]],
        [a[1] - b[1], b[0] - a[0]],
    ]) / det
    return 0.5 * det * k * (g @ g.T)


def sgs(A):
    """A test-local SPD preconditioner of a SparseMatrix: symmetric
    Gauss-Seidel, M^-1 R = (D + U)^-1 D (D + L)^-1 R, with A's spectrum
    bounds from linalg._power_bounds.

    It needs many PCG iterations, which the PCG unit tests rely on; a
    one-level V-cycle is an exact LU and converges in one.
    """
    opts = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0)
    lower = spla.splu(sp.tril(A.csr, format="csc"), **opts)
    upper = spla.splu(sp.triu(A.csr, format="csc"), **opts)
    d = A.csr.diagonal()

    def apply(R):
        Z = lower.solve(R)
        return upper.solve(Z * (d[:, None] if Z.ndim == 2 else d))

    lmin, lmax = linalg._power_bounds(A.csr)
    return SimpleNamespace(apply=apply, lmin=lmin, lmax=lmax)


def full_scan_locate(m, points):
    """Point location by a full scan, as an oracle for the grid locator.

    Per point: the first triangle in ascending index whose barycentric
    coordinates are all >= -_BARY_TOL. Returns (triangle (n,),
    barycentric (n, 3), inside (n,)); a point that no triangle holds
    reads triangle -1 and NaN coordinates.
    """
    a, b, c = m.triangle_corners()
    e1, e2 = b - a, c - a
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    tri = np.empty(len(points), dtype=np.int64)
    bary = np.empty((len(points), 3))
    inside = np.empty(len(points), dtype=bool)
    for i, p in enumerate(points):
        d = p - a
        l2 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
        l3 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
        lam = np.column_stack([1.0 - l2 - l3, l2, l3])
        hits = np.flatnonzero(lam.min(axis=1) >= -mesh._BARY_TOL)
        inside[i] = len(hits) > 0
        tri[i] = hits[0] if inside[i] else -1
        bary[i] = lam[tri[i]] if inside[i] else np.nan
    return tri, bary, inside


@pytest.fixture(scope="session")
def ex1():
    return example1()


@pytest.fixture(scope="session")
def square():
    return unit_square()


@pytest.fixture(scope="session")
def ex1_coarse_mesh(ex1):
    return fitted_mesh(ex1, 2 / 17)


@pytest.fixture(scope="session")
def square_pair():
    """(coarse, fine) spaces, fine operators and the fine LevelData for the
    constant-coefficient case."""
    ex = unit_square()
    coeff = ex.coefficient()
    coarse = build_space(fitted_mesh(ex, 0.25))
    fine = build_space(fitted_mesh(ex, 1 / 32))
    A_h = assemble_stiffness(fine, coeff)
    B_h = assemble_mass(fine)
    P = build_transfer(coarse, fine)
    assembler = CrossAssembler(coarse, fine, coeff, A_h, B_h, P, mode="galerkin")
    level = LevelData(space=fine, A_h=A_h, B_h=B_h, precond=sgs(A_h), assembler=assembler)
    return {
        "ex": ex, "coeff": coeff, "coarse": coarse, "fine": fine,
        "A_h": A_h, "B_h": B_h, "P": P, "assembler": assembler, "level": level,
    }


@pytest.fixture(scope="session")
def square_reference(square_pair):
    """Fine-space oracle eigenpairs for the constant-coefficient case."""
    return eigsh_reference(square_pair["A_h"], square_pair["B_h"], 3)


@pytest.fixture(scope="session")
def square_initial_state(square_pair):
    """Coarse eigenpairs interpolated to the fine space (iteration start)."""
    sp = square_pair
    A_H = assemble_stiffness(sp["coarse"], sp["coeff"])
    B_H = assemble_mass(sp["coarse"])
    lams, vecs = reference_eigensolve(A_H, B_H, 3, 1e-11, sgs(A_H))
    V = sp["P"] @ vecs
    for j in range(V.shape[1]):
        V[:, j] = a_normalize(sp["A_h"], V[:, j])
    return EigenState(lambdas=lams.copy(), vectors=V, iteration=0)
