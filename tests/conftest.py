"""Shared fixtures: example geometries and small cached discretizations."""

import os

# One BLAS thread, as perfbench/run.py uses, set before numpy is imported
# (OpenBLAS reads it once at load); a caller's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from augeig.augsub import EigenState
from augeig.fem import CrossAssembler, assemble_mass, assemble_stiffness, build_space, build_transfer
from augeig.harness import example1, unit_square
from augeig.linalg import a_normalize, reference_eigensolve
from augeig import mesh


def fitted_mesh(ex, h):
    """Structured mesh for an example, interface-fitted when circles exist."""
    return mesh.fitted_mesh(ex.domain, ex.circles, h)


def full_scan_locate(m, points):
    """Point location by a full scan, as an oracle for the grid locator.

    Per point: the first triangle in ascending index whose barycentric
    coordinates are all >= -_BARY_TOL, else the triangle with the
    smallest violation (first on ties), its coordinates clipped to >= 0
    and renormalised. Returns (triangle (n,), barycentric (n, 3),
    inside (n,)).
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
        worst = lam.min(axis=1)
        hits = np.flatnonzero(worst >= -mesh._BARY_TOL)
        inside[i] = len(hits) > 0
        tri[i] = hits[0] if inside[i] else np.argmax(worst)
        bary[i] = lam[tri[i]]
        if not inside[i]:
            clipped = np.clip(bary[i], 0.0, None)
            bary[i] = clipped / clipped.sum()
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
    """(coarse, fine) spaces and fine operators for the constant-coefficient case."""
    ex = unit_square()
    coeff = ex.coefficient()
    coarse = build_space(fitted_mesh(ex, 0.25))
    fine = build_space(fitted_mesh(ex, 1 / 32))
    A_h = assemble_stiffness(fine, coeff)
    B_h = assemble_mass(fine)
    P = build_transfer(coarse, fine)
    assembler = CrossAssembler(coarse, fine, coeff, A_h, B_h, P, mode="galerkin")
    return {
        "ex": ex, "coeff": coeff, "coarse": coarse, "fine": fine,
        "A_h": A_h, "B_h": B_h, "P": P, "assembler": assembler,
    }


@pytest.fixture(scope="session")
def square_reference(square_pair):
    """Fine-space oracle eigenpairs for the constant-coefficient case."""
    return reference_eigensolve(square_pair["A_h"], square_pair["B_h"], 3, 1e-11)


@pytest.fixture(scope="session")
def square_initial_state(square_pair):
    """Coarse eigenpairs interpolated to the fine space (iteration start)."""
    sp = square_pair
    A_H = assemble_stiffness(sp["coarse"], sp["coeff"])
    B_H = assemble_mass(sp["coarse"])
    lams, vecs = reference_eigensolve(A_H, B_H, 3, 1e-11)
    V = sp["P"] @ vecs
    for j in range(V.shape[1]):
        V[:, j] = a_normalize(sp["A_h"], V[:, j])
    return EigenState(lambdas=lams.copy(), vectors=V, iteration=0)
