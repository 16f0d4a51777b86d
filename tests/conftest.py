"""Shared fixtures: example geometries and small cached discretizations."""

import numpy as np
import pytest

from augeig.augsub import EigenState
from augeig.fem import CrossAssembler, assemble_mass, assemble_stiffness, build_space, build_transfer
from augeig.harness import example1, unit_square
from augeig.linalg import a_normalize, reference_eigensolve
from augeig import mesh


def fitted_mesh(ex, h):
    """Structured mesh for an example, interface-fitted when circles exist."""
    return mesh.fitted_mesh(ex.domain, ex.circles, h)


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
