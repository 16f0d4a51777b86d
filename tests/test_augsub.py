"""One augmented subspace iteration: correction, bordered solve, reassembly."""

import importlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import augeig.augsub as augsub
import augeig.fem as fem
import augeig.linalg as linalg
from augeig.augsub import (
    EigenState,
    aug_subspace_step,
    correction_solve,
    reassemble_fine,
    solve_bordered,
)
from augeig.errors import ConvergenceError, LinalgError
from augeig.fem import (
    BorderedSystem,
    CrossAssembler,
    assemble_mass,
    assemble_stiffness,
    build_space,
    build_transfer,
)
from augeig.harness import measure_errors
from augeig.linalg import a_normalize, dense_sym_gen_eig, pcg_solve, reference_eigensolve
from augeig.multilevel import LevelPlan, build_hierarchy

from conftest import bordered_dense, eigsh_reference, fitted_mesh, sgs


def _block_error(vectors, ref, clusters, A_h):
    return float(np.linalg.norm(measure_errors(vectors, ref[1], clusters, A_h)))


def test_first_step_contracts(square_pair, square_reference, square_initial_state):
    A_h = square_pair["A_h"]
    clusters = [[1, 2]]
    e0 = _block_error(square_initial_state.vectors, square_reference, clusters, A_h)
    state = aug_subspace_step(square_pair["level"], square_initial_state, theta=0.1)
    e1 = _block_error(state.vectors, square_reference, clusters, A_h)
    assert e0 > 0
    assert e1 < 0.5 * e0
    assert state.iteration == 1
    assert len(state.reports) == 3  # one correction solve per slot


def test_eigenvalues_decrease_toward_reference(square_pair, square_reference,
                                               square_initial_state):
    state = square_initial_state
    for _ in range(3):
        state = aug_subspace_step(square_pair["level"], state, theta=0.1)
        # Galerkin sandwich: iterates stay above the fine-space eigenvalues.
        assert (state.lambdas >= square_reference[0] - 1e-10).all()
    assert np.abs(state.lambdas - square_reference[0]).max() < 1e-6


def test_step_is_idempotent_at_convergence(square_pair, square_reference):
    lams, vecs = square_reference
    state = EigenState(lambdas=lams.copy(), vectors=vecs.copy(), iteration=0)
    new = aug_subspace_step(square_pair["level"], state, theta=0.1)
    assert np.abs(new.lambdas - lams).max() < 1e-9
    for j in range(3):
        diff = min(
            np.linalg.norm(new.vectors[:, j] - vecs[:, j]),
            np.linalg.norm(new.vectors[:, j] + vecs[:, j]),
        )
        assert diff < 1e-4


def test_step_does_not_mutate_inputs(square_pair, square_initial_state):
    asm = square_pair["assembler"]
    assert sp.issparse(asm.A_H) and sp.issparse(asm.B_H)
    A_H_before = asm.A_H.toarray()
    vecs_before = square_initial_state.vectors.copy()
    lams_before = square_initial_state.lambdas.copy()
    aug_subspace_step(square_pair["level"], square_initial_state, theta=0.1)
    assert np.array_equal(asm.A_H.toarray(), A_H_before)
    assert np.array_equal(square_initial_state.vectors, vecs_before)
    assert np.array_equal(square_initial_state.lambdas, lams_before)


def test_step_rejects_duplicated_slot(square_pair, square_initial_state):
    # Two equal slots give two equal corrections; the border assembly's
    # check of K's Schur complement is the step's one independence check.
    st = square_initial_state
    dup = EigenState(
        lambdas=np.array([st.lambdas[0], st.lambdas[0]]),
        vectors=np.column_stack([st.vectors[:, 0], st.vectors[:, 0]]),
    )
    with pytest.raises(LinalgError, match="bordered stiffness matrix is not SPD"):
        aug_subspace_step(square_pair["level"], dup, theta=0.1)


def test_correction_breakdown_raises(square_pair, square_initial_state, monkeypatch):
    # A slot that cannot reach its contraction within the PCG iteration
    # cap stops the step with ConvergenceError; the m slots go to PCG as
    # one block solve.
    calls = []

    def pcg_recording(A, RHS, X0, theta, M):
        calls.append(RHS.shape)
        return pcg_solve(A, RHS, X0, theta, M)

    monkeypatch.setattr(linalg, "_iteration_cap", lambda n: 1)
    monkeypatch.setattr(augsub, "pcg_solve", pcg_recording)
    with pytest.raises(ConvergenceError, match=r"PCG column \d+ stopped at its cap of 1 "):
        correction_solve(square_pair["A_h"], square_pair["B_h"], square_initial_state,
                         theta=0.1, M=square_pair["level"].precond)
    assert calls == [(square_pair["A_h"].n, len(square_initial_state.lambdas))]


def test_one_coarse_factor_per_level(ex1, monkeypatch):
    """CrossAssembler makes one sparse factorization per level, of A_H, and
    an augmented step makes none: the bordered solve reuses that factor."""
    calls, splu = [], spla.splu

    def counting(A, *args, **kwargs):
        calls.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(fem, "splu", counting)
    plan = LevelPlan(coarse_h=2 / 17, h1=2 / 19, n_levels=2, nev=2)
    levels = build_hierarchy(plan, ex1.domain, ex1.circles, ex1.coefficient()).levels
    n_H = levels[0].assembler.A_H.shape[0]
    assert calls == [(n_H, n_H)] * plan.n_levels

    level = levels[1]
    lams, vecs = eigsh_reference(level.A_h, level.B_h, 2)
    calls.clear()
    # Every name a step could factor through: SuperLU's own module, the
    # public one, and eigsh's default shift-invert.
    for module in ("scipy.sparse.linalg._dsolve.linsolve", "scipy.sparse.linalg",
                   "scipy.sparse.linalg._eigen.arpack.arpack"):
        monkeypatch.setattr(importlib.import_module(module), "splu", counting)
    aug_subspace_step(level, EigenState(lambdas=lams, vectors=vecs), theta=0.1)
    assert calls == []


def _decoupled_system():
    # Coarse block diag(10, 20); border functions are exact eigenvectors
    # with eigenvalues 2 and 5 and no coupling to the coarse space.
    A_H = sp.diags([10.0, 20.0], format="csr")
    return BorderedSystem.from_blocks(
        A_H=A_H, a_h=np.zeros((2, 2)), alpha=np.eye(2),
        B_H=sp.identity(2, format="csr"), b_h=np.zeros((2, 2)), beta=np.diag([1 / 2, 1 / 5]),
        A_H_lu=spla.splu(A_H.tocsc()),
    )


def test_solve_bordered_on_decoupled_system():
    sys = _decoupled_system()
    lambdas, u_H, xi = solve_bordered(sys)
    # The spectrum is [2, 5, 10, 20]; solve_bordered returns the lowest
    # m = 2 pairs, which are the two border functions.
    assert len(lambdas) == sys.m == 2
    assert np.allclose(lambdas, [2.0, 5.0], atol=1e-12)
    assert abs(abs(xi[0, 0]) - np.sqrt(2.0)) < 1e-12
    assert abs(abs(xi[1, 1]) - np.sqrt(5.0)) < 1e-12


def test_lowest_m_recovers_missed_pair(ex1):
    """A start state that misses lambda_2 reaches it.

    The start holds the fine pairs 1 and 3. The Rayleigh-Ritz step keeps
    the lowest m Ritz pairs, and V_H resolves the second eigenfunction,
    so slot 2 moves from lambda_3 down to lambda_2.
    """
    plan = LevelPlan(coarse_h=2 / 17, h1=2 / 19, n_levels=1, nev=2)
    level = build_hierarchy(plan, ex1.domain, ex1.circles, ex1.coefficient()).levels[0]
    lams, vecs = eigsh_reference(level.A_h, level.B_h, 3)
    state = EigenState(lambdas=lams[[0, 2]], vectors=vecs[:, [0, 2]])
    state = aug_subspace_step(level, state, theta=0.1)
    assert state.lambdas[1] < lams[2]
    for _ in range(2):
        state = aug_subspace_step(level, state, theta=0.1)
    assert abs(state.lambdas[1] - lams[1]) <= 1e-8 * lams[1]


@pytest.fixture(scope="module", params=["galerkin", "exact"])
def ex1_border(request, ex1):
    """(cross assembler, augmenting block U) of a first step on the
    nonnested pair 2/17 -> 2/19.

    U is one correction of the interpolated coarse eigenvectors, as
    aug_subspace_step builds it.
    """
    coeff = ex1.coefficient()
    coarse = build_space(fitted_mesh(ex1, 2 / 17))
    fine = build_space(fitted_mesh(ex1, 2 / 19))
    A_h, B_h = assemble_stiffness(fine, coeff), assemble_mass(fine)
    P = build_transfer(coarse, fine)
    A_H = assemble_stiffness(coarse, coeff)
    lams, vecs = reference_eigensolve(A_H, assemble_mass(coarse), 4, 1e-11, sgs(A_H))
    state = EigenState(lambdas=lams, vectors=a_normalize(A_h, P @ vecs))
    U, _ = correction_solve(A_h, B_h, state, theta=0.1, M=sgs(A_h))
    return CrossAssembler(coarse, fine, coeff, A_h, B_h, P, request.param), U


@pytest.fixture(scope="module")
def ex1_bordered(ex1_border):
    """The bordered system of that first step."""
    assembler, U = ex1_border
    return assembler.assemble(U)


def test_solve_bordered_matches_dense_oracle(ex1_bordered):
    sys = ex1_bordered
    lambdas, u_H, xi = solve_bordered(sys)
    m = sys.m
    assert len(lambdas) == m
    K, M = bordered_dense(sys)
    w, _ = dense_sym_gen_eig(K, M)
    assert (np.abs(lambdas - w[:m]) <= 1e-12 * np.abs(w[:m])).all()
    X = np.vstack([u_H, xi])
    assert np.abs(X.T @ M @ X - np.eye(m)).max() <= 1e-12


def test_solve_bordered_is_repeatable(ex1_bordered):
    first = solve_bordered(ex1_bordered)
    second = solve_bordered(ex1_bordered)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_rayleigh_ritz_is_basis_invariant(ex1_border):
    """The step's Ritz pairs depend on span(U) only, so the corrections
    need no A-orthonormal basis: U R, for a fixed R of condition number
    10, gives the same eigenvalues and the same reassembled block."""
    assembler, U = ex1_border
    m = U.shape[1]
    rng = np.random.default_rng(3)
    Q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
    Q2, _ = np.linalg.qr(rng.standard_normal((m, m)))
    R = Q1 @ np.diag(np.geomspace(1.0, 10.0, m)) @ Q2
    out = {}
    for name, block in (("U", U), ("UR", U @ R)):
        lambdas, u_H, xi = solve_bordered(assembler.assemble(block))
        out[name] = lambdas, reassemble_fine(u_H, xi, assembler.P, block, assembler.A_h)
    assert (np.abs(out["UR"][0] - out["U"][0]) <= 1e-12 * out["U"][0]).all()
    assert np.abs(out["UR"][1] - out["U"][1]).max() <= 1e-10
