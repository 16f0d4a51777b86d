"""Hierarchy construction and the multilevel correction driver."""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import augeig.augsub as augsub
import augeig.linalg as linalg
import augeig.multilevel as multilevel
from augeig.augsub import aug_subspace_step
from augeig.errors import ConfigError
from augeig.harness import example1, example2, measure_errors, unit_square
from augeig.multilevel import (
    LevelPlan,
    build_hierarchy,
    coarsest_solve,
    multilevel_solve,
)

from conftest import eigsh_reference

EXACT_LAMBDA1 = np.pi ** 2 / 2  # first Dirichlet eigenvalue on (0,2)^2


def test_plan_validation():
    with pytest.raises(ConfigError):
        LevelPlan(coarse_h=0.1, h1=0.2)
    with pytest.raises(ConfigError):
        LevelPlan(coarse_h=0.5, h1=0.25, beta=1.0)
    with pytest.raises(ConfigError):
        LevelPlan(coarse_h=0.5, h1=0.25, n_levels=0)
    with pytest.raises(ConfigError):
        LevelPlan(coarse_h=0.5, h1=0.25, L=0)
    with pytest.raises(ConfigError):
        LevelPlan(coarse_h=0.5, h1=0.25, theta=1.0)
    with pytest.raises(ConfigError):
        LevelPlan(coarse_h=0.5, h1=0.25, mode="other")
    with pytest.raises(ConfigError, match="nev"):
        LevelPlan(coarse_h=0.5, h1=0.25, nev=0)


def test_fine_sizes():
    plan = LevelPlan(coarse_h=0.5, h1=0.1, beta=2.0, n_levels=3)
    assert np.allclose(plan.fine_sizes(), [0.1, 0.05, 0.025])


@pytest.fixture(scope="module")
def square_hierarchy():
    ex = unit_square()
    plan = LevelPlan(coarse_h=0.25, h1=0.125, beta=2.0, n_levels=3, L=2,
                     theta=0.1, nev=1)
    hier = build_hierarchy(plan, ex.domain, ex.circles, ex.coefficient())
    return ex, plan, hier


def test_hierarchy_structure(square_hierarchy):
    _, plan, hier = square_hierarchy
    assert len(hier.levels) == 3
    assert hier.levels[0].transfer_prev is None
    for lev in hier.levels[1:]:
        assert lev.transfer_prev is not None
    dofs = [lev.space.n_dof for lev in hier.levels]
    for a, b in zip(dofs, dofs[1:]):
        assert 3.5 <= b / a <= 4.5  # halving h roughly quadruples the dofs


def test_single_level_equals_direct_solve(square_hierarchy):
    ex, _, hier = square_hierarchy
    plan1 = LevelPlan(coarse_h=0.25, h1=0.125, n_levels=1, nev=2)
    hier1 = build_hierarchy(plan1, ex.domain, ex.circles, ex.coefficient())
    state = multilevel_solve(hier1, plan1, coarse_tol=1e-11, seed=0)
    direct = coarsest_solve(hier1.levels[0], 2, tol=1e-11, seed=0)
    assert np.array_equal(state.lambdas, direct.lambdas)
    assert np.array_equal(state.vectors, direct.vectors)


def test_coarsest_solve_accuracy(square_hierarchy):
    _, _, hier = square_hierarchy
    state = coarsest_solve(hier.levels[0], 1, tol=1e-11)
    assert abs(state.lambdas[0] - EXACT_LAMBDA1) / EXACT_LAMBDA1 < 0.03


@pytest.fixture(scope="module")
def ex1_ladder():
    """example1 on the north-star coarse space, four levels from 289 to
    19,321 dofs, after multilevel_solve (L = 2, nev = 4, theta = 0.1).
    Returns (hierarchy, plan, state, correction systems): one (A, RHS, X0,
    theta, X) per correction call, as pcg_solve saw and solved it."""
    ex = example1()
    plan = LevelPlan(coarse_h=2 / 17, h1=4 / 35, beta=2.0, n_levels=4, L=2,
                     theta=0.1, nev=4)
    hier, state, systems = _recorded_solve(ex, plan)
    assert [lev.space.n_dof for lev in hier.levels] == [289, 1156, 4761, 19321]
    return hier, plan, state, systems


def _recorded_solve(ex, plan, seed=0):
    """build_hierarchy and multilevel_solve, recording one (A, RHS, X0,
    theta, X) per correction call, as pcg_solve saw and solved it."""
    hier = build_hierarchy(plan, ex.domain, ex.circles, ex.coefficient())
    systems = []

    def recording_pcg(A, RHS, X0, theta, M):
        X, reports = linalg.pcg_solve(A, RHS, X0, theta, M)
        # correction_solve hands X on as pcg_solve returned it
        systems.append((A, RHS, X0.copy(), theta, X.copy()))
        return X, reports

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(augsub, "pcg_solve", recording_pcg)
        state = multilevel_solve(hier, plan, coarse_tol=1e-11, seed=seed)
    return hier, state, systems


def _assert_contraction_holds(systems):
    """The true A-norm error contraction of every recorded correction slot,
    against a direct solve, is <= theta; returns the largest."""
    worst = 0.0
    for A, RHS, X0, theta, X in systems:
        exact = spla.splu(A.csr.tocsc()).solve(RHS)
        E0, E = X0 - exact, X - exact
        ratio = np.sqrt(np.sum(E * (A.csr @ E), axis=0) / np.sum(E0 * (A.csr @ E0), axis=0))
        worst = max(worst, ratio.max())
        assert (ratio <= theta).all(), ratio
    return worst


def _worst_slot_iterations(state):
    """The most PCG iterations of one correction slot, per level (by dofs)."""
    worst = {}
    for rec in state.records[1:]:
        worst[rec.n_dof] = max(worst.get(rec.n_dof, 0), max(rec.pcg_iterations))
    return worst


def test_coarsest_solve_is_direct_and_matches_eigsh(ex1_ladder, monkeypatch):
    """coarsest_solve runs no PCG and no reference solver: it shift-inverts
    with level 1's LU factor. Its pairs match the eigsh oracle."""
    hier = ex1_ladder[0]
    level1 = hier.levels[0]

    def forbidden(*args, **kwargs):
        raise AssertionError("coarsest_solve must not iterate")

    applied = []
    apply = level1.precond.apply

    def counting_apply(R):
        applied.append(1)
        return apply(R)

    for module in (linalg, augsub, multilevel):
        monkeypatch.setattr(module, "pcg_solve", forbidden, raising=False)
    monkeypatch.setattr(linalg, "reference_eigensolve", forbidden)
    monkeypatch.setattr(multilevel, "reference_eigensolve", forbidden)
    monkeypatch.setattr(level1.precond, "apply", counting_apply)
    state = coarsest_solve(level1, 4, tol=1e-11, seed=0)
    assert applied  # the shift-invert operator is level 1's factor
    ref_lams, ref_vecs = eigsh_reference(level1.A_h, level1.B_h, 4)
    assert np.all(np.diff(state.lambdas) > 0)
    assert (np.abs(state.lambdas - ref_lams) <= 1e-12 * ref_lams).all()
    assert np.abs(state.vectors - ref_vecs).max() < 1e-6
    for j in range(4):
        u = state.vectors[:, j]
        assert abs(u @ (level1.A_h.csr @ u) - 1.0) < 1e-12
        assert u[np.argmax(np.abs(u))] > 0


def test_vcycle_is_spd(ex1_ladder):
    """x^T M^-1 y = y^T M^-1 x to 1e-12 (relative to the Cauchy-Schwarz
    scale) and x^T M^-1 x > 0 on random blocks, on every level: level 1's
    LU and the V-cycles over two and three levels."""
    rng = np.random.default_rng(5)
    for lev in ex1_ladder[0].levels[:3]:
        X, Y = rng.standard_normal((2, lev.A_h.n, 4))
        MX, MY = lev.precond.apply(X), lev.precond.apply(Y)
        xmy, ymx = np.sum(X * MY, axis=0), np.sum(Y * MX, axis=0)
        xmx, ymy = np.sum(X * MX, axis=0), np.sum(Y * MY, axis=0)
        assert (xmx > 0).all() and (ymy > 0).all()
        assert (np.abs(xmy - ymx) <= 1e-12 * np.sqrt(xmx * ymy)).all()


def test_vcycle_iterations_are_mesh_independent(ex1_ladder):
    """The worst correction slot takes at most 6 PCG iterations on every
    level, from 1,156 to 19,321 dofs."""
    hier, plan, state, _ = ex1_ladder
    worst = _worst_slot_iterations(state)
    print(f"worst-slot PCG iterations per level: {worst}")
    assert sorted(worst) == [lev.space.n_dof for lev in hier.levels[1:]]
    assert max(worst.values()) <= 6


def test_correction_contraction_holds(ex1_ladder):
    """On the warm-started correction systems of the run, the true A-norm
    error contraction against a direct solve is <= theta on every slot."""
    worst = _assert_contraction_holds(ex1_ladder[3])
    print(f"largest true A-norm contraction of a correction slot: {worst:.4f}")


@pytest.mark.parametrize("make, K", [(example1, 1e3), (example2, 1e4)],
                         ids=["example1-K1e3", "example2-K1e4"])
def test_correction_contraction_holds_at_high_contrast(make, K):
    """The same contract at coefficient contrast 1e3 and 1e4, where the
    V-cycle is weakest: three levels to 5,625 dofs, nev = 4, L = 2."""
    ex = make()
    ex = replace(ex, circle_k=[K] * len(ex.circles))
    plan = LevelPlan(coarse_h=2 / 17, h1=2 / 19, beta=2.0, n_levels=3, L=2,
                     theta=0.1, nev=4)
    hier, state, systems = _recorded_solve(ex, plan, seed=1)
    assert hier.levels[-1].space.n_dof == 5625
    worst = _assert_contraction_holds(systems)
    print(f"K = {K:g}: largest true contraction {worst:.4f}; "
          f"worst-slot PCG iterations per level: {_worst_slot_iterations(state)}")


def test_multilevel_converges_to_finest_reference(square_hierarchy):
    _, plan, hier = square_hierarchy
    state = multilevel_solve(hier, plan, coarse_tol=1e-11)
    finest = hier.levels[-1]
    ref_lams, _ = eigsh_reference(finest.A_h, finest.B_h, 1)
    assert abs(state.lambdas[0] - ref_lams[0]) < 1e-5
    assert abs(state.lambdas[0] - EXACT_LAMBDA1) / EXACT_LAMBDA1 < 0.005

    # One record for the coarsest solve plus L per finer level.
    records = state.records
    assert len(records) == 1 + plan.L * (len(hier.levels) - 1)
    first = records[0]
    assert (first.level, first.iteration) == (1, 0)
    assert first.contractions is None and first.pcg_iterations is None
    assert first.anorm_errors is None
    assert [(r.level, r.iteration) for r in records[1:]] == [
        (k, i) for k in (2, 3) for i in (1, 2)]
    for rec in records:
        assert rec.n_dof == hier.levels[rec.level - 1].space.n_dof
    for rec in records[1:]:
        assert len(rec.contractions) == len(rec.pcg_iterations) == plan.nev
        assert all(its > 0 for its in rec.pcg_iterations)
        assert rec.anorm_errors is None  # no error functions given
    assert np.array_equal(records[-1].lambdas, state.lambdas)


def test_error_fn_history(square_hierarchy):
    _, plan, hier = square_hierarchy
    finest = hier.levels[-1]
    ref = eigsh_reference(finest.A_h, finest.B_h, 1)

    def err(V):
        return measure_errors(V, ref[1], [], finest.A_h)

    error_fns = [None, None, err]
    state = multilevel_solve(hier, plan, coarse_tol=1e-11, error_fns=error_fns)
    assert all(r.anorm_errors is None for r in state.records if r.level < 3)
    errs = [float(r.anorm_errors[0]) for r in state.records if r.level == 3]
    assert all(np.isfinite(errs))
    assert errs[-1] < errs[0]  # corrections reduce the finest-level error


def test_step_seconds_exclude_error_measurement(square_hierarchy):
    _, plan, hier = square_hierarchy
    delay = 0.2

    def slow(V):
        time.sleep(delay)
        return np.zeros(V.shape[1])

    state = multilevel_solve(hier, plan, coarse_tol=1e-11, error_fns=[slow] * 3)
    assert all(r.anorm_errors is not None for r in state.records[1:])
    assert all(r.seconds < delay for r in state.records)


def test_example2_pair_converges_to_eigsh():
    """example2's declared pair (slots 2 and 3, a double eigenvalue that
    the mesh splits) through the multilevel solve, checked as criterion 2
    checks example1: every eigenvalue within 1e-9 of eigsh after at most
    six finest-level iterations. Prints each slot's residual
    ||A u - lambda B u|| / ||B u|| and A-norm error (against the pair's
    span for slots 2 and 3)."""
    ex = example2()
    plan = LevelPlan(coarse_h=2 / 17, h1=2 / 35, beta=2.0, n_levels=3, L=2,
                     theta=0.1, nev=4)
    hier = build_hierarchy(plan, ex.domain, ex.circles, ex.coefficient())
    finest = hier.levels[-1]
    assert finest.space.n_dof == 19321
    ref_lams, ref_vecs = eigsh_reference(finest.A_h, finest.B_h, plan.nev)

    state = multilevel_solve(hier, plan, coarse_tol=1e-11)
    while np.abs(state.lambdas - ref_lams).max() >= 1e-9 and state.iteration < 6:
        state = aug_subspace_step(finest, state, plan.theta)

    err = np.abs(state.lambdas - ref_lams).max()
    V, BV = state.vectors, finest.B_h.csr @ state.vectors
    residuals = (np.linalg.norm(finest.A_h.csr @ V - BV * state.lambdas, axis=0)
                 / np.linalg.norm(BV, axis=0))
    anorm = measure_errors(V, ref_vecs, ex.clusters, finest.A_h)
    print(f"example2: max |lambda err| {err:.2e} after {state.iteration} finest "
          f"iterations; residual per slot {np.array2string(residuals, precision=2)}, "
          f"A-norm error per slot {np.array2string(anorm, precision=2)}")
    assert err < 1e-9 and state.iteration <= 6
