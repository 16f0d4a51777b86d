"""Acceptance gate: one test per acceptance criterion.

Each test prints a single "criterion N: PASS/FAIL" line with the measured
quantities, then asserts. The configurations are desk-scale versions of
the benchmark problems: the constant-coefficient Laplacian on (0,2)^2 and
the two-inclusion interface problem with coefficient 10 inside the disks.
"""

import time

import numpy as np
import scipy.sparse as sp

from augeig.augsub import EigenState, aug_subspace_step
from augeig.fem import (
    CrossAssembler,
    assemble_mass,
    assemble_stiffness,
    build_space,
    build_transfer,
)
from augeig.harness import (
    RunConfig,
    detect_clusters,
    measure_errors,
    timing_study,
    unit_square,
)
from augeig.linalg import SparseMatrix, a_normalize, pcg_solve, reference_eigensolve
from augeig.multilevel import LevelPlan, build_hierarchy, multilevel_solve

from conftest import eigsh_reference, fitted_mesh, sgs
from test_linalg import charpoly_roots, random_spd

EXACT_L1 = np.pi ** 2 / 2       # (0,2)^2 Dirichlet Laplacian, first eigenvalue
EXACT_L23 = 5 * np.pi ** 2 / 4  # double eigenvalue (2,1)/(1,2)


def _criterion(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _contraction_study(ex, coarse_h, fine_h, steps, floor, nev=4):
    """Geometric-mean contraction of the block A-norm error on a fixed fine mesh.

    Starts from the interpolated coarse eigenpairs and measures the ratio
    of the Euclidean norm of the per-slot energy-norm error vector between
    consecutive augmented iterations, averaged geometrically over the
    iterations whose post-step error is still above ``floor``.
    """
    plan = LevelPlan(coarse_h=coarse_h, h1=fine_h, n_levels=1, nev=nev, theta=0.1)
    hier = build_hierarchy(plan, ex.domain, ex.circles, ex.coefficient())
    lev = hier.levels[0]
    ref = eigsh_reference(lev.A_h, lev.B_h, nev)
    clusters = detect_clusters(ref[0])

    def err(V):
        return measure_errors(V, ref[1], clusters, lev.A_h)

    coeff = ex.coefficient()
    A_H = assemble_stiffness(hier.coarse_space, coeff)
    cl, cv = reference_eigensolve(A_H, assemble_mass(hier.coarse_space), nev, 1e-12,
                                  sgs(A_H))
    V = a_normalize(lev.A_h, lev.assembler.P @ cv)
    state = EigenState(lambdas=cl.copy(), vectors=V, iteration=0)

    block = [float(np.linalg.norm(err(state.vectors)))]
    for _ in range(steps):
        state = aug_subspace_step(lev, state, plan.theta)
        block.append(float(np.linalg.norm(err(state.vectors))))

    ratios = [block[k] / block[k - 1] for k in range(1, len(block))
              if block[k] > floor]
    gm = float(np.exp(np.mean(np.log(ratios))))
    return gm, ratios, block


def test_criterion_1_multilevel_accuracy():
    """Three-level run reproduces the smallest Laplacian eigenvalues."""
    ex = unit_square()
    plan = LevelPlan(coarse_h=0.25, h1=1 / 16, beta=2.0, n_levels=3, L=2,
                     theta=0.1, nev=3)
    t0 = time.perf_counter()
    hier = build_hierarchy(plan, ex.domain, ex.circles, ex.coefficient())
    state = multilevel_solve(hier, plan, coarse_tol=1e-11)
    elapsed = time.perf_counter() - t0

    r1 = abs(state.lambdas[0] - EXACT_L1) / EXACT_L1
    r2 = abs(state.lambdas[1] - EXACT_L23) / EXACT_L23
    r3 = abs(state.lambdas[2] - EXACT_L23) / EXACT_L23
    split = abs(state.lambdas[1] - state.lambdas[2]) / EXACT_L23
    ok = r1 < 0.005 and r2 < 0.01 and r3 < 0.01 and split < 1e-3 and elapsed < 60
    _criterion(1, ok, f"rel errs {r1:.2e}/{r2:.2e}/{r3:.2e}, "
                      f"split {split:.2e}, {elapsed:.1f}s")


def test_criterion_2_interface_eigenvalues(ex1):
    """Interface problem: four eigenvalues to 1e-9 within six finest iterations."""
    plan = LevelPlan(coarse_h=2 / 17, h1=2 / 35, beta=2.0, n_levels=3, L=2,
                     theta=0.1, nev=4)
    t0 = time.perf_counter()
    hier = build_hierarchy(plan, ex1.domain, ex1.circles, ex1.coefficient())
    finest = hier.levels[-1]
    ref_lams, _ = eigsh_reference(finest.A_h, finest.B_h, plan.nev)

    state = multilevel_solve(hier, plan, coarse_tol=1e-11)
    while (np.abs(state.lambdas - ref_lams).max() >= 1e-9
           and state.iteration < 6):
        state = aug_subspace_step(finest, state, plan.theta)
    elapsed = time.perf_counter() - t0

    err = np.abs(state.lambdas - ref_lams).max()
    ok = err < 1e-9 and state.iteration <= 6 and elapsed < 600
    _criterion(2, ok, f"max |lambda err| {err:.2e} after {state.iteration} "
                      f"finest iterations, {elapsed:.1f}s")


def test_criterion_3_coarser_space_slower(ex1):
    """The contraction rate degrades with a coarser augmenting space."""
    gm_a, ratios_a, _ = _contraction_study(
        ex1, 2 / 17, 2 / 70, steps=8, floor=1e-7)
    gm_b, _, _ = _contraction_study(
        ex1, 2 / 27, 2 / 70, steps=8, floor=1e-7)
    ok = gm_a < 1 and gm_b < 1 and gm_b < gm_a and len(ratios_a) >= 4
    _criterion(3, ok, f"contraction {gm_a:.3f} (coarser space) vs {gm_b:.3f} "
                      f"(finer space), {len(ratios_a)} pre-saturation steps")


def test_criterion_4_mesh_size_independence(ex1):
    """The contraction rate is stable under fine-mesh refinement."""
    gm_a, _, _ = _contraction_study(
        ex1, 2 / 17, 2 / 140, steps=8, floor=1e-6)
    gm_b, _, _ = _contraction_study(
        ex1, 2 / 17, 2 / 280, steps=8, floor=1e-6)
    change = abs(gm_b - gm_a) / gm_a
    ok = change < 0.25
    _criterion(4, ok, f"contraction {gm_a:.3f} vs {gm_b:.3f} after halving h, "
                      f"relative change {change:.1%}")


def test_criterion_5_second_order_level_errors(ex1):
    """The eigenvalue error entering each level decays like h^2."""
    plan = LevelPlan(coarse_h=2 / 17, h1=2 / 30, beta=2.0, n_levels=4, L=2,
                     theta=0.1, nev=1)
    hier = build_hierarchy(plan, ex1.domain, ex1.circles, ex1.coefficient())

    refs = [eigsh_reference(level.A_h, level.B_h, 1)[0][0] for level in hier.levels]

    state = multilevel_solve(hier, plan, coarse_tol=1e-11)

    final_at = {}
    for rec in state.records:
        final_at[rec.level] = rec.lambdas[0]  # last record per level wins
    entering = [abs(final_at[k - 1] - refs[k - 1]) for k in range(2, 5)]
    ratios = [entering[i] / entering[i + 1] for i in range(len(entering) - 1)]
    ok = all(2.5 <= r <= 6.0 for r in ratios)
    _criterion(5, ok, "entering-error ratios " +
               "/".join(f"{r:.2f}" for r in ratios) + " (expected near 4)")


def test_criterion_6_linear_complexity(ex1, tmp_path):
    """Wall time grows almost linearly with the finest-level size."""
    plan = LevelPlan(coarse_h=2 / 17, h1=2 / 35, beta=2.0, n_levels=5, L=8,
                     theta=0.1, nev=4)
    config = RunConfig(example=ex1, plan=plan, coarse_tol=1e-6,
                       out_dir=str(tmp_path))
    points, slope, _ = timing_study(config)
    ok = 0.8 <= slope <= 1.4
    sizes = "/".join(str(p[0]) for p in points)
    # Reported, not gated: the first point is the direct coarsest solve
    # alone, so the fit over the finer points and the last level's local
    # slope show how much the gated slope leans on it.
    logs, logt = np.log([p[0] for p in points]), np.log([p[1] for p in points])
    finer = float(np.polyfit(logs[1:], logt[1:], 1)[0])
    local = float((logt[-1] - logt[-2]) / (logs[-1] - logs[-2]))
    _criterion(6, ok, f"log-log slope {slope:.2f} over dofs {sizes} "
               f"(reported only: {finer:.2f} over the finer {len(points) - 1}, "
               f"{local:.2f} on the last level)")


def test_criterion_7_kernel_oracles():
    """Cross-assembly, dense eigensolver and PCG against independent oracles."""
    # (a) nested meshes: exact quadrature equals the Galerkin projection.
    coarse = build_space(fitted_mesh(unit_square(), 0.5))
    fine = build_space(fitted_mesh(unit_square(), 0.25))
    coeff = unit_square().coefficient()
    A_h = assemble_stiffness(fine, coeff)
    rng = np.random.default_rng(1)
    U = rng.standard_normal((fine.n_dof, 2))
    for j in range(2):
        for i in range(j):
            U[:, j] -= (U[:, i] @ (A_h.csr @ U[:, j])) * U[:, i]
        U[:, [j]] = a_normalize(A_h, U[:, [j]])
    B_h, P = assemble_mass(fine), build_transfer(coarse, fine)
    sys_g, sys_e = (CrossAssembler(coarse, fine, coeff, A_h, B_h, P, mode).assemble(U)
                    for mode in ("galerkin", "exact"))
    nested_diff = max(
        np.abs(getattr(sys_e, blk) - getattr(sys_g, blk)).max()
        for blk in ("A_H", "a_h", "alpha", "B_H", "b_h", "beta")
    )

    # (b) dense generalized eigensolver vs characteristic-polynomial roots.
    from augeig.linalg import dense_sym_gen_eig
    eig_diff = 0.0
    rng = np.random.default_rng(77)
    for trial in range(100):
        n = 2 if trial % 2 == 0 else 3
        A = random_spd(n, rng)
        B = random_spd(n, rng)
        w, _ = dense_sym_gen_eig(A, B)
        d = np.abs(w - charpoly_roots(A, B)).max() / max(1.0, np.abs(w).max())
        eig_diff = max(eig_diff, d)

    # (c) PCG vs dense direct solves.
    pcg_diff = 0.0
    rng = np.random.default_rng(3)
    for n in (10, 30, 50):
        M = SparseMatrix(sp.csr_matrix(random_spd(n, rng)))
        b = rng.standard_normal(n)
        X, _ = pcg_solve(M, b[:, None], None, 1e-12, sgs(M))
        x = X[:, 0]
        pcg_diff = max(pcg_diff, np.linalg.norm(x - np.linalg.solve(M.csr.toarray(), b)))

    ok = nested_diff < 1e-12 and eig_diff < 1e-8 and pcg_diff < 1e-9
    _criterion(7, ok, f"nested assembly diff {nested_diff:.1e}, "
                      f"eigensolver oracle diff {eig_diff:.1e}, "
                      f"pcg vs direct diff {pcg_diff:.1e}")


def test_criterion_8_structural_invariants(ex1, tmp_path):
    """SPD operators, eigenvalue sandwich, transfer rows, determinism."""
    import augeig.harness as harness

    checks = {}

    # Operators stay SPD on the fitted interface meshes.
    space = build_space(fitted_mesh(ex1, 2 / 18))
    A = assemble_stiffness(space, ex1.coefficient())
    B = assemble_mass(space)
    try:
        np.linalg.cholesky(A.csr.toarray())
        np.linalg.cholesky(B.csr.toarray())
        checks["spd"] = True
    except np.linalg.LinAlgError:
        checks["spd"] = False

    # No inverted triangles after interface fitting.
    checks["orientation"] = all(
        fitted_mesh(ex1, h).signed_areas().min() > 0
        for h in (2 / 9, 2 / 17, 2 / 35, 2 / 70)
    )

    # Transfer rows: values form a partial partition of unity.
    coarse = build_space(fitted_mesh(ex1, 2 / 17))
    fine = build_space(fitted_mesh(ex1, 2 / 34))
    P = build_transfer(coarse, fine)
    sums = np.asarray(P.sum(axis=1)).ravel()
    checks["transfer"] = bool(sums.min() > -1e-12 and sums.max() < 1 + 1e-12)

    # Galerkin iterates never undercut the fine-space eigenvalues.
    plan = LevelPlan(coarse_h=2 / 9, h1=2 / 18, beta=2.0, n_levels=2, L=3,
                     theta=0.1, nev=3)
    hier = build_hierarchy(plan, ex1.domain, ex1.circles, ex1.coefficient())
    finest = hier.levels[-1]
    ref_lams, _ = eigsh_reference(finest.A_h, finest.B_h, 3)
    state = multilevel_solve(hier, plan, coarse_tol=1e-11)
    sandwich = True
    for rec in state.records:
        if rec.level == 2:
            sandwich &= bool((rec.lambdas >= ref_lams - 1e-10).all())
    checks["sandwich"] = sandwich

    # Output CSVs are bit-identical across reruns when timing is off.
    outputs = []
    for i in range(2):
        cfg = RunConfig(example=ex1, plan=plan, tol_lambda=1e-6,
                        out_dir=str(tmp_path / f"o{i}"), timing=False)
        result = harness.run_example(cfg)
        outputs.append(open(result.csv_path, "rb").read())
    checks["determinism"] = outputs[0] == outputs[1]

    ok = all(checks.values())
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
    _criterion(8, ok, detail)
