"""Multilevel correction driver.

Builds the nonnested mesh/space hierarchy with a multigrid preconditioner
per level, direct-solves the coarsest fine level, and runs a fixed number
of augmented subspace iterations per level, carrying the state up with
fine-to-fine interpolation.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from .augsub import EigenState, aug_subspace_step
from .errors import ConfigError
from .fem import (
    CrossAssembler,
    FeSpace,
    assemble_mass,
    assemble_stiffness,
    build_space,
    build_transfer,
)
# reference_eigensolve is not called here; perfbench/spans.py hooks it by this name.
from .linalg import (  # noqa: F401
    SparseMatrix,
    VCyclePreconditioner,
    a_normalize,
    check_pair_count,
    reference_eigensolve,
)
from .mesh import classify_regions, fit_interfaces, generate_structured_mesh


@dataclass
class LevelPlan:
    coarse_h: float
    h1: float
    beta: float = 2.0
    n_levels: int = 1
    L: int = 2
    theta: float = 0.1
    nev: int = 1
    mode: str = "galerkin"

    def __post_init__(self):
        if not self.h1 < self.coarse_h:
            raise ConfigError(f"h1={self.h1} must be smaller than coarse_h={self.coarse_h}")
        if not self.beta > 1:
            raise ConfigError(f"refinement ratio must exceed 1, got {self.beta}")
        for name in ("n_levels", "L", "nev"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if not 0 < self.theta < 1:
            raise ConfigError(f"theta must lie in (0,1), got {self.theta}")
        if self.mode not in ("galerkin", "exact"):
            raise ConfigError(f"mode must be 'galerkin' or 'exact', got {self.mode!r}")

    def fine_sizes(self):
        return [self.h1 / self.beta ** k for k in range(self.n_levels)]


@dataclass
class LevelData:
    space: FeSpace
    A_h: SparseMatrix
    B_h: SparseMatrix
    precond: VCyclePreconditioner          # PCG preconditioner of A_h, with its spectrum bounds
    assembler: CrossAssembler = None       # cross assembly against V_H
    transfer_prev: "object" = None         # fine-to-fine interpolation Q


@dataclass
class Hierarchy:
    coarse_space: FeSpace
    levels: list  # LevelData per fine level


@dataclass
class StepRecord:
    """One step of multilevel_solve: the coarsest solve or one augmented step.

    The per-slot fields are None on the coarsest record (level 1,
    iteration 0); ``anorm_errors`` is also None on a level without an
    error function. ``seconds`` times the solve or step alone.
    """

    level: int
    iteration: int
    n_dof: int
    lambdas: np.ndarray
    contractions: list = None     # achieved PCG contraction per slot
    pcg_iterations: list = None   # PCG iterations per slot
    anorm_errors: np.ndarray = None
    seconds: float = 0.0


def _fitted_mesh(domain, circles, h):
    # Same steps as mesh.fitted_mesh, called through this module's names:
    # perfbench/spans.py times mesh generation and fitting by patching
    # generate_structured_mesh, fit_interfaces and classify_regions here.
    mesh = generate_structured_mesh(domain, h)
    if circles:
        mesh = fit_interfaces(mesh, circles)
        mesh = classify_regions(mesh, circles)
    return mesh


def build_hierarchy(plan: LevelPlan, domain, circles, coeff) -> Hierarchy:
    """Meshes, spaces, operators and transfers for every level.

    Each resolution is meshed independently (structured grid plus
    interface snapping), so successive levels are nonnested. Each level's
    PCG preconditioner is built here, once, so that no solve pays for it:
    an LU factor on level 1, and a V-cycle down to it on every finer level.
    """
    coarse_space = build_space(_fitted_mesh(domain, circles, plan.coarse_h))

    levels = []
    prev_space = precond = None
    for h in plan.fine_sizes():
        space = build_space(_fitted_mesh(domain, circles, h))
        A_h = assemble_stiffness(space, coeff)
        B_h = assemble_mass(space)
        P = build_transfer(coarse_space, space)
        assembler = CrossAssembler(coarse_space, space, coeff, A_h, B_h, P,
                                   mode=plan.mode)
        Q = build_transfer(prev_space, space) if prev_space is not None else None
        precond = VCyclePreconditioner(A_h.csr, precond, Q)
        levels.append(LevelData(space=space, A_h=A_h, B_h=B_h, precond=precond,
                                assembler=assembler, transfer_prev=Q))
        prev_space = space
    return Hierarchy(coarse_space=coarse_space, levels=levels)


def coarsest_solve(level1: LevelData, nev, tol=1e-11, seed=0) -> EigenState:
    """Smallest nev eigenpairs on the first fine level, by a direct solve.

    Shift-invert Lanczos at shift 0 (eigsh, relative accuracy tol) on the
    LU factor that level 1's preconditioner holds, from a start vector
    drawn from seed. Pairs ascending, each eigenvector a-normalized with
    its largest-magnitude component positive. A nev above n/4 is a
    ConfigError.
    """
    A, B = level1.A_h, level1.B_h
    check_pair_count(nev, A.n)
    a_inv = LinearOperator(A.csr.shape, matvec=level1.precond.apply, dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(A.n)
    lams, vecs = eigsh(A.csr, k=nev, M=B.csr, sigma=0.0, which="LM", OPinv=a_inv,
                       tol=tol, v0=v0)
    order = np.argsort(lams)
    return EigenState(lambdas=lams[order], vectors=a_normalize(A, vecs[:, order]),
                      iteration=0)


def multilevel_solve(hierarchy: Hierarchy, plan: LevelPlan, coarse_tol=1e-11,
                     seed=0, error_fns=None) -> EigenState:
    """Coarsest solve, then L augmented subspace steps per finer level.

    The eigenvalue approximations are carried across levels unchanged;
    eigenvectors are interpolated with the fine-to-fine transfer and
    re-a-normalized. The returned state holds one StepRecord per
    (level, iteration) in ``records``. ``error_fns`` is an optional
    per-fine-level list of callables mapping an eigenvector block to
    per-slot A-norm errors; they run after each step's timed interval.
    """
    t0 = time.perf_counter()
    state = coarsest_solve(hierarchy.levels[0], plan.nev, tol=coarse_tol, seed=seed)
    records = [StepRecord(level=1, iteration=0, n_dof=hierarchy.levels[0].space.n_dof,
                          lambdas=state.lambdas.copy(),
                          seconds=time.perf_counter() - t0)]

    for k, level in enumerate(hierarchy.levels[1:], start=2):
        vectors = a_normalize(level.A_h, level.transfer_prev @ state.vectors)
        state = EigenState(lambdas=state.lambdas.copy(), vectors=vectors, iteration=0)
        error_fn = error_fns[k - 1] if error_fns is not None else None
        for ell in range(plan.L):
            t1 = time.perf_counter()
            state = aug_subspace_step(level, state, plan.theta)
            seconds = time.perf_counter() - t1
            records.append(StepRecord(
                level=k, iteration=ell + 1, n_dof=level.space.n_dof,
                lambdas=state.lambdas.copy(),
                contractions=[r.achieved_contraction for r in state.reports],
                pcg_iterations=[r.iterations for r in state.reports],
                anorm_errors=None if error_fn is None else np.asarray(error_fn(state.vectors)),
                seconds=seconds,
            ))
    state.records = records
    return state
