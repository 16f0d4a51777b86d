"""Multilevel correction driver.

Builds the nonnested mesh/space hierarchy, direct-solves the coarsest
fine level, and runs a fixed number of augmented subspace iterations per
level, carrying the state up with fine-to-fine interpolation.
"""

import time
from dataclasses import dataclass, field

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
from .linalg import SparseMatrix, a_normalize, reference_eigensolve
from .mesh import Mesh, classify_regions, fit_interfaces, generate_structured_mesh


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
        if self.n_levels < 1:
            raise ConfigError("n_levels must be at least 1")
        if self.L < 1:
            raise ConfigError("L must be at least 1")
        if not 0 < self.theta < 1:
            raise ConfigError(f"theta must lie in (0,1), got {self.theta}")
        if self.mode not in ("galerkin", "exact"):
            raise ConfigError(f"mode must be 'galerkin' or 'exact', got {self.mode!r}")

    def fine_sizes(self):
        return [self.h1 / self.beta ** k for k in range(self.n_levels)]


@dataclass
class LevelData:
    mesh: Mesh
    space: FeSpace
    A_h: SparseMatrix
    B_h: SparseMatrix
    assembler: CrossAssembler = None       # cross assembly against V_H
    transfer_prev: "object" = None         # fine-to-fine interpolation Q


@dataclass
class Hierarchy:
    coarse_space: FeSpace
    levels: list  # LevelData per fine level


@dataclass
class LevelRecord:
    level: int
    iteration: int
    lambdas: "object"
    contractions: list
    seconds: float
    n_dof: int
    spmv_like: int  # nnz-proportional operation count for work accounting


def _fitted_mesh(domain, circles, h, snap_fraction):
    # Same steps as mesh.fitted_mesh, called through this module's names:
    # perfbench/spans.py times mesh generation and fitting by patching
    # generate_structured_mesh, fit_interfaces and classify_regions here.
    mesh = generate_structured_mesh(domain, h)
    if circles:
        mesh = fit_interfaces(mesh, circles, snap_fraction=snap_fraction)
        mesh = classify_regions(mesh, circles)
    return mesh


def build_hierarchy(plan: LevelPlan, domain, circles, coeff,
                    snap_fraction=0.45) -> Hierarchy:
    """Meshes, spaces, operators and transfers for every level.

    Each resolution is meshed independently (structured grid plus
    interface snapping), so successive levels are nonnested.
    """
    coarse_mesh = _fitted_mesh(domain, circles, plan.coarse_h, snap_fraction)
    coarse_space = build_space(coarse_mesh)

    levels = []
    prev_space = None
    for h in plan.fine_sizes():
        mesh = _fitted_mesh(domain, circles, h, snap_fraction)
        space = build_space(mesh)
        A_h = assemble_stiffness(space, coeff)
        B_h = assemble_mass(space)
        P = build_transfer(coarse_space, space)
        assembler = CrossAssembler(coarse_space, space, coeff, A_h, B_h, P,
                                   mode=plan.mode)
        Q = build_transfer(prev_space, space) if prev_space is not None else None
        levels.append(LevelData(mesh=mesh, space=space, A_h=A_h, B_h=B_h,
                                assembler=assembler, transfer_prev=Q))
        prev_space = space
    return Hierarchy(coarse_space=coarse_space, levels=levels)


def coarsest_solve(level1: LevelData, nev, tol=1e-11, seed=0) -> EigenState:
    """Reference eigensolve on the first fine level."""
    lams, vecs = reference_eigensolve(level1.A_h, level1.B_h, nev, tol, seed=seed)
    return EigenState(lambdas=lams, vectors=vecs, iteration=0)


def multilevel_solve(hierarchy: Hierarchy, plan: LevelPlan, coarse_tol=1e-11,
                     seed=0, records=None, error_fns=None) -> EigenState:
    """Coarsest solve, then L augmented subspace steps per finer level.

    The eigenvalue approximations are carried across levels unchanged;
    eigenvectors are interpolated with the fine-to-fine transfer and
    re-a-normalized. Appends one LevelRecord per (level, iteration) to
    ``records`` when given. ``error_fns`` is an optional per-fine-level
    list of callables mapping an eigenvector block to per-slot A-norm
    errors, recorded in the step history.
    """
    t0 = time.perf_counter()
    state = coarsest_solve(hierarchy.levels[0], plan.nev, tol=coarse_tol, seed=seed)
    if records is not None:
        records.append(LevelRecord(
            level=1, iteration=0, lambdas=state.lambdas.copy(),
            contractions=[], seconds=time.perf_counter() - t0,
            n_dof=hierarchy.levels[0].space.n_dof,
            spmv_like=hierarchy.levels[0].A_h.nnz,
        ))

    for k, level in enumerate(hierarchy.levels[1:], start=2):
        vectors = level.transfer_prev @ state.vectors
        for j in range(vectors.shape[1]):
            vectors[:, j] = a_normalize(level.A_h, vectors[:, j])
        state = EigenState(lambdas=state.lambdas.copy(), vectors=vectors,
                           iteration=0, history=state.history)
        error_fn = error_fns[k - 1] if error_fns is not None else None
        for ell in range(plan.L):
            t1 = time.perf_counter()
            state = aug_subspace_step(level.assembler, state, plan.theta,
                                      error_fn=error_fn)
            if records is not None:
                records.append(LevelRecord(
                    level=k, iteration=ell + 1, lambdas=state.lambdas.copy(),
                    contractions=state.history[-1].contractions,
                    seconds=time.perf_counter() - t1,
                    n_dof=level.space.n_dof,
                    spmv_like=level.A_h.nnz,
                ))
    return state


def work_accounting(records, border_dim):
    """Per-level table backing the linear-complexity check.

    Returns rows (level, n_dof, dense_eig_dim, spmv_like, seconds).
    """
    if not records:
        raise ConfigError("no records to account")
    table = {}
    for r in records:
        row = table.setdefault(r.level, [r.level, r.n_dof, border_dim, 0, 0.0])
        row[3] += r.spmv_like
        row[4] += r.seconds
    return [table[k] for k in sorted(table)]
