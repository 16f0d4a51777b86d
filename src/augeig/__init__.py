"""Nonnested augmented-subspace eigensolver for second-order elliptic
eigenvalue problems with piecewise-constant coefficients and circular
interfaces."""

from .augsub import EigenState, aug_subspace_step
from .fem import BorderedSystem, Coefficient, FeSpace
from .harness import RunConfig, load_config, run_example, timing_study
from .linalg import SolveReport, SparseMatrix, dense_sym_gen_eig, pcg_solve, reference_eigensolve
from .mesh import Circle, LocateResult, Mesh, Rect
from .multilevel import Hierarchy, LevelPlan, build_hierarchy, multilevel_solve

__all__ = [
    "BorderedSystem", "Circle", "Coefficient", "EigenState", "FeSpace",
    "Hierarchy", "LevelPlan", "LocateResult", "Mesh", "Rect", "RunConfig",
    "SolveReport", "SparseMatrix", "aug_subspace_step",
    "build_hierarchy", "dense_sym_gen_eig", "load_config", "multilevel_solve",
    "pcg_solve", "reference_eigensolve", "run_example", "timing_study",
]

__version__ = "0.1.0"
