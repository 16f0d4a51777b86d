"""The four benchmark workloads and one timed iteration of each.

A workload is an augeig configuration file. The benchmark writes it with
the run's ``--seed`` as the config ``seed`` and hands the program only
that file: library workloads load it with ``augeig.load_config`` and call
``build_hierarchy`` and ``multilevel_solve``; the CLI workload runs
``augeig.cli.main(["solve", "--config", path])`` in-process.
"""

import gc
import io
import re
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass

from check import Gate
from spans import DRIVER_ENTRY_POINTS, Recorder

# Galerkin workloads converge to the finest-level discrete eigenpairs.
# At the seed the largest relative eigenvalue error is 1.3e-7 (ladder)
# and 1.8e-7 (cli-solve); 1e-6 leaves that margin and still fails a
# lost, swapped or unconverged pair. The residual ||Au - lambda Bu|| /
# ||Bu|| grows like sqrt(eigenvalue error) / h: 0.19 at 5,625 dofs at
# the seed, while a vector that is not a fine eigenvector reads O(100)
# (exact mode reads 200). 1.0 separates the two.
GALERKIN_GATE = Gate(lambda_rel_tol=1e-6, residual_tol=1.0)
# Exact mode assembles the coarse blocks by quadrature on the fine mesh;
# the coarse space is not a subspace of the fine one, so its bordered
# problem is not a Galerkin projection of the fine problem and converges
# to other numbers: at the seed they differ from the fine eigenvalues by
# up to 5.1%. The gate accepts the coarse-space discretisation error
# scale (10%) and catches lost or swapped pairs; its residual is reported
# only.
EXACT_GATE = Gate(lambda_rel_tol=0.1, residual_tol=None)


@dataclass(frozen=True)
class Workload:
    name: str
    cli: bool              # run through augeig.cli.main instead of the library
    config: dict           # augeig config keys, without seed and out_dir
    gate: Gate


def _cfg(example, coarse_h, h1, n_levels, mode="galerkin", **extra):
    return dict(example=example, coarse_h=repr(coarse_h), h1=repr(h1), beta="2",
                n_levels=str(n_levels), L="2", theta="0.1", nev="4", mode=mode,
                **extra)


# Why each workload exists (README.md has the full table). Each iteration
# is a few seconds, so that a 30-second run sets up and solves seven
# times or more and reports medians of several samples.
# ladder       three levels to 5,625 dofs: point location in the
#              transfers is most of set-up, PCG (coarsest solve and
#              correction) and the dim-260 bordered solve the solve.
# cli-solve    the path users run; the reference oracle is most of it.
# wide-coarse  N_H = 1225: dense bordered eigh (dim 1229) and the
#              coarsest solve dominate, PCG matters least.
# exact-mode   the only path into exact cross assembly.
WORKLOADS = {w.name: w for w in [
    Workload("ladder", False, _cfg("example1", 2 / 17, 2 / 19, 3), GALERKIN_GATE),
    Workload("cli-solve", True,
             _cfg("example1", 2 / 17, 2 / 27, 2, clusters="2,3", tol_lambda="1e-5"),
             GALERKIN_GATE),
    Workload("wide-coarse", False, _cfg("example2", 2 / 36, 2 / 40, 2), GALERKIN_GATE),
    Workload("exact-mode", False, _cfg("example1", 2 / 17, 2 / 19, 2, mode="exact"),
             EXACT_GATE),
]}


def write_config(path, config, seed, out_dir):
    with open(path, "w") as f:
        for key, value in {**config, "seed": str(seed), "out_dir": out_dir}.items():
            f.write(f"{key} = {value}\n")


@dataclass
class Sample:
    """One iteration: its times, its outputs and the finest operators."""

    setup_s: float
    solve_s: float
    wall_s: float
    lambdas: object        # as the program reports them
    vectors: object        # finest-level eigenvector block
    A: object              # finest stiffness, scipy CSR
    B: object              # finest mass, scipy CSR
    level_sizes: tuple


def _plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_library(augeig, cfg_path, recorder=None):
    config = augeig.load_config(cfg_path)
    plan, ex = config.plan, config.example
    coeff = ex.coefficient()
    call = recorder.call if recorder is not None else _plain_call
    gc.collect()
    t0 = time.perf_counter()
    hierarchy = call("multilevel.build_hierarchy", augeig.build_hierarchy,
                     plan, ex.domain, ex.circles, coeff)
    t1 = time.perf_counter()
    state = call("multilevel.multilevel_solve", augeig.multilevel_solve,
                 hierarchy, plan, coarse_tol=config.coarse_tol, seed=config.seed)
    t2 = time.perf_counter()
    finest = hierarchy.levels[-1]
    return Sample(t1 - t0, t2 - t1, t2 - t0, state.lambdas, state.vectors,
                  finest.A_h.csr, finest.B_h.csr,
                  tuple(level.space.n_dof for level in hierarchy.levels))


_SLOT = re.compile(r"^slot \d+: lambda=(\S+) ")


def run_cli(augeig, cfg_path, summary_path, recorder=None):
    """``augeig solve`` in-process.

    Set-up is the time spent in the harness's call to build_hierarchy;
    solve is the rest of the command after it: the oracle, the multilevel
    solve, error measurement and output.
    """
    import augeig.cli
    timers = recorder if recorder is not None else Recorder(DRIVER_ENTRY_POINTS)
    call = recorder.call if recorder is not None else _plain_call
    out = io.StringIO()
    gc.collect()
    with (timers if recorder is None else nullcontext()):
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(out):
            code = call("cli.main", augeig.cli.main, ["solve", "--config", cfg_path])
        t1 = time.perf_counter()
    if code != 0:
        raise RuntimeError(f"augeig solve exited with {code}: {out.getvalue()[-2000:]}")
    hierarchy = timers.results.pop("multilevel.build_hierarchy")
    state = timers.results.pop("multilevel.multilevel_solve")
    with open(summary_path) as f:
        lambdas = [float(m.group(1)) for m in map(_SLOT.match, f) if m]
    finest = hierarchy.levels[-1]
    setup = timers.total("multilevel.build_hierarchy")
    return Sample(setup, t1 - t0 - setup, t1 - t0,
                  lambdas, state.vectors, finest.A_h.csr, finest.B_h.csr,
                  tuple(level.space.n_dof for level in hierarchy.levels))

