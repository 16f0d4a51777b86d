"""augeig benchmark: one workload per process, closed loop, one run at a time.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times ``build_hierarchy`` + ``multilevel_solve`` (or
``augeig solve``) with nothing patched. After one untimed warm-up iteration
it repeats the whole iteration, set-up included, while the next one is
expected to end within ``--seconds`` of the start, and reports medians.
With ``--trace 1`` it runs pairs of one untraced and one traced iteration
of the same seed, requires bit-identical eigenpairs, and reports
per-layer metrics from the traced ones.

Every iteration's eigenvalues are checked against an ARPACK reference
after peak RSS is read. The last line of standard output is the result
object; the lines before it give the environment and every metric with
its unit. Run from the root of a checkout: augeig is imported from
``src/`` next to this directory, never from an installed copy.
"""

import os

# One OpenBLAS thread unless the caller's environment sets a count. With
# two vCPUs, OpenBLAS's second thread spins beside the Python main thread:
# medians of identical solves over 30 s spread by 0.26 of their median
# with two threads and by 0.05 with one. OpenBLAS reads the variable when
# numpy loads it, so this precedes every numpy import.
BLAS_THREADS_FROM_CALLER = "OPENBLAS_NUM_THREADS" in os.environ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from check import evaluate, reference_eigenvalues
from spans import Recorder, layer_metrics
from workloads import WORKLOADS, run_cli, run_library, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

END_TO_END = {"setup_s": "s", "solve_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def _unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "contraction_max", "lambda_relerr_max", "residual_max")):
        return "ratio"
    if name.endswith(".work"):
        return "nnz_iters"
    if name.endswith("work_slope"):
        return "log-log"
    if name.endswith("dim_max"):
        return "rows"
    return "count"


PER_LAYER = {name: _unit(name) for name in [
    "mesh.generate_s", "mesh.fit_s", "mesh.locate.calls", "mesh.locate_s",
    "fem.transfer_s", "fem.transfer.calls", "fem.transfer.rows", "fem.assemble_s",
    "fem.coarse_blocks_s", "fem.border_s", "fem.border.calls",
    *(f"linalg.pcg.{g}.{k}" for g in ("correction", "reference")
      for k in ("calls", "iterations", "work", "s", "breakdowns")),
    *(f"linalg.pcg.correction.iterations_max.L{k}" for k in (2, 3)),
    "linalg.dense_eig_s", "linalg.dense_eig.calls", "linalg.dense_eig.dim_max",
    "linalg.reference_s", "linalg.reference.calls",
    "augsub.step_s", "augsub.step.calls", "augsub.correction_s", "augsub.bordered_s",
    "augsub.select_s", "augsub.reassemble_s", "augsub.contraction_max",
    "multilevel.coarsest_s", "multilevel.carry_s", "multilevel.work_slope",
    "multilevel.lambda_relerr_max", "multilevel.residual_max",
    "harness.oracle_s", "harness.oracle.calls", "harness.errors_s", "harness.self_s",
    "cli.self_s", "trace.overhead_frac", "trace.uncovered_frac",
]}


def import_augeig():
    """augeig from this checkout's ``src``; exits 1 if it is not there."""
    if not (SRC / "augeig" / "__init__.py").is_file():
        sys.exit(f"perfbench: no augeig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import augeig
    if Path(augeig.__file__).resolve().parent != SRC / "augeig":
        sys.exit(f"perfbench: imported augeig from {augeig.__file__}, not {SRC}")
    return augeig


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {k: os.environ[k] for k in sorted(os.environ)
                             if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                      "VECLIB_MAXIMUM_THREADS")},
        "blas_threads_from_caller": BLAS_THREADS_FROM_CALLER,
        "git_commit": _git_commit(),
    }


def warm_up():
    """One-off library initialisation, outside any timed interval.

    The first mid-sized dense LAPACK call of a process costs about 0.7 s
    more than later ones (OpenBLAS sets up its threads and buffers). Like
    interpreter start-up and imports, it is not augeig's work, and left in
    it would land in the first iteration's solve only.
    """
    import scipy.linalg
    n = 300
    x = np.random.default_rng(0).standard_normal((n, n))
    scipy.linalg.eigh(x @ x.T + n * np.eye(n), np.eye(n) + x @ x.T / n)


class Runner:
    """Runs iterations of one workload and checks their outputs."""

    def __init__(self, augeig, workload, seed, work):
        self.augeig = augeig
        self.workload = workload
        self.seed = seed
        self.cfg_path = str(work / "run.cfg")
        out_dir = work / "out"
        example = workload.config["example"]
        self.summary_path = str(out_dir / f"{example}_summary.txt")
        write_config(self.cfg_path, workload.config, seed, str(out_dir))
        self._refs = []

    def iterate(self, recorder=None):
        if self.workload.cli:
            return run_cli(self.augeig, self.cfg_path, self.summary_path, recorder)
        return run_library(self.augeig, self.cfg_path, recorder)

    def _reference(self, sample):
        for A, B, ref in self._refs:
            if A.shape == sample.A.shape and (A != sample.A).nnz == 0 \
                    and (B != sample.B).nnz == 0:
                return ref
        ref = reference_eigenvalues(sample.A, sample.B, len(sample.lambdas), self.seed)
        self._refs.append((sample.A, sample.B, ref))
        return ref

    def check(self, sample):
        """(ok, lambda_relerr_max, residual_max); reports a failure on stderr."""
        ok, relerr, res, why = evaluate(self.workload.gate, sample.lambdas,
                                        self._reference(sample), sample.A,
                                        sample.B, sample.vectors)
        if not ok:
            print(f"perfbench: correctness gate failed: {why}", file=sys.stderr)
        return ok, relerr, res


def _attempt(runner, recorder=None):
    try:
        return runner.iterate(recorder)
    except Exception:  # a failed iteration is counted, not fatal
        traceback.print_exc()
        return None


def _repeat(seconds, start):
    """Yields while the next round, predicted to last as long as the
    previous one, still ends within ``seconds`` after ``start``; always
    at least once."""
    while True:
        begin = time.perf_counter()
        yield
        last = time.perf_counter() - begin
        if time.perf_counter() - start + last > seconds:
            return


def _first(runner):
    """The first iteration of a process also pays lazy imports and first
    calls inside scipy and augeig: it is checked, not timed. Returns
    the start of the run and the iteration's sample (None if it failed)."""
    return time.perf_counter(), _attempt(runner)


def run_timed(runner, seconds):
    start, first = _first(runner)
    samples, attempted = [], 1
    for _ in _repeat(seconds, start):
        attempted += 1
        sample = _attempt(runner)
        if sample is not None:
            samples.append(sample)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = [runner.check(s) for s in [first, *samples] if s is not None]
    failed = attempted - sum(ok for ok, _, _ in checks)
    if not samples:
        return attempted, failed, None
    metrics = {"peak_rss_mb": peak_mb}
    for name in ("setup_s", "solve_s", "wall_s"):
        times = sorted(getattr(s, name) for s in samples)
        metrics[name] = statistics.median(times)
        print(f"  {name} over {len(times)} timed iterations: min {times[0]:.4g}, "
              f"median {metrics[name]:.4g}, max {times[-1]:.4g} s")
    return attempted, failed, metrics


def run_traced(runner, seconds):
    start, first = _first(runner)
    failed = int(first is None or not runner.check(first)[0])
    pairs, attempted = [], 1
    for _ in _repeat(seconds, start):
        attempted += 2
        plain = _attempt(runner)
        with Recorder() as recorder:
            traced = _attempt(runner, recorder)
        if plain is None or traced is None:
            failed += (plain is None) + (traced is None)
            continue
        recorder.write(OUT / f"trace-{runner.workload.name}.csv")
        ok_plain = runner.check(plain)[0]
        ok, relerr, res = runner.check(traced)
        same = (np.array_equal(plain.lambdas, traced.lambdas)
                and np.array_equal(plain.vectors, traced.vectors))
        if not same:
            print("perfbench: traced run changed the eigenpairs", file=sys.stderr)
        failed += (not ok_plain) + (not (ok and same))
        m = layer_metrics(recorder.spans, traced.level_sizes, traced.wall_s)
        m["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
        m["multilevel.lambda_relerr_max"] = relerr
        m["multilevel.residual_max"] = res
        pairs.append(m)
    if not pairs:
        return attempted, failed, None
    metrics = {name: statistics.median(m[name] for m in pairs) for name in PER_LAYER}
    return attempted, failed, metrics


def result_object(attempted, failed, metrics, units):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed nonnegative")

    augeig = import_augeig()
    workload = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    warm_up()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{workload.name}-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(augeig, workload, args.seed, work)
        run = run_traced if args.trace else run_timed
        attempted, failed, metrics = run(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        sys.exit(f"perfbench: every iteration of {workload.name} failed")

    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {workload.name}: seed {args.seed}, {attempted} attempted, "
          f"{failed} failed, fail_frac {failed / attempted:.4g} failed/attempted")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(result_object(attempted, failed, metrics, units)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
