"""Smoke test of the benchmark on tiny configs.

    python3 perfbench/selftest.py

Runs each of the four workload paths (library Galerkin ladder, CLI,
wide coarse space, exact mode) on a small mesh, untraced and traced,
through the same code as ``run.py``. It checks that every iteration
passes its correctness gate, and that the traced run reaches each
workload's layer. It also checks that the emitted metric names and
units, and the workload names, match ``BENCHMARK.json``. Exits 1 on
any problem.
"""

import dataclasses
import json
import math
import shutil
import sys

import run
from spans import Recorder
from workloads import WORKLOADS

# Small meshes with the workload's geometry; h_max stays below the
# circle radius (1/3 in example1, 1/4 in example2). The Galerkin ladders
# keep three levels and a coarse space fine enough to meet the same gates
# as the full-size workloads.
TINY = {
    "ladder": dict(coarse_h=repr(2 / 15), h1=repr(2 / 19), n_levels="3"),
    "cli-solve": dict(coarse_h=repr(2 / 15), h1=repr(2 / 19), n_levels="3"),
    "wide-coarse": dict(coarse_h=repr(2 / 13), h1=repr(2 / 21), n_levels="2"),
    "exact-mode": dict(coarse_h=repr(2 / 9), h1=repr(2 / 15), n_levels="2"),
}

# Per workload, traced metrics that must be nonzero: the layer it exists for.
REACHES = {
    "ladder": ["mesh.locate.calls", "fem.transfer.rows", "multilevel.work_slope",
               "linalg.pcg.correction.iterations_max.L3"],
    "cli-solve": ["harness.oracle.calls", "harness.self_s", "cli.self_s",
                  "linalg.pcg.reference.work"],
    "wide-coarse": ["linalg.dense_eig.dim_max", "multilevel.coarsest_s"],
    "exact-mode": ["fem.coarse_blocks_s", "fem.border.calls"],
}


def check_declarations(problems):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if sorted(WORKLOADS) != sorted(w["name"] for w in spec["workloads"]):
        problems.append("workload names differ from BENCHMARK.json")
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            problems.append(f"{key} differs from BENCHMARK.json: "
                            f"{sorted(set(declared.items()) ^ set(units.items()))}")


def check_run(name, trace, attempted, failed, metrics, units, problems):
    if metrics is None:
        problems.append(f"{name} trace={trace}: every iteration failed")
        return
    result = json.loads(json.dumps(run.result_object(attempted, failed, metrics, units)))
    if not result["correct"] or result["failed"]:
        problems.append(f"{name} trace={trace}: {failed} of {attempted} failed")
    for metric, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{name} trace={trace}: {metric} = {entry['value']!r}")
    if trace:
        for metric in REACHES[name]:
            if not metrics[metric]:
                problems.append(f"{name}: traced run reads 0 for {metric}")
    print(f"{name} trace={trace}: {attempted} attempted, {failed} failed")


def main():
    problems = []
    check_declarations(problems)
    augeig = run.import_augeig()
    with Recorder() as recorder:
        if recorder.missing:
            problems.append(f"entry points not found: {recorder.missing}")
    run.warm_up()
    run.OUT.mkdir(exist_ok=True)
    for name, overrides in TINY.items():
        base = WORKLOADS[name]
        workload = dataclasses.replace(base, config={**base.config, **overrides})
        work = run.OUT / f"selftest-{name}"
        work.mkdir(exist_ok=True)
        try:
            runner = run.Runner(augeig, workload, 0, work)
            check_run(name, 0, *run.run_timed(runner, 1), run.END_TO_END, problems)
            check_run(name, 1, *run.run_traced(runner, 1), run.PER_LAYER, problems)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"selftest: FAIL {problem}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
