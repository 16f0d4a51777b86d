"""Outside-in span recorder for augeig's layer entry points.

The recorder replaces module attributes by name with thin wrappers, so
the program under test is not edited: a call made through a patched name
records one span ``[name, start, end, parent, info]`` in memory. After
the traced iteration the spans are turned into per-layer metrics (self
time, counts, work) and written to a CSV file.

An entry point that a later version of augeig no longer has is reported
as missing with a warning; its metrics then read 0.
"""

import functools
import importlib
import sys
import time

import numpy as np

# (module, attribute path, span name). A name is patched where it is
# looked up by its caller: ``augeig.augsub.pcg_solve`` is the correction
# solve, ``augeig.linalg.pcg_solve`` the one inside the reference solver.
ENTRY_POINTS = [
    ("augeig.multilevel", "generate_structured_mesh", "mesh.generate"),
    ("augeig.multilevel", "fit_interfaces", "mesh.fit"),
    ("augeig.multilevel", "classify_regions", "mesh.fit"),
    ("augeig.fem", "locate_point", "mesh.locate"),
    ("augeig.multilevel", "build_space", "fem.assemble"),
    ("augeig.multilevel", "assemble_stiffness", "fem.assemble"),
    ("augeig.multilevel", "assemble_mass", "fem.assemble"),
    ("augeig.multilevel", "build_transfer", "fem.transfer"),
    ("augeig.fem", "CrossAssembler.assemble", "fem.border"),
    ("augeig.multilevel", "CrossAssembler", "fem.coarse_blocks"),
    ("augeig.multilevel", "reference_eigensolve", "linalg.reference"),
    ("augeig.multilevel", "coarsest_solve", "multilevel.coarsest"),
    ("augeig.multilevel", "aug_subspace_step", "augsub.step"),
    ("augeig.augsub", "correction_solve", "augsub.correction"),
    ("augeig.augsub", "solve_bordered", "augsub.bordered"),
    ("augeig.augsub", "select_eigenpairs", "augsub.select"),
    ("augeig.augsub", "reassemble_fine", "augsub.reassemble"),
    ("augeig.augsub", "pcg_solve", "linalg.pcg"),
    ("augeig.augsub", "dense_sym_gen_eig", "linalg.dense_eig"),
    ("augeig.linalg", "pcg_solve", "linalg.pcg"),
    ("augeig.linalg", "dense_sym_gen_eig", "linalg.dense_eig"),
    ("augeig.harness", "reference_eigensolve", "harness.oracle"),
    ("augeig.harness", "measure_errors", "harness.errors"),
    ("augeig.harness", "build_hierarchy", "multilevel.build_hierarchy"),
    ("augeig.harness", "multilevel_solve", "multilevel.multilevel_solve"),
    ("augeig.cli", "run_example", "harness.run_example"),
]

# The two driver calls inside ``augeig solve``; the CLI workload times
# them even with tracing off, to split its wall time into set-up and solve,
# and keeps their return values for the correctness check.
DRIVER_SPANS = ("multilevel.build_hierarchy", "multilevel.multilevel_solve")
DRIVER_ENTRY_POINTS = [e for e in ENTRY_POINTS
                       if e[0] == "augeig.harness" and e[2] in DRIVER_SPANS]


def _pcg_info(args, kwargs, result):
    A = args[0] if args else kwargs["A"]
    report = result[1]
    return (int(report.iterations), bool(report.breakdown),
            float(report.achieved_contraction), int(A.nnz), int(A.n))


def _dense_info(args, kwargs, result):
    return int(np.shape(args[0] if args else kwargs["A"])[0])


def _rows_info(args, kwargs, result):
    return int(result.shape[0])


# Per span name: how to read a count from the call's arguments and
# return value.
INFO = {
    "linalg.pcg": _pcg_info,
    "linalg.dense_eig": _dense_info,
    "fem.transfer": _rows_info,
}


def _warn(message):
    print(f"perfbench: warning: {message}", file=sys.stderr)


class Recorder:
    """Patches entry points while active and records one span per call.

    The last return value of each driver span is held in ``results``:
    the CLI workload reads the hierarchy and state that ``augeig solve``
    builds internally.
    """

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = list(entry_points)
        self.spans = []
        self.results = {}
        self.missing = []
        self._stack = []
        self._patches = []

    def _wrap(self, original, name):
        info_fn = INFO.get(name)
        keep = name in DRIVER_SPANS
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info_fn is not None:
                try:
                    span[4] = info_fn(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError) as exc:
                    _warn(f"cannot read counters of {name}: {exc!r}")
            if keep:
                self.results[name] = result
            return result

        return wrapper

    def __enter__(self):
        for module_name, path, name in self.entry_points:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                _warn(f"entry point {module_name}.{path} not found; "
                      f"metrics of span {name!r} read 0")
                continue
            setattr(owner, attr, self._wrap(original, name))
            self._patches.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def call(self, name, fn, *args, **kwargs):
        """Record a span around a call the benchmark makes itself."""
        return self._wrap(fn, name)(*args, **kwargs)

    def total(self, name):
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def write(self, path):
        """One line per span: name, start, end (s from the first), parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("name,start_s,end_s,parent\n")
            for name, start, end, parent, _ in self.spans:
                f.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


# pcg spans are split by the nearest ancestor in these groups.
_PCG_CALLERS = {"augsub.correction": "correction",
                "linalg.reference": "reference", "harness.oracle": "reference"}


def layer_metrics(spans, level_sizes, wall_s):
    """Per-layer metrics of one traced iteration.

    ``<span>_s`` is self time: the span's duration minus the part its
    direct children cover. ``multilevel.coarsest_s`` and
    ``harness.oracle_s`` are inclusive. ``level_sizes`` lists n_dof per
    fine level, so correction solves can be attributed to a level.
    """
    n = len(spans)
    child = np.zeros(n)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time, inclusive, calls = {}, {}, {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start - child[i])
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    def s(*names):
        return sum(self_time.get(x, 0.0) for x in names)

    def c(*names):
        return sum(calls.get(x, 0) for x in names)

    pcg = {g: dict(calls=0, iterations=0, work=0, s=0.0, breakdowns=0)
           for g in ("correction", "reference")}
    level_of = {size: k for k, size in enumerate(level_sizes, start=1)}
    iter_max, work_per_level, contraction_max = {}, {}, 0.0
    dense_dim_max = 0
    for i, (name, start, end, parent, info) in enumerate(spans):
        if name == "linalg.dense_eig" and info is not None:
            dense_dim_max = max(dense_dim_max, info)
        if name != "linalg.pcg" or info is None:
            continue
        group = None
        p = parent
        while p >= 0 and group is None:
            group = _PCG_CALLERS.get(spans[p][0])
            p = spans[p][3]
        if group is None:
            continue
        its, breakdown, contraction, nnz, dim = info
        g = pcg[group]
        g["calls"] += 1
        g["iterations"] += its
        g["work"] += its * nnz
        g["s"] += end - start - child[i]
        g["breakdowns"] += int(breakdown)
        if group == "correction":
            k = level_of.get(dim, 0)
            iter_max[k] = max(iter_max.get(k, 0), its)
            work_per_level[dim] = work_per_level.get(dim, 0) + its * nnz
            contraction_max = max(contraction_max, contraction)

    if len(work_per_level) >= 2:
        dims = sorted(work_per_level)
        slope = float(np.polyfit(np.log(dims),
                                 np.log([work_per_level[d] for d in dims]), 1)[0])
    else:
        slope = 0.0  # fewer than two corrected levels: no slope
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)

    out = {
        "mesh.generate_s": s("mesh.generate"),
        "mesh.fit_s": s("mesh.fit"),
        "mesh.locate.calls": c("mesh.locate"),
        "mesh.locate_s": s("mesh.locate"),
        "fem.transfer_s": s("fem.transfer"),
        "fem.transfer.calls": c("fem.transfer"),
        "fem.transfer.rows": sum(sp[4] or 0 for sp in spans if sp[0] == "fem.transfer"),
        "fem.assemble_s": s("fem.assemble"),
        "fem.coarse_blocks_s": s("fem.coarse_blocks"),
        "fem.border_s": s("fem.border"),
        "fem.border.calls": c("fem.border"),
    }
    for group, g in pcg.items():
        for key, value in g.items():
            out[f"linalg.pcg.{group}.{key}"] = value
    for k in (2, 3):
        out[f"linalg.pcg.correction.iterations_max.L{k}"] = iter_max.get(k, 0)
    out.update({
        "linalg.dense_eig_s": s("linalg.dense_eig"),
        "linalg.dense_eig.calls": c("linalg.dense_eig"),
        "linalg.dense_eig.dim_max": dense_dim_max,
        "linalg.reference_s": s("linalg.reference", "harness.oracle"),
        "linalg.reference.calls": c("linalg.reference", "harness.oracle"),
        "augsub.step_s": s("augsub.step"),
        "augsub.step.calls": c("augsub.step"),
        "augsub.correction_s": s("augsub.correction"),
        "augsub.bordered_s": s("augsub.bordered"),
        "augsub.select_s": s("augsub.select"),
        "augsub.reassemble_s": s("augsub.reassemble"),
        "augsub.contraction_max": contraction_max,
        "multilevel.coarsest_s": inclusive.get("multilevel.coarsest", 0.0),
        "multilevel.carry_s": s("multilevel.multilevel_solve"),
        "multilevel.work_slope": slope,
        "harness.oracle_s": inclusive.get("harness.oracle", 0.0),
        "harness.oracle.calls": c("harness.oracle"),
        "harness.errors_s": s("harness.errors"),
        "harness.self_s": s("harness.run_example"),
        "cli.self_s": s("cli.main"),
        "trace.uncovered_frac": 1.0 - roots / wall_s,
    })
    return out
