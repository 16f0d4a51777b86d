"""Benchmark harness: example definitions, configuration, error
measurement with spectral projection for eigenvalue clusters, CSV
emission and timing studies."""

import os
import time
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ConfigError, LinalgError
from .fem import Coefficient
from .linalg import a_norm, reference_eigensolve
from .mesh import Circle, Rect
from .multilevel import Hierarchy, LevelPlan, build_hierarchy, multilevel_solve

CSV_HEADER = "level,iter,slot,lambda,lambda_err,anorm_err,contraction,seconds"

# Adjacent reference eigenvalues closer than this (relative) are treated
# as one multiple eigenvalue when clusters are not given explicitly.
CLUSTER_REL_GAP = 1e-6


@dataclass
class ExampleSpec:
    name: str
    domain: Rect
    circles: list          # Circle per interior region
    circle_k: list         # coefficient value per circle
    background_k: float = 1.0
    clusters: list = field(default_factory=list)  # 0-based, disjoint, sorted

    def coefficient(self):
        values = {0: self.background_k}
        for i, k in enumerate(self.circle_k):
            values[i + 1] = k
        return Coefficient(values)

    def validate(self):
        for k in [self.background_k, *self.circle_k]:
            if not k > 0:
                raise ConfigError(f"coefficient K must be positive, got {k}")
        for c in self.circles:
            if not c.strictly_inside(self.domain):
                raise ConfigError(f"circle {c} is not strictly inside the domain")
        seen = set()
        for cl in self.clusters:
            if sorted(cl) != list(cl):
                raise ConfigError(f"cluster {cl} is not sorted")
            if seen & set(cl):
                raise ConfigError("clusters must be disjoint")
            seen |= set(cl)


def example1():
    """Square with two circular inclusions tangent at the center.

    The inclusion radius is 1/3, matching the region definition
    (x - 2/3)^2 + (y - 1)^2 <= 1/9. No cluster: the geometry's only
    symmetries are the two mirrors x = 1 and y = 1, which force no
    multiple eigenvalue, and lambda_2, lambda_3 lie 5-6% apart.
    """
    return ExampleSpec(
        name="example1",
        domain=Rect(0.0, 0.0, 2.0, 2.0),
        circles=[Circle((2 / 3, 1.0), 1 / 3), Circle((4 / 3, 1.0), 1 / 3)],
        circle_k=[10.0, 10.0],
    )


def example2():
    """Square partitioned into five parts by four circles of radius 0.25.

    The geometry is symmetric under a 90-degree rotation about the
    center, so lambda_2 = lambda_3 is a double eigenvalue (slots 2 and 3).
    The fitted mesh splits it by a relative gap that shrinks like h^2.
    """
    centers = [(0.5, 0.5), (1.5, 0.5), (0.5, 1.5), (1.5, 1.5)]
    return ExampleSpec(
        name="example2",
        domain=Rect(0.0, 0.0, 2.0, 2.0),
        circles=[Circle(c, 0.25) for c in centers],
        circle_k=[10.0] * 4,
        clusters=[[1, 2]],
    )


def unit_square():
    """Interface-free smoke case: constant-coefficient Laplacian on (0,2)^2."""
    return ExampleSpec(
        name="unit_square",
        domain=Rect(0.0, 0.0, 2.0, 2.0),
        circles=[],
        circle_k=[],
        clusters=[[1, 2]],
    )

EXAMPLES = {"example1": example1, "example2": example2, "unit_square": unit_square}


@dataclass
class RunConfig:
    example: ExampleSpec
    plan: LevelPlan
    tol_lambda: float = 1e-9
    coarse_tol: float = 1e-11
    out_dir: str = "out"
    seed: int = 0
    timing: bool = True  # off -> zero seconds column for bit-identical CSVs

    def __post_init__(self):
        if not self.tol_lambda > 0:
            raise ConfigError(f"tol_lambda must be positive, got {self.tol_lambda}")
        if not self.coarse_tol > 0:
            raise ConfigError(f"coarse_tol must be positive, got {self.coarse_tol}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        self.example.validate()


# Config file keys: example= or a custom geometry, clusters, and one per
# setting of LevelPlan and RunConfig, each read by its field's type.
CUSTOM_GEOMETRY_KEYS = ("domain", "circles", "background_k")
_PLAN_FIELDS = {f.name: f for f in fields(LevelPlan)}
_RUN_FIELDS = {f.name: f for f in fields(RunConfig) if f.name not in ("example", "plan")}
CONFIG_KEYS = {"example", "clusters", *CUSTOM_GEOMETRY_KEYS, *_PLAN_FIELDS, *_RUN_FIELDS}
_READERS = {float: float, int: int, str: str, bool: {"on": True, "off": False}.__getitem__}


def _read(key, text, reader):
    """reader(text), a malformed value reported as a ConfigError."""
    try:
        return reader(text)
    except (ValueError, TypeError, KeyError):
        raise ConfigError(f"bad value for {key!r}: {text!r}") from None


def _parse_kv(path):
    pairs = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in pairs:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            pairs[key] = value
    return pairs


def _parse_circles(text):
    circles, ks = [], []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        values = part.split(",")
        if len(values) != 4:
            raise ConfigError(f"circle spec {part!r} must be 'cx,cy,r,K'")
        cx, cy, r, k = (float(s) for s in values)
        circles.append(Circle((cx, cy), r))
        ks.append(k)
    return circles, ks


def _parse_clusters(text):
    clusters = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            slots = [int(s) for s in part.split(",")]
            if min(slots) < 1:
                raise ConfigError(f"cluster slots are 1-based, got {part!r}")
            clusters.append([j - 1 for j in slots])  # 0-based internally
    return clusters


def _load_example(pairs):
    custom = pairs.keys() & set(CUSTOM_GEOMETRY_KEYS)
    if "example" in pairs:
        if pairs["example"] not in EXAMPLES:
            raise ConfigError(f"unknown example {pairs['example']!r}")
        if custom:
            raise ConfigError("give either example= or a custom geometry, not both")
        ex = EXAMPLES[pairs["example"]]()
    elif "domain" not in pairs:
        raise ConfigError("missing required key 'domain'")
    else:
        circles, ks = _read("circles", pairs.get("circles", ""), _parse_circles)
        domain = _read("domain", pairs["domain"], lambda s: Rect(*map(float, s.split(","))))
        ex = ExampleSpec(name="custom", domain=domain, circles=circles, circle_k=ks)
    for key, reader in (("background_k", float), ("clusters", _parse_clusters)):
        if key in pairs:
            setattr(ex, key, _read(key, pairs[key], reader))
    return ex


def load_config(path) -> RunConfig:
    """Strict key=value configuration with '#' comments.

    A setting the file leaves out takes its LevelPlan or RunConfig default.
    """
    pairs = _parse_kv(path)

    def given(schema):
        for name, f in schema.items():
            if f.default is MISSING and name not in pairs:
                raise ConfigError(f"missing required key {name!r}")
        return {name: _read(name, pairs[name], _READERS[f.type])
                for name, f in schema.items() if name in pairs}

    plan = LevelPlan(**given(_PLAN_FIELDS))
    return RunConfig(example=_load_example(pairs), plan=plan, **given(_RUN_FIELDS))


def detect_clusters(ref_lams, explicit=None):
    """Group adjacent reference eigenvalues closer than CLUSTER_REL_GAP."""
    if explicit:
        return [list(c) for c in explicit]
    clusters = []
    current = [0]
    for i in range(1, len(ref_lams)):
        scale = max(abs(ref_lams[i]), 1.0)
        if abs(ref_lams[i] - ref_lams[i - 1]) < CLUSTER_REL_GAP * scale:
            current.append(i)
        else:
            if len(current) > 1:
                clusters.append(current)
            current = [i]
    if len(current) > 1:
        clusters.append(current)
    return clusters


def measure_errors(vectors, ref_vecs, clusters, A_h):
    """Per-slot A-norm eigenfunction errors.

    Slots belonging to a cluster are measured against the A-orthogonal
    projection onto the span of the cluster's reference vectors; singleton
    slots use the sign-agnostic distance to their reference vector.
    """
    m = vectors.shape[1]
    if ref_vecs.shape[1] < m:
        raise LinalgError("reference does not cover all tracked slots")
    slot_cluster = {}
    for cl in clusters:
        for j in cl:
            slot_cluster[j] = cl
    anorm_errors = np.empty(m)
    for j in range(m):
        u = vectors[:, j]
        if j in slot_cluster:
            cl = [c for c in slot_cluster[j] if c < ref_vecs.shape[1]]
            basis = ref_vecs[:, cl]  # a-orthonormal reference pairs
            coeffs = basis.T @ (A_h.csr @ u)
            anorm_errors[j] = a_norm(A_h, u - basis @ coeffs)
        else:
            ub = ref_vecs[:, j]
            anorm_errors[j] = min(a_norm(A_h, u - ub), a_norm(A_h, u + ub))
    return anorm_errors


@dataclass
class RunResult:
    state: "object"     # final EigenState; its records hold every step
    references: list    # per fine level: (lambdas, vectors)
    clusters: list
    converged: bool
    csv_path: str
    summary_path: str


def _reference_for_level(level, nev, clusters, seed):
    need = max([nev] + [c[-1] + 1 for c in clusters]) if clusters else nev
    return reference_eigensolve(level.A_h, level.B_h, need, 1e-11, level.precond, seed=seed)


def run_example(config: RunConfig) -> RunResult:
    """Full pipeline: hierarchy, multilevel solve, reference, CSV, summary.

    References are solved before the multilevel run so that per-step
    timings stay clean, and per-slot A-norm errors can be logged for every
    iteration of every level.
    """
    ex = config.example
    plan = config.plan
    coeff = ex.coefficient()
    hierarchy = build_hierarchy(plan, ex.domain, ex.circles, coeff)

    # Reference on the finest level is the convergence oracle; coarser
    # levels get references only for error reporting.
    finest = hierarchy.levels[-1]
    ref_lams, ref_vecs = _reference_for_level(finest, plan.nev, ex.clusters,
                                              config.seed)
    clusters = detect_clusters(ref_lams, ex.clusters)
    references = [_reference_for_level(level, plan.nev, clusters, config.seed)
                  for level in hierarchy.levels[:-1]]
    references.append((ref_lams, ref_vecs))

    def error_fn(level, ref_vecs):
        return lambda V: measure_errors(V, ref_vecs, clusters, level.A_h)

    error_fns = [error_fn(level, ref[1]) for level, ref in zip(hierarchy.levels, references)]
    state = multilevel_solve(hierarchy, plan, coarse_tol=config.coarse_tol,
                             seed=config.seed, error_fns=error_fns)

    lam_err = np.abs(state.lambdas - ref_lams[:plan.nev])
    converged = bool((lam_err < config.tol_lambda).all())

    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = os.path.join(config.out_dir, f"{ex.name}_convergence.csv")
    summary_path = os.path.join(config.out_dir, f"{ex.name}_summary.txt")
    _write_csv(csv_path, config, state.records, references)
    _write_summary(summary_path, config, state, ref_lams, lam_err, converged)

    return RunResult(state=state, references=references, clusters=clusters,
                     converged=converged, csv_path=csv_path, summary_path=summary_path)


def _write_csv(path, config, records, references):
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for rec in records:
            ref_lams = references[rec.level - 1][0]
            seconds = rec.seconds if config.timing else 0.0
            for slot in range(config.plan.nev):
                lam = rec.lambdas[slot]
                lam_err = abs(lam - ref_lams[slot])
                aerr = rec.anorm_errors[slot] if rec.anorm_errors is not None else float("nan")
                con = rec.contractions[slot] if rec.contractions is not None else 0.0
                f.write(
                    f"{rec.level},{rec.iteration},{slot + 1},"
                    f"{lam:.17g},{lam_err:.17g},{aerr:.17g},{con:.17g},{seconds:.6f}\n"
                )


def _write_summary(path, config, state, ref_lams, lam_err, converged):
    with open(path, "w") as f:
        f.write(f"example: {config.example.name}\n")
        f.write(f"criterion: |lambda - lambda_ref| < {config.tol_lambda:g}\n")
        for j in range(config.plan.nev):
            status = "ok" if lam_err[j] < config.tol_lambda else "FAIL"
            f.write(
                f"slot {j + 1}: lambda={state.lambdas[j]:.12g} "
                f"ref={ref_lams[j]:.12g} err={lam_err[j]:.3g} {status}\n"
            )
        f.write(f"converged: {'yes' if converged else 'no'}\n")


def timing_study(config: RunConfig):
    """Wall-clock seconds of multilevel_solve per finest-level size.

    Builds the hierarchy once, runs the solve on its first 1..n_levels
    levels and reports the least-squares slope of log(seconds) against
    log(N_h). Writes a "n_dof,seconds" CSV next to the convergence output.
    """
    if config.plan.n_levels < 3:
        raise ConfigError("timing study needs at least 3 levels")
    ex = config.example
    full = build_hierarchy(config.plan, ex.domain, ex.circles, ex.coefficient())
    points = []
    for n in range(1, config.plan.n_levels + 1):
        hierarchy = Hierarchy(full.coarse_space, full.levels[:n])
        t0 = time.perf_counter()
        multilevel_solve(hierarchy, config.plan, coarse_tol=config.coarse_tol,
                         seed=config.seed)
        seconds = time.perf_counter() - t0
        points.append((hierarchy.levels[-1].space.n_dof, seconds))

    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, f"{ex.name}_timing.csv")
    with open(path, "w") as f:
        f.write("n_dof,seconds\n")
        for n_dof, seconds in points:
            f.write(f"{n_dof},{seconds:.6f}\n")

    logs = np.log([p[0] for p in points])
    logt = np.log([max(p[1], 1e-9) for p in points])
    slope = float(np.polyfit(logs, logt, 1)[0])
    return points, slope, path
