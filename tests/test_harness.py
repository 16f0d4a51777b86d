"""Configuration parsing, cluster handling, error measurement, CSV output."""

import gc
import re
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from augeig import mesh
from augeig.errors import ConfigError
from augeig.fem import assemble_mass, assemble_stiffness, build_space
from augeig.harness import (
    CONFIG_KEYS,
    CSV_HEADER,
    CUSTOM_GEOMETRY_KEYS,
    RunConfig,
    detect_clusters,
    example1,
    example2,
    load_config,
    measure_errors,
    run_example,
    timing_study,
    unit_square,
)
from augeig.linalg import pcg_solve
from augeig.multilevel import LevelPlan, build_hierarchy, multilevel_solve

from conftest import eigsh_reference

EXACT_LAMBDA1 = np.pi ** 2 / 2


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE = """
example = unit_square
coarse_h = 0.25
h1 = 0.125
n_levels = 2
L = 2
theta = 0.1
nev = 3
tol_lambda = 1e-4
seed = 0
timing = off
"""


# -- config parsing --------------------------------------------------------

def test_load_config_basic(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE + f"out_dir = {tmp_path}/out\n"))
    assert cfg.example.name == "unit_square"
    assert cfg.plan.n_levels == 2
    assert cfg.plan.nev == 3
    assert cfg.timing is False
    assert cfg.coarse_tol == 1e-11


def test_load_config_defaults_are_the_dataclass_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, "example = example1\ncoarse_h = 0.5\nh1 = 0.25\n"))
    assert cfg == RunConfig(example=example1(), plan=LevelPlan(coarse_h=0.5, h1=0.25))


def test_readme_config_block_names_every_key(tmp_path):
    """README's run.cfg block loads and names every key but the custom geometry."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(# run\.cfg\n.*?)```", readme, re.S).group(1)
    load_config(write_config(tmp_path, block))
    named = {line.split("=", 1)[0].strip() for line in block.splitlines()
             if "=" in line.split("#", 1)[0]}
    assert named == CONFIG_KEYS - set(CUSTOM_GEOMETRY_KEYS)


def test_load_config_duplicate_key(tmp_path):
    path = write_config(tmp_path, "coarse_h = 0.5\ncoarse_h = 0.25\n")
    with pytest.raises(ConfigError) as e:
        load_config(path)
    assert f"{path}:2" in str(e.value)
    assert "duplicate" in str(e.value)


def test_load_config_unknown_key(tmp_path):
    path = write_config(tmp_path, "coarse_h = 0.5\nwhatnow = 3\n")
    with pytest.raises(ConfigError) as e:
        load_config(path)
    assert f"{path}:2" in str(e.value)


def test_load_config_not_key_value(tmp_path):
    path = write_config(tmp_path, "coarse_h 0.5\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config(path)


def test_load_config_bad_value(tmp_path):
    path = write_config(tmp_path, "example = unit_square\ncoarse_h = big\nh1 = 0.1\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)


def test_load_config_missing_required(tmp_path):
    path = write_config(tmp_path, "example = unit_square\nh1 = 0.1\n")
    with pytest.raises(ConfigError, match="coarse_h"):
        load_config(path)


def test_load_config_example_and_geometry_conflict(tmp_path):
    path = write_config(
        tmp_path, "example = unit_square\ncircles = 1,1,0.25,10\ncoarse_h = 0.5\nh1 = 0.1\n"
    )
    with pytest.raises(ConfigError, match="not both"):
        load_config(path)


def test_load_config_unknown_example(tmp_path):
    path = write_config(tmp_path, "example = nope\ncoarse_h = 0.5\nh1 = 0.1\n")
    with pytest.raises(ConfigError, match="unknown example"):
        load_config(path)


def test_load_config_custom_geometry(tmp_path):
    path = write_config(tmp_path, (
        "domain = 0,0,2,2\n"
        "circles = 1.0,1.0,0.25,10 ; 0.4,0.4,0.2,5\n"
        "background_k = 2.0\n"
        "coarse_h = 0.5\nh1 = 0.25\n"
        "clusters = 2,3\n"
    ))
    cfg = load_config(path)
    assert cfg.example.name == "custom"
    assert len(cfg.example.circles) == 2
    assert cfg.example.circle_k == [10.0, 5.0]
    assert cfg.example.background_k == 2.0
    assert cfg.example.clusters == [[1, 2]]  # file is 1-based, internal 0-based


def test_load_config_bad_circle_spec(tmp_path):
    path = write_config(tmp_path, "domain = 0,0,2,2\ncircles = 1,1,0.25\ncoarse_h = 0.5\nh1 = 0.1\n")
    with pytest.raises(ConfigError, match="cx,cy,r,K"):
        load_config(path)


def test_run_config_validation():
    ex = unit_square()
    plan = LevelPlan(coarse_h=0.5, h1=0.25)
    with pytest.raises(ConfigError):
        RunConfig(example=ex, plan=plan, tol_lambda=0.0)
    with pytest.raises(ConfigError):
        RunConfig(example=ex, plan=plan, coarse_tol=-1.0)
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(example=ex, plan=plan, seed=-1)
    for bad in (replace(ex, background_k=0.0), replace(example1(), circle_k=[10.0, -3.0])):
        with pytest.raises(ConfigError, match="K must be positive"):
            RunConfig(example=bad, plan=plan)


# -- clusters and error measurement ----------------------------------------

def test_detect_clusters():
    lams = np.array([1.0, 2.0, 2.0 + 1e-9, 3.0])
    assert detect_clusters(lams) == [[1, 2]]
    assert detect_clusters(lams, explicit=[[0, 1]]) == [[0, 1]]
    assert detect_clusters(np.array([1.0, 2.0, 3.0])) == []


@pytest.mark.parametrize("make_example", [example1, example2])
def test_example_clusters_match_eigsh(make_example):
    """An example declares a cluster exactly where eigsh sees a multiple
    eigenvalue split by the mesh: over the first five eigenvalues at 1,156,
    4,761 and 19,321 dofs, a declared pair's relative gap is below 1e-2 and
    shrinks about 4x (like h^2) per halving of h; every other adjacent gap
    stays above 1e-2."""
    ex = make_example()
    declared = {(cl[i], cl[i + 1]) for cl in ex.clusters for i in range(len(cl) - 1)}
    gaps = []
    for h in (2 / 35, 2 / 70, 2 / 140):
        space = build_space(mesh.fitted_mesh(ex.domain, ex.circles, h))
        lams, _ = eigsh_reference(assemble_stiffness(space, ex.coefficient()),
                                  assemble_mass(space), 5)
        gaps.append(np.diff(lams) / lams[1:])
    gaps = np.array(gaps)  # (size, pair i -> i + 1)
    for i in range(gaps.shape[1]):
        if (i, i + 1) in declared:
            assert gaps[0, i] < 1e-2, (i, gaps[:, i])
            assert (gaps[:-1, i] / gaps[1:, i] > 3).all(), (i, gaps[:, i])
        else:
            assert (gaps[:, i] > 1e-2).all(), (i, gaps[:, i])


def test_measure_errors_exact_and_sign(square_pair, square_reference):
    _, vecs = square_reference
    A_h = square_pair["A_h"]
    ae = measure_errors(vecs, vecs, [[1, 2]], A_h)
    assert ae.max() < 1e-10
    flipped = vecs * np.array([-1.0, 1.0, -1.0])
    ae = measure_errors(flipped, vecs, [[1, 2]], A_h)
    assert ae.max() < 1e-10


def test_measure_errors_cluster_rotation(square_pair, square_reference):
    # A rotation within the two-dimensional eigenspace is not an error.
    _, vecs = square_reference
    A_h = square_pair["A_h"]
    c, s = np.cos(0.7), np.sin(0.7)
    rotated = vecs.copy()
    rotated[:, 1] = c * vecs[:, 1] + s * vecs[:, 2]
    rotated[:, 2] = -s * vecs[:, 1] + c * vecs[:, 2]
    ae = measure_errors(rotated, vecs, [[1, 2]], A_h)
    assert ae[1] < 1e-10 and ae[2] < 1e-10
    ae_singleton = measure_errors(rotated, vecs, [], A_h)
    assert ae_singleton[1] > 0.1  # without the cluster the rotation looks wrong


def test_measure_errors_coverage_guard(square_pair, square_reference):
    _, vecs = square_reference
    from augeig.errors import LinalgError
    with pytest.raises(LinalgError):
        measure_errors(vecs, vecs[:, :1], [], square_pair["A_h"])


# -- full pipeline ---------------------------------------------------------

@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    cfg = load_config_text(out, BASE + f"out_dir = {out}\n")
    return cfg, run_example(cfg)


def load_config_text(tmp_path, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return load_config(str(path))


def test_smoke_run_converges(smoke_result):
    cfg, result = smoke_result
    assert result.converged
    assert abs(result.state.lambdas[0] - EXACT_LAMBDA1) / EXACT_LAMBDA1 < 0.01
    assert result.clusters == [[1, 2]]


def test_smoke_csv_shape(smoke_result):
    cfg, result = smoke_result
    lines = open(result.csv_path).read().splitlines()
    assert lines[0] == CSV_HEADER
    # coarsest record + L iterations on the second level, nev rows each.
    assert len(lines) - 1 == (1 + cfg.plan.L) * cfg.plan.nev
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 8
        assert fields[7] == "0.000000"  # timing = off zeroes the seconds column


def test_smoke_errors_decrease(smoke_result):
    _, result = smoke_result
    errs = [float(np.linalg.norm(r.anorm_errors)) for r in result.state.records[1:]]
    assert errs[-1] < 1.05 * errs[0]
    assert errs[-1] < errs[0]


def test_smoke_summary(smoke_result):
    _, result = smoke_result
    text = open(result.summary_path).read()
    assert "example: unit_square" in text
    assert "converged: yes" in text


def test_single_level_csv(tmp_path):
    cfg = load_config_text(tmp_path, (
        "example = unit_square\ncoarse_h = 0.5\nh1 = 0.25\nn_levels = 1\n"
        f"nev = 1\ntiming = off\nout_dir = {tmp_path}\n"
    ))
    result = run_example(cfg)
    lines = open(result.csv_path).read().splitlines()
    assert len(lines) == 2  # header + the coarsest solve row
    assert lines[1].startswith("1,0,1,")
    assert result.converged  # coarsest solve equals its own reference


def test_csv_deterministic(tmp_path):
    outputs = []
    for i in range(2):
        cfg = load_config_text(tmp_path, BASE + f"out_dir = {tmp_path}/o{i}\n")
        result = run_example(cfg)
        outputs.append(open(result.csv_path, "rb").read())
    assert outputs[0] == outputs[1]


# -- timing study ----------------------------------------------------------

def test_timing_study_small(tmp_path, monkeypatch):
    import augeig.harness as harness

    builds = []

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build_hierarchy(*args, **kwargs)

    monkeypatch.setattr(harness, "build_hierarchy", counting_build)
    cfg = load_config_text(tmp_path, (
        "example = unit_square\ncoarse_h = 0.5\nh1 = 0.25\nn_levels = 3\n"
        f"L = 1\nnev = 1\nout_dir = {tmp_path}\n"
    ))
    points, slope, path = timing_study(cfg)
    assert len(builds) == 1  # one hierarchy, solved on its first 1, 2, 3 levels
    assert len(points) == 3
    dofs = [p[0] for p in points]
    assert dofs == sorted(dofs) and dofs[0] < dofs[-1]
    full = build_hierarchy(cfg.plan, cfg.example.domain, cfg.example.circles,
                           cfg.example.coefficient())
    assert dofs == [level.space.n_dof for level in full.levels]
    lines = open(path).read().splitlines()
    assert lines[0] == "n_dof,seconds"
    assert len(lines) == 4
    assert np.isfinite(slope)


def test_timing_study_needs_three_levels(tmp_path):
    cfg = load_config_text(tmp_path, (
        f"example = unit_square\ncoarse_h = 0.5\nh1 = 0.25\nn_levels = 2\nout_dir = {tmp_path}\n"
    ))
    with pytest.raises(ConfigError, match="3 levels"):
        timing_study(cfg)


def test_step_records_count_pcg_iterations(tmp_path, monkeypatch):
    """Each step record holds the iterations its correction solve reported,
    one block solve per step and one count per slot."""
    import augeig.augsub as augsub

    seen = []

    def recording_pcg(*args, **kwargs):
        X, reports = pcg_solve(*args, **kwargs)
        seen.append([r.iterations for r in reports])
        return X, reports

    monkeypatch.setattr(augsub, "pcg_solve", recording_pcg)
    cfg = load_config_text(tmp_path, (
        "example = unit_square\ncoarse_h = 0.25\nh1 = 0.125\nn_levels = 3\n"
        f"L = 2\nnev = 2\nout_dir = {tmp_path}\n"
    ))
    hier = build_hierarchy(cfg.plan, cfg.example.domain, cfg.example.circles,
                           cfg.example.coefficient())
    state = multilevel_solve(hier, cfg.plan, coarse_tol=1e-11)
    steps = state.records[1:]
    assert len(steps) == 2 * cfg.plan.L
    assert [r.pcg_iterations for r in steps] == seen
    assert all(its > 0 for call in seen for its in call)


def test_preconditioners_built_once_in_build_hierarchy(tmp_path, monkeypatch):
    """Each level's PCG preconditioner is built exactly once, inside
    build_hierarchy: the reference oracle, the coarsest solve, the
    corrections and the timing study's solves build none."""
    import augeig.harness as harness
    import augeig.linalg as linalg

    built, phase, hierarchies = [], ["solve"], []
    init = linalg._SsorPreconditioner.__init__

    def counting_init(self, csr):
        built.append((phase[0], csr))
        init(self, csr)

    def phased_build(*args, **kwargs):
        phase[0] = "build"
        hierarchies.append(build_hierarchy(*args, **kwargs))
        phase[0] = "solve"
        return hierarchies[-1]

    monkeypatch.setattr(linalg._SsorPreconditioner, "__init__", counting_init)
    monkeypatch.setattr(harness, "build_hierarchy", phased_build)
    cfg = load_config_text(tmp_path, (
        "example = unit_square\ncoarse_h = 0.25\nh1 = 0.125\nn_levels = 3\n"
        f"nev = 2\ntiming = off\nout_dir = {tmp_path}\n"
    ))
    run_example(cfg)
    (hier,) = hierarchies
    assert [p for p, _ in built] == ["build"] * 3
    assert all(csr is lev.A_h.csr for (_, csr), lev in zip(built, hier.levels))
    assert len({id(lev.precond) for lev in hier.levels}) == 3
    multilevel_solve(hier, cfg.plan, coarse_tol=cfg.coarse_tol)
    assert len(built) == 3

    timing_study(cfg)
    assert len(hierarchies) == 2
    assert [p for p, _ in built] == ["build"] * 6


@pytest.mark.parametrize("mode", ["galerkin", "exact"])
def test_locators_built_per_call_and_dropped(mode, monkeypatch):
    """Each build_transfer call builds one Locator of the coarse mesh and
    each exact-mode CrossAssembler one of its own; a Galerkin assembler
    and multilevel_solve build none. No locator outlives the call that
    built it, so none is reachable from the built Hierarchy."""
    import augeig.multilevel as multilevel

    built, calls = [], []
    init = mesh.Locator.__init__

    def counting_init(self, m):
        init(self, m)
        built.append(weakref.ref(self))

    def per_call(name):
        fn = getattr(multilevel, name)

        def wrapped(*args, **kwargs):
            before = len(built)
            out = fn(*args, **kwargs)
            calls.append((name, len(built) - before))
            return out
        monkeypatch.setattr(multilevel, name, wrapped)

    monkeypatch.setattr(mesh.Locator, "__init__", counting_init)
    per_call("build_transfer")
    per_call("CrossAssembler")
    plan = LevelPlan(coarse_h=0.5, h1=0.25, n_levels=3, nev=2, mode=mode)
    ex = unit_square()
    hier = build_hierarchy(plan, ex.domain, ex.circles, ex.coefficient())
    per_assembler = 1 if mode == "exact" else 0
    assert sorted(calls) == [("CrossAssembler", per_assembler)] * 3 + [("build_transfer", 1)] * 5
    assert len(built) == 5 + 3 * per_assembler
    gc.collect()
    assert all(ref() is None for ref in built)

    multilevel_solve(hier, plan)
    assert len(built) == 5 + 3 * per_assembler
