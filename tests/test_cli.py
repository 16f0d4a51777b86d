"""Command-line interface: subcommands, exit codes, error reporting."""

import numpy as np
import pytest

from augeig.cli import EXIT_NOT_CONVERGED, EXIT_OK, EXIT_USAGE, main


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_no_args_usage():
    assert main([]) == EXIT_USAGE


def test_unknown_command():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_config_file(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_unusable_paths_are_usage_errors(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = write(tmp_path, (
        f"example = unit_square\ncoarse_h = 0.5\nh1 = 0.25\nout_dir = {blocker}/out\n"
    ))
    assert main(["solve", "--config", cfg]) == EXIT_USAGE
    assert main(["solve", "--config", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.count("error:") == 2


def test_bad_config_key(tmp_path, capsys):
    cfg = write(tmp_path, "coarse_h = 0.5\nbogus = 1\n")
    assert main(["solve", "--config", cfg]) == EXIT_USAGE
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("lines", [
    "example = unit_square\ntiming = yes\n",
    "example = unit_square\nclusters = a,b\n",
    "example = unit_square\nclusters = 0,1\n",
    "domain = 0,0,2,2\ncircles = a,b,c,d\n",
    "example = unit_square\nnev = 0\n",
    "domain = 0,0,2,2\ncircles = 1,1,0.25,-3\n",
    "domain = 0,0,2,2\nbackground_k = 0\n",
    "example = unit_square\nbackground_k = 2\n",
    "example = unit_square\nseed = -1\n",
], ids=["timing-yes", "clusters-letters", "clusters-0-based", "circles-letters",
        "nev-0", "circle-K-negative", "background-K-zero", "example-with-background-K",
        "seed-negative"])
def test_malformed_config_is_usage_error(tmp_path, capsys, lines):
    cfg = write(tmp_path, lines + f"coarse_h = 0.5\nh1 = 0.25\nout_dir = {tmp_path}\n")
    assert main(["solve", "--config", cfg]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def test_mesh_without_interior_nodes_is_usage_error(tmp_path, capsys):
    # coarse_h = 2 makes a one-cell mesh on (0,2)^2: every node is on the boundary.
    cfg = write(tmp_path, (
        f"example = unit_square\ncoarse_h = 2.0\nh1 = 0.5\nnev = 1\nout_dir = {tmp_path}\n"
    ))
    assert main(["solve", "--config", cfg]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no interior nodes" in err


def test_negative_seed_override_is_usage_error(tmp_path, capsys):
    cfg = write(tmp_path, (
        f"example = unit_square\ncoarse_h = 0.5\nh1 = 0.25\nout_dir = {tmp_path}\n"
    ))
    assert main(["--seed", "-1", "solve", "--config", cfg]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def test_generate_writes_mesh_file(tmp_path, capsys):
    out = tmp_path / "mesh.txt"
    assert main(["generate", "--example", "example1", "--h", str(2 / 17),
                 "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "meshfmt 1"
    kind, n_nodes = lines[1].split()
    assert kind == "nodes"
    n_nodes = int(n_nodes)
    nodes = np.array([line.split() for line in lines[2:2 + n_nodes]], dtype=float)
    kind, n_tri = lines[2 + n_nodes].split()
    assert kind == "triangles"
    n_tri = int(n_tri)
    rows = np.array([line.split() for line in lines[3 + n_nodes:]], dtype=np.int64)
    assert rows.shape == (n_tri, 4)
    assert f"wrote {n_nodes} nodes / {n_tri} triangles to {out}" in printed
    a, b, c = (nodes[rows[:, k], :2] for k in range(3))
    areas = 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                   - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    assert areas.min() > 0
    assert (rows[:, 3] > 0).any()


def test_solve_small_config(tmp_path, capsys):
    cfg = write(tmp_path, (
        "example = unit_square\ncoarse_h = 0.5\nh1 = 0.25\nn_levels = 1\n"
        f"nev = 1\ntiming = off\nout_dir = {tmp_path}\n"
    ))
    assert main(["solve", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "converged: yes" in out
    assert (tmp_path / "unit_square_convergence.csv").exists()
    assert (tmp_path / "unit_square_summary.txt").exists()


def test_solve_not_converged_exit_code(tmp_path):
    # An unreachable tolerance must flip the exit code, not raise.
    cfg = write(tmp_path, (
        "example = unit_square\ncoarse_h = 0.5\nh1 = 0.25\nn_levels = 2\n"
        f"L = 1\nnev = 1\ntol_lambda = 1e-16\nout_dir = {tmp_path}\n"
    ))
    assert main(["solve", "--config", cfg]) == EXIT_NOT_CONVERGED


def test_seed_override(tmp_path, capsys):
    # --seed 5 acts as seed = 5 in the file, for solve and for compare.
    base = "example = unit_square\ncoarse_h = 0.5\nh1 = 0.3\nnev = 1\ntiming = off\n"
    runs = {}
    for name, seed_line, argv in (("flag", "", ["--seed", "5"]),
                                  ("file", "seed = 5\n", [])):
        out = tmp_path / name
        cfg = write(tmp_path, base + seed_line + f"out_dir = {out}\n", f"{name}.cfg")
        assert main(argv + ["solve", "--config", cfg]) == EXIT_OK
        capsys.readouterr()
        assert main(argv + ["compare", "--config", cfg]) == EXIT_OK
        runs[name] = ((out / "unit_square_convergence.csv").read_text(),
                      capsys.readouterr().out)
    assert runs["flag"] == runs["file"]
    cfg = write(tmp_path, base + f"out_dir = {tmp_path}\n")
    assert main(["compare", "--config", cfg]) == EXIT_OK
    assert capsys.readouterr().out != runs["file"][1]  # the seed reaches compare


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_nev_above_quarter_of_dofs_is_usage_error(tmp_path, capsys, command):
    # 49 dofs on the first level admit at most 12 pairs.
    cfg = write(tmp_path, (
        "example = unit_square\ncoarse_h = 0.5\nh1 = 0.25\nn_levels = 3\n"
        f"nev = 400\nout_dir = {tmp_path}\n"
    ))
    assert main([command, "--config", cfg]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nev=400" in err


def test_bench_small(tmp_path, capsys):
    cfg = write(tmp_path, (
        "example = unit_square\ncoarse_h = 0.5\nh1 = 0.25\nn_levels = 3\n"
        f"L = 1\nnev = 1\nout_dir = {tmp_path}\n"
    ))
    assert main(["bench", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "log-log slope:" in out
    assert (tmp_path / "unit_square_timing.csv").exists()


def test_compare_nested(tmp_path, capsys):
    cfg = write(tmp_path, (
        "example = unit_square\ncoarse_h = 0.5\nh1 = 0.25\n"
        f"nev = 1\nout_dir = {tmp_path}\n"
    ))
    assert main(["compare", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "A_H" in out and "beta" in out
    # Nested pair: exact and Galerkin assembly agree to round-off.
    diffs = [float(line.split()[-1]) for line in out.splitlines()[1:7]]
    assert max(diffs) < 1e-10
