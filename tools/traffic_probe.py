"""List the statements of src/augeig that no command reaches.

    python3 tools/traffic_probe.py

Runs, under ``sys.settrace``:

- the four benchmark workloads on the tiny configurations of
  ``perfbench/selftest.py``, through the benchmark's own calls
  (``workloads.run_library``, or ``workloads.run_cli`` for ``augeig solve``);
- ``augeig generate`` for every built-in example, and ``augeig solve``,
  ``bench`` and ``compare`` on a tiny three-level ``example1`` config that
  declares no cluster, plus ``augeig solve`` on a tiny custom geometry.

Then it prints, per file, every line of ``src/augeig`` that starts a
statement and that none of these runs executed, and their count. What it
lists is reached only by tests or by fault paths (an error raised on bad
input or a failed solve): each line is a candidate for deletion, or needs a
reason to stay. Rerun it after a change that deletes code. It takes a few
seconds; it exits nonzero if a run fails.
"""

import contextlib
import dataclasses
import dis
import importlib
import io
import os
import sys
import tempfile
import types
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as perfbench/run.py

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "augeig"
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py)
from selftest import TINY  # noqa: E402
from workloads import WORKLOADS, write_config  # noqa: E402

# A three-level example1 ladder small enough for bench, and a custom
# geometry (one inclusion, its own background coefficient and clusters).
CLI_CONFIG = dict(example="example1", coarse_h=repr(2 / 15), h1=repr(2 / 19), n_levels="3",
                  nev="4", timing="off")
CUSTOM_CONFIG = dict(domain="0,0,2,2", circles="1,1,0.5,10", background_k="2",
                     clusters="2,3", coarse_h=repr(2 / 9), h1=repr(2 / 15), n_levels="2",
                     nev="3", timing="off")


def statement_lines(path):
    """Line numbers at which some bytecode of the file begins a line."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced(reached, fn, *args):
    """fn(*args) with every line it executes in src/augeig added to reached."""
    prefix = str(SRC)

    def local(frame, event, arg):
        if event in ("call", "line"):
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local(frame, event, arg) if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(start)
    try:
        return fn(*args)
    finally:
        sys.settrace(None)


def run_all(reached, work):
    augeig = traced(reached, run.import_augeig)  # module-level statements count too
    cli = traced(reached, importlib.import_module, "augeig.cli")

    for name, overrides in TINY.items():
        base = WORKLOADS[name]
        workload = dataclasses.replace(base, config={**base.config, **overrides})
        (work / name).mkdir()
        runner = run.Runner(augeig, workload, 1, work / name)
        traced(reached, runner.iterate)
        print(f"ran {name} ({'run_cli' if workload.cli else 'run_library'})")

    cfg, custom = work / "cli.cfg", work / "custom.cfg"
    write_config(cfg, CLI_CONFIG, 1, str(work / "cli-out"))
    write_config(custom, CUSTOM_CONFIG, 1, str(work / "custom-out"))
    commands = [["generate", "--example", ex, "--h", "0.1", "--out", str(work / f"{ex}.mesh")]
                for ex in ("example1", "example2", "unit_square")]
    commands += [[command, "--config", str(cfg)] for command in ("solve", "bench", "compare")]
    commands += [["solve", "--config", str(custom)]]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = traced(reached, cli.main, argv)
        if code not in (0, 1):  # 1: solve ran but missed tol_lambda
            raise SystemExit(f"traffic_probe: augeig {' '.join(argv)} exited with {code}")
        print(f"ran augeig {argv[0]}")


def main():
    reached = set()
    with tempfile.TemporaryDirectory() as tmp:
        run_all(reached, Path(tmp))
    total = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        missed = sorted(line for line in statement_lines(path)
                        if (str(path), line) not in reached)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        total += len(missed)
    print(f"traffic_probe: {total} statement lines of src/augeig reached by no command")
    return 0


if __name__ == "__main__":
    sys.exit(main())
