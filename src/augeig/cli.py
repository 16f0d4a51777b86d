"""Command-line interface.

Subcommands: generate (emit mesh files), solve (convergence run),
bench (timing study), compare (exact vs galerkin cross-assembly report).
Exit codes: 0 success, 1 convergence failure, 2 usage or config error,
3 numerical error.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from .errors import AugeigError, ConfigError, GeometryError
from .fem import CrossAssembler
from .harness import EXAMPLES, load_config, run_example, timing_study
from .mesh import fitted_mesh, write_mesh
from .multilevel import build_hierarchy

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="augeig",
        description="Multilevel augmented-subspace eigensolver for elliptic "
                    "interface problems.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    sub = parser.add_subparsers(dest="command")

    gen = sub.add_parser("generate", help="generate and write an interface-fitted mesh")
    gen.add_argument("--example", required=True, choices=sorted(EXAMPLES))
    gen.add_argument("--h", type=float, required=True, help="target mesh size")
    gen.add_argument("--out", required=True, help="output mesh file path")

    for name, text in (("solve", "run a convergence study"),
                       ("bench", "run the timing study")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="key=value config file")

    cmp_p = sub.add_parser("compare", help="exact vs galerkin cross-assembly diff")
    cmp_p.add_argument("--config", required=True, help="key=value config file")
    return parser


def _cmd_generate(args):
    ex = EXAMPLES[args.example]()
    mesh = fitted_mesh(ex.domain, ex.circles, args.h)
    write_mesh(mesh, args.out)
    print(f"wrote {mesh.n_nodes} nodes / {mesh.n_triangles} triangles to {args.out}")
    return EXIT_OK


def _load_config(args):
    """The --config file's RunConfig, its seed replaced by --seed if given."""
    config = load_config(args.config)
    return config if args.seed is None else replace(config, seed=args.seed)


def _cmd_solve(args):
    result = run_example(_load_config(args))
    print(f"csv: {result.csv_path}")
    print(f"summary: {result.summary_path}")
    print(f"converged: {'yes' if result.converged else 'no'}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _cmd_bench(args):
    points, slope, path = timing_study(_load_config(args))
    for n_dof, seconds in points:
        print(f"n_dof={n_dof} seconds={seconds:.3f}")
    print(f"log-log slope: {slope:.3f}")
    print(f"csv: {path}")
    return EXIT_OK


def _cmd_compare(args):
    config = _load_config(args)
    ex = config.example
    coeff = ex.coefficient()
    plan = replace(config.plan, n_levels=1, mode="galerkin")
    hierarchy = build_hierarchy(plan, ex.domain, ex.circles, coeff)
    level = hierarchy.levels[0]
    exact = CrossAssembler(hierarchy.coarse_space, level.space, coeff, level.A_h, level.B_h,
                           level.assembler.P, "exact")

    rng = np.random.default_rng(config.seed)
    u = rng.standard_normal((level.space.n_dof, 1))
    u /= np.sqrt(u[:, 0] @ (level.A_h.csr @ u[:, 0]))

    sys_g = level.assembler.assemble(u)
    sys_e = exact.assemble(u)

    print("max |exact - galerkin| per block:")
    for blk in ("A_H", "a_h", "alpha", "B_H", "b_h", "beta"):
        diff = np.max(np.abs(getattr(sys_e, blk) - getattr(sys_g, blk)))
        print(f"  {blk:6s} {diff:.3e}")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    handler = {
        "generate": _cmd_generate,
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "compare": _cmd_compare,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AugeigError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
