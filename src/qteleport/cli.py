"""The `qteleport` command line: argparse, the five commands and their exit codes.

  bounds       entanglement measures and communication bounds for a problem
  synthesize   phase factors and the residuals of their verified table
  simulate     synthesize, then certify fidelity on random input states
  verify       re-check a previously emitted report of any kind
  concentrate  classical-cost budget for copies -> Bell-pairs conversion

Exit codes: 2 unparseable input or an unwritable --out, 3 input invariant
violation, 4 infeasible spectrum, 5 phase factors not found, 6 verification
failure.  Inputs are read by `parsing`, and reports derived, written and
verified by `report`.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from . import __version__, parsing, report
# bench/tracing.py wraps the functions below under these names in cli too, so
# each stays importable here even where it is called through its own module
from .bounds import build_bounds_report, concentration_bounds  # noqa: F401
from .errors import InfeasibleSpectrum, PhaseFactorsNotFound
from .parsing import InputFailure, ParseFailure
from .phases import solve_general  # noqa: F401
from .protocol import bob_unitaries, synthesize_auto, synthesize_d2, synthesize_general  # noqa: F401
from .protocol import verify_conditions  # noqa: F401
from .sim import random_input_sweep, run_protocol  # noqa: F401

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INPUT = 3
EXIT_INFEASIBLE = 4
EXIT_NO_PHASES = 5
EXIT_VERIFY = 6


def cmd_bounds(args) -> int:
    problem = parsing.load_problem(args.problem)
    report.write(args.out, problem=problem.raw, **report.bounds_claims(problem))
    return EXIT_OK


def cmd_synthesize(args) -> int:
    """synthesize, and simulate: its sweep and the simulation section too."""
    problem = parsing.load_problem(args.problem)
    _, table = synthesize_auto(problem.spectrum, problem.d)
    simulation = None
    if args.command == "simulate":
        sweep = random_input_sweep(table, problem.trials, problem.seed)
        simulation = {"minFidelity": sweep.min_fidelity, "maxFidelityDeviation": sweep.max_fidelity_deviation}
    report.write(args.out, **report.protocol_sections(problem, table, args.emit_table, simulation))
    return EXIT_OK


def cmd_concentrate(args) -> int:
    echo = parsing.concentrate_echo(args.spectrum, args.copies, args.bells)
    report.write(args.out, concentrate=echo, **report.concentrate_claims(echo))
    return EXIT_OK


def cmd_verify(args) -> int:
    # decoded JSON holds no reference cycles: verify runs with the cycle
    # collector paused, and the report's lists, thousands of them in an emitted
    # table, are freed by reference count before it resumes, starting no collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        verified, violations = report.verify(parsing.read_json(args.report, "report"))
    finally:
        if enabled:
            gc.enable()
    if violations:
        for line in violations:
            print(f"violated: {line}", file=sys.stderr)
        return EXIT_VERIFY
    print(verified)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qteleport",
        description="Faithful qudit teleportation through partially entangled resources.",
        allow_abbrev=False,  # an abbreviated --spec would escape main's binding of --spectrum
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, allow_abbrev=False)
    # shared arguments: every report can go to --out, three subcommands read
    # a problem file, and two of those write a table
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the report here instead of stdout")
    problem = argparse.ArgumentParser(add_help=False, parents=[out])
    problem.add_argument("problem", help="problem file (JSON)")
    table = argparse.ArgumentParser(add_help=False, parents=[problem])
    table.add_argument("--emit-table", action="store_true", help="include the coefficient table V")

    for name, parent, func, text in (
        ("bounds", problem, cmd_bounds, "entanglement measures and CCC bounds"),
        ("synthesize", table, cmd_synthesize, "phase factors and coefficient table"),
        ("simulate", table, cmd_synthesize, "synthesize and certify on random inputs"),
    ):
        command(name, parents=[parent], help=text).set_defaults(func=func)

    p_verify = command("verify", help="re-check an emitted report of any kind")
    p_verify.add_argument("report", help="report file (JSON)")
    p_verify.set_defaults(func=cmd_verify)

    p_conc = command("concentrate", parents=[out], help="copies -> Bell pairs cost budget")
    p_conc.add_argument("--spectrum", required=True, help="comma-separated probabilities")
    p_conc.add_argument("--copies", type=int, required=True, help="resource copies n")
    p_conc.add_argument("--bells", type=int, required=True, help="target Bell pairs m")
    p_conc.set_defaults(func=cmd_concentrate)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a --spectrum value may begin with "-" (-0.5,1.5): bound to its option, as
    # --spectrum=-0.5,1.5 is, it is not taken for an option of its own
    while "--spectrum" in argv[:-1]:
        at = argv.index("--spectrum")
        argv[at:at + 2] = [f"--spectrum={argv[at + 1]}"]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseFailure, InputFailure) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE if isinstance(err, ParseFailure) else EXIT_INPUT
    except InfeasibleSpectrum as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PhaseFactorsNotFound as err:
        how = "proved no phase-form protocol exists" if err.proved else "search exhausted"
        print(f"phase factors not found: {err} ({how}; best residual {err.best_residual:.6e})",
              file=sys.stderr)
        return EXIT_NO_PHASES


if __name__ == "__main__":
    sys.exit(main())
