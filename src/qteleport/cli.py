"""Command-line front end.

Subcommands:

  bounds       entanglement measures and communication bounds for a problem
  synthesize   phase factors plus the full coefficient table, verified
  simulate     synthesize, then certify fidelity on random input states
  verify       re-check a previously emitted report document
  concentrate  classical-cost budget for copies -> Bell-pairs conversion

A problem file is a JSON object: {"d": 2, "spectrum": ["1/2", "1/3", "1/6"]}
with optional "inputState" (list of [re, im] pairs), "seed" and "trials".
Spectrum entries given as "num/den" strings switch the solvers to exact
rational arithmetic.

Exit codes partition the failure modes: 2 unparseable input, 3 input
invariant violation, 4 infeasible spectrum, 5 phase factors not found,
6 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__, reportio
from .bounds import build_bounds_report, concentration_bounds, entanglement_of_teleportation, schmidt_entanglement
from .errors import DegenerateColumns, InfeasibleSpectrum, PhaseFactorsNotFound
from .linalg import basis_state, is_normalized
# solve_general and bob_unitaries are unused here but stay importable:
# bench/tracing.py wraps them by these names.
from .phases import PhaseMatrix, solve_general  # noqa: F401
from .protocol import (  # noqa: F401
    CONDITION_TOL,
    Construction,
    ProtocolTable,
    bob_unitaries,
    synthesize_auto,
    synthesize_d2,
    synthesize_general,
    verify_conditions,
)
from .sim import random_input_sweep, run_protocol
from .spectrum import SUM_TOL, SchmidtSpectrum

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INPUT = 3
EXIT_INFEASIBLE = 4
EXIT_NO_PHASES = 5
EXIT_VERIFY = 6

TABLE_ELISION_THRESHOLD = 64  # outcomes; larger tables are summarized unless --emit-table

SUM_ACCEPT_TOL = 1e-9  # float spectra summing this close to 1 are renormalized, not refused

TOLERANCES = {
    "orthonormality": CONDITION_TOL,
    "unitarity": CONDITION_TOL,
    "fidelity": 1e-10,
    "probabilityUniformity": 1e-10,
}

DEFAULT_TRIALS = 100
DEFAULT_SEED = 0


class ParseFailure(Exception):
    """Problem/report text that cannot be interpreted (exit 2)."""


class InputFailure(Exception):
    """Well-formed input violating a declared invariant (exit 3)."""


@dataclass
class Problem:
    d: int
    spectrum: SchmidtSpectrum
    raw: dict
    input_state: np.ndarray | None = None
    seed: int | None = None
    trials: int | None = None


def parse_spectrum_items(items) -> SchmidtSpectrum:
    """Spectrum from JSON entries: numbers, or strings ("num/den" => exact)."""
    if not isinstance(items, list) or not items:
        raise ParseFailure("field 'spectrum' must be a non-empty list")
    rational = all(isinstance(it, str) and "/" in it for it in items)
    if rational:
        try:
            exact = [Fraction(it) for it in items]
        except (ValueError, ZeroDivisionError) as err:
            raise ParseFailure(f"field 'spectrum': bad rational entry ({err})")
        if any(f <= 0 for f in exact):
            raise InputFailure("field 'spectrum': entries must be positive")
        if sum(exact) != 1:
            raise InputFailure(f"field 'spectrum': entries sum to {sum(exact)}, not 1")
        return SchmidtSpectrum.from_rationals(exact)
    values = []
    for it in items:
        if isinstance(it, bool):
            raise ParseFailure("field 'spectrum': entries must be numbers or 'num/den' strings")
        if isinstance(it, (int, float)):
            values.append(float(it))
        elif isinstance(it, str):
            try:
                values.append(float(Fraction(it)))
            except (ValueError, ZeroDivisionError):
                raise ParseFailure(f"field 'spectrum': cannot parse entry {it!r}")
        else:
            raise ParseFailure("field 'spectrum': entries must be numbers or 'num/den' strings")
    if not all(math.isfinite(v) for v in values):
        raise InputFailure("field 'spectrum': entries must be finite")
    if any(v <= 0 for v in values):
        raise InputFailure("field 'spectrum': entries must be positive")
    total = sum(values)
    if abs(total - 1.0) > SUM_ACCEPT_TOL:
        raise InputFailure(f"field 'spectrum': entries sum to {total!r}, not 1")
    if abs(total - 1.0) > SUM_TOL:
        values = [v / total for v in values]
    return SchmidtSpectrum.from_probs(values)


def parse_problem_doc(doc) -> Problem:
    if not isinstance(doc, dict):
        raise ParseFailure("problem file must contain a JSON object")
    if "d" not in doc:
        raise ParseFailure("missing field 'd'")
    if "spectrum" not in doc:
        raise ParseFailure("missing field 'spectrum'")
    d = doc["d"]
    if isinstance(d, bool) or not isinstance(d, int):
        raise ParseFailure("field 'd' must be an integer")
    if d < 2:
        raise InputFailure("field 'd' must be at least 2")
    spectrum = parse_spectrum_items(doc["spectrum"])

    input_state = None
    if "inputState" in doc and doc["inputState"] is not None:
        pairs = doc["inputState"]
        if not isinstance(pairs, list) or any(
            not isinstance(p, list) or len(p) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in p)
            for p in pairs
        ):
            raise ParseFailure("field 'inputState' must be a list of [re, im] pairs")
        amps = np.array([complex(p[0], p[1]) for p in pairs])
        if amps.size != d:
            raise InputFailure(f"field 'inputState' must have {d} amplitudes, got {amps.size}")
        if not is_normalized(amps):
            raise InputFailure("field 'inputState' must be normalized")
        input_state = amps

    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ParseFailure("field 'seed' must be an integer")
    if seed is not None and seed < 0:
        raise InputFailure("field 'seed' must be non-negative")
    trials = doc.get("trials")
    if trials is not None and (isinstance(trials, bool) or not isinstance(trials, int)):
        raise ParseFailure("field 'trials' must be an integer")
    if trials is not None and trials < 1:
        raise InputFailure("field 'trials' must be at least 1")

    return Problem(
        d=d, spectrum=spectrum, raw=doc, input_state=input_state, seed=seed, trials=trials
    )


def load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ParseFailure(f"cannot read problem file: {err}")
    try:
        doc = reportio.loads(text)
    except ValueError as err:
        raise ParseFailure(f"problem file is not valid JSON: {err}")
    problem = parse_problem_doc(doc)
    for key, value in doc.items():  # the whole document is echoed into the report
        if not _all_finite(value):
            raise ParseFailure(f"field {key!r} holds a number that overflows a double")
    return problem


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def _write_report(doc: dict, out_path: str | None) -> None:
    text = reportio.dumps(doc)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _phases_doc(theta: PhaseMatrix, spectrum: SchmidtSpectrum) -> dict:
    return {
        "d": theta.d,
        "n": theta.n,
        "theta": theta.theta.tolist(),
        "constraintResidual": theta.constraint_residual(spectrum),
    }


def _table_doc(table: ProtocolTable, spectrum: SchmidtSpectrum, emit_table: bool) -> dict:
    report = verify_conditions(table, spectrum)
    doc = {
        "d": table.d,
        "n": table.n,
        "s": table.s,
        "construction": table.construction.value,
        "orthonormalityResidual": report.orthonormality_residual,
        "unitarityResidual": report.unitarity_residual,
        "V": None,
    }
    if emit_table or table.s <= TABLE_ELISION_THRESHOLD:
        doc["V"] = np.stack([table.V.real, table.V.imag], axis=-1).tolist()
    return doc


def cmd_bounds(args) -> int:
    problem = load_problem(args.problem)
    report = build_bounds_report(problem.spectrum, problem.d)
    doc = {
        "toolVersion": __version__,
        "problem": problem.raw,
        "bounds": reportio.bounds_doc(report),
    }
    _write_report(doc, args.out)
    return EXIT_OK


def cmd_synthesize(args) -> int:
    problem = load_problem(args.problem)
    if args.method == "d2" and problem.d != 2:
        raise ParseFailure("--method d2 requires a problem with d = 2")
    theta, table = synthesize_auto(problem.spectrum, problem.d, method=args.method)
    doc = {
        "toolVersion": __version__,
        "problem": problem.raw,
        "phases": _phases_doc(theta, problem.spectrum),
        "table": _table_doc(table, problem.spectrum, args.emit_table),
        "tolerances": dict(TOLERANCES),
    }
    _write_report(doc, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    problem = load_problem(args.problem)
    trials = args.trials if args.trials is not None else (problem.trials or DEFAULT_TRIALS)
    if trials < 1:
        raise InputFailure("--trials must be at least 1")
    if args.seed is not None and args.seed < 0:
        raise InputFailure("--seed must be non-negative")
    seed = args.seed if args.seed is not None else (problem.seed or DEFAULT_SEED)

    theta, table = synthesize_auto(problem.spectrum, problem.d)
    sweep = random_input_sweep(problem.spectrum, problem.d, trials, seed, table=table)
    reference_input = (
        problem.input_state if problem.input_state is not None else basis_state(problem.d, 0)
    )
    reference = run_protocol(reference_input, problem.spectrum, table)

    doc = {
        "toolVersion": __version__,
        "problem": problem.raw,
        "phases": _phases_doc(theta, problem.spectrum),
        "table": _table_doc(table, problem.spectrum, args.emit_table),
        "simulation": {
            "trials": trials,
            "seed": seed,
            "classicalBits": sweep.classical_bits,
            "minFidelity": sweep.min_fidelity,
            "maxFidelityDeviation": sweep.max_fidelity_deviation,
            "maxProbabilityDeviation": sweep.max_probability_deviation,
            "totalProbabilityDeviation": sweep.total_probability_deviation,
            "maxResidualSchmidt": sweep.max_residual_schmidt,
            "outcomeProbabilities": reference.probabilities.tolist(),
            "residualSchmidtNumbers": list(reference.residual_schmidts),
        },
        "tolerances": dict(TOLERANCES),
    }
    _write_report(doc, args.out)
    return EXIT_OK


def cmd_concentrate(args) -> int:
    items = [part.strip() for part in args.spectrum.split(",") if part.strip()]
    converted = []
    for item in items:
        if "/" in item:
            converted.append(item)
        else:
            try:
                converted.append(float(item))
            except ValueError:
                raise ParseFailure(f"--spectrum: cannot parse entry {item!r}")
    spectrum = parse_spectrum_items(converted)
    if args.copies < 1:
        raise InputFailure("--copies must be at least 1")
    if args.bells < 0:
        raise InputFailure("--bells must be non-negative")
    conc = concentration_bounds(spectrum, args.copies, args.bells)
    doc = {
        "toolVersion": __version__,
        "concentrate": {
            "spectrum": list(args.spectrum.split(",")),
            "copies": args.copies,
            "bells": args.bells,
        },
        "bounds": {
            "Et": reportio.bits_doc(entanglement_of_teleportation(spectrum)),
            "ESch": reportio.bits_doc(schmidt_entanglement(spectrum)),
        },
        "concentration": reportio.concentration_doc(conc),
    }
    _write_report(doc, args.out)
    return EXIT_OK


def _finite_array(items, shape: tuple, what: str, entries: str) -> np.ndarray:
    """A report's nested lists as a float array of the given shape; anything
    ragged, non-numeric, boolean or non-finite is a parse failure."""
    try:
        array = np.asarray(items)  # a ragged list raises ValueError
    except ValueError as err:
        raise ParseFailure(f"{what} is malformed: {err}")
    if array.shape != shape:
        raise ParseFailure(f"{what} has shape {array.shape}, expected {shape}")
    # strings, nulls and integers past int64 give a non-numeric dtype (dtype=float
    # would accept "1.0"); numpy reads a boolean among numbers as 0.0 or 1.0
    for _ in range(len(shape) - 1):
        items = itertools.chain.from_iterable(items)
    if array.dtype.kind not in "iuf" or bool in map(type, items):
        raise ParseFailure(f"{what} is malformed: entries must be {entries}")
    array = array.astype(float)
    if not np.isfinite(array).all():
        raise ParseFailure(f"{what} holds non-finite entries")
    return array


def _table_from_phases(doc: dict, spectrum: SchmidtSpectrum, d: int) -> ProtocolTable:
    """Rebuild an elided table (V null) from the report's theta and construction."""
    construction = doc["table"].get("construction")
    phases_doc = doc.get("phases")
    theta = phases_doc.get("theta") if isinstance(phases_doc, dict) else None
    if theta is None:
        raise ParseFailure(
            "report table holds no coefficients (section 'table', field 'V') "
            "and no phases to rebuild them from (section 'phases', field 'theta')"
        )
    if construction not in (Construction.GENERAL_FORMULA.value, Construction.D2_FORMULA.value):
        raise ParseFailure(f"report table construction {construction!r} cannot be rebuilt from theta")
    angles = _finite_array(theta, (d, spectrum.n), "report phases", "angles")
    try:
        phases = PhaseMatrix(angles)
    except ValueError as err:
        raise ParseFailure(f"report phases are malformed: {err}")
    if construction == Construction.D2_FORMULA.value:
        if d != 2:
            raise ParseFailure("report table construction D2Formula requires d = 2")
        return synthesize_d2(spectrum, phases)
    return synthesize_general(spectrum, d, phases)


def _verify_report_doc(doc) -> list[str]:
    """All violated invariants of a report document, empty when it verifies."""
    if not isinstance(doc, dict):
        raise ParseFailure("report must contain a JSON object")
    for key in ("problem", "table"):
        if key not in doc:
            raise ParseFailure(f"report is missing section '{key}'")
    problem = parse_problem_doc(doc["problem"])
    table_doc = doc["table"]
    if not isinstance(table_doc, dict):
        raise ParseFailure("report section 'table' must be an object")
    try:
        d, n = int(table_doc["d"]), int(table_doc["n"])
    except (KeyError, TypeError, ValueError) as err:
        raise ParseFailure(f"report table is malformed: {err}")
    if problem.spectrum.n != n or problem.d != d:
        raise ParseFailure("report table dimensions disagree with the echoed problem")
    if table_doc.get("V") is None:
        table = _table_from_phases(doc, problem.spectrum, d)
    else:
        pairs = _finite_array(
            table_doc["V"], (d * n, d, n, 2), "report table", "[re, im] pairs of numbers"
        )
        table = ProtocolTable(
            d=d, n=n, V=pairs.view(complex)[..., 0], construction=Construction.EXPLICIT
        )

    tolerances = dict(TOLERANCES)
    recorded = doc.get("tolerances")
    if isinstance(recorded, dict):
        for key, value in recorded.items():
            if key in tolerances and isinstance(value, (int, float)):
                # JSON true reads as 1 and a 1e400 literal as inf: either would
                # let a report loosen its own checks (NaN fails the test too)
                if isinstance(value, bool) or not 0 < value <= sys.float_info.max:
                    raise ParseFailure(
                        f"report tolerance {key!r} must be a positive finite number, got {value!r}"
                    )
                tolerances[key] = float(value)

    conditions = verify_conditions(table, problem.spectrum)
    violations = []
    if conditions.orthonormality_residual > tolerances["orthonormality"]:
        violations.append(
            f"orthonormality residual {conditions.orthonormality_residual:.6e} "
            f"exceeds {tolerances['orthonormality']:.1e}"
        )
    if conditions.unitarity_residual > tolerances["unitarity"]:
        violations.append(
            f"spectrum-unitarity residual {conditions.unitarity_residual:.6e} "
            f"exceeds {tolerances['unitarity']:.1e}"
        )

    sim_doc = doc.get("simulation") if isinstance(doc.get("simulation"), dict) else {}
    trials = sim_doc.get("trials", problem.trials or DEFAULT_TRIALS)
    seed = sim_doc.get("seed", problem.seed or DEFAULT_SEED)
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ParseFailure("report simulation section has an unusable 'trials' value")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ParseFailure("report simulation section has an unusable 'seed' value")
    try:
        sweep = random_input_sweep(problem.spectrum, d, trials, seed, table=table)
    except DegenerateColumns as err:
        violations.append(f"Bob's corrections cannot be built: {err}")
        return violations
    if sweep.min_fidelity < 1.0 - tolerances["fidelity"]:
        violations.append(
            f"re-simulated fidelity {sweep.min_fidelity!r} below 1 - {tolerances['fidelity']:.1e}"
        )
    if sweep.max_probability_deviation > tolerances["probabilityUniformity"]:
        violations.append(
            f"outcome probabilities deviate from 1/{table.s} by "
            f"{sweep.max_probability_deviation:.6e} "
            f"(tolerance {tolerances['probabilityUniformity']:.1e})"
        )
    return violations


def cmd_verify(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            doc = reportio.loads(handle.read())
    except OSError as err:
        raise ParseFailure(f"cannot read report file: {err}")
    except ValueError as err:
        raise ParseFailure(f"report file is not valid JSON: {err}")
    violations = _verify_report_doc(doc)
    if violations:
        for line in violations:
            print(f"violated: {line}", file=sys.stderr)
        return EXIT_VERIFY
    print("report verified: conditions and fidelities within recorded tolerances")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qteleport",
        description="Faithful qudit teleportation through partially entangled resources.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="entanglement measures and CCC bounds")
    p_bounds.add_argument("problem", help="problem file (JSON)")
    p_bounds.add_argument("--out", help="write the report here instead of stdout")
    p_bounds.set_defaults(func=cmd_bounds)

    p_synth = sub.add_parser("synthesize", help="phase factors and coefficient table")
    p_synth.add_argument("problem", help="problem file (JSON)")
    p_synth.add_argument(
        "--method", choices=("auto", "d2", "general"), default="auto",
        help="which construction to use (default: auto)",
    )
    p_synth.add_argument(
        "--emit-table", action="store_true",
        help=f"include the full table even above {TABLE_ELISION_THRESHOLD} outcomes",
    )
    p_synth.add_argument("--out", help="write the report here instead of stdout")
    p_synth.set_defaults(func=cmd_synthesize)

    p_sim = sub.add_parser("simulate", help="synthesize and certify on random inputs")
    p_sim.add_argument("problem", help="problem file (JSON)")
    p_sim.add_argument("--trials", type=int, help=f"random inputs (default {DEFAULT_TRIALS})")
    p_sim.add_argument("--seed", type=int, help=f"PRNG seed (default {DEFAULT_SEED})")
    p_sim.add_argument(
        "--emit-table", action="store_true",
        help=f"include the full table even above {TABLE_ELISION_THRESHOLD} outcomes",
    )
    p_sim.add_argument("--out", help="write the report here instead of stdout")
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="re-check an emitted report")
    p_verify.add_argument("report", help="report file (JSON)")
    p_verify.set_defaults(func=cmd_verify)

    p_conc = sub.add_parser("concentrate", help="copies -> Bell pairs cost budget")
    p_conc.add_argument("--spectrum", required=True, help="comma-separated probabilities")
    p_conc.add_argument("--copies", type=int, required=True, help="resource copies n")
    p_conc.add_argument("--bells", type=int, required=True, help="target Bell pairs m")
    p_conc.add_argument("--out", help="write the report here instead of stdout")
    p_conc.set_defaults(func=cmd_concentrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except InputFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleSpectrum as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PhaseFactorsNotFound as err:
        how = "proved none exist" if err.proved else "search exhausted"
        print(
            f"phase factors not found: {err} ({how}; best residual {err.best_residual:.6e})",
            file=sys.stderr,
        )
        return EXIT_NO_PHASES


if __name__ == "__main__":
    sys.exit(main())
