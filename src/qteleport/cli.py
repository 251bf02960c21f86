"""Command-line front end.

Subcommands:

  bounds       entanglement measures and communication bounds for a problem
  synthesize   phase factors and the residuals of their verified table
  simulate     synthesize, then certify fidelity on random input states
  verify       re-check a previously emitted report document
  concentrate  classical-cost budget for copies -> Bell-pairs conversion

A problem file is a JSON object: {"d": 2, "spectrum": ["1/2", "1/3", "1/6"]}
with optional "seed" (default 0) and "trials" (default 100, at most 10**6);
it is the only place to set them.  A report echoes the whole file, fields the
tool does not read included, and verify checks the seed and trials it states.
Spectrum entries given as "num/den" strings switch the solvers to exact
rational arithmetic.

A report's table is its phase factors: verify rebuilds it from phases.theta
and a formula construction, and certifies it by solve_general's rule: every
eigenvalue of the d x d phase Gram C lies within CONDITION_TOL of 1.  One
function (_claims) derives every other number a report states but the two
sampled sweep statistics, from the echoed problem and theta: synthesize and
simulate write it, and verify compares each stated number with it, each
sweep statistic with C's eigenvalues, and each retired field where stated.

Exit codes partition the failure modes: 2 unparseable input, 3 input
invariant violation, 4 infeasible spectrum, 5 phase factors not found,
6 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, reportio
from .bounds import build_bounds_report, concentration_bounds, entanglement_of_teleportation, schmidt_entanglement
from .errors import DegenerateColumns, InfeasibleSpectrum, PhaseFactorsNotFound
from .linalg import basis_state
# solve_general and bob_unitaries are unused here but stay importable:
# bench/tracing.py wraps them by these names.
from .phases import CONDITION_TOL, PhaseMatrix, solve_general  # noqa: F401
from .protocol import (  # noqa: F401
    Construction,
    ProtocolTable,
    bob_unitaries,
    synthesize_auto,
    synthesize_d2,
    synthesize_general,
    verify_conditions,
)
from .sim import random_input_sweep, run_protocol
from .spectrum import SUM_TOL, SchmidtSpectrum, parse_rational

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INPUT = 3
EXIT_INFEASIBLE = 4
EXIT_NO_PHASES = 5
EXIT_VERIFY = 6

SUM_ACCEPT_TOL = 1e-9  # float spectra summing this close to 1 are renormalized, not refused

TOLERANCES = dict.fromkeys(
    ("orthonormality", "unitarity", "fidelity", "probabilityUniformity"), CONDITION_TOL
)

# A sampled quadratic form sums d^2 products of entries within a few ulps of
# the exact ones, and eigvalsh is as accurate, so a sampled statistic may
# leave its eigenvalue bracket by a few ulps times d^2 (at uniform (2, 1024)
# the sampled minimum fidelity was 1 - 5.6e-16 against lambda_min = 1 - 2.2e-16).
BRACKET_ULPS = 8  # allowed: this many ulps times d^2

# how verify reads the fields of _claims, and the retired fields older reports
# state (integers; arrays of s entries, of integers for one in both sets; the
# rest as doubles), and bounds those of _claims (exactly; the rest within CONDITION_TOL)
_INTEGER_CLAIMS = frozenset({
    "table.d", "table.n", "simulation.trials", "simulation.seed",
    "phases.d", "phases.n", "table.s", "simulation.maxResidualSchmidt",
    "simulation.residualSchmidtNumbers",
})
_LIST_CLAIMS = frozenset({"simulation.outcomeProbabilities", "simulation.residualSchmidtNumbers"})
_EXACT_CLAIMS = _INTEGER_CLAIMS | {"simulation.classicalBits"}

MAX_COUNT = 2**53  # concentrate's counts: C1 and C2 are doubles too, exact up to here
DEFAULT_TRIALS = 100
MAX_TRIALS = 10**6  # the sweep runs every trial: a larger count would not finish
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
    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS


def _is_integer(value) -> bool:
    """Whether a decoded JSON value is an integer; true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _sweep_count(value, key: str) -> int:
    """A problem's 'trials' or 'seed': anything but an integer is a parse
    failure, one out of range an invariant violation."""
    if not _is_integer(value):
        raise ParseFailure(f"field {key!r} must be an integer")
    if key == "seed" and value < 0:
        raise InputFailure(f"field {key!r} must be non-negative")
    if key == "trials" and value < 1:
        raise InputFailure(f"field {key!r} must be at least 1")
    if key == "trials" and value > MAX_TRIALS:
        raise InputFailure(f"field {key!r} must be at most {MAX_TRIALS}")
    return value


def _as_double(number) -> float:
    """A JSON number as a double.  An integer past the double range reads as an
    infinity, as a float literal past it (1e400) does."""
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def parse_spectrum_items(items) -> SchmidtSpectrum:
    """Spectrum from JSON entries: numbers, or strings ("num/den" => exact)."""
    if not isinstance(items, list) or not items:
        raise ParseFailure("field 'spectrum' must be a non-empty list")
    rational = all(isinstance(it, str) and "/" in it for it in items)
    if rational:
        try:  # each distinct literal once, in order of first appearance
            parsed = {it: parse_rational(it) for it in dict.fromkeys(items)}
        except (ValueError, ZeroDivisionError) as err:
            raise ParseFailure(f"field 'spectrum': bad rational entry ({err})")
        try:
            return SchmidtSpectrum.from_rationals([parsed[it] for it in items])
        except ValueError as err:
            raise InputFailure(f"field 'spectrum': {err}")
    values = []
    for it in items:
        if isinstance(it, bool):
            raise ParseFailure("field 'spectrum': entries must be numbers or 'num/den' strings")
        if isinstance(it, (int, float)):
            values.append(_as_double(it))
        elif isinstance(it, str):
            try:  # "num/den" as a rational, any other string as float() reads it
                values.append(_as_double(parse_rational(it)) if "/" in it else float(it))
            except (ValueError, ZeroDivisionError):
                raise ParseFailure(f"field 'spectrum': cannot parse entry {it!r}")
        else:
            raise ParseFailure("field 'spectrum': entries must be numbers or 'num/den' strings")
    if not all(math.isfinite(v) for v in values):
        raise InputFailure("field 'spectrum': entries must be finite")
    if any(v <= 0 for v in values):
        raise InputFailure("field 'spectrum': entries must be positive")
    total = sum(values)
    if not abs(total - 1.0) <= SUM_ACCEPT_TOL:
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
    if not _is_integer(d):
        raise ParseFailure("field 'd' must be an integer")
    if d < 2:
        raise InputFailure("field 'd' must be at least 2")
    spectrum = parse_spectrum_items(doc["spectrum"])
    counts = {  # an absent or null count takes its default
        key: default if doc.get(key) is None else _sweep_count(doc[key], key)
        for key, default in (("seed", DEFAULT_SEED), ("trials", DEFAULT_TRIALS))
    }
    return Problem(d=d, spectrum=spectrum, raw=doc, **counts)


def _read_json(path: str, what: str):
    """The JSON document in a file; a file that cannot be read, or whose text
    is not UTF-8 JSON, is a parse failure."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return reportio.loads(handle.read())
    except OSError as err:
        raise ParseFailure(f"cannot read {what} file: {err}")
    except ValueError as err:  # UnicodeDecodeError is one
        raise ParseFailure(f"{what} file is not valid JSON: {err}")


def load_problem(path: str) -> Problem:
    doc = _read_json(path, "problem")
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


def _write_report(out_path: str | None, **sections) -> None:
    """Write a report of the given sections, stamped with the tool version, to
    out_path or stdout."""
    text = reportio.dumps({"toolVersion": __version__, **sections})
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _claims(problem: Problem, table: ProtocolTable, simulated: bool) -> dict:
    """Every number a report derives from its problem and table, keyed
    "section.field": what synthesize and simulate write and verify compares.
    With simulated, the simulation section's too: the sweep's settings, and a
    run at the first basis state (every input's outcome probabilities agree
    within C's eigenvalue defect over s); a table past the tolerance has no
    run, and outcomeProbabilities None."""
    claims = {
        "table.d": table.d,
        "table.n": table.n,
        # the formula basis is orthonormal for every theta; bench/oracle.py reads the field
        "table.orthonormalityResidual": 0.0,
        "table.unitarityResidual": verify_conditions(table),
    }
    if simulated:
        try:
            probabilities = run_protocol(basis_state(table.d, 0), table).probabilities
        except DegenerateColumns:  # verify names such a table by its tolerances
            probabilities = None
        claims |= {
            "simulation.trials": problem.trials,
            "simulation.seed": problem.seed,
            "simulation.classicalBits": math.log2(table.s),
            "simulation.outcomeProbabilities": probabilities,
        }
    return claims


def _protocol_sections(
    problem: Problem, table: ProtocolTable, emit_table: bool, simulation: dict | None = None
) -> dict:
    """The sections of a synthesize report or, given the simulation section's
    inputs and sampled statistics, of a simulate report: the problem echo, the
    phases, the table, the tolerances and every number of _claims."""
    sections = {
        "problem": problem.raw,
        "phases": {"theta": table.phases.theta},
        "table": {
            "construction": table.construction.value,
            # V as [re, im] pairs; theta and the construction determine it
            "V": table.V.view(np.float64).reshape(table.s, table.d, table.n, 2) if emit_table else None,
        },
        "tolerances": dict(TOLERANCES),
    }
    if simulation is not None:
        sections["simulation"] = simulation
    for field, value in _claims(problem, table, simulation is not None).items():
        section, key = field.split(".")
        sections[section][key] = value
    return sections


def cmd_bounds(args) -> int:
    problem = load_problem(args.problem)
    report = build_bounds_report(problem.spectrum, problem.d)
    _write_report(args.out, problem=problem.raw, bounds=reportio.bounds_doc(report))
    return EXIT_OK


def cmd_synthesize(args) -> int:
    problem = load_problem(args.problem)
    _, table = synthesize_auto(problem.spectrum, problem.d)
    _write_report(args.out, **_protocol_sections(problem, table, args.emit_table))
    return EXIT_OK


def cmd_simulate(args) -> int:
    problem = load_problem(args.problem)
    _, table = synthesize_auto(problem.spectrum, problem.d)
    sweep = random_input_sweep(table, problem.trials, problem.seed)
    simulation = {"minFidelity": sweep.min_fidelity, "maxFidelityDeviation": sweep.max_fidelity_deviation}
    _write_report(args.out, **_protocol_sections(problem, table, args.emit_table, simulation))
    return EXIT_OK


def cmd_concentrate(args) -> int:
    items = [part.strip() for part in args.spectrum.split(",") if part.strip()]
    spectrum = parse_spectrum_items(items)
    for option, count, least in (("--copies", args.copies, 1), ("--bells", args.bells, 0)):
        if not least <= count <= MAX_COUNT:
            raise InputFailure(f"{option} must lie in [{least}, 2**53]")
    try:
        conc = concentration_bounds(spectrum, args.copies, args.bells)
    except ValueError as err:  # an exact p_max^copies past the bit budget
        raise InputFailure(str(err))
    _write_report(
        args.out,
        concentrate={
            "spectrum": items,
            "copies": args.copies,
            "bells": args.bells,
        },
        bounds={
            "Et": reportio.bits_doc(entanglement_of_teleportation(spectrum)),
            "ESch": reportio.bits_doc(schmidt_entanglement(spectrum)),
        },
        concentration=reportio.concentration_doc(conc),
    )
    return EXIT_OK


def _finite_array(items, shape: tuple, what: str, entries: str) -> np.ndarray:
    """A report's nested lists as a float array of the given shape; anything
    ragged, non-numeric, boolean or non-finite is a parse failure.

    The shape is found as numpy finds it, one nesting level at a time, and
    the entries are checked on one flat list, which numpy then converts."""
    found, level, kinds = [], [items], {type(items)}
    while level and list in kinds:
        lengths = set(map(len, level)) if kinds == {list} else ()
        if len(lengths) != 1:  # in numpy's words, as np.asarray refused it
            raise ParseFailure(
                f"{what} is malformed: setting an array element with a sequence. The requested "
                f"array has an inhomogeneous shape after {len(found)} dimensions. The detected "
                f"shape was {tuple(found)} + inhomogeneous part."
            )
        found.append(lengths.pop())
        level = list(itertools.chain.from_iterable(level))
        kinds = set(map(type, level))
    if tuple(found) != shape:
        raise ParseFailure(f"{what} has shape {tuple(found)}, expected {shape}")
    # a boolean is not a number here, nor is "1.0"; integers are taken where
    # numpy reads them as numbers, in the int64 and uint64 ranges
    if not kinds <= {float, int} or (
        int in kinds and not all(-2**63 <= x < 2**64 for x in level if type(x) is int)
    ):
        raise ParseFailure(f"{what} is malformed: entries must be {entries}")
    array = np.array(level, dtype=float).reshape(shape)
    if not np.isfinite(array).all():
        raise ParseFailure(f"{what} holds non-finite entries")
    return array


def _table_from_phases(doc: dict, spectrum: SchmidtSpectrum, d: int) -> ProtocolTable:
    """Rebuild the table from the report's theta and construction."""
    construction = doc["table"].get("construction")
    phases_doc = doc.get("phases")
    theta = phases_doc.get("theta") if isinstance(phases_doc, dict) else None
    if theta is None:
        raise ParseFailure(
            "report holds no phases to build its table from (section 'phases', field 'theta')"
        )
    if construction not in [c.value for c in Construction]:  # any JSON value, hashable or not
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
    return synthesize_general(spectrum, phases)


def _stated(doc: dict, field: str, s: int):
    """The value a report states as field ("section.key"), as verify compares
    it: an integer field as an integer, a list field as a float array of s
    entries, any other as a double; anything else is a parse failure."""
    section, key = field.split(".")
    value = doc[section].get(key)
    if field in _LIST_CLAIMS:
        array = _finite_array(value, (s,), f"report field '{field}'", "numbers")
        if field in _INTEGER_CLAIMS and not all(map(_is_integer, value)):
            raise ParseFailure(f"report field '{field}' is malformed: entries must be integers")
        return array
    if field in _INTEGER_CLAIMS:
        if not _is_integer(value):
            raise ParseFailure(f"report {section} field {key!r} must be an integer")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseFailure(f"report field '{field}' must be a number")
    return _as_double(value)


def _verify_report(doc) -> list[str]:
    """Every violated invariant of a decoded report's table, and every stated
    number outside the interval derived here: empty when it verifies.  A
    malformed report raises.

    Each number of _claims, and each retired field the report states, is
    derived again from the echoed problem and the table theta builds, and
    the rest is judged by its phase Gram C's eigenvalues: over all inputs psi
    the fidelity psi^H G_j psi and probability psi^H G_j psi / s range over
    them, and none may be more than CONDITION_TOL from 1.  An emitted V
    moves each Gram entry by at most eta, so its eigenvalues by d eta and
    |M_j|^2 by eta: its figures are bounded by C's widened by those, and it
    passes only if the bounds do."""
    if not isinstance(doc, dict):
        raise ParseFailure("report must contain a JSON object")
    for key in ("problem", "table"):
        if key not in doc:
            raise ParseFailure(f"report is missing section '{key}'")
    problem = parse_problem_doc(doc["problem"])
    table_doc = doc["table"]
    if not isinstance(table_doc, dict):
        raise ParseFailure("report section 'table' must be an object")
    table = _table_from_phases(doc, problem.spectrum, problem.d)
    d, n, s, violations, eta = table.d, table.n, table.s, [], 0.0
    if table_doc.get("V") is not None:
        pairs = _finite_array(
            table_doc["V"], (s, d, n, 2), "report table", "[re, im] pairs of numbers"
        )
        # a table is its theta: an emitted V is compared with the one theta builds.
        # Rows of that V and of its W_j = V[j] sqrt(s p) have unit norm, so a V
        # within delta of it entrywise moves each entry of its own s x s Gram and
        # of each G_j by at most eta = delta (2 sqrt(s) + s delta)
        delta = float(np.abs(pairs.view(complex)[..., 0] - table.V).max())
        eta = delta * (2.0 * math.sqrt(s) + s * delta)
        if not delta <= CONDITION_TOL:
            violations.append(
                f"table V deviates from the table rebuilt from theta by {delta:.6e} "
                f"(tolerance {CONDITION_TOL:.1e})"
            )
    if "tolerances" in doc and doc["tolerances"] != TOLERANCES:
        # verify judges with its own tolerances: a report cannot loosen them
        raise ParseFailure(f"report tolerances differ from the tool's own, {TOLERANCES}")
    simulated = "simulation" in doc
    if simulated and not isinstance(doc["simulation"], dict):
        raise ParseFailure("report section 'simulation' must be an object")

    claims = _claims(problem, table, simulated)
    eigenvalues = table.gram_eigenvalues  # ascending
    lo, hi = float(eigenvalues[0]), float(eigenvalues[-1])
    spread = float(np.abs(eigenvalues - 1.0).max())
    ulps = BRACKET_ULPS * d * d * sys.float_info.epsilon
    intervals = {  # field: (lowest, highest) value it may state; None, read but not compared
        field: (
            None if value is None
            else (value, value) if field in _EXACT_CLAIMS
            else (value - CONDITION_TOL, value + CONDITION_TOL)
        )
        for field, value in claims.items()
    }
    if simulated:  # every fidelity psi^H G_j psi lies in [lo, hi]
        intervals |= {
            "simulation.minFidelity": (lo - ulps, hi + ulps),
            "simulation.maxFidelityDeviation": (0.0, spread + ulps),
        }
    # the fields reports no longer write, checked where one written before states
    # them: every residual state is a product state, and every probability a
    # fidelity over s, as is their average over outcomes, the total probability
    residual = table.phases.constraint_residual(problem.spectrum)  # C's off-diagonal maximum
    retired = {
        "phases.d": (d, d), "phases.n": (n, n), "table.s": (s, s),
        "phases.constraintResidual": (residual - CONDITION_TOL, residual + CONDITION_TOL),
        "simulation.maxResidualSchmidt": (1, 1),
        "simulation.residualSchmidtNumbers": (np.ones(s), np.ones(s)),
        "simulation.maxProbabilityDeviation": (0.0, (spread + ulps) / s),
        "simulation.totalProbabilityDeviation": (0.0, spread + ulps),
    }
    intervals |= {  # a report without a simulation section states none of its fields
        field: interval for field, interval in retired.items()
        if field.split(".")[1] in doc.get(field.split(".")[0], ())
    }
    for field, interval in intervals.items():
        stated = _stated(doc, field, s)
        if interval is None:
            continue
        lowest, highest = interval
        if field not in _LIST_CLAIMS:
            if not lowest <= stated <= highest:
                violations.append(
                    f"stated {field} {stated!r} lies outside the derived [{lowest!r}, {highest!r}]"
                )
            continue
        lowest, highest = np.asarray(lowest), np.asarray(highest)
        for j in np.flatnonzero(~((lowest <= stated) & (stated <= highest))):
            violations.append(
                f"stated {field}[{j}] {stated[j].item()!r} lies outside the derived "
                f"[{lowest[j].item()!r}, {highest[j].item()!r}]"
            )
    # an emitted V's own figures are bounded by C's widened by eta: V passes only if
    # those bounds do.  Its |M_j|^2 is within eta of 1 and its G_j's eigenvalues within
    # d eta of C's, so its fidelity |M_j|^4 psi^H G_j psi is at least min_fidelity
    min_fidelity = max(1.0 - eta, 0.0) ** 2 * (lo - d * eta)
    worst = {  # tolerance: (what, worst deviation)
        "orthonormality": ("orthonormality residual", claims["table.orthonormalityResidual"] + eta),
        "unitarity": ("spectrum-unitarity eigenvalue defect", spread + d * eta),
        "fidelity": ("worst-case fidelity's deficit from 1", 1.0 - min_fidelity),
        "probabilityUniformity": (
            f"outcome probabilities' deviation from 1/{s}", (spread + d * eta) / s
        ),
    }
    widened = f" (bounds for table V, allowing {eta:.1e})" if eta else ""
    for key, (what, deviation) in worst.items():
        if not deviation <= TOLERANCES[key]:
            violations.append(f"{what} {deviation:.6e} exceeds {TOLERANCES[key]:.1e}{widened}")
    return violations


def cmd_verify(args) -> int:
    # decoded JSON holds no reference cycles: verify runs with the cycle
    # collector paused, and the report's lists, thousands of them in an emitted
    # table, are freed by reference count before it resumes, starting no collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        violations = _verify_report(_read_json(args.report, "report"))
    finally:
        if enabled:
            gc.enable()
    if violations:
        for line in violations:
            print(f"violated: {line}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"report verified: conditions and every input's fidelity and probabilities within {CONDITION_TOL:.0e}")
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
    table.add_argument(
        "--emit-table", action="store_true",
        help="include the coefficient table V",
    )

    p_bounds = command("bounds", parents=[problem], help="entanglement measures and CCC bounds")
    p_bounds.set_defaults(func=cmd_bounds)

    p_synth = command("synthesize", parents=[table], help="phase factors and coefficient table")
    p_synth.set_defaults(func=cmd_synthesize)

    p_sim = command("simulate", parents=[table], help="synthesize and certify on random inputs")
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = command("verify", help="re-check an emitted report")
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
        how = "proved no phase-form protocol exists" if err.proved else "search exhausted"
        print(
            f"phase factors not found: {err} ({how}; best residual {err.best_residual:.6e})",
            file=sys.stderr,
        )
        return EXIT_NO_PHASES


if __name__ == "__main__":
    sys.exit(main())
