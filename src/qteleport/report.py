"""The report schema: each report kind's sections, derived from the inputs it echoes.

  bounds       echoes "problem"; bounds_claims derives "bounds"
  concentrate  echoes its options as "concentrate"; concentrate_claims
               derives "bounds" (Et and ESch) and "concentration"
  synthesize,  echo "problem" and write theta ("phases") and the construction
  simulate     (and V, with --emit-table); protocol_claims derives the table's
               dimensions and residuals and simulate's settings, log2(s) and
               outcome probabilities

The writers call these functions; verify calls them again on a report's echo
and compares every stated leaf with the derived one: an integer exactly, any
other number as a double within CONDITION_TOL (a list of them entry by
entry), an object key by key, and anything else (a boolean, a string, null,
an exact form) exactly.  A field derived as a number that states none exits
2; any other difference is a violation (exit 6) naming the field.  A protocol
report's table is rebuilt from theta and certified by solve_general's rule,
every eigenvalue of the phase Gram C within CONDITION_TOL of 1; C's
eigenvalues also bound the sampled sweep statistics.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

import numpy as np

from . import __version__, bounds, protocol, reportio, sim
from .bounds import Bits
from .errors import DegenerateColumns, int_text
from .linalg import basis_state
from .parsing import (
    InputFailure, ParseFailure, Problem, as_double, is_integer, parse_concentrate_doc, parse_problem_doc,
)
from .phases import CONDITION_TOL, PhaseMatrix
from .protocol import Construction, ProtocolTable
from .spectrum import SchmidtSpectrum

TOLERANCES = dict.fromkeys(
    ("orthonormality", "unitarity", "fidelity", "probabilityUniformity"), CONDITION_TOL
)

# A sampled quadratic form sums d^2 products of entries within a few ulps of
# the exact ones, and eigvalsh is as accurate, so a sampled statistic may
# leave its eigenvalue bracket by a few ulps times d^2 (at uniform (2, 1024)
# the sampled minimum fidelity was 1 - 5.6e-16 against lambda_min = 1 - 2.2e-16).
BRACKET_ULPS = 8  # allowed: this many ulps times d^2

# the sections of each report kind, keyed by the section that names the kind
KINDS = {
    "concentrate": ("concentrate", "bounds", "concentration"),
    "bounds": ("problem", "bounds"),
    "table": ("problem", "phases", "table", "tolerances", "simulation"),
}


def write(out_path: str | None, **sections) -> None:
    """Write a report of the given sections, stamped with the tool version, to
    out_path or stdout; a file that cannot be written is a parse failure."""
    text = reportio.dumps({"toolVersion": __version__, **sections})
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise ParseFailure(f"cannot write report file: {err}")


def bits_doc(bits: Bits | None) -> dict | None:
    """{"bits": float, "exact": [coefNum, coefDen, argNum, argDen] | null}, and
    "offset": int after exact when the exact form has a nonzero one."""
    if bits is None:
        return None
    doc = {"bits": bits.value, "exact": None}
    if bits.is_exact:
        coefficient, argument = bits.coefficient, bits.argument
        exact = [coefficient.numerator, coefficient.denominator, argument.numerator, argument.denominator]
        try:
            list(map(str, (*exact, bits.offset)))
        except ValueError:  # beyond sys.get_int_max_str_digits(): no exact form
            return doc
        doc["exact"] = exact
        if bits.offset:
            doc["offset"] = bits.offset
    return doc


def bounds_claims(problem: Problem) -> dict:
    """The "bounds" section of a bounds report, from its problem."""
    report = bounds.build_bounds_report(problem.spectrum, problem.d)
    ccc = report.ccc_lower_bound
    return {"bounds": {
        "d": report.d, "n": report.n,
        "Et": bits_doc(report.et), "ESch": bits_doc(report.e_sch),
        "teleportFeasible": report.teleport_feasible,
        "cccLowerBound": ccc and bits_doc(ccc.bits) | {"assumption": ccc.assumption},
        "residualCap": bits_doc(report.residual_cap),
        "residualCapInteger": bits_doc(report.residual_cap_integer),
        "loccBound": bits_doc(report.locc_bound),
    }}


def concentrate_claims(echo: dict) -> dict:
    """The "bounds" and "concentration" sections of a concentrate report, from
    its echoed options."""
    spectrum, copies, bells = parse_concentrate_doc(echo)
    try:
        conc = bounds.concentration_bounds(spectrum, copies, bells)
    except ValueError as err:  # an exact p_max^copies past the bit budget
        raise InputFailure(str(err))
    return {
        "bounds": {
            "Et": bits_doc(bounds.entanglement_of_teleportation(spectrum)),
            "ESch": bits_doc(bounds.schmidt_entanglement(spectrum)),
        },
        "concentration": {
            "copies": conc.n_copies, "bells": conc.m_bells, "feasible": conc.feasible, "mMax": conc.m_max,
            "C1LowerBound": bits_doc(conc.c1_lower_bound), "C2": bits_doc(conc.c2),
        },
    }


def protocol_claims(problem: Problem, table: ProtocolTable, simulated: bool) -> dict:
    """Every figure a synthesize report derives from its problem and table and,
    with simulated, a simulate report's: the sweep's settings, and a run at the
    first basis state (every input's outcome probabilities agree within C's
    eigenvalue defect over s), which a table past the tolerance does not have."""
    claims = {"table": {
        "d": table.d, "n": table.n,
        # the formula basis is orthonormal for every theta; bench/oracle.py reads the field
        "orthonormalityResidual": 0.0,
        "unitarityResidual": protocol.verify_conditions(table),
    }}
    if simulated:
        claims["simulation"] = simulation = {
            "trials": problem.trials, "seed": problem.seed, "classicalBits": math.log2(table.s),
        }
        try:
            simulation["outcomeProbabilities"] = sim.run_protocol(basis_state(table.d, 0), table).probabilities
        except DegenerateColumns:  # verify names such a table by its tolerances
            pass
    return claims


def protocol_sections(
    problem: Problem, table: ProtocolTable, emit_table: bool, simulation: dict | None = None
) -> dict:
    """The sections of a synthesize report or, given the simulation section's
    sampled statistics, of a simulate report: the problem echo, the phases,
    the table, the tolerances and every figure of protocol_claims."""
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
    for section, fields in protocol_claims(problem, table, simulation is not None).items():
        sections[section] |= fields
    return sections


def _shape_text(shape) -> str:
    """A shape as its tuple prints, each dimension by int_text."""
    return f"({', '.join(map(int_text, shape))}{',' * (len(shape) == 1)})"


def _finite_array(items, shape: tuple, what: str, entries: str) -> np.ndarray:
    """A report's nested lists as a float array of the given shape; anything
    ragged, non-numeric, boolean or non-finite is a parse failure.  The shape
    is found as numpy finds it, one nesting level at a time, and the entries
    are checked on one flat list, which numpy then converts."""
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
        raise ParseFailure(f"{what} has shape {_shape_text(found)}, expected {_shape_text(shape)}")
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


def table_from_phases(doc: dict, spectrum: SchmidtSpectrum, d: int) -> ProtocolTable:
    """Rebuild the table from the report's theta and construction."""
    construction = doc["table"].get("construction")
    phases_doc = doc.get("phases")
    theta = phases_doc.get("theta") if isinstance(phases_doc, dict) else None
    if theta is None:
        raise ParseFailure("report holds no phases to build its table from (section 'phases', field 'theta')")
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
        return protocol.synthesize_d2(spectrum, phases)
    return protocol.synthesize_general(spectrum, phases)


def _compare(stated, derived, field: str, violations: list[str]) -> None:
    """Append a violation for each leaf of a stated value that differs from the
    derived one by the rule of the module docstring; a derived (lowest,
    highest) pair admits any number between the two."""
    if isinstance(derived, dict) and isinstance(stated, dict):
        for key in sorted(derived.keys() | stated.keys()):
            _compare(stated.get(key), derived.get(key), f"{field}.{key}", violations)
    elif isinstance(derived, np.ndarray):
        array = _finite_array(stated, derived.shape, f"report field '{field}'", "numbers")
        width = CONDITION_TOL if derived.dtype.kind == "f" else 0
        if not width and not all(map(is_integer, stated)):
            raise ParseFailure(f"report field '{field}' is malformed: entries must be integers")
        for j in np.flatnonzero(~(np.abs(array - derived) <= width)):
            violations.append(
                f"stated {field}[{j}] {array[j].item()!r} lies outside the derived "
                f"[{(derived[j] - width).item()!r}, {(derived[j] + width).item()!r}]"
            )
    elif is_integer(derived) or isinstance(derived, (float, tuple)):
        exact = is_integer(derived)
        if exact and not is_integer(stated):
            section, _, key = field.rpartition(".")
            raise ParseFailure(f"report {section} field {key!r} must be an integer")
        if isinstance(stated, bool) or not isinstance(stated, (int, float)):
            raise ParseFailure(f"report field '{field}' must be a number")
        width, stated, text = (0, stated, int_text) if exact else (CONDITION_TOL, as_double(stated), repr)
        lowest, highest = derived if isinstance(derived, tuple) else (derived - width, derived + width)
        if not lowest <= stated <= highest:
            violations.append(
                f"stated {field} {text(stated)} lies outside the derived [{text(lowest)}, {text(highest)}]"
            )
    elif (text := json.dumps(stated, sort_keys=True)) != (wanted := json.dumps(derived, sort_keys=True)):
        violations.append(f"stated {field} {text} is not the derived {wanted}")


def _section(doc: dict, key: str) -> dict:
    if key not in doc:
        raise ParseFailure(f"report is missing section '{key}'")
    if not isinstance(doc[key], dict):
        raise ParseFailure(f"report section '{key}' must be an object")
    return doc[key]


def verify(doc) -> tuple[str, list[str]]:
    """What verifying a decoded report establishes, and every violation: none
    when it verifies; a malformed report raises.  The first of its sections in
    KINDS names its kind, and it may hold no section of another kind."""
    if not isinstance(doc, dict):
        raise ParseFailure("report must contain a JSON object")
    known = {section for sections in KINDS.values() for section in sections}
    if not known & doc.keys():
        raise ParseFailure("report is of no known kind: it holds no report section")
    kind = next((name for name in KINDS if name in doc), "table")
    if mixed := sorted(known - set(KINDS[kind]) & doc.keys()):
        raise ParseFailure(f"report with section '{kind}' also holds section '{mixed[0]}'")
    if kind == "table":
        return (f"report verified: conditions and every input's fidelity and probabilities "
                f"within {CONDITION_TOL:.0e}"), _verify_protocol(doc)
    if kind == "concentrate":
        claims = concentrate_claims(_section(doc, "concentrate"))
    else:
        claims = bounds_claims(parse_problem_doc(_section(doc, "problem")))
    violations = []
    for section, fields in claims.items():
        _compare(_section(doc, section), fields, section, violations)
    return "report verified: every stated figure is the one its echoed inputs give", violations


def _verify_protocol(doc: dict) -> list[str]:
    """verify for a synthesize or simulate report: protocol_claims, and each
    retired field it states, against the table theta builds; the rest by the
    phase Gram C's eigenvalues, over which every input psi's fidelity
    psi^H G_j psi and s times its probability range.  An emitted V moves each
    Gram entry by at most eta, so its eigenvalues by d eta and |M_j|^2 by eta:
    it passes only if C's figures, widened by those, do."""
    problem = parse_problem_doc(_section(doc, "problem"))
    table_doc = _section(doc, "table")
    table = table_from_phases(doc, problem.spectrum, problem.d)
    d, n, s, violations, eta = table.d, table.n, table.s, [], 0.0
    if table_doc.get("V") is not None:
        pairs = _finite_array(table_doc["V"], (s, d, n, 2), "report table", "[re, im] pairs of numbers")
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

    claims = protocol_claims(problem, table, simulated)
    eigenvalues = table.gram_eigenvalues  # ascending
    lo, hi = float(eigenvalues[0]), float(eigenvalues[-1])
    spread = float(np.abs(eigenvalues - 1.0).max())
    ulps = BRACKET_ULPS * d * d * sys.float_info.epsilon
    if simulated:  # every fidelity psi^H G_j psi lies in [lo, hi]
        claims["simulation"] |= {
            "minFidelity": (lo - ulps, hi + ulps), "maxFidelityDeviation": (0.0, spread + ulps),
        }
    # the fields reports no longer write, checked where one written before states
    # them: every residual state is a product state, and every probability a
    # fidelity over s, as is their average over outcomes, the total probability
    retired = {
        "phases": {"d": d, "n": n, "constraintResidual": table.phases.constraint_residual(problem.spectrum)},
        "table": {"s": s},
        "simulation": {
            "maxResidualSchmidt": 1,
            "residualSchmidtNumbers": np.ones(s, dtype=int),
            "maxProbabilityDeviation": (0.0, (spread + ulps) / s),
            "totalProbabilityDeviation": (0.0, spread + ulps),
        },
    }
    for section, fields in retired.items():  # a report without a simulation section states none
        stated = doc.get(section, ())
        claims[section] = claims.get(section, {}) | {k: v for k, v in fields.items() if k in stated}
    for section, fields in claims.items():
        for key, derived in fields.items():
            _compare(doc[section].get(key), derived, f"{section}.{key}", violations)
    # an emitted V's own figures are bounded by C's widened by eta: V passes only if
    # those bounds do.  Its |M_j|^2 is within eta of 1 and its G_j's eigenvalues within
    # d eta of C's, so its fidelity |M_j|^4 psi^H G_j psi is at least min_fidelity
    min_fidelity = max(1.0 - eta, 0.0) ** 2 * (lo - d * eta)
    worst = {  # tolerance: (what, worst deviation)
        "orthonormality": ("orthonormality residual", claims["table"]["orthonormalityResidual"] + eta),
        "unitarity": ("spectrum-unitarity eigenvalue defect", spread + d * eta),
        "fidelity": ("worst-case fidelity's deficit from 1", 1.0 - min_fidelity),
        "probabilityUniformity": (f"outcome probabilities' deviation from 1/{s}", (spread + d * eta) / s),
    }
    widened = f" (bounds for table V, allowing {eta:.1e})" if eta else ""
    for key, (what, deviation) in worst.items():
        if not deviation <= TOLERANCES[key]:
            violations.append(f"{what} {deviation:.6e} exceeds {TOLERANCES[key]:.1e}{widened}")
    return violations
