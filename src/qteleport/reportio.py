"""Deterministic JSON serialization for problem files and report documents.

Reports are plain JSON objects, emitted by the standard encoder with sorted
keys and two-space indent.  Floats print in Python's shortest round-trip form,
so identical inputs produce byte-identical documents and
parse(serialize(x)) == x.  NaN and infinities are refused in both directions.
"""

from __future__ import annotations

import json

from .bounds import Bits, BoundsReport, CccBound, ConcentrationBounds


def dumps(obj) -> str:
    """Serialize to deterministic JSON text (trailing newline included)."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a valid JSON number")


def loads(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def bits_doc(bits: Bits | None) -> dict | None:
    """{"bits": float, "exact": [coefNum, coefDen, argNum, argDen] | null}."""
    if bits is None:
        return None
    exact = None
    if bits.is_exact:
        exact = [
            bits.coefficient.numerator,
            bits.coefficient.denominator,
            bits.argument.numerator,
            bits.argument.denominator,
        ]
        try:
            for k in exact:
                str(k)
        except ValueError:  # beyond sys.get_int_max_str_digits(): no exact form
            exact = None
    return {"bits": bits.value, "exact": exact}


def ccc_doc(bound: CccBound | None) -> dict | None:
    if bound is None:
        return None
    doc = bits_doc(bound.bits)
    doc["assumption"] = bound.assumption
    return doc


def concentration_doc(conc: ConcentrationBounds | None) -> dict | None:
    if conc is None:
        return None
    return {
        "copies": conc.n_copies,
        "bells": conc.m_bells,
        "feasible": conc.feasible,
        "mMax": conc.m_max,
        "C1LowerBound": bits_doc(conc.c1_lower_bound),
        "C2": bits_doc(conc.c2),
    }


def bounds_doc(report: BoundsReport) -> dict:
    return {
        "d": report.d,
        "n": report.n,
        "Et": bits_doc(report.et),
        "ESch": bits_doc(report.e_sch),
        "teleportFeasible": report.teleport_feasible,
        "cccLowerBound": ccc_doc(report.ccc_lower_bound),
        "residualCap": bits_doc(report.residual_cap),
        "residualCapInteger": bits_doc(report.residual_cap_integer),
        "loccBound": bits_doc(report.locc_bound),
        "concentration": concentration_doc(report.concentration),
    }
