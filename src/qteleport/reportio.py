"""Deterministic JSON serialization for problem files and report documents.

Reports are plain JSON objects with sorted keys.  Objects are laid out one
key per line with two-space indent; a list of numbers (or of short lists of
numbers, such as the [re, im] pairs of a table row) sits on one line, and any
other list has one element per line.  Every scalar is written as the standard
library's C encoder writes it: a str, int, float, bool or None directly, by
the function that encoder calls for its exact type, and anything else (a
subclass such as an IntEnum, a one-line list) by the encoder itself.  So
floats print in Python's shortest round-trip form, identical inputs produce
byte-identical documents and parse(serialize(x)) == x.  Apart from
whitespace, the text equals json.dumps(x, sort_keys=True).  NaN and
infinities are refused in both directions.

An object's value may also be a float64 numpy array, such as a report's
coefficient table.  It is written exactly as its .tolist() would be, but
each distinct innermost element (a float of a 1-D array, a last-axis row
such as an [re, im] pair of a deeper one) is formatted once, by
float.__repr__, the function the C encoder calls for a float.

The read side mirrors this: loads parses each distinct float literal once.
A formula table's entries are e^{iθ} times roots of unity over √s, so most
of its literals repeat.  Decoded documents hold no reference cycles, so a
reader such as `qteleport verify` pauses the cycle collector while it holds
the decoded lists; they are freed by reference counting.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .bounds import Bits, BoundsReport, CccBound, ConcentrationBounds


_INLINE = json.JSONEncoder(sort_keys=True, allow_nan=False).encode  # the C encoder: no indent
_SCALARS = (str, int, float, type(None))  # bool is an int
_quote = json.encoder.encode_basestring_ascii  # the C encoder's str writer


def _float_text(value: float) -> str:
    # a non-finite value goes to the encoder, which refuses it with its own ValueError
    return float.__repr__(value) if math.isfinite(value) else _INLINE(value)


# the function the C encoder calls for each scalar type, keyed on the exact
# type: JSONEncoder.encode would build a fresh C encoder for every number
_WRITE_SCALAR = {
    str: _quote,
    int: int.__repr__,
    float: _float_text,
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}


def dumps(obj) -> str:
    """Serialize to deterministic JSON text (trailing newline included)."""
    return _encode(obj, "\n") + "\n"


def _is_row(items) -> bool:
    """Scalars, or lists of scalars: one line.  Only the first element is read,
    which decides the layout alone; any content still encodes to valid JSON."""
    first = items[0]
    if isinstance(first, (list, tuple)):
        return not first or isinstance(first[0], _SCALARS)
    return isinstance(first, _SCALARS)


def _key(key) -> str:
    """Object keys as the standard encoder coerces them: str, int, float, bool or None."""
    if not isinstance(key, _SCALARS):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return _quote(key if isinstance(key, str) else _encode(key, ""))


def _encode(obj, pad: str) -> str:
    write = _WRITE_SCALAR.get(type(obj))
    if write is not None:
        return write(obj)
    if isinstance(obj, np.ndarray):
        return _encode_array(obj, pad)
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        body = ",".join(f"{inner}{_key(k)}: {_encode(obj[k], inner)}" for k in sorted(obj))
        return "{" + body + pad + "}"
    if isinstance(obj, (list, tuple)) and obj and not _is_row(obj):
        return "[" + ",".join(inner + _encode(item, inner) for item in obj) + pad + "]"
    return _INLINE(obj)


def _encode_array(array: np.ndarray, pad: str) -> str:
    """The text of _encode(array.tolist(), pad), formatting each distinct
    innermost element once; identical elements are found by their bytes, so
    -0.0 stays apart from 0.0."""
    if array.dtype != np.float64 or array.ndim == 0:
        raise TypeError(f"only float64 arrays of one or more dimensions encode, not {array.dtype} "
                        f"of shape {array.shape}")
    if array.size == 0:  # no floats; the list path lays out the empty nests
        return _encode(array.tolist(), pad)
    if not np.isfinite(array).all():
        raise ValueError("Out of range float values are not JSON compliant")
    width = array.shape[-1] if array.ndim > 1 else 1
    keys = np.ascontiguousarray(array).reshape(-1, width).view(f"V{8 * width}").ravel().tolist()
    distinct = dict.fromkeys(keys)
    values = np.frombuffer(b"".join(distinct), dtype=np.float64).tolist()
    if array.ndim == 1:
        texts, shape = map(float.__repr__, values), array.shape
    else:  # one "[x, y, ...]" token per last-axis row
        columns = [iter(values)] * width
        texts = ("[" + ", ".join(map(float.__repr__, row)) + "]" for row in zip(*columns))
        shape = array.shape[:-1]
    formatted = dict(zip(distinct, texts))
    tokens = list(map(formatted.__getitem__, keys))
    # the tokens of the last axis of `shape` share a line (as _is_row decides);
    # each outer axis puts one element per line, innermost first
    size = shape[-1]
    items = ["[" + ", ".join(tokens[i:i + size]) + "]" for i in range(0, len(tokens), size)]
    for axis in range(len(shape) - 2, -1, -1):
        inner, size = pad + "  " * (axis + 1), shape[axis]
        close = pad + "  " * axis + "]"
        items = ["[" + inner + ("," + inner).join(items[i:i + size]) + close
                 for i in range(0, len(items), size)]
    return items[0]


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a valid JSON number")


def loads(text: str):
    """Parse JSON text, refusing the NaN and Infinity tokens.  Each distinct
    float literal is parsed once (a fresh cache per call) to the value float()
    gives it."""
    return json.loads(text, parse_float=functools.cache(float), parse_constant=_reject_constant)


def bits_doc(bits: Bits | None) -> dict | None:
    """{"bits": float, "exact": [coefNum, coefDen, argNum, argDen] | null}, and
    "offset": int after exact when the exact form has a nonzero one."""
    if bits is None:
        return None
    doc = {"bits": bits.value, "exact": None}
    if bits.is_exact:
        exact = [
            bits.coefficient.numerator,
            bits.coefficient.denominator,
            bits.argument.numerator,
            bits.argument.denominator,
        ]
        try:
            for k in (*exact, bits.offset):
                str(k)
        except ValueError:  # beyond sys.get_int_max_str_digits(): no exact form
            return doc
        doc["exact"] = exact
        if bits.offset:
            doc["offset"] = bits.offset
    return doc


def ccc_doc(bound: CccBound | None) -> dict | None:
    if bound is None:
        return None
    doc = bits_doc(bound.bits)
    doc["assumption"] = bound.assumption
    return doc


def concentration_doc(conc: ConcentrationBounds) -> dict:
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
    }
