"""Reading the tool's inputs: problem files, concentrate's options and JSON files.

A problem file is a JSON object: {"d": 2, "spectrum": ["1/2", "1/3", "1/6"]}
with optional "seed" (default 0) and "trials" (default 100, at most 10**6),
the only place to set them.  "num/den" spectrum entries switch the solvers to
exact rational arithmetic; --spectrum's comma-separated entries read the same.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import reportio
from .spectrum import SUM_TOL, SchmidtSpectrum, parse_rational

SUM_ACCEPT_TOL = 1e-9  # float spectra summing this close to 1 are renormalized, not refused
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


def is_integer(value) -> bool:
    """Whether a decoded JSON value is an integer; true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _sweep_count(value, key: str) -> int:
    """A problem's 'trials' or 'seed': anything but an integer is a parse
    failure, one out of range an invariant violation."""
    if not is_integer(value):
        raise ParseFailure(f"field {key!r} must be an integer")
    if key == "seed" and value < 0:
        raise InputFailure(f"field {key!r} must be non-negative")
    if key == "trials" and value < 1:
        raise InputFailure(f"field {key!r} must be at least 1")
    if key == "trials" and value > MAX_TRIALS:
        raise InputFailure(f"field {key!r} must be at most {MAX_TRIALS}")
    return value


def as_double(number) -> float:
    """A JSON number as a double.  An integer past the double range reads as an
    infinity, as a float literal past it (1e400) does."""
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def _entry_value(entry) -> float:
    """A float spectrum's entry: a number, or a string ("num/den", or any other float() reads)."""
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return as_double(entry)
    if not isinstance(entry, str):
        raise ParseFailure("field 'spectrum': entries must be numbers or 'num/den' strings")
    try:
        return as_double(parse_rational(entry)) if "/" in entry else float(entry)
    except (ValueError, ZeroDivisionError):
        raise ParseFailure(f"field 'spectrum': cannot parse entry {entry!r}")


def parse_spectrum_items(items) -> SchmidtSpectrum:
    """Spectrum from JSON entries: numbers, or strings ("num/den" => exact).
    SchmidtSpectrum checks positivity and the sum; a float sum within
    SUM_ACCEPT_TOL of 1 is renormalized first."""
    if not isinstance(items, list) or not items:
        raise ParseFailure("field 'spectrum' must be a non-empty list")
    rational = all(isinstance(it, str) and "/" in it for it in items)
    if rational:
        try:  # each distinct literal once, in order of first appearance
            parsed = {it: parse_rational(it) for it in dict.fromkeys(items)}
        except (ValueError, ZeroDivisionError) as err:
            raise ParseFailure(f"field 'spectrum': bad rational entry ({err})")
    else:
        values = [_entry_value(it) for it in items]
        if not all(math.isfinite(v) for v in values):
            raise InputFailure("field 'spectrum': entries must be finite")
        total = sum(values)
        if SUM_TOL < abs(total - 1.0) <= SUM_ACCEPT_TOL:
            values = [v / total for v in values]
    try:
        if rational:
            return SchmidtSpectrum.from_rationals([parsed[it] for it in items])
        return SchmidtSpectrum.from_probs(values)
    except ValueError as err:
        raise InputFailure(f"field 'spectrum': {err}")


def parse_problem_doc(doc) -> Problem:
    if not isinstance(doc, dict):
        raise ParseFailure("problem file must contain a JSON object")
    if "d" not in doc:
        raise ParseFailure("missing field 'd'")
    if "spectrum" not in doc:
        raise ParseFailure("missing field 'spectrum'")
    d = doc["d"]
    if not is_integer(d):
        raise ParseFailure("field 'd' must be an integer")
    if d < 2:
        raise InputFailure("field 'd' must be at least 2")
    spectrum = parse_spectrum_items(doc["spectrum"])
    counts = {  # an absent or null count takes its default
        key: default if doc.get(key) is None else _sweep_count(doc[key], key)
        for key, default in (("seed", DEFAULT_SEED), ("trials", DEFAULT_TRIALS))
    }
    return Problem(d=d, spectrum=spectrum, raw=doc, **counts)


def concentrate_echo(spectrum: str, copies: int, bells: int) -> dict:
    """concentrate's options as its report echoes them: --spectrum's entries stripped, empty ones dropped."""
    items = [part.strip() for part in spectrum.split(",") if part.strip()]
    return {"spectrum": items, "copies": copies, "bells": bells}


def parse_concentrate_doc(doc: dict) -> tuple[SchmidtSpectrum, int, int]:
    """The spectrum, copies and bells of a concentrate echo; a count outside
    [1, 2**53] (copies) or [0, 2**53] (bells) is an invariant violation."""
    spectrum = parse_spectrum_items(doc.get("spectrum"))
    for key, least in (("copies", 1), ("bells", 0)):
        if not is_integer(doc.get(key)):
            raise ParseFailure(f"field {key!r} must be an integer")
        if not least <= doc[key] <= MAX_COUNT:
            raise InputFailure(f"--{key} must lie in [{least}, 2**53]")
    return spectrum, doc["copies"], doc["bells"]


def read_json(path: str, what: str):
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
    doc = read_json(path, "problem")
    problem = parse_problem_doc(doc)
    for key, value in doc.items():  # the whole document is echoed into the report
        try:  # by the writer's rule: no infinity
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise ParseFailure(f"field {key!r} holds a number that overflows a double")
    return problem
