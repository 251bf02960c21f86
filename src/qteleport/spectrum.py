"""Schmidt spectra: the probabilities of the entangled resource.

A spectrum is an ordered tuple of strictly positive probabilities summing to
one.  When constructed from rationals it additionally carries the exact
values, which downstream code (partition search, bound reports) uses to avoid
tolerance ambiguity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

SUM_TOL = 1e-12
FEASIBILITY_SLACK = 1e-12  # float spectra only: p_max <= 1/d + slack admits d


def parse_rational(text: str) -> Fraction:
    """A rational literal such as "3/16".  "num/den" in plain decimal digits is
    read as two integers; any other form goes to Fraction(text), which reads it
    or raises its usual ValueError or ZeroDivisionError."""
    num, slash, den = text.partition("/")
    if slash and num.isascii() and num.isdigit() and den.isascii() and den.isdigit() and den.strip("0"):
        return Fraction(int(num), int(den))
    return Fraction(text)


def _check_exact(exact: tuple[Fraction, ...]) -> None:
    """Raise ValueError unless the exact values are positive and sum to 1; the
    sum is tested in integers over the least common denominator."""
    if any(f.numerator <= 0 for f in exact):
        raise ValueError("entries must be positive")
    common = math.lcm(*(f.denominator for f in exact))
    if sum(f.numerator * (common // f.denominator) for f in exact) != common:
        raise ValueError(f"entries sum to {sum(exact)}, not 1")


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Ordered non-zero probabilities p_k of a bipartite pure resource."""

    probs: tuple[float, ...]
    exact: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if len(self.probs) == 0:
            raise ValueError("spectrum must contain at least one probability")
        if self.exact is not None:
            _check_exact(self.exact)
            if len(self.exact) != len(self.probs):
                raise ValueError("exact values must match probs in length")
            if any(f.numerator / f.denominator != p for f, p in zip(self.exact, self.probs)):
                raise ValueError("probs must be the floating images of the exact values")
        if any(not p > 0.0 for p in self.probs):  # NaN fails too, and exact values that underflow
            raise ValueError("entries must be positive")
        if self.exact is None and not abs(sum(self.probs) - 1.0) <= SUM_TOL:
            raise ValueError(f"entries sum to {sum(self.probs)!r}, not 1")

    @classmethod
    def from_probs(cls, probs: Iterable[float]) -> "SchmidtSpectrum":
        return cls(tuple(float(p) for p in probs))

    @classmethod
    def from_rationals(cls, values: Sequence) -> "SchmidtSpectrum":
        """Exact spectrum from Fractions or "num/den" strings; any other entry
        raises TypeError.  Raises ValueError for entries that are not positive
        or do not sum to 1 (or a bad literal's ValueError or ZeroDivisionError)."""
        if wrong := [type(v).__name__ for v in values if not isinstance(v, (Fraction, str))]:
            raise TypeError(f"an exact entry is a Fraction or a 'num/den' string, not {wrong[0]}")
        exact = tuple(v if isinstance(v, Fraction) else parse_rational(v) for v in values)
        # |f| > 1 fails the positivity or sum check in __post_init__ before its
        # float image, which could overflow, is compared
        probs = tuple(
            f.numerator / f.denominator if abs(f.numerator) <= f.denominator else math.inf
            for f in exact
        )
        return cls(probs, exact)

    @property
    def n(self) -> int:
        """Schmidt number of the resource (count of non-zero probabilities)."""
        return len(self.probs)

    @property
    def p_max(self) -> float:
        return max(self.probs)

    @functools.cached_property
    def p_max_exact(self) -> Fraction | None:
        return max(self.exact) if self.exact is not None else None

    def admits(self, d: int) -> bool:
        """Whether a d-level state can be teleported faithfully: p_max <= 1/d.

        Exact spectra compare exactly; only float spectra get FEASIBILITY_SLACK
        (1 / d of two integers is 0.0 for a d past the double range).
        """
        if self.exact is not None:
            return self.p_max_exact <= Fraction(1, d)
        return self.p_max <= 1 / d + FEASIBILITY_SLACK

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)
