"""Entanglement measures and classical-communication-cost bounds.

Quantities in bits are carried as a float plus, where representable, an exact
symbolic form coef * log2(arg) + offset with rational coef and arg and an
integer offset.  That keeps golden values like log2(6) free of tolerance games
while the floats stay convenient, and a concentration budget over many copies
exact in a few small integers.

The teleportation bounds revolve around two measures of an n-term spectrum:

  E_t   = -log2(max_k p_k)   (teleportation entanglement; >= log2 d is the
                              exact feasibility criterion for a d-level state)
  E_Sch = log2(n)            (Schmidt entanglement)

with E_t <= E_Sch always, equal exactly for the uniform spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import RankOrder
from .spectrum import SchmidtSpectrum

CONCENTRATION_TOL = 1e-12
# most bits of an exact p_max's denominator times copies that _max_bells raises
# to that power: 2**23 (1.68 million copies of 7/16) takes about a third of a second
MAX_POWER_BITS = 1 << 23


@dataclass(frozen=True)
class Bits:
    """A quantity in bits: float value plus optional exact form coef*log2(arg) + offset."""

    value: float
    coefficient: Fraction | None = None
    argument: Fraction | None = None
    offset: int = 0

    @classmethod
    def log2(cls, coefficient, argument, offset: int = 0) -> "Bits":
        coef = Fraction(coefficient)
        arg = Fraction(argument)
        if arg <= 0:
            raise ValueError("log2 argument must be positive")
        value = float(coef) * (math.log2(arg.numerator) - math.log2(arg.denominator)) + offset
        return cls(value=value, coefficient=coef, argument=arg, offset=offset)

    @classmethod
    def inexact(cls, value: float) -> "Bits":
        return cls(value=float(value))

    @property
    def is_exact(self) -> bool:
        return self.coefficient is not None


@dataclass(frozen=True)
class CccBound:
    """A classical-communication lower bound with its assumption tag."""

    bits: Bits
    assumption: str  # "zero-residual" | "d>n/2" | "not-tight"


@dataclass(frozen=True)
class ConcentrationBounds:
    """Classical-cost accounting for concentrating copies into Bell pairs."""

    n_copies: int
    m_bells: int
    feasible: bool
    m_max: int                 # largest feasible Bell count for this copy budget
    c1_lower_bound: Bits       # bits needed for the concentration step
    c2: Bits                   # bits needed to then teleport through the m pairs


@dataclass(frozen=True)
class BoundsReport:
    """Every measure and bound the package states for one (spectrum, d) pair."""

    d: int
    n: int
    et: Bits
    e_sch: Bits
    teleport_feasible: bool
    ccc_lower_bound: CccBound | None       # None when n < d (no protocol to bound)
    residual_cap: Bits | None              # log2(n/d), zero when d > n/2
    residual_cap_integer: Bits | None      # log2(floor(n/d)): integer-constrained cap
    locc_bound: Bits | None                # rank bound for concentrating n down to d


def entanglement_of_teleportation(spectrum: SchmidtSpectrum) -> Bits:
    """E_t = -log2 of the largest probability."""
    if spectrum.exact is not None:
        return Bits.log2(1, 1 / spectrum.p_max_exact)
    return Bits.inexact(-math.log2(spectrum.p_max))


def schmidt_entanglement(spectrum: SchmidtSpectrum) -> Bits:
    """E_Sch = log2 of the Schmidt number."""
    return Bits.log2(1, spectrum.n)


def locc_ccc_bound(n1: int, n2: int) -> Bits:
    """Any LOCC map taking Schmidt rank n1 to n2 costs >= log2(n1/n2) bits."""
    if n2 < 1:
        raise ValueError("ranks must be positive")
    if n1 < n2:
        raise RankOrder(f"rank can only decrease under LOCC; got n1={n1} < n2={n2}")
    return Bits.log2(1, Fraction(n1, n2))


def teleport_ccc_bound(n: int, d: int, assume_zero_residual: bool) -> CccBound:
    """Lower bound on the classical bits for faithful d-level teleportation.

    log2(n*d) applies to any protocol when d > n/2, or when no entanglement
    may survive the teleportation.  Without either assumption only the
    d-maximally-entangled floor of 2*log2(d) is claimed, tagged not-tight:
    retaining residual entanglement can genuinely cost less, as teleporting
    through one Bell pair of a two-pair resource shows.
    """
    if not n >= d >= 2:
        raise ValueError(f"need n >= d >= 2, got n={n}, d={d}")
    if 2 * d > n:
        return CccBound(bits=Bits.log2(1, n * d), assumption="d>n/2")
    if assume_zero_residual:
        return CccBound(bits=Bits.log2(1, n * d), assumption="zero-residual")
    return CccBound(bits=Bits.log2(2, d), assumption="not-tight")


def residual_cap(n: int, d: int) -> Bits:
    """Upper bound on surviving entanglement: log2(n) - log2(d), zero for d > n/2.

    Bob's n-level system must host the d teleported levels alongside n_s
    entangled ones, so n >= n_s * d; for d > n/2 that forces n_s = 1.
    """
    if not n >= d >= 1:
        raise ValueError(f"need n >= d >= 1, got n={n}, d={d}")
    if 2 * d > n:
        return Bits.log2(1, 1)
    return Bits.log2(1, Fraction(n, d))


def residual_cap_integer(n: int, d: int) -> Bits:
    """Integer-constrained cap log2(floor(n/d)); n_s is a Schmidt number, so n_s <= floor(n/d)."""
    if not n >= d >= 1:
        raise ValueError(f"need n >= d >= 1, got n={n}, d={d}")
    return Bits.log2(1, n // d)


def _max_bells(spectrum: SchmidtSpectrum, n_copies: int) -> int:
    """Largest m with m <= n_copies * E_t, exact (within MAX_POWER_BITS) when the spectrum is."""
    if spectrum.exact is not None:
        # m <= n*E_t  <=>  2^m * r^n <= q^n with p_max = r/q, so m is the bit
        # length of q^n // r^n minus one; comparing one shifted candidate
        # gives that without the quadratic-time long division
        p = spectrum.p_max_exact
        bits = n_copies * p.denominator.bit_length()  # r <= q
        if bits > MAX_POWER_BITS:
            raise ValueError(f"{n_copies} copies need {bits}-bit powers of p_max, past {MAX_POWER_BITS}")
        num, den = p.denominator**n_copies, p.numerator**n_copies
        m = num.bit_length() - den.bit_length()
        return m if den << m <= num else m - 1
    et = -math.log2(spectrum.p_max)
    return int(math.floor(n_copies * et + CONCENTRATION_TOL))


def concentration_bounds(
    spectrum: SchmidtSpectrum, n_copies: int, m_bells: int
) -> ConcentrationBounds:
    """Bounds for turning n copies of the resource into m Bell pairs by LOCC.

    The conversion is possible exactly when m <= n * E_t.  The classical cost
    of the concentration step obeys C1 >= n * E_Sch - m (so at the maximal
    feasible m the floor is n * (E_Sch - E_t), zero only for the uniform
    spectrum), and teleporting through the m pairs afterwards costs C2 = 2m.
    """
    if n_copies < 1:
        raise ValueError("n_copies must be at least 1")
    if m_bells < 0:
        raise ValueError("m_bells must be non-negative")
    m_max = _max_bells(spectrum, n_copies)
    c1 = Bits.log2(n_copies, spectrum.n, -m_bells)
    c2 = Bits.log2(2 * m_bells, 2)
    return ConcentrationBounds(
        n_copies=n_copies,
        m_bells=m_bells,
        feasible=m_bells <= m_max,
        m_max=m_max,
        c1_lower_bound=c1,
        c2=c2,
    )


def build_bounds_report(spectrum: SchmidtSpectrum, d: int) -> BoundsReport:
    """Assemble every bound for one resource/dimension pair.

    The message floor assumes zero residual entanglement because the
    synthesized protocol always destroys all of it.  Feasibility is
    SchmidtSpectrum.admits (E_t >= log2 d), exact when the spectrum is.
    """
    n = spectrum.n
    et = entanglement_of_teleportation(spectrum)
    e_sch = schmidt_entanglement(spectrum)
    if n >= d:  # n >= 1, so a d < 2 lands here and teleport_ccc_bound refuses it
        ccc = teleport_ccc_bound(n, d, assume_zero_residual=True)
        cap = residual_cap(n, d)
        cap_int = residual_cap_integer(n, d)
        locc = locc_ccc_bound(n, d)
    else:
        ccc = cap = cap_int = locc = None
    return BoundsReport(
        d=d,
        n=n,
        et=et,
        e_sch=e_sch,
        teleport_feasible=spectrum.admits(d),
        ccc_lower_bound=ccc,
        residual_cap=cap,
        residual_cap_integer=cap_int,
        locc_bound=locc,
    )
