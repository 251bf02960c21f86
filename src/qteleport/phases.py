"""Phase-factor solvers for the teleportation coefficient construction.

The protocol needs s = n*d angles theta[m, k] such that

    sum_k p_k * exp(i*(theta[m, k] - theta[m', k])) = delta(m, m')

for every pair of rows m, m'.  For a qubit (d = 2) the condition collapses to
a single phasor sum sum_k p_k * exp(i*theta_k) = 0, which always has a
solution when every p_k <= 1/2.  For general d a solution exists whenever the
probabilities split into d subgroups of equal weight 1/d; beyond that the
solver falls back to a multi-restart least-squares search and reports failure
honestly when nothing reaches the acceptance threshold.

A theta is accepted only when max |lambda - 1| over the phase Gram C's
eigenvalues (eigenvalue_defect) is at most CONDITION_TOL: every outcome's Gram
has these eigenvalues, so the defect bounds each entry of C - I and, over all
inputs, each outcome's deviation in fidelity and in probability (times s).

The split is found by first-fit backtracking (find_partition), kept bounded
without changing which split it returns: a dead-gap prune drops placements
that leave a subgroup impossible to complete, a meet-in-the-middle subset-sum
test proves most hopeless spectra hopeless at once, and a budget caps the
placements: PARTITION_NODE_BUDGET for an exact spectrum, and the much smaller
FLOAT_PARTITION_BUDGET for a float one, whose search is the cheap path.  The
subset-sum test runs once, for n <= SUBSET_SUM_MAX_N (FLOAT_SUBSET_SUM_MAX_N
for a float spectrum), when the placements spent reach its own cost of about
2 * 2**ceil(n/2) sums (SUBSET_SUM_AFTER at most), so a split first fit finds
quickly never pays for it and a hopeless one never backtracks far past it.
When no split is found, for whichever reason, solve_general falls through to
the numerical search.

For d = 3, n = 4 the question is decided before the search runs
(decide_three_by_four): existence reduces to whether a real function g has a
zero on the configuration curve of a planar quadrilateral built from the
spectrum, and a Lipschitz-bounded sampling of g, float rounding included,
proves that no solution exists whenever g keeps one sign.  Only that proof
skips the search; every other case runs it unchanged.

The search runs Levenberg-Marquardt (least_squares) on the d(d - 1) real
constraints, with every row pair's residual computed in one array operation
(phase_equations); the Jacobian is built from the same terms, and only at
the points the loop keeps.  The damping follows the gain ratio of each step,
actual over predicted decrease (Nielsen 1999; Madsen, Nielsen & Tingleff
2004): a kept step shrinks lam by at most tenfold, a rejected one grows it by
a factor that doubles with each rejection in a row.  Each restart is judged
by the acceptance rule above: the scan stops at the first whose theta has an
eigenvalue defect of at most CONDITION_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InfeasibleSpectrum, NoPartition, PhaseFactorsNotFound, int_text
from .spectrum import SchmidtSpectrum

TWO_PI = 2.0 * np.pi

CONDITION_TOL = 1e-10       # largest eigenvalue defect of the phase Gram of an accepted theta
SEARCH_RESTARTS = 64        # seeded starts of the least-squares search
SEARCH_MAX_NFEV = 100_000   # residual evaluations allowed to each start
PARTITION_NODE_BUDGET = 1_000_000  # first-fit placements before find_partition gives up
# A float spectrum's search solves in milliseconds what its first fit could
# spend seconds of the exact budget on; a split found within this many
# placements still gives the partition's theta
FLOAT_PARTITION_BUDGET = 4096
SUBSET_SUM_AFTER = 4096     # most placements before the lazy subset-sum test runs
SUBSET_SUM_MAX_N = 40       # largest n given the subset-sum test (2 * 2**(n/2) sums)
# With 2**n subset sums in [0, 1], one within the float test's window of
# 2 * (CONDITION_TOL + SUBSET_SUM_MARGIN) about 1/d is all but certain from
# about n = 34 on, so past this the float test costs much and proves nothing
FLOAT_SUBSET_SUM_MAX_N = 32
# Float rounding allowance of the subset-sum test.  A k-term sum of positive
# values, added in any order, is off its exact value by at most (k-1)*u*S
# (u = 2**-53, S the sum), since every partial sum is at most S.  First fit
# and the meet-in-the-middle test add a subset's terms in different orders,
# so for a subset near 1/d <= 1/2 they differ by at most 2*(n-1)*u*(1/2 + tol)
# plus u for each of the two window subtractions: under (n + 2) * 2**-52,
# which is below 1e-14 for n <= 40.  1e-12 leaves a hundredfold margin.
SUBSET_SUM_MARGIN = 1e-12
QUAD_SAMPLES = 256          # first sampling of g over the quadrilateral's crank angle
QUAD_MAX_SAMPLES = 1 << 15  # past this many samples the decision is left to the search
# decide_three_by_four certifies only quadrilaterals whose dyad triangle keeps
# R = 16 * area**2 above this floor.  The float R is within 2**-49 of the true
# one (see QUAD_ROUNDING), so the true quadrilateral is then strictly Grashof.
QUAD_R_FLOOR = 2.0**-40
# Float rounding allowance of decide_three_by_four, in units of
# (1 + 1/H_min) / e_min**2, where H_min**2 is the least R and e_min = l - s
# the least |D| over the crank angle.  Let u = 2**-53.  Every side is at most
# 1/sqrt(12), so |z_k| < 0.3, |D| < 0.6, e**2 <= 1/3, each factor of R is at
# most 1/3 and |E1| < 0.42.  The float sides are within 2u relative of the
# true ones (the exact p(1 - 3p) rounded once, then sqrt), and exp(i*phi) is
# within 4u per component (numpy's sin and cos are good to a few ulps).
# Then, in absolute terms: D is within 4u, e**2 within 6u, (b +- c)**2 within
# 3u, each factor of R within 10u and R within 8u; H = sqrt(R) within
# 8u/H_min + u, since |sqrt x - sqrt y| <= |x - y| / sqrt y; E1 = e**2 +
# b**2 - c**2 within 10u; the numerator D*(E1 + iH) within 9u + 5u/H_min;
# z_b = numerator / (2 e**2) within (7u + 3u/H_min) / e_min**2; z_c = D - z_b
# within (9u + 3u/H_min) / e_min**2 (e_min**2 <= 1/3 absorbs lone u terms).
# Each z_k enters two of g's three terms, each term a product of |z| < 0.3
# weighted by |c_k| <= 1, so g is within 24u * (1 + 1/H_min) / e_min**2.
# 2**-40 = 8192u exceeds that by more than a hundredfold.
QUAD_ROUNDING = 2.0**-40
_SEARCH_SEED = 0x5EED  # the one seed of the restart scan: a solve is reproducible


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def canonicalize(theta: np.ndarray) -> np.ndarray:
    """Zero the first row by a column shift and reduce all angles mod 2*pi.

    Column shifts leave every difference theta[m, k] - theta[m', k] unchanged,
    so canonicalization preserves validity exactly.  Angles within 1e-12 of
    2*pi are snapped to 0 for stable golden-file comparisons.
    """
    out = np.mod(theta - theta[0:1, :], TWO_PI)
    out[out > TWO_PI - 1e-12] = 0.0
    return out


@dataclass(frozen=True)
class PhaseMatrix:
    """d x n matrix of angles theta[m, k] in [0, 2*pi)."""

    theta: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.theta, dtype=float)
        if mat.ndim != 2:
            raise ValueError("theta must be a d x n matrix")
        if not np.all((mat >= 0.0) & (mat < TWO_PI)):  # NaN fails too
            raise ValueError("angles must lie in [0, 2*pi)")
        object.__setattr__(self, "theta", _freeze(mat))

    @property
    def d(self) -> int:
        return self.theta.shape[0]

    @property
    def n(self) -> int:
        return self.theta.shape[1]

    def row_differences(self) -> np.ndarray:
        """theta[1] - theta[0] (the qubit-case angles) for d = 2 matrices."""
        return np.mod(self.theta[1] - self.theta[0], TWO_PI)

    def constraint_residual(self, spectrum: SchmidtSpectrum) -> float:
        """Largest |sum_k p_k exp(i(theta[m,k]-theta[m',k]))| over pairs m != m'."""
        off = phase_gram(spectrum.as_array(), self.theta) * (1.0 - np.eye(self.d))
        return float(np.abs(off).max())


def phase_gram(probs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """C[m, m'] = sum_k p_k exp(i(theta[m,k] - theta[m',k])), shape (d, d): the
    constraint holds exactly when C is the identity (its diagonal is sum p = 1)."""
    phases = np.exp(1j * theta)  # (d, n)
    return (phases * probs) @ phases.conj().T


def eigenvalue_defect(probs: np.ndarray, theta: np.ndarray) -> float:
    """max |lambda - 1| over the eigenvalues of the phase Gram: at most CONDITION_TOL
    for every theta solve_general accepts."""
    return float(np.abs(np.linalg.eigvalsh(phase_gram(probs, theta)) - 1.0).max())


@dataclass(frozen=True)
class Partition:
    """Assignment of each probability index to a subgroup label in 1..d."""

    assignment: tuple[int, ...]
    d: int

    def __post_init__(self):
        if any(not 1 <= g <= self.d for g in self.assignment):
            raise ValueError("subgroup labels must lie in 1..d")

    @property
    def n(self) -> int:
        return len(self.assignment)

    def subgroup_sums(self, spectrum: SchmidtSpectrum) -> list:
        values = spectrum.exact if spectrum.exact is not None else spectrum.probs
        sums = [0 * values[0]] * self.d
        for idx, label in enumerate(self.assignment):
            sums[label - 1] = sums[label - 1] + values[idx]
        return sums


def _feasibility_gate(spectrum: SchmidtSpectrum, d: int) -> None:
    if not spectrum.admits(d):
        raise InfeasibleSpectrum(
            f"max probability {spectrum.p_max!r} exceeds 1/{int_text(d)}; "
            f"a {int_text(d)}-level state cannot be teleported through this resource"
        )


def solve_d2(spectrum: SchmidtSpectrum) -> PhaseMatrix:
    """Angles theta_k with sum_k p_k exp(i*theta_k) = 0, for p_max <= 1/2.

    Constructive: the probabilities are partitioned greedily (descending,
    into the currently lightest of three groups) into group weights g1, g2,
    g3, each at most 1/2.  The three weights then satisfy the triangle
    inequality, so the phasors g1 + g2*exp(i*phi2) + g3*exp(i*phi3) close to
    zero; phi2 and phi3 come from intersecting the circles |z| = g2 and
    |z + g1| = g3, which keeps the closure exact to machine precision even
    for degenerate (collinear) triangles.

    Returns a 2 x n PhaseMatrix with a zero first row; row 2 holds theta_k.
    """
    _feasibility_gate(spectrum, 2)
    p = spectrum.as_array()
    n = spectrum.n

    order = sorted(range(n), key=lambda i: (-p[i], i))
    sums = [0.0, 0.0, 0.0]
    group = [0] * n
    for i in order:
        g = min(range(3), key=lambda t: (sums[t], t))
        group[i] = g
        sums[g] += p[i]

    g1, g2, g3 = sums
    # endpoints of the g2- and g3-phasors, with y^2 in the cancellation-free
    # Heron product form; x3 is computed directly rather than as -g1 - x2,
    # which keeps the closure at machine precision even for degenerate
    # (collinear) triangles and near-zero group weights
    x2 = (g3 * g3 - g2 * g2 - g1 * g1) / (2.0 * g1)
    x3 = -(g1 * g1 + g3 * g3 - g2 * g2) / (2.0 * g1)
    y_sq = (
        (g1 + g2 + g3) * (g1 + g2 - g3) * (g2 + g3 - g1) * (g3 + g1 - g2)
    ) / (4.0 * g1 * g1)
    y = np.sqrt(max(y_sq, 0.0))
    angles = (0.0, float(np.arctan2(y, x2)), float(np.arctan2(-y, x3)))

    theta = np.zeros((2, n))
    theta[1] = [angles[group[i]] for i in range(n)]
    return PhaseMatrix(canonicalize(theta))


def find_partition(spectrum: SchmidtSpectrum, d: int) -> Partition:
    """Split the probabilities into d subgroups each summing to exactly 1/d.

    Backtracking first-fit over indices sorted by descending probability:
    each value goes into the first subgroup it fits, trying at most one empty
    subgroup (empty subgroups are interchangeable), and the first complete
    split in that order is returned.  Exact spectra are scaled to integers
    over L = lcm(denominators, d) and compared against L // d exactly; float
    spectra compare float sums within CONDITION_TOL.

    Three devices bound the search without changing which split it returns:

    * dead-gap prune: a placement that leaves its subgroup neither full nor
      able to take the smallest value is dropped, since every later value is
      at least that large;
    * lazy subset-sum test: for n <= SUBSET_SUM_MAX_N (FLOAT_SUBSET_SUM_MAX_N
      for a float spectrum), once the placements without success reach the
      test's own cost, about 2 * 2**ceil(n/2) sums (or SUBSET_SUM_AFTER,
      whichever is less), a meet-in-the-middle test asks whether any subset
      sums to 1/d at all; if none does, no split exists;
    * node budget: after PARTITION_NODE_BUDGET placements the search stops,
      after FLOAT_PARTITION_BUDGET for a float spectrum.

    Raises NoPartition when no split exists or the budget runs out (the
    message says which); solve_general then falls through to the numerical
    search either way.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    n = spectrum.n
    if n < d:
        raise NoPartition(f"cannot split {n} probabilities into {d} non-empty subgroups")

    if spectrum.exact is not None:
        scale = math.lcm(d, *(f.denominator for f in spectrum.exact))
        values = [f.numerator * (scale // f.denominator) for f in spectrum.exact]
        target, tol = scale // d, 0
        budget, test_max_n = PARTITION_NODE_BUDGET, SUBSET_SUM_MAX_N
    else:
        values = list(spectrum.probs)
        target, tol = 1.0 / d, CONDITION_TOL
        budget, test_max_n = FLOAT_PARTITION_BUDGET, FLOAT_SUBSET_SUM_MAX_N

    order = sorted(range(n), key=lambda i: (-values[i], i))
    groups = _first_fit([values[i] for i in order], d, target, tol, budget, n <= test_max_n)
    assignment = [0] * n
    for idx, g in zip(order, groups):
        assignment[idx] = g + 1
    return Partition(tuple(assignment), d)


def _first_fit(vals: list, d: int, target, tol, budget: int, testable: bool) -> list[int]:
    """Subgroup index of each of `vals` (descending) in the first complete split.

    A subgroup sum `acc` fits value v when acc + v <= target + tol and is
    full when |acc - target| <= tol; with integer values and tol = 0 both
    tests are exact.  At most `budget` placements are made, and the
    subset-sum test runs only when `testable`.
    """
    n = len(vals)
    hi = target + tol
    smallest = vals[-1]
    sums = [0 * smallest] * d
    groups = [0] * n      # subgroup of vals[pos]
    before = [0] * n      # its subgroup's sum before; restored exactly on backtrack
    used = 0              # non-empty subgroups; they are always 0..used-1
    # the subset-sum test costs about 2 * 2**ceil(n/2) sums: run it once the
    # placements spent reach that, or SUBSET_SUM_AFTER if that comes first
    checkpoint = min(SUBSET_SUM_AFTER, 2 << (n + 1) // 2, budget) if testable else budget
    nodes = pos = g = 0
    while True:
        v = vals[pos]
        stop = used + 1 if used < d else d  # try at most one empty subgroup
        while g < stop:
            acc = sums[g] + v
            # fits, and the subgroup can still be completed: dead-gap prune
            if acc <= hi and (abs(acc - target) <= tol or acc + smallest <= hi):
                break
            g += 1
        if g < stop:
            before[pos], sums[g], groups[pos] = sums[g], acc, g
            if g == used:
                used += 1
            pos += 1
            nodes += 1
            if pos == n and all(abs(acc - target) <= tol for acc in sums):
                return groups
            if nodes == checkpoint:
                if testable and not _some_subset_reaches(vals, target, tol):
                    raise NoPartition(
                        f"no subset of the spectrum sums to 1/{d}, "
                        f"so no partition into {d} subgroups exists"
                    )
                if nodes == budget:
                    raise NoPartition(
                        f"partition search stopped at its budget of {nodes} placements; "
                        f"a split into {d} subgroups of weight 1/{d} may still exist"
                    )
                testable, checkpoint = False, budget
            if pos < n:
                g = 0
                continue
        # backtrack: take back the placement at pos - 1 and try its next subgroup
        pos -= 1
        if pos < 0:
            raise NoPartition(f"no partition of the spectrum into {d} subgroups of weight 1/{d}")
        g = groups[pos]
        sums[g] = before[pos]
        if not sums[g]:
            used -= 1
        g += 1


def _subset_sums(vals: list, dtype) -> np.ndarray:
    sums = np.zeros(1, dtype=dtype)
    for v in vals:
        sums = np.concatenate((sums, sums + v))
    return sums


def _some_subset_reaches(vals: list, target, tol) -> bool:
    """Whether some subset of `vals` sums to `target`, by meet in the middle.

    Integer values are tested exactly (int64 while the total fits, Python
    integers beyond).  Float values are tested within tol plus
    SUBSET_SUM_MARGIN, so a subset that first-fit's own sum order would
    accept as full is never missed.
    """
    if isinstance(target, int):
        dtype = np.int64 if sum(vals) < 2**62 else object
        lo = hi = target
    else:
        dtype = np.float64
        lo, hi = target - (tol + SUBSET_SUM_MARGIN), target + (tol + SUBSET_SUM_MARGIN)
    half = len(vals) // 2
    left = np.sort(_subset_sums(vals[:half], dtype))
    right = _subset_sums(vals[half:], dtype)
    first = np.searchsorted(left, lo - right, side="left")
    last = np.searchsorted(left, hi - right, side="right")
    return bool(np.any(first < last))


def phases_from_partition(partition: Partition) -> PhaseMatrix:
    """Phase table theta[m, k] = (2*pi/d) * m * l(k) for subgroup labels l(k).

    Valid whenever the partition's subgroups each carry weight 1/d: the inner
    sum over each subgroup contributes (1/d) * exp(i*(2*pi/d)*(m-m')*l), and
    the d subgroup phasors cancel for m != m'.  Returned in canonical form
    (first row zeroed by a column shift).
    """
    d = partition.d
    labels = np.asarray(partition.assignment, dtype=float)
    rows = np.arange(d, dtype=float)[:, None]  # canonical: row m holds (2*pi/d)*m*l(k)
    theta = np.mod(TWO_PI / d * rows * labels[None, :], TWO_PI)
    return PhaseMatrix(canonicalize(theta))


# Levenberg-Marquardt: stopping thresholds and the damping lam
LM_FTOL = 3e-16        # relative cost decrease of an accepted step
LM_XTOL = 3e-16        # step length relative to |x|
LM_GTOL = 3e-16        # largest entry of the gradient J^T r
LM_LAMBDA0 = 1e-3      # damping of the first step
LM_LAMBDA_MIN = 1e-15  # floor, so J J^T + lam I stays invertible


@dataclass(frozen=True)
class LeastSquaresResult:
    """Where least_squares stopped: x and the residual evaluations used."""

    x: np.ndarray
    nfev: int


def least_squares(fun, x0: np.ndarray, max_nfev: int) -> LeastSquaresResult:
    """Minimize |r(x)|**2 / 2 by Levenberg-Marquardt, from x0.

    fun(x) returns (r(x), jacobian), where jacobian() builds J at x; the loop
    calls it only at the points it keeps.

    The step h = -J^T (J J^T + lam I)^-1 r is solved on the residual side, the
    smaller one: the search has d(d - 1) residuals against (d - 1)(n - 1)
    unknowns with n > d, so at most a 20 x 20 system up to d = 5.  It also
    solves (J^T J + lam I) h = -g with g = J^T r, so the decrease the linear
    model predicts is pred = h^T (lam h - g) / 2, one dot product.  The damping
    follows the gain ratio rho = (cost - cost_new) / pred (Nielsen 1999,
    "Damping parameter in Marquardt's method"; Madsen, Nielsen & Tingleff
    2004): a step with rho > 0 is kept, and lam is scaled by
    max(1/10, 1 - (2 rho - 1)**3), never below LM_LAMBDA_MIN, and nu reset
    to 2; otherwise lam grows by nu, nu doubles, and the step is retried.
    Near a minimum with rho close to 1 lam shrinks tenfold per step, and a
    poor model shrinks it less instead of bouncing between /10 and *10.

    The loop stops on a relative cost decrease below LM_FTOL (of a kept
    step), a step below LM_XTOL * |x|, a gradient below LM_GTOL or an
    overflowing lam, and never evaluates fun more than max_nfev times.
    """
    x = np.asarray(x0, dtype=float)
    r, jac = fun(x)
    cost, nfev, lam, nu = 0.5 * (r @ r), 1, LM_LAMBDA0, 2.0
    identity = np.eye(r.size)
    while nfev < max_nfev:
        j = jac()
        grad = j.T @ r
        if np.abs(grad).max() <= LM_GTOL:
            break
        gram, x_tol = j @ j.T, LM_XTOL * (LM_XTOL + np.linalg.norm(x))
        while True:
            step = -j.T @ np.linalg.solve(gram + lam * identity, r)
            if np.linalg.norm(step) <= x_tol:
                return LeastSquaresResult(x, nfev)
            x_new = x + step
            r_new, jac_new = fun(x_new)
            nfev += 1
            cost_new = 0.5 * (r_new @ r_new)
            gain = (cost - cost_new) / (0.5 * (step @ (lam * step - grad)))
            if gain > 0:
                break
            lam, nu = lam * nu, 2.0 * nu
            if nfev == max_nfev or not math.isfinite(lam):
                return LeastSquaresResult(x, nfev)
        stalled = cost - cost_new <= LM_FTOL * cost
        x, r, jac, cost, nu = x_new, r_new, jac_new, cost_new, 2.0
        lam = max(lam * max(0.1, 1.0 - (2.0 * gain - 1.0) ** 3), LM_LAMBDA_MIN)
        if stalled:
            break
    return LeastSquaresResult(x, nfev)


def _unpack(x: np.ndarray, d: int, n: int) -> np.ndarray:
    """theta with its first row and first column pinned to zero (the gauge)."""
    theta = np.zeros((d, n))
    theta[1:, 1:] = x.reshape(d - 1, n - 1)
    return theta


def phase_equations(probs: np.ndarray, d: int):
    """x -> (r(x), jacobian) for the search, x the free angles theta[1:, 1:].

    r holds the real and imaginary parts of every off-diagonal constraint
    sum_k t[i, k], pair by pair, where t[i, k] = p_k exp(i(theta[m, k] -
    theta[m', k])) for the i-th row pair m < m'; t[i, k] moves by +i t[i, k]
    with theta[m, k] and by -i t[i, k] with theta[m', k].  jacobian() builds
    dr/dx at x from the same terms t.
    """
    n = probs.size
    upper, lower = np.triu_indices(d, 1)
    pairs = np.arange(upper.size)

    def equations(x: np.ndarray):
        phases = np.exp(1j * _unpack(x, d, n))
        t = (probs * phases)[upper] * phases[lower].conj()

        def jacobian() -> np.ndarray:
            dt = 1j * t[:, 1:]
            grad = np.zeros((pairs.size, d, n - 1), dtype=complex)
            grad[pairs, upper] = dt
            grad[pairs, lower] = -dt
            grad = grad[:, 1:].reshape(pairs.size, -1)
            return np.stack((grad.real, grad.imag), axis=1).reshape(2 * pairs.size, -1)

        return t.sum(axis=1).view(float), jacobian

    return equations


def _search_phases(probs: np.ndarray, d: int) -> tuple[float, PhaseMatrix | None]:
    """Least-squares search for the phase constraints; returns (defect, theta).

    Gauge freedom is removed by pinning the first row and first column of
    theta to zero (column and row shifts never change the constraints).
    Restarts are scanned in a fixed seeded order, which keeps the result
    deterministic, and the scan stops at the first whose canonical theta has
    an eigenvalue defect of at most CONDITION_TOL, the rule solve_general
    applies.  When none does, theta is None and the defect is the least any
    restart reached.
    """
    n = probs.size
    equations = phase_equations(probs, d)
    rng = np.random.default_rng(_SEARCH_SEED)
    best = math.inf
    for _ in range(SEARCH_RESTARTS):
        x = least_squares(equations, rng.uniform(0.0, TWO_PI, (d - 1) * (n - 1)), SEARCH_MAX_NFEV).x
        matrix = PhaseMatrix(canonicalize(_unpack(x, d, n)))
        defect = eigenvalue_defect(probs, matrix.theta)
        if defect <= CONDITION_TOL:
            return defect, matrix
        best = min(best, defect)
    return best, None


_CYCLE = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # (i, j, k): weight 4 p_k - 1 on Im(conj(z_i) z_j)


def phase_obstruction(probs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """g = Im(Q[0,1] Q[1,2] Q[2,0]) on closed quadrilaterals z, over z's leading axes.

    Q = I - sqrt(p) sqrt(p)^T - v v^H with v_k = z_k / sqrt(p_k), for z of
    shape (..., 4) with |z_k|**2 = p_k (1 - 3 p_k) and sum_k z_k = 0.
    Expanding the product with |v_k|**2 = 1 - 3 p_k leaves the closed form
    g = sum over the cycle (i, j, k) of (0, 1, 2) of (4 p_k - 1) Im(conj(z_i) z_j).
    """
    weights = 4.0 * np.asarray(probs, dtype=float) - 1.0
    return sum(weights[k] * (z[..., i].conj() * z[..., j]).imag for i, j, k in _CYCLE)


@dataclass(frozen=True)
class QuadrilateralVerdict:
    """What decide_three_by_four settled about a d = 3, n = 4 spectrum.

    solvable is True when phase factors exist, False when it is proved that
    none do (margin is then the certified lower bound on |g| over the
    configuration curve), and None when the question is left to the search.
    """

    solvable: bool | None
    margin: float = 0.0


def decide_three_by_four(spectrum: SchmidtSpectrum) -> QuadrilateralVerdict:
    """Decide whether d = 3 phase factors exist for a four-term spectrum.

    Gauge row 0 of A[m, k] = sqrt(p_k) exp(i theta[m, k]) to sqrt(p).  A
    solution makes A^H A = I - v v^H a rank-3 projector, so |v_k|**2 =
    1 - 3 p_k, and row 0 is orthogonal to v: the z_k = sqrt(p_k) v_k close a
    planar quadrilateral with sides a_k = sqrt(p_k (1 - 3 p_k)).  Rows 1 and 2
    are then an orthonormal basis of the range of Q = I - sqrt(p) sqrt(p)^T -
    v v^H with |A[m, k]|**2 = Q[k, k] / 2.  Such a basis exists exactly when
    the four Bloch vectors of Q's range are coplanar, that is when
    g = phase_obstruction vanishes.  So phase factors exist iff g has a zero
    on the quadrilateral's configuration curve (rotations quotiented out).
    The quadrilateral always closes: a(p) = sqrt(p (1 - 3p)) is concave, so
    the other three sides sum to at least their value at a vertex of
    {p_j in [0, 1/3], sum = 1 - p_l}, which is a(1/3 - p_l) = a(p_l).

    g is odd under reflection (z -> conj z).  A non-Grashof quadrilateral
    (shortest + longest side >= the other two) has one reflection-symmetric
    curve, so g has a zero on it by the intermediate value theorem.  A
    strictly Grashof one has two mirror-image curves.  On one, parameterised
    by the angle phi of the shortest side against the longest, the other two
    sides follow as a triangle that never degenerates (the shortest side turns
    fully), so g is smooth and periodic in phi.  Samples of g, a Lipschitz
    bound and QUAD_ROUNDING then prove that g keeps one sign (no solution),
    find a certified sign change (a solution), or leave the question open.
    A side of a float spectrum whose p_k lies a hair above 1/3 (admitted by
    FEASIBILITY_SLACK) is clamped to length 0.  No phase factors exist for
    such a spectrum, so a proof about the clamped quadrilateral stays true,
    and any other verdict only lets the search run.
    """
    if spectrum.n != 4:
        raise ValueError("decide_three_by_four needs a four-term spectrum")
    values = spectrum.exact if spectrum.exact is not None else [Fraction(p) for p in spectrum.probs]
    sides = [math.sqrt(max(f * (1 - 3 * f), 0)) for f in values]
    s_i, b_i, c_i, l_i = sorted(range(4), key=lambda k: (sides[k], k))
    s, b, c, l = (sides[k] for k in (s_i, b_i, c_i, l_i))
    if s + l >= b + c:
        return QuadrilateralVerdict(True)

    def dyad_r(e2):  # 16 * area**2 of the triangle with sides sqrt(e2), b and c
        return ((b + c) ** 2 - e2) * (e2 - (b - c) ** 2)

    # R is concave in e**2 = |D|**2, which ranges over [(l - s)**2, (l + s)**2]
    r_min = min(dyad_r((l - s) ** 2), dyad_r((l + s) ** 2))
    if not r_min > QUAD_R_FLOOR:
        return QuadrilateralVerdict(None)
    h_min = math.sqrt(r_min - 2.0**-49)
    rounding = QUAD_ROUNDING * (1 + 1 / h_min) / (l - s) ** 2
    # Bounds on |dz_k/dphi|: 0 for the longest side (held fixed), s for the
    # shortest, and for the dyad (z_b + z_c = D, |D'| = s) differentiating the
    # closure gives b |beta'| = b |dot(D', z_c)| / |cross(z_b, z_c)|
    # <= 2 s b c / H_min, likewise for z_c.
    speed = [0.0] * 4
    speed[s_i] = s
    speed[b_i] = speed[c_i] = 2 * s * b * c / h_min
    weights = [abs(4 * p - 1) for p in spectrum.probs]
    lipschitz = sum(
        weights[k] * (speed[i] * sides[j] + sides[i] * speed[j]) for i, j, k in _CYCLE
    )
    probs = spectrum.as_array()
    samples = QUAD_SAMPLES
    while samples <= QUAD_MAX_SAMPLES:
        crank = np.exp(1j * (TWO_PI / samples) * np.arange(samples))
        dyad = -(l + s * crank)
        e2 = dyad.real**2 + dyad.imag**2
        height = np.sqrt(np.maximum(dyad_r(e2), 0.0))
        z = np.empty((samples, 4), dtype=complex)
        z[:, l_i] = l
        z[:, s_i] = s * crank
        z[:, b_i] = dyad * ((e2 + b * b - c * c) + 1j * height) / (2 * e2)
        z[:, c_i] = dyad - z[:, b_i]
        g = phase_obstruction(probs, z)
        lo, hi = float(g.min()), float(g.max())
        if lo < -rounding and hi > rounding:
            return QuadrilateralVerdict(True)
        least = lo if lo > 0 else -hi if hi < 0 else 0.0
        if not least > rounding:
            return QuadrilateralVerdict(None)
        # Every angle lies within half a sample spacing of a sample; the
        # samples sit within a few ulps of i * 2pi / samples, and the factor
        # 1 + 1e-9 covers that and the rounding of the Lipschitz bound.
        reach = lipschitz * math.pi * (1 + 1e-9)
        margin = least - rounding - reach / samples
        if margin > 0:
            return QuadrilateralVerdict(False, margin)
        samples = max(2 * samples, 1 << math.ceil(reach / (least - rounding)).bit_length())
    return QuadrilateralVerdict(None)


def solve_general(spectrum: SchmidtSpectrum, d: int) -> PhaseMatrix:
    """Phase factors for general d, trying each strategy in order.

    (a) the constructive qubit solver when d = 2;
    (b) the equal-weight subgroup partition when one exists;
    (c) for d = 3, n = 4, decide_three_by_four: when it proves that no phase
        factors exist, stop there;
    (d) the multi-restart numerical search.
    (b) and (d) are accepted only at an eigenvalue defect <= CONDITION_TOL.

    Raises InfeasibleSpectrum when p_max > 1/d (no phase factors can exist),
    and PhaseFactorsNotFound when no phase factors exist or every strategy
    fails; the latter is a legitimate outcome for 2 < d < n.  Its `proved`
    flag tells the two apart: a proof sets best_residual to inf, since no
    search ran; otherwise it is the least eigenvalue defect a restart reached.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    _feasibility_gate(spectrum, d)

    if d == 2:
        return solve_d2(spectrum)

    probs = spectrum.as_array()
    try:
        matrix = phases_from_partition(find_partition(spectrum, d))
    except NoPartition:
        pass
    else:
        if eigenvalue_defect(probs, matrix.theta) <= CONDITION_TOL:
            return matrix

    if d == 3 and spectrum.n == 4:
        verdict = decide_three_by_four(spectrum)
        if verdict.solvable is False:
            raise PhaseFactorsNotFound(
                f"no phase factors exist for d=3, n=4: the obstruction g stays at least "
                f"{verdict.margin:.3e} away from 0 on the spectrum's quadrilateral",
                best_residual=math.inf,
                proved=True,
            )

    best, matrix = _search_phases(probs, d)
    if matrix is None:
        raise PhaseFactorsNotFound(
            f"no phase factors found for d={d}, n={spectrum.n} after {SEARCH_RESTARTS} restarts",
            best_residual=best,
        )
    return matrix
