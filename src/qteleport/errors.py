"""Exception types shared across the package."""


class QTeleportError(Exception):
    """Base class for all qteleport errors."""


class ShapeMismatch(QTeleportError):
    """Vector length does not factor as the requested bipartite shape."""


class InfeasibleSpectrum(QTeleportError):
    """Some Schmidt probability exceeds 1/d, so faithful teleportation is impossible."""


class NoPartition(QTeleportError):
    """No split of the probabilities into equal-sum subgroups was found.

    Either none exists, or the partition search ran out of its node budget;
    the message says which.
    """


class PhaseFactorsNotFound(QTeleportError):
    """No phase factors were found.

    `proved` is True when it was proved that none exist; no search ran then,
    and `best_residual` is inf.  Otherwise every strategy failed and
    `best_residual` is the least eigenvalue defect max |lambda - 1| of the
    phase Gram that any restart of the search reached.
    """

    def __init__(self, message: str, best_residual: float, proved: bool = False):
        super().__init__(message)
        self.best_residual = best_residual
        self.proved = proved


class DegenerateColumns(QTeleportError):
    """The defined unitary columns are not orthonormal (coefficient table is invalid)."""


class RankOrder(QTeleportError):
    """Schmidt ranks passed in the wrong order (n1 < n2)."""
