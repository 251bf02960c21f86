"""Faithful teleportation of a d-level state through a partially entangled resource.

The package synthesizes the explicit measurement-plus-correction protocol
(when the resource admits one), simulates it exactly, and computes the
entanglement measures and classical-communication-cost bounds that govern it.
"""

__version__ = "0.1.0"

from .bounds import (
    Bits,
    BoundsReport,
    CccBound,
    ConcentrationBounds,
    build_bounds_report,
    concentration_bounds,
    entanglement_of_teleportation,
    locc_ccc_bound,
    residual_cap,
    residual_cap_integer,
    schmidt_entanglement,
    teleport_ccc_bound,
)
from .errors import (
    DegenerateColumns,
    InfeasibleSpectrum,
    NoPartition,
    PhaseFactorsNotFound,
    QTeleportError,
    RankOrder,
    ShapeMismatch,
)
from .linalg import (
    BipartiteShape,
    basis_state,
    schmidt_decompose,
    schmidt_number,
    tensor,
)
from .phases import (
    Partition,
    PhaseMatrix,
    find_partition,
    phases_from_partition,
    solve_d2,
    solve_general,
)
from .protocol import (
    Construction,
    ProtocolTable,
    bob_unitaries,
    correction_columns,
    measurement_basis,
    synthesize_auto,
    synthesize_d2,
    synthesize_general,
    verify_conditions,
)
from .sim import (
    OutcomeRecord,
    SimulationTrace,
    SweepReport,
    haar_random_state,
    random_input_sweep,
    run_protocol,
)
from .spectrum import SchmidtSpectrum
