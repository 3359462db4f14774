"""Floquet eigentriplets: quasi-energy plus average-energy spectra.

Solves time-periodic quantum Hamiltonians for the complete eigentriplet
(periodic mode, quasi-energy, average energy): extended-space
diagonalization with degeneracy resolution by the average-energy operator,
an independent monodromy-propagation oracle, and a variational
ground-state solver.
"""

from .model import (
    FourierHamiltonian,
    ModelError,
    ValidationReport,
    builtin_model,
    combine,
    load_model,
    model_hash,
    validate,
)
from .sambe import (
    DegenerateGroup,
    EigenTriplet,
    FloquetMode,
    Representative,
    SolverError,
    Spectrum,
    TruncationError,
    average_energy_block,
    average_energy_functional,
    average_energy_matrix,
    assembled_average_energy,
    build_energy_matrix,
    build_sambe,
    certify_truncation,
    diagonalize,
    group_degeneracies,
    quasi_energy_functional,
    replica_overlap,
    resolve_degeneracies,
    select_representatives,
    solve_spectrum,
    wrap_distance,
)
from .oracle import (
    MonodromyResult,
    PropagationConfig,
    PropagationError,
    mode_from_propagation,
    oracle_spectrum,
    propagate_period,
    propagate_trajectory,
    time_averaged_energy,
)
from .variational import (
    VariationalConfig,
    VariationalResult,
    minimize_excited,
    minimize_ground,
    objective,
)
from .analysis import (
    TrackingReport,
    TruncatedSpectrum,
    degeneracy_contrast_fixture,
    order_and_truncate,
    overlap_matrix,
    perturb_and_track,
    truncation_convergence_curve,
)

__version__ = "0.1.0"
