"""Floquet eigentriplets: quasi-energy plus average-energy spectra.

Solves time-periodic quantum Hamiltonians for the complete eigentriplet
(periodic mode, quasi-energy, average energy): extended-space
diagonalization with degeneracy resolution by the average-energy operator,
an independent monodromy-propagation oracle, and a variational
ground-state solver.

Importing the package loads the model and extended-space layers only
(numpy; `_lapack` binds the LAPACK and BLAS routines of the OpenBLAS
numpy links, and imports scipy.linalg's wrappers only where numpy has
none); the oracle, variational and analysis names load their modules on
first use, and none of them loads scipy.optimize.
"""

from importlib import import_module as _import_module

from ._config import VariationalConfig
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
    PropagationError,
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

# Names re-exported from the layers that `import floqtriplet` leaves
# unloaded: each import waits for the first access (PEP 562).  The
# attribute is read from its module on every access and never copied here,
# so rebinding it there (a tracer, a test's monkeypatch) shows through.
_LAZY = {
    "oracle": (
        "MonodromyResult",
        "mode_from_propagation",
        "oracle_spectrum",
        "propagate_period",
        "propagate_trajectory",
        "time_averaged_energy",
    ),
    "variational": (
        "VariationalResult",
        "minimize_excited",
        "minimize_ground",
        "objective",
    ),
    "analysis": (
        "TrackingReport",
        "TruncatedSpectrum",
        "degeneracy_contrast_fixture",
        "order_and_truncate",
        "overlap_matrix",
        "perturb_and_track",
        "truncation_convergence_curve",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_HOME})


__version__ = "0.1.0"
