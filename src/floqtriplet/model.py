"""Time-periodic Hamiltonians represented by a finite Fourier series.

A Hamiltonian with period T = 2*pi/omega is stored through its harmonic
components

    H(t) = sum_m  H_m * exp(+i m omega t),

with hbar = 1 and all energies in the same unit as omega.  Hermiticity of
H(t) at every t is equivalent to H_{-m} = H_m^dagger for every stored
harmonic; the constructor completes missing partners so the pair condition
holds exactly.  A FourierHamiltonian is validated once, when it is built
(finite omega > 0, finite entries, H_{-m} = H_m^dagger), and raises
ModelError otherwise; its harmonics are read-only copies, stored in
ascending m, so every other module can trust an instance without checking
it again and sums over the harmonics in one fixed order.  The
e^{+i m omega t} sign convention is fixed here once and shared by every
module in the package (see `sambe` for the matching mode convention).
"""

from __future__ import annotations

import cmath
import hashlib
import json
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np


class ModelError(ValueError):
    """Raised for unknown model names or out-of-domain parameters."""


def _whole_number(value, name: str) -> int:
    """value as an int if it is an integral number (3, 3.0 and numpy
    integers alike), else ModelError: a size of 3.5 is refused, not
    truncated to 3, and true or "3" is refused, not read as 1 or 3."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise ModelError(f"{name} must be an integer, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float64: no size or index is that large
        raise ModelError(f"{name} is out of range, got {reprlib.repr(value)}") from None
    except (TypeError, ValueError):
        number = float("nan")
    if not number.is_integer():
        raise ModelError(f"{name} must be an integer, got {value!r}")
    return int(number)


def _numeric(value, name: str, kinds: str = "iuf", ndim: int | None = None):
    """value itself if it is a number or an array of numbers of a numpy kind
    in kinds, with at most ndim axes if ndim is given, else ModelError:
    float() would read true as 1.0 and "1" as 1.0, and numpy would promote
    [true, 1.5] to [1.0, 1.5], so a list's entries are checked first."""
    entries = [value]
    for entry in entries:  # grows by each nested list's entries
        if isinstance(entry, (list, tuple)):
            entries.extend(entry)
        elif isinstance(entry, (bool, np.bool_, str, bytes)):
            raise ModelError(f"{name} must be numeric, got {reprlib.repr(value)}")
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged list
        array = np.asarray(None)
    if array.dtype.kind not in kinds:
        raise ModelError(f"{name} must be numeric, got {reprlib.repr(value)}")
    if ndim is not None and array.ndim > ndim:
        shape = "a number" if ndim == 0 else "a number or a flat list"
        raise ModelError(f"{name} must be {shape}, got {reprlib.repr(value)}")
    return value


def _as_matrix(a, dim: int, name: str) -> np.ndarray:
    m = np.array(_numeric(a, name, "iufc"), dtype=complex)  # a copy, unshared
    if m.shape != (dim, dim):
        raise ValueError(f"harmonic matrix has shape {m.shape}, expected {(dim, dim)}")
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class FourierHamiltonian:
    """H(t) = sum_m H_m e^{+i m omega t} on a dim-dimensional Hilbert space.

    Parameters
    ----------
    dim : int
        Dimension d of the instantaneous Hilbert space.
    omega : float
        Drive angular frequency (> 0); the period is T = 2*pi/omega.
    harmonics : dict[int, ndarray]
        Map from harmonic index m to the d x d matrix H_m; an index must be
        integral (1 and 1.0 alike), and two keys of one index are refused.
        If only one of the pair (m, -m) is given, the partner is filled in
        as the conjugate transpose, which enforces H(t)^dagger = H(t)
        exactly.  Matrices that are exactly zero are dropped.  Stored as a
        read-only mapping of read-only copies in ascending m, so every sum
        over the harmonics runs in the same order however the model was
        given.

    Raises ModelError("invalid Hamiltonian: ...") unless the completed
    model passes `validate`.
    """

    dim: int
    omega: float
    harmonics: Mapping[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        dim = _whole_number(self.dim, "dim")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "omega", float(_numeric(self.omega, "omega", ndim=0)))
        completed: dict[int, np.ndarray] = {}
        for key, mat in self.harmonics.items():
            m = _whole_number(key, "harmonic index")
            if m in completed:
                raise ModelError(f"harmonic index {m} is given twice")
            completed[m] = _as_matrix(mat, self.dim, f"harmonic m={m}")
        for m in list(completed):
            if -m not in completed:
                partner = completed[m].conj().T.copy()
                partner.setflags(write=False)
                completed[-m] = partner
        ordered = {m: completed[m] for m in sorted(completed) if completed[m].any()}
        object.__setattr__(self, "harmonics", MappingProxyType(ordered))
        report = validate(self)
        if not report.passed:
            raise ModelError(f"invalid Hamiltonian: {', '.join(report.violations)}")

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    @property
    def max_harmonic(self) -> int:
        return max((abs(m) for m in self.harmonics), default=0)

    def eval_at_time(self, t: float) -> np.ndarray:
        """Return H(t) = sum_m H_m e^{+i m omega t}.

        One product of the phase vector e^{+i m omega t} with the cached
        (K, d*d) stack of the K stored harmonics; a fresh array per call.
        The K phases are scalar `cmath.exp` calls: for the few harmonics of
        a model they cost less than two numpy calls on a K-element array,
        and give the same bits.
        """
        rates, stack = self._harmonic_stack
        return np.dot([cmath.exp(rate * t) for rate in rates], stack).reshape(self.dim, self.dim)

    def __reduce__(self):
        # rebuilt (and validated) from its parts: the read-only mapping cannot
        # be pickled, and the cached hash and harmonic stack need not be
        return (type(self), (self.dim, self.omega, dict(self.harmonics)))

    def to_json_dict(self) -> dict:
        entries = []
        for m in sorted(self.harmonics):
            mat = self.harmonics[m]
            # adding 0.0 canonicalizes signed zeros so the JSON (and the
            # model hash built from it) does not depend on how a matrix
            # was produced
            entries.append(
                {"m": m, "re": (mat.real + 0.0).tolist(), "im": (mat.imag + 0.0).tolist()}
            )
        return {"dim": self.dim, "omega": self.omega, "harmonics": entries}

    @cached_property
    def _harmonic_stack(self) -> tuple[list[complex], np.ndarray]:
        # (i m omega per stored m as Python complex numbers, the harmonics as
        # rows of a (K, d*d) stack), in ascending m; cached like _hash, the
        # harmonics never change
        rates = [1j * (m * self.omega) for m in self.harmonics]
        stack = np.array(
            [mat.ravel() for mat in self.harmonics.values()], dtype=complex
        ).reshape(len(rates), self.dim * self.dim)
        return rates, stack

    @cached_property
    def _arithmetic_harmonics(self) -> Mapping[int, np.ndarray]:
        # the harmonics in the model's arithmetic, chosen here once: float64
        # views when every H_m is exactly real (S and T real symmetric), else complex
        real = not any(mat.imag.any() for mat in self.harmonics.values())
        return MappingProxyType({m: mat.real if real else mat for m, mat in self.harmonics.items()})

    @cached_property
    def _spectral_reach(self) -> tuple[float, float, float]:
        # (lambda_min(H_0), lambda_max(H_0), sum_{m != 0} ||H_m||_2): the part
        # of the Sambe energy window that depends on the model alone; with no
        # H_0 stored its levels are 0, and no d x d zero matrix is built; a
        # drive that sums past float range is inf, which _dense_guard refuses
        with np.errstate(over="ignore"):
            drive = sum(np.linalg.norm(mat, 2) for m, mat in self.harmonics.items() if m != 0)
        if 0 not in self.harmonics:
            return 0.0, 0.0, drive
        levels = np.linalg.eigvalsh(self.harmonics[0])
        return float(levels[0]), float(levels[-1]), drive

    @cached_property
    def _sectors(self):
        # the exact symmetry sectors of the Sambe matrix (`_sectors.find`),
        # found once per model like _spectral_reach; imported on first use
        from ._sectors import find

        return find(self)

    @cached_property
    def _hash(self) -> str:
        # SHA-256 of the little-endian bytes of dim, omega and, per stored m
        # in ascending order, m, Re H_m and Im H_m, with +0.0 for signed
        # zeros; cached like _spectral_reach, the harmonics never change
        digest = hashlib.sha256(np.int64(self.dim).astype("<i8").tobytes())
        digest.update(np.float64(self.omega).astype("<f8").tobytes())
        for m, mat in self.harmonics.items():
            digest.update(np.int64(m).astype("<i8").tobytes())
            digest.update((np.stack([mat.real, mat.imag]) + 0.0).astype("<f8").tobytes())
        return digest.hexdigest()[:16]


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[str, ...] = ()


def validate(h: FourierHamiltonian) -> ValidationReport:
    """Check the physical constraints of a Fourier Hamiltonian.

    The check that construction runs: a passing report certifies
    H(t)^dagger = H(t) for all t, a finite omega > 0 and finite entries.
    A harmonic whose partner was given but pruned as exactly zero fails
    hermiticity; a NaN entry is reported as finite(m), not as hermiticity.
    """
    violations: list[str] = []
    if not np.isfinite(h.omega):
        violations.append("omega(nonfinite)")
    elif h.omega <= 0.0:
        violations.append("omega(nonpositive)")
    nonfinite = set()
    for m, mat in sorted(h.harmonics.items()):
        if not np.isfinite(mat).all():
            nonfinite.add(m)
            violations.append(f"finite(m={m})")
    for m in sorted(k for k in h.harmonics if k >= 0):
        partner = h.harmonics.get(-m)
        if partner is None:
            violations.append(f"hermiticity(m={m})")
        elif m in nonfinite or -m in nonfinite:
            continue  # NaN != NaN: reported as finite(m), not as hermiticity
        elif not np.array_equal(partner, h.harmonics[m].conj().T):
            violations.append(f"hermiticity(m={m})")
    for m in sorted(k for k in h.harmonics if k < 0):
        if -m not in h.harmonics:
            violations.append(f"hermiticity(m={-m})")
    return ValidationReport(passed=not violations, violations=tuple(violations))


def combine(h: FourierHamiltonian, v: FourierHamiltonian, weight: float = 1.0) -> FourierHamiltonian:
    """Return h + weight * v as a new FourierHamiltonian."""
    if v.dim != h.dim:
        raise ModelError(f"dimension mismatch: {h.dim} vs {v.dim}")
    if v.omega != h.omega:
        raise ModelError(f"drive frequency mismatch: {h.omega} vs {v.omega}")
    harmonics = dict(h.harmonics)
    for m, mat in v.harmonics.items():
        if m in harmonics:
            harmonics[m] = harmonics[m] + weight * mat
        else:
            harmonics[m] = weight * mat
    return FourierHamiltonian(dim=h.dim, omega=h.omega, harmonics=harmonics)


# --- built-in benchmark models -------------------------------------------

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

MODEL_DEFAULTS: dict[str, dict] = {
    "static": {"levels": (0.0, 1.0), "omega": 0.7},
    "two_level_circular": {"delta": 1.0, "v": 0.4, "omega": 1.5},
    "two_level_linear": {"delta": 1.0, "v": 0.4, "omega": 1.5},
    "driven_ring": {"sites": 6, "hopping": 1.0, "v": 0.5, "omega": 2.3},
}


def _static(params: dict) -> FourierHamiltonian:
    levels = [float(x) for x in np.atleast_1d(params["levels"])]
    if not levels:
        raise ModelError("static model needs at least one level")
    h0 = np.diag(np.asarray(levels, dtype=complex))
    return FourierHamiltonian(dim=len(levels), omega=params["omega"], harmonics={0: h0})


def _two_level_circular(params: dict) -> FourierHamiltonian:
    delta, v = float(params["delta"]), float(params["v"])
    # (V/2)(sx cos wt + sy sin wt) collects to (V/4)(sx - i sy) e^{+i w t} + h.c.
    h1 = (v / 4.0) * (SIGMA_X - 1j * SIGMA_Y)
    return FourierHamiltonian(
        dim=2, omega=params["omega"], harmonics={0: (delta / 2.0) * SIGMA_Z, 1: h1}
    )


def _two_level_linear(params: dict) -> FourierHamiltonian:
    delta, v = float(params["delta"]), float(params["v"])
    return FourierHamiltonian(
        dim=2,
        omega=params["omega"],
        harmonics={0: (delta / 2.0) * SIGMA_Z, 1: (v / 2.0) * SIGMA_X, -1: (v / 2.0) * SIGMA_X},
    )


def _driven_ring(params: dict) -> FourierHamiltonian:
    sites = _whole_number(params["sites"], "sites")
    if sites < 3:
        raise ModelError(f"driven_ring needs sites >= 3, got {sites}")
    hopping, v = float(params["hopping"]), float(params["v"])
    h0 = np.zeros((sites, sites), dtype=complex)
    for i in range(sites):
        h0[i, (i + 1) % sites] = -hopping
        h0[(i + 1) % sites, i] = -hopping
    # on-site potential with a spatial cosine profile, modulated as cos(w t)
    profile = np.diag(np.cos(2.0 * np.pi * np.arange(sites) / sites)).astype(complex)
    h1 = (v / 2.0) * profile
    return FourierHamiltonian(dim=sites, omega=params["omega"], harmonics={0: h0, 1: h1, -1: h1})


_BUILDERS = {
    "static": _static,
    "two_level_circular": _two_level_circular,
    "two_level_linear": _two_level_linear,
    "driven_ring": _driven_ring,
}


def _builtin_params(name: str, params: dict) -> dict:
    """MODEL_DEFAULTS[name] updated by params, else ModelError: an unknown
    name or key, or a value not of its default's type and shape (a number,
    and for levels a number or a flat list)."""
    if not isinstance(name, str) or name not in _BUILDERS:
        known = ", ".join(sorted(_BUILDERS))
        raise ModelError(f"unknown model {reprlib.repr(name)}; known: {known}")
    merged = dict(MODEL_DEFAULTS[name])
    for key, value in params.items():
        if key not in merged:
            raise ModelError(f"model {name!r} has no parameter {key!r}")
        merged[key] = _numeric(value, key, ndim=np.ndim(MODEL_DEFAULTS[name][key]))
    return merged


def builtin_model(name: str, params: dict | None = None) -> FourierHamiltonian:
    """Resolve a named benchmark model to its FourierHamiltonian, with
    omitted parameters taken from MODEL_DEFAULTS.  ModelError for a param
    refused by `_builtin_params` or outside the model's documented domain."""
    merged = _builtin_params(name, params or {})
    # an infinite param times a zero entry is nan, which the constructor
    # refuses: no numpy warning on the way
    with np.errstate(invalid="ignore"):
        return _BUILDERS[name](merged)


# --- JSON model schema (consumed by the CLI) ------------------------------

def from_json_dict(payload: dict) -> FourierHamiltonian:
    """Build a model from either schema: explicit harmonics or builtin+params."""
    if not isinstance(payload, dict):
        raise ModelError(f"malformed model JSON: expected an object, got {type(payload).__name__}")
    if "builtin" in payload:
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise ModelError(f"malformed model JSON: params must be an object, got {type(params).__name__}")
        return builtin_model(payload["builtin"], params)
    try:
        dim = payload["dim"]
        omega = float(_numeric(payload["omega"], "omega", ndim=0))
        entries = payload["harmonics"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model JSON: {exc}") from exc
    harmonics: dict[int, np.ndarray] = {}
    try:
        for entry in entries:
            m = _whole_number(entry["m"], "harmonic index m")
            if m in harmonics:
                raise ModelError(f"harmonic index m={m} is given twice")
            re, im = (
                np.asarray(_numeric(entry[part], f"{part} of harmonic m={m}"), dtype=float)
                for part in ("re", "im")
            )
            if re.shape != im.shape:  # im would be broadcast onto re
                raise ModelError(
                    f"re and im of harmonic m={m} must have one shape, got {re.shape} and {im.shape}"
                )
            # not re + 1j * im: 1j * inf is an invalid multiply, with a numpy warning
            harmonics[m] = re.astype(complex)
            harmonics[m].imag = im
    except ModelError as exc:
        raise ModelError(f"malformed model JSON: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(
            f"malformed model JSON: harmonics must be a list of {{m, re, im}} entries ({exc!r})"
        ) from exc
    return FourierHamiltonian(dim=dim, omega=omega, harmonics=harmonics)


def load_model(path: str) -> FourierHamiltonian:
    """The model in a JSON file; a file that cannot be read or decoded is a ModelError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ModelError(f"model file {path} is not UTF-8 JSON: {exc}") from exc
    return from_json_dict(payload)


def model_hash(h: FourierHamiltonian) -> str:
    """Stable content hash of the model, recorded in spectrum metadata;
    computed once per model and cached on it."""
    return h._hash
