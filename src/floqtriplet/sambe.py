"""Extended-space (Sambe) diagonalization and average-energy resolution.

Mode convention
---------------
A T-periodic mode is stored by its Fourier coefficients over a truncated
harmonic range,

    Phi(t) = sum_{m=-M}^{M} phi^(m) * exp(+i m omega t),

matching the e^{+i m omega t} sign fixed in `model`.  With this choice the
extended-space operator H(t) - i d/dt becomes the Hermitian block matrix

    S[(m), (m')] = H_{m-m'} + m * omega * delta_{m m'} * I_d,

and the two quadratic forms used throughout are

    eps[Phi]     = sum_{m,m'} <phi^(m)| H_{m-m'} |phi^(m')>
                   + sum_m m * omega * ||phi^(m)||^2        (= x^H S x)
    ebar_cal[Phi] = sum_{m,m'} <phi^(m)| H_{m-m'} |phi^(m')>  (= x^H T x)

so ebar_cal[Phi] = eps[Phi] - sum_m m*omega*||phi^(m)||^2 holds exactly.
Shifting all harmonic indices by k multiplies the mode by e^{+i k omega t}:
it adds exactly k*omega to eps and leaves ebar_cal unchanged (replica
freedom).

Pipeline
--------
With N the number operator (m on block m), S = T + omega*N, so on an exact
eigenspace of S with raw eigenvalue lam the average energy is

    Ebar = lam - omega*<N>,   <N> = sum_m m*||phi^(m)||^2 (the centroid).

The kept replica has centroid <N> in [-1/2, 1/2), and its Ebar = <T> lies
inside the instantaneous spectrum of H(t), because T is a compression of
multiplication by H(t).  The dense eigensolve of a cutoff (`_eigh`, by
divide and conquer) returns only the eigenpairs in the window of raw
eigenvalues that this allows (`_energy_window`), in the model's arithmetic
(`FourierHamiltonian._arithmetic_harmonics`: real when every H_m is real),
and certifies their residuals.

- sectors: when a model's exact symmetry sectors (found by `_sectors`)
  split an S of SECTOR_MIN_SIZE or more, `_window_pairs` solves each block
  so and returns the pairs in the sector basis V.

Everything after the eigensolve is one pass over arrays (`_rung`), with S
and T applied through the harmonics, never as n x n matrices:

- selection: raw eigenvalues within TOL_DEG * omega form clusters; N is
  diagonalized in each (one product for all single vectors, one batched
  eigh per larger size) and per physical state the replica with centroid
  in [-1/2, 1/2) is kept.  T is applied once to the d kept modes X, and
  S X = T X + omega N X gives each its raw eigenvalue x^H S x.  Split
  pairs are selected in the sector basis, where N is the same; only the
  pairs of the clusters that keep a mode are embedded, and certified
  against the full S through their S P = T P + omega N P, which also
  gives T X.
- leak floor: each kept mode's edge leak outside every kept mode's window
  bounds every level's Ebar figure from below (`_leak_floor`), and the
  reported figure is never below it; in the auto ladder a rung whose floor
  is 2 QUASI_TOL or more cannot certify and ends there.
- grouping: states whose folded quasi-energies lie within TOL_DEG * omega
  form a group.  Every member keeps its own replica and carries the
  group's mean raw eigenvalue, the only mean taken, on that replica: the
  mean over members brought to the first one's replica, plus k*omega.
- resolution: for each set of a group's members on one replica, the block
  Hbar = X_s^H (T X)_s, the one-period average (1/T) int <Phi_i(t)|H(t)|
  Phi_j(t)> dt, is diagonalized, one batched eigh per set size, and
  rotates X and T X.  Members k != 0 replicas apart share no block: moved
  to one replica they lie in one S-eigenspace, where Hbar = lam - omega*N
  is diagonal on the N-eigenvectors `_select` kept, and their Ebar differ
  by omega*(k + <N>_i - <N>_j) != 0.
- certification: `_truncation_bounds` takes S_inf X from that T X, and
  scores every clustering level exactly, in real arithmetic when X and
  T X are real.

Mode and triplet objects are built once, for the returned solve, ordered
by average energy; `select_representatives`, `group_degeneracies` and
`resolve_degeneracies` are thin wrappers over the same pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import _lapack
from .model import FourierHamiltonian, ModelError, model_hash


class TruncationError(RuntimeError):
    """Raised when the harmonic cutoff M is too small to hold or certify the
    d states; an M below the model's harmonic order is a ModelError."""


class SolverError(RuntimeError):
    """Raised when the dense eigensolver fails or leaves large residuals."""


# the oracle raises it; it lives with the other convergence failures so that
# the CLI's exit-code map does not import the oracle
class PropagationError(RuntimeError):
    """Raised when unitarity or periodicity drifts beyond tolerance."""


# Largest dense extended-space solve that will be started.  While dstevd
# runs, `_eigh` holds S, its reduced copy, the tridiagonal's real
# eigenvectors and an n^2 workspace: 3 * 16 * n^2 bytes for a complex S,
# counted for a real S too (which needs two thirds of that).
MAX_DENSE_BYTES = 2 * 1024**3

# Largest distance of a level from zero, in units of omega, that a model may
# reach: at 2^52 omega one ulp of a float64 eigenvalue is omega, so the
# replica of an eigenvalue, its multiple of omega, is no longer resolved.
MAX_REACH = 2.0**52

# Largest quasi-energy error bound and average-energy error estimate a
# certified cutoff may carry (`_truncation_bounds`); a fixed cutoff above it
# warns.
QUASI_TOL = 1e-9

# Largest cutoff M the doubling loop of `_certified_rung` tries.
MAX_TRUNCATION = 64

# Largest eigenpair residual ||S v - lam v|| `diagonalize` accepts, relative
# to max(|lam|, 1).
EIGEN_RESIDUAL_TOL = 1e-10

# Smallest Sambe matrix, n = (2M+1) d, solved in symmetry sectors
# (`_sectors`): below it the detection and the extra calls per block cost
# more than the smaller eigensolves save.
SECTOR_MIN_SIZE = 128

# Degeneracy tolerance, relative to omega: raw eigenvalues, and folded
# quasi-energies, joined by gaps within TOL_DEG * omega form one cluster,
# here and in the oracle.
TOL_DEG = 1e-8


def fold_reported(value, omega: float):
    """Fold with the zone seam snapped: values within 1e-12 * omega below
    omega report as 0.0, so floating-point noise around an integer multiple
    of omega cannot flip a state across the zone boundary; elementwise on an
    array."""
    folded = np.where(omega - np.mod(value, omega) <= 1e-12 * omega, 0.0, np.mod(value, omega))
    return folded if np.ndim(value) else float(folded)


def _tol_deg(omega: float) -> float:
    """The degeneracy tolerance TOL_DEG * omega, read at call time."""
    return TOL_DEG * omega


def wrap_distance(a, b, omega: float):
    """Distance between folded quasi-energies on the Brillouin circle."""
    diff = np.abs(np.mod(a - b, omega))
    return np.minimum(diff, omega - diff)


# --- Floquet modes ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FloquetMode:
    """Fourier coefficients phi^(m), m = -M..M, stored as rows of coeffs.

    coeffs has shape (2M+1, d); row index i corresponds to m = i - M.
    The Floquet-space inner product is the plain vector inner product of
    the stacked coefficients, realizing (1/T) int <Phi(t)|Phi'(t)> dt.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 2 or c.shape[0] % 2 != 1:
            raise ValueError(f"coeffs must be (2M+1, d), got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def truncation(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def harmonic_indices(self) -> np.ndarray:
        return np.arange(-self.truncation, self.truncation + 1)

    def flat(self) -> np.ndarray:
        return self.coeffs.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalized(self) -> "FloquetMode":
        return FloquetMode(self.coeffs / self.norm())

    def inner(self, other: "FloquetMode") -> complex:
        return complex(np.vdot(self.flat(), other.flat()))

    def centroid(self) -> float:
        """Fourier-weight centroid sum_m m * ||phi^(m)||^2 (normalized)."""
        weights = np.sum(np.abs(self.coeffs) ** 2, axis=1)
        total = weights.sum()
        return float(np.dot(self.harmonic_indices, weights) / total)

    def shift(self, k: int) -> tuple["FloquetMode", float]:
        """Shift harmonic indices by k (multiply by e^{+i k omega t}).

        Returns the shifted mode and the squared weight lost past the
        truncation edge (all of it once |k| reaches 2M+1).
        """
        nb = self.coeffs.shape[0]
        k = max(-nb, min(nb, k))
        out = np.zeros_like(self.coeffs)
        if k >= 0:
            out[k:] = self.coeffs[: nb - k]
            dropped = self.coeffs[nb - k :]
        else:
            out[: nb + k] = self.coeffs[-k:]
            dropped = self.coeffs[: -k]
        lost = float(np.sum(np.abs(dropped) ** 2))
        return FloquetMode(out), lost

    @staticmethod
    def from_flat(x: np.ndarray, dim: int) -> "FloquetMode":
        return FloquetMode(np.asarray(x, dtype=complex).reshape(-1, dim))

    @staticmethod
    def from_block(vector: np.ndarray, m: int, truncation: int) -> "FloquetMode":
        """Mode with a single nonzero harmonic block at index m."""
        vector = np.asarray(vector, dtype=complex)
        coeffs = np.zeros((2 * truncation + 1, vector.size), dtype=complex)
        coeffs[m + truncation] = vector
        return FloquetMode(coeffs)


def _replica_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|<<shift_k(a)|b>>| for k = -(nb-1) .. nb-1 along a new last axis.

    a and b are coefficient stacks of shape (..., nb, d) that broadcast
    against each other.  With the block Gram matrix G = conj(A) B^T of the
    coefficient rows, the overlap at shift k is trace(G, offset=k).
    """
    nb = a.shape[-2]
    gram = a.conj() @ np.swapaxes(b, -1, -2)
    overlaps = [np.trace(gram, offset=k, axis1=-2, axis2=-1) for k in range(-(nb - 1), nb)]
    return np.abs(np.stack(overlaps, axis=-1))


def replica_overlap(a: FloquetMode, b: FloquetMode) -> tuple[float, int]:
    """max_k |<<shift_k(a)|b>>| over all harmonic shifts, with the argmax.

    Ties go to the smallest k; when every overlap is 0 the result is (0.0, 0).
    """
    overlaps = _replica_overlaps(a.coeffs, b.coeffs)
    i = int(np.argmax(overlaps))
    if not overlaps[i] > 0.0:
        return 0.0, 0
    return float(overlaps[i]), i - (a.coeffs.shape[0] - 1)


def _replica_ladder(
    modes: list[FloquetMode], tail_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every harmonic shift of every mode that drops at most tail_tol of
    weight past the truncation edge, normalized, as columns; plus the index
    of the mode each column came from."""
    columns, owners = [], []
    for i, mode in enumerate(modes):
        nb = mode.coeffs.shape[0]
        for k in range(-(nb - 1), nb):
            shifted, lost = mode.shift(k)
            if lost <= tail_tol:
                columns.append(shifted.normalized().flat())
                owners.append(i)
    return np.column_stack(columns), np.asarray(owners)


# --- extended-space matrices ----------------------------------------------

def _require_truncation(h: FourierHamiltonian, truncation: int):
    if truncation < h.max_harmonic:
        raise ModelError(
            f"truncation M={truncation} is below the largest harmonic index "
            f"{h.max_harmonic} of the model"
        )


def _number_diagonal(truncation: int, dim: int) -> np.ndarray:
    """Diagonal of the number operator N: harmonic index m of each entry."""
    return np.repeat(np.arange(-truncation, truncation + 1), dim)


def _dense_guard(h: FourierHamiltonian, truncation: int):
    """The checks of `build_energy_matrix` before it allocates."""
    _require_truncation(h, truncation)
    lowest, highest, drive = h._spectral_reach
    reach = max(-lowest, highest) + drive
    if reach + 0.5 * h.omega >= MAX_REACH * h.omega:
        raise ModelError(
            f"the model's levels reach {reach:.3e} from zero, which with omega/2 is "
            f"at or above the limit 2^52 * omega = {MAX_REACH * h.omega:.3e} "
            f"(omega = {h.omega:.6g}): one ulp of such a level is omega or more, so "
            f"its replica is not resolved; shift H_0 toward zero or raise omega"
        )
    size = (2 * truncation + 1) * h.dim
    nbytes = 16 * size**2
    if 3 * nbytes > MAX_DENSE_BYTES:
        from decimal import Decimal  # only here: a cold solve never loads it

        gib = Decimal(nbytes) / 1024**3  # a huge dim's size overflows a float
        raise ModelError(
            f"truncation M={truncation} needs a dense {size} x {size} matrix of "
            f"{gib:.2f} GiB, {3 * gib:.2f} GiB for the solve, "
            f"above the {MAX_DENSE_BYTES / 1024**3:.0f} GiB limit; lower M or the "
            f"model dimension"
        )
    # n (reach + M omega)^2 bounds ||S||_F^2; past float range the eigensolver
    # and its residual check overflow
    scale = float(reach + truncation * h.omega)
    if not math.isfinite(size * scale * scale):
        raise ModelError(
            f"omega = {h.omega:.6g} at truncation M={truncation}: a {size} x {size} Floquet "
            f"matrix with entries up to reach + M * omega = {scale:.3e} has a squared norm "
            f"past the float limit {np.finfo(float).max:.3e}; lower omega"
        )


def build_energy_matrix(h: FourierHamiltonian, truncation: int) -> np.ndarray:
    """Block-Toeplitz matrix of the one-period averaged energy form.

    x^H T x equals (1/T) int_0^T <Phi(t)|H(t)|Phi(t)> dt for the mode with
    stacked coefficients x; block (m, m') = H_{m-m'}, in the model's
    arithmetic (`FourierHamiltonian._arithmetic_harmonics`): float64 when
    every harmonic is exactly real, complex128 otherwise.  M below the
    largest stored harmonic index would silently drop physics and is
    rejected, and so is a solve above MAX_DENSE_BYTES or one whose squared
    norm would overflow float range (ModelError, before allocating).
    """
    _dense_guard(h, truncation)
    nb, d, mats = 2 * truncation + 1, h.dim, h._arithmetic_harmonics
    t = np.zeros((nb * d, nb * d), dtype=np.result_type(float, *mats.values()))
    blocks = t.reshape(nb, d, nb, d)  # blocks[p, :, q, :] is block (p, q), a view
    for m, mat in mats.items():
        rows = np.arange(max(m, 0), nb + min(m, 0))
        blocks[rows, :, rows - m, :] = mat
    return t


def build_sambe(h: FourierHamiltonian, truncation: int) -> np.ndarray:
    """Hermitian Floquet matrix S = T + omega*N of size (2M+1)*d for H(t) - i d/dt:
    block (m, m') = H_{m-m'} + m*omega*delta_{mm'}*I.  Real symmetric
    (float64) for a real model, complex128 otherwise, as
    `build_energy_matrix`."""
    s = build_energy_matrix(h, truncation)
    s[np.diag_indices_from(s)] += h.omega * _number_diagonal(truncation, h.dim)
    return s


def _apply_blocks(h: FourierHamiltonian, x: np.ndarray, number_weight: float) -> np.ndarray:
    """(T + number_weight * N) @ x through the harmonics: T for weight 0,
    S for weight omega.  x holds stacked coefficients, shape (n,) or (n, k);
    no n x n matrix is formed; the harmonics act in the model's arithmetic,
    so a real x gives a real result for a real model."""
    nb = x.shape[0] // h.dim
    truncation = (nb - 1) // 2
    _require_truncation(h, truncation)
    blocks, mats = x.reshape(nb, h.dim, -1), h._arithmetic_harmonics
    dtype = np.result_type(x, *mats.values())  # a real x may meet complex H_m
    out = number_weight * np.arange(-truncation, truncation + 1)[:, None, None] * blocks
    out = out.astype(dtype, copy=False)
    for m, mat in mats.items():
        # block row p collects H_m @ phi^(p - m)
        out[max(m, 0) : nb + min(m, 0)] += mat @ blocks[max(-m, 0) : nb - max(m, 0)]
    return out.reshape(x.shape)


def diagonalize(
    s: np.ndarray, window: tuple[float, float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian matrix with a residual certificate.

    `_eigh` computes the full spectrum, or with window = (lo, hi) only the
    pairs with lo < lam <= hi (each cutoff passes `_energy_window`).
    Returns (eigenvalues ascending, eigenvectors as columns), their
    residuals ||S v - lam v|| checked against EIGEN_RESIDUAL_TOL *
    max(|lam|, 1) over the returned eigenvalues.
    """
    s = np.asarray(s)
    herm_defect = np.linalg.norm(s - s.conj().T)
    if not herm_defect <= 1e-12 * max(1.0, np.linalg.norm(s)):
        raise SolverError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    vals, vecs = _eigh(s, window)
    _check_residuals(s @ vecs, vals, vecs)
    return vals, vecs


def _check_residuals(product, vals, vecs, where: str = ""):
    """SolverError unless every residual ||S v - lam v||, S v given as the
    columns of product, is within EIGEN_RESIDUAL_TOL * max(|lam|, 1) over
    the eigenvalues vals; where says which matrix S is."""
    scale = max(np.abs(vals).max(initial=0.0), 1.0)
    worst = np.linalg.norm(product - vecs * vals, axis=0).max(initial=0.0)
    if not worst <= EIGEN_RESIDUAL_TOL * scale:
        raise SolverError(
            f"eigensolver residual {worst:.3e}{where} exceeds {EIGEN_RESIDUAL_TOL:.1e} * "
            f"{scale:.3e}; matrix size {vecs.shape[0]}"
        )


def _eigh(s: np.ndarray, window: tuple[float, float] | None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of s, one LAPACK path for either dtype: dsytrd / zhetrd
    reduce the lower triangle to a real tridiagonal Q^H s Q, dstevd solves
    it by divide and conquer (Gu & Eisenstat 1995), and dormqr / zunmqr
    apply Q, stored as reflectors, to the columns in the window only."""
    n = s.shape[0]

    def call(name, *args, **kwargs):
        *out, info = getattr(_lapack.lapack, name)(*args, **kwargs)
        if info:
            raise SolverError(f"eigensolver failed: {name} info {info}; size={n}")
        return out

    # constant names: a name built per call would be a new string each
    # solve, and each one can stay in CPython's type cache
    if np.iscomplexobj(s):
        trd, trd_lwork, mqr = "zhetrd", "zhetrd_lwork", "zunmqr"
    else:
        trd, trd_lwork, mqr = "dsytrd", "dsytrd_lwork", "dormqr"
    (lwork,) = call(trd_lwork, n, lower=1)
    c, d, e, tau = call(trd, s, lower=1, lwork=int(lwork.real))
    vals, z = call("dstevd", d, e if n > 1 else [0.0])  # len(e) >= 1
    if window is not None:
        keep = (vals > window[0]) & (vals <= window[1])
        vals, z = vals[keep], z[:, keep]
    vecs = z.astype(c.dtype, copy=False)
    if n > 1 and vals.size:
        # Q = diag(1, Q'), Q' the reflectors in c[1:, :-1], read in place
        reflectors = c.ravel(order="F")[1 : n * n - n + 1].reshape(n, n - 1, order="F")
        lwork = call(mqr, "L", "N", reflectors, tau, vecs[1:], -1)[1][0]
        vecs[1:] = call(mqr, "L", "N", reflectors, tau, vecs[1:], int(lwork.real))[0]
    return vals, vecs


def _energy_window(h: FourierHamiltonian, truncation: int) -> tuple[float, float]:
    """Raw-eigenvalue window holding every pair replica selection keeps.

    A kept vector has Ebar inside [E_lo, E_hi] = lambda_min/max(H_0) -+
    sum_{m != 0} ||H_m||_2 (Weyl, computed once per model) and centroid in
    [-1/2, 1/2), so its raw eigenvalue lies in [E_lo - omega/2, E_hi +
    omega/2].  The pad of n*tol + 1e-9*omega, tol = TOL_DEG * omega, covers
    the 9-decimal centroid rounding and a transitive tol cluster (at most n
    members) around a kept vector; the members of a cut cluster that lie
    inside the window are outside the unpadded range, so none passes the
    centroid test.
    """
    lowest, highest, drive = h._spectral_reach
    pad = (2 * truncation + 1) * h.dim * _tol_deg(h.omega) + 1e-9 * h.omega
    reach = drive + 0.5 * h.omega + pad
    return lowest - reach, highest + reach


# --- the pass after the eigensolve -----------------------------------------

@dataclass(frozen=True, eq=False)
class Representative:
    """One physical state per Brillouin zone, before degeneracy resolution:
    quasi_energy_raw is the Rayleigh quotient x^H S x of the stored mode,
    the eigenvalue of the selected replica, and quasi_energy its fold."""

    mode: FloquetMode
    quasi_energy: float
    quasi_energy_raw: float
    residual: float


def _gap_clusters(
    values: np.ndarray, tol: float, period: float | None = None
) -> list[np.ndarray]:
    """Index sets of values joined, transitively, by gaps <= tol.

    Clusters come in ascending value order and list their indices by value
    (stable argsort).  With a period the values lie on a circle of that
    length in [0, period), so the seam gap period - max + min is one more
    gap; a cluster across the seam lists its members above the seam first.
    """
    if values.size == 0:
        return []
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    clusters = np.split(order, np.flatnonzero(np.diff(ordered) > tol) + 1)
    if period is not None and len(clusters) > 1:
        if (period - ordered[-1]) + ordered[0] <= tol:
            clusters[0] = np.concatenate([clusters.pop(), clusters[0]])
    return clusters


def _select(vals, vecs, h: FourierHamiltonian, truncation: int, basis=None):
    """`select_representatives` as arrays: the kept modes as normalized
    complex columns X, T X, the raw eigenvalues and their folds, ordered
    by (fold, raw eigenvalue).

    With a sector basis V the pairs come in the sector layout of
    `_window_pairs`.  V acts inside each harmonic block, so N, and with it
    every cluster's rotation and centroids, is the same there; only the
    pairs of the clusters that keep a mode are embedded, and they are
    certified against the full S through the one S P = T P + omega N P
    that also gives T X."""
    number = _number_diagonal(truncation, h.dim)
    order = np.argsort(vals, kind="stable")
    firsts = np.append(0, np.flatnonzero(np.diff(vals[order]) > _tol_deg(h.omega)) + 1)
    sizes = np.diff(np.append(firsts, vals.size))
    clusters = []
    for size in sorted(set(sizes.tolist())):
        idx = order[firsts[sizes == size][:, None] + np.arange(size)]
        members = vecs.T[idx]  # (clusters, size, n)
        if size == 1:
            rotation, centroids = None, (np.abs(members[:, 0]) ** 2 @ number)[:, None]
        else:
            centroids, rotation = np.linalg.eigh((members.conj() * number) @ members.transpose(0, 2, 1))
            rotation = rotation.transpose(0, 2, 1)  # row j: sum_i R_ij v_i
        # the kept replica's zone [-1/2, 1/2), rounded: of seam replicas
        # (centroids -1/2, +1/2 at resonance) keep one
        zone = (np.round(centroids, 9) >= -0.5) & (np.round(centroids, 9) < 0.5)
        kept = zone.any(axis=1)
        clusters.append((idx[kept], None if rotation is None else rotation[kept], zone[kept]))
    found = sum(int(zone.sum()) for _, _, zone in clusters)
    if found != h.dim:
        raise TruncationError(
            f"found {found} replica families, expected {h.dim}: "
            f"truncation M={truncation} is too small, increase M"
        )

    def kept_modes(pairs, column):
        """The kept combinations of the pairs, pair j in column column[j]."""
        parts = []
        for idx, rotation, zone in clusters:
            members = pairs.T[column[idx]]
            parts.append(members[:, 0][zone[:, 0]] if rotation is None else (rotation @ members)[zone])
        return np.concatenate(parts).T

    pairs, column = vecs, np.arange(vals.size)
    if basis is not None:
        cols = np.concatenate([idx.ravel() for idx, _, _ in clusters])
        column = np.zeros(vals.size, dtype=int)
        column[cols] = np.arange(cols.size)
        pairs = (basis @ vecs[:, cols].reshape(-1, h.dim, cols.size)).reshape(-1, cols.size)
        tpairs = _apply_blocks(h, pairs, 0.0)
        _check_residuals(tpairs + h.omega * number[:, None] * pairs, vals[cols], pairs,
                         " on the full matrix")
    modes = kept_modes(pairs, column)
    norms = np.linalg.norm(modes, axis=0)
    x = modes / norms
    # T X in the modes' own dtype (real for a real S), complex from here on
    tx = _apply_blocks(h, x, 0.0) if basis is None else kept_modes(tpairs, column) / norms
    lams = np.real(np.sum(x.conj() * (tx + h.omega * number[:, None] * x), axis=0))
    eps = fold_reported(lams, h.omega)
    order = np.lexsort((lams, eps))
    return x[:, order].astype(complex), tx[:, order].astype(complex), lams[order], eps[order]


def select_representatives(
    eigvals: np.ndarray, eigvecs: np.ndarray, h: FourierHamiltonian, truncation: int
) -> list[Representative]:
    """Pick exactly d physical states from the raw Sambe spectrum: per
    cluster of raw eigenvalues within TOL_DEG * omega, N diagonalized in it
    resolves Ebar = lam - omega*<N>, and per state the replica with centroid
    in [-1/2, 1/2) is kept, with its Rayleigh quotient lam = Re(x^H S x) and
    residual ||S x - lam x||, ordered by (quasi-energy, lam).  Anything but
    d kept states raises TruncationError (increase M)."""
    x, tx, lams, eps = _select(eigvals, eigvecs, h, truncation)
    sx = tx + h.omega * _number_diagonal(truncation, h.dim)[:, None] * x
    residuals = np.linalg.norm(sx - lams * x, axis=0).tolist()
    return [
        Representative(FloquetMode(c), *values)
        for c, *values in zip(np.ascontiguousarray(x.T).reshape(len(eps), -1, h.dim),
                              eps.tolist(), lams.tolist(), residuals)
    ]


@dataclass(frozen=True, eq=False)
class DegenerateGroup:
    """Representatives sharing a quasi-energy, each on its own replica and
    carrying the group's raw eigenvalue there (the mean of the members'
    Rayleigh quotients on the first one's replica, plus k*omega; the
    group's quasi_energy its fold), ordered by replica; the members on one
    replica span the degenerate subspace that `resolve_degeneracies`
    diagonalizes the average-energy operator in."""

    members: tuple[Representative, ...]
    quasi_energy: float

    @property
    def size(self) -> int:
        return len(self.members)


def _group(lams, eps, omega: float):
    """`group_degeneracies` as arrays: the members in group order (by
    replica inside a group), the group of each, and each one's raw
    eigenvalue and quasi-energy."""
    clusters = _gap_clusters(eps, _tol_deg(omega), omega)
    sizes = np.array([c.size for c in clusters])
    cols = np.concatenate([np.sort(c) for c in clusters])
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(sizes.size), sizes)
    ks = np.round((lams[cols] - lams[cols[starts]][owner]) / omega).astype(int)
    group_lams = np.add.reduceat(lams[cols] - ks * omega, starts) / sizes
    # a singleton group is its representative as given
    group_eps = np.where(sizes > 1, fold_reported(group_lams, omega), eps[cols[starts]])
    rank = np.argsort(np.argsort(group_eps, kind="stable"))[owner]
    order = np.lexsort((ks, rank))
    member_lams = group_lams[owner] + ks * omega
    return cols[order], rank[order], member_lams[order], group_eps[owner][order]


def group_degeneracies(reps: list[Representative], h: FourierHamiltonian) -> list[DegenerateGroup]:
    """Cluster representatives with |eps_i - eps_j| <= TOL_DEG * omega,
    wrapped at the zone boundary.  Members keep their modes; each one's raw
    eigenvalue lam_i, k_i = round((lam_i - lam_first) / omega) replicas from
    the first member's, becomes the group mean lam of lam_j - k_j * omega
    (the one place raw eigenvalues are averaged) plus k_i * omega, with
    quasi_energy = fold_reported(lam); a singleton group keeps its
    representative's."""
    if not reps:
        return []
    lams, eps = np.array([(r.quasi_energy_raw, r.quasi_energy) for r in reps]).T
    cols, gids, lams, eps = _group(lams, eps, h.omega)
    groups = []
    for members in np.split(np.arange(gids.size), np.flatnonzero(np.diff(gids)) + 1):
        grouped = tuple(
            replace(reps[cols[j]], quasi_energy=float(eps[j]), quasi_energy_raw=float(lams[j]))
            for j in members
        )
        groups.append(DegenerateGroup(grouped, float(eps[members[0]])))
    return groups


def average_energy_block(modes: list[FloquetMode], h: FourierHamiltonian) -> np.ndarray:
    """k x k Hermitian block Hbar_ij = sum_{m,m'} <phi_i^(m)|H_{m-m'}|phi_j^(m')>.

    Equals (1/T) int_0^T <Phi_i(t)|H(t)|Phi_j(t)> dt for modes inside the
    truncation; the modes are assumed orthonormal in the Floquet inner
    product.
    """
    if not modes:
        return np.zeros((0, 0), dtype=complex)
    basis = np.column_stack([m.flat() for m in modes])
    block = basis.conj().T @ _apply_blocks(h, basis, 0.0)
    return 0.5 * (block + block.conj().T)


# --- eigentriplets and spectra ---------------------------------------------

@dataclass(frozen=True, eq=False)
class EigenTriplet:
    """(mode, quasi-energy, average energy) with solver provenance.

    quasi_energy_raw is the degenerate group's raw eigenvalue on the
    state's own replica (set in `group_degeneracies`), so that avg_energy =
    quasi_energy_raw - omega * <N> for its centroid <N>, and quasi_energy is
    its fold_reported value in [0, omega).  group_id indexes the degenerate
    group the state was resolved in; ebar_degenerate flags a residual
    average-energy degeneracy among its members on the same replica.
    """

    mode: FloquetMode
    quasi_energy: float
    avg_energy: float
    quasi_energy_raw: float
    residual: float
    group_id: int
    group_size: int
    ebar_degenerate: bool = False


@dataclass(eq=False)
class Spectrum:
    """Eigentriplets ordered by average energy, plus run metadata."""

    triplets: list[EigenTriplet]
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.triplets)

    def __iter__(self):
        return iter(self.triplets)

    def __getitem__(self, i) -> EigenTriplet:
        return self.triplets[i]

    @property
    def quasi_energies(self) -> np.ndarray:
        return np.array([t.quasi_energy for t in self.triplets])

    @property
    def avg_energies(self) -> np.ndarray:
        return np.array([t.avg_energy for t in self.triplets])

    @property
    def modes(self) -> list[FloquetMode]:
        return [t.mode for t in self.triplets]

    def to_json_dict(self) -> dict:
        """States and metadata as strict JSON data: a non-finite metadata
        value (the infinite truncation figures of a cutoff with no gap) is
        written as None."""
        return self._payload()

    def _payload(self, lists: bool = True) -> dict:
        """`to_json_dict`, with each mode's coefficients as float64 arrays
        unless lists: orjson writes those as it writes the lists."""
        metadata = {
            key: None if isinstance(value, float) and not np.isfinite(value) else value
            for key, value in self.metadata.items()
        }
        return {"states": [_record(t, lists) for t in self.triplets], "metadata": metadata}

    @staticmethod
    def from_json_dict(payload: dict) -> "Spectrum":
        triplets = []
        for record in payload["states"]:
            rest = dict(record)
            coeffs = np.asarray(rest.pop("coeffs_re"), dtype=float) + 1j * np.asarray(
                rest.pop("coeffs_im"), dtype=float
            )
            triplets.append(EigenTriplet(mode=FloquetMode(coeffs), **rest))
        return Spectrum(triplets=triplets, metadata=dict(payload["metadata"]))


def _record(obj, lists: bool = True) -> dict:
    """JSON record of a state: the dataclass's fields other than mode, in
    declaration order, then the mode as coeffs_re and coeffs_im, nested
    lists or (lists false) contiguous float64 arrays."""
    record = {f.name: getattr(obj, f.name) for f in fields(obj) if f.name != "mode"}
    for key, part in (("coeffs_re", obj.mode.coeffs.real), ("coeffs_im", obj.mode.coeffs.imag)):
        record[key] = part.tolist() if lists else np.ascontiguousarray(part)
    return record


def _resolve(x, tx, lams, eps, gids, h: FourierHamiltonian) -> dict:
    """`resolve_degeneracies` as arrays, on members X and T X in group order,
    by replica inside a group, with their raw eigenvalues and quasi-energies:
    the resolved states as columns, in the order of their triplets."""
    number = _number_diagonal((x.shape[0] // h.dim - 1) // 2, h.dim)
    ebars = np.real(np.sum(x.conj() * tx, axis=0))
    tied = np.zeros(gids.size, dtype=bool)
    # one set per group and replica: a member starts a new set in a new
    # group or at a raw eigenvalue more than omega/2 from the previous one's
    new = np.diff(gids, prepend=-1) != 0
    new[1:] |= np.abs(np.diff(lams)) > 0.5 * h.omega
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, gids.size))
    hbar = x.conj().T @ tx if sizes.max() > 1 else None
    for size in sorted(set(sizes[sizes > 1].tolist())):
        idx = starts[sizes == size][:, None] + np.arange(size)
        block = hbar[idx[:, :, None], idx[:, None, :]]
        ebars[idx], rotation = np.linalg.eigh(0.5 * (block + block.conj().transpose(0, 2, 1)))
        rotation = rotation.transpose(0, 2, 1)  # row j of R^T X^T: sum_i R_ij x_i
        x[:, idx] = (rotation @ x.T[idx]).transpose(2, 0, 1)
        tx[:, idx] = (rotation @ tx.T[idx]).transpose(2, 0, 1)
        scale = np.maximum(1.0, np.abs(ebars[idx]).max(axis=1))[:, None]
        close = np.diff(ebars[idx], axis=1) <= 1e-10 * scale
        tied[idx[:, 1:]] |= close
        tied[idx[:, :-1]] |= close
    norms = np.linalg.norm(x, axis=0)
    residuals = np.linalg.norm(tx + h.omega * number[:, None] * x - lams * x, axis=0) / norms
    x /= norms
    tx /= norms
    order = np.lexsort((np.argmax(np.abs(x), axis=0), eps, ebars))
    states = dict(ebars=ebars, lams=lams, eps=eps, gids=gids, sizes=np.bincount(gids)[gids],
                  tied=tied, residuals=residuals)
    return dict(x=x[:, order], tx=tx[:, order], **{k: v[order] for k, v in states.items()})


def _spectrum(states: dict, h: FourierHamiltonian, metadata: dict | None) -> Spectrum:
    """The eigentriplets of resolved states; residual_max joins a copy of metadata."""
    keys = ("eps", "ebars", "lams", "residuals", "gids", "sizes", "tied")
    coeffs = np.ascontiguousarray(states["x"].T).reshape(states["x"].shape[1], -1, h.dim)
    triplets = [
        EigenTriplet(FloquetMode(c), *values)
        for c, *values in zip(coeffs, *(states[k].tolist() for k in keys))
    ]
    meta = dict(metadata or {})
    meta.setdefault("residual_max", float(states["residuals"].max()))
    return Spectrum(triplets=triplets, metadata=meta)


def resolve_degeneracies(
    groups: list[DegenerateGroup], h: FourierHamiltonian, metadata: dict | None = None
) -> Spectrum:
    """Diagonalize the average-energy block X_s^H (T X)_s of each set of a
    group's members on one replica (raw eigenvalues within omega/2) into
    eigentriplets.  The rotated members keep their raw eigenvalue lam, with
    residual ||(T X + omega N X) R - lam X R||.  Triplets are ordered by
    average energy, then quasi-energy, then the index of the
    largest-magnitude coefficient; neighbours in a set within
    1e-10 * max(|Ebar|, 1) of each other are flagged, not interpreted."""
    if not groups:
        return Spectrum(triplets=[], metadata=metadata or {})
    gids = np.repeat(np.arange(len(groups)), [group.size for group in groups])
    x = np.column_stack([m.mode.flat() for group in groups for m in group.members])
    lams, eps = np.array([(m.quasi_energy_raw, g.quasi_energy) for g in groups for m in g.members]).T
    return _spectrum(_resolve(x, _apply_blocks(h, x, 0.0), lams, eps, gids, h), h, metadata)


# --- functionals ------------------------------------------------------------

def _check_normalized(mode: FloquetMode, tol: float = 1e-8):
    n = mode.norm()
    if abs(n - 1.0) > tol:
        raise ValueError(f"mode is not normalized: ||Phi|| = {n}")


def quasi_energy_functional(mode: FloquetMode, h: FourierHamiltonian) -> float:
    """eps[Phi] = <<Phi| H - i d/dt |Phi>> for a normalized mode.

    On an eigenstate this equals its quasi-energy up to the Brillouin-zone
    shift k*omega of the stored replica.
    """
    _check_normalized(mode)
    x = mode.flat()
    return float(np.real(np.vdot(x, _apply_blocks(h, x, h.omega))))


def average_energy_functional(mode: FloquetMode, h: FourierHamiltonian) -> float:
    """ebar_cal[Phi] = (1/T) int <Phi(t)|H(t)|Phi(t)> dt for a normalized mode.

    Replica-invariant: harmonic-index shifts leave the value unchanged.
    """
    _check_normalized(mode)
    x = mode.flat()
    return float(np.real(np.vdot(x, _apply_blocks(h, x, 0.0))))


# --- assembled operators (Ritz bound, block-structure checks) --------------

def assembled_average_energy(spectrum: Spectrum, h: FourierHamiltonian) -> np.ndarray:
    """The operator sum_n Hbar_n on the truncated Floquet space.

    Assembled from the resolved spectrum: every triplet contributes its
    replica ladder  sum_k ebar |shift_k Phi><shift_k Phi|, keeping shifts
    whose truncation loss is at most 1e-12.  Its expectation value on any
    normalized mode realizes the average-energy functional of the Ritz
    bound; its lowest eigenvalue is the ground average energy.
    """
    if not spectrum.triplets:
        raise ValueError("empty spectrum")
    basis, owners = _replica_ladder(spectrum.modes, 1e-12)
    a = (basis * spectrum.avg_energies[owners]) @ basis.conj().T
    return 0.5 * (a + a.conj().T)


def average_energy_matrix(
    spectrum: Spectrum, h: FourierHamiltonian
) -> tuple[np.ndarray, np.ndarray]:
    """Average-energy matrix over the d resolved states, plus phase matrix.

    Returns (hbar, phases) where hbar[i, j] = <<Phi_i| H |Phi_j>> within a
    quasi-energy group and 0 between groups, and phases = diag(e^{-i eps_i
    T}): hbar is block-diagonal and commutes with the phase matrix by
    construction (`average_energy_block` gives the uncontracted matrix).
    """
    hbar = average_energy_block(spectrum.modes, h)
    gids = np.array([t.group_id for t in spectrum])
    hbar = np.where(gids[:, None] == gids[None, :], hbar, 0.0)
    phases = np.diag(np.exp(-1j * spectrum.quasi_energies * h.period))
    return hbar, phases


# --- end-to-end solve -------------------------------------------------------

def _rung(h: FourierHamiltonian, truncation: int, certify: bool = False):
    """One cutoff: the windowed eigensolve, then one pass over its kept
    modes.  Returns the resolved states and the two figures of
    `_truncation_bounds`, the Ebar one never below the `_leak_floor` it
    proves; no mode or triplet object is built.  With certify (the auto
    ladder) a cutoff whose floor proves it cannot certify returns None as
    soon as its modes are kept."""
    # S, the eigenpairs and the unresolved modes do not outlive their stage:
    # the later stages apply S through the harmonics and reuse that memory
    vals, vecs, basis = _window_pairs(h, truncation)
    x, tx, lams, eps = _select(vals, vecs, h, truncation, basis)
    del vals, vecs
    floor = _leak_floor(h, truncation, x, lams, eps)
    # the factor 2 covers the rounding of the floor and of the figures
    if certify and floor >= 2 * QUASI_TOL:
        return None
    cols, gids, lams, eps = _group(lams, eps, h.omega)
    states = _resolve(x[:, cols], tx[:, cols], lams, eps, gids, h)
    del x, tx
    eps_bound, ebar_estimate = _truncation_bounds(h, truncation, states)
    # the estimate's w is a difference of squares that can round to 0 below
    # a floor the leak proves
    return states, eps_bound, max(ebar_estimate, floor)


def _window_pairs(h: FourierHamiltonian, truncation: int):
    """The eigenpairs of S in `_energy_window` and the sector basis V: one
    `diagonalize` of S, with V None, or, when the model's sectors split it
    (`_split`), one per sector block of the S of the rotated harmonics
    V^H H_m V.  Split pairs stay in that sector layout, rows in harmonic
    order holding the coefficients on V's columns, zero off their sector;
    `_select` embeds and certifies against the full S the ones it keeps."""
    _dense_guard(h, truncation)  # the full n, before the sectors are looked for
    sectors, window = _split(h, truncation), _energy_window(h, truncation)
    if sectors is None or sectors.basis is None:
        return (*diagonalize(build_sambe(h, truncation), window=window), None)
    s = build_sambe(sectors.rotated, truncation)
    owner = sectors.labels[np.arange(-truncation, truncation + 1) % 2].ravel()
    rows = [np.flatnonzero(owner == sector) for sector in range(int(owner.max()) + 1)]
    blocks = [s[np.ix_(idx, idx)] for idx in rows]
    del s
    solved = [diagonalize(block, window=window) for block in blocks]
    del blocks
    vals = np.concatenate([pair[0] for pair in solved])
    coeffs = np.zeros((owner.size, vals.size), dtype=solved[0][1].dtype)
    starts = np.cumsum([0] + [pair[0].size for pair in solved])
    for idx, start, (_, vecs) in zip(rows, starts, solved):
        coeffs[idx, start : start + vecs.shape[1]] = vecs
    return vals, coeffs, sectors.basis


def _edge_leak(h: FourierHamiltonian, x: np.ndarray) -> np.ndarray:
    """The K = max|m| blocks of S_inf x past each edge of the window, for
    the stacked coefficients x of shape (n, k): per column, the harmonics
    -M-K..-M-1 and M+1..M+K of sum_m H_m x^(p - m), shape (k, 2K, d)."""
    reach, mats, nb = h.max_harmonic, h._arithmetic_harmonics, x.shape[0] // h.dim
    rows = np.ascontiguousarray(x.T).reshape(-1, nb, h.dim)
    leak = np.zeros((len(rows), 2 * reach, h.dim), dtype=np.result_type(x, *mats.values()))
    for m, mat in mats.items():  # H_m carries the m edge blocks past the edge
        edge = slice(reach, reach + m) if m > 0 else slice(reach + m, reach)
        # cast first: numpy rounds a mixed real-complex row product differently
        leak[:, edge] += (rows[:, nb - m :] if m > 0 else rows[:, : -m]) @ mat.T.astype(leak.dtype)
    return leak


def _leak_floor(h: FourierHamiltonian, truncation: int, x, lams, eps) -> float:
    """A lower bound of every level's Ebar figure in `_truncation_bounds`,
    from the kept modes X alone, before they are grouped.

    Each mode is placed on the replica `_truncation_bounds` uses: eps
    unrolled at its widest gap, k_i = round((lam_i - eps_i) / omega).  Let
    l_i be the part of its edge leak sum_m H_m x_i^(edge) that falls outside
    the union of all kept modes' windows, and r the number of distinct k_i.
    The floor is 2 (M + K) max_i ||l_i||^2 / (omega r).

    Proof: P_C leaves the rows outside the union alone, so for every
    cluster C of every level w_C = ||(I - P_C) Y_C G_C^-1/2||_F^2 >=
    ||L_C||_F^2 / lambda_max(G) >= max_{i in C} ||l_i||^2 / lambda_max(G),
    and lambda_max(G) <= r because the modes on one shift are orthonormal
    eigenvectors.  So every level's figure 2 (M + K) max_C w_C / omega is
    at least the floor, and so is infinity, the figure when no level is
    kept.  `_resolve` rotates only inside a group's members on one replica,
    which share a shift, so ||L_C||_F is unchanged for every cluster that
    holds them whole: every cluster but those of the finest level, one state
    each.  A finest level that splits such a set S is kept only when every
    radius rho_j lies below the spread of S's Ritz values, at most
    |S| TOL_DEG omega, and certifies only when sum_S w_j < 2 QUASI_TOL |S|
    TOL_DEG omega; the floor is then below 4 (M + K) |S| TOL_DEG QUASI_TOL /
    r, far under 2 QUASI_TOL while (2M + 1) d fits MAX_DENSE_BYTES.

    Grouping moves each eps by at most count * TOL_DEG * omega, so every
    gap within twice that of the widest is tried as the cut, and the
    smallest floor is returned."""
    omega, reach, count = h.omega, h.max_harmonic, eps.size
    # the harmonics of the leak blocks, on the mode's own replica
    harmonic = np.concatenate([np.arange(-reach, 0), np.arange(1, reach + 1)])
    harmonic += np.sign(harmonic) * truncation
    order = np.argsort(eps, kind="stable")
    weight, lams, values = np.sum(np.abs(_edge_leak(h, x)) ** 2, axis=2)[order], lams[order], eps[order]
    gaps = np.append(np.diff(values), values[0] + omega - values[-1])
    floor = np.inf
    for cut in np.flatnonzero(gaps >= gaps.max() - 2 * count * _tol_deg(omega)) + 1:
        shifts = np.round((lams - values + omega * (np.arange(count) >= cut)) / omega).astype(int)
        # not np.unique, whose plain form loads numpy.ma on numpy 2
        replicas = np.array(sorted(set(shifts.tolist())))
        # replica k puts block p at harmonic p - k: inside the window of a
        # mode on replica k' when |p - k + k'| <= M
        at = harmonic - shifts[:, None]
        inside = (np.abs(at[:, :, None] + replicas) <= truncation).any(axis=2)
        worst = np.where(inside, 0.0, weight).sum(axis=1).max(initial=0.0)
        floor = min(floor, 2 * (truncation + reach) * worst / (omega * replicas.size))
    return float(floor)


def _split(h: FourierHamiltonian, truncation: int):
    """The model's symmetry sectors, looked for only from SECTOR_MIN_SIZE on."""
    return h._sectors if (2 * truncation + 1) * h.dim >= SECTOR_MIN_SIZE else None


def _solved(h, truncation, states, eps_bound, ebar_estimate) -> Spectrum:
    sectors = _split(h, truncation)
    metadata = dict(truncation=truncation, tol_deg=_tol_deg(h.omega), solver="sambe-eigh",
                    dim=h.dim, omega=h.omega, model_hash=model_hash(h),
                    sectors=sectors and sectors.dims, sector_coupling=sectors and sectors.coupling)
    spectrum = _spectrum(states, h, metadata)
    spectrum.metadata.update(eps_bound=eps_bound, ebar_estimate=ebar_estimate)
    return spectrum


def solve_at_truncation(h: FourierHamiltonian, truncation: int) -> Spectrum:
    """Solve the eigentriplet spectrum at a fixed harmonic cutoff, with the
    truncation figures metadata["eps_bound"] (a bound on the quasi-energy
    error) and metadata["ebar_estimate"] (see `_truncation_bounds`)."""
    return _solved(h, truncation, *_rung(h, truncation))


def _truncation_bounds(h: FourierHamiltonian, truncation: int, states: dict):
    """Bound on the quasi-energy error of the cutoff M, and estimate of its
    average-energy error (both infinite when no clustering has a gap).

    S_inf has spectrum {eps_j + k omega}.  The folded eps are unrolled at
    their widest gap, and each mode x is taken on the replica k harmonics
    away whose raw eigenvalue is its unrolled eps; there S_inf x is
    T x + omega (N - k) x plus the leak of the K = max|m| edge blocks.  With
    Y = S_inf X - X diag(eps), G = X^H X, A = X^H Y and B = Y^H Y, a run C of
    neighbouring states has the weight w_C = tr(G_C^-1 B_C) -
    tr(G_C^-1 A_C^H G_C^-1 A_C) = ||S_inf Q - Q Q^H S_inf Q||_F^2 and Ritz
    values those of Q^H S_inf Q, Q an orthonormal basis of its modes.  G, A
    and B come from a frame in which modes farther apart than 2M + 2K
    blocks, which share none, are moved to that distance.

    The clusterings are the single-linkage levels of the unrolled eps.  A
    level whose neighbouring clusters overlap, their Ritz values widened by
    rho_C = sqrt(w_C), is skipped; in the others each cluster holds as many
    exact quasi-energies as states within rho_C of its Ritz values (Kahan),
    and Kato-Temple (Parlett ch. 11) bounds their distance by w_C / delta_C,
    delta_C the gap to the nearest outside cluster (maybe its own replica
    across the seam) less that cluster's radius.  The bound adds the
    largest distance between a cluster's sorted Ritz values and its
    groups'.  A state reports no Ritz value, though: it reports its group's
    mean raw eigenvalue (`_group`), and no term here covers the move from
    its own eigenvalue to that mean.  Every level is scored exactly, and of
    the levels whose bound is within rounding (8 eps omega) of the smallest,
    the finest is kept.
    The Ebar figure is the estimate 2 (M + K) max_C w_C / omega of that
    level: the leak moves about w_C / omega^2 of weight past |p| = M,
    moving <N> by at most M + K per unit weight, twice over for the
    renormalized window.  On 1,100 random cutoffs (d <= 6, harmonics <= 3)
    the Ebar error stays below a third of it where it is below 1e-6 and below
    it where below 1e-2; far from convergence it can fall short 3.5 times.
    """
    omega, reach, dim = h.omega, h.max_harmonic, h.dim
    nb, count = 2 * truncation + 1, states["eps"].size
    order = np.argsort(states["eps"], kind="stable")
    values = states["eps"][order]
    cut = int(np.argmax(np.append(np.diff(values), values[0] + omega - values[-1]))) + 1
    order = np.roll(order, -cut)
    unrolled = np.concatenate([values[cut:] - omega, values[:cut]])
    shifts = np.round((states["lams"][order] - unrolled) / omega).astype(int)
    # a real model's modes are exactly real: its figures are then formed in
    # real arithmetic, decided from the modes so no imaginary part is dropped
    x, tx = states["x"], states["tx"]
    if not (x.imag.any() or tx.imag.any()):
        x, tx = x.real, tx.real
    # each mode as a row of blocks; on its replica, S_inf x - eps x over the
    # window and the K blocks past each edge
    x = x.T[order].reshape(count, nb, dim)
    span = nb + 2 * reach
    diagonal = omega * (np.arange(-truncation, truncation + 1) - shifts[:, None])[:, :, None]
    window = tx.T[order].reshape(count, nb, dim) + diagonal * x - x * unrolled[:, None, None]
    below, above = np.split(_edge_leak(h, x.reshape(count, -1).T), 2, axis=1)
    y = np.concatenate([below, window, above], axis=1)
    # replica k puts block p at harmonic p - k: the frame holds each mode's
    # y blocks from its offset -k on, distances between offsets cut to span
    offsets = np.array(sorted(set((-shifts).tolist())))
    start = np.append(0, np.cumsum(np.minimum(np.diff(offsets), span)))
    start = start[np.searchsorted(offsets, -shifts)][:, None]
    frame = np.zeros((2 * count, start.max() + span, dim), dtype=y.dtype)
    frame[np.arange(count)[:, None], start + reach + np.arange(nb)] = x
    frame[np.arange(count, 2 * count)[:, None], start + np.arange(span)] = y
    del x, y, window, below, above
    frame = frame.reshape(2 * count, -1)
    gram, cross = np.split(frame[:count].conj() @ frame.T, 2, axis=1)
    resid = frame[count:].conj() @ frame[count:].T
    blocks = np.stack([cross, resid, cross + gram * unrolled])  # A, B, X^H S_inf X

    # every level's clusters, joined by gaps <= tol, as runs (first, last) of
    # unrolled positions, and every group (whose members share one eps)
    steps = np.diff(unrolled)
    breaks = steps > np.array([-np.inf, *sorted(set(steps.tolist()))])[:, None]
    level, firsts = np.nonzero(np.column_stack([np.ones(len(breaks), bool), breaks]))
    lasts = np.nonzero(np.column_stack([breaks, np.ones(len(breaks), bool)]))[1]
    group_firsts = np.flatnonzero(np.diff(states["gids"][order], prepend=-1))
    keys = np.append(firsts, group_firsts) * count
    keys += np.append(lasts, np.append(group_firsts[1:], count) - 1)
    runs = np.array(sorted(set(keys.tolist())))
    inverse = np.searchsorted(runs, keys)
    first, length = runs // count, runs % count - runs // count + 1
    run, groups = inverse[: firsts.size], inverse[firsts.size :]

    # w_C and the Ritz values of every run (basis X_C V s^-1/2, G_C = V
    # diag(s) V^H), one batched eigh per run length
    w, theta = np.zeros(runs.size), np.zeros((runs.size, length.max()))
    for size in sorted(set(length.tolist())):
        batch = np.flatnonzero(length == size)
        idx = first[batch][:, None] + np.arange(size)
        rows, cols = idx[:, :, None], idx[:, None, :]
        scales, vecs = np.linalg.eigh(gram[rows, cols])
        basis = vecs / np.sqrt(scales)[:, None, :]
        a, b, sq = np.swapaxes(basis, -1, -2).conj() @ blocks[:, rows, cols] @ basis
        trace = np.trace(b, axis1=-2, axis2=-1).real
        w[batch] = np.maximum(trace - np.sum(np.abs(a) ** 2, axis=(-2, -1)), 0.0)
        theta[batch, :size] = np.linalg.eigvalsh(sq)
    # each run's sorted Ritz values against those of the groups it holds
    member = np.arange(theta.shape[1]) < length[:, None]
    within = np.minimum(first[:, None] + np.arange(theta.shape[1]), count - 1)
    of_group = np.repeat(groups, length[groups])
    own = theta[of_group, np.arange(count) - first[of_group]]
    owned = np.sort(np.where(member, own[within], np.inf), axis=1)
    split = np.where(member, np.abs(theta - owned), 0.0).max(axis=1)

    # every level at once, one entry per cluster: gaps[e] runs from cluster e
    # to the next of its level, the last to the first's replica
    entry = np.arange(run.size)
    level_starts = np.flatnonzero(np.diff(level, prepend=-1))
    head = level_starts[level]
    tail = np.append(level_starts[1:], run.size)[level] - 1
    after = np.where(entry == tail, head, entry + 1)
    before = np.where(entry == head, tail, entry - 1)
    rho = np.sqrt(w[run])
    gaps = theta[run, 0][after] + np.where(entry == tail, omega, 0.0) - theta[run, length[run] - 1]
    skip = np.logical_or.reduceat(gaps <= rho + rho[after], level_starts)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.minimum(gaps - rho[after], gaps[before] - rho[before])
        scores = np.maximum.reduceat(w[run] / delta + split[run], level_starts)
    kept = np.flatnonzero(~skip & (scores < np.inf))
    if not kept.size:
        return np.inf, np.inf
    margin = 8 * np.finfo(float).eps * omega  # Ritz values in [-omega, omega)
    best = kept[scores[kept] <= scores[kept].min() + margin][0]
    w_max = np.maximum.reduceat(w[run], level_starts)[best]
    return float(scores[best]), float(2 * (truncation + reach) * w_max / omega)


def certify_truncation(h: FourierHamiltonian) -> int:
    """Smallest certified cutoff: doubling M from the largest harmonic index
    (at least 1), the first at which the quasi-energy bound and the Ebar
    estimate of `_truncation_bounds` are both below QUASI_TOL; TruncationError
    when none up to MAX_TRUNCATION is, ModelError when the model's largest
    harmonic index is above it.  The harmonic cutoff is the one
    approximation in the construction, so it is certified, not guessed."""
    return _certified_rung(h)[0]


def _certified_spectrum(h: FourierHamiltonian) -> Spectrum:
    """The spectrum of the certified cutoff, the only rung whose triplets
    are built."""
    return _solved(h, *_certified_rung(h))


def _certified_rung(h: FourierHamiltonian) -> tuple[int, dict, float, float]:
    """The doubling loop of `certify_truncation`: the certified cutoff, its
    resolved states and its two truncation figures.  A model whose largest
    harmonic index is above MAX_TRUNCATION is a ModelError: no rung could
    hold it."""
    if h.max_harmonic > MAX_TRUNCATION:
        raise ModelError(
            f"the largest harmonic index {h.max_harmonic} of the model is above "
            f"MAX_TRUNCATION = {MAX_TRUNCATION}, the largest cutoff 'auto' tries; "
            f"give a fixed cutoff M >= {h.max_harmonic}"
        )
    m = max(1, h.max_harmonic)
    while m <= MAX_TRUNCATION:
        try:
            rung = _rung(h, m, certify=True)
        except TruncationError:
            rung = None
        if rung is not None and max(rung[1:]) < QUASI_TOL:
            return m, *rung
        del rung  # not held through the next eigensolve
        m *= 2
    raise TruncationError(
        f"truncation error figures did not fall below {QUASI_TOL} up to M={MAX_TRUNCATION}"
    )


def solve_spectrum(h: FourierHamiltonian, truncation: int | str = "auto") -> Spectrum:
    """Full pipeline: diagonalize, select, resolve; 'auto' returns the
    certifying solve, so the certified cutoff is solved once.  A fixed
    cutoff whose eps bound or Ebar estimate exceeds QUASI_TOL is solved all
    the same, with a RuntimeWarning."""
    auto = truncation == "auto"
    if auto:
        spectrum = _certified_spectrum(h)
    else:
        spectrum = solve_at_truncation(h, int(truncation))
        if not max(spectrum.metadata["eps_bound"], spectrum.metadata["ebar_estimate"]) < QUASI_TOL:
            warnings.warn(
                f"truncation M={truncation} is below convergence: eps bound "
                f"{spectrum.metadata['eps_bound']:.3e}, ebar estimate "
                f"{spectrum.metadata['ebar_estimate']:.3e}, limit {QUASI_TOL:.0e}; "
                f"increase M",
                RuntimeWarning,
                stacklevel=2,
            )
    spectrum.metadata["truncation_auto"] = auto
    return spectrum
