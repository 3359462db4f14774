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
multiplication by H(t).  Weyl's inequality bounds that spectrum by
[lambda_min(H_0) - D, lambda_max(H_0) + D] with D = sum_{m != 0} ||H_m||_2,
so every raw eigenvalue that can hold a kept replica lies within
omega/2 of that range.  The one dense eigensolve per cutoff therefore
computes only the eigenpairs inside this window (LAPACK MRRR), padded
so that no tol_deg cluster holding a kept replica is cut at an edge (see
`_energy_window`), and certifies the residuals of those pairs alone.

When every harmonic H_m is real, H(t)* = H(-t) (the drive is symmetric
under time reversal about t = 0) and S is real symmetric: it is built as
float64 and the one eigh call dispatches to dsyevr, the real MRRR routine,
at about a quarter of the flops and half the memory of zheevr.  Any
complex H_m gives a complex128 S.  The model alone decides, in
`build_energy_matrix`; the dense-memory guard counts complex entries
either way, which is conservative for a real S.

`select_representatives` then clusters the raw (unfolded)
eigenvalues, diagonalizes N inside each cluster and keeps, per physical
state, the one replica with centroid in [-1/2, 1/2); each kept vector x
carries its own Rayleigh quotient x^H S x as raw eigenvalue.  States whose
folded quasi-energies coincide are grouped and aligned to one replica, and
`group_degeneracies` gives every member the mean of the aligned raw
eigenvalues (the only mean taken).  Each group is resolved by
diagonalizing the average-energy block

    Hbar[i, j] = sum_{m,m'} <phi_i^(m)| H_{m-m'} |phi_j^(m')>,

which equals the one-period average (1/T) int <Phi_i(t)|H(t)|Phi_j(t)> dt.
These later stages work on all states at once and apply S and T through
the harmonics, never as n x n matrices.  Nearly every cluster and group
has one member, the 1 x 1 case of its eigh with rotation 1: the centroids
N|v|^2 of all single-vector clusters come from one product, a singleton
group keeps its raw eigenvalue with no replica alignment, and eigh runs
only on clusters and groups of two or more.  One application of S to the
kept vectors gives every raw eigenvalue and selection residual; one
application of T to the stacked group members X gives every block
X_g^H (T X)_g, and with it the residuals ||(T X + omega N X) R - lam X R||
of the rotated states.  The result is the eigentriplet spectrum (mode,
quasi-energy, average energy), ordered by average energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.linalg

from .model import FourierHamiltonian, ModelError, model_hash


class TruncationError(RuntimeError):
    """Raised when the harmonic cutoff M is too small for the model."""


class SolverError(RuntimeError):
    """Raised when the dense eigensolver fails or leaves large residuals."""


# Largest dense extended-space solve that will be started: S (16 * n^2
# bytes) plus the eigensolver's copy (zheevr allocates about 2x S), so
# 3 * 16 * n^2 bytes are counted against it.  A real S needs half of that;
# the guard counts complex entries either way, which is conservative.
MAX_DENSE_BYTES = 2 * 1024**3

# Folded quasi-energy drift below which the larger of two cutoffs is certified.
QUASI_TOL = 1e-9

# Largest cutoff M the doubling loop of `certify_truncation` tries.
MAX_TRUNCATION = 64

# Largest eigenpair residual ||S v - lam v|| `diagonalize` accepts, relative
# to max(|lam|, 1).
EIGEN_RESIDUAL_TOL = 1e-10


def fold_reported(value: float, omega: float) -> float:
    """Fold with the zone seam snapped: values within 1e-12 * omega below
    omega report as 0.0, so floating-point noise around an integer multiple
    of omega cannot flip a state across the Brillouin-zone boundary."""
    f = float(np.mod(value, omega))
    if omega - f <= 1e-12 * omega:
        return 0.0
    return f


def _resolve_tol_deg(tol_deg: float | None, omega: float) -> float:
    """The degeneracy tolerance: 1e-8 * omega by default, else finite and > 0."""
    if tol_deg is None:
        return 1e-8 * omega
    if not (np.isfinite(tol_deg) and tol_deg > 0):
        raise ModelError(f"tol_deg must be finite and > 0, got {tol_deg!r}")
    return tol_deg


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
        raise TruncationError(
            f"truncation M={truncation} is below the largest harmonic index "
            f"{h.max_harmonic} of the model"
        )


def _number_diagonal(truncation: int, dim: int) -> np.ndarray:
    """Diagonal of the number operator N: harmonic index m of each entry."""
    return np.repeat(np.arange(-truncation, truncation + 1), dim)


def build_energy_matrix(h: FourierHamiltonian, truncation: int) -> np.ndarray:
    """Block-Toeplitz matrix of the one-period averaged energy form.

    x^H T x equals (1/T) int_0^T <Phi(t)|H(t)|Phi(t)> dt for the mode with
    stacked coefficients x; block (m, m') = H_{m-m'}.  The result is float64
    when every harmonic has an exactly zero imaginary part (real H_m, i.e.
    H(t)* = H(-t), make T real symmetric) and complex128 otherwise; this is
    the one place that choice is made.  M below the largest stored harmonic
    index would silently drop physics and is rejected, and so is a solve
    above MAX_DENSE_BYTES (ModelError, before allocating).  The guard counts
    16 bytes per entry for either dtype, which is conservative for a real T.
    """
    _require_truncation(h, truncation)
    nb = 2 * truncation + 1
    d = h.dim
    size = nb * d
    nbytes = 16 * size**2
    if 3 * nbytes > MAX_DENSE_BYTES:
        raise ModelError(
            f"truncation M={truncation} needs a dense {size} x {size} matrix of "
            f"{nbytes / 1024**3:.2f} GiB, {3 * nbytes / 1024**3:.2f} GiB for the solve, "
            f"above the {MAX_DENSE_BYTES / 1024**3:.0f} GiB limit; lower M or the "
            f"model dimension"
        )
    real = not any(mat.imag.any() for mat in h.harmonics.values())
    t = np.zeros((size, size), dtype=float if real else complex)
    blocks = t.reshape(nb, d, nb, d)  # blocks[p, :, q, :] is block (p, q), a view
    for m, mat in h.harmonics.items():
        rows = np.arange(max(m, 0), nb + min(m, 0))
        blocks[rows, :, rows - m, :] = mat.real if real else mat
    return t


def build_sambe(h: FourierHamiltonian, truncation: int) -> np.ndarray:
    """Hermitian Floquet matrix S = T + omega*N of size (2M+1)*d for H(t) - i d/dt:
    block (m, m') = H_{m-m'} + m*omega*delta_{mm'}*I.  Real symmetric
    (float64) when every H_m is real, complex128 otherwise, as decided by
    `build_energy_matrix`."""
    s = build_energy_matrix(h, truncation)
    s[np.diag_indices_from(s)] += h.omega * _number_diagonal(truncation, h.dim)
    return s


def _apply_blocks(h: FourierHamiltonian, x: np.ndarray, number_weight: float) -> np.ndarray:
    """(T + number_weight * N) @ x through the harmonics: T for weight 0,
    S for weight omega.  x holds stacked coefficients, shape (n,) or (n, k);
    no n x n matrix is formed."""
    nb = x.shape[0] // h.dim
    truncation = (nb - 1) // 2
    _require_truncation(h, truncation)
    blocks = x.reshape(nb, h.dim, -1)
    dtype = np.result_type(x, *h.harmonics.values())  # a real x may meet complex H_m
    out = (number_weight * np.arange(-truncation, truncation + 1)[:, None, None] * blocks).astype(
        dtype, copy=False
    )
    for m, mat in h.harmonics.items():
        # block row p collects H_m @ phi^(p - m)
        out[max(m, 0) : nb + min(m, 0)] += mat @ blocks[max(-m, 0) : nb - max(m, 0)]
    return out.reshape(x.shape)


def diagonalize(
    s: np.ndarray, window: tuple[float, float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian matrix with a residual certificate.

    LAPACK MRRR (dsyevr for a real symmetric s, zheevr for a complex one;
    scipy picks by dtype) computes the full spectrum, or with window =
    (lo, hi) only the eigenpairs with lo < lam <= hi; `solve_at_truncation`
    passes `_energy_window`, which holds every pair that replica selection
    can keep.  Returns (eigenvalues ascending, eigenvectors as columns).
    Residuals ||S v - lam v|| of the returned pairs are checked against
    EIGEN_RESIDUAL_TOL * max(|lam|, 1), the maximum taken over the returned
    eigenvalues.  A windowed solve that fails this check is done again on
    the full spectrum, keeping the pairs inside the window: the windowed
    MRRR can return a bad pair (on a real S that splits into exactly
    degenerate blocks) where the full solve of the same S does not.
    """
    s = np.asarray(s)
    herm_defect = np.linalg.norm(s - s.conj().T)
    if herm_defect > 1e-12 * max(1.0, np.linalg.norm(s)):
        raise SolverError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    vals, vecs = _eigh(s, window)
    worst, scale = _worst_residual(s, vals, vecs)
    if worst > EIGEN_RESIDUAL_TOL * scale and window is not None:
        vals, vecs = _eigh(s, None)
        keep = (vals > window[0]) & (vals <= window[1])
        vals, vecs = vals[keep], vecs[:, keep]
        worst, scale = _worst_residual(s, vals, vecs)
    if worst > EIGEN_RESIDUAL_TOL * scale:
        raise SolverError(
            f"eigensolver residual {worst:.3e} exceeds {EIGEN_RESIDUAL_TOL:.1e} * "
            f"{scale:.3e}; matrix size {s.shape[0]}"
        )
    return vals, vecs


def _eigh(s: np.ndarray, window: tuple[float, float] | None) -> tuple[np.ndarray, np.ndarray]:
    """MRRR eigenpairs of s, inside the window if one is given."""
    try:
        return scipy.linalg.eigh(
            s, subset_by_value=window, driver="evr", check_finite=False
        )
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"eigensolver failed: {exc}; size={s.shape[0]}, "
            f"norm={np.linalg.norm(s):.3e}"
        ) from exc


def _worst_residual(s: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> tuple[float, float]:
    """Largest ||S v - lam v|| over the pairs, and the scale max(|lam|, 1)."""
    scale = max(float(np.abs(vals).max(initial=0.0)), 1.0)
    residuals = np.linalg.norm(s @ vecs - vecs * vals, axis=0)
    return float(residuals.max(initial=0.0)), scale


def _energy_window(
    h: FourierHamiltonian, truncation: int, tol_deg: float
) -> tuple[float, float]:
    """Raw-eigenvalue window holding every pair `select_representatives` keeps.

    A kept vector has Ebar inside [E_lo, E_hi] = lambda_min/max(H_0) -+
    sum_{m != 0} ||H_m||_2 (Weyl) and centroid in [-1/2, 1/2), so its raw
    eigenvalue lies in [E_lo - omega/2, E_hi + omega/2].  The pad of
    n*tol_deg + 1e-9*omega covers the 9-decimal centroid rounding and a
    transitive tol_deg cluster (at most n members) around a kept vector,
    so no such cluster is cut at an edge.  The members of a cluster that is
    cut and lie inside the window are still outside the unpadded range, so
    none of them passes the centroid test.
    """
    h0 = h.harmonics.get(0, np.zeros((h.dim, h.dim)))
    levels = np.linalg.eigvalsh(h0)
    drive = sum(np.linalg.norm(mat, 2) for m, mat in h.harmonics.items() if m != 0)
    pad = (2 * truncation + 1) * h.dim * tol_deg + 1e-9 * h.omega
    reach = drive + 0.5 * h.omega + pad
    return float(levels[0] - reach), float(levels[-1] + reach)


# --- representative selection ---------------------------------------------

@dataclass(frozen=True, eq=False)
class Representative:
    """One physical state per Brillouin zone, before degeneracy resolution.

    quasi_energy_raw is the Rayleigh quotient x^H S x of the stored mode,
    the eigenvalue of the selected replica; quasi_energy is its fold into
    [0, omega).
    """

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


def _in_zone(centroids: np.ndarray) -> np.ndarray:
    """Which centroids <N> lie in [-1/2, 1/2), the kept replica's zone."""
    # round: of seam replicas (centroids -1/2, +1/2 at resonance) keep one
    centroids = np.round(centroids, 9)
    return (centroids >= -0.5) & (centroids < 0.5)


def select_representatives(
    eigvals: np.ndarray,
    eigvecs: np.ndarray,
    h: FourierHamiltonian,
    truncation: int,
    tol_deg: float | None = None,
) -> list[Representative]:
    """Pick exactly d physical states from the raw Sambe spectrum.

    Raw (unfolded) eigenvalues within tol_deg of each other form a cluster.
    N restricted to a cluster is diagonalized, which resolves
    Ebar = lam - omega*<N> there; a k-harmonic shift moves the centroid <N>
    by exactly k, so per physical state the one replica with centroid in
    [-1/2, 1/2) is kept.  A cluster of one eigenvector v is the 1 x 1 case,
    with rotation 1 and centroid N @ |v|^2: the centroids of all such
    clusters come from one product, and eigh runs only on clusters of two
    or more.  One application of S to all kept vectors x then gives each
    its own raw eigenvalue, the Rayleigh quotient lam = Re(x^H S x), and
    residual ||S x - lam x||.  Anything but d kept states means the
    truncation is eating states; that raises TruncationError with the
    advice to increase M.
    """
    omega, d = h.omega, h.dim
    tol_deg = _resolve_tol_deg(tol_deg, omega)
    number = _number_diagonal(truncation, d)
    clusters = _gap_clusters(eigvals, tol_deg)
    singles = eigvecs[:, [c[0] for c in clusters if c.size == 1]]
    parts = [singles[:, _in_zone(number @ np.abs(singles) ** 2)]]
    for cluster in clusters:
        if cluster.size > 1:
            basis = eigvecs[:, cluster]
            centroids, rotation = np.linalg.eigh(basis.conj().T @ (number[:, None] * basis))
            parts.append(basis @ rotation[:, _in_zone(centroids)])
    modes = np.concatenate(parts, axis=1)
    if modes.shape[1] != d:
        raise TruncationError(
            f"found {modes.shape[1]} replica families, expected {d}: "
            f"truncation M={truncation} is too small, increase M"
        )
    sx = _apply_blocks(h, modes, omega)
    lams = np.real(np.sum(modes.conj() * sx, axis=0))
    residuals = np.linalg.norm(sx - lams * modes, axis=0)
    # each mode is divided by its own norm, as FloquetMode.normalized does,
    # into an array of its own
    reps = [
        Representative(
            mode=FloquetMode.from_flat(x / np.linalg.norm(x), d),
            quasi_energy=fold_reported(lam, omega),
            quasi_energy_raw=float(lam),
            residual=float(res),
        )
        for x, lam, res in zip(np.ascontiguousarray(modes.T, dtype=complex), lams, residuals)
    ]
    reps.sort(key=lambda r: (r.quasi_energy, r.quasi_energy_raw))
    return reps


# --- degeneracy grouping and resolution ------------------------------------

@dataclass(frozen=True, eq=False)
class DegenerateGroup:
    """Representatives sharing a quasi-energy.

    Member modes are replica-aligned and all carry the group's raw
    eigenvalue, the mean of their aligned Rayleigh quotients, so their
    average-energy block is the physical average-energy operator restricted
    to the degenerate subspace.  quasi_energy is the fold of that mean.
    """

    members: tuple[Representative, ...]
    quasi_energy: float

    @property
    def size(self) -> int:
        return len(self.members)


def group_degeneracies(
    reps: list[Representative],
    h: FourierHamiltonian,
    tol_deg: float | None = None,
) -> list[DegenerateGroup]:
    """Cluster representatives with |eps_i - eps_j| <= tol_deg (wrapped).

    The Brillouin-zone boundary is treated as wrapped, so eps near 0 and
    near omega may form one group.  Members of a group are shifted to the
    common replica that drops the least weight past the truncation edge;
    the mean lam of their shifted raw eigenvalues then becomes every
    member's quasi_energy_raw, with quasi_energy = fold_reported(lam).  This
    is the one place raw eigenvalues are averaged.  A singleton group is
    its representative as given: the mean of one raw eigenvalue is that
    eigenvalue, and there is nothing to align.
    """
    omega = h.omega
    tol_deg = _resolve_tol_deg(tol_deg, omega)
    folded = np.array([r.quasi_energy for r in reps])
    groups: list[DegenerateGroup] = []
    for cluster in _gap_clusters(folded, tol_deg, omega):
        if cluster.size == 1:
            rep = reps[int(cluster[0])]
            groups.append(DegenerateGroup(members=(rep,), quasi_energy=rep.quasi_energy))
            continue
        members = [reps[int(i)] for i in np.sort(cluster)]
        lam0 = members[0].quasi_energy_raw
        ks = [int(np.round((m.quasi_energy_raw - lam0) / omega)) for m in members]
        # a shift by more than 2M loses a whole member, so only targets
        # within 2M of every member can align them; at a small omega the
        # members can lie farther apart than 4M, with no such target
        reach = 2 * members[0].mode.truncation
        targets = range(max(min(ks), max(ks) - reach), min(max(ks), min(ks) + reach) + 1)
        if not targets:
            raise TruncationError(
                f"replica alignment loses weight >= 1: members lie {max(ks) - min(ks)} "
                f"replicas apart, more than 4M = {2 * reach}; increase M"
            )
        # a shifted mode is an eigenvector only up to a residual of about
        # ||H|| * sqrt(lost): keep that inside the 1e-10 residual certificate
        # of `diagonalize`, where certification cannot see it
        lost, target = min(
            (sum(m.mode.shift(t - k)[1] for m, k in zip(members, ks)), t) for t in targets
        )
        if lost > 1e-20:
            raise TruncationError(
                f"replica alignment loses weight {lost:.2e}; increase M"
            )
        lam = float(np.mean([m.quasi_energy_raw + (target - k) * omega
                             for m, k in zip(members, ks)]))
        eps = fold_reported(lam, omega)
        aligned = tuple(
            replace(
                m,
                mode=m.mode if k == target else m.mode.shift(target - k)[0].normalized(),
                quasi_energy=eps,
                quasi_energy_raw=lam,
            )
            for m, k in zip(members, ks)
        )
        groups.append(DegenerateGroup(members=aligned, quasi_energy=eps))
    groups.sort(key=lambda g: g.quasi_energy)
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

    quasi_energy_raw is the raw eigenvalue the degenerate group shares
    (set in `group_degeneracies`) and quasi_energy is its fold_reported
    value in [0, omega).  group_id indexes the degenerate group the state
    was resolved in; ebar_degenerate flags a residual average-energy
    degeneracy inside that group.
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
        return {"states": [_record(t) for t in self.triplets], "metadata": self.metadata}

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


def _record(obj) -> dict:
    """JSON record of a state: the dataclass's fields other than mode, in
    declaration order, then the mode as coeffs_re and coeffs_im."""
    record = {f.name: getattr(obj, f.name) for f in fields(obj) if f.name != "mode"}
    record["coeffs_re"] = obj.mode.coeffs.real.tolist()
    record["coeffs_im"] = obj.mode.coeffs.imag.tolist()
    return record


def resolve_degeneracies(
    groups: list[DegenerateGroup],
    h: FourierHamiltonian,
    metadata: dict | None = None,
) -> Spectrum:
    """Diagonalize each group's average-energy block into eigentriplets.

    One application of T to the stacked member modes X gives T X for every
    group; a group's block is X_g^H (T X)_g, and a singleton's block is its
    1 x 1 Ebar, which needs no eigh.  Members are rotated into the
    eigenbasis R of their block; the rotated states remain quasi-energy
    eigenstates because the members share one raw eigenvalue lam, which
    every triplet of the group reports, and their residuals
    ||(T X + omega N X) R - lam X R|| need no second application.
    Triplets are ordered by average energy ascending, with ties broken by
    quasi-energy and then by the index of the largest-magnitude coefficient
    (reproducibility).  Residual average-energy degeneracies, neighbours in
    a group within 1e-10 * max(|Ebar|, 1) of each other, are flagged, not
    interpreted.
    """
    if not groups:
        return Spectrum(triplets=[], metadata=metadata or {})
    gids = [gid for gid, group in enumerate(groups) for _ in group.members]
    x = np.column_stack([m.mode.flat() for group in groups for m in group.members])
    tx = _apply_blocks(h, x, 0.0)
    truncation = groups[0].members[0].mode.truncation
    sx = tx + h.omega * _number_diagonal(truncation, h.dim)[:, None] * x
    ebars = np.real(np.sum(x.conj() * tx, axis=0))
    tied = np.zeros(len(gids), dtype=bool)
    start = 0
    for group in groups:
        g = slice(start, start + group.size)
        start = g.stop
        if group.size == 1:
            continue
        block = x[:, g].conj().T @ tx[:, g]
        ebars[g], rotation = np.linalg.eigh(0.5 * (block + block.conj().T))
        x[:, g] = x[:, g] @ rotation
        sx[:, g] = sx[:, g] @ rotation
        scale = max(1.0, float(np.abs(ebars[g]).max()))
        for ties in _gap_clusters(ebars[g], 1e-10 * scale):
            tied[g.start + ties] = ties.size > 1
    lams = np.array([groups[gid].members[0].quasi_energy_raw for gid in gids])
    norms = np.linalg.norm(x, axis=0)
    residuals = np.linalg.norm(sx - lams * x, axis=0) / norms
    x /= norms
    peaks = np.argmax(np.abs(x), axis=0)
    order = np.lexsort((peaks, [groups[gid].quasi_energy for gid in gids], ebars))
    triplets = []
    for a in order:
        group = groups[gids[a]]
        triplets.append(
            EigenTriplet(
                mode=FloquetMode.from_flat(x[:, a].copy(), h.dim),
                quasi_energy=group.quasi_energy,
                avg_energy=float(ebars[a]),
                quasi_energy_raw=group.members[0].quasi_energy_raw,
                residual=float(residuals[a]),
                group_id=gids[a],
                group_size=group.size,
                ebar_degenerate=bool(tied[a]),
            )
        )
    meta = dict(metadata or {})
    meta.setdefault("residual_max", float(residuals.max()))
    return Spectrum(triplets=triplets, metadata=meta)


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
    spectrum: Spectrum, h: FourierHamiltonian, projected: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Average-energy matrix over the d resolved states, plus phase matrix.

    Returns (hbar, phases) where hbar[i, j] = <<Phi_i| H |Phi_j>> and
    phases = diag(e^{-i eps_i T}).  With projected=True, entries between
    distinct quasi-energy groups are zeroed, which makes hbar block-diagonal
    and commuting with the phase matrix by construction; projected=False
    gives the uncontracted matrix for contrast.
    """
    modes = spectrum.modes
    hbar = average_energy_block(modes, h)
    if projected:
        gids = np.array([t.group_id for t in spectrum])
        mask = gids[:, None] == gids[None, :]
        hbar = np.where(mask, hbar, 0.0)
    phases = np.diag(np.exp(-1j * spectrum.quasi_energies * h.period))
    return hbar, phases


# --- end-to-end solve -------------------------------------------------------

def solve_at_truncation(
    h: FourierHamiltonian, truncation: int, tol_deg: float | None = None
) -> Spectrum:
    """Solve the eigentriplet spectrum at a fixed harmonic cutoff.

    metadata["edge_weight_max"] is the largest weight a returned mode keeps
    in the |m| = M blocks; it is reported, not checked.
    """
    tol_deg = _resolve_tol_deg(tol_deg, h.omega)
    # S is not held past the eigensolve: the later stages apply it through
    # the harmonics, and their batched work reuses its memory
    window = _energy_window(h, truncation, tol_deg)
    vals, vecs = diagonalize(build_sambe(h, truncation), window=window)
    reps = select_representatives(vals, vecs, h, truncation, tol_deg)
    groups = group_degeneracies(reps, h, tol_deg)
    metadata = {
        "truncation": truncation,
        "tol_deg": tol_deg,
        "solver": "sambe-eigh",
        "dim": h.dim,
        "omega": h.omega,
        "model_hash": model_hash(h),
    }
    spectrum = resolve_degeneracies(groups, h, metadata)
    # weight left in the |m| = M blocks: large means M is below convergence
    coeffs = np.stack([t.mode.coeffs for t in spectrum])
    edge = np.abs(np.arange(-truncation, truncation + 1)) == truncation
    spectrum.metadata["edge_weight_max"] = float(
        np.sum(np.abs(coeffs[:, edge]) ** 2, axis=(1, 2)).max()
    )
    return spectrum


def certify_truncation(h: FourierHamiltonian) -> int:
    """Smallest certified cutoff: double M until quasi-energies settle.

    Starting from the largest harmonic index of the model (at least 1),
    returns the first M = 2*M_prev at which every folded quasi-energy moved
    less than QUASI_TOL from the M_prev solve (wrap-aware, matched after
    sorting), and raises TruncationError when none up to MAX_TRUNCATION
    does.  The harmonic cutoff is the one approximation in the whole
    construction, so it is certified rather than guessed.
    """
    return _certified_spectrum(h, None).metadata["truncation"]


def _certified_spectrum(h: FourierHamiltonian, tol_deg: float | None) -> Spectrum:
    """The doubling loop of `certify_truncation`, returning its last solve."""
    m = max(1, h.max_harmonic)
    prev: np.ndarray | None = None
    while m <= MAX_TRUNCATION:
        try:
            spectrum = solve_at_truncation(h, m, tol_deg)
            eps = np.sort(spectrum.quasi_energies)
        except TruncationError:
            eps = None
        if eps is not None and prev is not None:
            drift = wrap_distance(eps, prev, h.omega).max()
            if drift < QUASI_TOL:
                return spectrum
        prev = eps
        m *= 2
    raise TruncationError(
        f"quasi-energies did not settle below {QUASI_TOL} up to M={MAX_TRUNCATION}"
    )


def solve_spectrum(
    h: FourierHamiltonian,
    truncation: int | str = "auto",
    tol_deg: float | None = None,
) -> Spectrum:
    """Full pipeline: diagonalize, select, resolve; 'auto' returns the
    certifying solve, so the certified cutoff is solved once."""
    auto = truncation == "auto"
    if auto:
        spectrum = _certified_spectrum(h, tol_deg)
    else:
        spectrum = solve_at_truncation(h, int(truncation), tol_deg)
    spectrum.metadata["truncation_auto"] = auto
    return spectrum
