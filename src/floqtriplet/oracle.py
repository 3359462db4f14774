"""Independent validation by direct time propagation over one period.

The one-period propagator U(T) (monodromy operator) is built from
midpoint-exponential steps

    U <- exp(-i H(t_mid) dt) U,

each factor unitary because H(t_mid) is Hermitian.  H(t_mid) is written
in place, one `eval_at_time(t, out=row)` call per step, into the rows of
the array that then holds the factors, which are computed in fixed blocks
of steps as cos B - i sin B, B = H(t_mid) dt:
the two Taylor series in B^2, of the order at which the first dropped
term is below the float64 unit roundoff, evaluated in matmuls batched over
the block, and scaled and squared when a step is long.  B is real, and so
is every matmul of the two series, when H(t) is real at every t, which
holds exactly when every harmonic H_m is symmetric.  Their sequential
product, for U(T) and for each propagated trajectory alike, is formed
blockwise (`_chain`): the products inside blocks of steps are batched
over all blocks, and only the carry across block boundaries is
sequential, so the product makes no Python call per step; U(T) keeps only
the final product.
The factors are made and chained one chunk of steps at a time
(`_propagate`), the state carried from chunk to chunk, so what bounds the
memory of a propagation is the chunk: O(chunk d^2) of factors and
temporaries, plus a trajectory's (N + 1) d samples, at any step count N.
A chunk is whole blocks of both kinds, so the result is bit for bit the
one that all N factors held at once would give.
One `oracle_spectrum` call forms each chunk's block products once, in
U(T)'s propagation, and its trajectories reuse them: they still make
their own factors, but only carry the state across blocks and fill their
samples.  The shared products are (N / 64) d^2 extra complex entries, held
for the length of the call only; a propagation outside such a call keeps
none.
A final polar correction strips the accumulated factor roundoff (up to a
few 1e-13 over 4096 steps) so the result is unitary to working precision.
The eigenphases of U(T) give the quasi-energies folded into [0, omega),
its complex Schur vectors (orthonormal eigenvectors, U(T) being unitary)
are the Floquet modes at t = 0, and average energies come from explicit
trapezoid averages of <Psi_i(t)|H(t)|Psi_j(t)> along the propagated
trajectories, with H(t) written in place into the rows of a block of
nodes and H(t) Psi(t) formed for all trajectories of a cluster in one
batched product per block; on a periodic integrand the trapezoid rule
over the step grid is spectrally accurate (Trefethen & Weideman, SIAM
Rev. 56, 385 (2014)).  Degenerate eigenphases are
resolved by diagonalizing the time-averaged-energy matrix inside the
degenerate subspace, the direct time-domain mirror of the extended-space
construction in `sambe` - which is exactly what makes this an independent
check.  A cluster of merged eigenphases reports its wrap-aware mean
quasi-energy, the value `sambe` reports for a merged group.
"""

from __future__ import annotations

import contextvars
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .model import FourierHamiltonian
from .sambe import (
    FloquetMode,
    Spectrum,
    EigenTriplet,
    PropagationError,
    _gap_clusters,
    _tol_deg,
    fold_reported,
)


# steps of the uniform grid over one period, for U(T) and every trajectory
STEPS_PER_PERIOD = 4096

# steps per block of the cos/sin kernel in _step_propagators: large enough to
# amortize the per-matmul overhead, small enough that its few batched
# temporaries (real ones for a real H(t)) stay about the size of the chunk of
# factors they are made for
_STEP_BLOCK = 256

# largest 1-norm of dt H that the Taylor polynomials take unscaled: the
# built-ins at STEPS_PER_PERIOD steps stay below 2.2e-3 (order 4-5), so only
# strong drives or few steps are scaled and squared
_TAYLOR_THETA = 0.05

# the first dropped Taylor term is held below the unit roundoff of float64
_UNIT_ROUNDOFF = 2.0**-53

# steps per block of the blocked sequential product in _chain.  Per chunk
# of _CHUNK steps it balances the B - 1 batched matmuls of the block
# products, each over _CHUNK / B matrices, against the _CHUNK / B sequential
# carries across the blocks, and it sets the size of the block products
# that oracle_spectrum keeps, N / B matrices for N steps.  Any other value
# reassociates the product and moves every U(T) at rounding level
_CHAIN_BLOCK = 64

# steps per chunk of the streamed propagation in _propagate, which holds one
# chunk of step factors, O(_CHUNK d^2), at a time.  A whole number of
# _STEP_BLOCK Taylor blocks, and so of _CHAIN_BLOCK chain blocks: every
# factor, block product and carry is then the one that the whole
# (steps, d, d) array would give, bit for bit
_CHUNK = 1024

# largest Frobenius defect ||U^H U - 1|| of U(T) that propagation accepts
UNITARITY_TOL = 1e-12

# (model, {(steps, chunk start): block products}) while an oracle_spectrum
# call runs, so that its propagations of that model form each chunk's block
# products once; None outside such a call, where nothing is kept
_BLOCK_PRODUCTS: contextvars.ContextVar[tuple[FourierHamiltonian, dict] | None] = (
    contextvars.ContextVar("block_products", default=None)
)


@dataclass(frozen=True, eq=False)
class MonodromyResult:
    """U(T) with its eigenphase decomposition.

    eigenphases theta_n in [0, 2*pi) satisfy U(T) v_n = e^{-i theta_n} v_n,
    so the folded quasi-energies are theta_n / T in [0, omega).
    """

    u_matrix: np.ndarray
    eigenphases: np.ndarray
    eigenvectors: np.ndarray
    unitarity_defect: float

    def quasi_energies(self, period: float) -> np.ndarray:
        return self.eigenphases / period


def _real_in_time(h: FourierHamiltonian) -> bool:
    """Whether H(t) is real at every t.

    With H_{-m} = H_m^dagger, H(t)* = sum_m H_m^T e^{+i m omega t}, so H(t)
    is real exactly when every stored H_m is symmetric: the ring, the linear
    drive and a static model, and a quarter-period shift of a real drive
    (H_1 -> i H_1) too, whose H_1 is complex but symmetric.
    """
    return all(np.array_equal(mat, mat.T) for mat in h.harmonics.values())


def _diagonal(x: np.ndarray) -> np.ndarray:
    """A writable view of the diagonals of a C-contiguous (n, d, d) batch."""
    return x.reshape(len(x), -1)[:, :: x.shape[-1] + 1]


def _polynomial(x: np.ndarray, coefs: list[float]) -> np.ndarray:
    """sum_k coefs[k] x^k for a (n, d, d) batch x, by Horner's rule: one
    batched matmul per coefficient beyond the first two, and each scalar
    term added on the diagonals only."""
    if len(coefs) == 1:
        poly = np.zeros_like(x)
    else:
        poly = coefs[-1] * x
        for c in coefs[-2:0:-1]:
            _diagonal(poly)[...] += c
            poly = x @ poly
    _diagonal(poly)[...] += coefs[0]
    return poly


def _step_propagators(
    h: FourierHamiltonian, steps: int, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """Midpoint factors exp(-i H(t_mid) dt) for steps lo..hi-1 of the grid
    of `steps` steps per period (all of them by default), unitary to
    working precision.

    The array is filled with H(t_mid) in place, each step's d*d row
    written by `eval_at_time(t_mid, out=row)` with no matrix made per step,
    then overwritten block by block of _STEP_BLOCK steps by cos B - i sin B
    = exp(-i B), B = dt H(t_mid).  B is float64 when H(t) is real at every
    t (`_real_in_time`), so that every matmul of the two series is real,
    and complex otherwise.
    s squarings bring the block's largest 1-norm of B to at most
    _TAYLOR_THETA; the order p is the smallest whose first dropped term
    (||B||_1 / 2^s)^(p+1) / (p+1)! is at most 2^-53; the even and odd
    Taylor terms up to degree p give cos and sin of B / 2^s by Horner's
    rule in B^2, in p - 1 batched matmuls from p = 2 on (Higham, Functions
    of Matrices, SIAM 2008, ch. 12), and s squarings of C - i S then undo
    the scaling.  The blocks bound the temporaries; with lo a multiple of
    _STEP_BLOCK they are the blocks of the whole grid, so a range gives
    the same factors as the whole grid.
    """
    hi = steps if hi is None else hi
    dt = h.period / steps
    mids = (np.arange(lo, hi) + 0.5) * dt
    out = np.empty((hi - lo, h.dim, h.dim), dtype=complex)
    rows = out.reshape(hi - lo, h.dim * h.dim)
    evaluate = h.eval_at_time
    # Python floats evaluate faster than numpy scalars, to the same bits
    for tm, row in zip(mids.tolist(), rows):
        evaluate(tm, out=row)
    real = _real_in_time(h)
    for start in range(0, hi - lo, _STEP_BLOCK):
        a = out[start : start + _STEP_BLOCK]
        if real:
            b = dt * a.real
        else:
            a *= dt
            b = a
        norm = float(np.abs(b).sum(axis=-2).max())
        squarings = math.ceil(math.log2(norm / _TAYLOR_THETA)) if norm > _TAYLOR_THETA else 0
        if squarings:
            b *= 2.0**-squarings
        scaled = norm / 2.0**squarings
        order = 1
        while scaled ** (order + 1) / math.factorial(order + 1) > _UNIT_ROUNDOFF:
            order += 1
        square = b @ b
        sin = b @ _polynomial(
            square, [(-1) ** k / math.factorial(2 * k + 1) for k in range((order + 1) // 2)]
        )
        # -i sin B goes into a as soon as B is dead, and each del frees a
        # block-sized array once it is dead, so at most three are alive at
        # once and none outlives its block
        del b
        np.multiply(sin, -1j, out=a)
        del sin
        cos = _polynomial(square, [(-1) ** k / math.factorial(2 * k) for k in range(order // 2 + 1)])
        del square
        a += cos
        del cos
        for _ in range(squarings):
            a[...] = a @ a
    return out


def _block_products(factors: np.ndarray) -> np.ndarray:
    """The products F_{bB+B-1} ... F_{bB} of the whole blocks of B =
    _CHAIN_BLOCK steps in factors, shape (N // B, d, d): B - 1 matmuls
    batched over all blocks."""
    full = factors.shape[0] - factors.shape[0] % _CHAIN_BLOCK
    blocks = factors[:full].reshape(-1, _CHAIN_BLOCK, *factors.shape[1:])
    products = blocks[:, 0]
    for k in range(1, _CHAIN_BLOCK):
        products = blocks[:, k] @ products
    return products


def _chain(
    factors: np.ndarray,
    start: np.ndarray,
    samples: np.ndarray | None = None,
    products: np.ndarray | None = None,
) -> np.ndarray:
    """The sequential product F_{N-1} ... F_1 F_0 @ start, blocked.

    factors has shape (N, d, d) and start (d, k).  The first N - N % B steps
    (B = _CHAIN_BLOCK) form whole blocks: their products are those of
    `_block_products`, made here unless given, and the state is carried
    across the block boundaries by one small product per block; the last
    N % B steps run one by one.  With samples of shape (N, d, k), every
    partial product F_j ... F_0 @ start is written to samples[j]: each
    block is filled from its start state by B more matmuls batched over
    blocks.  No partial products of the factors themselves are kept.
    """
    full = factors.shape[0] - factors.shape[0] % _CHAIN_BLOCK
    blocks = factors[:full].reshape(-1, _CHAIN_BLOCK, *factors.shape[1:])
    if products is None:
        products = _block_products(factors)
    starts = np.empty((len(products) + 1, *start.shape), dtype=complex)
    starts[0] = start
    for b, product in enumerate(products):
        starts[b + 1] = product @ starts[b]
    if samples is not None:
        filled = starts[:-1]
        for k in range(_CHAIN_BLOCK):
            filled = blocks[:, k] @ filled
            samples[k:full:_CHAIN_BLOCK] = filled
    cur = starts[-1]
    for j in range(full, factors.shape[0]):
        cur = factors[j] @ cur
        if samples is not None:
            samples[j] = cur
    return cur


def _propagate(
    h: FourierHamiltonian, steps: int, start: np.ndarray, samples: np.ndarray | None = None
) -> np.ndarray:
    """F_{N-1} ... F_1 F_0 @ start over the N = steps factors of one period,
    with samples[j] = F_j ... F_0 @ start as in `_chain`.

    The factors are made (`_step_propagators`) and chained (`_chain`) one
    chunk of _CHUNK steps at a time, the state carried from chunk to chunk,
    so only one chunk of factors is held; the chunk being whole blocks of
    both, the result is that of chaining all N factors at once.  Inside an
    `oracle_spectrum` call on this same model, each chunk's block products
    come from the call's memo, put there by the first propagation that
    reaches the chunk: they depend on the factors alone, which every
    propagation of the model makes bit for bit the same.
    """
    memo = _BLOCK_PRODUCTS.get()
    shared = memo[1] if memo is not None and memo[0] is h else None
    for lo in range(0, steps, _CHUNK):
        hi = min(lo + _CHUNK, steps)
        chunk = None if samples is None else samples[lo:hi]
        factors = _step_propagators(h, steps, lo, hi)
        products = None
        if shared is not None:
            key = (steps, lo)
            if key not in shared:
                shared[key] = _block_products(factors)
            products = shared[key]
        start = _chain(factors, start, chunk, products)
        # freed before the next chunk's factors are made, so one chunk is held
        del factors
    return start


def _monodromy_matrix(h: FourierHamiltonian, steps: int) -> np.ndarray:
    """U(T) as the streamed blocked product of the step factors (only U(T)
    is kept), then one polar step."""
    u = _propagate(h, steps, np.eye(h.dim, dtype=complex))
    # one Newton-Schulz polar step removes the accumulated factor roundoff
    return u @ (3.0 * np.eye(h.dim) - u.conj().T @ u) / 2.0


def _complex_schur(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, Z) with u = Z T Z^H, by zgees as scipy.linalg.schur(u,
    output="complex") calls it: finite input, a workspace query, no sort,
    u kept."""
    u = np.asarray_chkfinite(u)
    zgees = _lapack.lapack.zgees
    lwork = zgees(lambda x: None, u, lwork=-1)[-2][0].real
    schur, _, _, vecs, _, info = zgees(lambda x: None, u, lwork=int(lwork), overwrite_a=0, sort_t=0)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return schur, vecs


def propagate_period(h: FourierHamiltonian) -> MonodromyResult:
    """Monodromy operator U(T) and its eigenphase decomposition.

    The eigenvectors are the complex Schur vectors of U(T), sorted by
    eigenphase: for a unitary matrix the Schur form is diagonal, so they are
    orthonormal eigenvectors, inside degenerate eigenphase clusters too.
    """
    u = _monodromy_matrix(h, STEPS_PER_PERIOD)
    defect = float(np.linalg.norm(u.conj().T @ u - np.eye(h.dim)))
    if defect > UNITARITY_TOL:
        raise PropagationError(
            f"unitarity drift {defect:.3e} exceeds {UNITARITY_TOL:.1e} "
            f"(steps={STEPS_PER_PERIOD}, dim={h.dim})"
        )
    schur, vecs = _complex_schur(u)
    theta = np.mod(-np.angle(np.diag(schur)), 2.0 * np.pi)
    order = np.argsort(theta, kind="stable")
    theta, vecs = theta[order], vecs[:, order]
    return MonodromyResult(
        u_matrix=u, eigenphases=theta, eigenvectors=vecs, unitarity_defect=defect
    )


def propagate_trajectory(h: FourierHamiltonian, initial: np.ndarray) -> np.ndarray:
    """Samples Psi(t_j), j = 0..N = STEPS_PER_PERIOD, on the uniform step grid over one period.

    The samples are the partial products of the step factors applied to
    the initial state, formed by the streamed blocked product of `_propagate`.
    """
    steps = STEPS_PER_PERIOD
    samples = np.empty((steps + 1, h.dim), dtype=complex)
    start = np.asarray(initial, dtype=complex).reshape(h.dim, 1)
    samples[0] = start[:, 0]
    _propagate(h, steps, start, samples[1:, :, None])
    return samples


def mode_from_propagation(
    h: FourierHamiltonian, initial: np.ndarray, eigenphase: float, truncation: int
) -> tuple[FloquetMode, float]:
    """Floquet mode from a propagated monodromy eigenvector.

    The trajectory Psi(t) is rephased to Phi(t) = e^{+i eps t} Psi(t) with
    eps = eigenphase / T, unfolded, then discrete-Fourier-transformed into
    coefficients phi^(m), |m| <= truncation: the eigenphase picks the
    replica, and eps + k omega gives the mode shifted by k harmonics.
    Returns the normalized mode and the tail weight left beyond the
    truncation; a tail above 1e-6 emits a truncation warning (the mode is
    degraded, the eigenphase is not).
    """
    period = h.period
    eps = eigenphase / period
    samples = propagate_trajectory(h, initial)
    n = samples.shape[0] - 1
    tgrid = np.arange(n) * (period / n)
    phi_samples = samples[:n] * np.exp(1j * eps * tgrid)[:, None]
    # Phi(t_j) = sum_m phi^(m) e^{+2 pi i m j / N}  =>  forward FFT / N
    coeffs_all = np.fft.fft(phi_samples, axis=0) / n
    ms = np.arange(-truncation, truncation + 1)
    coeffs = coeffs_all[np.mod(ms, n)]
    total = float(np.sum(np.abs(coeffs_all) ** 2))
    kept = float(np.sum(np.abs(coeffs) ** 2))
    tail = total - kept
    if tail > 1e-6:
        warnings.warn(
            f"Fourier tail weight {tail:.3e} beyond |m| <= {truncation}; "
            f"increase the truncation",
            RuntimeWarning,
            stacklevel=2,
        )
    return FloquetMode(coeffs).normalized(), tail


def time_averaged_energy(h: FourierHamiltonian, trajectory: np.ndarray) -> float:
    """Trapezoid average (1/T) int <Psi(t)|H(t)|Psi(t)> dt over one period.

    The trajectory must hold N+1 samples on the uniform grid including both
    endpoints; the integrand is checked to be periodic at the endpoints, to
    1e-6 relative.  For a strictly periodic integrand the one-period average
    equals the infinite-time average.
    """
    average, integrand = _cross_energy_matrix(h, [np.asarray(trajectory)])
    first, last = integrand[0, 0, [0, -1]].real
    if abs(last - first) > 1e-6 * max(1.0, abs(first)):
        raise PropagationError(
            f"integrand is not periodic at the endpoints: {first:.6e} vs {last:.6e}"
        )
    return float(average[0, 0].real)


def _cross_energy_matrix(
    h: FourierHamiltonian, trajectories: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid matrix (1/T) int <Psi_i(t)|H(t)|Psi_j(t)> dt, Hermitized,
    with its integrand on the N+1 grid nodes, shape (k, k, N+1): the mean
    of the nodes with the two endpoints at half weight.

    H(t_j) is evaluated once per node, written in place into the rows of a
    block of at most _STEP_BLOCK nodes (`eval_at_time(t_j, out=row)`); one
    batched product per block gives H(t_j) Psi_i(t_j) for every
    trajectory i, and that block's nodes of the integrand.
    """
    k, n = len(trajectories), trajectories[0].shape[0] - 1
    tgrid = np.linspace(0.0, h.period, n + 1)
    integrand = np.empty((k, k, n + 1), dtype=complex)
    hblock = np.empty((_STEP_BLOCK, h.dim, h.dim), dtype=complex)
    rows = hblock.reshape(_STEP_BLOCK, h.dim * h.dim)
    evaluate = h.eval_at_time
    for lo in range(0, n + 1, _STEP_BLOCK):
        nodes = tgrid[lo : lo + _STEP_BLOCK]
        for t, row in zip(nodes.tolist(), rows):
            evaluate(t, out=row)
        psi = np.stack([trajectory[lo : lo + nodes.size] for trajectory in trajectories])
        # (nodes, d, d) @ (nodes, d, k) -> H(t_j) Psi_i(t_j), back to (k, nodes, d)
        hpsi = (hblock[: nodes.size] @ psi.transpose(1, 2, 0)).transpose(2, 0, 1)
        integrand[..., lo : lo + nodes.size] = np.einsum("int,jnt->ijn", psi.conj(), hpsi)
    out = (integrand.sum(axis=-1) - 0.5 * (integrand[..., 0] + integrand[..., -1])) / n
    return 0.5 * (out + out.conj().T), integrand


def _wrapped_mean(values: np.ndarray, omega: float) -> float:
    """Group quasi-energy of a `_gap_clusters` cluster of folded values.

    The members are unwrapped relative to the first (a cluster across the
    zone seam lists its members above the seam first), averaged and folded
    by `fold_reported`: the mean raw eigenvalue that `sambe` reports for a
    merged group, and a singleton's own value.
    """
    unwrapped = values + omega * np.round((values[0] - values) / omega)
    return fold_reported(float(np.mean(unwrapped)), omega)


def oracle_spectrum(h: FourierHamiltonian, truncation: int) -> Spectrum:
    """Eigentriplet spectrum from the monodromy route alone.

    Quasi-energies come from the eigenphases of U(T); degenerate eigenphase
    clusters (gaps within sambe.TOL_DEG * omega) are resolved by
    diagonalizing the explicit time-averaged energy matrix within the
    cluster, and every member reports the cluster's wrap-aware mean
    quasi-energy, as `sambe` does.  Each mode is
    taken on the replica that the state's own trapezoid Ebar selects: the
    trajectory is rephased by eps_raw = eps - k omega with
    k = round((eps - Ebar) / omega), so that by eps_raw = Ebar + omega <N>
    its Fourier centroid <N> lies within 1/2 of m = 0, the zone the Sambe
    route keeps.  A level far from 0 (a static offset of many omega) puts
    its weight near m = 0 all the same.  quasi_energy_raw is the cluster's
    quasi-energy on that replica, the multiple of omega from the reported
    one nearest eps_raw.

    The call's propagations of h, U(T) and every trajectory, share the
    block products of each chunk (`_propagate`): (N / _CHAIN_BLOCK) d^2
    complex entries for N steps, held for the length of the call only.
    """
    token = _BLOCK_PRODUCTS.set((h, {}))
    try:
        tol_deg = _tol_deg(h.omega)
        mono = propagate_period(h)
        eps = mono.quasi_energies(h.period)
        clusters = _gap_clusters(eps, tol_deg, h.omega)
        triplets: list[EigenTriplet] = []
        for gid, members in enumerate(sorted(clusters, key=lambda c: eps[np.sort(c)[0]])):
            eps_group = _wrapped_mean(eps[members], h.omega)
            cluster = np.sort(members)
            trajectories = [propagate_trajectory(h, mono.eigenvectors[:, i]) for i in cluster]
            block, _ = _cross_energy_matrix(h, trajectories)
            ebars, rotation = np.linalg.eigh(block)
            theta_group = float(mono.eigenphases[cluster[0]])
            for a in range(cluster.size):
                vec0 = mono.eigenvectors[:, cluster] @ rotation[:, a]
                k = round((theta_group / h.period - ebars[a]) / h.omega)
                mode, tail = mode_from_propagation(
                    h, vec0, theta_group - 2.0 * np.pi * k, truncation
                )
                # the group's quasi-energy on the replica the mode was rephased to
                rephased = theta_group / h.period - k * h.omega
                eps_raw = eps_group + h.omega * round((rephased - eps_group) / h.omega)
                triplets.append(
                    EigenTriplet(
                        mode=mode,
                        quasi_energy=eps_group,
                        avg_energy=float(ebars[a]),
                        quasi_energy_raw=eps_raw,
                        residual=tail,
                        group_id=gid,
                        group_size=cluster.size,
                    )
                )
        triplets.sort(key=lambda t: (t.avg_energy, t.quasi_energy))
        metadata = {
            "truncation": truncation,
            "tol_deg": tol_deg,
            "solver": "monodromy",
            "dim": h.dim,
            "omega": h.omega,
            "steps_per_period": STEPS_PER_PERIOD,
            "unitarity_defect": mono.unitarity_defect,
        }
        return Spectrum(triplets=triplets, metadata=metadata)
    finally:
        _BLOCK_PRODUCTS.reset(token)
