"""Ritz-style variational solver for the average-energy ground state.

The quantity minimized is the one-period averaged energy x^H T x over the
truncated Floquet space, with the quasi-energy stationarity constraint
enforced as a residual penalty and the unit norm as a quadratic penalty:

    F(x) = x^H T x
         + mu_res  * || (S - eps(x)) x ||^2,   eps(x) = x^H S x / x^H x
         + mu_norm * (x^H x - 1)^2
         + mu_orth * sum_b |<u_b, x>|^2        (deflation, excited states)

The Sambe matrix is S = T + omega*N with N the diagonal number operator
(m on block m), so S x is one dense T product plus a diagonal scaling, and
the result reports eps_raw = x^H T x + x^H omega N x.  Quasi-energy
stationarity is equivalent to x being an eigenvector of S, so the feasible
set of the penalty formulation is exactly the eigenstate manifold, on
which F reduces to the average energy.  The penalty weight mu_res is grown
tenfold per stage (continuation) until the eigen-residual of the iterate
is below tolerance; the deflation weight is mu_orth = 100.  Each stage is
an unconstrained minimization by limited-memory BFGS (scipy's L-BFGS-B
without bounds, 30 stored correction pairs), warm-started from the previous
stage.

The search runs over a real x of length n when the model is real (every H_m
real, so `build_energy_matrix` returns a float64 T) and the deflation basis
is absent or exactly real; otherwise it runs over the real and imaginary
parts of x, 2n unknowns.  The real search is exact, not an approximation:
with S and T real symmetric every eigenspace of S has a real orthonormal
basis V, and on it the average energy c^H (V^T T V) c of x = V c is
minimized by a real c, so the real minimum is the complex one.  It also
drops the flat global-phase direction of the complex search.  A complex
deflation basis (say a found mode that is a complex mix inside a
degenerate eigenspace) breaks that argument and keeps the complex search.

The gradient is analytic.  With eps(x) the Rayleigh quotient, the residual
r = (S - eps) x is orthogonal to x, which collapses the chain-rule term,
leaving the Wirtinger gradient

    dF/d(x*) = T x + mu_res (S - eps) r + 2 mu_norm (n - 1) x + mu_orth P x.

Deflation covers whole replica ladders: every found mode is orthogonal to
its own harmonic shifts, which carry the same average energy, so
penalizing only the found mode itself would let the minimizer escape to a
replica copy instead of the next triplet.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .model import FourierHamiltonian
from .sambe import (
    FloquetMode,
    _number_diagonal,
    _record,
    _replica_ladder,
    build_energy_matrix,
    fold_reported,
)

MU_ORTH = 100.0
# inner solve per penalty stage; no bounds, so L-BFGS-B is plain L-BFGS
LBFGS_OPTIONS = {"maxcor": 30, "gtol": 1e-10, "ftol": 1e-15}


@dataclass(frozen=True)
class VariationalConfig:
    mu_res_init: float = 1e3
    mu_res_max: float = 1e12
    mu_norm: float = 10.0
    # an order below the 1e-8 contract so functional-equivalence holds with
    # margin at every converged result
    residual_tol: float = 1e-9
    max_iterations: int = 2000
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        # `not (0 < v < inf)` also refuses nan, which every comparison fails
        for name in ("mu_res_init", "mu_res_max", "mu_norm", "residual_tol"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.mu_res_max < self.mu_res_init:
            raise ValueError("mu_res_max must be >= mu_res_init")
        for name in ("max_iterations", "restarts"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")


@dataclass(eq=False)
class VariationalResult:
    mode: FloquetMode
    quasi_energy: float
    avg_energy: float
    residual: float
    converged: bool
    seed: int | None = None
    trace: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return _record(self)


class _Workspace:
    """Dense T and the diagonal omega*N, plus the objective/gradient
    evaluations; S x is applied as t @ x + wn * x.

    `real` says whether the search runs over a real x (see the module
    docstring): then T and the deflation basis are held float64.  For the
    complex search T is held complex even for a real model, since a complex
    T times a complex vector is faster than a real T times one."""

    def __init__(
        self,
        h: FourierHamiltonian,
        truncation: int,
        config: VariationalConfig,
        deflation: np.ndarray | None = None,
    ):
        self.h = h
        self.truncation = truncation
        self.config = config
        t = build_energy_matrix(h, truncation)
        self.real = t.dtype == np.float64 and (
            deflation is None or not deflation.imag.any()
        )
        self.t = t if self.real else t.astype(complex, copy=False)
        self.wn = h.omega * _number_diagonal(truncation, h.dim)
        self.size = self.t.shape[0]
        # columns to repel, or None
        self.deflation = deflation.real if self.real and deflation is not None else deflation

    def value_and_gradient(
        self, x: np.ndarray, mu_res: float
    ) -> tuple[float, np.ndarray]:
        cfg = self.config
        n = float(np.real(np.vdot(x, x)))
        if n == 0.0:  # line searches may probe the origin, a stationary point
            return cfg.mu_norm, np.zeros_like(x)
        tx = self.t @ x
        sx = tx + self.wn * x
        eps = float(np.real(np.vdot(x, sx))) / n
        r = sx - eps * x
        value = float(np.real(np.vdot(x, tx)))
        value += mu_res * float(np.real(np.vdot(r, r)))
        value += cfg.mu_norm * (n - 1.0) ** 2
        grad = tx + mu_res * (self.t @ r + (self.wn - eps) * r)
        grad += 2.0 * cfg.mu_norm * (n - 1.0) * x
        if self.deflation is not None and self.deflation.shape[1]:
            proj = self.deflation.conj().T @ x
            value += MU_ORTH * float(np.real(np.vdot(proj, proj)))
            grad = grad + MU_ORTH * (self.deflation @ proj)
        return value, grad

    def real_objective(self, y: np.ndarray, mu_res: float) -> tuple[float, np.ndarray]:
        x = y[: self.size] + 1j * y[self.size :]
        value, g = self.value_and_gradient(x, mu_res)
        return value, np.concatenate([2.0 * g.real, 2.0 * g.imag])

    def search_objective(self, y: np.ndarray, mu_res: float) -> tuple[float, np.ndarray]:
        """The objective L-BFGS sees: over x itself when the search is real
        (the real gradient is 2 dF/d(x*)), else `real_objective`."""
        if not self.real:
            return self.real_objective(y, mu_res)
        value, g = self.value_and_gradient(y, mu_res)
        return value, 2.0 * g

    def pack(self, x: np.ndarray) -> np.ndarray:
        return x.real if self.real else np.concatenate([x.real, x.imag])

    def unpack(self, y: np.ndarray) -> np.ndarray:
        return y if self.real else y[: self.size] + 1j * y[self.size :]

    def residual_of(self, x: np.ndarray) -> float:
        x = x / np.linalg.norm(x)
        sx = self.t @ x + self.wn * x
        eps = float(np.real(np.vdot(x, sx)))
        return float(np.linalg.norm(sx - eps * x))


def objective(
    mode: FloquetMode,
    h: FourierHamiltonian,
    config: VariationalConfig = VariationalConfig(),
    found: list[FloquetMode] | None = None,
) -> float:
    """Penalty objective F at a mode (see module docstring).

    At any exact eigenstate the penalties vanish and the value is the
    average energy itself.
    """
    ws = _Workspace(h, mode.truncation, config, _deflation_basis(found))
    value, _ = ws.value_and_gradient(mode.flat(), config.mu_res_init)
    return value


def _deflation_basis(found: list[FloquetMode] | None) -> np.ndarray | None:
    """Found modes with their replica shifts that lose at most 1e-6, as columns."""
    return _replica_ladder(found, 1e-6)[0] if found else None


def _random_start(
    rng: np.random.Generator, truncation: int, dim: int, real: bool
) -> np.ndarray:
    """Random mode with weight filtered toward small harmonic indices; for a
    real search, the real part of the same draw, so the seed names the start."""
    ms = np.arange(-truncation, truncation + 1)
    envelope = np.exp(-((ms / max(1.0, truncation / 3.0)) ** 2))
    coeffs = rng.normal(size=(2 * truncation + 1, dim)) + 1j * rng.normal(
        size=(2 * truncation + 1, dim)
    )
    if real:
        coeffs = coeffs.real
    coeffs *= envelope[:, None]
    x = coeffs.reshape(-1)
    return x / np.linalg.norm(x)


def _static_start(
    h: FourierHamiltonian, truncation: int, level: int, real: bool
) -> np.ndarray:
    """Deterministic start: eigenvector #level of H_0 placed at m = 0 (of
    Re H_0, a real vector, for a real search)."""
    h0 = h.harmonics.get(0, np.zeros((h.dim, h.dim), dtype=complex))
    _, vecs = np.linalg.eigh(h0.real if real else h0)
    mode = FloquetMode.from_block(vecs[:, level % h.dim], 0, truncation)
    return mode.flat()


def _minimize_one(
    ws: _Workspace, x0: np.ndarray, config: VariationalConfig
) -> tuple[np.ndarray, bool, list[dict]]:
    """Penalty continuation from one start; returns (x, converged, trace).

    config.max_iterations is the total quasi-Newton budget across all
    continuation stages of this start.
    """
    y = ws.pack(x0)
    mu = config.mu_res_init
    trace: list[dict] = []
    converged = False
    remaining = config.max_iterations
    while True:
        # limited-memory BFGS: on the 3-site ring at M = 8 (102 real
        # parameters in the complex search) dense BFGS spent 1.5 s of a 1.8 s
        # ground state inside scipy, outside the objective; L-BFGS-B spends
        # 0.5 s, meets the same residual tolerance, and still returns cleanly
        # when the line search stalls at mu_res_max
        res = minimize(
            ws.search_objective,
            y,
            args=(mu,),
            jac=True,
            method="L-BFGS-B",
            options=LBFGS_OPTIONS | {"maxiter": remaining},
        )
        y = res.x
        x = ws.unpack(y)
        residual = ws.residual_of(x)
        trace.append(
            {
                "mu_res": mu,
                "objective": float(res.fun),
                "residual": residual,
                "iterations": int(res.nit),
            }
        )
        remaining -= max(1, int(res.nit))
        if residual <= config.residual_tol:
            converged = True
            break
        if mu >= config.mu_res_max or remaining <= 0:
            break
        mu *= 10.0
    return x, converged, trace


def _finish(
    ws: _Workspace, x: np.ndarray, converged: bool, trace: list[dict], seed: int | None
) -> VariationalResult:
    x = x / np.linalg.norm(x)
    mode = FloquetMode.from_flat(x, ws.h.dim)
    ebar = float(np.real(np.vdot(x, ws.t @ x)))
    eps_raw = ebar + float(np.dot(ws.wn, np.abs(x) ** 2))
    return VariationalResult(
        mode=mode,
        quasi_energy=fold_reported(eps_raw, ws.h.omega),
        avg_energy=ebar,
        residual=ws.residual_of(x),
        converged=converged,
        seed=seed,
        trace=trace,
    )


def _search(
    h: FourierHamiltonian,
    truncation: int,
    config: VariationalConfig,
    found: list[FloquetMode] | None,
) -> VariationalResult:
    deflation = _deflation_basis(found)
    ws = _Workspace(h, truncation, config, deflation)
    level = len(found) if found else 0
    starts: list[tuple[np.ndarray, int | None]] = [
        (_static_start(h, truncation, level, ws.real), None)
    ]
    for i in range(config.restarts):
        seed = config.seed + i
        rng = np.random.default_rng(seed)
        starts.append((_random_start(rng, truncation, h.dim, ws.real), seed))
    results: list[VariationalResult] = []
    collapsed: list[VariationalResult] = []
    for x0, seed in starts:
        x, ok, trace = _minimize_one(ws, x0, config)
        candidate = _finish(ws, x, ok, trace, seed)
        if found and ok:
            # reject collapses onto already-found ladders
            proj = deflation.conj().T @ candidate.mode.flat()
            if float(np.real(np.vdot(proj, proj))) > 0.5:
                collapsed.append(candidate)
                continue
        results.append(candidate)
    converged = [r for r in results if r.converged]
    if converged:
        return min(converged, key=lambda r: r.avg_energy)
    # never a silent wrong answer: return the best remaining trace, flagged
    if not results:
        best = min(collapsed, key=lambda r: r.residual)
        best.converged = False
        return best
    return min(results, key=lambda r: r.residual)


def minimize_ground(
    h: FourierHamiltonian,
    truncation: int,
    config: VariationalConfig = VariationalConfig(),
) -> VariationalResult:
    """Lowest average-energy triplet by penalized minimization.

    Runs the deterministic static start plus config.restarts random
    restarts and returns the lowest converged result; if nothing converges
    the best non-converged candidate is returned with converged=False.
    """
    return _search(h, truncation, config, None)


def minimize_excited(
    h: FourierHamiltonian,
    truncation: int,
    config: VariationalConfig = VariationalConfig(),
    found: list[FloquetMode] | None = None,
) -> VariationalResult:
    """Next triplet above the given mutually-orthonormal found modes."""
    return _search(h, truncation, config, list(found or []))
