"""Ritz-style variational solver for the average-energy ground state.

The quantity minimized is the one-period averaged energy x^H T x over the
truncated Floquet space, with the quasi-energy stationarity constraint
enforced as a residual penalty and the unit norm as a quadratic penalty:

    F(x) = x^H T x
         + mu_res  * || (S - eps(x)) x ||^2,   eps(x) = x^H S x / x^H x
         + mu_norm * (x^H x - 1)^2
         + mu_orth * sum_b |<u_b, x>|^2        (deflation of known states)

The Sambe matrix is S = T + omega*N with N the diagonal number operator
(m on block m), so S x is one dense T product plus a diagonal scaling, and
the result reports eps_raw = x^H T x + x^H omega N x.  Quasi-energy
stationarity is equivalent to x being an eigenvector of S, so the feasible
set of the penalty formulation is exactly the eigenstate manifold, on
which F reduces to the average energy.  The penalty weight mu_res is grown
tenfold per stage (continuation) until the eigen-residual of the iterate
is below tolerance; the deflation weight is mu_orth = 100.  Each stage is
an unconstrained minimization by trust-region Newton (scipy's trust-exact,
Moré & Sorensen subproblems) with the analytic Hessian below, warm-started
from the previous stage.  The minimizer's residual falls as 1/mu_res, so
after the first stage a Newton step lands each stage in one or two
iterations.

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

So is the Hessian.  In the real search variables y (x itself, n = y^T y)

    d2F/dy2 = 2 T + 2 mu_res [(S - eps)^2 - (4/n) r r^T]
            + 4 mu_norm [(n - 1) I + 2 y y^T] + 2 mu_orth U U^T,

where (S - eps)^2 = T^2 + D T + T D + D^2 with D = diag(omega N - eps), so
with T^2 formed once per workspace each Hessian costs O(n^2).  The complex
search uses the same formula on y = [Re x; Im x], with T and S realified
as [[Re, -Im], [Im, Re]] and U holding the realified pairs (u_b, i u_b).
There F is flat along the global phase, v = i x / |x|, and the Hessian
handed to the solver adds the curvature 8 mu_norm v v^T, the radial
curvature at unit norm: the gradient has no component along v, so the
steps are unchanged, but the Hessian is no longer singular, which keeps
trust-exact off its slow hard-case path.  Degenerate states (a ring's
+k and -k pairs, say) leave other directions in which F is flat to
rounding, or curved and nearly flat: every Hessian gets a diagonal shift of
y.size * eps times its largest diagonal entry, so that it factors, and
each stage stops after STAGE_ITERATIONS Newton iterations, so that a stage
creeping along such a valley hands over to the next, stiffer one.

Two states whose quasi-energies nearly coincide (a 12-site ring has a
pair 6e-7 apart) are separated by the penalty only once mu_res exceeds
their Ebar gap over the square of their quasi-energy gap, and the Newton
stages creep there.  A start that ends its stages unconverged with a
residual below POLISH_RESIDUAL is finished by POLISH_ITERATIONS
Rayleigh-quotient iterations on S, which converge cubically to one state
of such a pair.

Every eigenstate is a local minimum of F at large mu_res, and which one a
start reaches is close to a draw: on a 5-site ring about one random start
in seven reaches the lowest state, so nine independent starts miss it
about a quarter of the time.  A search therefore runs its starts one
after another, each begun orthogonal to and repelling (by the deflation
term) every state the earlier ones reached, so that each start can only
add a new state, and it stops once all d = h.dim Floquet states, the
found ones included, are reached.  Only then is the lowest of them
certainly the answer and the result converged; a search that misses a
state returns the lowest one it reached flagged unconverged, never a
silent wrong answer.  The starts are the static start and random ones, at
most config.restarts more than there are states to reach, so the cost
grows with d.

Deflation covers whole replica ladders: every found mode is orthogonal to
its own harmonic shifts, which carry the same average energy, so
penalizing only the found mode itself would let the minimizer escape to a
replica copy instead of the next triplet.

F is even in x and eps(x) is scale-free, so the origin is a stationary
point at every mu_res; a start whose iterate falls into it cannot leave
and is ended after that stage, unconverged.  Along a unit direction the
radial minimum of F is at the origin whenever its Ebar plus mu_res times
its squared residual plus mu_orth times its weight on the repelled
ladders exceeds 2 mu_norm: true of every random start at mu_res = 1e3,
which survives only because Newton turns it toward an eigenstate faster
than it shrinks.  A start with weight on the repelled ladders lost that
race most of the time, which is why starts begin orthogonal to them.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

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
# Newton iterations per penalty stage: a stage that converges takes at most
# about 25, from a random start; a longer one creeps along a nearly flat
# valley between degenerate states, which the next, stiffer stage settles
STAGE_ITERATIONS = 30
# a start that ends its stages with an eigen-residual below POLISH_RESIDUAL
# sits at a pair of nearly degenerate states, and POLISH_ITERATIONS
# Rayleigh-quotient iterations take it to one of them (on the 12-site ring
# such starts stall near 1e-7 and reach rounding level)
POLISH_RESIDUAL = 1e-5
POLISH_ITERATIONS = 3


@dataclass(frozen=True)
class VariationalConfig:
    mu_res_init: float = 1e3
    mu_res_max: float = 1e12
    mu_norm: float = 10.0
    # an order below the 1e-8 contract so functional-equivalence holds with
    # margin at every converged result
    residual_tol: float = 1e-9
    # Newton iterations per start, summed over its penalty stages; a stage
    # stops after STAGE_ITERATIONS, so a start of the default ten stages
    # runs at most 300 and only a budget below that binds
    max_iterations: int = 2000
    # random starts beyond one per Floquet state still to reach
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


def _realified(a: np.ndarray) -> np.ndarray:
    """[[Re a, -Im a], [Im a, Re a]]: the real matrix acting on [Re x; Im x]
    as a acts on x."""
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


class _Workspace:
    """Dense T and the diagonal omega*N, plus the objective, gradient and
    Hessian evaluations; S x is applied as t @ x + wn * x.

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
        self.wn_search = self.wn if self.real else np.concatenate([self.wn, self.wn])
        self.deflate(deflation)

    def deflate(self, deflation: np.ndarray | None) -> None:
        """Set the columns to repel (None for none); a real search keeps
        their real part, which is all of them (see `real`)."""
        self.deflation = deflation.real if self.real and deflation is not None else deflation
        self.__dict__.pop("orth_hessian", None)  # formed again on first use

    # The Hessian works in the search variables: on the real x, or realified
    # on [Re x; Im x], where the columns of a realified deflation basis are
    # the pairs (u, i u).  Its matrices are formed on first use, so that
    # `objective` does not pay for T^2.

    @cached_property
    def t_search(self) -> np.ndarray:
        return self.t if self.real else _realified(self.t)

    @cached_property
    def t_sq(self) -> np.ndarray:
        return self.t_search @ self.t_search

    @cached_property
    def orth_hessian(self) -> np.ndarray | None:
        if self.deflation is None or not self.deflation.shape[1]:
            return None
        u = self.deflation if self.real else _realified(self.deflation)
        return 2.0 * MU_ORTH * (u @ u.T)

    def value_and_gradient(
        self, x: np.ndarray, mu_res: float
    ) -> tuple[float, np.ndarray]:
        cfg = self.config
        n = float(np.real(np.vdot(x, x)))
        if n == 0.0:  # the origin, a stationary point, has no Rayleigh quotient
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
        """The objective the Newton solver sees: over x itself when the
        search is real (the real gradient is 2 dF/d(x*)), else
        `real_objective`; its Hessian is `search_hessian`."""
        if not self.real:
            return self.real_objective(y, mu_res)
        value, g = self.value_and_gradient(y, mu_res)
        return value, 2.0 * g

    def search_hessian(self, y: np.ndarray, mu_res: float) -> np.ndarray:
        """Hessian of `search_objective` in the search variables, plus the
        curvature 8 mu_norm v v^T along the global phase v = i x / |x| in the
        complex search, where F itself is flat, and a diagonal shift at the
        rounding level of the largest entry (see module docstring)."""
        mu_norm = self.config.mu_norm
        q = float(y @ y)
        t = self.t_search
        sy = t @ y + self.wn_search * y
        eps = float(y @ sy) / q if q else 0.0
        d = self.wn_search - eps
        # 2T + 2 mu (S - eps)^2 with (S - eps)^2 = T^2 + D T + T D + D^2,
        # D = diag(omega N - eps): the first three terms as one Hadamard
        # product, D^2 on the diagonal below
        a = 2.0 * mu_res * d + 1.0
        hess = np.add.outer(a, a)
        hess *= t
        hess += (2.0 * mu_res) * self.t_sq
        hess[np.diag_indices_from(hess)] += 2.0 * mu_res * d * d + 4.0 * mu_norm * (q - 1.0)
        # rank-one terms: -(8 mu / q) r r^T, 8 mu_norm y y^T and, in the
        # complex search, the phase term (8 mu_norm / q) v v^T
        cols = [y]
        weights = [8.0 * mu_norm]
        if q:
            cols.append(sy - eps * y)
            weights.append(-8.0 * mu_res / q)
            if not self.real:
                cols.append(self.pack(1j * self.unpack(y)))
                weights.append(8.0 * mu_norm / q)
        u = np.stack(cols, axis=1)
        hess += (u * weights) @ u.T
        if self.orth_hessian is not None:
            hess += self.orth_hessian
        # rounding-level shift, so that a Hessian singular to rounding
        # factors without trust-exact's hard-case search
        shift = y.size * np.finfo(float).eps * np.abs(hess.diagonal()).max()
        hess[np.diag_indices_from(hess)] += shift
        return hess

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

    config.max_iterations is the total budget of Newton iterations across
    all continuation stages of this start.  A start that ends nearly
    converged is polished by `_rayleigh_polish`, which the trace, a record
    of the stages, leaves out.
    """
    y = ws.pack(x0)
    mu = config.mu_res_init
    trace: list[dict] = []
    converged = False
    remaining = config.max_iterations
    while True:
        # trust-region Newton on the analytic Hessian: on the 3-site ring at
        # M = 8 L-BFGS-B took 35-250 iterations per stage and spent three
        # quarters of the search inside scipy; Newton lands every stage after
        # the first in one or two iterations.  At large mu the gradient
        # cannot reach gtol in floating point, and the stage ends once the
        # quadratic model predicts no further decrease.
        res = minimize(
            ws.search_objective,
            y,
            args=(mu,),
            jac=True,
            hess=ws.search_hessian,
            method="trust-exact",
            options={"gtol": 1e-10, "maxiter": min(remaining, STAGE_ITERATIONS)},
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
        # a start that has fallen into the origin stays there (see module
        # docstring)
        collapsed = float(y @ y) <= np.finfo(float).eps
        if mu >= config.mu_res_max or remaining <= 0 or collapsed:
            break
        mu *= 10.0
    if not converged and residual <= POLISH_RESIDUAL:
        x = _rayleigh_polish(ws, x)
        converged = ws.residual_of(x) <= config.residual_tol
    return x, converged, trace


def _rayleigh_polish(ws: _Workspace, x: np.ndarray) -> np.ndarray:
    """Rayleigh-quotient iterations on S from x (see module docstring)."""
    s = ws.t + np.diag(ws.wn)
    for _ in range(POLISH_ITERATIONS):
        x = x / np.linalg.norm(x)
        eps = float(np.real(np.vdot(x, s @ x)))
        try:
            x = np.linalg.solve(s - eps * np.eye(ws.size), x)
        except np.linalg.LinAlgError:
            break
    return x / np.linalg.norm(x)


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


def _starts(
    h: FourierHamiltonian, truncation: int, config: VariationalConfig, level: int, real: bool
) -> Iterator[tuple[np.ndarray, int | None]]:
    """The static start, then random starts of seeds config.seed, +1, ...:
    one for each state still to find and config.restarts more."""
    yield _static_start(h, truncation, level, real), None
    for i in range(h.dim - level - 1 + config.restarts):
        seed = config.seed + i
        yield _random_start(np.random.default_rng(seed), truncation, h.dim, real), seed


def _search(
    h: FourierHamiltonian,
    truncation: int,
    config: VariationalConfig,
    found: list[FloquetMode],
) -> VariationalResult:
    if len(found) >= h.dim:
        raise ValueError(f"all {h.dim} Floquet states are already found")
    ws = _Workspace(h, truncation, config, _deflation_basis(found))
    states: list[VariationalResult] = []  # one per Floquet state reached
    stalled: list[VariationalResult] = []
    repeats: list[VariationalResult] = []
    for x0, seed in _starts(h, truncation, config, len(found), ws.real):
        known = found + [r.mode for r in states]
        if len(known) == h.dim:
            break
        # each start repels every state reached so far, so that it can only
        # add a new one
        ws.deflate(_deflation_basis(known))
        if known:
            x0 = _orthogonal_start(x0, ws.deflation)
        x, ok, trace = _minimize_one(ws, x0, config)
        candidate = _finish(ws, x, ok, trace, seed)
        if not ok:
            stalled.append(candidate)
        elif known and _weight_on(ws.deflation, candidate) > 0.5:
            repeats.append(candidate)  # converged onto a repelled ladder
        else:
            states.append(candidate)
    if len(found) + len(states) == h.dim:
        # every Floquet state is reached, so the lowest is the answer
        return min(states, key=lambda r: r.avg_energy)
    # never a silent wrong answer: with a state missed, even the lowest one
    # reached may not be the answer; return it, or failing that the start
    # closest to convergence, flagged
    if states:
        best = min(states, key=lambda r: r.avg_energy)
    else:
        best = min(stalled or repeats, key=lambda r: r.residual)
    best.converged = False
    return best


def _orthogonal_start(x0: np.ndarray, basis: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(basis)
    x = x0 - q @ (q.conj().T @ x0)
    return x / np.linalg.norm(x)


def _weight_on(basis: np.ndarray, result: VariationalResult) -> float:
    proj = basis.conj().T @ result.mode.flat()
    return float(np.real(np.vdot(proj, proj)))


def minimize_ground(
    h: FourierHamiltonian,
    truncation: int,
    config: VariationalConfig = VariationalConfig(),
) -> VariationalResult:
    """Lowest average-energy triplet by penalized minimization.

    Runs starts one after another, each repelling the states the earlier
    ones reached, until all h.dim Floquet states are reached, and returns
    the lowest; the starts are the deterministic static start and random
    ones, at most config.restarts more than there are states.  If a state
    is missed the result has converged=False (see `_search`).
    """
    return _search(h, truncation, config, [])


def minimize_excited(
    h: FourierHamiltonian,
    truncation: int,
    config: VariationalConfig = VariationalConfig(),
    found: list[FloquetMode] | None = None,
) -> VariationalResult:
    """Next triplet above the given mutually-orthonormal found modes: the
    lowest of the other h.dim - len(found) states, reached as in
    `minimize_ground`.  Raises ValueError when found holds h.dim modes."""
    return _search(h, truncation, config, list(found or []))
