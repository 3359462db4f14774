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
which F reduces to the average energy.  The weights are constants of the
method, not inputs: mu_res starts at MU_RES_INIT = 1e3 and grows from
stage to stage (continuation), up to MU_RES_MAX = 1e12, until the
eigen-residual of the iterate is at most RESIDUAL_TOL = 1e-9; mu_norm =
MU_NORM = 10 and mu_orth = MU_ORTH = 100.  Each stage is an unconstrained
minimization by trust-region Newton with Moré & Sorensen subproblems and
the analytic Hessian below, warm-started from the previous stage:
`minimize` (module `_trust_region`), on Cholesky factors from LAPACK.

The minimizer's residual falls as 1/mu_res, as the constraint of a
quadratic penalty does, c(x_mu) ~ -lambda*/mu (Nocedal & Wright, Numerical
Optimization, 2nd ed., sec. 17.1; extrapolation along the penalty
trajectory goes back to Fiacco & McCormick's SUMT, 1968), and a Newton
step lands each stage after the first in one or two iterations.  So the
schedule extrapolates: once mu_res times the residual holds within a
factor STEADY_RATIO = 1.5 of the previous stage's, the next stage runs at
the mu_res that law predicts brings the residual to JUMP_TARGET = 1/10 of
RESIDUAL_TOL, at least ten times the last; otherwise (after the first
stage, at a creeping near-degenerate pair, after a jump that fell short)
mu_res grows tenfold.  Either step is capped at MU_RES_MAX, so the last
stage of a start that does not converge runs at MU_RES_MAX.

Everything is computed in real search variables y, chosen once per
workspace: y = x when the model is real (every H_m real, so
`build_energy_matrix` returns a float64 T) and the deflation basis is
absent or exactly real, else y = [Re x; Im x].  There T is held realified,
[[Re T, -Im T], [Im T, Re T]], omega N twice, and each deflation column u
as the pair [Re u; Im u], [-Im u; Re u] (u and i u), so that F has one real
form: x^H T x = y^T T y, x^H x = y^T y, sum_b |<u_b, x>|^2 = |U^T y|^2.
The real search is exact, not an approximation: with S and T real symmetric every
eigenspace of S has a real orthonormal basis V, and on it the average
energy c^H (V^T T V) c of x = V c is minimized by a real c, so the real
minimum is the complex one.  It also drops the flat global-phase direction
of the complex search.  A complex deflation basis (say a found mode that is
a complex mix inside a degenerate eigenspace) breaks that argument and
keeps the complex search.

The gradient and Hessian are analytic.  With eps(y) the Rayleigh quotient,
the residual r = (S - eps) y is orthogonal to y, which collapses the
chain-rule term; with q = y^T y

    dF/dy   = 2 [T y + mu_res (S - eps) r + 2 mu_norm (q - 1) y + mu_orth U U^T y],
    d2F/dy2 = 2 T + 2 mu_res [(S - eps)^2 - (4/q) r r^T]
            + 4 mu_norm [(q - 1) I + 2 y y^T] + 2 mu_orth U U^T,

where (S - eps)^2 = T^2 + D T + T D + D^2 with D = diag(omega N - eps), so
with T^2 formed once per workspace each Hessian costs O(n^2).  In the
complex search F is flat along the global phase, v = pack(i x) / |x|, and
the Hessian handed to the solver adds the curvature 8 mu_norm v v^T, the
radial curvature at unit norm: the gradient has no component along v, so
the steps are unchanged, but the Hessian is no longer singular, which keeps
the Newton stage off its hard-case path, where each trial shift adds an
inverse-iteration solve.  Degenerate states (a ring's
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
found ones included, are reached, or, in a ground search at the certified
cutoff, once the trace sum rule proves that no state left can be lower
(`minimize_ground`).  Only then is the lowest of them certainly the
answer and the result converged; a search that misses a state returns the
lowest one it reached flagged unconverged, never a silent wrong answer.
A converged start counts only if it is a physical state: an eigenvector
of the truncated S can be a replica cut by the truncation edge, whose Ebar
is no state's, so a start is rejected when the shift to its replica with
centroid in [-1/2, 1/2) loses more than REPLICA_LOSS_TOL of weight past
the edge.  The starts are the static start and random ones, at most
config.restarts more than there are states to reach, so the cost grows
with d.

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

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._config import VariationalConfig
from ._trust_region import minimize
from .model import FourierHamiltonian
from .sambe import (
    FloquetMode,
    _number_diagonal,
    _record,
    _replica_ladder,
    build_energy_matrix,
    certify_truncation,
    fold_reported,
)

# the penalty schedule (module docstring, `_next_mu`): mu_res from 1e3 up to
# 1e12, tenfold per stage until mu_res times the residual holds within
# STEADY_RATIO from one stage to the next, then straight to the stage whose
# 1/mu_res residual is JUMP_TARGET * RESIDUAL_TOL; RESIDUAL_TOL is an order
# below the 1e-8 contract so that functional equivalence holds with margin
# at every converged result
MU_RES_INIT = 1e3
MU_RES_MAX = 1e12
STEADY_RATIO = 1.5
JUMP_TARGET = 0.1
MU_NORM = 10.0
MU_ORTH = 100.0
RESIDUAL_TOL = 1e-9
# Newton iterations per penalty stage: a stage that converges takes at most
# about 25, from a random start; a longer one creeps along a nearly flat
# valley between degenerate states, which the next, stiffer stage settles
STAGE_ITERATIONS = 30
# gradient norm that ends a stage; at large mu_res the gradient cannot
# reach it in floating point, and the stage ends once the quadratic model
# predicts no further decrease
STAGE_GTOL = 1e-10
# a start that ends its stages with an eigen-residual below POLISH_RESIDUAL
# sits at a pair of nearly degenerate states, and POLISH_ITERATIONS
# Rayleigh-quotient iterations take it to one of them (on the 12-site ring
# such starts stall near 1e-7 and reach rounding level)
POLISH_RESIDUAL = 1e-5
POLISH_ITERATIONS = 3
# a converged state that loses more weight than this in the shift to the
# centroid zone is cut by the truncation edge: the root of the weight cut,
# about its relative residual in the untruncated space, is held to 1e-6
REPLICA_LOSS_TOL = 1e-12


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
    """T, omega*N and the deflation basis in the search variables y (see
    the module docstring), with the objective, gradient and Hessian; S y is
    t @ y + wn * y.  `real` says whether y is x itself, else [Re x; Im x];
    `complex_search` asks for the latter whatever the model."""

    def __init__(
        self,
        h: FourierHamiltonian,
        truncation: int,
        deflation: np.ndarray | None = None,
        complex_search: bool = False,
    ):
        self.h = h
        t = build_energy_matrix(h, truncation)
        wn = h.omega * _number_diagonal(truncation, h.dim)
        self.real = not complex_search and t.dtype == np.float64 and (
            deflation is None or not deflation.imag.any()
        )
        self.t = t if self.real else _realified(t)
        self.wn = wn if self.real else np.concatenate([wn, wn])
        self.deflate(deflation)

    def deflate(self, deflation: np.ndarray | None) -> None:
        """Set the columns u to repel (None for none): in a real search
        their real part, which is all of them (see `real`), else the pairs
        pack(u), pack(i u), which span the complex line of u."""
        if deflation is not None:
            deflation = deflation.real if self.real else _realified(deflation)
        self.deflation = deflation
        self.__dict__.pop("orth_hessian", None)  # formed again on first use

    # The Hessian's fixed matrices are formed on first use, so that
    # `objective` does not pay for T^2.

    @cached_property
    def t_sq(self) -> np.ndarray:
        return self.t @ self.t

    @cached_property
    def orth_hessian(self) -> np.ndarray | None:
        if self.deflation is None:
            return None
        return 2.0 * MU_ORTH * (self.deflation @ self.deflation.T)

    def search_objective(self, y: np.ndarray, mu_res: float) -> tuple[float, np.ndarray]:
        """F and its gradient in the search variables (2 dF/d(x*), packed);
        its Hessian is `search_hessian`."""
        q = float(y @ y)
        if q == 0.0:  # the origin, a stationary point, has no Rayleigh quotient
            return MU_NORM, np.zeros_like(y)
        ty = self.t @ y
        sy = ty + self.wn * y
        eps = float(y @ sy) / q
        r = sy - eps * y
        value = float(y @ ty) + mu_res * float(r @ r) + MU_NORM * (q - 1.0) ** 2
        grad = ty + mu_res * (self.t @ r + (self.wn - eps) * r)
        grad += 2.0 * MU_NORM * (q - 1.0) * y
        if self.deflation is not None:
            proj = self.deflation.T @ y
            value += MU_ORTH * float(proj @ proj)
            grad = grad + MU_ORTH * (self.deflation @ proj)
        return value, 2.0 * grad

    def search_hessian(self, y: np.ndarray, mu_res: float) -> np.ndarray:
        """Hessian of `search_objective` in the search variables, plus the
        curvature 8 mu_norm v v^T along the global phase v = i x / |x| in the
        complex search, where F itself is flat, and a diagonal shift at the
        rounding level of the largest entry, both of which keep a Hessian
        that is singular to rounding off the Newton stage's hard case (see
        module docstring)."""
        q = float(y @ y)
        t = self.t
        sy = t @ y + self.wn * y
        eps = float(y @ sy) / q if q else 0.0
        d = self.wn - eps
        # 2T + 2 mu (S - eps)^2 with (S - eps)^2 = T^2 + D T + T D + D^2,
        # D = diag(omega N - eps): the first three terms as one Hadamard
        # product, D^2 on the diagonal below
        a = 2.0 * mu_res * d + 1.0
        hess = np.add.outer(a, a)
        hess *= t
        hess += (2.0 * mu_res) * self.t_sq
        diag = hess.reshape(-1)[:: hess.shape[0] + 1]  # the diagonal, as a view
        diag += 2.0 * mu_res * d * d + 4.0 * MU_NORM * (q - 1.0)
        # rank-one terms: -(8 mu / q) r r^T, 8 mu_norm y y^T and, in the
        # complex search, the phase term (8 mu_norm / q) v v^T
        cols = [y]
        weights = [8.0 * MU_NORM]
        if q:
            cols.append(sy - eps * y)
            weights.append(-8.0 * mu_res / q)
            if not self.real:
                cols.append(self.pack(1j * self.unpack(y)))
                weights.append(8.0 * MU_NORM / q)
        u = np.stack(cols, axis=1)
        hess += (u * weights) @ u.T
        if self.orth_hessian is not None:
            hess += self.orth_hessian
        # rounding-level shift, so that a Hessian singular to rounding
        # factors
        diag += y.size * np.finfo(float).eps * np.abs(diag).max()
        return hess

    def pack(self, x: np.ndarray) -> np.ndarray:
        return x.real if self.real else np.concatenate([x.real, x.imag])

    def unpack(self, y: np.ndarray) -> np.ndarray:
        return y if self.real else y[: y.size // 2] + 1j * y[y.size // 2 :]

    def residual_of(self, y: np.ndarray) -> float:
        y = y / np.linalg.norm(y)
        sy = self.t @ y + self.wn * y
        eps = float(y @ sy)
        return float(np.linalg.norm(sy - eps * y))


def objective(
    mode: FloquetMode,
    h: FourierHamiltonian,
    found: list[FloquetMode] | None = None,
) -> float:
    """Penalty objective F at a mode (see module docstring), at mu_res =
    MU_RES_INIT.

    At any exact eigenstate the penalties vanish and the value is the
    average energy itself.
    """
    # the mode may be complex on a real model: search space [Re x; Im x]
    ws = _Workspace(h, mode.truncation, _deflation_basis(found), complex_search=True)
    value, _ = ws.search_objective(ws.pack(mode.flat()), MU_RES_INIT)
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
    x = np.zeros((2 * truncation + 1, h.dim), dtype=vecs.dtype)
    x[truncation] = vecs[:, level % h.dim]
    return x.reshape(-1)


def _next_mu(mu: float, scaled: float, previous: float | None) -> float:
    """mu_res of the stage after an unconverged one at mu whose mu_res times
    residual is scaled, the previous stage's being previous (None after the
    first stage).  Where the two agree within STEADY_RATIO the residual
    follows its 1/mu_res law, and the next stage is the one that law puts at
    JUMP_TARGET * RESIDUAL_TOL; else, or if that is nearer, ten times mu.
    Never above MU_RES_MAX."""
    step = 10.0 * mu
    if previous is not None and previous / STEADY_RATIO <= scaled <= previous * STEADY_RATIO:
        step = max(step, scaled / (JUMP_TARGET * RESIDUAL_TOL))
    return min(step, MU_RES_MAX)


def _minimize_one(ws: _Workspace, y: np.ndarray) -> tuple[np.ndarray, bool, list[dict]]:
    """Penalty continuation from one start y in the search variables;
    returns (y, converged, trace).

    Each stage runs at most STAGE_ITERATIONS Newton iterations, and
    `_next_mu` picks the next stage's mu_res: tenfold, or, once the
    residual follows its 1/mu_res law, straight to the stage that law says
    converges.  A start that ends nearly converged is polished by
    `_rayleigh_polish`, which the trace, a record of the stages, leaves out.
    """
    mu = MU_RES_INIT
    previous = None  # mu_res times the residual, one stage back
    trace: list[dict] = []
    converged = False
    while True:
        # trust-region Newton on the analytic Hessian: on the 3-site ring at
        # M = 8 L-BFGS-B took 35-250 iterations per stage and spent three
        # quarters of the search inside scipy; Newton lands every stage after
        # the first in one or two iterations.  The stage is the package's own
        # `minimize`, as scipy's trust-exact spent three quarters of the
        # search in its Python overhead.  It is called by that name, with the
        # objective first, the boundary at which perfbench's tracer counts
        # optimizer calls and objective evaluations.
        y, value, nit = minimize(
            ws.search_objective, y, (mu,), ws.search_hessian, STAGE_GTOL, STAGE_ITERATIONS
        )
        residual = ws.residual_of(y)
        trace.append(
            {"mu_res": mu, "objective": float(value), "residual": residual, "iterations": nit}
        )
        if residual <= RESIDUAL_TOL:
            converged = True
            break
        # a start that has fallen into the origin stays there (see module
        # docstring)
        collapsed = float(y @ y) <= np.finfo(float).eps
        if mu >= MU_RES_MAX or collapsed:
            break
        scaled = mu * residual
        mu, previous = _next_mu(mu, scaled, previous), scaled
    if not converged and residual <= POLISH_RESIDUAL:
        y = _rayleigh_polish(ws, y)
        converged = ws.residual_of(y) <= RESIDUAL_TOL
    return y, converged, trace


def _rayleigh_polish(ws: _Workspace, y: np.ndarray) -> np.ndarray:
    """Rayleigh-quotient iterations on S from y (see module docstring)."""
    s = ws.t + np.diag(ws.wn)
    for _ in range(POLISH_ITERATIONS):
        y = y / np.linalg.norm(y)
        eps = float(y @ (s @ y))
        try:
            y = np.linalg.solve(s - eps * np.eye(y.size), y)
        except np.linalg.LinAlgError:
            break
    return y / np.linalg.norm(y)


def _finish(
    ws: _Workspace, y: np.ndarray, converged: bool, trace: list[dict], seed: int | None
) -> VariationalResult:
    y = y / np.linalg.norm(y)
    ebar = float(y @ (ws.t @ y))
    eps_raw = ebar + float(np.dot(ws.wn, y * y))
    return VariationalResult(
        mode=FloquetMode.from_flat(ws.unpack(y), ws.h.dim),
        quasi_energy=fold_reported(eps_raw, ws.h.omega),
        avg_energy=ebar,
        residual=ws.residual_of(y),
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
    certified: bool = False,
) -> VariationalResult:
    """The search of `minimize_ground` and `minimize_excited`; certified,
    for a ground search at the certified cutoff, lets the trace sum rule
    end it early."""
    if len(found) >= h.dim:
        raise ValueError(f"all {h.dim} Floquet states are already found")
    ws = _Workspace(h, truncation, _deflation_basis(found))
    states: list[VariationalResult] = []  # one per Floquet state reached
    stalled: list[VariationalResult] = []
    rejected: list[VariationalResult] = []
    for x0, seed in _starts(h, truncation, config, len(found), ws.real):
        known = found + [r.mode for r in states]
        if len(known) == h.dim:
            break
        # each start repels every state reached so far, so that it can only
        # add a new one
        ws.deflate(_deflation_basis(known))
        y0 = ws.pack(x0)
        if known:
            y0 = _orthogonal_start(y0, ws.deflation)
        y, ok, trace = _minimize_one(ws, y0)
        candidate = _finish(ws, y, ok, trace, seed)
        if not ok:
            stalled.append(candidate)
        elif _replica_loss(candidate.mode) > REPLICA_LOSS_TOL or (
            known and _weight_on(ws.deflation, y) > 0.5
        ):
            # truncation-damaged, or converged onto a repelled ladder
            rejected.append(candidate)
        else:
            states.append(candidate)
            if certified and _ground_is_proven(h, states):
                return min(states, key=lambda r: r.avg_energy)
    if len(found) + len(states) == h.dim:
        # every Floquet state is reached, so the lowest is the answer
        return min(states, key=lambda r: r.avg_energy)
    # never a silent wrong answer: with a state missed, even the lowest one
    # reached may not be the answer; return it, or failing that the start
    # closest to convergence, flagged
    if states:
        best = min(states, key=lambda r: r.avg_energy)
    else:
        best = min(stalled or rejected, key=lambda r: r.residual)
    best.converged = False
    return best


def _ground_is_proven(h: FourierHamiltonian, states: list[VariationalResult]) -> bool:
    """The trace sum rule of `minimize_ground`: no state outside states,
    the ones a ground search reached, lies below the lowest of them."""
    lowest, highest, drive = h._spectral_reach
    ebars = [r.avg_energy for r in states]
    h0 = h.harmonics.get(0)
    rest = (0.0 if h0 is None else float(np.trace(h0).real)) - sum(ebars)
    margin = h.dim * 1e-6 * max(1.0, max(-lowest, highest) + drive)
    return rest - (h.dim - len(ebars) - 1) * (highest + drive) - margin > min(ebars)


def _orthogonal_start(y0: np.ndarray, basis: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(basis)
    y = y0 - q @ (q.T @ y0)
    return y / np.linalg.norm(y)


def _weight_on(basis: np.ndarray, y: np.ndarray) -> float:
    proj = basis.T @ (y / np.linalg.norm(y))
    return float(proj @ proj)


def _replica_loss(mode: FloquetMode) -> float:
    """Weight the mode loses past the truncation edge when shifted to its
    replica with centroid in [-1/2, 1/2), the zone the Sambe route keeps."""
    return mode.shift(-int(np.floor(mode.centroid() + 0.5)))[1]


def minimize_ground(
    h: FourierHamiltonian,
    truncation: int | str,
    config: VariationalConfig = VariationalConfig(),
) -> VariationalResult:
    """Lowest average-energy triplet by penalized minimization.

    Runs starts one after another, each repelling the states the earlier
    ones reached, until all h.dim Floquet states are reached, and returns
    the lowest; the starts are the deterministic static start and random
    ones, at most config.restarts more than there are states.  If a state
    is missed the result has converged=False (see `_search`).

    truncation 'auto' searches at the cutoff `certify_truncation` gives, as
    `solve_spectrum` does, and there the trace sum rule may end the search
    early.  The d states form a basis at every t, so their Ebar sum to
    Tr H_0; T is a compression of multiplication by H(t), so every Ebar is
    at most U = lambda_max(H_0) + sum_{m != 0} ||H_m||_2 (Weyl).  After each
    state reached, with k reached, the d - k others sum to R = Tr H_0 minus
    the k Ebar, so none of them is below R - (d - k - 1) U.  Once that
    exceeds the lowest Ebar reached by the margin below, the lowest is the
    ground, returned converged: the same start's result the exhaustive
    search would return.  The margin is d * 1e-6 * max(1, reach), reach =
    max |lambda(H_0)| + sum_{m != 0} ||H_m||_2 (as in `_dense_guard`): it
    allows each of the d Ebar in the sum the package's 1e-6 Ebar contract
    at the model's energy scale.  What they are actually off by is smaller
    by more than two orders: the certified cutoff holds each state's Ebar
    truncation figure below QUASI_TOL = 1e-9, and a reached Ebar, at
    eigen-residual RESIDUAL_TOL = 1e-9, is off by about that times the
    energy scale.  At a fixed cutoff the sum's truncation error is not
    known, so the rule does not apply and every state is reached.
    """
    certified = truncation == "auto"
    if certified:
        truncation = certify_truncation(h)
    return _search(h, truncation, config, [], certified)


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
