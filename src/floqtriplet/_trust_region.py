"""The variational solver's Newton stage: trust-region Newton, each step a
nearly exact minimizer of the model g.p + p.H.p / 2 over ||p|| <= radius.

The step comes from Moré & Sorensen's iteration (SIAM J. Sci. Stat. Comput.
4, 553 (1983); Conn, Gould & Toint, "Trust-Region Methods", 2000, sec. 7.3)
on Cholesky factors of H + lam I from `_lapack`: lam = 0 when H factors and
its Newton step lies inside, else lam is bracketed by the Gershgorin,
Frobenius and infinity-norm bounds of sec. 7.3.8 and updated by Newton's
rule on 1/||p|| - 1/radius.  A factorization that fails raises the lower
bound from its leading block; in the hard case, where the steps stay
inside, one inverse-iteration step made with the factor gives the
direction to the boundary.  The norms come from numpy.
"""

from __future__ import annotations

import math

import numpy as np

from . import _lapack

_INITIAL_RADIUS = 1.0
_MAX_RADIUS = 1000.0
_ETA = 0.15  # a step is accepted when actual / predicted decrease exceeds it
_K_EASY = 0.1  # a step within 10% of the radius is on the boundary ...
_K_HARD = 0.2  # ... and a hard-case step within 20% of the model's optimum
_SUBPROBLEM_ITERATIONS = 25


def _between(lower: float, upper: float) -> float:
    """The next lam inside [lower, upper] (Conn et al. (7.3.14))."""
    return max(math.sqrt(lower * upper), lower + 0.01 * (upper - lower))


def _step(g: np.ndarray, hess: np.ndarray, radius: float) -> tuple[np.ndarray, bool]:
    """(p, whether it reaches the boundary) for the model at g and hess;
    LinAlgError when every factorization fails."""
    lapack, n = _lapack.lapack, g.size
    g_norm = np.linalg.norm(g)
    row_sums = np.abs(hess).sum(axis=1)
    if g_norm <= n * np.finfo(float).eps * row_sums.max():
        return np.zeros(n), False  # too small for a reliable back substitution
    diag = hess.diagonal()
    off = row_sums - np.abs(diag)
    norm = min(np.linalg.norm(hess), row_sums.max())
    lower = max(0.0, -diag.min(), g_norm / radius - min((diag + off).max(), norm))
    upper = max(0.0, g_norm / radius + min((off - diag).max(), norm))
    lam = 0.0 if lower == 0 else _between(lower, upper)
    p = None
    for _ in range(_SUBPROBLEM_ITERATIONS):
        shifted = hess.copy()
        shifted.reshape(-1)[:: n + 1] += lam  # the diagonal, as a view
        u, k = lapack.dpotrf(shifted, lower=0, clean=0)
        if k:
            # the leading k x k block is not positive definite: along v, with
            # v[k - 1] = 1, H + lam I has curvature -delta / |v|^2
            col = u[: k - 1, k - 1]
            delta = col @ col - shifted[k - 1, k - 1]
            v = lapack.dtrtrs(u[: k - 1, : k - 1], -col)[0] if k > 1 else col
            lower = max(lower, lam + delta / (1.0 + v @ v))
            lam = _between(lower, upper)
            continue
        p = lapack.dpotrs(u, -g)[0]
        p_norm = np.linalg.norm(p)
        if lam == 0 and p_norm <= radius:
            return p, False
        if abs(p_norm - radius) <= _K_EASY * radius:
            return p, True
        w = lapack.dtrtrs(u, p, trans=1)[0]
        newton = lam + (p_norm / np.linalg.norm(w)) ** 2 * (p_norm - radius) / radius
        if p_norm > radius:
            lower = lam
        else:
            # inside: z, one inverse-iteration step from the unit vector at
            # the factor's smallest pivot, has curvature mu of about the
            # lowest of H + lam I; p + tau z reaches the boundary
            i = np.argmin(u.diagonal())
            z = lapack.dpotrs(u, np.eye(1, n, i)[0])[0]
            mu = z[i] / (z @ z)  # the Rayleigh quotient at z
            z /= np.linalg.norm(z)
            b, c = p @ z, p_norm**2 - radius**2
            tau = -c / (b + math.copysign(math.sqrt(b * b - c), b))
            if tau * tau * mu <= _K_HARD * (lam * radius**2 - g @ p):
                return p + tau * z, True
            upper, lower = lam, max(lower, lam - mu)
        lam = newton if lower < newton < upper else _between(lower, upper)
    if p is None:
        raise np.linalg.LinAlgError("no trust-region step: every factorization failed")
    return p, True


def minimize(fun, x0, args, hess, gtol: float, maxiter: int) -> tuple[np.ndarray, float, int]:
    """One trust-region Newton stage from x0; returns (x, F(x), nit).

    fun(x, *args) returns (F, grad F), evaluated once at x0 and once per
    proposed point (nit + 1 times), and hess(x, *args) the Hessian,
    evaluated at accepted points only.  The radius starts at 1; a step is
    accepted when the actual decrease exceeds _ETA of the predicted one;
    the radius is quartered below a ratio of 1/4 and doubled, up to 1000,
    above 3/4 on the boundary.  nit counts rejected steps too.  A stage
    ends when the gradient norm falls below gtol, after maxiter steps, when
    the model predicts no decrease or when the subproblem fails.
    """
    x = np.asarray(x0, dtype=float).flatten()
    f, g = fun(x, *args)
    h, radius, k = None, _INITIAL_RADIUS, 0
    while np.linalg.norm(g) >= gtol and k < maxiter:
        if h is None:
            h = hess(x, *args)
        try:
            p, hits_boundary = _step(g, h, radius)
        except np.linalg.LinAlgError:
            break
        # f - (f + ...): at large mu_res the model's decrease rounds away
        # against f, which is what ends such a stage
        predicted_reduction = f - (f + g @ p + 0.5 * (p @ (h @ p)))
        if predicted_reduction <= 0:
            break
        f_new, g_new = fun(x + p, *args)
        rho = (f - f_new) / predicted_reduction
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and hits_boundary:
            radius = min(2 * radius, _MAX_RADIUS)
        if rho > _ETA:
            x, f, g, h = x + p, f_new, g_new, None
        k += 1
    return x, f, k
