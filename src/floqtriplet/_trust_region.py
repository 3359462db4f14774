"""The variational solver's Newton stage: scipy's trust-exact, ported.

scipy's trust-exact (Conn, Gould & Toint, "Trust region methods", 2000,
pp. 169-200; Moré & Sorensen 1983) spends most of a stage in Python
around its O(n^3) steps: a ScalarFunction set-up per call, a finiteness
check per solve, np.eye per factorization, a scipy.linalg.norm per vector
norm and a Hessian at every proposed point, rejected ones too.
`minimize` takes the same steps with the same LAPACK and BLAS calls (the
1-norms of the singular-value estimate as np.abs(x).sum(), the same
reduction) and forms the Hessian only at the accepted points it steps
from.  `variational` calls it directly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs, solve_triangular

_INITIAL_RADIUS = 1.0
_MAX_RADIUS = 1000.0
_ETA = 0.15  # a step is accepted when actual / predicted decrease exceeds it
_K_EASY = 0.1  # subproblem stops: step within 10% of the radius ...
_K_HARD = 0.2  # ... or hard-case step error within 20%
_SUBPROBLEM_ITERATIONS = 25
_UPDATE_COEFF = 0.01  # theta of Conn, Gould & Toint (7.3.14)

# the 1-d norms and the infinity norm from the routines scipy.linalg.norm calls
_nrm2 = get_blas_funcs("nrm2", dtype=np.float64, ilp64="preferred")
_lange = get_lapack_funcs("lange", dtype=np.float64, ilp64="preferred")
_potrf, _potrs, _trtrs = get_lapack_funcs(("potrf", "potrs", "trtrs"), dtype=np.float64)


def _upper_solve(u: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """u^-1 b (u^-T b for trans=1) for the upper Cholesky factor u."""
    x, info = _trtrs(u, b, lower=0, trans=trans)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def _smallest_singular(u: np.ndarray) -> tuple[float, np.ndarray]:
    """Estimate of the smallest singular value of the upper triangular u
    and its right singular vector (Cline, Moler, Stewart & Wilkinson 1979):
    w solves u^T w = e with signs e = +-1 chosen to make w large, and v
    solves u v = w."""
    n = u.shape[0]
    p = np.zeros(n)
    w = np.empty(n)
    for k in range(n):
        ukk = u[k, k]
        wp = (1.0 - p[k]) / ukk
        wm = (-1.0 - p[k]) / ukk
        row = u[k, k + 1 :]
        pp = p[k + 1 :] + row * wp
        pm = p[k + 1 :] + row * wm
        if abs(wp) + np.abs(pp).sum() >= abs(wm) + np.abs(pm).sum():
            w[k] = wp
            p[k + 1 :] = pp
        else:
            w[k] = wm
            p[k + 1 :] = pm
    v = _upper_solve(u, w)
    v_norm = _nrm2(v)
    return _nrm2(w) / v_norm, v / v_norm


def _boundary_step(z: np.ndarray, d: np.ndarray, radius: float) -> float:
    """The t of smaller magnitude with ||z + t d|| = radius."""
    a = np.dot(d, d)
    b = 2 * np.dot(z, d)
    c = np.dot(z, z) - radius**2
    aux = b + math.copysign(math.sqrt(b * b - 4 * a * c), b)
    return min(sorted([-aux / (2 * a), -2 * c / aux]), key=abs)


class _TrustModel:
    """The quadratic model g.p + p.H.p / 2 at one point and its nearly exact
    trust-region step, as scipy's IterativeSubproblem: Moré-Sorensen
    iterations on the shift lambda of H + lambda I, bracketed by Gershgorin,
    Frobenius and infinity-norm bounds.  A model is solved again, for a
    smaller radius, after each rejected step, and keeps its lower bound on
    lambda between those solves."""

    def __init__(self, g: np.ndarray, hess: np.ndarray):
        self.g = g
        self.hess = hess
        self.g_norm = _nrm2(g)
        diag = hess.diagonal()
        row_sums = np.sum(np.abs(hess), axis=1)
        self.gershgorin_lb = np.min(diag + np.abs(diag) - row_sums)
        self.gershgorin_ub = np.max(diag - np.abs(diag) + row_sums)
        self.hess_inf = _lange("1", hess.T)  # max row sum: hess is C-ordered
        self.hess_fro = np.linalg.norm(hess)
        # below this a gradient is too small for a reliable back substitution
        self.close_to_zero = g.size * np.finfo(float).eps * self.hess_inf
        self.previous_radius = -1.0
        self.lambda_lb = None

    def shifted(self, lam: float) -> np.ndarray:
        h = self.hess.copy()
        h.reshape(-1)[:: h.shape[0] + 1] += lam  # the diagonal, as a view
        return h

    def initial_lambda(self, radius: float) -> tuple[float, float, float]:
        """Start, lower and upper bound of lambda (Conn et al. section 7.3.8)."""
        lambda_ub = max(0, self.g_norm / radius + min(-self.gershgorin_lb, self.hess_fro, self.hess_inf))
        lambda_lb = max(
            0,
            -self.hess.diagonal().min(),
            self.g_norm / radius - min(self.gershgorin_ub, self.hess_fro, self.hess_inf),
        )
        if radius < self.previous_radius:
            lambda_lb = max(self.lambda_lb, lambda_lb)
        if lambda_lb == 0:
            return 0, lambda_lb, lambda_ub
        return _interpolate(lambda_lb, lambda_ub), lambda_lb, lambda_ub

    def solve(self, radius: float) -> tuple[np.ndarray, bool]:
        """(step, whether it reaches the trust-region boundary)."""
        lam, lambda_lb, lambda_ub = self.initial_lambda(radius)
        g = self.g
        hits_boundary = True
        refactor = True
        p = None
        for _ in range(_SUBPROBLEM_ITERATIONS):
            if refactor:
                h = self.shifted(lam)
                u, info = _potrf(h, lower=False, overwrite_a=False, clean=True)
            refactor = True
            if info == 0 and self.g_norm > self.close_to_zero:
                p, _ = _potrs(u, -g, lower=False)
                p_norm = _nrm2(p)
                if p_norm <= radius and lam == 0:  # interior Newton step
                    hits_boundary = False
                    break
                w = _upper_solve(u, p, trans=1)
                w_norm = _nrm2(w)
                # Newton's update of lambda (Nocedal & Wright 4.44)
                lambda_new = lam + (p_norm / w_norm) ** 2 * (p_norm - radius) / radius
                if p_norm < radius:
                    # inside the boundary: move along the estimated
                    # smallest singular vector to reach it (the hard case)
                    s_min, z_min = _smallest_singular(u)
                    step_len = _boundary_step(p, z_min, radius)
                    quadratic_term = np.dot(p, np.dot(h, p))
                    relative_error = (step_len**2 * s_min**2) / (quadratic_term + lam * radius**2)
                    if relative_error <= _K_HARD:
                        p += step_len * z_min
                        break
                    lambda_ub = lam
                    lambda_lb = max(lambda_lb, lam - s_min**2)
                    h = self.shifted(lambda_new)
                    _, info = _potrf(h, lower=False, overwrite_a=False, clean=True)
                    if info == 0:
                        # as in scipy, the next iteration keeps the factor u
                        # of the previous lambda
                        lam = lambda_new
                        refactor = False
                    else:
                        lambda_lb = max(lambda_lb, lambda_new)
                        lam = _interpolate(lambda_lb, lambda_ub)
                else:
                    if abs(p_norm - radius) / radius <= _K_EASY:
                        break
                    lambda_lb = lam
                    lam = lambda_new
            elif info == 0:  # a gradient at rounding level
                if lam == 0:
                    p = np.zeros(g.size)
                    hits_boundary = False
                    break
                s_min, z_min = _smallest_singular(u)
                p = radius * z_min
                if radius**2 * s_min**2 <= _K_HARD * lam * radius**2:
                    break
                lambda_ub = lam
                lambda_lb = max(lambda_lb, lam - s_min**2)
                lam = _interpolate(lambda_lb, lambda_ub)
            else:
                # the leading info x info block of h is not positive
                # definite: delta on its last diagonal entry makes it
                # singular, which bounds lambda from below
                k = info
                delta = np.sum(u[: k - 1, k - 1] ** 2) - h[k - 1, k - 1]
                v = np.zeros(g.size)
                v[k - 1] = 1
                if k != 1:
                    v[: k - 1] = solve_triangular(
                        u[: k - 1, : k - 1], -u[: k - 1, k - 1], check_finite=False
                    )
                lambda_lb = max(lambda_lb, lam + delta / _nrm2(v) ** 2)
                lam = _interpolate(lambda_lb, lambda_ub)
        if p is None:
            raise np.linalg.LinAlgError("no trust-region step: every factorization failed")
        self.lambda_lb = lambda_lb
        self.previous_radius = radius
        return p, hits_boundary


def _interpolate(lambda_lb: float, lambda_ub: float) -> float:
    """Next lambda inside [lambda_lb, lambda_ub] (Conn et al. 7.3.14)."""
    return max(
        np.sqrt(np.abs(lambda_lb * lambda_ub)),
        lambda_lb + _UPDATE_COEFF * (lambda_ub - lambda_lb),
    )


def minimize(fun, x0, args, hess, gtol: float, maxiter: int) -> tuple[np.ndarray, float, int]:
    """One trust-exact stage from x0; returns (x, F(x), nit).

    fun(x, *args) returns (F, grad F) and hess(x, *args) the Hessian.  fun
    is evaluated once at x0 and once per proposed point, and an accepted
    point's gradient is the one evaluated with it, so a stage makes nit + 1
    evaluations.  Starts at radius 1, accepts a step when the actual
    decrease exceeds _ETA of the predicted one, quarters the radius below a
    ratio of 1/4 and doubles it, up to 1000, above 3/4 on the boundary.  nit
    counts every step, rejected ones too.  A stage ends when the gradient
    norm falls below gtol, after maxiter steps, when the quadratic model
    predicts no decrease or when the subproblem fails.
    """
    x = np.asarray(x0, dtype=float).flatten()
    f, g = fun(x, *args)
    g_norm = _nrm2(g)
    model = None
    radius = _INITIAL_RADIUS
    k = 0
    while g_norm >= gtol and k < maxiter:
        if model is None:
            model = _TrustModel(g, hess(x, *args))
        try:
            p, hits_boundary = model.solve(radius)
        except np.linalg.LinAlgError:
            break
        # f - (f + ...), as scipy computes it: at large mu_res the model's
        # decrease rounds away against f, which is what ends such a stage
        predicted_value = f + np.dot(g, p) + 0.5 * np.dot(p, np.dot(model.hess, p))
        predicted_reduction = f - predicted_value
        if predicted_reduction <= 0:
            break
        x_new = x + p
        f_new, g_new = fun(x_new, *args)
        rho = (f - f_new) / predicted_reduction
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and hits_boundary:
            radius = min(2 * radius, _MAX_RADIUS)
        if rho > _ETA:
            x, f, g = x_new, f_new, g_new
            g_norm = _nrm2(g)
            model = None
        k += 1
    return x, f, k
