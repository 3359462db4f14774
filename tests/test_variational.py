import time

import numpy as np
import pytest

import floqtriplet as ft
from floqtriplet import _lapack, _trust_region, variational
from floqtriplet.variational import VariationalConfig, _Workspace
from floqtriplet.variational import _deflation_basis, _minimize_one, _random_start, _static_start
from floqtriplet.variational import MU_NORM, MU_RES_INIT, MU_RES_MAX, RESIDUAL_TOL
from floqtriplet.variational import JUMP_TARGET, STEADY_RATIO, _next_mu
from floqtriplet.variational import STAGE_GTOL, STAGE_ITERATIONS, _orthogonal_start
from floqtriplet.variational import REPLICA_LOSS_TOL, _replica_loss

from conftest import CIRCULAR_DEFAULT, converge_on_replica, random_mode
from conftest import time_shifted


def test_objective_at_exact_eigenstate_is_ebar():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    ground = ft.FloquetMode.from_block([1.0, 0.0], 0, 2)
    excited = ft.FloquetMode.from_block([0.0, 1.0], 0, 2)
    assert abs(ft.objective(ground, h)) <= 1e-12
    assert abs(ft.objective(excited, h) - 1.0) <= 1e-12


def test_objective_scaling_rule():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    mode = ft.FloquetMode.from_block([0.0, 1.0], 0, 2)
    doubled = ft.FloquetMode(2.0 * mode.coeffs)
    f1 = ft.objective(mode, h)
    f2 = ft.objective(doubled, h)
    # quadratic-form scaling of the energy term plus mu_norm * (4-1)^2
    assert abs(f2 - (4.0 * f1 + MU_NORM * 9.0)) <= 1e-10


@pytest.mark.parametrize("search", ["real", "complex"])
def test_objective_ignores_global_phase(search):
    # F depends on x only through |x|, x^H T x, the residual and |<u, x>|:
    # a complex mode on a real model must be scored over [Re x; Im x]
    h = ft.builtin_model("two_level_linear")
    if search == "complex":
        h = time_shifted(h, 0.3)
    m = 3
    rng = np.random.default_rng(47)
    found = [random_mode(rng, m, h.dim).normalized()]
    for _ in range(5):
        mode = random_mode(rng, m, h.dim)
        phased = ft.FloquetMode(np.exp(0.9j) * mode.coeffs)
        for deflated in (None, found):
            value = ft.objective(mode, h, found=deflated)
            phased_value = ft.objective(phased, h, found=deflated)
            assert abs(phased_value - value) <= 1e-12 * max(1.0, abs(value))


def test_objective_dominates_ground_on_random_modes(spectra):
    h = ft.builtin_model("two_level_circular")
    spec = spectra["two_level_circular"]
    m = spec.metadata["truncation"]
    rng = np.random.default_rng(31)
    ebar0 = spec[0].avg_energy
    for _ in range(100):
        mode = random_mode(rng, m, h.dim)
        assert ft.objective(mode, h) >= ebar0 - 1e-9


@pytest.mark.parametrize(
    "name", ["static", "two_level_circular", "two_level_linear", "driven_ring"]
)
def test_gradient_matches_finite_differences(name):
    h = ft.builtin_model(name)
    m = max(2, h.max_harmonic + 1)
    ws = _Workspace(h, m, complex_search=True)
    rng = np.random.default_rng(37)
    step = 1e-6
    for _ in range(20):
        x = random_mode(rng, m, h.dim).flat()
        y = ws.pack(x)
        _, grad = ws.search_objective(y, MU_RES_INIT)
        probes = rng.integers(0, y.size, size=6)
        for idx in probes:
            yp, ym = y.copy(), y.copy()
            yp[idx] += step
            ym[idx] -= step
            fp, _ = ws.search_objective(yp, MU_RES_INIT)
            fm, _ = ws.search_objective(ym, MU_RES_INIT)
            fd = (fp - fm) / (2.0 * step)
            scale = max(1.0, abs(fd), abs(grad[idx]))
            assert abs(fd - grad[idx]) <= 1e-5 * scale


def test_minimize_ground_static():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    result = ft.minimize_ground(h, 2)
    assert result.converged
    assert abs(result.quasi_energy) <= 1e-9
    assert abs(result.avg_energy) <= 1e-9


def test_minimize_ground_circular(ground_results, spectra):
    result = ground_results["two_level_circular"]
    spec = spectra["two_level_circular"]
    assert result.converged
    assert abs(result.avg_energy - CIRCULAR_DEFAULT["ebar"]["plus"]) <= 1e-6
    overlap, _ = ft.replica_overlap(result.mode, spec[0].mode)
    assert overlap >= 1.0 - 1e-5


def test_minimize_ground_lands_in_resolved_degenerate_state():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.5})
    result = ft.minimize_ground(h, 2)
    assert result.converged
    assert abs(result.avg_energy) <= 1e-9  # ebar = 0, not 0.5


@pytest.mark.parametrize(
    "name", ["static", "two_level_circular", "two_level_linear", "driven_ring"]
)
def test_variational_spectral_agreement(name, ground_results, spectra):
    result = ground_results[name]
    spec = spectra[name]
    assert result.converged
    assert abs(result.avg_energy - spec[0].avg_energy) <= 1e-6
    overlap, _ = ft.replica_overlap(result.mode, spec[0].mode)
    assert overlap >= 1.0 - 1e-5
    assert abs(result.avg_energy - ft.average_energy_functional(result.mode, ft.builtin_model(name))) <= 1e-12


def test_minimize_excited_static_ladder():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    ground = ft.minimize_ground(h, 2)
    excited = ft.minimize_excited(h, 2, found=[ground.mode])
    assert excited.converged
    assert abs(excited.quasi_energy - 0.3) <= 1e-8
    assert abs(excited.avg_energy - 1.0) <= 1e-8


def test_minimize_excited_degenerate_pair():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.5})
    ground = ft.minimize_ground(h, 2)
    excited = ft.minimize_excited(h, 2, found=[ground.mode])
    assert excited.converged
    assert abs(excited.quasi_energy) <= 1e-8
    assert abs(excited.avg_energy - 1.0) <= 1e-8


def test_minimize_excited_circular(ground_results):
    h = ft.builtin_model("two_level_circular")
    ground = ground_results["two_level_circular"]
    excited = ft.minimize_excited(h, ground.mode.truncation, found=[ground.mode])
    assert excited.converged
    assert abs(excited.avg_energy - (-CIRCULAR_DEFAULT["ebar"]["plus"])) <= 1e-6


def test_nonconvergence_is_flagged_with_trace(monkeypatch):
    # one Newton iteration in one stage leaves every start unconverged
    monkeypatch.setattr(variational, "STAGE_ITERATIONS", 1)
    monkeypatch.setattr(variational, "MU_RES_MAX", MU_RES_INIT)
    h = ft.builtin_model("two_level_circular")
    result = ft.minimize_ground(h, 4, VariationalConfig(restarts=1))
    assert not result.converged
    assert result.trace  # the iteration history is preserved
    assert result.residual > RESIDUAL_TOL


def test_stall_at_mu_max_is_flagged_after_every_stage(monkeypatch):
    # a residual tolerance no start can reach drives the continuation
    # through every penalty stage, into the line-search stall at large mu
    monkeypatch.setattr(variational, "RESIDUAL_TOL", 1e-300)
    h = ft.builtin_model("two_level_linear")
    start = time.perf_counter()
    result = ft.minimize_ground(h, 4, VariationalConfig(restarts=1))
    elapsed = time.perf_counter() - start
    assert not result.converged
    mus = [stage["mu_res"] for stage in result.trace]
    assert mus[0] == MU_RES_INIT
    assert all(b >= 10.0 * a for a, b in zip(mus, mus[1:]))
    assert max(mus) <= MU_RES_MAX
    assert mus[-1] == MU_RES_MAX
    assert np.isfinite(result.residual)
    assert elapsed < 60.0


@pytest.mark.parametrize("scaled", [9.3e2, 1e5])  # the 1/mu law, and a residual that did not fall
def test_schedule_never_passes_mu_max(scaled):
    # a stage just below MU_RES_MAX: neither the jump nor the tenfold step
    # may run a stage above it (an uncapped step once ran one at 9.3e12)
    mu = 9.3e11
    assert _next_mu(mu, scaled, previous=scaled) == MU_RES_MAX
    assert _next_mu(mu, scaled, previous=None) == MU_RES_MAX
    assert _next_mu(MU_RES_MAX / 10, 5e3, previous=1e3) == MU_RES_MAX


def test_schedule_jumps_only_on_the_one_over_mu_law():
    # mu * residual steady within STEADY_RATIO: straight to the stage the law
    # puts at JUMP_TARGET * RESIDUAL_TOL, never less than tenfold
    target = JUMP_TARGET * RESIDUAL_TOL
    assert _next_mu(1e4, 0.5, previous=0.5 * STEADY_RATIO) == pytest.approx(0.5 / target)
    assert _next_mu(1e4, 0.5, previous=0.5 / STEADY_RATIO) == pytest.approx(0.5 / target)
    assert _next_mu(1e4, 1e-8, previous=1e-8) == 1e5
    # the first stage, a creep and a jump that fell short grow tenfold
    assert _next_mu(1e3, 0.5, previous=None) == 1e4
    assert _next_mu(1e4, 0.5, previous=0.5 * STEADY_RATIO * 1.01) == 1e5
    assert _next_mu(1e9, 20.0, previous=0.5) == 1e10


@pytest.mark.parametrize(
    "name, params", [("driven_ring", {"sites": 3}), ("two_level_linear", {})]
)
def test_converged_starts_need_at_most_four_stages(name, params, monkeypatch):
    # the tenfold schedule took 6-7 stages per start here; once two stages
    # agree on mu * residual the next one converges
    traces = []
    flags = _record_starts(monkeypatch, traces=traces)
    result = ft.minimize_ground(ft.builtin_model(name, params), 8)
    assert result.converged
    assert flags and all(flags)
    assert all(len(trace) <= 4 for trace in traces)


def test_minimize_excited_linear(ground_results, spectra):
    h = ft.builtin_model("two_level_linear")
    ground = ground_results["two_level_linear"]
    spec = spectra["two_level_linear"]
    excited = ft.minimize_excited(h, spec.metadata["truncation"], found=[ground.mode])
    assert excited.converged
    assert abs(excited.avg_energy - spec[1].avg_energy) <= 1e-6
    overlap, _ = ft.replica_overlap(excited.mode, spec[1].mode)
    assert overlap >= 1.0 - 1e-5


def test_stationarity_implies_functional_equivalence(ground_results, spectra):
    for name, result in ground_results.items():
        h = ft.builtin_model(name)
        spec = spectra[name]
        a = ft.assembled_average_energy(spec, h)
        x = result.mode.flat()
        ebar_op = float(np.real(np.vdot(x, a @ x)))
        assert abs(ebar_op - result.avg_energy) <= 1e-8


def test_config_rejects_negative_restarts():
    with pytest.raises(ValueError, match="restarts"):
        VariationalConfig(restarts=-1)
    assert VariationalConfig(restarts=0).restarts == 0


def test_results_record_seed_and_trace(ground_results):
    result = ground_results["two_level_circular"]
    assert result.trace
    payload = result.to_json_dict()
    assert "trace" in payload and "seed" in payload


# every built-in has real harmonics: the circular drive's H_1 = (v/4)(sx - i sy)
# is the real matrix (v/2)|1><0|
REAL_MODELS = ["static", "two_level_circular", "two_level_linear", "driven_ring"]


@pytest.mark.parametrize("name", REAL_MODELS)
def test_real_model_ground_is_real(name, ground_results, spectra):
    # a real model runs the search over a real x: no phase is left in the mode
    result = ground_results[name]
    assert result.converged
    assert not result.mode.coeffs.imag.any()
    # the Ebar error is first order in the eigen-residual (<= 1e-9): the
    # complex search is 1.3e-9 off on two_level_linear as well
    assert abs(result.avg_energy - min(spectra[name].avg_energies)) <= 1e-8


@pytest.mark.parametrize("name", REAL_MODELS)
def test_real_search_gradient_matches_finite_differences(name):
    h = ft.builtin_model(name)
    m = max(2, h.max_harmonic + 1)
    ws = _Workspace(h, m)
    assert ws.real
    rng = np.random.default_rng(41)
    step = 1e-6
    for _ in range(20):
        y = random_mode(rng, m, h.dim).flat().real
        _, grad = ws.search_objective(y, MU_RES_INIT)
        assert grad.dtype == np.float64 and grad.shape == y.shape
        for idx in rng.integers(0, y.size, size=6):
            yp, ym = y.copy(), y.copy()
            yp[idx] += step
            ym[idx] -= step
            fp, _ = ws.search_objective(yp, MU_RES_INIT)
            fm, _ = ws.search_objective(ym, MU_RES_INIT)
            fd = (fp - fm) / (2.0 * step)
            scale = max(1.0, abs(fd), abs(grad[idx]))
            assert abs(fd - grad[idx]) <= 1e-5 * scale


@pytest.mark.parametrize("deflated", [False, True], ids=["plain", "deflated"])
@pytest.mark.parametrize("search", ["real", "complex"])
def test_search_hessian_matches_finite_differences(search, deflated):
    h = ft.builtin_model("two_level_linear")
    if search == "complex":
        h = time_shifted(h, 0.7 / h.omega)  # H_1 -> H_1 e^{0.7 i}
    m = 3
    rng = np.random.default_rng(43)
    found = None
    if deflated:
        # a block mode: the whole replica ladder is in the basis
        vec = rng.normal(size=h.dim) + (1j * rng.normal(size=h.dim) if search == "complex" else 0.0)
        found = [ft.FloquetMode.from_block(vec / np.linalg.norm(vec), 0, m)]
    ws = _Workspace(h, m, _deflation_basis(found))
    assert ws.real == (search == "real")
    assert (ws.orth_hessian is not None) == deflated
    step = 1e-5
    for _ in range(3):
        y = ws.pack(random_mode(rng, m, h.dim).flat())
        hess = ws.search_hessian(y, MU_RES_INIT)
        if not ws.real:
            # the documented phase term 8 mu_norm v v^T, v = i x / |x|
            v = ws.pack(1j * ws.unpack(y)) / np.linalg.norm(y)
            hess = hess - 8.0 * MU_NORM * np.outer(v, v)
        fd = np.empty_like(hess)
        for idx in range(y.size):
            yp, ym = y.copy(), y.copy()
            yp[idx] += step
            ym[idx] -= step
            _, gp = ws.search_objective(yp, MU_RES_INIT)
            _, gm = ws.search_objective(ym, MU_RES_INIT)
            fd[:, idx] = (gp - gm) / (2.0 * step)
        assert np.abs(fd - hess).max() <= 1e-8 * np.abs(hess).max()


def _stage_workspace(name):
    if name == "ring":
        h = ft.builtin_model("driven_ring", {"sites": 3})
        return h, _Workspace(h, 4)
    if name == "complex":
        h = time_shifted(ft.builtin_model("two_level_linear"), 0.3)
        return h, _Workspace(h, 4)
    h = ft.builtin_model("driven_ring", {"sites": 3})
    return h, _Workspace(h, 4, _deflation_basis([ft.solve_spectrum(h, 4)[0].mode]))


def _exact_step(g, hess, radius):
    """The minimizer of g.p + p.H.p / 2 over |p| <= radius, from the
    eigenpairs of H: the Newton step when H is positive definite and it lies
    inside; in the hard case (g orthogonal to the lowest eigenvector and
    -(H - lowest I)^+ g inside) that step topped up along the eigenvector to
    the boundary; else -(H + lam I)^-1 g on the boundary, lam by bisection."""
    d, v = np.linalg.eigh(hess)
    gt = v.T @ g
    if d[0] > 0 and np.linalg.norm(gt / d) <= radius:
        return np.linalg.solve(hess, -g)
    lam = max(0.0, -d[0])
    rest = d > d[0] + 1e-12
    inner = np.where(rest, -gt / np.where(rest, d + lam, 1.0), 0.0)
    if np.abs(gt[~rest]).max() <= 1e-12 * np.abs(gt).max() and np.linalg.norm(inner) < radius:
        inner[0] = np.sqrt(radius**2 - inner @ inner)
        return v @ inner
    upper = lam + np.linalg.norm(g) / radius + np.abs(d).max()
    for _ in range(200):
        mid = 0.5 * (lam + upper)
        lam, upper = (mid, upper) if np.linalg.norm(gt / (d + mid)) > radius else (lam, mid)
    return -v @ (gt / (d + upper))


def _subproblem(kind, seed, n=8):
    """(g, H) with H = Q diag(d) Q^T: positive definite with a step inside
    or past radius 1, indefinite, or the hard case (g orthogonal to the
    lowest eigenvector)."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = np.arange(1.0, n + 1)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    g = {"interior": 0.1, "boundary": 10.0}.get(kind, 1.0) * u
    if kind == "indefinite":
        d -= 3.5
    if kind == "hard":
        d[0] = -2.0
        u[0] = 0.0
        g = q @ (0.1 * u)
    hess = (q * d) @ q.T
    return g, 0.5 * (hess + hess.T)


@pytest.mark.parametrize("provider", ["openblas", "scipy"])
@pytest.mark.parametrize("kind", ["interior", "boundary", "indefinite", "hard"])
def test_newton_step_nearly_solves_the_subproblem(monkeypatch, kind, provider):
    # Moré & Sorensen's stopping rules: a step within 10% of the radius and
    # at least (1 - 0.1)^2 of the exact model decrease, through either
    # LAPACK provider
    if provider == "scipy":
        import scipy.linalg.lapack

        monkeypatch.setattr(_lapack, "lapack", scipy.linalg.lapack)
    for seed in range(20):
        g, hess = _subproblem(kind, seed)
        for radius in (0.3, 1.0, 3.0):
            p, hits_boundary = _trust_region._step(g, hess, radius)
            exact = _exact_step(g, hess, radius)
            model = lambda s: g @ s + 0.5 * s @ hess @ s  # noqa: E731
            assert np.linalg.norm(p) <= 1.1 * radius, (seed, radius)
            assert model(p) <= (1 - 0.1) ** 2 * model(exact), (seed, radius)
            if np.linalg.norm(exact) < (1 - 1e-9) * radius:  # the Newton step
                assert not hits_boundary and np.allclose(p, exact, rtol=1e-12, atol=0.0)
            else:
                assert hits_boundary and np.linalg.norm(p) >= 0.9 * radius
        if kind != "interior":  # at radius 1 the step reaches the boundary
            assert np.linalg.norm(_exact_step(g, hess, 1.0)) >= 1.0 - 1e-9


def test_rounding_level_gradient_takes_no_step():
    # below n eps ||H||_inf the gradient has no reliable Newton step: a zero
    # step, which predicts no decrease and so ends the stage
    g, hess = _subproblem("indefinite", 0)
    g *= 0.5 * g.size * np.finfo(float).eps * np.abs(hess).sum(axis=1).max()
    p, hits_boundary = _trust_region._step(g, hess, 1.0)
    assert not p.any() and not hits_boundary
    calls = []
    x, value, nit = _trust_region.minimize(
        lambda y: (calls.append(y) or 1.0, g), np.ones(g.size), (), lambda y: hess, 0.0, 30
    )
    assert nit == 0 and len(calls) == 1 and value == 1.0


def _stage_workspace(name):
    if name == "ring":
        h = ft.builtin_model("driven_ring", {"sites": 3})
        return h, _Workspace(h, 4)
    if name == "complex":
        h = time_shifted(ft.builtin_model("two_level_linear"), 0.3)
        return h, _Workspace(h, 4)
    h = ft.builtin_model("driven_ring", {"sites": 3})
    return h, _Workspace(h, 4, _deflation_basis([ft.solve_spectrum(h, 4)[0].mode]))


@pytest.mark.parametrize("name", ["ring", "complex", "deflated"])
def test_newton_stage_keeps_its_contract(name):
    # each stage of a continuation from ten random starts: fun evaluated once
    # at the start and once per proposed point, an accepted point's gradient
    # coming with its value; hess only at accepted points, each once; the
    # returned value that of the returned point
    h, ws = _stage_workspace(name)
    assert ws.real == (name != "complex")
    for seed in range(10):
        y = ws.pack(_random_start(np.random.default_rng(seed), 4, h.dim, ws.real))
        if ws.deflation is not None:
            y = _orthogonal_start(y, ws.deflation)
        mu = MU_RES_INIT
        while mu <= MU_RES_MAX:
            evaluated, hessians = [], []

            def counted(x, mu):
                evaluated.append(x.copy())
                return ws.search_objective(x, mu)

            def hess(x, mu):
                hessians.append(x.copy())
                return ws.search_hessian(x, mu)

            x, value, nit = _trust_region.minimize(counted, y, (mu,), hess, STAGE_GTOL,
                                                   STAGE_ITERATIONS)
            assert len(evaluated) == nit + 1, (seed, mu)
            assert value == ws.search_objective(x, mu)[0]
            assert any(np.array_equal(x, e) for e in evaluated)
            points = [e.tobytes() for e in evaluated]
            assert len({e.tobytes() for e in hessians}) == len(hessians)
            assert all(e.tobytes() in points for e in hessians)
            y = x
            mu *= 10.0


def test_start_fallen_into_origin_ends_after_its_stage():
    # F is even in x and eps(x) is scale-free, so the origin is stationary at
    # every mu; a start there is ended instead of run up to mu_res_max
    h = ft.builtin_model("two_level_linear")
    ws = _Workspace(h, 4)
    x, converged, trace = _minimize_one(ws, 1e-20 * _static_start(h, 4, 0, ws.real))
    assert not converged
    assert len(trace) == 1 and trace[0]["iterations"] == 0
    assert np.linalg.norm(x) <= 1e-8


def test_excited_search_finds_second_state_on_three_site_ring():
    # every L-BFGS start ended in the third state (Ebar = 1) here
    h = ft.builtin_model(
        "driven_ring", {"sites": 3, "v": 0.5101498357623357, "omega": 2.205737801674389}
    )
    cfg = VariationalConfig(seed=673)
    ground = ft.minimize_ground(h, 8, cfg)
    excited = ft.minimize_excited(h, 8, cfg, found=[ground.mode])
    ebars = sorted(ft.solve_spectrum(h, 8).avg_energies)
    assert ground.converged and excited.converged
    assert abs(ground.avg_energy - ebars[0]) <= 1e-6
    assert abs(excited.avg_energy - ebars[1]) <= 1e-6


def test_ground_search_reaches_the_lowest_of_five_states():
    # all nine independent starts of the previous search converged to
    # higher states here (Ebar -0.776, 1.195, 1.537) and the lowest of them
    # came back as converged
    h = ft.builtin_model(
        "driven_ring", {"sites": 5, "v": 1.1199789981489323, "omega": 1.5990336758266157}
    )
    result = ft.minimize_ground(h, 16, VariationalConfig(seed=22189))
    assert result.converged
    assert abs(result.avg_energy - min(ft.solve_spectrum(h, 16).avg_energies)) <= 1e-6


def _record_starts(monkeypatch, fail_start=None, traces=None):
    """Wrap _minimize_one to record each start's converged flag (and its
    stage trace into traces, if given), reporting start number fail_start
    as unconverged."""
    flags = []
    real = variational._minimize_one

    def wrapped(ws, x0):
        x, ok, trace = real(ws, x0)
        if len(flags) == fail_start:
            ok = False
        flags.append(ok)
        if traces is not None:
            traces.append(trace)
        return x, ok, trace

    monkeypatch.setattr(variational, "_minimize_one", wrapped)
    return flags


def test_every_start_of_a_deflated_search_reaches_a_new_state(monkeypatch):
    # begun with weight on the repelled ladders, nine of the twelve starts
    # of this excited search fell into the origin and the last state was
    # never reached
    h = ft.builtin_model(
        "driven_ring", {"sites": 5, "v": 0.9007667642428454, "omega": 1.5656479128037204}
    )
    cfg = VariationalConfig(seed=17403)
    ground = ft.minimize_ground(h, 16, cfg)
    flags = _record_starts(monkeypatch)
    excited = ft.minimize_excited(h, 16, cfg, found=[ground.mode])
    assert flags == [True] * (h.dim - 1)
    assert excited.converged
    assert abs(excited.avg_energy - sorted(ft.solve_spectrum(h, 16).avg_energies)[1]) <= 1e-6


def test_missed_state_flags_the_result(monkeypatch):
    # with one of the two states never reached, the lower one reached
    # cannot be known to be the ground
    h = ft.builtin_model("two_level_linear")
    flags = _record_starts(monkeypatch, fail_start=1)
    result = ft.minimize_ground(h, 8, VariationalConfig(restarts=0))
    assert flags == [True, False]
    assert not result.converged
    assert result.residual <= RESIDUAL_TOL


def test_certified_ring_ground_takes_one_start(monkeypatch):
    # the states not reached sum to Tr H_0 minus the static start's Ebar,
    # and none can lie below it: the two other starts are not run
    h = ft.builtin_model("driven_ring", {"sites": 3})
    flags = _record_starts(monkeypatch)
    result = ft.minimize_ground(h, "auto")
    assert flags == [True]
    flags.clear()
    exhaustive = ft.minimize_ground(h, ft.certify_truncation(h))
    assert flags == [True] * h.dim
    assert result.converged
    assert result.to_json_dict() == exhaustive.to_json_dict()


def test_sum_rule_goes_on_past_a_state_above_the_ground(monkeypatch):
    # aimed at the top level of H_0, the static start reaches a state above
    # the ground, which the sum rule cannot prove lowest
    h = ft.builtin_model("driven_ring", {"sites": 3})
    static = variational._static_start

    def top_start(h, truncation, level, real):
        return static(h, truncation, h.dim - 1, real)

    monkeypatch.setattr(variational, "_static_start", top_start)
    flags = _record_starts(monkeypatch)
    result = ft.minimize_ground(h, "auto")
    ground = min(ft.solve_spectrum(h).avg_energies)
    assert len(flags) > 1 and all(flags)
    assert result.converged and result.seed is not None
    assert abs(result.avg_energy - ground) <= 1e-6


def test_sum_rule_proves_the_ground_a_missed_state_cannot_undercut(monkeypatch):
    # the second start is reported unconverged; at the certified cutoff the
    # sum rule has already proven the first state the ground, at a fixed
    # one the missed state flags the result (test_missed_state_flags_the_result)
    h = ft.builtin_model("two_level_linear")
    config = VariationalConfig(restarts=0)
    flags = _record_starts(monkeypatch, fail_start=1)
    assert ft.minimize_ground(h, "auto", config).converged
    assert flags == [True]
    flags.clear()
    assert not ft.minimize_ground(h, ft.certify_truncation(h), config).converged
    assert flags == [True, False]


def test_search_needs_a_state_left_to_find():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    modes = [ft.FloquetMode.from_block(v, 0, 2) for v in ([1.0, 0.0], [0.0, 1.0])]
    with pytest.raises(ValueError):
        ft.minimize_excited(h, 2, found=modes)


def test_stalled_start_at_a_near_degenerate_pair_is_polished():
    # two states of the 12-site ring lie 6e-7 apart in quasi-energy; this
    # start ends its stages at residual 5e-8 in a mix of them
    h = ft.builtin_model("driven_ring", {"sites": 12})
    ws = _Workspace(h, 8)
    x0 = _random_start(np.random.default_rng(4), 8, h.dim, ws.real)
    x, converged, trace = _minimize_one(ws, x0)
    assert trace[-1]["residual"] > RESIDUAL_TOL
    assert max(stage["mu_res"] for stage in trace) <= MU_RES_MAX
    assert converged
    assert ws.residual_of(x) <= RESIDUAL_TOL


def _scalar_drive():
    """d = 1 under a strong scalar drive: its one Floquet state has
    Ebar = H_0 exactly; the mode, a Bessel series, needs M of about 8,
    where Sambe certifies it, and M = 2 and 4 leave truncation-damaged
    replicas."""
    return ft.FourierHamiltonian(
        dim=1, omega=1.818, harmonics={0: [[-0.317]], 1: [[-0.929 + 0.875j]]}
    )


def test_truncation_damaged_state_is_not_counted(monkeypatch):
    # a start that converges to a replica cut by the truncation edge
    # (centroid 0.84, 2.2e-3 of weight lost in the shift to the centroid
    # zone) was counted as the ground, Ebar = 0.104
    h = _scalar_drive()
    replica = converge_on_replica(monkeypatch, h, 2, 0.842)
    assert abs(replica.centroid() - 0.842) <= 1e-3
    result = ft.minimize_ground(h, 2, VariationalConfig(restarts=0))
    assert result.residual <= RESIDUAL_TOL
    assert _replica_loss(result.mode) > REPLICA_LOSS_TOL
    assert not result.converged


@pytest.mark.parametrize("m", [2, 4, 8])
def test_scalar_drive_ground_is_h0(m):
    # at M = 2 and 4 a damaged replica came back converged, 0.42 and 4.2e-3
    # above H_0; the later starts now reach the physical state
    result = ft.minimize_ground(_scalar_drive(), m)
    assert result.converged
    assert abs(result.avg_energy - (-0.317)) <= 1e-6


def test_complex_deflation_basis_takes_complex_search(ground_results, spectra):
    h = ft.builtin_model("two_level_linear")
    m = spectra["two_level_linear"].metadata["truncation"]
    ground = ground_results["two_level_linear"].mode
    phased = ft.FloquetMode(np.exp(1j * np.pi / 3.0) * ground.coeffs)
    assert _Workspace(h, m, _deflation_basis([ground])).real
    assert not _Workspace(h, m, _deflation_basis([phased])).real
    plain = ft.minimize_excited(h, m, found=[ground])
    rotated = ft.minimize_excited(h, m, found=[phased])
    assert plain.converged and rotated.converged
    assert abs(rotated.avg_energy - plain.avg_energy) <= 1e-8


def test_complex_harmonics_take_complex_search(spectra):
    # a time shift makes the harmonics complex and keeps every (eps, Ebar)
    h = time_shifted(ft.builtin_model("two_level_linear"), 0.3)
    m = spectra["two_level_linear"].metadata["truncation"]
    ws = _Workspace(h, m)
    assert not ws.real
    # T realified: the search variables are [Re x; Im x]
    n = (2 * m + 1) * h.dim
    assert ws.t.dtype == np.float64 and ws.t.shape == (2 * n, 2 * n)
    result = ft.minimize_ground(h, m)
    assert result.converged
    assert result.mode.coeffs.imag.any()
    assert abs(result.avg_energy - min(spectra["two_level_linear"].avg_energies)) <= 1e-8


# the case keeps its id from the table that also held the tolerance and
# penalty fields, now module constants
@pytest.mark.parametrize("kwargs", [pytest.param({"restarts": 1.5}, id="kwargs8")])
def test_config_rejects_values_that_break_the_search(kwargs):
    with pytest.raises(ValueError):
        VariationalConfig(**kwargs)


def test_config_keeps_integer_counts():
    cfg = VariationalConfig(restarts=np.int64(2))
    assert type(cfg.restarts) is int and cfg.restarts == 2
