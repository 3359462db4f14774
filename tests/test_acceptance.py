"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
of every criterion as it completes.
"""

import functools
import time

import numpy as np
from numpy.testing import assert_allclose

import floqtriplet as ft
from floqtriplet.cli import main
from floqtriplet.sambe import Representative
from floqtriplet.variational import MU_RES_INIT, _Workspace

from conftest import BUILTIN_NAMES, CIRCULAR_DEFAULT, padded, random_mode

DRIVEN_NAMES = ("two_level_circular", "two_level_linear", "driven_ring")


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:02d} ({name}): FAIL")
                raise
            print(f"[acceptance] criterion {number:02d} ({name}): PASS")

        return wrapper

    return decorate


@criterion(1, "static recovery")
def test_criterion_01_static_recovery():
    start = time.perf_counter()
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    spec = ft.solve_spectrum(h, "auto")
    elapsed = time.perf_counter() - start
    assert_allclose(spec.quasi_energies, [0.0, 0.3], atol=1e-10)
    assert_allclose(spec.avg_energies, [0.0, 1.0], atol=1e-10)
    assert elapsed < 1.0


@criterion(2, "degeneracy resolution")
def test_criterion_02_degeneracy_resolution():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.5})
    truncation = 4
    vals, vecs = ft.diagonalize(ft.build_sambe(h, truncation))
    reps = ft.select_representatives(vals, vecs, h, truncation)
    groups = ft.group_degeneracies(reps, h)
    assert len(groups) == 1 and groups[0].size == 2
    assert abs(groups[0].quasi_energy) <= 1e-10
    spec = ft.resolve_degeneracies(groups, h)
    assert_allclose(spec.avg_energies, [0.0, 1.0], atol=1e-10)
    assert_allclose(spec.quasi_energies, [0.0, 0.0], atol=1e-10)

    # arbitrary unitary pre-rotation of the degenerate eigenspace: each
    # member k_i replicas from the first, shifted by -k_i onto its replica,
    # where all share its raw eigenvalue
    first = groups[0].members[0]
    aligned = []
    for member in groups[0].members:
        k = round((member.quasi_energy_raw - first.quasi_energy_raw) / h.omega)
        shifted, lost = member.mode.shift(-k)
        assert lost <= 1e-20
        aligned.append(shifted.flat())
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    c, _ = np.linalg.qr(a)
    basis = np.column_stack(aligned) @ c
    rotated_reps = [
        Representative(
            ft.FloquetMode.from_flat(basis[:, i], h.dim),
            first.quasi_energy,
            first.quasi_energy_raw,
            groups[0].members[i].residual,
        )
        for i in range(2)
    ]
    spec_rot = ft.resolve_degeneracies(ft.group_degeneracies(rotated_reps, h), h)
    assert_allclose(spec_rot.avg_energies, spec.avg_energies, atol=1e-10)
    # the same states, up to the replica each is reported on
    for t_rot, t_ref in zip(spec_rot, spec):
        assert ft.replica_overlap(t_rot.mode, t_ref.mode)[0] >= 1.0 - 1e-9


@criterion(3, "cross-method agreement")
def test_criterion_03_cross_method(spectra, oracle_spectra, tmp_path):
    from scipy.optimize import linear_sum_assignment

    for name in BUILTIN_NAMES:
        h = ft.builtin_model(name)
        spec_s, spec_o = spectra[name], oracle_spectra[name]
        overlaps = ft.overlap_matrix(spec_s, spec_o)
        rows, cols = linear_sum_assignment(1.0 - overlaps)
        for i, j in zip(rows, cols):
            assert overlaps[i, j] >= 1.0 - 1e-6
            assert ft.wrap_distance(
                spec_s[i].quasi_energy, spec_o[j].quasi_energy, h.omega
            ) <= 1e-6
            assert abs(spec_s[i].avg_energy - spec_o[j].avg_energy) <= 1e-6
        code = main(["compare", "--builtin", name, "--out", str(tmp_path / name)])
        assert code == 0


@criterion(4, "analytic two-level benchmark")
def test_criterion_04_analytic_benchmark(spectra):
    spec = spectra["two_level_circular"]
    # values confirmed independently via the rotating-frame solution
    ref = CIRCULAR_DEFAULT
    assert abs(ref["eps"]["minus"] - 0.429844) <= 1e-6
    assert abs(ref["eps"]["plus"] - 1.070156) <= 1e-6
    assert abs(ref["ebar"]["plus"] - (-0.265496)) <= 1e-6
    assert_allclose(
        np.sort(spec.quasi_energies), [0.429844, 1.070156], atol=1e-6
    )
    assert_allclose(
        np.sort(spec.avg_energies), [-0.265496, 0.265496], atol=1e-6
    )
    # the pairing: the low average energy belongs to the high quasi-energy
    assert abs(spec[0].avg_energy + 0.265496) <= 1e-6
    assert abs(spec[0].quasi_energy - 1.070156) <= 1e-6


@criterion(5, "Ritz bound over random vectors")
def test_criterion_05_ritz_bound(spectra):
    for name in BUILTIN_NAMES:
        h = ft.builtin_model(name)
        spec = spectra[name]
        a = ft.assembled_average_energy(spec, h)
        ebar0 = spec[0].avg_energy
        m = spec.metadata["truncation"]
        size = (2 * m + 1) * h.dim
        rng = np.random.default_rng(101)
        samples = rng.normal(size=(1000, size)) + 1j * rng.normal(size=(1000, size))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        values = np.real(np.einsum("ni,ij,nj->n", samples.conj(), a, samples))
        assert values.min() >= ebar0 - 1e-9

        # equality is attained at the ground triplet ...
        g = spec[0].mode.flat()
        assert abs(float(np.real(np.vdot(g, a @ g))) - ebar0) <= 1e-8
        # ... and only there: any sample within 1e-8 of the bound must lie in
        # the ground replica ladder (generically none of the 1000 does)
        ladder = []
        nb = 2 * m + 1
        for k in range(-(nb - 1), nb):
            shifted, lost = spec[0].mode.shift(k)
            if lost <= 1e-12:
                ladder.append(shifted.normalized().flat())
        ladder = np.column_stack(ladder)
        for idx in np.where(values <= ebar0 + 1e-8)[0]:
            proj = ladder.conj().T @ samples[idx]
            assert float(np.real(np.vdot(proj, proj))) >= 1.0 - 1e-6


@criterion(6, "variational solver agreement and gradients")
def test_criterion_06_variational(spectra, ground_results):
    for name in BUILTIN_NAMES:
        h = ft.builtin_model(name)
        spec = spectra[name]
        result = ground_results[name]
        assert result.converged
        assert abs(result.avg_energy - spec[0].avg_energy) <= 1e-6
        overlap, _ = ft.replica_overlap(result.mode, spec[0].mode)
        assert overlap >= 1.0 - 1e-5

        # analytic gradient against central finite differences
        m = spec.metadata["truncation"]
        ws = _Workspace(h, m, complex_search=True)
        rng = np.random.default_rng(103)
        step = 1e-6
        for _ in range(20):
            y = np.concatenate(
                [random_mode(rng, m, h.dim).flat().real,
                 random_mode(rng, m, h.dim).flat().imag]
            )
            _, grad = ws.search_objective(y, MU_RES_INIT)
            for idx in rng.integers(0, y.size, size=4):
                yp, ym = y.copy(), y.copy()
                yp[idx] += step
                ym[idx] -= step
                fp, _ = ws.search_objective(yp, MU_RES_INIT)
                fm, _ = ws.search_objective(ym, MU_RES_INIT)
                fd = (fp - fm) / (2.0 * step)
                assert abs(fd - grad[idx]) <= 1e-5 * max(1.0, abs(fd), abs(grad[idx]))


@criterion(7, "effective-functional equivalence on eigenstates")
def test_criterion_07_appendix_equivalence(spectra):
    # equality on every resolved eigenstate, for every model
    for name in BUILTIN_NAMES:
        h = ft.builtin_model(name)
        spec = spectra[name]
        a = ft.assembled_average_energy(spec, h)
        for t in spec:
            x = t.mode.flat()
            assert abs(float(np.real(np.vdot(x, a @ x))) - t.avg_energy) <= 1e-9
            assert abs(ft.average_energy_functional(t.mode, h) - t.avg_energy) <= 1e-9
    # strict inequality on mixed-quasi-energy states.  For a driven model the
    # two functionals separate; for a purely static model they coincide
    # identically (the assembled operator is complete), which is asserted.
    for name in DRIVEN_NAMES:
        h = ft.builtin_model(name)
        spec = spectra[name]
        a = ft.assembled_average_energy(spec, h)
        rng = np.random.default_rng(107)
        best = 0.0
        for _ in range(100):
            i, j = rng.choice(len(spec), size=2, replace=False)
            if ft.wrap_distance(spec[i].quasi_energy, spec[j].quasi_energy, h.omega) < 1e-6:
                continue
            k = int(rng.integers(-2, 3))
            shifted, lost = spec[j].mode.shift(k)
            if lost > 1e-9:
                continue
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            x = c[0] * spec[i].mode.flat() + c[1] * shifted.normalized().flat()
            x /= np.linalg.norm(x)
            diff = abs(
                ft.average_energy_functional(ft.FloquetMode.from_flat(x, h.dim), h)
                - float(np.real(np.vdot(x, a @ x)))
            )
            best = max(best, diff)
        assert best > 1e-6
    h = ft.builtin_model("static")
    spec = spectra["static"]
    a = ft.assembled_average_energy(spec, h)
    rng = np.random.default_rng(109)
    m = spec.metadata["truncation"]
    for _ in range(100):
        mode = random_mode(rng, m, h.dim)
        x = mode.flat()
        assert abs(
            ft.average_energy_functional(mode, h) - float(np.real(np.vdot(x, a @ x)))
        ) <= 1e-10


@criterion(8, "block structure commutes with phases")
def test_criterion_08_block_structure(spectra):
    cases = dict(spectra)
    cases["static_degenerate"] = ft.solve_spectrum(
        ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.5}), 4
    )
    models = {name: ft.builtin_model(name) for name in BUILTIN_NAMES}
    models["static_degenerate"] = ft.builtin_model(
        "static", {"levels": (0.0, 1.0), "omega": 0.5}
    )
    for name, spec in cases.items():
        hbar, phases = ft.average_energy_matrix(spec, models[name])
        comm = hbar @ phases - phases @ hbar
        assert np.abs(comm).max() <= 1e-12


@criterion(9, "replica invariance")
def test_criterion_09_replica_invariance(spectra):
    for name in BUILTIN_NAMES:
        h = ft.builtin_model(name)
        spec = spectra[name]
        m = spec.metadata["truncation"]
        for t in spec:
            for k in range(-(m // 2), m // 2 + 1):
                shifted, lost = padded(t.mode, abs(k)).shift(k)
                assert lost == 0.0
                assert abs(
                    ft.average_energy_functional(shifted, h) - t.avg_energy
                ) <= 1e-10
                assert abs(
                    ft.quasi_energy_functional(shifted, h)
                    - (t.quasi_energy_raw + k * h.omega)
                ) <= 1e-9


@criterion(10, "pairing robustness contrast")
def test_criterion_10_contrast_fixture():
    h, v, strength = ft.degeneracy_contrast_fixture()
    assert strength == 1e-6 * h.omega
    report = ft.perturb_and_track(h, v, strength)
    assert report.overlap_qorder.max() <= 0.9
    assert report.overlap_label.min() >= 0.999


@criterion(11, "lower bound from instantaneous spectrum")
def test_criterion_11_lower_bound(spectra):
    from scipy.integrate import simpson

    for name in BUILTIN_NAMES:
        h = ft.builtin_model(name)
        spec = spectra[name]
        ts = np.linspace(0.0, h.period, 4097)
        lam_min = np.array([np.linalg.eigvalsh(h.eval_at_time(t))[0] for t in ts])
        bound = simpson(lam_min, x=ts) / h.period
        assert spec.avg_energies.min() >= bound - 1e-8


@criterion(12, "Hellmann-Feynman analogue")
def test_criterion_12_hellmann_feynman():
    params = {"delta": 1.0, "v": 0.4, "omega": 1.5}
    h = ft.builtin_model("two_level_linear", params)
    truncation = 10
    spec = ft.solve_spectrum(h, truncation)
    state = spec[0]  # non-degenerate at these parameters
    assert state.group_size == 1
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    dh = ft.FourierHamiltonian(
        dim=2, omega=params["omega"], harmonics={1: 0.5 * sx, -1: 0.5 * sx}
    )
    expectation = ft.average_energy_functional(state.mode, dh)
    step = 1e-5
    eps = {}
    for sign in (+1, -1):
        spec_p = ft.solve_spectrum(
            ft.builtin_model("two_level_linear", {**params, "v": params["v"] + sign * step}),
            truncation,
        )
        overlaps = [abs(state.mode.inner(t.mode)) for t in spec_p]
        eps[sign] = spec_p[int(np.argmax(overlaps))].quasi_energy_raw
    finite_diff = (eps[+1] - eps[-1]) / (2.0 * step)
    assert abs(finite_diff - expectation) <= 1e-4 * max(1.0, abs(expectation))
