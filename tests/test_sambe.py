import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import floqtriplet as ft
from floqtriplet import _lapack, sambe
from floqtriplet.sambe import Representative, fold_reported

from conftest import (
    BUILTIN_NAMES,
    CIRCULAR_DEFAULT,
    assert_same_triplets,
    full_solve,
    leak_floor_and_figure,
    padded,
    random_complex_model,
    random_mode,
    time_shifted,
)


def test_build_sambe_static_block_structure():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    s = ft.build_sambe(h, 1)
    h0 = np.diag([0.0, 1.0])
    expected = np.zeros((6, 6), dtype=complex)
    expected[0:2, 0:2] = h0 - 0.7 * np.eye(2)
    expected[2:4, 2:4] = h0
    expected[4:6, 4:6] = h0 + 0.7 * np.eye(2)
    assert np.array_equal(s, expected)


def test_build_sambe_circular_coupling_blocks():
    h = ft.builtin_model("two_level_circular")
    s = ft.build_sambe(h, 1)
    assert s.shape == (6, 6)
    h1 = h.harmonics[1]
    # block (m, m') holds H_{m-m'}: H_1 sits below the diagonal, H_-1 above
    assert np.array_equal(s[2:4, 0:2], h1)
    assert np.array_equal(s[4:6, 2:4], h1)
    assert np.array_equal(s[0:2, 2:4], h1.conj().T)
    assert np.array_equal(s[0:2, 4:6], np.zeros((2, 2)))


def test_build_sambe_exactly_hermitian():
    for name in ("two_level_circular", "two_level_linear", "driven_ring"):
        s = ft.build_sambe(ft.builtin_model(name), 5)
        assert np.linalg.norm(s - s.conj().T) == 0.0


def test_build_sambe_rejects_small_truncation():
    h = ft.builtin_model("two_level_linear")
    with pytest.raises(ft.ModelError):
        ft.build_sambe(h, 0)


@pytest.mark.parametrize("entry", [ft.solve_spectrum, ft.minimize_ground])
def test_cutoff_below_model_order_is_a_model_error(entry):
    # M = 0 cannot hold the m = +-1 drive: it drops part of H(t) rather than
    # approximating it, a bad input and not a convergence failure
    h = ft.builtin_model("two_level_linear")
    with pytest.raises(ft.ModelError, match="below the largest harmonic index 1"):
        entry(h, 0)


@pytest.mark.parametrize("name", ["two_level_circular", "driven_ring"])
def test_matrix_free_products_match_dense_matrices(name):
    # the pipeline applies S and T through the harmonics after the eigensolve
    h = ft.builtin_model(name)
    m = 4
    rng = np.random.default_rng(13)
    x = rng.normal(size=((2 * m + 1) * h.dim, 3)) + 1j * rng.normal(size=((2 * m + 1) * h.dim, 3))
    s, t = ft.build_sambe(h, m), ft.build_energy_matrix(h, m)
    assert_allclose(sambe._apply_blocks(h, x, h.omega), s @ x, atol=1e-13)
    assert_allclose(sambe._apply_blocks(h, x, 0.0), t @ x, atol=1e-13)
    assert_allclose(sambe._apply_blocks(h, x[:, 0], 0.0), t @ x[:, 0], atol=1e-13)
    assert np.array_equal(s - t, np.diag(np.repeat(np.arange(-m, m + 1), h.dim) * h.omega))


def test_diagonalize_static_ladder():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    vals, vecs = ft.diagonalize(ft.build_sambe(h, 1))
    assert_allclose(np.sort(vals), [-0.7, 0.0, 0.3, 0.7, 1.0, 1.7], atol=1e-12)
    s = ft.build_sambe(h, 1)
    assert np.linalg.norm(s @ vecs - vecs * vals) <= 1e-10 * np.linalg.norm(s)


@pytest.mark.parametrize("defect", [1e-6, 1j, np.nan])
def test_diagonalize_refuses_a_non_hermitian_matrix(defect):
    s = ft.build_sambe(ft.builtin_model("two_level_linear"), 1).astype(complex)
    s[0, 1] += defect
    with pytest.raises(ft.SolverError, match="matrix is not Hermitian"):
        ft.diagonalize(s)
    # a defect far below 1e-12 of the matrix norm is rounding, not asymmetry
    s[0, 1] = s[1, 0].conj() + 1e-16
    vals, _ = ft.diagonalize(s)
    assert vals.size == s.shape[0]


def test_diagonalize_one_dimensional_ladder():
    c = 0.37
    h = ft.FourierHamiltonian(dim=1, omega=1.1, harmonics={0: np.array([[c]])})
    vals, _ = ft.diagonalize(ft.build_sambe(h, 2))
    expected = c + 1.1 * np.arange(-2, 3)
    assert_allclose(np.sort(vals), np.sort(expected), atol=1e-12)


def test_diagonalize_circular_matches_rotating_frame_ladder():
    h = ft.builtin_model("two_level_circular")
    m = 8
    vals, _ = ft.diagonalize(ft.build_sambe(h, m))
    ref = CIRCULAR_DEFAULT
    # interior eigenvalues approach {(w -+ Omega)/2 + k w}
    for base in (ref["eps"]["minus"], ref["eps"]["plus"]):
        for k in range(-m // 2, m // 2):
            target = base + k * 1.5
            assert np.min(np.abs(vals - target)) <= 1e-9


@pytest.mark.parametrize("name", ["static", "two_level_circular", "two_level_linear", "driven_ring"])
def test_windowed_eigenvalues_lie_in_window(name, monkeypatch):
    h = ft.builtin_model(name)
    seen = []
    diagonalize = sambe.diagonalize

    def recording(s, window=None):
        vals, vecs = diagonalize(s, window)
        seen.append((s.shape[0], window, vals))
        return vals, vecs

    monkeypatch.setattr(sambe, "diagonalize", recording)
    for m in (4, 8):
        sambe.solve_at_truncation(h, m)
    # one windowed eigensolve per symmetry sector block and cutoff
    split = [sambe._split(h, m) for m in (4, 8)]
    blocks = [len(sectors.dims) if sectors and sectors.dims else 1 for sectors in split]
    assert len(seen) == sum(blocks)
    for size, (lo, hi), vals in seen:
        assert 0 < vals.size <= size
        assert np.all((vals > lo) & (vals <= hi))
    if name == "driven_ring":
        # the window holds about one replica of each state, not all 2M+1
        last = seen[-blocks[-1]:]
        assert sum(vals.size for _, _, vals in last) < sum(size for size, _, _ in last) // 4


def test_small_rungs_are_solved_whole():
    # the 3-site ring's rungs stay below SECTOR_MIN_SIZE: its sectors are
    # never looked for, and the metadata says so
    h = ft.builtin_model("driven_ring", {"sites": 3})
    spec = ft.solve_spectrum(h, "auto")
    assert (2 * spec.metadata["truncation"] + 1) * h.dim < sambe.SECTOR_MIN_SIZE
    assert spec.metadata["sectors"] is spec.metadata["sector_coupling"] is None
    assert "_sectors" not in h.__dict__
    # the 48-site ring's are above it
    spec = ft.solve_spectrum(ft.builtin_model("driven_ring", {"sites": 48}), "auto")
    assert len(spec.metadata["sectors"]) == 4


@pytest.mark.parametrize(
    "name, params",
    [
        ("static", {}),
        ("two_level_circular", {}),
        ("two_level_linear", {}),
        ("driven_ring", {}),
        # the benchmark's solve-large input: n = 432 at its certified M = 4, in four sectors
        ("driven_ring", {"sites": 48, "v": 0.5, "omega": 2.3}),
    ],
)
def test_windowed_solve_matches_full_spectrum(name, params):
    h = ft.builtin_model(name, params)
    m = ft.certify_truncation(h)
    assert_same_triplets(sambe.solve_at_truncation(h, m), full_solve(h, m), h.omega, 1e-12)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_real_harmonics_solve_as_real_matrices(name, models, spectra):
    # real H_m mean H(t)* = H(-t): S is real symmetric and solved as float64;
    # the drive shifted in time has the same triplets but complex H_m
    h = models[name]
    shifted = time_shifted(h, 0.3 * h.period)
    assert ft.build_sambe(h, 3).dtype == np.float64
    assert ft.build_energy_matrix(h, 3).dtype == np.float64
    # a static model has no drive to shift, so it stays real
    assert ft.build_sambe(shifted, 3).dtype == (np.float64 if name == "static" else np.complex128)
    complex_solve = ft.solve_spectrum(shifted, "auto")
    assert complex_solve.metadata["truncation"] == spectra[name].metadata["truncation"]
    assert_same_triplets(spectra[name], complex_solve, h.omega, 1e-12)


def test_apply_blocks_takes_real_vectors():
    # real eigenvectors of a real S meet complex harmonics downstream
    real = ft.builtin_model("driven_ring")
    x = np.random.default_rng(5).normal(size=(9 * real.dim, 2))
    for h in (real, time_shifted(real, 0.3 * real.period)):
        s, t = ft.build_sambe(h, 4), ft.build_energy_matrix(h, 4)
        assert_allclose(sambe._apply_blocks(h, x, h.omega), s @ x, atol=1e-13)
        assert_allclose(sambe._apply_blocks(h, x, 0.0), t @ x, atol=1e-13)


def test_model_arithmetic_is_chosen_once(models):
    # float64 for every built-in, complex once the ring's drive is shifted in
    # time; the dense matrices and the matrix-free products follow it
    ring = models["driven_ring"]
    cases = [(h, np.float64) for h in models.values()]
    cases.append((time_shifted(ring, 0.3 * ring.period), np.complex128))
    rng = np.random.default_rng(8)
    for h, dtype in cases:
        assert h._arithmetic_harmonics is h._arithmetic_harmonics  # cached
        assert {mat.dtype for mat in h._arithmetic_harmonics.values()} == {np.dtype(dtype)}
        x = rng.normal(size=(3 * h.dim, 2))
        assert ft.build_energy_matrix(h, 1).dtype == dtype
        assert sambe._apply_blocks(h, x, 0.0).dtype == dtype
        assert sambe._apply_blocks(h, x + 0j, 0.0).dtype == np.complex128


@pytest.mark.parametrize("real", [True, False])
def test_edge_leak_matches_the_dense_rows_past_the_cutoff(real):
    # S_inf x past each edge: the rows |p| > M of the S of cutoff M + K, on
    # each mode padded with K zero blocks on either side
    h = random_complex_model(3, seed=21)
    if real:
        h = ft.FourierHamiltonian(h.dim, h.omega, {m: mat.real for m, mat in h.harmonics.items() if m >= 0})
    truncation, reach = 2, h.max_harmonic
    assert reach == 2 and np.isrealobj(ft.build_sambe(h, reach)) == real
    rng = np.random.default_rng(22)
    modes = [random_mode(rng, truncation, h.dim) for _ in range(4)]
    harmonic = np.repeat(np.arange(-truncation - reach, truncation + reach + 1), h.dim)
    dense = ft.build_sambe(h, truncation + reach)
    reference = dense[np.abs(harmonic) > truncation] @ np.column_stack([padded(m, reach).flat() for m in modes])
    leak = sambe._edge_leak(h, np.column_stack([m.flat() for m in modes]))
    assert leak.shape == (4, 2 * reach, h.dim)
    assert_allclose(leak.reshape(4, -1).T, reference, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "name, params, truncation, split",
    [
        # both levels fold to quasi-energy 0: ordered by raw eigenvalue
        ("static", {"omega": 0.1}, 1, False),
        ("driven_ring", {}, 4, False),
        # n = 204: selected in the sector basis
        ("driven_ring", {"sites": 12}, 8, True),
    ],
)
def test_select_orders_modes_by_quasi_energy_then_raw_eigenvalue(name, params, truncation, split):
    h = ft.builtin_model(name, params)
    vals, vecs, basis = sambe._window_pairs(h, truncation)
    assert (basis is not None) == split
    x, tx, lams, eps = sambe._select(vals, vecs, h, truncation, basis)
    assert x.shape == tx.shape == ((2 * truncation + 1) * h.dim, h.dim)
    assert np.array_equal(np.lexsort((lams, eps)), np.arange(h.dim))
    if name == "static":
        assert eps.tolist() == [0.0, 0.0] and lams.tolist() == [0.0, 1.0]


def _perturbing_stevd(column):
    """scipy's dstevd with 1e-6 of the last eigenvector added to the one at
    `column` (an index into the full spectrum, given its size)."""
    stevd = _lapack.lapack.dstevd

    def perturbed(*args, **kwargs):
        vals, vecs, info = stevd(*args, **kwargs)
        vecs[:, column(vals.size)] += 1e-6 * vecs[:, -1]
        return vals, vecs, info

    return perturbed


@pytest.mark.parametrize("tau", [0.0, 0.3], ids=["real", "complex"])
def test_diagonalize_checks_hold_in_both_dtypes(tau, monkeypatch):
    h = ft.builtin_model("driven_ring")
    s = ft.build_sambe(time_shifted(h, tau * h.period), 2)
    assert s.dtype == (np.float64 if tau == 0.0 else np.complex128)
    skewed = s.copy()
    skewed[0, 1] += 1e-6
    with pytest.raises(ft.SolverError, match="not Hermitian"):
        ft.diagonalize(skewed)
    skewed[0, 1] = skewed[1, 0] = np.nan
    with pytest.raises(ft.SolverError, match="not Hermitian"):
        ft.diagonalize(skewed)

    with monkeypatch.context() as patch:
        patch.setattr(_lapack.lapack, "dstevd", _perturbing_stevd(lambda n: 0))
        with pytest.raises(ft.SolverError, match="residual"):
            ft.diagonalize(s)
    # each LAPACK call of this dtype's path reporting a nonzero info
    prefix, names = ("d", ("sytrd", "ormqr")) if tau == 0.0 else ("z", ("hetrd", "unmqr"))
    for name in [prefix + names[0] + "_lwork", *(prefix + n for n in names), "dstevd"]:
        call = getattr(_lapack.lapack, name)
        with monkeypatch.context() as patch:
            patch.setattr(_lapack.lapack, name, lambda *a, f=call, **k: (*f(*a, **k)[:-1], 1))
            with pytest.raises(ft.SolverError, match=f"eigensolver failed: {name} info 1"):
                ft.diagonalize(s)


def test_windowed_eigensolve_certifies_residuals(monkeypatch):
    # the middle pair of the spectrum lies inside the window, so the bad
    # pair reaches the check
    h = ft.builtin_model("driven_ring")
    monkeypatch.setattr(_lapack.lapack, "dstevd", _perturbing_stevd(lambda n: n // 2))
    with pytest.raises(ft.SolverError, match="residual"):
        sambe.solve_at_truncation(h, 4)


@pytest.mark.parametrize("tau", [0.0, 0.3], ids=["real", "complex"])
def test_windowed_solve_returns_the_full_solves_pairs_in_the_window(tau):
    # the window keeps the full solve's pairs with lo < lam <= hi and back-
    # transforms only those: the same eigenvalues, the same vectors
    h = ft.builtin_model("driven_ring")
    s = ft.build_sambe(time_shifted(h, tau * h.period), 2)
    window = (-1.0, 1.5)
    vals_full, vecs_full = ft.diagonalize(s)
    vals, vecs = ft.diagonalize(s, window=window)
    inside = (vals_full > window[0]) & (vals_full <= window[1])
    assert 0 < vals.size < s.shape[0]
    assert np.array_equal(vals, vals_full[inside])
    assert_allclose(vecs, vecs_full[:, inside], atol=1e-13)
    assert np.linalg.norm(s @ vecs - vecs * vals, axis=0).max() <= 1e-12


@pytest.mark.parametrize("tol_scale", [1e-3, None], ids=["tol_deg=1e-3*omega", "default"])
def test_windowed_solve_on_split_real_matrix(monkeypatch, tol_scale):
    # a real S that splits into exactly degenerate blocks: the windowed dsyevr
    # returned a pair with residual 2.2e-5 at M = 2 on this model, which
    # failed its auto solve at a degeneracy tolerance of 1e-3 * omega
    if tol_scale is not None:
        monkeypatch.setattr(sambe, "TOL_DEG", tol_scale)
    omega = 1.2695056077187155
    h = ft.FourierHamiltonian(
        dim=4,
        omega=omega,
        harmonics={
            0: np.diag([omega, 1.2970376566390712e-37, 1.2970376566390712e-37, -0.83736873154567659]),
            1: np.diag([0.0, 0.0, 0.0, 1.0]),
            2: np.diag([0.0, 0.0, 0.0, -0.09981224240877817]),
        },
    )
    fixed = sambe.solve_at_truncation(h, 2)
    assert max(t.residual for t in fixed) <= 1e-12
    spec = ft.solve_spectrum(h, "auto")
    assert spec.metadata["truncation"] == 16
    assert max(t.residual for t in spec) <= 1e-13


def test_diagonalize_empty_window_reaches_count_check():
    h = ft.builtin_model("static")
    vals, vecs = ft.diagonalize(ft.build_sambe(h, 2), window=(100.0, 101.0))
    assert vals.shape == (0,) and vecs.shape == (5 * h.dim, 0)
    with pytest.raises(ft.TruncationError, match="found 0 replica families"):
        ft.select_representatives(vals, vecs, h, 2)


def test_dense_build_guard_raises_before_allocating():
    # 96 sites at M = 64: n = 129 * 96 = 12384, a 2.29 GiB complex matrix
    h = ft.builtin_model("driven_ring", {"sites": 96})
    tracemalloc.start()
    try:
        with pytest.raises(ft.ModelError, match=r"M=64 .* 12384 x 12384 .* 2\.29 GiB"):
            sambe.solve_at_truncation(h, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_dense_guard_counts_the_eigensolver_copy(monkeypatch):
    # 3-site ring at M = 8: n = 51; a limit between one matrix (16 n^2) and
    # the solve (the four n x n arrays of `_eigh`, 3 * 16 n^2) must refuse it
    h = ft.builtin_model("driven_ring", {"sites": 3})
    n = 17 * 3
    monkeypatch.setattr(sambe, "MAX_DENSE_BYTES", 32 * n**2)
    tracemalloc.start()
    try:
        with pytest.raises(ft.ModelError, match=r"51 x 51 matrix of .* GiB for the solve"):
            sambe.solve_at_truncation(h, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * n**2
    monkeypatch.setattr(sambe, "MAX_DENSE_BYTES", 48 * n**2)
    assert len(sambe.solve_at_truncation(h, 8)) == 3


def test_dense_guard_refuses_levels_at_the_float64_replica_limit():
    # the reach plus omega/2 is refused from 2^52 omega on, where one ulp of
    # a level is omega; at omega = 0.5 every sum here is exact in float64
    limit = sambe.MAX_REACH * 0.5
    inside = ft.builtin_model("static", {"levels": (0.0, limit - 0.5), "omega": 0.5})
    sambe._dense_guard(inside, 1)
    at = ft.builtin_model("static", {"levels": (-(limit - 0.25), 0.0), "omega": 0.5})
    with pytest.raises(ft.ModelError, match=r"2\^52 \* omega = 2\.252e\+15"):
        sambe._dense_guard(at, 1)


def test_truncation_bound_memory_does_not_grow_with_replica_offsets():
    # 24 static levels in [0, 4] at omega = 1e-3 sit up to 4000 replicas
    # apart; padding every mode by its offset took 276 MB in this solve
    levels = np.sort(np.random.default_rng(0).uniform(0, 4, 24))
    h = ft.builtin_model("static", {"levels": tuple(levels), "omega": 1e-3})
    tracemalloc.start()
    try:
        spec = sambe.solve_at_truncation(h, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert (spec.metadata["eps_bound"], spec.metadata["ebar_estimate"]) == (0.0, 0.0)
    assert_allclose(np.sort(spec.avg_energies), levels, atol=1e-12)


def test_energy_window_reuses_the_model_terms():
    # lambda(H_0) and the drive norms are computed once per model; the window
    # is the same to the bit as when they were computed at every cutoff
    h = ft.builtin_model("driven_ring", {"sites": 6, "v": 0.5})
    levels = np.linalg.eigvalsh(h.harmonics[0])
    drive = sum(np.linalg.norm(mat, 2) for m, mat in h.harmonics.items() if m != 0)
    for m in (1, 2, 4):
        tol = 1e-8 * h.omega
        reach = drive + 0.5 * h.omega + (2 * m + 1) * h.dim * tol + 1e-9 * h.omega
        assert sambe._energy_window(h, m) == (levels[0] - reach, levels[-1] + reach)
    assert h._spectral_reach is h._spectral_reach


def test_truncation_bound_warns_below_convergence():
    # at M = 3 this model is 0.06 off in eps and 0.24 in Ebar against M = 32
    h = ft.builtin_model("two_level_linear", {"v": 2.5, "omega": 0.9})
    warning = r"M=3 is below convergence: eps bound inf, ebar estimate inf"
    with pytest.warns(RuntimeWarning, match=warning):
        spec = ft.solve_spectrum(h, 3)
    assert len(spec) == 2
    auto = ft.solve_spectrum(h, "auto")
    assert max(auto.metadata["eps_bound"], auto.metadata["ebar_estimate"]) < sambe.QUASI_TOL
    ring = ft.builtin_model("driven_ring")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = ft.solve_spectrum(ring, 4)
    assert max(spec.metadata["eps_bound"], spec.metadata["ebar_estimate"]) < sambe.QUASI_TOL


def test_cluster_without_a_gap_has_an_infinite_bound():
    # at M = 3 the two states' residual radii cover the zone: they merge into
    # one cluster that overlaps its own replica, so nothing bounds it
    h = ft.builtin_model("two_level_linear", {"v": 2.5, "omega": 0.9})
    spec = sambe.solve_at_truncation(h, 3)
    assert spec.metadata["eps_bound"] == spec.metadata["ebar_estimate"] == np.inf


# each case with the cutoff M that certifies it: no rung later than this
BOUND_CASES = [
    ("static", {}, 1),
    ("two_level_circular", {}, 1),
    ("two_level_linear", {}, 4),
    ("driven_ring", {}, 4),
    ("two_level_linear", {"v": 2.5, "omega": 0.9}, 16),
] + [
    # the benchmark's ring corners: solve-large, compare-oracle, variational-ground
    ("driven_ring", {"sites": sites, "v": v, "omega": omega}, certified)
    for sites, certified_at in (
        (3, {(0.45, 2.2): 4, (0.45, 2.4): 4, (0.55, 2.2): 8, (0.55, 2.4): 4}),
        (6, {(0.45, 2.2): 8, (0.45, 2.4): 4, (0.55, 2.2): 8, (0.55, 2.4): 4}),
        (48, {(0.45, 2.2): 4, (0.45, 2.4): 4, (0.55, 2.2): 4, (0.55, 2.4): 4}),
    )
    for (v, omega), certified in certified_at.items()
]


@pytest.mark.parametrize(
    "name, params, certified",
    BOUND_CASES,
    # the ids the cases had before the certified M joined them
    ids=[f"{name}-params{i}" for i, (name, _, _) in enumerate(BOUND_CASES)],
)
def test_certified_spectrum_is_within_its_bounds(name, params, certified):
    h = ft.builtin_model(name, params)
    spec = ft.solve_spectrum(h, "auto")
    assert spec.metadata["truncation"] == certified
    eps_bound, ebar_estimate = spec.metadata["eps_bound"], spec.metadata["ebar_estimate"]
    assert max(eps_bound, ebar_estimate) < sambe.QUASI_TOL
    again = ft.solve_spectrum(h, 2 * spec.metadata["truncation"])
    # 1e-12 of rounding on top of the bounds, which can be 1e-25
    assert_same_triplets(spec, again, h.omega, eps_bound + 1e-12, ebar_estimate + 1e-12)


@pytest.mark.parametrize(
    "name, params, certified",
    BOUND_CASES,
    ids=[f"{name}-params{i}" for i, (name, _, _) in enumerate(BOUND_CASES)],
)
def test_leak_floor_is_below_the_figure_it_bounds(name, params, certified):
    # at the certified rung and at the ladder's rung below it, the floor
    # against `_truncation_bounds`' own Ebar figure, not the reported
    # max(figure, floor): here at most 0.104 of it, on the 48-site ring at
    # omega = 2.4
    h = ft.builtin_model(name, params)
    first = max(1, h.max_harmonic)  # the ladder's first rung; it doubles from there
    for truncation in {certified, max(certified // 2, first)}:
        floor, figure = leak_floor_and_figure(h, truncation)
        assert floor <= figure, truncation


# the BOUND_CASES solved at their certified M and at the rung below it by the
# staged pipeline (select, group, resolve, bound) that the one pass replaced
BOUND_CASE_PINS = json.loads((Path(__file__).parent / "bound_case_pins.json").read_text())


@pytest.mark.parametrize(
    "pin",
    BOUND_CASE_PINS,
    ids=[f"{p['name']}-{sorted(p['params'].values())}-M{p['truncation']}" for p in BOUND_CASE_PINS],
)
def test_bound_cases_keep_their_pinned_values(pin):
    h = ft.builtin_model(pin["name"], pin["params"])
    spec = sambe.solve_at_truncation(h, pin["truncation"])
    unused = list(zip(pin["eps"], pin["ebar"]))
    for t in spec:
        match = next(
            (
                (eps, ebar) for eps, ebar in unused
                if abs(t.avg_energy - ebar) <= 1e-13
                and ft.wrap_distance(t.quasi_energy, eps, h.omega) <= 1e-13
            ),
            None,
        )
        assert match is not None, (t.quasi_energy, t.avg_energy)
        unused.remove(match)
    # 1e-10 relative, above the rounding each figure carries: the split term
    # of eps_bound compares Ritz values of size omega to a few ulps, and w is
    # the square of residuals that rounding moves by about 1e-29
    for key, floor in (("eps_bound", 1e-15), ("ebar_estimate", 1e-25)):
        expected = np.inf if pin[key] is None else pin[key]
        value = spec.metadata[key]
        assert value == expected or abs(value - expected) <= 1e-10 * expected + floor, key


def test_ebar_estimate_is_never_below_the_leak_floor():
    # the estimate's w, a difference of squares, rounds to 0.0 here, while
    # the edge leak outside the window proves a figure of 3.95e-51
    a = 1.49091125e-13
    h = ft.FourierHamiltonian(dim=1, omega=1.0, harmonics={0: np.array([[-a]]), 1: np.array([[a]])})
    vals, vecs, basis = sambe._window_pairs(h, 1)
    x, _, lams, eps = sambe._select(vals, vecs, h, 1, basis)
    floor = sambe._leak_floor(h, 1, x, lams, eps)
    assert floor > 0.0
    assert sambe.solve_at_truncation(h, 1).metadata["ebar_estimate"] >= floor
    assert ft.solve_spectrum(h).metadata["ebar_estimate"] >= floor


@pytest.mark.parametrize(
    "name, params, truncation",
    [("two_level_linear", {"v": 2.5, "omega": 0.9}, m) for m in (4, 5, 6, 8)]
    + [("driven_ring", {}, m) for m in (4, 8)]
    + [("driven_ring", {"sites": 48, "v": 0.5, "omega": 2.3}, m) for m in (2, 4)],
)
def test_fixed_cutoff_is_within_its_bounds(name, params, truncation):
    # below convergence too: at M = 4 both strong-drive states merge into
    # one cluster, whose bound (0.18) still holds against M = 32
    h = ft.builtin_model(name, params)
    spec = sambe.solve_at_truncation(h, truncation)
    reference = sambe.solve_at_truncation(h, 32 if h.dim < 48 else 16)
    assert_same_triplets(
        spec, reference, h.omega,
        spec.metadata["eps_bound"] + 1e-12, spec.metadata["ebar_estimate"] + 1e-12,
    )


def test_select_representatives_static():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    vals, vecs = ft.diagonalize(ft.build_sambe(h, 3))
    reps = ft.select_representatives(vals, vecs, h, 3)
    assert_allclose([r.quasi_energy for r in reps], [0.0, 0.3], atol=1e-12)
    # the kept rungs sit at the Fourier-weight center: centroid 0
    for rep in reps:
        assert abs(rep.mode.centroid()) <= 1e-9


def test_select_representatives_circular_quasi_energies():
    h = ft.builtin_model("two_level_circular")
    vals, vecs = ft.diagonalize(ft.build_sambe(h, 10))
    reps = ft.select_representatives(vals, vecs, h, 10)
    ref = CIRCULAR_DEFAULT
    assert_allclose(
        sorted(r.quasi_energy for r in reps),
        sorted([ref["eps"]["minus"], ref["eps"]["plus"]]),
        atol=1e-9,
    )


def test_select_representatives_errors_when_starved():
    # M=1 on a strongly driven model cannot host d clean replica families
    h = ft.builtin_model("two_level_linear", {"delta": 1.0, "v": 3.0, "omega": 0.9})
    vals, vecs = ft.diagonalize(ft.build_sambe(h, 1))
    with pytest.raises(ft.TruncationError):
        ft.select_representatives(vals, vecs, h, 1)


@pytest.mark.parametrize("k", [-5, -3, 3, 7])
def test_shift_past_the_window_drops_everything(k):
    mode = ft.FloquetMode.from_block([0.6, 0.8], 0, 1)
    shifted, lost = mode.shift(k)
    assert not shifted.coeffs.any()
    assert abs(lost - 1.0) <= 1e-15


def test_replica_ladder_of_selected_mode():
    h = ft.builtin_model("two_level_circular")
    m = 8
    s = ft.build_sambe(h, m)
    vals, vecs = ft.diagonalize(s)
    reps = ft.select_representatives(vals, vecs, h, m)
    for rep in reps:
        shifted, lost = rep.mode.shift(1)
        assert lost <= 1e-12
        target = rep.quasi_energy_raw + h.omega
        j = int(np.argmin(np.abs(vals - target)))
        assert abs(vals[j] - target) <= 1e-9
        assert abs(np.vdot(vecs[:, j], shifted.flat())) >= 1.0 - 1e-6


def test_select_representatives_keeps_centered_replicas():
    # every kept mode is the replica whose Fourier centroid lies in [-1/2, 1/2)
    cases = [
        (ft.builtin_model("driven_ring"), 8),
        (ft.builtin_model("two_level_linear", {"delta": 1.0, "v": 3.0, "omega": 0.9}), 32),
        (ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.5}), 3),
    ]
    for h, m in cases:
        vals, vecs = ft.diagonalize(ft.build_sambe(h, m))
        reps = ft.select_representatives(vals, vecs, h, m)
        assert len(reps) == h.dim
        for rep in reps:
            assert -0.5 <= rep.mode.centroid() < 0.5


def test_select_representatives_accepts_converged_small_cutoff():
    # M=4 already matches M=16; a rung-counting rule used to reject it
    h = ft.builtin_model("driven_ring", {"sites": 6, "v": 0.45, "omega": 2.2})
    small = sambe.solve_at_truncation(h, 4)
    large = sambe.solve_at_truncation(h, 16)
    assert len(small) == 6
    assert np.max(ft.wrap_distance(small.quasi_energies, large.quasi_energies, h.omega)) <= 1e-9
    assert np.max(np.abs(small.avg_energies - large.avg_energies)) <= 1e-9


@pytest.mark.parametrize("omega", [0.7, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("truncation", [1, 2, 5, 8, "auto"])
def test_resonant_drive_keeps_one_replica_per_state(omega, truncation):
    # at delta == omega every Floquet state has its centroids exactly on the
    # seam, -1/2 and +1/2; exactly one replica of each must be kept
    v = 0.4
    h = ft.builtin_model("two_level_circular", {"delta": omega, "v": v, "omega": omega})
    spec = ft.solve_spectrum(h, truncation)
    assert len(spec) == 2
    assert sambe.replica_overlap(spec[0].mode, spec[1].mode)[0] <= 1e-8
    assert_allclose(spec.avg_energies, [-v / 2, v / 2], atol=1e-12)
    assert abs(spec.avg_energies.sum()) <= 1e-12
    expected = np.sort(np.mod([omega / 2 - v / 2, omega / 2 + v / 2], omega))
    assert_allclose(np.sort(spec.quasi_energies), expected, atol=1e-12)
    assert spec.metadata["residual_max"] <= 1e-10


def test_group_degeneracies_singletons():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    spec = ft.solve_spectrum(h, 2)
    assert [t.group_size for t in spec] == [1, 1]


def test_group_degeneracies_commensurate_pair():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.5})
    vals, vecs = ft.diagonalize(ft.build_sambe(h, 3))
    reps = ft.select_representatives(vals, vecs, h, 3)
    groups = ft.group_degeneracies(reps, h)
    assert len(groups) == 1
    assert groups[0].size == 2
    assert abs(groups[0].quasi_energy) <= 1e-12


def test_group_degeneracies_wrapped_boundary():
    omega = 1.0
    h = ft.FourierHamiltonian(dim=2, omega=omega, harmonics={0: np.diag([1e-10, omega - 1e-10])})
    mode_a = ft.FloquetMode.from_block([1.0, 0.0], 0, 2)
    mode_b = ft.FloquetMode.from_block([0.0, 1.0], 0, 2)
    reps = [
        Representative(mode_a, 1e-10, 1e-10, 0.0),
        Representative(mode_b, omega - 1e-10, omega - 1e-10, 0.0),
    ]
    groups = ft.group_degeneracies(reps, h)
    assert len(groups) == 1 and groups[0].size == 2


@pytest.mark.parametrize("omega, within_reach", [(0.5, True), (1e-5, False)])
def test_replica_alignment_tries_only_targets_within_reach(monkeypatch, omega, within_reach):
    # two static levels 1 apart fold onto one quasi-energy 1 / omega replicas
    # apart, within 4M of each other only at omega = 0.5; either way each
    # state keeps its own replica, so no mode is shifted and M = 1 solves
    truncation = 1
    assert within_reach == (1.0 / omega <= 4 * truncation)
    shifts = []
    shift = ft.FloquetMode.shift
    monkeypatch.setattr(ft.FloquetMode, "shift", lambda mode, k: shifts.append(k) or shift(mode, k))
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": omega})
    spec = sambe.solve_at_truncation(h, truncation)
    assert [t.group_size for t in spec] == [2, 2]
    assert_allclose(spec.avg_energies, [0.0, 1.0], atol=1e-12)
    assert_allclose([t.mode.centroid() for t in spec], [0.0, 0.0], atol=1e-12)
    assert shifts == []


@pytest.mark.parametrize("omega", [0.5, 1 / 3, 0.25, 0.1, 1e-3])
def test_resonant_static_levels_certify_at_the_first_cutoff(omega):
    # levels 0 and 1 fold onto one quasi-energy 1 / omega replicas apart; on
    # its own replica each is exact at M = 1, whatever the distance
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": omega})
    spec = ft.solve_spectrum(h, "auto")
    assert spec.metadata["truncation"] == 1
    assert [t.group_size for t in spec] == [2, 2]
    assert_allclose(spec.avg_energies, [0.0, 1.0], atol=1e-12)
    assert_allclose([t.quasi_energy_raw for t in spec], [0.0, 1.0], atol=1e-12)
    assert_allclose([t.mode.centroid() for t in spec], [0.0, 0.0], atol=1e-12)


def test_average_energy_block_singleton_static_ground():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    mode = ft.FloquetMode.from_block([1.0, 0.0], 0, 2)
    block = ft.average_energy_block([mode], h)
    assert_allclose(block, [[0.0]], atol=1e-14)


def test_average_energy_block_degenerate_pair_and_rotation():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.5})
    # consistent replicas of the two families at the same raw eigenvalue 0
    mode0 = ft.FloquetMode.from_block([1.0, 0.0], 0, 4)
    mode1 = ft.FloquetMode.from_block([0.0, 1.0], -2, 4)
    block = ft.average_energy_block([mode0, mode1], h)
    assert_allclose(block, np.diag([0.0, 1.0]), atol=1e-14)

    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    c, _ = np.linalg.qr(a)
    basis = np.column_stack([mode0.flat(), mode1.flat()]) @ c
    rotated = [ft.FloquetMode.from_flat(basis[:, i], 2) for i in range(2)]
    block_rot = ft.average_energy_block(rotated, h)
    assert_allclose(block_rot, c.conj().T @ np.diag([0.0, 1.0]) @ c, atol=1e-12)


def test_resolve_degenerate_static_pair():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.5})
    spec = ft.solve_spectrum(h, 4)
    assert_allclose(spec.quasi_energies, [0.0, 0.0], atol=1e-12)
    assert_allclose(spec.avg_energies, [0.0, 1.0], atol=1e-12)
    assert [t.group_size for t in spec] == [2, 2]


def test_resolve_circular_pairing(spectra):
    spec = spectra["two_level_circular"]
    ref = CIRCULAR_DEFAULT
    # ordered by average energy: the negative branch carries eps_plus
    assert_allclose(
        spec.avg_energies, [ref["ebar"]["plus"], -ref["ebar"]["plus"]], atol=1e-9
    )
    assert_allclose(
        spec.quasi_energies, [ref["eps"]["plus"], ref["eps"]["minus"]], atol=1e-9
    )


def test_resolve_keeps_nondegenerate_modes(spectra):
    h = ft.builtin_model("two_level_circular")
    spec = spectra["two_level_circular"]
    m = spec.metadata["truncation"]
    vals, vecs = ft.diagonalize(ft.build_sambe(h, m))
    reps = ft.select_representatives(vals, vecs, h, m)
    by_eps = {round(r.quasi_energy, 9): r for r in reps}
    for t in spec:
        rep = by_eps[round(t.quasi_energy, 9)]
        assert abs(rep.mode.inner(t.mode)) >= 1.0 - 1e-12


def test_resolution_invariant_under_input_rotation():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.5})
    vals, vecs = ft.diagonalize(ft.build_sambe(h, 3))
    reps = ft.select_representatives(vals, vecs, h, 3)
    groups = ft.group_degeneracies(reps, h)
    baseline = ft.resolve_degeneracies(groups, h)

    # the degenerate eigenspace: every member shifted onto the first one's
    # replica, where all share its raw eigenvalue
    first = groups[0].members[0]
    aligned = []
    for member in groups[0].members:
        k = round((member.quasi_energy_raw - first.quasi_energy_raw) / h.omega)
        shifted, lost = member.mode.shift(-k)
        assert lost <= 1e-20
        aligned.append(shifted.flat())
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    c, _ = np.linalg.qr(a)
    basis = np.column_stack(aligned) @ c
    rotated_reps = [
        Representative(
            ft.FloquetMode.from_flat(basis[:, i], 2),
            first.quasi_energy,
            first.quasi_energy_raw,
            groups[0].members[i].residual,
        )
        for i in range(2)
    ]
    rotated = ft.resolve_degeneracies(ft.group_degeneracies(rotated_reps, h), h)
    assert_allclose(rotated.avg_energies, baseline.avg_energies, atol=1e-10)
    for t_rot, t_base in zip(rotated, baseline):
        assert ft.replica_overlap(t_rot.mode, t_base.mode)[0] >= 1.0 - 1e-9


def test_quasi_energy_functional_on_eigenmode(spectra):
    h = ft.builtin_model("two_level_circular")
    for t in spectra["two_level_circular"]:
        value = ft.quasi_energy_functional(t.mode, h)
        assert abs(value - t.quasi_energy_raw) <= 1e-10


def test_quasi_energy_functional_replica_shift(spectra):
    h = ft.builtin_model("two_level_circular")
    t = spectra["two_level_circular"][0]
    shifted, lost = t.mode.shift(1)
    assert lost <= 1e-12
    value = ft.quasi_energy_functional(shifted.normalized(), h)
    assert abs(value - (t.quasi_energy_raw + h.omega)) <= 1e-10


def test_quasi_energy_functional_superposition():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    vals, vecs = ft.diagonalize(ft.build_sambe(h, 2))
    in_zone = [j for j in range(vals.size) if 0.0 <= vals[j] < h.omega]
    assert len(in_zone) == 2
    mix = (vecs[:, in_zone[0]] + vecs[:, in_zone[1]]) / np.sqrt(2.0)
    mode = ft.FloquetMode.from_flat(mix, 2)
    expected = 0.5 * (vals[in_zone[0]] + vals[in_zone[1]])
    assert abs(ft.quasi_energy_functional(mode, h) - expected) <= 1e-12


def test_average_energy_functional_static_and_replica():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    mode = ft.FloquetMode.from_block([0.0, 1.0], 0, 3)
    assert abs(ft.average_energy_functional(mode, h) - 1.0) <= 1e-14
    shifted, _ = mode.shift(-2)
    assert abs(ft.average_energy_functional(shifted, h) - 1.0) <= 1e-14


def test_average_energy_functional_circular_ground(spectra):
    h = ft.builtin_model("two_level_circular")
    ground = spectra["two_level_circular"][0]
    value = ft.average_energy_functional(ground.mode, h)
    assert abs(value - CIRCULAR_DEFAULT["ebar"]["plus"]) <= 1e-6
    assert abs(value - ground.avg_energy) <= 1e-12


def test_functionals_reject_unnormalized():
    h = ft.builtin_model("static")
    mode = ft.FloquetMode.from_block([2.0, 0.0], 0, 1)
    with pytest.raises(ValueError):
        ft.quasi_energy_functional(mode, h)
    with pytest.raises(ValueError):
        ft.average_energy_functional(mode, h)


@pytest.mark.parametrize("name", ["two_level_circular", "two_level_linear"])
def test_replica_covariance_interior(name, spectra):
    h = ft.builtin_model(name)
    spec = spectra[name]
    m = spec.metadata["truncation"]
    # S at M + |k|, where the shifted mode keeps all of its weight
    solves = {k: ft.diagonalize(ft.build_sambe(h, m + k)) for k in range(m // 2 + 1)}
    for t in spec:
        for k in range(-(m // 2), m // 2 + 1):
            vals, vecs = solves[abs(k)]
            shifted, lost = padded(t.mode, abs(k)).shift(k)
            assert lost == 0.0
            target = t.quasi_energy_raw + k * h.omega
            j = int(np.argmin(np.abs(vals - target)))
            assert abs(vals[j] - target) <= 1e-6
            assert abs(np.vdot(vecs[:, j], shifted.flat())) >= 1.0 - 1e-6


@pytest.mark.parametrize("name", ["two_level_circular", "two_level_linear", "driven_ring"])
def test_replica_invariance_of_functionals(name, spectra):
    h = ft.builtin_model(name)
    spec = spectra[name]
    m = spec.metadata["truncation"]
    for t in spec:
        for k in range(-(m // 2), m // 2 + 1):
            shifted, lost = padded(t.mode, abs(k)).shift(k)
            assert lost == 0.0
            ebar = ft.average_energy_functional(shifted, h)
            assert abs(ebar - t.avg_energy) <= 1e-10
            eps = ft.quasi_energy_functional(shifted, h)
            assert abs(eps - (t.quasi_energy_raw + k * h.omega)) <= 1e-9


def test_hypothesis_style_replica_shift_exactness():
    # random interior-supported modes: ebar exactly invariant, eps shifts by kw
    h = ft.builtin_model("two_level_circular")
    m = 8
    rng = np.random.default_rng(5)
    for _ in range(25):
        inner = random_mode(rng, m // 2, h.dim)
        coeffs = np.zeros((2 * m + 1, h.dim), dtype=complex)
        coeffs[m - m // 2 : m + m // 2 + 1] = inner.coeffs
        mode = ft.FloquetMode(coeffs)
        k = int(rng.integers(-(m // 2), m // 2 + 1))
        shifted, lost = mode.shift(k)
        assert lost == 0.0
        e0 = ft.average_energy_functional(mode, h)
        e1 = ft.average_energy_functional(shifted, h)
        assert abs(e1 - e0) <= 1e-10
        q0 = ft.quasi_energy_functional(mode, h)
        q1 = ft.quasi_energy_functional(shifted, h)
        assert abs(q1 - (q0 + k * h.omega)) <= 1e-10


@pytest.mark.parametrize("name", ["static", "two_level_circular", "driven_ring"])
def test_projected_energy_matrix_commutes_with_phases(name, spectra):
    h = ft.builtin_model(name)
    spec = (
        spectra[name]
        if name != "static"
        else ft.solve_spectrum(ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.5}), 4)
    )
    hh = h if name != "static" else ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.5})
    hbar, phases = ft.average_energy_matrix(spec, hh)
    comm = hbar @ phases - phases @ hbar
    assert np.abs(comm).max() <= 1e-12


def test_unprojected_energy_matrix_does_not_commute(spectra):
    # cross entries of the uncontracted matrix depend on the replica choice;
    # fold-aligned replicas expose them for the circular model
    h = ft.builtin_model("two_level_circular")
    spec = spectra["two_level_circular"]
    aligned = []
    for t in spec:
        k = int(np.round((t.quasi_energy_raw - t.quasi_energy) / h.omega))
        shifted, lost = t.mode.shift(-k)
        assert lost <= 1e-12
        aligned.append(shifted.normalized())
    hbar = ft.average_energy_block(aligned, h)
    assert np.abs(hbar - np.diag(np.diag(hbar))).max() > 1e-3  # real cross terms
    phases = np.diag(np.exp(-1j * spec.quasi_energies * h.period))
    comm = hbar @ phases - phases @ hbar
    assert np.abs(comm).max() > 1e-6
    # zeroing the cross-group entries restores commutation
    hbar_proj, phases_proj = ft.average_energy_matrix(spec, h)
    assert np.abs(hbar_proj @ phases_proj - phases_proj @ hbar_proj).max() <= 1e-12


@pytest.mark.parametrize("name", ["two_level_circular", "two_level_linear", "driven_ring"])
def test_appendix_equivalence_and_mixed_state_inequality(name, spectra):
    h = ft.builtin_model(name)
    spec = spectra[name]
    a = ft.assembled_average_energy(spec, h)
    # on every resolved eigenstate the two functionals coincide
    for t in spec:
        x = t.mode.flat()
        ebar_op = float(np.real(np.vdot(x, a @ x)))
        assert abs(ebar_op - t.avg_energy) <= 1e-9
        assert abs(ft.average_energy_functional(t.mode, h) - t.avg_energy) <= 1e-9
    # mixtures of distinct quasi-energies break the equality; sample over
    # relative replica shifts, since a single replica pairing can make the
    # cross term vanish by Fourier orthogonality
    rng = np.random.default_rng(17)
    found_gap = 0.0
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
        mode = ft.FloquetMode.from_flat(x, h.dim)
        ecal = ft.average_energy_functional(mode, h)
        eop = float(np.real(np.vdot(x, a @ x)))
        found_gap = max(found_gap, abs(ecal - eop))
    assert found_gap > 1e-6


def test_static_model_functionals_coincide_identically(spectra):
    # the drive is what separates the two functionals; for a static model the
    # assembled operator is complete and they agree on every mode
    h = ft.builtin_model("static")
    spec = spectra["static"]
    a = ft.assembled_average_energy(spec, h)
    rng = np.random.default_rng(23)
    m = spec.metadata["truncation"]
    for _ in range(50):
        mode = random_mode(rng, m, h.dim)
        x = mode.flat()
        assert abs(
            ft.average_energy_functional(mode, h) - float(np.real(np.vdot(x, a @ x)))
        ) <= 1e-10


@pytest.mark.parametrize("name", ["static", "two_level_circular", "two_level_linear", "driven_ring"])
def test_ritz_bound_random_modes(name, spectra):
    h = ft.builtin_model(name)
    spec = spectra[name]
    a = ft.assembled_average_energy(spec, h)
    ebar0 = spec[0].avg_energy
    rng = np.random.default_rng(29)
    m = spec.metadata["truncation"]
    size = (2 * m + 1) * h.dim
    samples = rng.normal(size=(200, size)) + 1j * rng.normal(size=(200, size))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    values = np.real(np.einsum("ni,ij,nj->n", samples.conj(), a, samples))
    assert values.min() >= ebar0 - 1e-9
    # the bound is attained on the ground mode itself
    g = spec[0].mode.flat()
    assert abs(float(np.real(np.vdot(g, a @ g))) - ebar0) <= 1e-9


@pytest.mark.parametrize("name", ["static", "two_level_circular", "two_level_linear", "driven_ring"])
def test_lower_bound_from_instantaneous_spectrum(name, spectra):
    h = ft.builtin_model(name)
    spec = spectra[name]
    n = 4096
    ts = np.linspace(0.0, h.period, n + 1)
    lam_min = np.array([np.linalg.eigvalsh(h.eval_at_time(t))[0] for t in ts])
    from scipy.integrate import simpson

    bound = simpson(lam_min, x=ts) / h.period
    assert spec.avg_energies.min() >= bound - 1e-8


def test_hellmann_feynman_analogue():
    params = {"delta": 1.0, "v": 0.4, "omega": 1.5}
    h = ft.builtin_model("two_level_linear", params)
    m = 10
    spec = ft.solve_spectrum(h, m)
    state = spec[0]
    # dH/dV has unit sigma_x / 2 at harmonics +-1
    dh = ft.FourierHamiltonian(
        dim=2,
        omega=params["omega"],
        harmonics={1: 0.5 * np.array([[0, 1], [1, 0]], dtype=complex),
                   -1: 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)},
    )
    expectation = ft.average_energy_functional(state.mode, dh)
    step = 1e-5
    eps = {}
    for sign in (+1, -1):
        hp = ft.builtin_model(
            "two_level_linear", {**params, "v": params["v"] + sign * step}
        )
        spec_p = ft.solve_spectrum(hp, m)
        overlaps = [abs(state.mode.inner(t.mode)) for t in spec_p]
        match = spec_p[int(np.argmax(overlaps))]
        assert max(overlaps) > 0.99
        eps[sign] = match.quasi_energy_raw
    finite_diff = (eps[+1] - eps[-1]) / (2.0 * step)
    assert abs(finite_diff - expectation) <= 1e-4 * max(1.0, abs(expectation))


def test_certify_truncation_static_settles_immediately():
    # no drive: every residual and leak is 0, so the first rung certifies
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    assert ft.certify_truncation(h) == 1


def test_certify_truncation_caps_out(monkeypatch):
    monkeypatch.setattr(sambe, "MAX_TRUNCATION", 1)
    h = ft.builtin_model("two_level_linear")
    with pytest.raises(ft.TruncationError, match="up to M=1"):
        ft.certify_truncation(h)


def test_auto_solve_solves_each_cutoff_once(monkeypatch):
    h = ft.builtin_model("driven_ring")
    seen = []
    solve = sambe._rung

    # each rung is one eigensolve and one pass; only the accepted one builds
    # its triplets
    def counting(h, truncation, **options):
        seen.append(truncation)
        return solve(h, truncation, **options)

    monkeypatch.setattr(sambe, "_rung", counting)
    spec = ft.solve_spectrum(h, "auto")
    assert seen == [2**k for k in range(len(seen))]
    assert seen[-1] == spec.metadata["truncation"]


def test_auto_solve_is_converged(spectra):
    h = ft.builtin_model("two_level_linear")
    spec = spectra["two_level_linear"]
    m = spec.metadata["truncation"]
    again = ft.solve_spectrum(h, 2 * m)
    assert np.max(
        ft.wrap_distance(spec.quasi_energies, again.quasi_energies, h.omega)
    ) <= 1e-9
    assert np.max(np.abs(spec.avg_energies - again.avg_energies)) <= 1e-9


def test_spectrum_json_round_trip_bitwise(spectra):
    spec = spectra["two_level_circular"]
    text = json.dumps(spec.to_json_dict())
    back = ft.Spectrum.from_json_dict(json.loads(text))
    for t0, t1 in zip(spec, back):
        assert t1.quasi_energy == t0.quasi_energy
        assert t1.avg_energy == t0.avg_energy
        assert t1.quasi_energy_raw == t0.quasi_energy_raw
        assert t1.residual == t0.residual
        assert np.array_equal(t1.mode.coeffs, t0.mode.coeffs)
    assert back.metadata == json.loads(json.dumps(spec.metadata))
    assert back.metadata["sectors"] is back.metadata["sector_coupling"] is None


def test_spectrum_ordering_and_count(spectra):
    for name, spec in spectra.items():
        h = ft.builtin_model(name)
        assert len(spec) == h.dim
        assert np.all(np.diff(spec.avg_energies) >= -1e-12)
        assert np.all((spec.quasi_energies >= 0.0) & (spec.quasi_energies < h.omega))
        assert spec.metadata["residual_max"] <= 1e-8


def test_wrapped_degeneracy_end_to_end():
    # two levels whose folds straddle the zone seam by 1e-10 on each side
    omega = 1.0
    levels = (1e-10, 2.0 - 1e-10)
    h = ft.builtin_model("static", {"levels": levels, "omega": omega})
    spec = ft.solve_spectrum(h, 4)
    assert [t.group_size for t in spec] == [2, 2]
    assert_allclose(spec.avg_energies, levels, atol=1e-12)
    assert ft.wrap_distance(spec[0].quasi_energy, 0.0, omega) <= 1e-9


def test_one_dimensional_model_end_to_end():
    h = ft.FourierHamiltonian(dim=1, omega=0.9, harmonics={0: np.array([[2.35]])})
    spec = ft.solve_spectrum(h, "auto")
    assert len(spec) == 1
    assert abs(spec[0].avg_energy - 2.35) <= 1e-12
    assert abs(spec[0].quasi_energy - (2.35 % 0.9)) <= 1e-12


def test_residual_ebar_degeneracy_is_flagged():
    h = ft.builtin_model("static", {"levels": (0.25, 0.25), "omega": 0.7})
    spec = ft.solve_spectrum(h, 2)
    assert all(t.ebar_degenerate for t in spec)
    assert_allclose(spec.avg_energies, [0.25, 0.25], atol=1e-12)


def test_resolved_ebar_split_is_not_flagged():
    # one group of two whose Ebar differ by 5e-9, far over the tie flag's
    # 1e-10 * max(|Ebar|, 1)
    h = ft.builtin_model("static", {"levels": (0.25, 0.25 + 5e-9), "omega": 0.7})
    spec = ft.solve_spectrum(h, 2)
    assert [t.group_size for t in spec] == [2, 2]
    assert not any(t.ebar_degenerate for t in spec)
    assert_allclose(spec.avg_energies, [0.25, 0.25 + 5e-9], atol=1e-12)


def test_functional_identity_quasi_minus_weighted_norm():
    # eps[Phi] - ebar_cal[Phi] = sum_m m * omega * ||phi^(m)||^2, exactly
    h = ft.builtin_model("two_level_linear")
    rng = np.random.default_rng(43)
    for _ in range(20):
        mode = random_mode(rng, 6, h.dim)
        weights = np.sum(np.abs(mode.coeffs) ** 2, axis=1)
        expected = float(np.dot(mode.harmonic_indices * h.omega, weights))
        diff = ft.quasi_energy_functional(mode, h) - ft.average_energy_functional(mode, h)
        assert abs(diff - expected) <= 1e-12


def test_fold_reported_snaps_seam():
    assert fold_reported(1.0 - 1e-16, 0.5) == 0.0
    assert fold_reported(0.3, 0.5) == pytest.approx(0.3)
    # genuinely near-boundary values are preserved
    assert fold_reported(0.5 - 1e-9, 0.5) == pytest.approx(0.5 - 1e-9)


@settings(max_examples=30, deadline=None)
@given(
    levels=st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=1, max_size=4, unique=True
    ),
    omega=st.floats(min_value=0.3, max_value=2.5, allow_nan=False),
)
def test_static_models_recover_levels(levels, omega):
    h = ft.builtin_model("static", {"levels": levels, "omega": omega})
    # fold-degenerate levels, however many replicas apart, each keep their
    # own replica
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sambe, "TOL_DEG", 1e-10)
        spec = ft.solve_spectrum(h, "auto")
    assert_allclose(np.sort(spec.avg_energies), np.sort(levels), atol=1e-9)
    expected = [fold_reported(lv, omega) for lv in levels]
    for eps in spec.quasi_energies:
        assert min(ft.wrap_distance(eps, e, omega) for e in expected) <= 1e-9


def _shift_loop_overlap(a, b):
    """replica_overlap by building every shifted mode (the definition)."""
    nb = a.coeffs.shape[0]
    best, best_k = 0.0, 0
    for k in range(-(nb - 1), nb):
        val = abs(np.vdot(a.shift(k)[0].flat(), b.flat()))
        if val > best:
            best, best_k = val, k
    return best, best_k


def test_replica_overlap_matches_shift_loop():
    rng = np.random.default_rng(11)
    for truncation in (0, 1, 3):
        for dim in (1, 3):
            for _ in range(5):
                a, b = random_mode(rng, truncation, dim), random_mode(rng, truncation, dim)
                value, k = ft.replica_overlap(a, b)
                want_value, want_k = _shift_loop_overlap(a, b)
                assert k == want_k
                assert value == pytest.approx(want_value, rel=1e-13, abs=1e-15)
    # disjoint supports: only the shift from m = -2 onto m = +2 overlaps
    a = ft.FloquetMode.from_block([1.0, 1.0j], -2, 2)
    b = ft.FloquetMode.from_block([0.0, 2.0], 2, 2)
    assert ft.replica_overlap(a, b) == _shift_loop_overlap(a, b) == (2.0, 4)
    zero = ft.FloquetMode(np.zeros((5, 2)))
    assert ft.replica_overlap(zero, random_mode(rng, 2, 2)) == (0.0, 0)
    assert _shift_loop_overlap(zero, random_mode(rng, 2, 2)) == (0.0, 0)
