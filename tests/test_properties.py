"""Property tests of the extended-space solve over random Fourier models.

Each model is a static block of levels spaced by integer multiples of
omega (exact folded degeneracies) beside a randomly driven Hermitian block
with harmonics |m| <= 2 and entries in [-1, 1], complex or (real=True)
real.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import floqtriplet as ft
from floqtriplet import sambe
from floqtriplet.analysis import _assignment

from conftest import assert_same_triplets, full_solve, time_shifted

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def complex_block(draw, n):
    flat = np.asarray(draw(st.lists(unit, min_size=2 * n * n, max_size=2 * n * n)))
    return (flat[: n * n] + 1j * flat[n * n :]).reshape(n, n)


def real_block(draw, n):
    return np.asarray(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)


@st.composite
def driven_models(draw, real=False, max_dim=4):
    block = real_block if real else complex_block
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    omega = draw(st.floats(min_value=0.8, max_value=3.0, allow_nan=False))
    n_static = draw(st.integers(min_value=0, max_value=dim))
    n_driven = dim - n_static
    base = draw(unit)
    shifts = draw(st.lists(st.integers(-1, 1), min_size=n_static, max_size=n_static))
    harmonics = {m: np.zeros((dim, dim), dtype=complex) for m in range(3)}
    harmonics[0][range(n_static), range(n_static)] = [base + k * omega for k in shifts]
    if n_driven:
        driven = slice(n_static, dim)
        h0 = block(draw, n_driven)
        harmonics[0][driven, driven] = 0.5 * (h0 + h0.conj().T)
        for m in range(1, draw(st.integers(min_value=0, max_value=2)) + 1):
            harmonics[m][driven, driven] = block(draw, n_driven)
    return ft.FourierHamiltonian(dim=dim, omega=omega, harmonics=harmonics)


@settings(max_examples=25, deadline=None)
@given(h=driven_models())
# a static level 1 (= 0 mod omega) and a driven level 1e-8 fold exactly TOL_DEG * omega apart
@example(h=ft.FourierHamiltonian(
    dim=2, omega=1.0, harmonics={0: np.diag([1.0, 1e-8]), 1: np.diag([0.0, 1j])}
))
def test_random_models_give_consistent_triplets(h):
    spec = ft.solve_spectrum(h, "auto")
    h0 = h.harmonics.get(0, np.zeros((h.dim, h.dim)))
    trace = float(np.real(np.trace(h0)))
    assert len(spec) == h.dim
    # the modes are a basis at every t, so their average energies sum to Tr H_0
    assert abs(spec.avg_energies.sum() - trace) <= 1e-9
    # det U(T) = exp(-i T Tr H_0): quasi-energies sum to Tr H_0 modulo omega
    assert ft.wrap_distance(spec.quasi_energies.sum(), trace, h.omega) <= 1e-9
    assert spec.metadata["residual_max"] <= 1e-8
    # every Ebar lies in the instantaneous spectrum, inside the Weyl bound
    # [lambda_min(H_0) - D, lambda_max(H_0) + D], D = sum_{m != 0} ||H_m||_2
    levels = np.linalg.eigvalsh(h0)
    drive = sum(np.linalg.norm(mat, 2) for m, mat in h.harmonics.items() if m != 0)
    assert np.all(np.diff(spec.avg_energies) >= 0)
    assert spec.avg_energies.min() >= levels[0] - drive - 1e-9
    assert spec.avg_energies.max() <= levels[-1] + drive + 1e-9
    for t in spec:
        assert ft.wrap_distance(t.quasi_energy_raw, t.quasi_energy, h.omega) <= 1e-12 * h.omega
        for k in (-1, 1):
            shifted, lost = t.mode.shift(k)
            if lost <= 1e-12:
                ebar = ft.average_energy_functional(shifted.normalized(), h)
                assert abs(ebar - t.avg_energy) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(h=st.booleans().flatmap(lambda real: driven_models(real=real)), loose=st.booleans())
def test_reported_residuals_and_average_energies_match_dense_matrices(h, loose):
    # the batched stages against the dense S and T of the certified cutoff
    with pytest.MonkeyPatch.context() as patch:
        if loose:
            patch.setattr(sambe, "TOL_DEG", 1e-3)
        spec = ft.solve_spectrum(h, "auto")
    truncation = spec.metadata["truncation"]
    s = ft.build_sambe(h, truncation)
    t_mat = ft.build_energy_matrix(h, truncation)
    for t in spec:
        x = t.mode.flat()
        assert abs(t.residual - np.linalg.norm(s @ x - t.quasi_energy_raw * x)) <= 1e-12
        assert abs(t.avg_energy - np.real(np.vdot(x, t_mat @ x))) <= 1e-12
    # every state on its own centroid-zone replica, carrying its group's raw
    # eigenvalue there: a group's raw values differ by whole multiples of omega
    raws = {}
    for t in spec:
        raws.setdefault(t.group_id, []).append(t.quasi_energy_raw)
        assert -0.5 - 1e-9 <= t.mode.centroid() < 0.5 + 1e-9
    for values in raws.values():
        offsets = (np.array(values) - values[0]) / h.omega
        assert np.abs(offsets - np.round(offsets)).max() <= 1e-12


@st.composite
def resonant_sums(draw):
    """A random model A (d <= 3, one harmonic, real or complex) and the
    direct sum of A and A + k omega, k = 1..5: every state of the sum is
    folded degenerate with its partner k replicas away."""
    block = real_block if draw(st.booleans()) else complex_block
    dim = draw(st.integers(min_value=1, max_value=3))
    omega = draw(st.floats(min_value=0.6, max_value=3.0, allow_nan=False))
    k = draw(st.integers(min_value=1, max_value=5))
    h0, h1 = block(draw, dim), block(draw, dim)
    h0 = 0.5 * (h0 + h0.conj().T)
    a = ft.FourierHamiltonian(dim=dim, omega=omega, harmonics={0: h0, 1: h1})
    total = ft.FourierHamiltonian(dim=2 * dim, omega=omega, harmonics={
        0: scipy.linalg.block_diag(h0, h0 + k * omega * np.eye(dim)),
        1: scipy.linalg.block_diag(h1, h1),
    })
    return a, total, k


@settings(max_examples=25, deadline=None)
@given(case=resonant_sums())
def test_resonant_direct_sums_keep_every_state_in_its_zone(case):
    a, total, k = case
    spec_a, spec = ft.solve_spectrum(a, "auto"), ft.solve_spectrum(total, "auto")
    expected = np.sort(np.concatenate([spec_a.avg_energies, spec_a.avg_energies + k * a.omega]))
    assert np.abs(spec.avg_energies - expected).max() <= 1e-9
    for t in spec:
        assert -0.5 - 1e-9 <= t.mode.centroid() < 0.5 + 1e-9


@settings(max_examples=25, deadline=None)
@given(h=driven_models())
def test_certified_spectrum_is_within_its_bounds(h):
    # the quasi-energy bound is Kato-Temple's; the average-energy figure is
    # an estimate, and this is where it is checked on models nobody picked
    spec = ft.solve_spectrum(h, "auto")
    eps_bound, ebar_estimate = spec.metadata["eps_bound"], spec.metadata["ebar_estimate"]
    assert max(eps_bound, ebar_estimate) < sambe.QUASI_TOL
    again = sambe.solve_at_truncation(h, 2 * spec.metadata["truncation"])
    assert_same_triplets(spec, again, h.omega, eps_bound + 1e-12, ebar_estimate + 1e-12)


def eps_distance(a, b, omega):
    """Largest wrap distance between the folded quasi-energies of two
    spectra under the best one-to-one matching, which on the circle is one
    of the cyclic matchings of their sorted values."""
    x, y = np.sort(a.quasi_energies), np.sort(b.quasi_energies)
    return min(ft.wrap_distance(x, np.roll(y, r), omega).max() for r in range(y.size))


@settings(max_examples=25, deadline=None)
@given(h=st.booleans().flatmap(lambda real: driven_models(real=real)))
def test_eps_bound_holds_below_convergence(h):
    # the first two rungs of the doubling loop, where the bound is loose or
    # infinite; a rung whose replica selection fails reports no bound
    reference = sambe.solve_at_truncation(h, 32)
    start = max(1, h.max_harmonic)
    for truncation in (start, 2 * start):
        try:
            spec = sambe.solve_at_truncation(h, truncation)
        except ft.TruncationError:
            continue
        eps_bound = spec.metadata["eps_bound"]
        if np.isfinite(eps_bound):
            tol = eps_bound + reference.metadata["eps_bound"] + 1e-12
            assert eps_distance(spec, reference, h.omega) <= tol


@settings(max_examples=50, deadline=None)
@given(h=driven_models(real=True), tau=st.floats(min_value=0.05, max_value=0.95))
def test_real_model_matches_its_time_shifted_complex_copy(h, tau):
    # H(t + tau) has the same triplets; its harmonics H_m e^{i m omega tau} are
    # complex, so the real (dsytrd) solve is checked against the complex one
    shifted = time_shifted(h, tau * h.period)
    truncation = max(1, h.max_harmonic)
    assert ft.build_sambe(h, truncation).dtype == np.float64
    if h.max_harmonic:
        assert ft.build_sambe(shifted, truncation).dtype == np.complex128
    real, cplx = ft.solve_spectrum(h, "auto"), ft.solve_spectrum(shifted, "auto")
    assert real.metadata["truncation"] == cplx.metadata["truncation"]
    assert_same_triplets(real, cplx, h.omega, 1e-12)


@settings(max_examples=25, deadline=None)
@given(h=driven_models(), truncation=st.integers(1, 6), loose=st.booleans())
def test_windowed_solve_matches_full_spectrum(h, truncation, loose):
    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        if loose:
            patch.setattr(sambe, "TOL_DEG", 1e-3)
        for solve in (sambe.solve_at_truncation, full_solve):
            try:
                outcomes.append(solve(h, max(truncation, h.max_harmonic)))
            except ft.TruncationError as exc:
                outcomes.append(type(exc))
    windowed, full = outcomes
    if isinstance(windowed, ft.Spectrum) and isinstance(full, ft.Spectrum):
        assert_same_triplets(windowed, full, h.omega, 1e-12)
    else:
        assert windowed == full


@settings(max_examples=10, deadline=None)
@given(h=st.booleans().flatmap(lambda real: driven_models(real=real, max_dim=3)))
def test_sum_rule_ground_is_the_exhaustive_search_ground(h):
    # at the certified cutoff the trace sum rule may end the ground search
    # before every state is reached: it must return the same start's result
    auto = ft.minimize_ground(h, "auto")
    exhaustive = ft.minimize_ground(h, sambe.certify_truncation(h))
    assert np.float64(auto.avg_energy).tobytes() == np.float64(exhaustive.avg_energy).tobytes()
    assert auto.to_json_dict() == exhaustive.to_json_dict()  # converged, seed, mode, ...


@st.composite
def hermitian_windows(draw):
    """A Hermitian matrix and a value window: the Sambe matrix of a random
    model (real or complex), one with exactly degenerate levels (A + A, its
    rows and columns permuted), one that splits into exact blocks (A + B,
    permuted) or a 1 x 1 matrix.  The window's edges lie in gaps of the
    spectrum wider than the clustering tolerance, among them the same gap
    twice (an empty window)."""
    kind = draw(st.sampled_from(["model", "degenerate", "blocks", "scalar"]))
    block = real_block if draw(st.booleans()) else complex_block

    def hermitian(n):
        a = block(draw, n)
        return a + a.conj().T

    if kind == "model":
        h = draw(st.booleans().flatmap(lambda real: driven_models(real=real)))
        s = ft.build_sambe(h, max(draw(st.integers(1, 4)), h.max_harmonic))
    elif kind == "scalar":
        s = hermitian(1)
    else:
        a = hermitian(draw(st.integers(1, 4)))
        b = a if kind == "degenerate" else hermitian(draw(st.integers(1, 4)))
        order = np.asarray(draw(st.permutations(range(a.shape[0] + b.shape[0]))))
        s = scipy.linalg.block_diag(a, b)[order][:, order]
    values = np.linalg.eigvalsh(s)
    tol = 1e-8 * max(1.0, np.abs(values).max())
    gaps = np.flatnonzero(np.diff(values) > tol)
    edges = [values[0] - 1.0, *(0.5 * (values[gaps] + values[gaps + 1])), values[-1] + 1.0]
    lo, hi = sorted(draw(st.lists(st.integers(0, len(edges) - 1), min_size=2, max_size=2)))
    return s, (edges[lo], edges[hi]), tol


@settings(max_examples=100, deadline=None)
@given(case=hermitian_windows())
def test_windowed_diagonalize_matches_numpy_eigh(case):
    # the windowed kernel against the whole spectrum of numpy.linalg.eigh
    # (?syevd / ?heevd, LAPACK's own driver), kept inside (lo, hi]: the same
    # pairs, eigenvectors compared per cluster within tol as subspaces.  That
    # driver shares the kernel's reduction, so the count in the window also
    # comes from the inertia of S - x I (Sylvester), which shares nothing
    s, (lo, hi), tol = case
    vals, vecs = ft.diagonalize(s, (lo, hi))
    ref_vals, ref_vecs = np.linalg.eigh(s)
    inside = (ref_vals > lo) & (ref_vals <= hi)
    ref_vals, ref_vecs = ref_vals[inside], ref_vecs[:, inside]
    assert vals.shape == ref_vals.shape and vecs.shape == ref_vecs.shape

    def below(x):
        _, d, _ = scipy.linalg.ldl(s - x * np.eye(s.shape[0]), hermitian=True)
        return int(np.sum(np.linalg.eigvalsh(d) < 0))  # d: 1 x 1 and 2 x 2 blocks

    assert vals.size == below(hi) - below(lo)
    assert np.all(np.abs(vals - ref_vals) <= 1e-12 * np.maximum(np.abs(ref_vals), 1.0))
    for cluster in sambe._gap_clusters(ref_vals, tol):
        overlap = ref_vecs[:, cluster].conj().T @ vecs[:, cluster]
        assert np.linalg.svd(overlap, compute_uv=False).min() >= 1 - 1e-10


def brute_force_clusters(values, tol, period):
    """Connected components of the graph joining values at distance <= tol."""
    n = len(values)
    label = list(range(n))
    for i in range(n):
        for j in range(n):
            dist = abs(values[i] - values[j])
            if period is not None:
                dist = min(dist, period - dist)
            if dist <= tol:
                old, new = label[j], label[i]
                label = [new if x == old else x for x in label]
    return {frozenset(k for k in range(n) if label[k] == c) for c in set(label)}


@settings(max_examples=200, deadline=None)
@given(
    period=st.integers(min_value=1, max_value=30),
    points=st.lists(st.integers(min_value=0, max_value=29), max_size=12),
    tol=st.integers(min_value=0, max_value=30),
    circle=st.booleans(),
)
@example(period=10, points=[0, 9, 5], tol=1, circle=True)  # a cluster across the seam
def test_gap_clusters_match_connected_components(period, points, tol, circle):
    # integer values keep every gap exact, so ties at tol are tested exactly
    values = np.array([p % period for p in points], dtype=float)
    clusters = sambe._gap_clusters(values, float(tol), float(period) if circle else None)
    assert {frozenset(c.tolist()) for c in clusters} == brute_force_clusters(
        values, tol, period if circle else None
    )
    assert sum(c.size for c in clusters) == values.size
    for c in clusters:
        # ascending by value (stable), members above a crossed seam first, so
        # each member is reached from the one before by one gap <= tol
        first = values[c[0]]
        assert c.tolist() == sorted(c, key=lambda i: (values[i] < first, values[i], i))
        steps = np.diff(values[c])
        assert np.all((steps % period if circle else steps) <= tol)
    if not circle:
        starts = [values[c[0]] for c in clusters]
        assert starts == sorted(starts)


@st.composite
def floor_models(draw):
    """A random model (d <= 6, harmonics |m| <= 3, real or complex), or
    (split=True) the direct sum of one (d <= 3) and itself raised by k omega,
    k = 0..3, which `_sectors` splits."""
    block = real_block if draw(st.booleans()) else complex_block
    split = draw(st.booleans())
    dim = draw(st.integers(min_value=1, max_value=3 if split else 6))
    omega = draw(st.floats(min_value=0.8, max_value=3.0, allow_nan=False))
    h0 = block(draw, dim)
    harmonics = {0: 0.5 * (h0 + h0.conj().T)}
    for m in range(1, draw(st.integers(min_value=0, max_value=3)) + 1):
        harmonics[m] = block(draw, dim) / m
    if split:
        k = draw(st.integers(min_value=0, max_value=3))
        raised = {m: mat + (m == 0) * k * omega * np.eye(dim) for m, mat in harmonics.items()}
        harmonics = {m: scipy.linalg.block_diag(mat, raised[m]) for m, mat in harmonics.items()}
    return ft.FourierHamiltonian(dim=harmonics[0].shape[0], omega=omega, harmonics=harmonics), split


@settings(max_examples=60, deadline=None)
@given(case=floor_models())
def test_leak_floor_is_below_every_rung_figure(case):
    # the auto ladder gives a rung up once its leak floor reaches 2 QUASI_TOL:
    # the floor must lie below the Ebar figure that rung's fixed solve reports,
    # and the auto cutoff must be the first rung whose fixed solve clears
    # QUASI_TOL.  The two figures are equal when one state carries the worst
    # leak alone, and the figure's w is a difference of squares that rounds
    # to 0 where w is below about 1e-16 of the squared residual: rounding
    # slack, relative and 1e-12 QUASI_TOL absolute, far below the 2 QUASI_TOL
    # the ladder compares the floor with
    h, split = case
    with pytest.MonkeyPatch.context() as patch:
        if split:
            patch.setattr(sambe, "SECTOR_MIN_SIZE", 0)
        certified = ft.solve_spectrum(h, "auto").metadata["truncation"]
        first, truncation = None, max(1, h.max_harmonic)
        while truncation <= certified:
            try:
                spec = sambe.solve_at_truncation(h, truncation)
            except ft.TruncationError:
                truncation *= 2
                continue
            vals, vecs, basis = sambe._window_pairs(h, truncation)
            x, _, lams, eps = sambe._select(vals, vecs, h, truncation, basis)
            floor = sambe._leak_floor(h, truncation, x, lams, eps)
            assert floor <= spec.metadata["ebar_estimate"] * (1 + 1e-12) + 1e-12 * sambe.QUASI_TOL
            figures = spec.metadata["eps_bound"], spec.metadata["ebar_estimate"]
            if first is None and max(figures) < sambe.QUASI_TOL:
                first = truncation
            truncation *= 2
    assert first == certified


def assignment_cost(kind: str, d: int, rng) -> np.ndarray:
    """A square cost of one kind: ties are common in all but "uniform"."""
    if kind == "uniform":
        return rng.uniform(size=(d, d))
    if kind == "integer":
        return rng.integers(0, 3, size=(d, d)).astype(float)
    if kind == "one-decimal":
        return np.round(rng.uniform(size=(d, d)), 1)
    if kind == "constant":
        return np.full((d, d), rng.uniform())
    # 1 - |overlap| of two nearly equal bases, as `compare` pairs them
    return 1.0 - np.eye(d)[rng.permutation(d)] + 1e-3 * rng.uniform(size=(d, d))


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 40),
    kind=st.sampled_from(["uniform", "integer", "one-decimal", "constant", "near-permutation"]),
    seed=st.integers(0, 2**32 - 1),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_assignment_is_scipys_linear_sum_assignment(d, kind, seed, bad):
    # scipy is the independent reference: the same columns, ties included
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(seed)
    cost = assignment_cost(kind, d, rng)
    rows, expected = linear_sum_assignment(cost)
    cols = _assignment(cost)
    assert cols.tolist() == expected.tolist()
    assert cost[np.arange(d), cols].sum() == cost[rows, expected].sum()
    with pytest.raises(ValueError, match="square"):
        _assignment(cost[:, 1:])
    cost[rng.integers(d), rng.integers(d)] = bad
    with pytest.raises(ValueError, match="non-finite"):
        _assignment(cost)
