import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import simpson
from scipy.linalg import expm

import floqtriplet as ft
from floqtriplet import oracle
from floqtriplet.oracle import (
    PropagationError,
    _chain,
    _monodromy_matrix,
    _step_propagators,
)

from conftest import BUILTIN_NAMES, CIRCULAR_DEFAULT


def test_monodromy_static_diagonal():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    mono = ft.propagate_period(h)
    expected = np.diag([1.0, np.exp(-1j * h.period)])
    assert np.abs(mono.u_matrix - expected).max() <= 1e-10
    assert_allclose(np.sort(mono.quasi_energies(h.period)), [0.0, 0.3], atol=1e-10)


def test_monodromy_zero_hamiltonian_is_identity():
    h = ft.FourierHamiltonian(dim=3, omega=1.0, harmonics={0: np.zeros((3, 3))})
    mono = ft.propagate_period(h)
    assert np.abs(mono.u_matrix - np.eye(3)).max() <= 1e-12


def test_monodromy_circular_eigenphases():
    h = ft.builtin_model("two_level_circular")
    mono = ft.propagate_period(h)
    ref = CIRCULAR_DEFAULT
    assert_allclose(
        np.sort(mono.quasi_energies(h.period)),
        np.sort([ref["eps"]["minus"], ref["eps"]["plus"]]),
        atol=1e-6,
    )


def test_monodromy_circular_matches_rotating_frame_operator():
    params = {"delta": 1.0, "v": 0.4, "omega": 1.5}
    h = ft.builtin_model("two_level_circular", params)
    mono = ft.propagate_period(h)
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    h_rot = ((params["delta"] - params["omega"]) / 2.0) * sz + (params["v"] / 2.0) * sx
    lam, q = np.linalg.eigh(h_rot)
    expected = expm(-1j * np.pi * sz) @ (q * np.exp(-1j * lam * h.period)) @ q.conj().T
    assert np.abs(mono.u_matrix - expected).max() <= 1e-7


@pytest.mark.parametrize("name", ["two_level_circular", "two_level_linear", "driven_ring"])
def test_unitarity_preserved(name):
    h = ft.builtin_model(name)
    mono = ft.propagate_period(h)
    assert mono.unitarity_defect <= 1e-12


def test_unitarity_tolerance_enforced(monkeypatch):
    monkeypatch.setattr(oracle, "UNITARITY_TOL", 1e-18)
    h = ft.builtin_model("two_level_circular")
    with pytest.raises(PropagationError, match="exceeds 1.0e-18"):
        ft.propagate_period(h)


def _assert_factors_match_expm(h, steps, tol):
    dt = h.period / steps
    factors = _step_propagators(h, steps)
    assert factors.shape == (steps, h.dim, h.dim)
    for j, factor in enumerate(factors):
        expected = expm(-1j * dt * h.eval_at_time((j + 0.5) * dt))
        assert np.abs(factor - expected).max() <= tol
        assert np.abs(factor.conj().T @ factor - np.eye(h.dim)).max() <= tol


@pytest.mark.parametrize("steps", [64, 300, 4096])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_step_propagators_match_per_step_loop(name, steps):
    # every Taylor factor is the per-step matrix exponential and unitary to a
    # few ulps; 300 steps end in a partial block.  A Taylor order two below
    # the chosen one misses by 1e-14 to 1e-10 at these step sizes.
    _assert_factors_match_expm(ft.builtin_model(name), steps, 2e-15)


@pytest.mark.parametrize(
    "params", [{"delta": 200.0}, {"v": 40.0, "omega": 0.3}], ids=["delta200", "v40"]
)
def test_step_propagators_match_expm_when_squaring(params):
    # ||dt H||_1 reaches 6.6 and 13 here: 8 and 9 squarings, each of which
    # can double the roundoff of the scaled factor, so the bound is 2^9 times
    # 1e-15, the unscaled factors' worst error
    h = ft.builtin_model("two_level_linear", params)
    _assert_factors_match_expm(h, 64, 5e-13)


def test_monodromy_matches_extended_precision():
    # the same midpoint scheme in extended precision: H(t_mid) from the
    # harmonics, an order-12 Taylor exponential (the dropped term is below
    # 1e-40 at this step) and the sequential product, all in clongdouble
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("long double has no more precision than float64 here")
    h = ft.builtin_model("driven_ring")
    steps = 4096
    dt = np.longdouble(h.period) / steps
    mids = (np.arange(steps, dtype=np.longdouble) + 0.5) * dt
    a = np.zeros((steps, h.dim, h.dim), dtype=np.clongdouble)
    for m, mat in h.harmonics.items():
        phase = np.exp(1j * m * np.longdouble(h.omega) * mids)
        a += phase[:, None, None] * mat.astype(np.clongdouble)
    a *= -1j * dt
    eye = np.eye(h.dim, dtype=np.clongdouble)
    factors = a / 12 + eye
    for k in range(11, 0, -1):
        factors = a @ factors / k + eye
    expected = eye
    for factor in factors:
        expected = factor @ expected
    u = _chain(_step_propagators(h, steps), np.eye(h.dim, dtype=complex))
    assert np.abs(u - expected).max() <= 1e-13


@pytest.mark.parametrize("steps", [64, 300, 4096])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_blocked_products_match_sequential_loop(name, steps, monkeypatch):
    # the blocked product of the step factors reassociates the plain
    # sequential one; 300 steps end in a partial block of 44
    h = ft.builtin_model(name)
    initial = np.linspace(1.0, 2.0, h.dim) + 0.5j
    initial /= np.linalg.norm(initial)
    u = np.eye(h.dim, dtype=complex)
    expected = np.empty((steps + 1, h.dim), dtype=complex)
    expected[0] = initial
    for j, factor in enumerate(_step_propagators(h, steps)):
        u = factor @ u
        expected[j + 1] = factor @ expected[j]
    u = u @ (3.0 * np.eye(h.dim) - u.conj().T @ u) / 2.0
    assert np.abs(_monodromy_matrix(h, steps) - u).max() <= 1e-13
    monkeypatch.setattr(oracle, "STEPS_PER_PERIOD", steps)
    samples = ft.propagate_trajectory(h, initial)
    assert np.abs(samples - expected).max() <= 1e-13


@pytest.mark.parametrize("steps", [300, 1000])
@pytest.mark.parametrize(
    "name, params",
    [(name, {}) for name in BUILTIN_NAMES] + [("two_level_linear", {"delta": 200.0})],
    ids=[*BUILTIN_NAMES, "delta200"],
)
def test_streamed_chunks_give_the_one_chunk_result_bit_for_bit(name, params, steps, monkeypatch):
    # chunks of one Taylor block, the last one partial (300 = 256 + 44 and
    # 1000 = 3 * 256 + 232 steps), against one chunk of all steps: every
    # factor, block product and carry is the same floating-point operation,
    # the squared factors of delta = 200 too
    assert oracle._CHUNK % oracle._STEP_BLOCK == 0 and oracle._STEP_BLOCK % oracle._CHAIN_BLOCK == 0
    h = ft.builtin_model(name, params)
    initial = np.linspace(1.0, 2.0, h.dim) + 0.5j
    monkeypatch.setattr(oracle, "STEPS_PER_PERIOD", steps)
    results = []
    for chunk in (oracle._STEP_BLOCK, steps):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        results.append((_monodromy_matrix(h, steps), ft.propagate_trajectory(h, initial)))
    for streamed, whole in zip(*results):
        assert np.array_equal(streamed, whole)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_propagation_memory_grows_by_the_samples_alone(monkeypatch):
    # the step factors are held one chunk at a time: from 4096 to 16384
    # steps on the 12-site ring the tracemalloc peak of U(T) grows by at
    # most a 256 KiB margin, and that of a trajectory by its extra samples,
    # dN d 16 bytes, plus the margin; all factors held at once would add
    # dN d^2 16 bytes, 28 MB
    h = ft.builtin_model("driven_ring", {"sites": 12})
    initial = np.full(h.dim, 1.0 / np.sqrt(h.dim), dtype=complex)
    _monodromy_matrix(h, 64)  # caches the model's harmonic stack
    peaks = []
    for steps in (4096, 16384):
        monkeypatch.setattr(oracle, "STEPS_PER_PERIOD", steps)
        peaks.append((_traced_peak(_monodromy_matrix, h, steps),
                      _traced_peak(ft.propagate_trajectory, h, initial)))
    margin = 256 * 1024
    samples = (16384 - 4096) * h.dim * 16
    assert peaks[1][0] - peaks[0][0] <= margin
    assert peaks[1][1] - peaks[0][1] <= samples + margin


def test_mode_from_propagation_static_single_block():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    mono = ft.propagate_period(h)
    idx = int(np.argmin(np.abs(mono.quasi_energies(h.period) - 0.3)))
    mode, tail = ft.mode_from_propagation(
        h, mono.eigenvectors[:, idx], mono.eigenphases[idx], truncation=3
    )
    assert tail <= 1e-12
    weights = np.sum(np.abs(mode.coeffs) ** 2, axis=1)
    assert weights.max() >= 1.0 - 1e-10  # all weight in one harmonic block


def test_mode_from_propagation_circular_two_components():
    h = ft.builtin_model("two_level_circular")
    mono = ft.propagate_period(h)
    for idx in range(2):
        mode, tail = ft.mode_from_propagation(
            h, mono.eigenvectors[:, idx], mono.eigenphases[idx], truncation=4
        )
        assert tail <= 1e-10
        weights = np.sum(np.abs(mode.coeffs) ** 2, axis=1)
        big = np.sort(weights)[::-1]
        # rotating-frame solution: exactly the m = 0 and m = +1 components
        assert big[0] + big[1] >= 1.0 - 1e-10
        nonzero = np.where(weights > 1e-10)[0] - mode.truncation
        assert set(nonzero) <= {0, 1}


def test_mode_from_propagation_takes_the_replica_of_its_eigenphase():
    # eps + omega is the same state shifted by one harmonic, not refolded
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    mono = ft.propagate_period(h)
    vec, theta = mono.eigenvectors[:, 1], mono.eigenphases[1]
    mode, _ = ft.mode_from_propagation(h, vec, theta, truncation=3)
    up, tail = ft.mode_from_propagation(h, vec, theta + 2.0 * np.pi, truncation=3)
    assert tail <= 1e-12
    assert np.abs(up.coeffs - mode.shift(1)[0].coeffs).max() <= 1e-12


def test_mode_overlap_against_sambe(spectra):
    h = ft.builtin_model("two_level_circular")
    spec = spectra["two_level_circular"]
    m = spec.metadata["truncation"]
    mono = ft.propagate_period(h)
    eps_oracle = mono.quasi_energies(h.period)
    for t in spec:
        idx = int(np.argmin(np.abs(eps_oracle - t.quasi_energy)))
        mode, _ = ft.mode_from_propagation(
            h, mono.eigenvectors[:, idx], mono.eigenphases[idx], truncation=m
        )
        overlap, _ = ft.replica_overlap(mode, t.mode)
        assert overlap >= 1.0 - 1e-6


def test_mode_from_propagation_tail_warning():
    h = ft.builtin_model("two_level_linear", {"delta": 1.0, "v": 2.5, "omega": 0.8})
    mono = ft.propagate_period(h)
    with pytest.warns(RuntimeWarning, match="tail weight"):
        _, tail = ft.mode_from_propagation(
            h, mono.eigenvectors[:, 0], mono.eigenphases[0], truncation=1
        )
    assert tail > 1e-6


def test_time_averaged_energy_static_eigenstate():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    traj = ft.propagate_trajectory(h, np.array([0.0, 1.0]))
    assert abs(ft.time_averaged_energy(h, traj) - 1.0) <= 1e-12


def test_time_averaged_energy_circular_ground():
    h = ft.builtin_model("two_level_circular")
    mono = ft.propagate_period(h)
    ref = CIRCULAR_DEFAULT
    idx = int(np.argmin(np.abs(mono.quasi_energies(h.period) - ref["eps"]["plus"])))
    traj = ft.propagate_trajectory(h, mono.eigenvectors[:, idx])
    ebar = ft.time_averaged_energy(h, traj)
    assert abs(ebar - ref["ebar"]["plus"]) <= 1e-6


def test_time_averaged_energy_uniform_superposition():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    traj = ft.propagate_trajectory(h, np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert abs(ft.time_averaged_energy(h, traj) - 0.5) <= 1e-12


@pytest.mark.parametrize(
    "name, params",
    [("driven_ring", {"sites": 6}), ("two_level_linear", {"delta": 200.0, "v": 3.0})],
)
def test_time_averaged_energy_matches_simpson(name, params):
    # the trapezoid rule against the Simpson rule it replaced, on the same
    # nodes and integrand: both are exact to rounding on this periodic one
    h = ft.builtin_model(name, params)
    mono = ft.propagate_period(h)
    for vec in mono.eigenvectors.T:
        traj = ft.propagate_trajectory(h, vec)
        _, integrand = oracle._cross_energy_matrix(h, [traj])
        tgrid = np.linspace(0.0, h.period, traj.shape[0])
        reference = simpson(integrand[0, 0], x=tgrid).real / h.period
        assert abs(ft.time_averaged_energy(h, traj) - reference) <= 1e-13 * max(1.0, abs(reference))


def test_time_averaged_energy_rejects_aperiodic_integrand():
    # half a period of a two-level rotation: endpoint energies differ
    h = ft.builtin_model("two_level_linear", {"delta": 0.9, "v": 0.8, "omega": 0.37})
    traj = ft.propagate_trajectory(h, np.array([1.0, 0.0]))
    with pytest.raises(PropagationError):
        ft.time_averaged_energy(h, traj[: traj.shape[0] // 2])


@pytest.mark.parametrize("name", ["static", "two_level_circular", "two_level_linear", "driven_ring"])
def test_step_halving_stability(name, spectra, monkeypatch):
    h = ft.builtin_model(name)
    eps = {}
    for steps in (4096, 8192):
        monkeypatch.setattr(oracle, "STEPS_PER_PERIOD", steps)
        mono = ft.propagate_period(h)
        eps[steps] = np.sort(mono.quasi_energies(h.period))
    assert np.max(np.abs(eps[4096] - eps[8192])) <= 1e-8


def test_propagate_period_degenerate_pair_orthonormal():
    # levels 0 and 1 = 2 omega fold onto one eigenphase: U(T) is the identity
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.5})
    vecs = ft.propagate_period(h).eigenvectors
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(2)) <= 1e-12


def test_propagate_period_rotated_degenerate_eigenvectors():
    # the same fold in a random basis, next to a non-degenerate level
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)) + 0j)
    h0 = q @ np.diag([0.0, 1.0, 0.3]) @ q.conj().T
    h = ft.FourierHamiltonian(dim=3, omega=0.5, harmonics={0: 0.5 * (h0 + h0.conj().T)})
    mono = ft.propagate_period(h)
    vecs = mono.eigenvectors
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(3)) <= 1e-12
    phases = np.exp(-1j * mono.eigenphases)
    assert np.linalg.norm(mono.u_matrix @ vecs - vecs * phases) <= 1e-10
    # quasi-energies 0, 0 (one of them possibly just below the seam at omega) and 0.3
    distance = ft.wrap_distance(mono.quasi_energies(h.period), 0.0, h.omega)
    assert_allclose(np.sort(distance), [0.0, 0.0, 0.2], atol=1e-10)


def test_oracle_resolves_degenerate_static_pair():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.5})
    spec = ft.oracle_spectrum(h, truncation=3)
    assert_allclose(spec.quasi_energies, [0.0, 0.0], atol=1e-9)
    assert_allclose(spec.avg_energies, [0.0, 1.0], atol=1e-9)
    assert [t.group_size for t in spec] == [2, 2]


def test_oracle_group_quasi_energy_across_seam_matches_sambe():
    # two levels 4e-9 omega apart straddle the zone seam and merge into one
    # group: both routes report its wrap-aware mean, 0, not a member's value
    omega = 0.7
    h = ft.builtin_model("static", {"levels": (-2e-9 * omega, 2e-9 * omega), "omega": omega})
    spec_o, spec_s = ft.oracle_spectrum(h, truncation=1), ft.solve_spectrum(h)
    assert [t.group_size for t in spec_o] == [2, 2]
    distance = ft.wrap_distance(spec_o.quasi_energies, spec_s.quasi_energies, omega)
    assert np.all(distance <= 1e-14 * omega)


@pytest.mark.parametrize("name", ["static", "two_level_circular", "two_level_linear", "driven_ring"])
def test_cross_method_agreement(name, spectra, oracle_spectra):
    h = ft.builtin_model(name)
    spec_s, spec_o = spectra[name], oracle_spectra[name]
    overlaps = ft.overlap_matrix(spec_s, spec_o)
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(1.0 - overlaps)
    for i, j in zip(rows, cols):
        assert overlaps[i, j] >= 1.0 - 1e-6
        assert ft.wrap_distance(
            spec_s[i].quasi_energy, spec_o[j].quasi_energy, h.omega
        ) <= 1e-6
        assert abs(spec_s[i].avg_energy - spec_o[j].avg_energy) <= 1e-6


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_oracle_raw_quasi_energy_is_on_the_mode_replica(name, oracle_spectra):
    # eps_raw is the group's quasi-energy on the replica each mode was
    # rephased to, so Ebar = eps_raw - omega <N> holds state by state
    h = ft.builtin_model(name)
    for t in oracle_spectra[name]:
        assert abs(t.quasi_energy_raw - h.omega * t.mode.centroid() - t.avg_energy) <= 1e-6
        assert ft.wrap_distance(t.quasi_energy_raw, t.quasi_energy, h.omega) <= 1e-12 * h.omega
