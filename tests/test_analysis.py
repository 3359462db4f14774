import numpy as np
import pytest
from numpy.testing import assert_allclose

import floqtriplet as ft

from conftest import CIRCULAR_DEFAULT


def test_order_and_truncate_static_three_level():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0, 5.0), "omega": 0.7})
    spec = ft.solve_spectrum(h, 2)
    trunc = ft.order_and_truncate(spec, keep=2)
    assert_allclose(trunc.retained.avg_energies, [0.0, 1.0], atol=1e-10)
    assert trunc.kept == 2 and trunc.total == 3
    assert_allclose(trunc.discarded_avg_energies, [5.0], atol=1e-10)


def test_order_and_truncate_keep_all_is_identity(spectra):
    spec = spectra["driven_ring"]
    trunc = ft.order_and_truncate(spec, keep=len(spec))
    assert trunc.kept == len(spec)
    assert_allclose(trunc.retained.avg_energies, spec.avg_energies, atol=0)


def test_order_and_truncate_circular_keep_one(spectra):
    trunc = ft.order_and_truncate(spectra["two_level_circular"], keep=1)
    assert abs(trunc.retained[0].avg_energy - CIRCULAR_DEFAULT["ebar"]["plus"]) <= 1e-6


def test_order_and_truncate_threshold_and_errors(spectra):
    spec = spectra["two_level_circular"]
    trunc = ft.order_and_truncate(spec, ebar_max=0.0)
    assert trunc.kept == 1
    with pytest.raises(ValueError):
        ft.order_and_truncate(spec, keep=0)
    with pytest.raises(ValueError):
        ft.order_and_truncate(spec)
    with pytest.raises(ValueError):
        ft.order_and_truncate(spec, keep=1, ebar_max=0.0)


def test_overlap_matrix_identity_pattern(spectra):
    spec = spectra["two_level_circular"]
    ov = ft.overlap_matrix(spec, spec)
    assert np.abs(ov - np.eye(len(spec))).max() <= 1e-10


def test_overlap_matrix_ignores_phases(spectra):
    spec = spectra["two_level_circular"]
    rng = np.random.default_rng(41)
    rotated = ft.Spectrum(
        triplets=[
            ft.EigenTriplet(
                mode=ft.FloquetMode(np.exp(1j * rng.uniform(0, 2 * np.pi)) * t.mode.coeffs),
                quasi_energy=t.quasi_energy,
                avg_energy=t.avg_energy,
                quasi_energy_raw=t.quasi_energy_raw,
                residual=t.residual,
                group_id=t.group_id,
                group_size=t.group_size,
            )
            for t in spec
        ],
        metadata=dict(spec.metadata),
    )
    ov = ft.overlap_matrix(spec, rotated)
    assert np.abs(ov - np.eye(len(spec))).max() <= 1e-10


def test_overlap_matrix_cross_method(spectra, oracle_spectra):
    ov = ft.overlap_matrix(spectra["two_level_circular"], oracle_spectra["two_level_circular"])
    assert np.abs(ov - np.eye(2)).max() <= 1e-6


def _with_modes(spec, modes):
    return ft.Spectrum(
        triplets=[
            ft.EigenTriplet(
                mode=mode,
                quasi_energy=t.quasi_energy,
                avg_energy=t.avg_energy,
                quasi_energy_raw=t.quasi_energy_raw,
                residual=t.residual,
                group_id=t.group_id,
                group_size=t.group_size,
            )
            for t, mode in zip(spec, modes)
        ],
        metadata=dict(spec.metadata),
    )


def _pairwise_overlaps(spec_a, spec_b):
    return np.array([[ft.replica_overlap(a.mode, b.mode)[0] for b in spec_b] for a in spec_a])


def test_overlap_matrix_equals_pairwise_replica_overlap(spectra, oracle_spectra):
    spec_s, spec_o = spectra["driven_ring"], oracle_spectra["driven_ring"]
    rng = np.random.default_rng(43)
    # a phase and a replica shift per state, so the maxima sit at k != 0
    rotated = _with_modes(
        spec_s,
        [
            ft.FloquetMode(np.exp(1j * rng.uniform(0, 2 * np.pi)) * t.mode.shift(k)[0].coeffs)
            for t, k in zip(spec_s, rng.integers(-2, 3, size=len(spec_s)))
        ],
    )
    zero = _with_modes(spec_s, [ft.FloquetMode(np.zeros_like(t.mode.coeffs)) for t in spec_s])
    for a, b in [(spec_s, spec_o), (spec_s, rotated), (rotated, spec_o), (spec_s, zero)]:
        assert np.abs(ft.overlap_matrix(a, b) - _pairwise_overlaps(a, b)).max() <= 1e-15
    assert not ft.overlap_matrix(spec_s, zero).any()


def test_overlap_matrix_dimension_mismatch(spectra):
    with pytest.raises(ValueError):
        ft.overlap_matrix(spectra["two_level_circular"], spectra["driven_ring"])


def test_perturb_and_track_gapped_model():
    # folded quasi-energies 0.1 and 0.3: away from degeneracy and from the
    # zone seam, both pairings track the states through the perturbation
    h = ft.builtin_model("static", {"levels": (0.1, 1.0), "omega": 0.7})
    v = ft.FourierHamiltonian(dim=2, omega=0.7, harmonics={0: np.diag([-1.0, 1.0])})
    report = ft.perturb_and_track(h, v, 1e-6)
    assert report.overlap_qorder.min() >= 1.0 - 1e-8
    assert report.overlap_label.min() >= 1.0 - 1e-8


def test_perturb_and_track_zero_strength():
    h, v, _ = ft.degeneracy_contrast_fixture()
    report = ft.perturb_and_track(h, v, 0.0)
    assert np.all(report.overlap_label == 1.0)


def test_contrast_fixture_separates_pairings():
    h, v, strength = ft.degeneracy_contrast_fixture()
    report = ft.perturb_and_track(h, v, strength)
    assert report.overlap_qorder.max() <= 0.9
    assert report.overlap_label.min() >= 0.999


def test_tracking_report_csv_columns():
    h, v, strength = ft.degeneracy_contrast_fixture()
    report = ft.perturb_and_track(h, v, strength)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "state,eps0,ebar0,eps,ebar,overlap_qorder,overlap_label"
    assert len(lines) == 1 + len(report.rows)
    first = lines[1].split(",")
    assert int(first[0]) == 0 and len(first) == 7


def test_tracking_determinism():
    h, v, strength = ft.degeneracy_contrast_fixture()
    a = ft.perturb_and_track(h, v, strength)
    b = ft.perturb_and_track(h, v, strength)
    assert a.to_csv() == b.to_csv()


def test_truncation_convergence_monotone():
    keeps, weights = ft.truncation_convergence_curve()
    full = weights[-1]
    errors = full - weights
    assert np.all(np.diff(weights) >= -1e-15)  # captured weight is monotone
    for a, b in zip(errors[:-1], errors[1:]):
        assert b < a  # error shrinks at each doubling of the kept count


def test_sweep_values_static_gap_crossing():
    from floqtriplet.analysis import sweep_values

    values = np.linspace(0.9, 1.1, 9)
    records = sweep_values(
        "static", {"levels": [0.0, 1.0], "omega": 0.5}, "levels.1", values, 2
    )
    assert all("error" not in r for r in records)
    ebars = np.array([r["ebar"] for r in records])
    eps = np.array([r["eps"] for r in records])
    # average energies pass smoothly through the fold: state 1 tracks lambda
    assert_allclose(ebars[:, 1], values, atol=1e-9)
    assert_allclose(ebars[:, 0], 0.0, atol=1e-9)
    # the folded quasi-energy collapses to 0 at the commensurate point
    mid = len(values) // 2
    assert abs(eps[mid, 1]) <= 1e-9
    assert eps[0, 1] > 0.3 and eps[-1, 1] > 0.0


def test_sweep_values_records_failures():
    from floqtriplet.analysis import sweep_values

    records = sweep_values(
        "driven_ring",
        {"sites": 6, "hopping": 1.0, "v": 0.5, "omega": 2.3},
        "omega",
        np.array([2.3, -1.0]),
        4,
    )
    assert "error" not in records[0]
    assert "error" in records[1]


def _count_solves(monkeypatch):
    from floqtriplet import analysis

    solved = []
    monkeypatch.setattr(analysis, "solve_spectrum", lambda *args: solved.append(args))
    return solved


def test_sweep_values_refuses_a_cutoff_below_any_point_order_before_solving(monkeypatch):
    # at the first point, v = 0, the drive vanishes; the next points have it
    from floqtriplet.analysis import sweep_values

    solved = _count_solves(monkeypatch)
    with pytest.raises(ft.ModelError, match="M=0 is below the largest harmonic index 1"):
        sweep_values("two_level_linear", {}, "v", np.array([0.0, 0.1, 0.2]), 0)
    assert solved == []


def _one_harmonic(h, m):
    return ft.FourierHamiltonian(dim=h.dim, omega=h.omega, harmonics={m: np.array([[0, 1], [1, 0]], complex)})


def test_perturb_and_track_refuses_a_cutoff_below_the_perturbed_order_before_solving(monkeypatch):
    h = ft.builtin_model("two_level_linear")
    solved = _count_solves(monkeypatch)
    with pytest.raises(ft.ModelError, match="M=4 is below the largest harmonic index 5"):
        ft.perturb_and_track(h, _one_harmonic(h, 5), 1e-6, 4)
    assert solved == []


def test_perturb_and_track_refuses_a_perturbation_above_the_certified_cutoff():
    # h certifies at M = 4; the m = 5 perturbation does not fit there
    h = ft.builtin_model("two_level_linear")
    assert ft.certify_truncation(h) == 4
    with pytest.raises(ft.ModelError, match="M=4 is below the largest harmonic index 5"):
        ft.perturb_and_track(h, _one_harmonic(h, 5), 1e-6)


def test_sweep_values_unknown_axis():
    from floqtriplet.analysis import sweep_values
    from floqtriplet.model import ModelError

    params = {"levels": [0.0, 1.0], "omega": 0.5}
    with pytest.raises(ModelError):
        sweep_values("static", params, "gap", np.array([1.0]), 2)
    # an index past the list raised IndexError, a negative one too; a bare list
    # axis solved a one-level model
    for axis in ("levels.5", "levels.-3", "levels"):
        with pytest.raises(ModelError, match="sweep one of levels.0 to levels.1"):
            sweep_values("static", params, axis, np.array([1.0]), 2)
