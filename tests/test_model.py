import hashlib
import json
import pickle
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import floqtriplet as ft
from floqtriplet import model, oracle
from floqtriplet.model import SIGMA_X, SIGMA_Y, SIGMA_Z, FourierHamiltonian, from_json_dict


def test_validate_static_passes():
    h = FourierHamiltonian(dim=2, omega=1.5, harmonics={0: np.diag([0.5, -0.5])})
    report = ft.validate(h)
    assert report.passed
    assert report.violations == ()


def test_validate_flags_broken_hermiticity():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex)
    with pytest.raises(ft.ModelError, match=r"^invalid Hamiltonian: hermiticity\(m=1\)$"):
        FourierHamiltonian(
            dim=2, omega=1.0, harmonics={1: bad, -1: bad}  # -1 partner is not bad^dagger
        )


def test_validate_flags_nonpositive_omega():
    with pytest.raises(ft.ModelError, match=r"^invalid Hamiltonian: omega\(nonpositive\)$"):
        FourierHamiltonian(dim=1, omega=-0.3, harmonics={0: np.array([[1.0]])})


@pytest.mark.parametrize("omega", [np.inf, -np.inf, np.nan])
def test_validate_flags_nonfinite_omega(omega):
    with pytest.raises(ft.ModelError, match=r"^invalid Hamiltonian: omega\(nonfinite\)$"):
        FourierHamiltonian(dim=1, omega=omega, harmonics={0: np.array([[1.0]])})


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_validate_flags_nonfinite_entries(bad):
    # a NaN is not equal to itself; it must not read as broken hermiticity
    h0 = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
    h1 = np.array([[0.0, bad], [0.0, 0.0]], dtype=complex)
    with pytest.raises(
        ft.ModelError,
        match=r"^invalid Hamiltonian: finite\(m=-1\), finite\(m=0\), finite\(m=1\)$",
    ):
        FourierHamiltonian(dim=2, omega=1.0, harmonics={0: h0, 1: h1})
    with pytest.raises(ft.ModelError, match=r"^invalid Hamiltonian: finite\(m=0\)$"):
        FourierHamiltonian(dim=2, omega=1.0, harmonics={0: h0})


@pytest.mark.parametrize("given, zero", [(1, -1), (-1, 1)])
def test_pruned_partner_is_not_hermitian(given, zero):
    # the zero member of a given pair is pruned, leaving H_m without H_{-m}
    x = np.array([[0.0, 0.2], [0.1, 0.0]], dtype=complex)
    with pytest.raises(ft.ModelError, match=r"^invalid Hamiltonian: hermiticity\(m=1\)$"):
        FourierHamiltonian(
            dim=2, omega=1.0, harmonics={0: np.eye(2), given: x, zero: np.zeros((2, 2))}
        )


def test_harmonics_are_read_only():
    h = ft.builtin_model("two_level_linear")
    with pytest.raises(TypeError):
        h.harmonics[2] = np.eye(2)
    with pytest.raises(ValueError):
        h.harmonics[0][0, 0] = 5.0
    assert set(h.harmonics) == {-1, 0, 1}


def test_caller_array_is_copied():
    h0 = np.diag([0.25, -0.25]).astype(complex)
    h = FourierHamiltonian(dim=2, omega=1.0, harmonics={0: h0})
    h0[0, 0] = np.nan  # still the caller's own writable array
    assert np.array_equal(h.harmonics[0], np.diag([0.25, -0.25]))


def test_model_validated_once_at_construction(monkeypatch):
    calls = []
    real = model.validate
    monkeypatch.setattr(model, "validate", lambda h: calls.append(h) or real(h))
    h = ft.builtin_model("two_level_linear")
    assert len(calls) == 1
    ft.solve_spectrum(h, "auto")
    monkeypatch.setattr(oracle, "STEPS_PER_PERIOD", 64)
    ft.oracle_spectrum(h, 4)
    ft.minimize_ground(h, 4, ft.VariationalConfig(restarts=0))
    assert len(calls) == 1


def test_circular_model_passes_and_matches_hand_expansion():
    h = ft.builtin_model("two_level_circular", {"delta": 1.0, "v": 0.4, "omega": 1.5})
    assert ft.validate(h).passed
    # collecting the e^{+i w t} terms of (V/2)(sx cos wt + sy sin wt) by hand
    assert_allclose(h.harmonics[1], 0.1 * (SIGMA_X - 1j * SIGMA_Y), atol=0)
    assert_allclose(h.harmonics[-1], h.harmonics[1].conj().T, atol=0)


def test_eval_at_time_static_is_constant():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    for t in (0.0, 0.31, 5.7):
        assert_allclose(h.eval_at_time(t), np.diag([0.0, 1.0]), atol=0)


def test_eval_at_time_circular_at_zero():
    delta, v = 1.0, 0.4
    h = ft.builtin_model("two_level_circular", {"delta": delta, "v": v, "omega": 1.5})
    expected = (delta / 2.0) * SIGMA_Z + (v / 2.0) * SIGMA_X
    assert_allclose(h.eval_at_time(0.0), expected, atol=1e-15)


@pytest.mark.parametrize("seed", range(8))
def test_eval_at_time_matches_explicit_sum(seed):
    # the cached (K, d*d) stack times the phase vector is the sum over the
    # harmonics, up to the rounding of its K terms
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 7))
    harmonics = {
        m: rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for m in (1, 2, 3)
    }
    h0 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    harmonics[0] = h0 + h0.conj().T
    h = FourierHamiltonian(dim=dim, omega=float(rng.uniform(0.3, 3.0)), harmonics=harmonics)
    scale = sum(np.linalg.norm(mat) for mat in h.harmonics.values())
    for t in rng.uniform(-50.0, 50.0, size=10):
        expected = sum(mat * np.exp(1j * m * h.omega * t) for m, mat in h.harmonics.items())
        assert np.linalg.norm(h.eval_at_time(t) - expected) <= 1e-15 * scale


@pytest.mark.parametrize("name", ["static", "two_level_circular", "two_level_linear", "driven_ring"])
def test_builtin_hermitian_and_periodic_on_grid(name):
    h = ft.builtin_model(name)
    ts = np.linspace(0.0, h.period, 64, endpoint=False)
    for t in ts:
        ht = h.eval_at_time(t)
        assert np.linalg.norm(ht - ht.conj().T) <= 1e-12
        assert np.linalg.norm(h.eval_at_time(t + h.period) - ht) <= 1e-12


def test_static_builtin_harmonics():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.7})
    assert set(h.harmonics) == {0}
    assert_allclose(h.harmonics[0], np.diag([0.0, 1.0]), atol=0)


def test_linear_with_drive_off_equals_static():
    delta = 1.0
    linear = ft.builtin_model("two_level_linear", {"delta": delta, "v": 0.0, "omega": 1.5})
    static = ft.builtin_model(
        "static", {"levels": (delta / 2.0, -delta / 2.0), "omega": 1.5}
    )
    assert set(linear.harmonics) == set(static.harmonics) == {0}
    assert np.array_equal(linear.harmonics[0], static.harmonics[0])


def test_unknown_model_and_bad_params():
    with pytest.raises(ft.ModelError):
        ft.builtin_model("nonsense")
    with pytest.raises(ft.ModelError):
        ft.builtin_model("driven_ring", {"sites": 2})
    with pytest.raises(ft.ModelError):
        ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": -1.0})
    with pytest.raises(ft.ModelError):
        ft.builtin_model("static", {"nonexistent": 1.0})
    # a JSON list as the name raised an uncaught TypeError (unhashable)
    with pytest.raises(ft.ModelError, match="unknown model"):
        from_json_dict({"builtin": ["static"]})


def test_non_integral_sizes_are_refused():
    # 3.5 sites and dim 2.7 were truncated to a 3-site ring and d = 2
    with pytest.raises(ft.ModelError, match="sites must be an integer"):
        ft.builtin_model("driven_ring", {"sites": 3.5})
    entries = [{"m": 0, "re": [[1.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}]
    with pytest.raises(ft.ModelError, match="dim must be an integer"):
        from_json_dict({"dim": 2.7, "omega": 1.0, "harmonics": entries})
    with pytest.raises(ft.ModelError, match="dim must be an integer"):
        FourierHamiltonian(dim=float("nan"), omega=1.0)
    # an integral float is a size
    assert ft.builtin_model("driven_ring", {"sites": 3.0}).dim == 3
    h = from_json_dict({"dim": 2.0, "omega": 1.0, "harmonics": entries})
    assert type(h.dim) is int and h.dim == 2
    # harmonic index 1.6 was stored as 1, overwriting the H_1 given first, and
    # a JSON "m": 1.7 solved as m = 1
    with pytest.raises(ft.ModelError, match="harmonic index must be an integer, got 1.6"):
        FourierHamiltonian(dim=1, omega=1.0, harmonics={1: [[0.1]], 1.6: [[0.3]]})
    with pytest.raises(ft.ModelError, match="harmonic index m must be an integer, got 1.7"):
        from_json_dict({"dim": 2, "omega": 1.0, "harmonics": [{**entries[0], "m": 1.7}]})
    # a string index was read as a number, so "1" beside 1 was a second key of
    # index 1; a repeated m kept the last one
    with pytest.raises(ft.ModelError, match="harmonic index must be an integer, got '1'"):
        FourierHamiltonian(dim=1, omega=1.0, harmonics={1: [[0.1]], "1": [[0.3]]})
    with pytest.raises(ft.ModelError, match="harmonic index m=0 is given twice"):
        from_json_dict({"dim": 2, "omega": 1.0, "harmonics": entries + entries})
    # an integral float is an index, and a numpy integer a size and an index
    h = FourierHamiltonian(dim=1, omega=1.0, harmonics={0: [[1.0]], 1.0: [[0.1]]})
    assert list(h.harmonics) == [-1, 0, 1] and all(type(m) is int for m in h.harmonics)
    h = FourierHamiltonian(dim=np.int64(1), omega=1.0, harmonics={np.int32(1): [[0.1]]})
    assert type(h.dim) is int and list(h.harmonics) == [-1, 1]


def test_bool_or_string_for_a_number_is_refused():
    # float() read true as 1.0 and "1" as 1.0, and a complex array took both
    refused = [
        (dict(omega="1"), "omega"),
        (dict(omega=True), "omega"),
        (dict(omega=1.0, harmonics={1: [["1"]]}), "harmonic m=1"),
        (dict(omega=1.0, harmonics={1: [[True]]}), "harmonic m=1"),
    ]
    for kwargs, field in refused:
        with pytest.raises(ft.ModelError, match=f"{field} must be numeric"):
            FourierHamiltonian(dim=1, **kwargs)
    for name, params, field in [
        ("static", {"omega": "1", "levels": ["0", "1"]}, "omega"),
        ("static", {"levels": ["0", "1"]}, "levels"),
        ("static", {"levels": [False, True]}, "levels"),
        ("driven_ring", {"v": True}, "v"),
        ("driven_ring", {"sites": "3"}, "sites"),
        # numpy promoted a bool next to numbers to 1.0
        ("static", {"levels": [True, 1.5]}, "levels"),
        ("static", {"levels": (1.5, np.bool_(True))}, "levels"),
    ]:
        with pytest.raises(ft.ModelError, match=f"{field} must be numeric"):
            ft.builtin_model(name, params)
    # whole floats, numpy numbers and complex matrices stay numbers
    h = FourierHamiltonian(dim=1, omega=np.float32(2.0), harmonics={0: np.array([[1]]), 1: [[0.5j]]})
    assert h.omega == 2.0 and h.harmonics[1][0, 0] == 0.5j
    ring = ft.builtin_model("driven_ring", {"sites": 4.0, "v": np.float64(0.3), "omega": np.int64(2)})
    assert ring.dim == 4 and ring.omega == 2.0
    assert ft.builtin_model("static", {"levels": np.array([0, 1])}).dim == 2


def test_wrong_shape_for_a_number_is_refused():
    # a list where a number belongs raised an uncaught TypeError from float()
    for name, params, message in [
        ("static", {"omega": [1]}, "omega must be a number"),
        ("static", {"levels": [[0, 1]]}, "levels must be a number or a flat list"),
        ("static", {"levels": [0, [1]]}, "levels must be numeric"),
        ("two_level_linear", {"v": [0.4, 0.5]}, "v must be a number"),
        ("driven_ring", {"sites": [6]}, "sites must be a number"),
    ]:
        with pytest.raises(ft.ModelError, match=re.escape(message)):
            ft.builtin_model(name, params)
    with pytest.raises(ft.ModelError, match="omega must be a number"):
        FourierHamiltonian(dim=1, omega=np.array([1.0]))
    # a bool inside a matrix, and an integer too large for any size or index
    with pytest.raises(ft.ModelError, match="harmonic m=0 must be numeric"):
        FourierHamiltonian(dim=2, omega=1.0, harmonics={0: [[True, 1.0], [1.0, 0.0]]})
    with pytest.raises(ft.ModelError, match="dim is out of range"):
        FourierHamiltonian(dim=10**400, omega=1.0)
    # one level as a number or a one-entry list, and numpy scalars, are accepted
    assert ft.builtin_model("static", {"levels": 0}).dim == 1
    assert ft.builtin_model("static", {"levels": [0.5]}).dim == 1
    h = ft.builtin_model("static", {"levels": np.float64(0.5), "omega": np.array(0.7)})
    assert h.dim == 1 and h.omega == 0.7


def test_missing_partner_completed_at_construction():
    h1 = np.array([[0.0, 0.2], [0.1, 0.0]], dtype=complex)
    h = FourierHamiltonian(dim=2, omega=1.0, harmonics={1: h1})
    assert np.array_equal(h.harmonics[-1], h1.conj().T)
    assert ft.validate(h).passed


def test_zero_harmonics_pruned():
    h = FourierHamiltonian(
        dim=2, omega=1.0, harmonics={0: np.eye(2), 2: np.zeros((2, 2))}
    )
    assert set(h.harmonics) == {0}
    assert h.max_harmonic == 0


def test_json_round_trip_explicit_schema(tmp_path):
    h = ft.builtin_model("two_level_circular")
    payload = h.to_json_dict()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    back = ft.load_model(str(path))
    assert back.dim == h.dim and back.omega == h.omega
    for m in h.harmonics:
        assert np.array_equal(back.harmonics[m], h.harmonics[m])
    assert ft.model_hash(back) == ft.model_hash(h)


@pytest.mark.parametrize("name", ["static", "two_level_circular", "two_level_linear", "driven_ring"])
def test_pickle_round_trip(name):
    # a model can be sent to a worker process: it is rebuilt from its parts
    h = ft.builtin_model(name)
    h.eval_at_time(0.0)  # fill the cached harmonic stack before pickling
    back = pickle.loads(pickle.dumps(h))
    assert back.dim == h.dim and back.omega == h.omega
    assert list(back.harmonics) == list(h.harmonics)
    for m in h.harmonics:
        assert np.array_equal(back.harmonics[m], h.harmonics[m])
    assert ft.model_hash(back) == ft.model_hash(h)
    for t in (0.0, 0.37, 5.1):
        assert np.array_equal(back.eval_at_time(t), h.eval_at_time(t))


def test_auto_solve_serializes_the_model_once(monkeypatch):
    # the ring certifies at M = 4 after three rungs; the hash is computed once
    calls = []
    sha256 = hashlib.sha256

    def counted(data):
        calls.append(data)
        return sha256(data)

    monkeypatch.setattr(model, "hashlib", SimpleNamespace(sha256=counted))
    h = ft.builtin_model("driven_ring")
    spec = ft.solve_spectrum(h, "auto")
    assert spec.metadata["truncation"] == 4
    assert len(calls) == 1
    assert spec.metadata["model_hash"] == ft.model_hash(ft.builtin_model("driven_ring"))


def test_model_hash_sees_one_ulp():
    h = ft.builtin_model("two_level_linear")
    h0 = np.array(h.harmonics[0])
    h0[0, 0] = np.nextafter(h0[0, 0].real, np.inf)
    moved = FourierHamiltonian(dim=2, omega=h.omega, harmonics={0: h0, 1: h.harmonics[1]})
    assert moved.harmonics[0][0, 0] != h.harmonics[0][0, 0]
    assert ft.model_hash(moved) != ft.model_hash(h)


def test_model_hash_ignores_the_sign_of_zero():
    plus = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    minus = plus.copy()
    minus.real[0, 1] = minus.real[1, 0] = -0.0
    minus.imag[0, 0] = -0.0
    drive = np.array([[0.0, 0.2], [0.3, 0.0]], dtype=complex)
    a = FourierHamiltonian(dim=2, omega=1.3, harmonics={0: plus, 1: drive})
    b = FourierHamiltonian(dim=2, omega=1.3, harmonics={0: minus, 1: drive})
    assert np.signbit(b.harmonics[0].real[0, 1]) and np.signbit(b.harmonics[0].imag[0, 0])
    assert ft.model_hash(a) == ft.model_hash(b)


def test_harmonics_stored_in_ascending_order():
    h1 = np.array([[0.0, 0.2], [0.1, 0.0]], dtype=complex)
    h = FourierHamiltonian(dim=2, omega=1.0, harmonics={2: h1, 0: np.eye(2), -1: h1.T})
    assert list(h.harmonics) == [-2, -1, 0, 1, 2]


def test_solve_independent_of_harmonic_order():
    # the static level 1 and the driven level 1e-8 fold exactly TOL_DEG * omega apart,
    # so the last bit of every sum over the harmonics decides the cutoff
    h = FourierHamiltonian(
        dim=2, omega=1.0, harmonics={0: np.diag([1.0, 1e-8]), 1: np.diag([0.0, 1j])}
    )
    back = from_json_dict(json.loads(json.dumps(h.to_json_dict())))
    a, b = ft.solve_spectrum(h, "auto"), ft.solve_spectrum(back, "auto")
    assert a.metadata["truncation"] == b.metadata["truncation"]
    assert np.array_equal(a.quasi_energies, b.quasi_energies)
    assert np.array_equal(a.avg_energies, b.avg_energies)


def test_json_builtin_schema(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"builtin": "static", "params": {"levels": [0.0, 1.0], "omega": 0.7}}))
    h = ft.load_model(str(path))
    assert_allclose(h.harmonics[0], np.diag([0.0, 1.0]), atol=0)


def test_combine_adds_harmonics():
    h = ft.builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.5})
    v = FourierHamiltonian(dim=2, omega=0.5, harmonics={0: np.diag([-1.0, 1.0])})
    hp = ft.combine(h, v, 0.01)
    assert_allclose(hp.harmonics[0], np.diag([-0.01, 1.01]), atol=0)
    with pytest.raises(ft.ModelError):
        ft.combine(h, FourierHamiltonian(dim=2, omega=0.7, harmonics={0: np.eye(2)}))


@st.composite
def fourier_hamiltonians(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    omega = draw(st.floats(min_value=0.2, max_value=5.0, allow_nan=False))
    indices = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3, unique=True))
    harmonics = {}
    for m in indices:
        entries = draw(
            st.lists(
                st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                min_size=2 * dim * dim,
                max_size=2 * dim * dim,
            )
        )
        flat = np.asarray(entries)
        mat = (flat[: dim * dim] + 1j * flat[dim * dim :]).reshape(dim, dim)
        if m == 0:
            mat = 0.5 * (mat + mat.conj().T)
        harmonics[m] = mat
    return FourierHamiltonian(dim=dim, omega=omega, harmonics=harmonics)


@settings(max_examples=50, deadline=None)
@given(h=fourier_hamiltonians(), t=st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
def test_completed_hamiltonians_are_hermitian_and_periodic(h, t):
    assert ft.validate(h).passed
    ht = h.eval_at_time(t)
    scale = max(1.0, np.abs(ht).max())
    assert np.linalg.norm(ht - ht.conj().T) <= 1e-12 * scale
    assert np.linalg.norm(h.eval_at_time(t + h.period) - ht) <= 1e-9 * scale
