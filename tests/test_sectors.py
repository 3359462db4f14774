"""The exact symmetry sectors of the Sambe matrix (`floqtriplet._sectors`).

The detector knows nothing of the models: it must find the ring's
reflection and half-period symmetries, the two-level models' half-period
one, symmetries planted under a random unitary, and nothing in random
models.  A split solve must equal the unsplit one to rounding.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import floqtriplet as ft
from floqtriplet import _lapack, _sectors, cli, oracle, sambe

from conftest import assert_same_triplets, random_complex_model

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@pytest.fixture(autouse=True, scope="module")
def split_every_rung():
    # the models here are small: split their rungs however small
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sambe, "SECTOR_MIN_SIZE", 0)
        yield


def unsplit(h: ft.FourierHamiltonian) -> ft.FourierHamiltonian:
    """A copy of h whose Sambe matrix is solved whole (`_eigh` on the full S)."""
    copy = ft.FourierHamiltonian(dim=h.dim, omega=h.omega, harmonics=dict(h.harmonics))
    copy.__dict__["_sectors"] = _sectors.Sectors(0.0)
    return copy


def assert_same_modes(a: ft.Spectrum, b: ft.Spectrum, omega: float, tol: float):
    """The modes of the states at each (eps, Ebar) span the same subspace
    in both spectra."""

    def projector(spec, t):
        near = [u.mode.flat() for u in spec
                if ft.wrap_distance(u.quasi_energy, t.quasi_energy, omega) <= 1e-9
                and abs(u.avg_energy - t.avg_energy) <= 1e-9]
        return len(near), sum(np.outer(x, x.conj()) for x in near)

    for t in a:
        (na, pa), (nb, pb) = projector(a, t), projector(b, t)
        assert na == nb and np.abs(pa - pb).max() <= tol, (t.quasi_energy, t.avg_energy)


@pytest.mark.parametrize(
    "name, params, count",
    [("driven_ring", {"sites": sites}, 4) for sites in (6, 24, 48, 96)]
    + [
        # odd: no translation by half the ring, only the reflection
        ("driven_ring", {"sites": 97}, 2),
        ("two_level_linear", {}, 2),
        ("two_level_circular", {}, 2),
        # no drive: S is block-diagonal in the harmonics already
        ("static", {}, None),
    ],
)
def test_builtin_models_have_their_sectors(name, params, count):
    sectors = ft.builtin_model(name, params)._sectors
    assert (sectors.dims and len(sectors.dims)) == count
    assert sectors.coupling <= _sectors.COUPLING_TOL


def test_ring_sectors_are_reflection_and_half_period():
    # on the 48-site ring the reflection splits 25 + 23 sites, and the half
    # period each of those into two that swap on odd harmonics
    dims = ft.builtin_model("driven_ring", {"sites": 48})._sectors.dims
    assert dims == [[11, 12], [12, 11], [12, 13], [13, 12]]


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e-300])
def test_tiny_models_have_the_unit_scale_sectors(scale):
    # every entry below about 1e-154: the plain norm of the harmonics is 0
    h = ft.FourierHamiltonian(2, 1.0, {0: scale * np.diag([1.0, -1.0]),
                                       1: scale * np.array([[0.0, 1.0], [1.0, 0.0]])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sectors = _sectors.find(h)
    assert sectors.labels.tolist() == [[0, 1], [1, 0]]
    assert sectors.coupling <= _sectors.COUPLING_TOL


def test_random_complex_model_is_not_split():
    sectors = random_complex_model(64, 64)._sectors
    assert sectors.dims is None
    assert sectors.basis is None


def test_slightly_broken_ring_symmetry_is_not_found():
    # H_0 + 1e-5 P, P a random real symmetric matrix of unit 2-norm, breaks
    # every symmetry of the 24-site ring: the null-space solves find none, so
    # no coupling is even measured.  A rank threshold 1e4 times higher takes
    # the broken symmetry for a real one and measures a coupling of 2.6e-6
    ring = ft.builtin_model("driven_ring", {"sites": 24})
    p = np.random.default_rng(24).standard_normal((24, 24))
    p += p.T
    p /= np.linalg.norm(p, 2)
    h = ft.FourierHamiltonian(dim=24, omega=ring.omega,
                              harmonics={**ring.harmonics, 0: ring.harmonics[0] + 1e-5 * p})
    assert h._sectors.coupling == 0.0
    metadata = ft.solve_spectrum(h).metadata
    assert metadata["sectors"] is None and metadata["sector_coupling"] == 0.0


@pytest.mark.parametrize("seed", range(12))
def test_seeded_random_models_are_never_split(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 9))
    real = bool(seed % 2)
    harmonics = {}
    for m in range(int(rng.integers(1, 4)) + 1):
        block = rng.uniform(-1, 1, (dim, dim)) + (0 if real else 1j * rng.uniform(-1, 1, (dim, dim)))
        harmonics[m] = block + block.conj().T if m == 0 else block
    h = ft.FourierHamiltonian(dim=dim, omega=float(rng.uniform(0.8, 3.0)), harmonics=harmonics)
    assert h._sectors.dims is None


def planted(block, twist: bool, d1: int, d2: int, omega: float) -> ft.FourierHamiltonian:
    """Harmonics m = 0, 1, 2 block-diagonal on d1 + d2 under the unitary U
    (orthogonal when block is real) of a QR of block(d, d, 0); with a
    half-period twist the odd harmonic is off-block instead, so that G =
    U diag(1, .., -1, ..) U^H has G H_m = (-1)^m H_m G.  block(rows, cols,
    floor) gives entries whose parts are floor to 1 in size; the drive's
    are at least 0.25, so each planted sector is coupled within."""
    dim = d1 + d2
    u = np.linalg.qr(block(dim, dim, 0.0) + 2 * np.eye(dim))[0]
    harmonics = {}
    for m in range(3):
        floor = 0.25 if m else 0.0
        mat = np.zeros((dim, dim), dtype=complex)
        if twist and m % 2:
            mat[:d1, d1:], mat[d1:, :d1] = block(d1, d2, floor), block(d2, d1, floor)
        else:
            mat[:d1, :d1], mat[d1:, d1:] = block(d1, d1, floor), block(d2, d2, floor)
        harmonics[m] = u @ (0.5 * (mat + mat.conj().T) if m == 0 else 0.5 * mat) @ u.conj().T
    harmonics[0] = 0.5 * (harmonics[0] + harmonics[0].conj().T)
    return ft.FourierHamiltonian(dim=dim, omega=omega, harmonics=harmonics)


def floored(flat, floor):
    return np.where(flat < 0, -floor, floor) + (1 - floor) * flat


@st.composite
def planted_models(draw):
    real = draw(st.booleans())

    def block(rows, cols, floor):
        size = rows * cols
        flat = floored(np.asarray(draw(st.lists(unit, min_size=2 * size, max_size=2 * size))), floor)
        return flat[:size].reshape(rows, cols) + (0 if real else 1j) * flat[size:].reshape(rows, cols)

    twist, d1, d2 = draw(st.booleans()), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return planted(block, twist, d1, d2, draw(st.floats(min_value=0.8, max_value=3.0, allow_nan=False)))


def near_tolerance(h: ft.FourierHamiltonian) -> bool:
    """Two states, before grouping, with quasi-energies within a factor 10
    of TOL_DEG * omega: whether they form one group is decided by
    rounding, so two solves that round differently may group them
    differently."""
    truncation = ft.solve_spectrum(unsplit(h), "auto").metadata["truncation"]
    pairs = ft.diagonalize(ft.build_sambe(h, truncation), sambe._energy_window(h, truncation))
    eps = np.array([r.quasi_energy for r in ft.select_representatives(*pairs, h, truncation)])
    gaps = ft.wrap_distance(eps[:, None], eps[None, :], h.omega)[np.triu_indices(eps.size, 1)]
    tol = sambe.TOL_DEG * h.omega
    return bool(np.any((gaps > 0.1 * tol) & (gaps < 10 * tol)))


def assert_split_matches_whole(h):
    split, whole = ft.solve_spectrum(h, "auto"), ft.solve_spectrum(unsplit(h), "auto")
    assert whole.metadata["sectors"] is None
    assert split.metadata["truncation"] == whole.metadata["truncation"]
    assert_same_triplets(split, whole, h.omega, 1e-12)
    assert_same_modes(split, whole, h.omega, 1e-8)


@settings(max_examples=30, deadline=None)
@given(h=planted_models())
def test_planted_symmetries_solve_as_the_whole_matrix(h):
    # whatever the detector decides: a draw whose blocks nearly coincide has
    # its symmetry broken below the rank tolerance, and is solved whole.
    # Draws with two quasi-energies at the degeneracy tolerance are left
    # out: there the grouping, split or not, is decided by rounding
    assume(not near_tolerance(h))
    assert_split_matches_whole(h)


def seeded_planted(seed: int) -> ft.FourierHamiltonian:
    """A planted model, real on odd seeds and twisted on seeds 2, 3, 6, 7."""
    rng = np.random.default_rng(seed)
    real, twist = bool(seed % 2), bool(seed // 2 % 2)

    def block(rows, cols, floor):
        parts = floored(rng.uniform(-1, 1, (2, rows, cols)), floor)
        return parts[0] + (0 if real else 1j) * parts[1]

    return planted(block, twist, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 1.7)


@pytest.mark.parametrize("seed", range(8))
def test_planted_symmetries_are_found(seed):
    h = seeded_planted(seed)
    assert len(h._sectors.dims) >= 2
    assert_split_matches_whole(h)


@pytest.mark.parametrize("seed", [None, *range(8)],
                         ids=["ring48"] + [f"planted{seed}" for seed in range(8)])
def test_sector_order_does_not_depend_on_the_sketches(monkeypatch, seed):
    # the sectors are numbered by ascending [even, odd] dims: other seeds
    # draw other sketches and null vectors, but give the same ordered dims
    h = ft.builtin_model("driven_ring", {"sites": 48}) if seed is None else seeded_planted(seed)
    dims = _sectors.find(h).dims
    assert dims == sorted(dims)
    for other in (7, 123456789):
        monkeypatch.setattr(_sectors, "SEED", other)
        found = _sectors.find(h)
        assert found.dims == dims
        assert found.coupling <= _sectors.COUPLING_TOL


def test_failed_null_space_solve_exits_nonconvergence(monkeypatch, tmp_path, capsys):
    # an SVD that does not converge is a solver failure: exit 4, nothing written
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    out = tmp_path / "o"
    argv = ["solve", "--builtin", "driven_ring", "--param", "sites=48", "--out", str(out)]
    assert cli.main(argv) == 4
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"kind": "convergence",
                   "message": "sector detection failed: SVD did not converge"}
    assert not out.exists()


@pytest.mark.parametrize("name, params", [("driven_ring", {}), ("driven_ring", {"sites": 24}),
                                          ("two_level_linear", {"v": 2.5, "omega": 0.9})])
def test_split_solve_matches_whole_solve(name, params):
    h = ft.builtin_model(name, params)
    assert_split_matches_whole(h)
    split, whole = ft.solve_spectrum(h, "auto"), ft.solve_spectrum(unsplit(h), "auto")
    for key in ("eps_bound", "ebar_estimate"):
        # the rounding the BOUND_CASES pins allow (test_sambe.py)
        assert split.metadata[key] == pytest.approx(whole.metadata[key], rel=1e-10, abs=1e-15)


def test_split_pairs_are_certified_against_the_full_matrix():
    # a basis a little off the sectors still gives each block good pairs,
    # but not pairs of the full S
    h = ft.builtin_model("driven_ring")
    sectors = h._sectors
    turn = np.eye(h.dim)
    turn[:2, :2] = [[np.cos(1e-6), -np.sin(1e-6)], [np.sin(1e-6), np.cos(1e-6)]]
    h.__dict__["_sectors"] = _sectors.Sectors(sectors.coupling, sectors.basis @ turn, sectors.labels,
                                              sectors.rotated)
    with pytest.raises(ft.SolverError, match="residual .* on the full matrix"):
        sambe.solve_at_truncation(h, 4)


def test_block_pairs_are_certified(monkeypatch):
    # the middle pair of every block's spectrum lies inside the window: the
    # perturbed one reaches the residual check of its block.  Its residual,
    # 9e-8, is 250 times EIGEN_RESIDUAL_TOL * scale and a fortieth of a
    # tolerance 1e4 times looser
    stevd = _lapack.lapack.dstevd

    def perturbed(*args, **kwargs):
        vals, vecs, info = stevd(*args, **kwargs)
        vecs[:, vals.size // 2] += 1e-8 * vecs[:, -1]
        return vals, vecs, info

    h = ft.builtin_model("driven_ring")
    assert len(h._sectors.dims) == 4
    monkeypatch.setattr(_lapack.lapack, "dstevd", perturbed)
    with pytest.raises(ft.SolverError, match="residual"):
        sambe.solve_at_truncation(h, 4)


def test_sector_metadata_is_strict_json():
    spec = ft.solve_spectrum(ft.builtin_model("driven_ring", {"sites": 24}), "auto")
    payload = json.loads(json.dumps(spec.to_json_dict(), allow_nan=False))["metadata"]
    assert sorted(payload["sectors"]) == [[5, 6], [6, 5], [6, 7], [7, 6]]
    assert 0.0 <= payload["sector_coupling"] <= _sectors.COUPLING_TOL
    assert ft.Spectrum.from_json_dict(json.loads(json.dumps(spec.to_json_dict()))).metadata == payload


def test_oracle_does_not_use_the_sectors(monkeypatch):
    # the time-domain check stays independent of the Sambe route's sectors
    assert "_sectors" not in Path(oracle.__file__).read_text()
    h = ft.builtin_model("two_level_linear")
    monkeypatch.setattr(oracle, "STEPS_PER_PERIOD", 64)
    ft.oracle_spectrum(h, 4)
    assert "_sectors" not in h.__dict__
