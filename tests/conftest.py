import os

# One BLAS thread, set before numpy is first imported: the dense solves here
# are small, and a thread pool on a few shared cores makes them many times
# slower (the criterion 06 variational fixture most of all).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

import floqtriplet as ft
from floqtriplet import sambe

BUILTIN_NAMES = ("static", "two_level_circular", "two_level_linear", "driven_ring")


def circular_reference(delta: float, v: float, omega: float) -> dict:
    """Closed-form rotating-frame solution of the circularly driven level pair.

    In the frame rotating with the drive the Hamiltonian is static with
    splitting Omega = sqrt((delta-omega)^2 + v^2); transforming back gives the
    quasi-energies (omega -+ Omega)/2 and the average energies
    -+(Omega/2 + omega(delta-omega)/(2 Omega)), with the minus-sign average
    energy belonging to the (omega + Omega)/2 quasi-energy.
    """
    big_omega = np.sqrt((delta - omega) ** 2 + v**2)
    eps_plus = np.mod((omega + big_omega) / 2.0, omega)
    eps_minus = np.mod((omega - big_omega) / 2.0, omega)
    ebar_plus = big_omega / 2.0 + omega * (delta - omega) / (2.0 * big_omega)
    return {
        "omega_rabi": big_omega,
        "eps": {"plus": eps_plus, "minus": eps_minus},
        "ebar": {"plus": ebar_plus, "minus": -ebar_plus},
        # ladder ordered as the solver reports: by average energy ascending
        "pairs": [(eps_plus, ebar_plus), (eps_minus, -ebar_plus)],
    }


CIRCULAR_DEFAULT = circular_reference(1.0, 0.4, 1.5)


@pytest.fixture(scope="session")
def models():
    return {name: ft.builtin_model(name) for name in BUILTIN_NAMES}


@pytest.fixture(scope="session")
def spectra(models):
    return {name: ft.solve_spectrum(h, "auto") for name, h in models.items()}


@pytest.fixture(scope="session")
def oracle_spectra(models, spectra):
    out = {}
    for name, h in models.items():
        truncation = spectra[name].metadata["truncation"]
        out[name] = ft.oracle_spectrum(h, truncation)
    return out


@pytest.fixture(scope="session")
def ground_results(models, spectra):
    out = {}
    for name, h in models.items():
        truncation = spectra[name].metadata["truncation"]
        out[name] = ft.minimize_ground(h, truncation)
    return out


def random_complex_model(dim: int, seed: int, omega: float = 2.0) -> ft.FourierHamiltonian:
    """A seeded random complex model with no symmetry: H_0 = A + A^H and
    H_1, H_2 of 0.3 and 0.1 times that scale, A, H_1 and H_2 complex
    Gaussian with entries of variance 1 / dim."""
    rng = np.random.default_rng(seed)

    def gauss():
        return (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2 * dim)

    a = gauss()
    harmonics = {0: a + a.conj().T, 1: 0.3 * gauss(), 2: 0.1 * gauss()}
    return ft.FourierHamiltonian(dim=dim, omega=omega, harmonics=harmonics)


def random_mode(rng: np.random.Generator, truncation: int, dim: int) -> ft.FloquetMode:
    coeffs = rng.normal(size=(2 * truncation + 1, dim)) + 1j * rng.normal(
        size=(2 * truncation + 1, dim)
    )
    return ft.FloquetMode(coeffs).normalized()


def padded(mode: ft.FloquetMode, extra: int) -> ft.FloquetMode:
    """The mode with `extra` zero blocks on each side, at truncation M + extra:
    a shift by |k| <= extra then loses nothing.  A mode at its certified M
    has no spare blocks, so a replica shift inside M would cut it."""
    return ft.FloquetMode(np.pad(mode.coeffs, ((extra, extra), (0, 0))))


def time_shifted(h: ft.FourierHamiltonian, tau: float) -> ft.FourierHamiltonian:
    """The drive shifted in time, H'(t) = H(t + tau): H_m -> H_m e^{i m omega tau}.

    The shift maps modes to modes unitarily, so every quasi-energy and
    average energy is unchanged, but real harmonics become complex.  The
    m < 0 partners are completed by the constructor.
    """
    harmonics = {
        m: mat * np.exp(1j * m * h.omega * tau) for m, mat in h.harmonics.items() if m >= 0
    }
    return ft.FourierHamiltonian(dim=h.dim, omega=h.omega, harmonics=harmonics)


def converge_on_replica(monkeypatch, h: ft.FourierHamiltonian, truncation: int,
                        centroid: float) -> ft.FloquetMode:
    """Make every variational start end, converged, on the eigenvector of
    build_sambe(h, truncation) whose centroid is nearest the given one
    (from np.linalg.eigh); returns that mode."""
    from floqtriplet import variational

    _, vecs = np.linalg.eigh(ft.build_sambe(h, truncation))
    modes = [ft.FloquetMode.from_flat(vec, h.dim) for vec in vecs.T]
    mode = min(modes, key=lambda m: abs(m.centroid() - centroid))
    monkeypatch.setattr(variational, "_minimize_one",
                        lambda ws, y: (ws.pack(mode.flat()), True, []))
    return mode


def full_solve(h: ft.FourierHamiltonian, truncation: int):
    """The fixed-cutoff pipeline on the full Sambe spectrum (no value window),
    its eigenpairs from numpy.linalg.eigh (?syevd / ?heevd): the reduction
    and divide and conquer of `diagonalize`, but LAPACK's own driver and
    back-transform of every column."""
    vals, vecs = np.linalg.eigh(ft.build_sambe(h, truncation))
    reps = ft.select_representatives(vals, vecs, h, truncation)
    return ft.resolve_degeneracies(ft.group_degeneracies(reps, h), h)


def leak_floor_and_figure(h: ft.FourierHamiltonian, truncation: int) -> tuple[float, float]:
    """One rung's `_leak_floor` and the Ebar figure of `_truncation_bounds`
    it bounds from below, taken as `sambe._rung` takes them but before it
    reports the larger of the two."""
    vals, vecs, basis = sambe._window_pairs(h, truncation)
    x, tx, lams, eps = sambe._select(vals, vecs, h, truncation, basis)
    floor = sambe._leak_floor(h, truncation, x, lams, eps)
    cols, gids, lams, eps = sambe._group(lams, eps, h.omega)
    states = sambe._resolve(x[:, cols], tx[:, cols], lams, eps, gids, h)
    return floor, sambe._truncation_bounds(h, truncation, states)[1]


def assert_same_triplets(a, b, omega: float, tol: float, tol_ebar: float | None = None):
    """Every (eps, Ebar) of `a` matched one-to-one in `b` within tol (eps
    wrapped), Ebar within tol_ebar if given."""
    assert len(a) == len(b)
    tol_ebar = tol if tol_ebar is None else tol_ebar
    unused = list(b)
    for t in a:
        match = next(
            (
                u for u in unused
                if abs(u.avg_energy - t.avg_energy) <= tol_ebar
                and ft.wrap_distance(u.quasi_energy, t.quasi_energy, omega) <= tol
            ),
            None,
        )
        assert match is not None, (t.quasi_energy, t.avg_energy)
        unused.remove(match)
