"""Result checks that rebuild what they need from the model alone.

Nothing here calls the layer that produced the result it checks.  The
harmonics H_m are built in this file from the built-in models' documented
formulas, and the Sambe matrix S and the averaged-energy matrix T are
applied from them directly.  The variational check compares against the
Sambe route, a different layer from the one that produced the result.

Every check returns a list of problems; an empty list means the
operation passed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Sums of at most 48 energies of order 10 carry rounding near 1e-13; the
# tolerance sits three orders above that and four below a 1e-6 defect.
SUM_RULE_TOL = 1e-10
# The solver's own gate is 1e-10 relative to max |eigenvalue| (about 20 here).
RESIDUAL_TOL = 1e-8
EBAR_TOL = 1e-9
NORM_TOL = 1e-10
# Acceptance criterion 06: variational ground vs lowest Sambe average energy.
GROUND_TOL = 1e-6
# The CLI's default cross-method gate for `compare`.
COMPARE_GATE = 1e-6


# --- models, rebuilt from their formulas ------------------------------------

def driven_ring(sites: int, v: float, omega: float, hopping: float = 1.0):
    """Tight-binding ring with a cos(2 pi j / N) on-site drive at cos(w t)."""
    h0 = np.zeros((sites, sites), dtype=complex)
    for i in range(sites):
        h0[i, (i + 1) % sites] = h0[(i + 1) % sites, i] = -hopping
    h1 = np.diag(0.5 * v * np.cos(2.0 * np.pi * np.arange(sites) / sites)).astype(complex)
    return {0: h0, 1: h1, -1: h1}


def two_level_linear(v: float, omega: float, delta: float = 1.0):
    """(delta/2) sigma_z + v cos(w t) sigma_x."""
    h0 = np.diag([0.5 * delta, -0.5 * delta]).astype(complex)
    h1 = np.array([[0.0, 0.5 * v], [0.5 * v, 0.0]], dtype=complex)
    return {0: h0, 1: h1, -1: h1}


MODELS = {"driven_ring": driven_ring, "two_level_linear": two_level_linear}


def harmonics_of(model: dict) -> dict:
    params = {k: v for k, v in model.items() if k != "name"}
    return MODELS[model["name"]](**params)


# --- S and T applied to stacked Fourier coefficients ------------------------

def apply_energy(harmonics: dict, coeffs: np.ndarray) -> np.ndarray:
    """T x for coefficients of shape (..., 2M+1, d): (T x)_m = sum_k H_k x_{m-k}."""
    out = np.zeros_like(coeffs)
    nb = coeffs.shape[-2]
    for k, hk in harmonics.items():
        if k >= 0:
            out[..., k:, :] += coeffs[..., : nb - k, :] @ hk.T
        else:
            out[..., : nb + k, :] += coeffs[..., -k:, :] @ hk.T
    return out


def apply_sambe(harmonics: dict, omega: float, coeffs: np.ndarray) -> np.ndarray:
    """S x = T x + m omega x_m."""
    nb = coeffs.shape[-2]
    m = np.arange(nb) - (nb - 1) // 2
    return apply_energy(harmonics, coeffs) + (m * omega)[:, None] * coeffs


def wrap_distance(a, b, omega: float):
    diff = np.mod(np.asarray(a) - np.asarray(b), omega)
    return np.minimum(diff, omega - diff)


def _coeffs(state: dict) -> np.ndarray:
    return np.asarray(state["coeffs_re"]) + 1j * np.asarray(state["coeffs_im"])


# --- the checks ------------------------------------------------------------

def sum_rule_problems(eps, ebar, harmonics: dict, omega: float, where: str = "") -> list[str]:
    """sum_n ebar_n = Tr H_0 and sum_n eps_n = Tr H_0 (mod omega).

    The d modes form an orthonormal basis at every t, so the averaged
    energies sum to the averaged trace; det U(T) = exp(-i T Tr H_0) fixes
    the quasi-energy sum modulo omega.
    """
    trace = float(np.real(np.trace(harmonics[0])))
    problems = []
    ebar_gap = abs(float(np.sum(ebar)) - trace)
    if ebar_gap > SUM_RULE_TOL:
        problems.append(f"{where}sum of ebar misses Tr H0 by {ebar_gap:.3e}")
    eps_gap = float(wrap_distance(float(np.sum(eps)), trace, omega))
    if eps_gap > SUM_RULE_TOL:
        problems.append(f"{where}sum of eps misses Tr H0 mod omega by {eps_gap:.3e}")
    return problems


def _exit_problems(rc) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}, expected 0"]


def check_solve(op, out: Path, rc) -> list[str]:
    """Exactly d states; sum rules; each mode's residual and ebar recomputed."""
    problems = _exit_problems(rc)
    if problems:
        return problems
    harmonics, omega = harmonics_of(op.model), op.model["omega"]
    d = harmonics[0].shape[0]
    states = json.loads((out / "spectrum.json").read_text())["states"]
    if len(states) != d:
        return [f"{len(states)} states, expected {d}"]
    with open(out / "spectrum.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != d:
        problems.append(f"spectrum.csv has {len(rows)} rows, expected {d}")
    eps = np.array([s["quasi_energy"] for s in states])
    eps_raw = np.array([s["quasi_energy_raw"] for s in states])
    ebar = np.array([s["avg_energy"] for s in states])
    problems += sum_rule_problems(eps, ebar, harmonics, omega)
    x = np.stack([_coeffs(s) for s in states])
    norms = np.linalg.norm(x, axis=(1, 2))
    residual = np.linalg.norm(
        apply_sambe(harmonics, omega, x) - eps_raw[:, None, None] * x, axis=(1, 2)
    )
    ebar_x = np.real(np.sum(x.conj() * apply_energy(harmonics, x), axis=(1, 2)))
    checks = (
        ("|norm - 1|", np.abs(norms - 1.0), NORM_TOL),
        ("residual |S x - eps_raw x|", residual, RESIDUAL_TOL),
        ("|x^H T x - ebar|", np.abs(ebar_x - ebar), EBAR_TOL),
        ("eps_raw folded vs eps", wrap_distance(eps_raw, eps, omega), SUM_RULE_TOL),
    )
    for label, values, tol in checks:
        worst = int(np.argmax(values))
        if values[worst] > tol:
            problems.append(f"state {worst}: {label} = {values[worst]:.3e} > {tol:.0e}")
    return problems


def check_sweep(op, out: Path, rc) -> list[str]:
    """points x d rows, no failed points, sum rules at every point."""
    problems = _exit_problems(rc)
    if problems:
        return problems
    if (out / "sweep_errors.json").exists():
        problems.append("sweep_errors.json written")
    harmonics, omega = harmonics_of(op.model), op.model["omega"]
    d = harmonics[0].shape[0]
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != op.points * d:
        return problems + [f"{len(rows)} rows, expected {op.points} x {d}"]
    points: dict[str, list] = {}
    for row in rows:
        points.setdefault(row["lambda"], []).append((float(row["eps"]), float(row["ebar"])))
    if len(points) != op.points:
        problems.append(f"{len(points)} distinct points, expected {op.points}")
    for value, pairs in points.items():
        eps, ebar = zip(*pairs)
        problems += sum_rule_problems(eps, ebar, harmonics, omega, f"v={value}: ")
    return problems


def check_compare(op, out: Path, rc) -> list[str]:
    """The CLI's own gate (exit 3 on failure), d rows, every delta in the gate."""
    problems = _exit_problems(rc)
    if problems:
        return problems
    d = harmonics_of(op.model)[0].shape[0]
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != d:
        problems.append(f"compare.csv has {len(rows)} rows, expected {d}")
    worst = max(max(float(r["delta_eps"]), float(r["delta_ebar"])) for r in rows)
    if worst > COMPARE_GATE:
        problems.append(f"cross-method delta {worst:.3e} > {COMPARE_GATE:.0e}")
    return problems


def check_variational(op, out: Path, rc) -> list[str]:
    """Converged eigenmode with the recomputed ebar, at the Sambe ground."""
    problems = _exit_problems(rc)
    if problems:
        return problems
    from floqtriplet.model import FourierHamiltonian
    from floqtriplet.sambe import solve_spectrum

    harmonics, omega = harmonics_of(op.model), op.model["omega"]
    result = json.loads((out / "variational.json").read_text())
    if not result["converged"]:
        problems.append("not converged")
    x = _coeffs(result)
    x = x / np.linalg.norm(x)
    sx = apply_sambe(harmonics, omega, x)
    eps_raw = float(np.real(np.vdot(x, sx)))
    residual = float(np.linalg.norm(sx - eps_raw * x))
    if residual > RESIDUAL_TOL:
        problems.append(f"residual {residual:.3e} > {RESIDUAL_TOL:.0e}")
    ebar = float(np.real(np.vdot(x, apply_energy(harmonics, x))))
    if abs(ebar - result["avg_energy"]) > EBAR_TOL:
        problems.append(f"x^H T x differs from ebar by {abs(ebar - result['avg_energy']):.3e}")
    truncation = (x.shape[0] - 1) // 2
    h = FourierHamiltonian(dim=x.shape[1], omega=omega, harmonics=harmonics)
    ground = float(np.min(solve_spectrum(h, truncation).avg_energies))
    if abs(result["avg_energy"] - ground) > GROUND_TOL:
        problems.append(
            f"ground ebar {result['avg_energy']!r} is {abs(result['avg_energy'] - ground):.3e} "
            f"from the Sambe ground {ground!r}"
        )
    return problems
