"""Spectrum ordering, truncation, and perturbation-robustness experiments.

The average energy gives the spectrum a lower-bounded ordering, so a
physically meaningful truncation is just a prefix of the ordered triplets.
The tracking experiment quantifies why the quasi-energy alone is a bad
label: near a quasi-energy degeneracy an infinitesimal perturbation can
reorder the folded quasi-energies, so pairing perturbed to unperturbed
states by quasi-energy order misidentifies them, while pairing by the
(quasi-energy, average-energy) label stays stable.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import (
    MODEL_DEFAULTS,
    FourierHamiltonian,
    ModelError,
    builtin_model,
    combine,
)
from .sambe import (
    Spectrum,
    _gap_clusters,
    _replica_overlaps,
    _resolve_tol_deg,
    solve_spectrum,
    wrap_distance,
)


@dataclass(eq=False)
class TruncatedSpectrum:
    """Prefix of an average-energy-ordered spectrum."""

    retained: Spectrum
    kept: int
    total: int
    discarded_avg_energies: np.ndarray


def order_and_truncate(
    spectrum: Spectrum, keep: int | None = None, ebar_max: float | None = None
) -> TruncatedSpectrum:
    """Keep the lowest average-energy states, by count or threshold.

    The input spectrum is already ordered; the retained set is a prefix of
    it, with the ground state as element 0.
    """
    if (keep is None) == (ebar_max is None):
        raise ValueError("give exactly one of keep or ebar_max")
    if keep is not None:
        if keep <= 0:
            raise ValueError(f"keep must be positive, got {keep}")
        count = min(keep, len(spectrum))
    else:
        count = int(np.sum(spectrum.avg_energies <= ebar_max))
    retained = Spectrum(
        triplets=list(spectrum.triplets[:count]), metadata=dict(spectrum.metadata)
    )
    return TruncatedSpectrum(
        retained=retained,
        kept=count,
        total=len(spectrum),
        discarded_avg_energies=spectrum.avg_energies[count:],
    )


def overlap_matrix(spec_a: Spectrum, spec_b: Spectrum) -> np.ndarray:
    """|<<Phi_a_i | Phi_b_j>>| for all state pairs, maximized over replicas.

    Modes from different pipelines may sit in different Brillouin-zone
    replicas of the same physical state, so each entry takes the largest
    modulus over harmonic shifts.  Identical spectra give the identity
    pattern.
    """
    if not spec_a.triplets or not spec_b.triplets:
        raise ValueError("empty spectrum")
    if spec_a[0].mode.dim != spec_b[0].mode.dim:
        raise ValueError(
            f"dimension mismatch: {spec_a[0].mode.dim} vs {spec_b[0].mode.dim}"
        )
    a = np.stack([t.mode.coeffs for t in spec_a])  # (states, blocks, dim)
    b = np.stack([t.mode.coeffs for t in spec_b])
    return _replica_overlaps(a[:, None], b[None]).max(axis=-1)


def mode_agreement(
    spec_a: Spectrum, spec_b: Spectrum, partner: np.ndarray, ebar_tol: float
) -> list[tuple[list[int], float]]:
    """Smallest singular value of the complex overlap block <<Phi_a_i | Phi_b_j>>
    of each (quasi-energy group, Ebar-tie) set of spec_a, with j = partner[i].

    A set is the states of one degenerate group of spec_a whose Ebar are
    joined by gaps of at most ebar_tol.  Inside such a set the individual
    modes are arbitrary and only the subspace is fixed, and the block's
    singular values are the cosines of the angles between the two
    subspaces.  The oracle keeps each state on its centroid-zone replica,
    but the Sambe route moves the members of a group onto one common
    replica, so each block is taken at the harmonic shift of the set's
    spec_a modes that maximizes its Frobenius norm.  Returns (states,
    sigma_min) per set.
    """
    groups: dict[int, list[int]] = {}
    for i, t in enumerate(spec_a):
        groups.setdefault(t.group_id, []).append(i)
    ebars = spec_a.avg_energies
    out = []
    for members in groups.values():
        members = np.asarray(members)
        for tie in _gap_clusters(ebars[members], ebar_tol):
            states = np.sort(members[tie])
            a = np.stack([spec_a[i].mode.coeffs for i in states])
            b = np.stack([spec_b[partner[i]].mode.coeffs for i in states])
            weights = np.sum(_replica_overlaps(a[:, None], b[None]) ** 2, axis=(0, 1))
            k = int(np.argmax(weights)) - (a.shape[1] - 1)
            shifted = np.column_stack([spec_a[i].mode.shift(k)[0].flat() for i in states])
            block = shifted.conj().T @ b.reshape(len(states), -1).T
            out.append(([int(i) for i in states], float(np.linalg.svd(block, compute_uv=False).min())))
    return out


@dataclass(eq=False)
class TrackingReport:
    """Per-state label drifts and overlaps under a perturbation."""

    overlap_qorder: np.ndarray
    overlap_label: np.ndarray
    rows: list[dict] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("state,eps0,ebar0,eps,ebar,overlap_qorder,overlap_label\n")
        for row in self.rows:
            buf.write(
                "{state},{eps0!r},{ebar0!r},{eps!r},{ebar!r},"
                "{overlap_qorder!r},{overlap_label!r}\n".format(**row)
            )
        return buf.getvalue()


def _label_assignment(spec0: Spectrum, spec1: Spectrum, omega: float) -> np.ndarray:
    """Match perturbed to unperturbed states by nearest (eps, ebar) label.

    The metric is Euclidean in (eps/omega, ebar/omega) with wrap-aware
    quasi-energy distance; the assignment is the global optimum.
    """
    eps0, ebar0 = spec0.quasi_energies, spec0.avg_energies
    eps1, ebar1 = spec1.quasi_energies, spec1.avg_energies
    deps = wrap_distance(eps0[:, None], eps1[None, :], omega) / omega
    debar = np.abs(ebar0[:, None] - ebar1[None, :]) / omega
    cost = np.hypot(deps, debar)
    rows, cols = linear_sum_assignment(cost)
    assignment = np.empty(len(spec0), dtype=int)
    assignment[rows] = cols
    return assignment


def perturb_and_track(
    h: FourierHamiltonian,
    v: FourierHamiltonian,
    strength: float,
    truncation: int | str = "auto",
    tol_deg: float | None = None,
) -> TrackingReport:
    """Solve h and h + strength*v, pair states both ways, report drift.

    Pairing (a) sorts both spectra by folded quasi-energy and matches by
    position; pairing (b) matches by nearest (eps, ebar) label.  The
    documented regime is strength <= 1e-3 * omega.
    """
    spec0 = solve_spectrum(h, truncation, tol_deg)
    hp = combine(h, v, strength)
    spec1 = solve_spectrum(hp, spec0.metadata["truncation"], tol_deg)

    order0 = np.argsort(spec0.quasi_energies, kind="stable")
    order1 = np.argsort(spec1.quasi_energies, kind="stable")
    qorder_assignment = np.empty(len(spec0), dtype=int)
    qorder_assignment[order0] = order1
    label_assignment = _label_assignment(spec0, spec1, h.omega)
    overlaps = overlap_matrix(spec0, spec1)

    rows = []
    for i, (jq, jl) in enumerate(zip(qorder_assignment, label_assignment)):
        rows.append(
            {
                "state": i,
                "eps0": spec0[i].quasi_energy,
                "ebar0": spec0[i].avg_energy,
                "eps": spec1[jl].quasi_energy,
                "ebar": spec1[jl].avg_energy,
                "overlap_qorder": float(overlaps[i, jq]),
                "overlap_label": float(overlaps[i, jl]),
            }
        )
    return TrackingReport(
        overlap_qorder=np.array([r["overlap_qorder"] for r in rows]),
        overlap_label=np.array([r["overlap_label"] for r in rows]),
        rows=rows,
    )


def degeneracy_contrast_fixture() -> tuple[FourierHamiltonian, FourierHamiltonian, float]:
    """Shipped fixture: engineered exact degeneracy plus adversarial drift.

    A two-level static model with gap 1 at omega = 0.5 folds both levels to
    the same quasi-energy.  The static perturbation diag(-1, +1) leaves the
    average-energy labels pinned but pushes the two folded quasi-energies
    toward opposite ends of the Brillouin zone, so quasi-energy-order
    pairing swaps the states while label pairing tracks them exactly.
    """
    h = builtin_model("static", {"levels": (0.0, 1.0), "omega": 0.5})
    v = FourierHamiltonian(
        dim=2, omega=0.5, harmonics={0: np.diag([-1.0, 1.0]).astype(complex)}
    )
    strength = 1e-6 * h.omega
    return h, v, strength


def truncation_convergence_curve() -> tuple[np.ndarray, np.ndarray]:
    """Completeness of keep-k truncated bases for the driven-ring fixture.

    Projects a fixed reference mode (seeded random vector in the m = 0
    block) onto the span of the k lowest average-energy states of the
    8-site ring, for k = 1, 2, 4 and 8, and reports the captured weight
    against the full-basis value.  The captured weight is monotone in k by
    construction; the fixture asserts the error to the full-basis value
    shrinks at each doubling of k.
    """
    h = builtin_model("driven_ring", {"sites": 8})
    spectrum = solve_spectrum(h, "auto")
    keeps = (1, 2, 4, 8)
    rng = np.random.default_rng(7)
    ref = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
    ref /= np.linalg.norm(ref)
    center = spectrum[0].mode.truncation  # block m = 0
    weights = [
        sum(abs(np.vdot(t.mode.coeffs[center], ref)) ** 2
            for t in order_and_truncate(spectrum, keep=keep).retained)
        for keep in keeps
    ]
    return np.asarray(keeps), np.asarray(weights)


def sweep_values(
    name: str,
    base_params: dict,
    axis: str,
    values: np.ndarray,
    truncation: int | str = "auto",
    tol_deg: float | None = None,
) -> list[dict]:
    """Solve a builtin model along a parameter axis with label continuity.

    Returns one record per grid point with the spectrum's (eps, ebar)
    arrays reordered so that state i at one point continues state i at the
    previous point (nearest-label assignment).  Dotted axis names such as
    "levels.1" index into list-valued parameters.  Per-point failures are
    recorded and the sweep continues; a bad tol_deg fails the whole sweep.
    """
    if name not in MODEL_DEFAULTS:
        raise ModelError(f"unknown model {name!r}")
    _resolve_tol_deg(tol_deg, 1.0)  # checks a given tol_deg; omega only sets the default
    merged = {**MODEL_DEFAULTS[name], **base_params}
    records: list[dict] = []
    previous: Spectrum | None = None
    for value in values:
        params = {k: (list(v) if isinstance(v, (list, tuple)) else v) for k, v in merged.items()}
        if "." in axis:
            key, idx = axis.split(".", 1)
            if key not in params or not isinstance(params[key], list):
                raise ModelError(f"sweep axis {axis!r} does not index a list parameter")
            params[key][int(idx)] = float(value)
        else:
            if axis not in params:
                raise ModelError(f"sweep axis {axis!r} is not a parameter of {name!r}")
            params[axis] = float(value)
        try:
            h = builtin_model(name, params)
            spectrum = solve_spectrum(h, truncation, tol_deg)
        except Exception as exc:  # per-point failure: record, continue
            records.append({"value": float(value), "error": str(exc)})
            continue
        if previous is not None:
            assignment = _label_assignment(previous, spectrum, h.omega)
            spectrum = Spectrum(
                triplets=[spectrum.triplets[j] for j in assignment],
                metadata=spectrum.metadata,
            )
        records.append(
            {
                "value": float(value),
                "eps": [t.quasi_energy for t in spectrum],
                "ebar": [t.avg_energy for t in spectrum],
            }
        )
        previous = spectrum
    return records
