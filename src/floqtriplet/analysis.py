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

from .model import (
    FourierHamiltonian,
    ModelError,
    _builtin_params,
    builtin_model,
    combine,
)
from .sambe import (
    Spectrum,
    _gap_clusters,
    _replica_overlaps,
    _require_truncation,
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
    subspaces.  Both routes keep each state on its centroid-zone replica,
    with <N> in [-1/2, 1/2), and no Ebar tie spans two replicas; only a
    seam state at <N> = +-1/2 may sit one replica apart, where the oracle's
    round-half-to-even picks the other.  So each block is taken at the
    harmonic shift of the set's spec_a modes that maximizes its Frobenius
    norm.  Returns (states, sigma_min) per set.
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


def _assignment(cost: np.ndarray) -> np.ndarray:
    """The columns of the least-cost one-to-one pairing of a square cost
    matrix: row i pairs with column cols[i].

    Crouse's shortest augmenting path (IEEE Trans. Aerosp. Electron. Syst.
    52, 1679 (2016)), step for step as scipy.optimize.linear_sum_assignment
    takes it, so ties pair as there: the unvisited columns are scanned from
    a list that starts in descending order and loses a column by moving the
    last one into its place, and among those of least reduced cost the last
    unassigned one in scan order is taken, else the first.  A non-square or
    non-finite cost is a ValueError.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost must be a square matrix, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost has a non-finite entry")
    n = len(cost)
    # numpy only where a whole row is scanned: scalar steps are cheaper on lists
    u, v = [0.0] * n, np.zeros(n)
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    unreached = np.full(n, np.inf)
    for start in range(n):
        # the unvisited columns, with each one's shortest path cost so far
        # and the row before it on that path, all in scan order
        remaining, scan, via = np.arange(n - 1, -1, -1), unreached.copy(), np.empty(n, dtype=int)
        rows, cols, costs = [start], [], []  # visited, each column with its final path cost
        i, lowest = start, 0.0
        while True:
            reduced = lowest + cost[i][remaining] - u[i] - v[remaining]
            better = reduced < scan
            scan[better] = reduced[better]
            via[better] = i
            lowest = float(scan.min())
            ties = np.flatnonzero(scan == lowest).tolist()
            free = [t for t in ties if row4col[remaining[t]] < 0]
            index = free[-1] if free else ties[0]
            j = int(remaining[index])
            path[j] = int(via[index])
            cols.append(j)
            costs.append(lowest)
            remaining[index], scan[index], via[index] = remaining[-1], scan[-1], via[-1]
            remaining, scan, via = remaining[:-1], scan[:-1], via[:-1]
            if row4col[j] < 0:
                break
            i = row4col[j]
            rows.append(i)
        # rows[k] is assigned to cols[k - 1], so the cost of its column is costs[k - 1]
        u[start] += lowest
        for row, final in zip(rows[1:], costs):
            u[row] += lowest - final
        for col, final in zip(cols, costs):
            v[col] -= lowest - final
        while True:  # augment along the path back to the start row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return np.array(col4row)


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
    return _assignment(np.hypot(deps, debar))


def perturb_and_track(
    h: FourierHamiltonian,
    v: FourierHamiltonian,
    strength: float,
    truncation: int | str = "auto",
) -> TrackingReport:
    """Solve h and h + strength*v, pair states both ways, report drift.

    Pairing (a) sorts both spectra by folded quasi-energy and matches by
    position; pairing (b) matches by nearest (eps, ebar) label.  The
    documented regime is strength <= 1e-3 * omega.  Both are solved at h's
    cutoff; one below the order of h + strength*v is a ModelError.
    """
    hp = combine(h, v, strength)  # refuses a mismatched v before any solve
    if truncation != "auto":
        _require_truncation(hp, truncation)
    spec0 = solve_spectrum(h, truncation)
    spec1 = solve_spectrum(hp, spec0.metadata["truncation"])

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


def _sweep_points(name: str, base_params: dict, axis: str, values: np.ndarray) -> list[dict]:
    """The builtin parameters of each grid point of `sweep_values`; a base
    parameter of the wrong type or shape, and an axis that names no
    parameter or no single entry of a list, is a ModelError."""
    merged = _builtin_params(name, base_params)
    key, dot, index = axis.partition(".")
    if key not in merged:
        raise ModelError(f"sweep axis {axis!r} is not a parameter of {name!r}")
    listed = isinstance(merged[key], (list, tuple))
    if dot and not listed:
        raise ModelError(f"sweep axis {axis!r} does not index a list parameter")
    if listed and not (index.isdecimal() and int(index) < len(merged[key])):
        raise ModelError(
            f"sweep axis {axis!r} names no entry of the list {key!r}: "
            f"sweep one of {key}.0 to {key}.{len(merged[key]) - 1}"
        )
    points = []
    for value in values:
        params = {k: (list(v) if isinstance(v, (list, tuple)) else v) for k, v in merged.items()}
        if listed:
            params[key][int(index)] = float(value)
        else:
            params[key] = float(value)
        points.append(params)
    return points


def sweep_values(
    name: str,
    base_params: dict,
    axis: str,
    values: np.ndarray,
    truncation: int | str = "auto",
) -> list[dict]:
    """Solve a builtin model along a parameter axis with label continuity.

    Returns one record per grid point with the spectrum's (eps, ebar)
    arrays reordered so that state i at one point continues state i at the
    previous point (nearest-label assignment).  A list-valued parameter is
    swept one entry at a time, by a dotted axis name such as "levels.1".
    Per-point failures are recorded and the sweep continues; a refused base
    parameter or axis (`_sweep_points`), or a fixed cutoff below any point's
    harmonic order, fails the whole sweep before any solve.
    """
    models: list[FourierHamiltonian | Exception] = []
    for params in _sweep_points(name, base_params, axis, values):
        try:
            models.append(builtin_model(name, params))
        except Exception as exc:  # per-point failure: recorded below
            models.append(exc)
    if truncation != "auto":
        for h in models:
            if isinstance(h, FourierHamiltonian):
                _require_truncation(h, truncation)
    records: list[dict] = []
    previous: Spectrum | None = None
    for value, h in zip(values, models):
        try:
            if isinstance(h, Exception):
                raise h
            spectrum = solve_spectrum(h, truncation)
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
