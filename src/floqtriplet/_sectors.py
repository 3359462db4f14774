"""Exact symmetry sectors of the extended-space (Sambe) matrix, found from
the harmonics alone.

A split is an orthonormal basis v_1..v_d of the instantaneous space with
two labels per basis vector, one for the even and one for the odd
harmonics: the Sambe basis vector (p, v_i) lies in sector
labels[p % 2][i], and no entry of S couples two sectors.  Two kinds of
symmetry give one:

- static (on the ring, the reflection j -> -j): a Hermitian X with
  X H_m = H_m X for every m.  Its eigenspaces are invariant under every
  H_m, so each is a sector on every harmonic.
- half-period (on the ring, (-1)^m times the translation by d/2 sites): a
  Hermitian G with G H_m = (-1)^m H_m G.  H_m maps G's mu-eigenspace to its
  (-1)^m mu one, so G = mu on even harmonics and G = -mu on odd ones is a
  sector.

X and G are null vectors of linear maps, found without knowing the model
(the commutant approach of Murota, Kanno, Kojima & Kojima, Japan J. Indust.
Appl. Math. 27, 125 (2010)):

1. Z = H_0 + sum_{m>0} r_m (H_m + H_m^H), plus r'_m i (H_m - H_m^H) for a
   complex model, is a random element of the algebra the H_m generate, so
   X is block-diagonal on the clusters of Z's eigenvalues.  Eigenvalues
   within MERGE * max|eig| share a cluster, because rounding mixes their
   eigenvectors; two lone eigenvectors that some H_m couples carry one
   value of X.
2. The equations H_m X - X H_m = 0 for every stored m are sketched by
   random bilinear forms l^T (...) r, a few more than the unknowns; the
   null space is the orthogonal complement of the sketch's rows (the right
   singular vectors of its SVD past its rank).  The eigenspaces of a random
   Hermitian X from it, less the identity, are the static sectors.
3. Inside each static sector, Z_f (Z with its odd terms negated) is
   G Z G^-1, so G maps Z's eigenvectors to Z_f's of the same eigenvalue:
   block-diagonal between the two bases on the clusters of both spectra.
   The same sketch, with the signs (-1)^m, gives G; its eigenvectors are
   labelled by the clusters of (x_i, g_i) on even harmonics and of
   (x_i, -g_i) on odd ones.

The random numbers come from one fixed seed, so a model's sectors are
deterministic, and a real model stays in real arithmetic (the model's
`_arithmetic_harmonics`), so its blocks are real.  The sectors are numbered
by ascending [even, odd] dimensions, so their order does not depend on the
sketches.  A split is kept only if every off-sector entry of V^H H_m V is
at most COUPLING_TOL times the norm of the harmonics.  This module only
finds the split; `sambe` solves S, one block per sector when there is one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FourierHamiltonian
from .sambe import SolverError

# Eigenvalues of Z (and of X and G) closer than MERGE times the largest
# magnitude share a cluster.
MERGE = 1e-3

# Relative size below which a singular value of a sketch, a coupling of two
# eigenvectors of Z by the harmonics, or X less its identity part counts as
# zero.
RANK_TOL = 1e-8

# Largest off-sector entry of V^H H_m V, relative to the norm of the stacked
# harmonics, that a split accepts: rounding level.
COUPLING_TOL = 1e-13

# A null-space solve with more than MAX_UNKNOWNS * d unknowns (Z's spectrum
# too degenerate to narrow X down) is not started: that stage finds nothing.
MAX_UNKNOWNS = 4

SEED = 2010


@dataclass(frozen=True, eq=False)
class Sectors:
    """The sectors of one model.  coupling is the largest relative
    off-sector entry measured (0.0 for a single sector); the other fields
    are None unless the split is kept: basis holds v_1..v_d as columns,
    labels[parity][i] is the sector of v_i on even (0) and odd (1)
    harmonics, and rotated is the model with the harmonics V^H H_m V."""

    coupling: float
    basis: np.ndarray | None = None
    labels: np.ndarray | None = None
    rotated: FourierHamiltonian | None = None

    @property
    def dims(self) -> list[list[int]] | None:
        """[even-harmonic, odd-harmonic] dimension of each sector; None
        without a split."""
        if self.labels is None:
            return None
        count = int(self.labels.max()) + 1
        return np.stack([np.bincount(row, minlength=count) for row in self.labels], axis=1).tolist()


def _clusters(values: np.ndarray, tol: float) -> np.ndarray:
    """Cluster index of each value: sorted neighbours within tol join."""
    order = np.argsort(values, kind="stable")
    ids = np.empty(values.size, dtype=int)
    ids[order] = np.cumsum(np.append(0, np.diff(values[order]) > tol))
    return ids


def _null_solution(left, right, signs, rows, cols, rng, tied=None) -> np.ndarray | None:
    """A random Y with Y[i, j] = 0 off (rows, cols) and sign_m L_m Y =
    Y R_m for every m (the stacks left and right), or None when only Y = 0
    solves; the unknowns Y[rows, cols] with one value of tied are held
    equal.  Row k of the sketch is sum_m l_mk^T (sign_m L_m Y - Y R_m) r_k
    as a function of the unknowns; the singular values of the sketch rank
    it, and its right singular vectors past the rank span the null space."""
    d = left.shape[1]
    if not rows.size:
        return None
    unknowns = rows.size if tied is None else int(tied.max()) + 1
    count = unknowns + 8
    l, r = rng.random((len(left), count, d)) - 0.5, rng.random((count, d)) - 0.5
    a = ((signs[:, None, None] * l) @ left).sum(axis=0)  # rows sum_m sign_m l_m^T L_m
    b = r @ np.swapaxes(right, 1, 2)  # b[m, k] = (R_m r_k)^T
    # row k is a_k r_k^T - sum_m l_mk b_mk^T, read at (rows, cols)
    first = a[:, rows] * r[:, cols]
    second = (l[:, :, rows] * b[:, :, cols]).sum(axis=0)
    coef, size = first - second, np.abs(first) + np.abs(second)
    if tied is not None:
        merge = tied[:, None] == np.arange(unknowns)
        coef, size = coef @ merge, size @ merge
    size = np.sqrt(unknowns) * size.max()
    try:
        _, singular, vh = np.linalg.svd(coef)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"sector detection failed: {exc}") from exc
    rank = int(np.count_nonzero(singular > RANK_TOL * size))
    if rank == unknowns:
        return None
    values = vh[rank:].conj().T @ rng.standard_normal(unknowns - rank)
    y = np.zeros((d, d), dtype=vh.dtype)
    y[rows, cols] = values if tied is None else values[tied]
    return y


def _hermitian(y):
    """The larger Hermitian part of y: y + y^H, or i (y - y^H) when y is
    complex, whose null-vector phase can leave the first one small."""
    parts = [y + y.conj().T] + ([1j * (y - y.conj().T)] if np.iscomplexobj(y) else [])
    return max(parts, key=np.linalg.norm)


def _block_eigh(inner, sizes):
    """Eigenvalues of the diagonal blocks of inner on consecutive runs of
    the given sizes, and their eigenvectors as one block-diagonal rotation."""
    values, rotation = inner.diagonal().real.copy(), np.eye(len(inner), dtype=inner.dtype)
    starts = np.cumsum(sizes) - sizes
    for size in set(sizes.tolist()) - {1}:
        idx = starts[sizes == size][:, None] + np.arange(size)
        rows, cols = idx[:, :, None], idx[:, None, :]
        values[idx], rotation[rows, cols] = np.linalg.eigh(inner[rows, cols])
    return values, rotation


def find(h: FourierHamiltonian) -> Sectors:
    """The exact symmetry sectors of the Sambe matrix of h (see the module
    docstring), or Sectors(coupling) when S is not split."""
    if set(h.harmonics) <= {0}:
        return Sectors(0.0)  # no drive: S is already block-diagonal in the harmonics
    d, ms = h.dim, np.array(list(h.harmonics))
    mats = np.array(list(h._arithmetic_harmonics.values()))
    real = np.isrealobj(mats)
    # through a power-of-two scale, which is exact: the norm of entries all
    # below about 1e-154 underflows to 0 unscaled
    scale = 2.0 ** np.frexp(np.abs(mats).max())[1]
    norm = scale * np.linalg.norm(mats / scale)
    rng = np.random.default_rng(SEED)

    z = np.zeros((2, d, d), dtype=mats.dtype)  # Z and Z_f
    for m, mat in zip(ms, mats):
        if m < 0:
            continue
        parts = [mat] if m == 0 else [mat + mat.conj().T] + ([] if real else [1j * (mat - mat.conj().T)])
        for part in parts:
            weight = rng.uniform(0.5, 1.5) / (np.linalg.norm(part) or 1.0)
            z += weight * np.array([1, (-1) ** m])[:, None, None] * part

    # static sectors: X is block-diagonal on Z's clusters, and so are its
    # eigenvectors there
    values, basis = np.linalg.eigh(z[0])
    tol = MERGE * np.abs(values).max()
    cluster = _clusters(values, tol)
    hat = basis.conj().T @ mats @ basis
    # X is equal on two lone eigenvectors that some H_m couples: each run of
    # such couplings is one unknown
    single = np.bincount(cluster)[cluster] == 1
    strong = (np.abs(hat).max(axis=0) > RANK_TOL * norm) & single & single[:, None]
    root = np.arange(d)  # the smallest index of each run, by propagation
    while True:
        joined = np.minimum(root, np.where(strong, root, d).min(axis=1))
        if np.array_equal(joined[joined], root):
            break
        root = joined[joined]
    rows, cols = np.nonzero(cluster[:, None] == cluster)
    tied = np.unique(np.where((rows == cols) & single[rows], root[rows], d + np.arange(rows.size)),
                     return_inverse=True)[1]
    x = np.zeros((d, d), dtype=mats.dtype)
    if tied.max() < MAX_UNKNOWNS * d:
        found = _null_solution(hat, hat, np.ones(ms.size), rows, cols, rng, tied)
        if found is not None:
            # less the identity, which commutes with everything
            x = _hermitian(found - np.trace(found) / d * np.eye(d))
            if not np.linalg.norm(x) > RANK_TOL * np.linalg.norm(found):
                x[:] = 0  # the identity alone: no static split
    xs, rotation = _block_eigh(x, np.bincount(cluster))
    static = _clusters(xs, MERGE * np.abs(xs).max())
    order = np.argsort(static, kind="stable")
    basis, static = (basis @ rotation)[:, order], static[order]

    # half-period sectors inside each static one: G maps the eigenvectors of
    # Z there (the basis) to those of Z_f at the same eigenvalue
    hat = basis.conj().T @ mats @ basis
    zs = np.einsum("ij,ij->j", basis.conj(), z[0] @ basis).real
    zf = basis.conj().T @ z[1] @ basis
    signs = (-1.0) ** ms
    gs, rotation = np.zeros(d), np.eye(d, dtype=basis.dtype)
    sizes = np.bincount(static)
    for start, size in zip(np.cumsum(sizes) - sizes, sizes):
        sector = slice(start, start + size)
        fvalues, fbasis = np.linalg.eigh(zf[sector, sector])
        ids = _clusters(np.concatenate([fvalues, zs[sector]]), tol)
        rows, cols = np.nonzero(ids[:size, None] == ids[size:])  # rows in Z_f's basis
        if not rows.size <= MAX_UNKNOWNS * size:
            continue
        sub = hat[:, sector, sector]
        found = _null_solution(fbasis.conj().T @ sub @ fbasis, sub, signs, rows, cols, rng)
        if found is not None:
            gs[sector], rotation[sector, sector] = np.linalg.eigh(_hermitian(fbasis @ found))
            gs[sector] /= np.abs(gs[sector]).max() or 1.0
    basis = basis @ rotation
    keys = np.tile(static, 2) * 2 * d + _clusters(np.concatenate([gs, -gs]), MERGE)
    labels = np.unique(keys, return_inverse=True)[1].reshape(2, d)
    if labels.max() == 0:
        return Sectors(0.0)
    # sectors numbered by ascending [even, odd] dims, so that their order
    # does not hang on the random sketches; equal dims keep their order
    dims = [np.bincount(row, minlength=labels.max() + 1) for row in labels]
    order = np.lexsort(dims[::-1])
    labels = np.argsort(order)[labels]

    hat = basis.conj().T @ mats @ basis
    parity = (np.arange(2)[:, None] + ms) % 2  # of the row harmonic, per column parity and m
    off = labels[parity][:, :, :, None] != labels[:, None, None, :]
    coupling = float(np.abs(np.where(off, hat, 0.0)).max() / norm)
    if not coupling <= COUPLING_TOL:
        return Sectors(coupling)
    harmonics = {int(m): mat for m, mat in zip(ms, hat) if m >= 0}  # the constructor adds m < 0
    if 0 in harmonics:
        harmonics[0] = 0.5 * (harmonics[0] + harmonics[0].conj().T)
    rotated = FourierHamiltonian(d, h.omega, harmonics)
    rotated.__dict__["_spectral_reach"] = h._spectral_reach  # V is unitary: the model's own
    return Sectors(coupling, basis, labels, rotated)
