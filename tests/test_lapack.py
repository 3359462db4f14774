"""The routines `_lapack` binds in numpy's OpenBLAS give what scipy's f2py
wrappers give, bit for bit.

Every routine of `_lapack.LAPACK` is called through both on the same
inputs, and every output and `info` must be `np.array_equal`.
The reflectors `dormqr` and `zunmqr` apply are those of scipy's own QR with
column pivots, which the package no longer binds: the sector detector takes
its null spaces from numpy's SVD.
Skipped where numpy links no OpenBLAS with these symbols: there `_lapack`
takes scipy's modules themselves.
"""

import numpy as np
import pytest

import floqtriplet as ft
from floqtriplet import _lapack, sambe

from conftest import random_complex_model

pytestmark = pytest.mark.skipif(
    _lapack._OPENBLAS is None, reason="numpy links no OpenBLAS with LAPACKE symbols"
)

SIZES = (1, 2, 7, 64)


@pytest.fixture(scope="module")
def scipy_routines():
    """scipy's f2py wrappers, `scipy.linalg.lapack`, which the fallback takes."""
    import scipy.linalg.lapack

    return scipy.linalg.lapack


def assert_same(ours, theirs):
    ours, theirs = (x if isinstance(x, tuple) else (x,) for x in (ours, theirs))
    assert len(ours) == len(theirs)
    for i, (a, b) in enumerate(zip(ours, theirs)):
        assert np.array_equal(a, b), f"output {i} differs"


def strided(a):
    """a as a non-contiguous view of a larger array (every other row and
    column), whose neighbours a routine must not read."""
    big = np.full((2 * a.shape[0],) + tuple(2 * s for s in a.shape[1:]), np.nan, dtype=a.dtype)
    view = big[(slice(None, None, 2),) * a.ndim]
    view[...] = a
    return view


def call_both(name, scipy_routines, *args, **kwargs):
    """name called through numpy's binding and scipy's module, on args and
    on non-contiguous copies of every array argument: all four the same."""
    ours = getattr(_lapack._OPENBLAS, name)
    theirs = getattr(scipy_routines, name)
    expected = theirs(*args, **kwargs)
    kept = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    assert_same(ours(*args, **kwargs), expected)
    views = [strided(a) if isinstance(a, np.ndarray) and a.size else a for a in args]
    assert_same(ours(*views, **kwargs), expected)
    for a, b in zip(args, kept):  # inputs are copied, never written
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True)
    return expected


def hermitian(rng, n, complex_):
    a = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_ else 0)
    return a + a.conj().T


@pytest.mark.parametrize("n", (0,) + SIZES)
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_tridiagonal_reduction_and_its_eigensolve(scipy_routines, n, complex_):
    rng = np.random.default_rng(n)
    trd = "zhetrd" if complex_ else "dsytrd"
    for lower in (0, 1):
        (lwork, _) = call_both(trd + "_lwork", scipy_routines, n, lower=lower)
    if not n:  # the workspace query alone
        return
    for lower in (0, 1):
        _, d, e, _, _ = call_both(trd, scipy_routines, hermitian(rng, n, complex_), lower=lower,
                                  lwork=int(lwork.real))
    call_both("dstevd", scipy_routines, d, e if n > 1 else np.zeros(1))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_householder_routines(scipy_routines, n, complex_):
    rng = np.random.default_rng(100 + n)
    dtype = complex if complex_ else float
    geqp3, mqr = ("zgeqp3", "zunmqr") if complex_ else ("dgeqp3", "dormqr")
    a = rng.standard_normal((n + 3, n)).astype(dtype)
    if complex_:
        a += 1j * rng.standard_normal(a.shape)
    # the reflectors of a QR with column pivots, from the reference
    qr, _, tau, _, _ = getattr(scipy_routines, geqp3)(a)
    c = rng.standard_normal((n + 3, 5)).astype(dtype)
    for trans in ("N", "C" if complex_ else "T"):
        (_, work, _) = call_both(mqr, scipy_routines, "L", trans, qr, tau, c, -1)
        call_both(mqr, scipy_routines, "L", trans, qr, tau, c, int(work[0].real))
    # a workspace below the minimum: the same negative info (argument 12)
    assert call_both(mqr, scipy_routines, "L", "N", qr, tau, c, 1)[-1] == -12


@pytest.mark.parametrize("n", SIZES)
def test_complex_schur_of_a_unitary_matrix(scipy_routines, n):
    rng = np.random.default_rng(200 + n)
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    work = call_both("zgees", scipy_routines, lambda x: None, u, lwork=-1)[-2]
    call_both("zgees", scipy_routines, lambda x: None, u, lwork=int(work[0].real), overwrite_a=0,
              sort_t=0)


@pytest.mark.parametrize("n", SIZES)
def test_trust_region_routines(scipy_routines, n):
    rng = np.random.default_rng(300 + n)
    a = rng.standard_normal((n, n))
    definite = a @ a.T + n * np.eye(n)
    indefinite = a + a.T - 2 * n * np.eye(n)  # a nonzero info
    for matrix in (definite, indefinite):
        for lower in (False, True):
            _, info = call_both("dpotrf", scipy_routines, matrix, lower=lower, overwrite_a=False,
                                clean=True)
    assert info > 0
    u, _ = call_both("dpotrf", scipy_routines, definite, lower=False, overwrite_a=False, clean=True)
    b = rng.standard_normal(n)
    call_both("dpotrs", scipy_routines, u, b, lower=False)
    for trans in (0, 1, 2):
        for lower in (0, 1):
            call_both("dtrtrs", scipy_routines, u if not lower else u.T.copy(), b, lower=lower,
                      trans=trans)


@pytest.mark.parametrize("window", [None, (-1.0, 1.0), (1e6, 2e6)], ids=["full", "window", "empty"])
def test_eigh_is_the_same_through_either_provider(monkeypatch, scipy_routines, window):
    matrices = [ft.build_sambe(ft.builtin_model("driven_ring"), 3),
                ft.build_sambe(random_complex_model(12, 7), 3)]
    ours = [sambe._eigh(s, window) for s in matrices]
    monkeypatch.setattr(_lapack, "lapack", scipy_routines)
    theirs = [sambe._eigh(s, window) for s in matrices]
    for (vals, vecs), (tvals, tvecs) in zip(ours, theirs):
        assert np.array_equal(vals, tvals) and np.array_equal(vecs, tvecs)
        assert (vals.size == 0) == (window == (1e6, 2e6))
