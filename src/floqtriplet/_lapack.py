"""The LAPACK routines the package calls, from numpy's OpenBLAS.

They are the Sambe eigensolver's (`dsytrd` / `zhetrd`, `dstevd`, `dormqr` /
`zunmqr`), the oracle's Schur form (`zgees`) and the trust region's
(`dpotrf`, `dpotrs`, `dtrtrs`).  The sector detector's null spaces and the
trust region's norms come from numpy itself.

numpy's wheels (numpy >= 2) link an ILP64 OpenBLAS whose LAPACKE entry
points are exported as `scipy_LAPACKE_<name>_work64_`; dlsym on numpy's own
`_umath_linalg` extension finds them among its dependencies.  `lapack`
binds them through ctypes, every integer an int64, so a process holds one
BLAS/LAPACK library and never maps scipy's second copy.  Each routine
takes the call signature of scipy's f2py wrapper of the same name, as the
package calls it, and returns what that wrapper returns: it copies every
array it writes, as the wrapper does with `overwrite_*` false, passes
arrays Fortran-ordered with their own leading dimension, sizes the
workspaces the package leaves to the wrapper as the wrapper does, and
calls the LAPACKE `_work` variant, which runs the Fortran routine
directly, as f2py does.  The results are the same bit for bit
(tests/test_lapack.py).

When numpy's extension or one of those symbols cannot be had (numpy 1.x,
an MKL or conda build, Windows), `lapack` is `scipy.linalg.lapack`, and
only then is scipy imported.  A cold process then pays for the whole
`scipy.linalg` package: importing this module takes about 0.22 s there and
peaks at 56 MB of RSS (README, "Library quick start").  `lapack` is bound
with this module.  The Sambe eigensolver, the oracle and the trust region
read their routines from it at each call, so rebinding it there reaches
their path.
"""

import ctypes
import functools
import types

import numpy as np

LAPACK = ("dsytrd", "dsytrd_lwork", "zhetrd", "zhetrd_lwork", "dstevd", "dormqr", "zunmqr",
          "zgees", "dpotrf", "dpotrs", "dtrtrs")

# --- numpy's OpenBLAS -------------------------------------------------------

_COL_MAJOR = 102  # LAPACK_COL_MAJOR, the layout argument of every LAPACKE call
_C, _I, _P = ctypes.c_char, ctypes.c_int64, ctypes.POINTER(ctypes.c_byte)
_buffer = ctypes.c_byte.from_buffer

# the arguments of the LAPACKE `_work` entry points after the layout: c a
# char, i an int64, p an array (or NULL); each returns an int64 info
_SIGNATURES = {
    "dsytrd": "cipippppi",
    "zhetrd": "cipippppi",
    "dstevd": "cipppipipi",
    "dormqr": "cciiipippipi",
    "zunmqr": "cciiipippipi",
    "zgees": "ccpipipppipipp",
    "dpotrf": "cipi",
    "dpotrs": "ciipipi",
    "dtrtrs": "ccciipipi",
}
_CODES = {"c": _C, "i": _I, "p": _P}


def _ref(a):
    """The array argument for the C-contiguous a (a Fortran-ordered array
    is passed as a.T, the same bytes): a pointer to its first byte, or NULL
    for an empty a, which LAPACK never reads."""
    try:
        return _buffer(a)
    except ValueError:  # no bytes to point at
        return None


def _info(info: int) -> int:
    """LAPACK's info from LAPACKE's, which counts the layout argument."""
    return info + (info < 0)


def _square(a) -> int:
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return n


@functools.lru_cache(maxsize=8)
def _strict_triangle(n: int, lower: bool) -> np.ndarray:
    """Mask of the strictly lower (or, lower false, upper) triangle of n x n."""
    mask = np.tri(n, k=-1, dtype=bool)
    return mask if lower else mask.T


class _OpenBLAS:
    """numpy's LAPACKE routines, each with the call signature of scipy's
    f2py wrapper of that name as the package calls it.  Every array argument
    the routine writes is a copy, as with `overwrite_*` false."""

    def __init__(self, library: ctypes.CDLL):
        for name, codes in _SIGNATURES.items():
            function = library[f"scipy_LAPACKE_{name}_work64_"]  # AttributeError when absent
            function.restype = _I
            function.argtypes = (ctypes.c_int,) + tuple(_CODES[code] for code in codes)
            setattr(self, "_" + name, function)

    # the tridiagonal reduction, its workspace query and the eigensolve

    @staticmethod
    def _trd(function, dtype, a, lower, lwork):
        c = np.array(a, dtype, order="F")
        lda, n = c.shape
        d, e, tau = np.zeros(n), np.zeros(max(n - 1, 0)), np.zeros(max(n - 1, 0), dtype)
        info = function(_COL_MAJOR, b"L" if lower else b"U", n, _ref(c.T), lda, _ref(d), _ref(e),
                        _ref(tau), _ref(np.empty(max(lwork, 1), dtype)), lwork)
        return c, d, e, tau, _info(info)

    def dsytrd(self, a, lower, lwork):
        return self._trd(self._dsytrd, np.float64, a, lower, lwork)

    def zhetrd(self, a, lower, lwork):
        return self._trd(self._zhetrd, np.complex128, a, lower, lwork)

    @staticmethod
    def _trd_lwork(function, dtype, n, lower):
        work = np.zeros(1, dtype)
        info = function(_COL_MAJOR, b"L" if lower else b"U", n, None, n or 1, None, None, None,
                        _ref(work), -1)
        return work[0].item(), _info(info)

    def dsytrd_lwork(self, n, lower=0):
        return self._trd_lwork(self._dsytrd, np.float64, n, lower)

    def zhetrd_lwork(self, n, lower=0):
        return self._trd_lwork(self._zhetrd, np.complex128, n, lower)

    def dstevd(self, d, e):
        vals, e = np.array(d, np.float64), np.array(e, np.float64)
        n = vals.size
        if vals.ndim != 1 or e.ndim != 1 or e.size < max(n - 1, 1):
            raise ValueError(f"dstevd needs d of n and e of max(n - 1, 1) entries, got "
                             f"{vals.shape} and {e.shape}")
        z = np.zeros((n, n), order="F")
        lwork, liwork = 1 + 4 * n + n * n, 3 + 5 * n  # the wrapper's workspace
        info = self._dstevd(_COL_MAJOR, b"V", n, _ref(vals), _ref(e), _ref(z.T), n or 1,
                            _ref(np.empty(lwork)), lwork, _ref(np.empty(liwork, np.int64)),
                            liwork)
        return vals, z, _info(info)

    # the Householder back-transformation

    @staticmethod
    def _mqr(function, dtype, side, trans, a, tau, c, lwork):
        a, tau = np.asarray(a, dtype, order="F"), np.ascontiguousarray(tau, dtype)
        cq = np.array(c, dtype, order="F")
        (m, n), (lda, k) = cq.shape, a.shape
        if tau.size < k:
            raise ValueError(f"tau has {tau.size} entries, a has {k} reflectors")
        work = np.zeros(max(lwork, 1), dtype)
        info = function(_COL_MAJOR, side.encode(), trans.encode(), m, n, k, _ref(a.T), lda,
                        _ref(tau), _ref(cq.T), m, _ref(work), lwork)
        return cq, work, _info(info)

    def dormqr(self, side, trans, a, tau, c, lwork):
        return self._mqr(self._dormqr, np.float64, side, trans, a, tau, c, lwork)

    def zunmqr(self, side, trans, a, tau, c, lwork):
        return self._mqr(self._zunmqr, np.complex128, side, trans, a, tau, c, lwork)

    # the complex Schur form

    def zgees(self, select, a, lwork, overwrite_a=0, sort_t=0):
        """Unsorted only: select is never called, and passed as NULL."""
        if sort_t:
            raise ValueError("only an unsorted Schur form (sort_t=0) is bound")
        t = np.array(a, np.complex128, order="F")
        n = _square(t)
        sdim, w, vs = np.zeros(1, np.int64), np.zeros(n, np.complex128), np.zeros_like(t)
        work = np.zeros(max(lwork, 1), np.complex128)
        info = self._zgees(_COL_MAJOR, b"V", b"N", None, n, _ref(t.T), n or 1, _ref(sdim),
                           _ref(w), _ref(vs.T), n or 1, _ref(work), lwork,
                           _ref(np.empty(n)), None)
        return t, int(sdim[0]), w, vs, work, _info(info)

    # the Cholesky factor and triangular solves of the trust region

    def dpotrf(self, a, lower=0, clean=1, overwrite_a=0):
        c = np.array(a, np.float64, order="F")
        n = _square(c)
        info = self._dpotrf(_COL_MAJOR, b"L" if lower else b"U", n, _ref(c.T), n or 1)
        if clean:  # zero the triangle the factor does not occupy
            c[_strict_triangle(n, not lower)] = 0.0
        return c, _info(info)

    def dpotrs(self, c, b, lower=0):
        c = np.asarray(c, np.float64, order="F")
        x = np.array(b, np.float64, order="F")
        n = _square(c)
        if x.shape[0] != n:
            raise ValueError(f"b has {x.shape[0]} rows, c is {n} x {n}")
        info = self._dpotrs(_COL_MAJOR, b"L" if lower else b"U", n, x.size // (n or 1),
                            _ref(c.T), n or 1, _ref(x.T), n or 1)
        return x, _info(info)

    def dtrtrs(self, a, b, lower=0, trans=0):
        a = np.asarray(a, np.float64, order="F")
        x = np.array(b, np.float64, order="F")
        n = _square(a)
        if x.shape[0] != n:
            raise ValueError(f"b has {x.shape[0]} rows, a is {n} x {n}")
        info = self._dtrtrs(_COL_MAJOR, b"L" if lower else b"U", b"NTC"[trans : trans + 1], b"N",
                            n, x.size // (n or 1), _ref(a.T), n or 1, _ref(x.T), n or 1)
        return x, _info(info)


def _openblas():
    """The routines bound to numpy's OpenBLAS, or None when numpy's
    extension or one of the symbols cannot be had."""
    try:
        from numpy.linalg import _umath_linalg

        return _OpenBLAS(ctypes.CDLL(_umath_linalg.__file__))
    except (ImportError, OSError, AttributeError):
        return None


# --- the provider ------------------------------------------------------------

_OPENBLAS = _openblas()
if _OPENBLAS is not None:
    lapack = types.SimpleNamespace(**{name: getattr(_OPENBLAS, name) for name in LAPACK})
else:
    from scipy.linalg import lapack
