"""The LAPACK and BLAS routines the package calls, from numpy's OpenBLAS.

numpy's wheels (numpy >= 2) link an ILP64 OpenBLAS whose LAPACKE and CBLAS
entry points are exported as `scipy_LAPACKE_<name>_work64_` and
`scipy_cblas_<name>64_`; dlsym on numpy's own `_umath_linalg` extension
finds them among its dependencies.  `lapack` and `blas` bind them through
ctypes, every integer an int64, so a process holds one BLAS/LAPACK library
and never maps scipy's second copy.  Each routine takes the call
signature of scipy's f2py wrapper of the same name, as the package calls
it, and returns what that wrapper returns: it copies every array it
writes, as the wrapper does with `overwrite_*` false, passes arrays
Fortran-ordered with their own leading dimension, sizes the workspaces the
package leaves to the wrapper as the wrapper does, and calls the LAPACKE
`_work` variant, which runs the Fortran routine directly, as f2py does.
The results are the same bit for bit (tests/test_lapack.py).

When numpy's extension or one of those symbols cannot be had (numpy 1.x,
an MKL or conda build, Windows), `lapack` and `blas` are scipy's f2py
extension modules `_flapack` and `_fblas`, loaded from their files in
scipy's linalg directory so that the scipy.linalg package's __init__, most
of a cold start, never runs.  When such a file or a routine is missing, or
an ILP64 build (`_flapack_64`) sits beside it, they are
`scipy.linalg.lapack` and `scipy.linalg.blas` themselves: an unknown layout
costs the slower import, never a result.  Only this fallback imports
scipy.  The Sambe eigensolver and the sector detector read their routines
from `lapack` at each call, so rebinding it there reaches their path.

`lapack` resolves with this module, `blas` on first access (PEP 562): only
the variational route calls a BLAS routine.
"""

import ctypes
import functools
import importlib
import importlib.machinery
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np

LAPACK = ("dsytrd", "dsytrd_lwork", "zhetrd", "zhetrd_lwork", "dstevd", "dormqr", "zunmqr",
          "dgeqp3", "zgeqp3", "dorgqr", "zungqr", "zgees", "dlange", "dpotrf", "dpotrs", "dtrtrs")
BLAS = ("dnrm2",)

# --- numpy's OpenBLAS -------------------------------------------------------

_COL_MAJOR = 102  # LAPACK_COL_MAJOR, the layout argument of every LAPACKE call
_C, _I, _P = ctypes.c_char, ctypes.c_int64, ctypes.POINTER(ctypes.c_byte)
_buffer = ctypes.c_byte.from_buffer

# the LAPACKE `_work` (CBLAS for dnrm2) entry points: result type, then
# arguments, after the layout: c a char, i an int64, p an array (or NULL)
_SIGNATURES = {
    "dsytrd": (_I, "cipippppi"),
    "zhetrd": (_I, "cipippppi"),
    "dstevd": (_I, "cipppipipi"),
    "dormqr": (_I, "cciiipippipi"),
    "zunmqr": (_I, "cciiipippipi"),
    "dgeqp3": (_I, "iipipppi"),
    "zgeqp3": (_I, "iipipppip"),
    "dorgqr": (_I, "iiipippi"),
    "zungqr": (_I, "iiipippi"),
    "zgees": (_I, "ccpipipppipipp"),
    "dlange": (ctypes.c_double, "ciipip"),
    "dpotrf": (_I, "cipi"),
    "dpotrs": (_I, "ciipipi"),
    "dtrtrs": (_I, "ccciipipi"),
    "dnrm2": (ctypes.c_double, "ipi"),
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
    """numpy's LAPACKE and CBLAS routines, each with the call signature of
    scipy's f2py wrapper of that name as the package calls it.  Every array
    argument the routine writes is a copy, as with `overwrite_*` false."""

    def __init__(self, library: ctypes.CDLL):
        for name, (restype, codes) in _SIGNATURES.items():
            prefix = "scipy_cblas_" if name in BLAS else "scipy_LAPACKE_"
            suffix = "64_" if name in BLAS else "_work64_"
            function = library[prefix + name + suffix]  # AttributeError when absent
            function.restype = restype
            layout = () if name in BLAS else (ctypes.c_int,)
            function.argtypes = layout + tuple(_CODES[code] for code in codes)
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

    # Householder products: apply, QR with column pivots, form Q

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

    @staticmethod
    def _geqp3(function, dtype, a, *rwork):
        qr = np.array(a, dtype, order="F")
        m, n = qr.shape
        jpvt, tau = np.zeros(n, np.int64), np.zeros(min(m, n), dtype)
        # the wrapper's workspace, which sets the block size: its result
        lwork = 3 * (n + 1)
        work = np.zeros(lwork, dtype)
        info = function(_COL_MAJOR, m, n, _ref(qr.T), m or 1, _ref(jpvt), _ref(tau), _ref(work),
                        lwork, *rwork)
        return qr, jpvt.astype(np.int32), tau, work, _info(info)

    def dgeqp3(self, a):
        return self._geqp3(self._dgeqp3, np.float64, a)

    def zgeqp3(self, a):
        return self._geqp3(self._zgeqp3, np.complex128, a, _ref(np.empty(2 * np.shape(a)[1])))

    @staticmethod
    def _gqr(function, dtype, a, tau):
        q, tau = np.array(a, dtype, order="F"), np.ascontiguousarray(tau, dtype)
        m, n = q.shape
        lwork = max(3 * n, 1)  # the wrapper's workspace, which sets the block size
        work = np.zeros(lwork, dtype)
        info = function(_COL_MAJOR, m, n, tau.size, _ref(q.T), m or 1, _ref(tau), _ref(work),
                        lwork)
        return q, work, _info(info)

    def dorgqr(self, a, tau):
        return self._gqr(self._dorgqr, np.float64, a, tau)

    def zungqr(self, a, tau):
        return self._gqr(self._zungqr, np.complex128, a, tau)

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

    # norms, the Cholesky factor and triangular solves of the trust region

    def dlange(self, norm, a):
        a = np.asarray(a, np.float64, order="F")
        m, n = a.shape
        work = _ref(np.empty(m)) if norm in "Ii" else None  # only the infinity norm uses it
        return self._dlange(_COL_MAJOR, norm.encode(), m, n, _ref(a.T), m or 1, work)

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

    def dnrm2(self, x):
        x = np.ascontiguousarray(x, np.float64)
        return self._dnrm2(x.size, _ref(x), 1)


def _openblas():
    """The routines bound to numpy's OpenBLAS, or None when numpy's
    extension or one of the symbols cannot be had."""
    try:
        from numpy.linalg import _umath_linalg

        return _OpenBLAS(ctypes.CDLL(_umath_linalg.__file__))
    except (ImportError, OSError, AttributeError):
        return None


# --- the fallback: scipy's f2py extension modules ---------------------------

def _extension(directory: Path, name: str, routines: tuple[str, ...]):
    """The extension module `name` from its file in directory, holding every
    routine; ImportError when that cannot be had."""
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    if any((directory / f"{name}_64{suffix}").is_file() for suffix in suffixes):
        raise ImportError(f"an ILP64 build {name}_64 is present in {directory}")
    paths = [directory / (name + suffix) for suffix in suffixes]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"no {name} extension in {directory}")
    spec = importlib.util.spec_from_file_location(f"scipy.linalg.{name}", path)
    registered = spec.name in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not registered:
        # an f2py module enters itself in sys.modules, where a later import of
        # scipy.linalg would take it without binding it to the package
        sys.modules.pop(spec.name, None)
    if not all(hasattr(module, routine) for routine in routines):
        raise ImportError(f"{path} lacks a routine of {routines}")
    return module


def _linalg_directory() -> Path:
    """scipy's linalg directory, found without running scipy's own __init__."""
    return Path(importlib.util.find_spec("scipy").origin).parent / "linalg"


def _resolve(directory: Path, name: str, routines: tuple[str, ...], wrapper: str):
    """The extension module `name` in directory, or the scipy.linalg module
    `wrapper` when it cannot be had."""
    try:
        return _extension(directory, name, routines)
    except ImportError:
        return importlib.import_module(wrapper)


_OPENBLAS = _openblas()
if _OPENBLAS is not None:
    lapack = types.SimpleNamespace(**{name: getattr(_OPENBLAS, name) for name in LAPACK})
else:
    lapack = _resolve(_linalg_directory(), "_flapack", LAPACK, "scipy.linalg.lapack")


def __getattr__(name: str):
    if name == "blas":
        global blas
        if _OPENBLAS is not None:
            blas = types.SimpleNamespace(dnrm2=_OPENBLAS.dnrm2)
        else:
            blas = _resolve(_linalg_directory(), "_fblas", BLAS, "scipy.linalg.blas")
        return blas
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
