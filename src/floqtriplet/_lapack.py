"""scipy's LAPACK and BLAS wrappers, loaded without the scipy.linalg package.

The package calls a few raw routines, yet `import scipy.linalg` runs the
whole package's __init__, most of a cold start.  `lapack` and `blas` are
scipy's f2py extension modules `_flapack` and `_fblas`, loaded from their
files in scipy's linalg directory, so that __init__ never runs; their
routines are the very objects `scipy.linalg.lapack` and `scipy.linalg.blas`
hand out.  When a file or a routine is missing, or an ILP64 build
(`_flapack_64`, which `get_*_funcs(..., ilp64="preferred")` would pick)
sits beside them, `lapack` and `blas` are `scipy.linalg.lapack` and
`scipy.linalg.blas` themselves: an unknown layout costs the slower import,
never a result.  Every routine called is the LP64 one.  The Sambe
eigensolver and the sector detector read theirs from `lapack` at each call,
so rebinding it there reaches their path.
"""

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

LAPACK = ("dsytrd", "dsytrd_lwork", "zhetrd", "zhetrd_lwork", "dstevd", "dormqr", "zunmqr",
          "dgeqp3", "zgeqp3", "dorgqr", "zungqr", "zgees", "dlange", "dpotrf", "dpotrs", "dtrtrs")
BLAS = ("dnrm2",)


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


def load(directory: Path):
    """(lapack, blas): the extension modules in directory, or scipy.linalg's."""
    try:
        return _extension(directory, "_flapack", LAPACK), _extension(directory, "_fblas", BLAS)
    except ImportError:
        from scipy.linalg import blas, lapack

        return lapack, blas


# scipy's package directory, found without running scipy's own __init__
lapack, blas = load(Path(importlib.util.find_spec("scipy").origin).parent / "linalg")
