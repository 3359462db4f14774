"""What importing the package and running a command loads.

`import floqtriplet` and the CLI load the model and extended-space layers
only; the oracle, variational and analysis names resolve on first access.
The import checks run in a fresh interpreter, since this test session has
loaded every layer already.  LAPACK comes from the OpenBLAS numpy links,
bound by `_lapack`, so no command imports scipy; where numpy's symbols are
missing, from `scipy.linalg.lapack`.
No command loads numpy.ma or decimal beyond what `import numpy` loads, and
a `solve` loads no numpy.random.
"""

import inspect
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import floqtriplet as ft
from floqtriplet import _lapack, oracle, sambe

from conftest import random_complex_model

SRC = Path(ft.__file__).resolve().parent.parent

# every name the package exported when it imported all of its layers, by
# the module it came from
EXPORTS = {
    "model": ("FourierHamiltonian", "ModelError", "ValidationReport", "builtin_model",
              "combine", "load_model", "model_hash", "validate"),
    "sambe": ("DegenerateGroup", "EigenTriplet", "FloquetMode", "Representative",
              "SolverError", "Spectrum", "TruncationError", "average_energy_block",
              "average_energy_functional", "average_energy_matrix",
              "assembled_average_energy", "build_energy_matrix", "build_sambe",
              "certify_truncation", "diagonalize", "group_degeneracies",
              "quasi_energy_functional", "replica_overlap", "resolve_degeneracies",
              "select_representatives", "solve_spectrum", "wrap_distance"),
    "oracle": ("MonodromyResult", "PropagationError",
               "mode_from_propagation", "oracle_spectrum", "propagate_period",
               "propagate_trajectory", "time_averaged_energy"),
    "variational": ("VariationalConfig", "VariationalResult", "minimize_excited",
                    "minimize_ground", "objective"),
    "analysis": ("TrackingReport", "TruncatedSpectrum", "degeneracy_contrast_fixture",
                 "order_and_truncate", "overlap_matrix", "perturb_and_track",
                 "truncation_convergence_curve"),
}

HEAVY = ("scipy.optimize", "scipy.integrate", "floqtriplet.oracle",
         "floqtriplet.variational", "floqtriplet.analysis")


def fresh(script: str, *args: str):
    """The JSON a fresh interpreter prints last, running script with args."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return json.loads(run.stdout.strip().splitlines()[-1])


def loaded_after(tmp_path, argv: list[str] | None, package: str = "floqtriplet") -> set[str]:
    """The modules of a fresh interpreter after `cli.main(argv)` exits 0,
    or after `import <package>` alone when argv is None."""
    script = f"import json, sys\nimport {package}\n"
    if argv is not None:
        script += "from floqtriplet import cli\nassert cli.main(json.loads(sys.argv[1])) == 0\n"
    script += "print(json.dumps(sorted(sys.modules)))\n"
    return set(fresh(script, json.dumps([*(argv or []), "--out", str(tmp_path / "o")])))


def cold_run(tmp_path, argv: list[str]) -> set[str]:
    """The modules a fresh interpreter loads for `cli.main(argv)` beyond
    those of a bare `import numpy` (numpy 1.x imports numpy.ma and
    numpy.random with it)."""
    script = ("import json, sys\nimport numpy\nbare = set(sys.modules)\n"
              "from floqtriplet import cli\n"
              "assert cli.main(json.loads(sys.argv[1])) == 0\n"
              "print(json.dumps(sorted(set(sys.modules) - bare)))\n")
    return set(fresh(script, json.dumps([*argv, "--out", str(tmp_path / "o")])))


def test_solve_loads_only_the_model_and_sambe_layers(tmp_path):
    loaded = loaded_after(tmp_path, ["solve", "--builtin", "static"])
    assert {"floqtriplet.model", "floqtriplet.sambe", "orjson"} <= loaded
    assert not loaded & set(HEAVY)


def test_import_and_compare_leave_orjson_unloaded(tmp_path):
    # orjson loads inside the JSON writer; compare writes CSV only
    assert "orjson" not in loaded_after(tmp_path, ["compare", "--builtin", "static"])
    assert "orjson" not in loaded_after(tmp_path, None)


def test_variational_loads_no_oracle(tmp_path):
    # the Newton stages are called directly, not through scipy.optimize
    loaded = loaded_after(tmp_path, ["variational", "--builtin", "static"])
    assert "floqtriplet.variational" in loaded
    assert not loaded & {"scipy.optimize", "scipy.integrate", "floqtriplet.oracle",
                         "floqtriplet.analysis"}


@pytest.mark.parametrize("argv", [
    ["compare", "--builtin", "static"],
    ["sweep", "--builtin", "static", "--sweep-param", "omega", "--sweep-start", "1",
     "--sweep-stop", "2", "--sweep-count", "2"],
    ["perturb"],
])
def test_pairing_commands_leave_scipy_optimize_unloaded(tmp_path, argv):
    # states are paired by the in-package analysis._assignment
    loaded = loaded_after(tmp_path, argv)
    assert "floqtriplet.analysis" in loaded
    assert "scipy.optimize" not in loaded


def test_compare_leaves_scipy_integrate_unloaded(tmp_path):
    # the oracle averages by the trapezoid rule in numpy
    loaded = loaded_after(tmp_path, ["compare", "--builtin", "static"])
    assert "floqtriplet.oracle" in loaded
    assert "scipy.integrate" not in loaded


@pytest.mark.skipif(_lapack._OPENBLAS is None, reason="numpy links no OpenBLAS with LAPACKE symbols")
@pytest.mark.parametrize("argv", [
    None,
    ["solve", "--builtin", "driven_ring"],
    ["compare", "--builtin", "driven_ring"],
    ["variational", "--builtin", "driven_ring", "--param", "sites=3"],
])
def test_cli_loads_lapack_without_the_scipy_linalg_package(tmp_path, argv):
    # `_lapack` binds numpy's OpenBLAS: no scipy module loads at all
    loaded = loaded_after(tmp_path, argv, "floqtriplet.cli")
    assert not any(name == "scipy" or name.startswith("scipy.") for name in loaded)


@pytest.mark.parametrize("argv", [
    # the 48-site ring is solved in its symmetry sectors
    ["solve", "--builtin", "driven_ring", "--param", "sites=48"],
    ["compare", "--builtin", "driven_ring"],
    ["sweep", "--builtin", "static", "--sweep-param", "omega", "--sweep-start", "1",
     "--sweep-stop", "2", "--sweep-count", "2"],
])
def test_sambe_commands_load_no_masked_arrays_or_decimal(tmp_path, argv):
    # a plain np.unique loads numpy.ma on numpy 2
    loaded = cold_run(tmp_path, argv)
    assert not loaded & {"numpy.ma", "decimal"}


def test_split_solve_loads_no_numpy_random(tmp_path):
    # the sector detector draws its sketches from hashlib's SHAKE-256
    loaded = cold_run(tmp_path, ["solve", "--builtin", "driven_ring", "--param", "sites=48"])
    assert "floqtriplet._sectors" in loaded
    assert not any(name == "numpy.random" or name.startswith("numpy.random.") for name in loaded)


def test_variational_loads_no_masked_arrays_or_decimal(tmp_path):
    loaded = cold_run(tmp_path, ["variational", "--builtin", "driven_ring", "--param", "sites=3"])
    assert not loaded & {"numpy.ma", "decimal"}


def test_scipy_linalg_still_imports_whole_after_the_package():
    # neither binding leaves a module of scipy.linalg behind in sys.modules,
    # where a later import of scipy.linalg would find it unbound to the package
    script = ("import floqtriplet, scipy.linalg\nfrom floqtriplet import _lapack\n"
              "assert scipy.linalg.lapack.dstevd is scipy.linalg._flapack.dstevd\n"
              "assert scipy.linalg.blas.dnrm2 is scipy.linalg._fblas.dnrm2\n"
              "w = scipy.linalg.eigh([[2.0, 1.0], [1.0, 2.0]], eigvals_only=True)\n"
              "assert list(w) == [1.0, 3.0], w\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", "import sys\n" + script],
                   env={**os.environ, "PYTHONPATH": path}, check=True)


@pytest.mark.skipif(_lapack._OPENBLAS is None, reason="numpy links no OpenBLAS with LAPACKE symbols")
def test_loader_binds_the_openblas_numpy_links():
    for name in _lapack.LAPACK:
        assert getattr(_lapack.lapack, name).__self__ is _lapack._OPENBLAS


# a fresh interpreter in which numpy's extension cannot be opened: `_lapack`
# takes scipy.linalg's module; prints the name of its `lapack`
# and the eigenpairs of a real and a complex S, full and windowed, as lists
FALLBACK = """
import json, sys
import numpy.linalg._umath_linalg as umath
umath.__file__ = sys.argv[1]
import numpy as np
import floqtriplet as ft
from floqtriplet import _lapack, sambe
sys.path.insert(0, sys.argv[2])
from conftest import random_complex_model
assert _lapack._OPENBLAS is None
matrices = [ft.build_sambe(ft.builtin_model("driven_ring"), 3),
            ft.build_sambe(random_complex_model(12, 7), 3)]
pairs = [sambe._eigh(s, window) for s in matrices for window in (None, (-1.0, 1.0))]
print(json.dumps([_lapack.lapack.__name__,
                  [[vals.tolist(), vecs.real.tolist(), vecs.imag.tolist()] for vals, vecs in pairs]]))
"""


def test_loader_falls_back_to_scipy_linalg_with_the_same_eigenpairs(tmp_path, monkeypatch):
    import scipy.linalg.lapack

    matrices = [ft.build_sambe(ft.builtin_model("driven_ring"), 3),
                ft.build_sambe(random_complex_model(12, 7), 3)]
    assert [s.dtype for s in matrices] == [np.float64, np.complex128]
    direct = [sambe._eigh(s, window) for s in matrices for window in (None, (-1.0, 1.0))]
    monkeypatch.setattr(_lapack, "lapack", scipy.linalg.lapack)
    fallback = [sambe._eigh(s, window) for s in matrices for window in (None, (-1.0, 1.0))]
    for (vals, vecs), (fvals, fvecs) in zip(direct, fallback):
        assert vals.size and np.array_equal(vals, fvals) and np.array_equal(vecs, fvecs)
    # without numpy's symbols the module itself takes scipy.linalg's module,
    # and gives the same eigenpairs
    name, pairs = fresh(FALLBACK, str(tmp_path / "absent.so"), str(Path(__file__).parent))
    assert name == "scipy.linalg.lapack"
    for (vals, vecs), (fvals, re, im) in zip(direct, pairs):
        assert np.array_equal(vals, fvals) and np.array_equal(vecs, np.array(re) + 1j * np.array(im))


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in EXPORTS.items() for name in names]
)
def test_every_exported_name_is_its_module_attribute(module, name):
    assert getattr(ft, name) is getattr(import_module(f"floqtriplet.{module}"), name)
    assert name in dir(ft)


def test_moved_classes_are_the_package_classes():
    from floqtriplet import sambe, variational

    assert oracle.PropagationError is ft.PropagationError is sambe.PropagationError
    assert variational.VariationalConfig is ft.VariationalConfig


def test_lazy_names_follow_their_module(monkeypatch):
    # nothing is cached in the package: a rebinding in the module shows
    def replacement(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(oracle, "oracle_spectrum", replacement)
    assert ft.oracle_spectrum is replacement


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ft.no_such_name
    assert not hasattr(ft, "minimize")


def test_no_public_function_takes_a_degeneracy_tolerance():
    # the tolerance is the constant sambe.TOL_DEG, read at call time
    for module in EXPORTS:
        mod = import_module(f"floqtriplet.{module}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            assert "tol_deg" not in inspect.signature(obj).parameters, f"{module}.{name}"
