"""What importing the package and running a command loads.

`import floqtriplet` and the CLI load the model and extended-space layers
only; the oracle, variational and analysis names resolve on first access.
The import checks run in a fresh interpreter, since this test session has
loaded every layer already.
"""

import inspect
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import floqtriplet as ft
from floqtriplet import oracle

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
    "oracle": ("MonodromyResult", "PropagationConfig", "PropagationError",
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


def loaded_after(tmp_path, argv: list[str] | None) -> set[str]:
    """The modules of a fresh interpreter after `cli.main(argv)` exits 0,
    or after `import floqtriplet` alone when argv is None."""
    script = "import json, sys\nimport floqtriplet\n"
    if argv is not None:
        script += "from floqtriplet import cli\nassert cli.main(json.loads(sys.argv[1])) == 0\n"
    script += "print(json.dumps(sorted(sys.modules)))\n"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, json.dumps([*(argv or []), "--out", str(tmp_path / "o")])],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return set(json.loads(run.stdout.strip().splitlines()[-1]))


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


def test_compare_leaves_scipy_integrate_unloaded(tmp_path):
    # the oracle averages by the trapezoid rule in numpy
    loaded = loaded_after(tmp_path, ["compare", "--builtin", "static"])
    assert "floqtriplet.oracle" in loaded
    assert "scipy.integrate" not in loaded


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
