import csv
import dataclasses
import json
import shlex
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import floqtriplet as ft
from floqtriplet import analysis, cli, oracle, sambe
from floqtriplet.cli import (
    MODE_SIGMA_MIN,
    SWEEP_HARMONIC_FACTOR,
    SWEEP_POINT_BYTES,
    _write_json,
    build_parser,
    main,
)

from conftest import CIRCULAR_DEFAULT, converge_on_replica


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_solve_static_writes_expected_rows(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "solve",
            "--builtin", "static",
            "--param", "levels=0,1",
            "--param", "omega=0.7",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out / "spectrum.csv")
    got = [(float(r["eps"]), float(r["ebar"])) for r in rows]
    assert_allclose(got, [(0.0, 0.0), (0.3, 1.0)], atol=1e-12)
    payload = json.loads((out / "spectrum.json").read_text())
    assert len(payload["states"]) == 2


def test_solve_circular_rows_match_reference(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--builtin", "two_level_circular", "--out", str(out)]) == 0
    rows = read_csv(out / "spectrum.csv")
    ref = CIRCULAR_DEFAULT
    got = [(float(r["eps"]), float(r["ebar"])) for r in rows]
    assert abs(got[0][0] - ref["eps"]["plus"]) <= 1e-6
    assert abs(got[0][1] - ref["ebar"]["plus"]) <= 1e-6
    assert abs(got[1][0] - ref["eps"]["minus"]) <= 1e-6
    assert abs(got[1][1] + ref["ebar"]["plus"]) <= 1e-6


def test_solve_json_round_trip_bitwise(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--builtin", "two_level_circular", "--out", str(out)]) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    spec = ft.Spectrum.from_json_dict(payload)
    again = json.loads(json.dumps(spec.to_json_dict()))
    payload["metadata"].pop("timestamp", None)
    again["metadata"].pop("timestamp", None)
    assert payload == again
    # a matrix this small is solved whole, its sectors not looked for
    assert payload["metadata"]["sectors"] is None
    assert payload["metadata"]["sector_coupling"] is None


def test_solve_json_round_trip_keeps_the_sectors(tmp_path):
    # the 24-site ring certifies at M = 4 (n = 216) in four symmetry sectors
    out = tmp_path / "run"
    assert main(["solve", "--builtin", "driven_ring", "--param", "sites=24", "--out", str(out)]) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    again = json.loads(json.dumps(ft.Spectrum.from_json_dict(payload).to_json_dict(), allow_nan=False))
    payload["metadata"].pop("timestamp", None)
    again["metadata"].pop("timestamp", None)
    assert payload == again
    assert sorted(payload["metadata"]["sectors"]) == [[5, 6], [6, 5], [6, 7], [7, 6]]
    assert 0.0 <= payload["metadata"]["sector_coupling"] <= 1e-13


def test_solve_without_a_gap_writes_strict_json(tmp_path):
    # at M = 3 this model's one cluster overlaps its own replica: both
    # truncation figures are infinite and are written as null
    out = tmp_path / "run"
    argv = ["solve", "--builtin", "two_level_linear", "--param", "v=2.5",
            "--param", "omega=0.9", "--harmonics", "3", "--out", str(out)]
    with pytest.warns(RuntimeWarning, match="M=3 is below convergence"):
        assert main(argv) == 0

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    payload = json.loads((out / "spectrum.json").read_text(), parse_constant=reject)
    assert payload["metadata"]["eps_bound"] is None
    assert payload["metadata"]["ebar_estimate"] is None


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "place",
    [
        lambda x: {"states": [{"coeffs_re": [[0.5, 0.25], [0.125, x]]}]},
        lambda x: {"metadata": {"eps_bound": x}},
        lambda x: {"metadata": {"residual_max": np.float64(x)}},
    ],
    ids=["coefficient", "dict-value", "numpy-scalar"],
)
def test_write_json_refuses_non_finite_values(tmp_path, place, value):
    # orjson would write them as null: the writer refuses them before
    # creating anything
    path = tmp_path / "o" / "spectrum.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_json(path, place(value))
    assert not path.parent.exists()


@pytest.mark.parametrize(
    "value",
    [-0.0, 5e-324, 1e16, 1.7976931348623157e308, 2.2999999999999998e-08, 0.30020186236348767],
)
def test_write_json_round_trips_edge_floats_bitwise(tmp_path, value):
    # at the largest float the row's sum overflows though every term is finite
    path = tmp_path / "o" / "spectrum.json"
    _write_json(path, {"coeffs_re": [[value, value, -value]], "eps_bound": np.float64(value)})
    back = json.loads(path.read_text(encoding="utf-8"))
    got = [*back["coeffs_re"][0], back["eps_bound"]]
    assert np.array(got).tobytes() == np.array([value, value, -value, value]).tobytes()


def test_solve_from_explicit_harmonics_file(tmp_path):
    h = ft.builtin_model("two_level_circular")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(h.to_json_dict()))
    out = tmp_path / "run"
    assert main(["solve", "--model", str(path), "--out", str(out)]) == 0
    rows = read_csv(out / "spectrum.csv")
    ref = CIRCULAR_DEFAULT
    assert abs(float(rows[0]["ebar"]) - ref["ebar"]["plus"]) <= 1e-6


def test_solve_missing_model_file_exits_config(tmp_path, capsys):
    code = main(["solve", "--model", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--model", "{dir}"],  # a directory where the model file should be
        ["perturb", "--builtin", "static", "--pert-model", "{dir}/absent.json"],
    ],
)
def test_unreadable_model_file_exits_config(tmp_path, capsys, argv):
    argv = [arg.format(dir=tmp_path) for arg in argv]
    code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert f"cannot read model file {argv[-1]}" in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "harmonics",
    [
        {"0": 1},  # a mapping instead of a list of entries
        [{"m": 0, "re": [[1.0]]}],  # no "im"
        [{"m": 0, "re": [[1.0]], "im": [[0.0], [1.0, 2.0]]}],  # ragged rows
        3,
        [{"m": 1.5, "re": [[1.0]], "im": [[0.0]]}],  # solved as m = 1
        # the second m = 0 entry replaced the first
        [{"m": 0, "re": [[1.0]], "im": [[0.0]]}, {"m": 0, "re": [[-2.0]], "im": [[0.0]]}],
        # re + 1j * im broadcast a scalar re against a 1 x 1 im: solved as 0.5
        [{"m": 0, "re": 0.5, "im": [[0]]}],
    ],
)
def test_solve_malformed_model_json_exits_config(tmp_path, capsys, harmonics):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"dim": 1, "omega": 1.0, "harmonics": harmonics}))
    code = main(["solve", "--model", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert "malformed model JSON" in err["message"]


@pytest.mark.parametrize("size", ["sites", "dim"])
def test_non_integral_model_size_exits_config(tmp_path, capsys, size):
    out = tmp_path / "o"
    if size == "sites":
        source = ["--builtin", "driven_ring", "--param", "sites=3.5"]
    else:
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"dim": 2.7, "omega": 1.0, "harmonics": [
            {"m": 0, "re": [[1.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}]}))
        source = ["--model", str(path)]
    assert main(["solve", *source, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert f"{size} must be an integer" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "change, field",
    [
        ({"dim": True}, "dim"),
        ({"omega": "1"}, "omega"),
        ({"omega": True}, "omega"),
        ({"harmonics": [{"m": "1", "re": [[0.1]], "im": [[0.0]]}]}, "harmonic index m"),
        ({"harmonics": [{"m": 0, "re": [["1"]], "im": [[0.0]]}]}, "re of harmonic m=0"),
        # a "builtin" key selects the named-model schema, which ignores the rest
        ({"builtin": "static", "params": {"omega": "1", "levels": ["0", "1"]}}, "omega"),
        ({"builtin": "static", "params": {"levels": ["0", "1"]}}, "levels"),
        ({"builtin": "driven_ring", "params": {"v": True}}, "v"),
        # a bool next to numbers in a list was promoted by numpy to 1.0
        ({"builtin": "static", "params": {"levels": [True, 1.5]}}, "levels"),
        ({"dim": 2, "harmonics": [{"m": 0, "re": [[True, 1.0], [1.0, 0.0]],
                                   "im": [[0.0, 0.0], [0.0, 0.0]]}]}, "re of harmonic m=0"),
        # a list where a number belongs raised an uncaught TypeError
        ({"builtin": "static", "params": {"omega": [1]}}, "omega"),
        ({"builtin": "static", "params": {"levels": [[0, 1]]}}, "levels"),
    ],
)
def test_bool_or_string_for_a_model_number_exits_config(tmp_path, capsys, change, field):
    # each was read as a number (true as 1, "1" as 1) and solved with exit 0,
    # or escaped the exit codes with a traceback
    path = tmp_path / "model.json"
    path.write_text(json.dumps(
        {"dim": 1, "omega": 1.0, "harmonics": [{"m": 0, "re": [[1.0]], "im": [[0.0]]}], **change}))
    out = tmp_path / "o"
    assert main(["solve", "--model", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert f"{field} must be" in err["message"]
    assert not out.exists()


def test_list_param_where_a_number_belongs_exits_config(tmp_path, capsys, monkeypatch):
    # solve raised an uncaught TypeError; sweep recorded it at every point
    # and exited 0
    solves = []
    monkeypatch.setattr(analysis, "solve_spectrum", lambda *a: solves.append(a))
    sweep = ["--sweep-param", "v", "--sweep-start", "0.1", "--sweep-stop", "0.2",
             "--sweep-count", "2"]
    for argv, message in [
        (["solve", "--builtin", "two_level_linear", "--param", "v=0.4,0.5"],
         "v must be a number, got [0.4, 0.5]"),
        (["sweep", "--builtin", "two_level_linear", "--param", "delta=1,2", *sweep],
         "delta must be a number, got [1.0, 2.0]"),
    ]:
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err == {"kind": "config", "message": message}
        assert not out.exists()
    assert solves == []
    # one level, given as a number or a one-entry list, is still a static model
    for levels in ("0", "0,1"):
        out = tmp_path / f"levels{levels}"
        assert main(["solve", "--builtin", "static", "--param", f"levels={levels}",
                     "--out", str(out)]) == 0
        assert len(read_csv(out / "spectrum.csv")) == levels.count(",") + 1


def test_solve_requires_exactly_one_source(tmp_path, capsys):
    code = main(
        ["solve", "--builtin", "static", "--model", "x.json", "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_compare_static_exits_zero(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "compare",
            "--builtin", "static",
            "--param", "levels=0,1",
            "--param", "omega=0.7",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out / "compare.csv")
    for row in rows:
        assert float(row["delta_eps"]) <= 1e-12
        assert float(row["delta_ebar"]) <= 1e-12


def test_compare_resonant_direct_sum_exits_zero(tmp_path):
    # a random driven pair beside its copy raised by 3 omega: every state is
    # folded degenerate with one 3 replicas away, and both gates hold
    rng = np.random.default_rng(4)
    omega = 1.3
    a0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h0 = 0.5 * (a0 + a0.conj().T)
    h1 = 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    zero = np.zeros((2, 2))
    h = ft.FourierHamiltonian(dim=4, omega=omega, harmonics={
        0: np.block([[h0, zero], [zero, h0 + 3 * omega * np.eye(2)]]),
        1: np.block([[h1, zero], [zero, h1]]),
    })
    path = tmp_path / "model.json"
    path.write_text(json.dumps(h.to_json_dict()))
    out = tmp_path / "run"
    assert main(["compare", "--model", str(path), "--out", str(out)]) == 0
    assert len(read_csv(out / "compare.csv")) == 4
    spec = ft.solve_spectrum(h)
    assert [t.group_size for t in spec] == [2, 2, 2, 2]
    assert all(-0.5 <= t.mode.centroid() < 0.5 for t in spec)


def test_compare_circular_within_gate(tmp_path):
    out = tmp_path / "run"
    code = main(["compare", "--builtin", "two_level_circular", "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "compare.csv")
    for row in rows:
        assert float(row["delta_eps"]) <= 1e-6
        assert float(row["delta_ebar"]) <= 1e-6


# compare.csv of the default 6-site ring, recorded from the oracle with
# Taylor step factors, whose U(T) test_oracle checks against extended precision,
# and the Sambe route at its certified M = 4 (bounds 4.8e-10 in eps, 7.6e-10
# in Ebar; the M = 8 solve moved Ebar by at most 4.0e-10)
RING_COMPARE_ROWS = [
    (0, 2.826337441863558e-09, 1.1893672713370051e-09, 0.9999999999999997),
    (1, 5.40003952664847e-09, 3.068335274747369e-08, 0.9999999999999988),
    (2, 7.393820666834472e-09, 2.282922961782674e-08, 1.0),
    (3, 7.393821110923682e-09, 2.282923006191595e-08, 0.9999999999999998),
    (4, 5.40003952664847e-09, 3.0683352858495994e-08, 0.9999999999999988),
    (5, 2.826336498173987e-09, 1.1893659390693756e-09, 0.9999999999999999),
]


def test_compare_ring_rows_unchanged(tmp_path):
    out = tmp_path / "run"
    assert main(["compare", "--builtin", "driven_ring", "--out", str(out)]) == 0
    rows = read_csv(out / "compare.csv")
    assert [int(r["state"]) for r in rows] == [r[0] for r in RING_COMPARE_ROWS]
    got = [(float(r["delta_eps"]), float(r["delta_ebar"]), float(r["overlap"])) for r in rows]
    # the file is byte-identical on the machine that recorded it; 1e-12 leaves
    # room for another LAPACK build while any change of the propagation
    # scheme moves these ~1e-8 deltas by far more
    assert_allclose(got, [r[1:] for r in RING_COMPARE_ROWS], rtol=0, atol=1e-12)


def test_compare_far_levels_take_modes_on_the_sambe_replica(tmp_path, recwarn, capsys):
    # levels at +-100, 67 omega from zero: the oracle once kept the
    # coefficients around m = 0, all roundoff (tail weight 1, overlaps 0.3)
    out = tmp_path / "run"
    argv = ["compare", "--builtin", "two_level_linear", "--param", "delta=200",
            "--param", "v=3.0", "--out", str(out)]
    assert main(argv) == 0
    assert not [w for w in recwarn if "tail weight" in str(w.message)]
    for row in read_csv(out / "compare.csv"):
        assert float(row["overlap"]) >= 1.0 - 1e-9
    # and the mode gate passes them
    sigma = float(capsys.readouterr().out.split("smallest mode singular value")[1])
    assert sigma >= MODE_SIGMA_MIN


def test_compare_rotated_oracle_modes_exit_gate(tmp_path, capsys, monkeypatch):
    # the oracle's two modes turned 0.3 rad into each other, with every eps
    # and Ebar kept: only the mode gate can see it
    solve = oracle.oracle_spectrum

    def rotated(h, truncation, **kwargs):
        spec = solve(h, truncation, **kwargs)
        a, b = spec[0].mode.coeffs, spec[1].mode.coeffs
        c, s = np.cos(0.3), np.sin(0.3)
        turned = [
            dataclasses.replace(spec[0], mode=ft.FloquetMode(c * a + s * b)),
            dataclasses.replace(spec[1], mode=ft.FloquetMode(c * b - s * a)),
        ]
        return ft.Spectrum(triplets=turned, metadata=spec.metadata)

    monkeypatch.setattr(oracle, "oracle_spectrum", rotated)
    out = tmp_path / "run"
    assert main(["compare", "--builtin", "two_level_linear", "--out", str(out)]) == 3
    for row in read_csv(out / "compare.csv"):
        assert float(row["delta_eps"]) <= 1e-6 and float(row["delta_ebar"]) <= 1e-6
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "gate" and "mode subspaces disagree" in err["message"]
    assert [row["states"] for row in err["rows"]] == [[0], [1]]
    for row in err["rows"]:
        assert abs(row["sigma_min"] - np.cos(0.3)) <= 1e-9


@pytest.mark.filterwarnings("ignore:Fourier tail weight")
def test_compare_forced_truncation_exits_gate(tmp_path, capsys):
    # deliberately small M: the Sambe solve warns with its bound, and the
    # cross-method gate catches it
    with pytest.warns(RuntimeWarning, match="M=2 is below convergence"):
        code = main(
            [
                "compare",
                "--builtin", "two_level_linear",
                "--harmonics", "2",
                "--out", str(tmp_path / "o"),
            ]
        )
    assert code == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "gate"
    assert err["rows"]


def test_compare_starved_selection_exits_nonconvergence(tmp_path, capsys):
    # at M=1 a driven model cannot host clean replica families at all
    code = main(
        [
            "compare",
            "--builtin", "two_level_linear",
            "--param", "v=1.2",
            "--param", "omega=1.1",
            "--harmonics", "1",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 4
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "convergence"


def test_oracle_propagation_failure_exits_nonconvergence(tmp_path, capsys, monkeypatch):
    # a PropagationError from the oracle reaches the exit-code map of main
    def drifting(*args, **kwargs):
        raise ft.PropagationError("unitarity defect 1.0e-3 exceeds 1.0e-12")

    monkeypatch.setattr(oracle, "propagate_period", drifting)
    assert main(["compare", "--builtin", "static", "--out", str(tmp_path / "o")]) == 4
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"kind": "convergence", "message": "unitarity defect 1.0e-3 exceeds 1.0e-12"}


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_solve_nonfinite_omega_exits_config(tmp_path, capsys, value):
    code = main(
        ["solve", "--builtin", "two_level_linear", "--param", f"omega={value}",
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert "omega(nonfinite)" in err["message"]


def test_solve_oversized_dense_matrix_exits_config(tmp_path, capsys):
    code = main(
        ["solve", "--builtin", "driven_ring", "--param", "sites=96", "--harmonics", "64",
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert "M=64" in err["message"] and "GiB" in err["message"]


@pytest.mark.parametrize("omega", [1e308, 1e200])
@pytest.mark.parametrize("command", ["solve", "variational", "compare"])
def test_drive_frequency_past_float_range_exits_config(tmp_path, capsys, monkeypatch, command, omega):
    # n (reach + M omega)^2 overflowed: the eigensolver failed (exit 4) at
    # 1e308 and its residual check read inf at 1e200
    def eigh(*args):
        raise AssertionError("the eigensolver ran")

    monkeypatch.setattr(sambe, "_eigh", eigh)
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"builtin": "driven_ring", "params": {"omega": omega}}))
    out = tmp_path / "o"
    assert main([command, "--model", str(model), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert f"omega = {omega:.6g}" in err["message"] and "M=1" in err["message"]
    assert "float limit" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "variational", "compare"])
def test_drive_norms_summing_past_float_range_exit_config_without_warning(tmp_path, capsys, command):
    # each ||H_m||_2 is finite, their sum is inf: refused by the reach limit,
    # with no overflow warning on the way
    entry = {"re": [[1e308]], "im": [[0.0]]}
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"dim": 1, "omega": 1.0, "harmonics": [
        {"m": 0, "re": [[0.5]], "im": [[0.0]]}, {"m": 1, **entry}, {"m": 2, **entry}]}))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--model", str(model), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert "reach inf from zero" in err["message"]
    assert not out.exists()


def _far_levels(level: float) -> dict:
    """Two levels at +-level, coupled by a weak drive at omega = 1."""
    return {"dim": 2, "omega": 1.0, "harmonics": [
        {"m": 0, "re": [[level, 0], [0, -level]], "im": [[0, 0], [0, 0]]},
        {"m": 1, "re": [[0, 0.1], [0.1, 0]], "im": [[0, 0], [0, 0]]},
    ]}


@pytest.mark.parametrize("level", [1e20, 1e16])
@pytest.mark.parametrize("command", ["solve", "compare", "variational"])
def test_levels_beyond_float64_replica_resolution_exit_config(tmp_path, capsys, command, level):
    # at 2^52 omega one ulp of a level is omega: at 1e20 the replica shifts
    # overflowed int64, at 1e16 the ladder ran to M = 64 and exited 4
    model = tmp_path / "far.json"
    model.write_text(json.dumps(_far_levels(level)))
    assert main([command, "--model", str(model), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert "2^52 * omega" in err["message"] and f"{level:.3e}" in err["message"]


def test_levels_within_float64_replica_resolution_solve(tmp_path):
    model = tmp_path / "far.json"
    model.write_text(json.dumps(_far_levels(1e12)))
    assert main(["solve", "--model", str(model), "--out", str(tmp_path / "o")]) == 0
    payload = json.loads((tmp_path / "o" / "spectrum.json").read_text())
    assert payload["metadata"]["truncation"] == 2


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_solve_nonfinite_harmonic_exits_config(tmp_path, capsys, value):
    path = tmp_path / "model.json"
    payload = {
        "dim": 2,
        "omega": 1.0,
        "harmonics": [
            {"m": 0, "re": [[value, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        ],
    }
    path.write_text(json.dumps(payload))
    code = main(["solve", "--model", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert "finite(m=0)" in err["message"]
    assert "hermiticity" not in err["message"]


@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
def test_solve_infinite_imaginary_part_exits_config_without_warning(tmp_path, capsys, value):
    # 1j * inf is an invalid multiply: the model file is refused with no numpy warning
    path = tmp_path / "model.json"
    payload = {
        "dim": 2,
        "omega": 1.0,
        "harmonics": [
            {"m": 0, "re": [[1.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            {"m": 1, "re": [[0.0, 0.5], [0.5, 0.0]], "im": [[0.0, value], [0.0, 0.0]]},
        ],
    }
    path.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--model", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert "finite(m=1)" in err["message"]


def test_variational_matches_solve_ground(tmp_path):
    out_s = tmp_path / "solve"
    out_v = tmp_path / "var"
    assert main(["solve", "--builtin", "static", "--out", str(out_s)]) == 0
    assert main(["variational", "--builtin", "static", "--out", str(out_v)]) == 0
    solve_rows = read_csv(out_s / "spectrum.csv")
    var_rows = read_csv(out_v / "variational.csv")
    assert abs(float(var_rows[0]["eps"]) - float(solve_rows[0]["eps"])) <= 1e-6
    assert abs(float(var_rows[0]["ebar"]) - float(solve_rows[0]["ebar"])) <= 1e-6


# d = 1 under a strong scalar drive: its one Floquet state has Ebar = H_0
SCALAR_DRIVE = {"dim": 1, "omega": 1.818, "harmonics": [
    {"m": 0, "re": [[-0.317]], "im": [[0]]},
    {"m": 1, "re": [[-0.929]], "im": [[0.875]]},
]}


def test_variational_nonconvergence_exits_four(tmp_path, capsys, monkeypatch):
    # d = 1 under a strong scalar drive at M = 2, below its certified M = 8:
    # a start that ends on a replica cut by the truncation edge (centroid
    # 0.84) is not counted, and with no restarts no state is reached
    model = tmp_path / "scalar.json"
    model.write_text(json.dumps(SCALAR_DRIVE))
    converge_on_replica(monkeypatch, ft.load_model(str(model)), 2, 0.842)
    code = main(
        ["variational", "--model", str(model), "--harmonics", "2", "--restarts", "0",
         "--out", str(tmp_path / "o")]
    )
    assert code == 4
    payload = json.loads((tmp_path / "o" / "variational.json").read_text())
    assert payload["converged"] is False


def test_scalar_drive_auto_cutoff_gives_h0(tmp_path):
    # the drive leaves eps alone and moves only the mode, which needs M of
    # about 8: the leak bound, not eps, certifies it there
    model = tmp_path / "scalar.json"
    model.write_text(json.dumps(SCALAR_DRIVE))
    assert main(["solve", "--model", str(model), "--out", str(tmp_path / "s")]) == 0
    metadata = json.loads((tmp_path / "s" / "spectrum.json").read_text())["metadata"]
    assert metadata["truncation"] >= 8
    assert main(["variational", "--model", str(model), "--out", str(tmp_path / "v")]) == 0
    payload = json.loads((tmp_path / "v" / "variational.json").read_text())
    assert payload["converged"] is True
    assert abs(payload["avg_energy"] - (-0.317)) <= 1e-6


def test_far_split_levels_certified_variational_gives_the_sambe_ground(tmp_path):
    # H_0 = diag(+-1000): every start aimed at the upper level fell into the
    # origin and the search exited 4; at the certified cutoff the sum rule
    # proves the ground without that level
    harmonics = {0: np.diag([1000.0, -1000.0]), 1: [[0.0, 0.1], [0.1, 0.0]]}
    h = ft.FourierHamiltonian(dim=2, omega=1.0, harmonics=harmonics)
    model = tmp_path / "far.json"
    model.write_text(json.dumps(h.to_json_dict()))
    assert main(["variational", "--model", str(model), "--out", str(tmp_path / "v")]) == 0
    payload = json.loads((tmp_path / "v" / "variational.json").read_text())
    assert payload["converged"] is True
    assert abs(payload["avg_energy"] - min(ft.solve_spectrum(h).avg_energies)) <= 1e-6


def test_sweep_static_gap_crossing(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "sweep",
            "--builtin", "static",
            "--param", "levels=0,1",
            "--param", "omega=0.5",
            "--harmonics", "2",
            "--sweep-param", "levels.1",
            "--sweep-start", "0.9",
            "--sweep-stop", "1.1",
            "--sweep-count", "9",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 18
    state1 = [r for r in rows if r["state"] == "1"]
    lam = np.array([float(r["lambda"]) for r in state1])
    ebar = np.array([float(r["ebar"]) for r in state1])
    eps = np.array([float(r["eps"]) for r in state1])
    assert_allclose(ebar, lam, atol=1e-9)  # ebar passes smoothly through
    folded = np.array([lv % 0.5 for lv in lam])
    # the eps curve folds at the commensurate point lambda = 1.0
    assert_allclose(eps, folded, atol=1e-9)


def test_sweep_circular_drive_from_zero(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "sweep",
            "--builtin", "two_level_circular",
            "--sweep-param", "v",
            "--sweep-start", "0.0",
            "--sweep-stop", "0.4",
            "--sweep-count", "5",
            "--harmonics", "8",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out / "sweep.csv")
    by_state = {}
    for r in rows:
        by_state.setdefault(r["state"], []).append(r)
    # v = 0 endpoint: static values (+-delta/2 folded)
    first = [float(r["ebar"]) for r in rows if float(r["lambda"]) == 0.0]
    assert_allclose(sorted(first), [-0.5, 0.5], atol=1e-9)
    # v = 0.4 endpoint: rotating-frame values
    ref = CIRCULAR_DEFAULT
    last = [float(r["ebar"]) for r in rows if abs(float(r["lambda"]) - 0.4) < 1e-12]
    assert_allclose(sorted(last), [ref["ebar"]["plus"], -ref["ebar"]["plus"]], atol=1e-6)
    # label continuity: each state's ebar deforms without jumps
    for state_rows in by_state.values():
        ebars = [float(r["ebar"]) for r in state_rows]
        assert np.abs(np.diff(ebars)).max() <= 0.1


def test_sweep_single_point(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "sweep",
            "--builtin", "static",
            "--param", "levels=0,1",
            "--sweep-param", "levels.1",
            "--sweep-start", "1.0",
            "--sweep-stop", "2.0",
            "--sweep-count", "1",
            "--harmonics", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 2
    assert {r["lambda"] for r in rows} == {"1.0"}


def test_sweep_failed_points_write_sweep_errors(tmp_path):
    # omega = 0 gives no model: that point fails and is recorded, the other
    # one is solved, and the sweep still exits 0
    out = tmp_path / "o"
    code = main(
        ["sweep", "--builtin", "two_level_linear",
         "--sweep-param", "omega", "--sweep-start", "0.0", "--sweep-stop", "1.5",
         "--sweep-count", "2", "--out", str(out)]
    )
    assert code == 0
    assert [r["lambda"] for r in read_csv(out / "sweep.csv")] == ["1.5", "1.5"]
    errors = json.loads((out / "sweep_errors.json").read_text())["errors"]
    assert [sorted(e) for e in errors] == [["error", "value"]]
    assert [e["value"] for e in errors] == [0.0]
    assert "omega(nonpositive)" in errors[0]["error"]


SWEEP_LIMIT = sambe.MAX_DENSE_BYTES // SWEEP_POINT_BYTES


class _Linspace(Exception):
    pass


def _no_linspace(*args, **kwargs):
    raise _Linspace


@pytest.mark.parametrize("count", [10**12, SWEEP_LIMIT + 1])
def test_sweep_count_past_the_memory_limit_exits_config(tmp_path, capsys, monkeypatch, count):
    # np.linspace of 10**12 points escaped main as a numpy _ArrayMemoryError;
    # the count is refused before any grid is allocated
    monkeypatch.setattr(np, "linspace", _no_linspace)
    out = tmp_path / "o"
    code = main(
        ["sweep", "--builtin", "two_level_linear", "--sweep-param", "v", "--sweep-start", "0",
         "--sweep-stop", "1", "--sweep-count", str(count), "--out", str(out)]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert f"--sweep-count {count} is above the limit {SWEEP_LIMIT}" in err["message"]
    assert not out.exists()


def test_sweep_count_at_the_memory_limit_reaches_the_grid(tmp_path, monkeypatch):
    monkeypatch.setattr(np, "linspace", _no_linspace)
    with pytest.raises(_Linspace):
        main(["sweep", "--builtin", "two_level_linear", "--sweep-param", "v", "--sweep-start",
              "0", "--sweep-stop", "1", "--sweep-count", str(SWEEP_LIMIT),
              "--out", str(tmp_path / "o")])


def test_sweep_count_limit_scales_with_the_model(tmp_path, capsys, monkeypatch):
    # a 24-site ring holds about 69 KB per point: the grid the built-ins'
    # limit admits would pass 2 GiB about fifteen times over
    monkeypatch.setattr(np, "linspace", _no_linspace)
    harmonic_bytes = 3 * 16 * 24**2  # H_0, H_1 and H_-1, complex 24 x 24
    limit = sambe.MAX_DENSE_BYTES // (SWEEP_HARMONIC_FACTOR * harmonic_bytes)
    out = tmp_path / "o"
    code = main(
        ["sweep", "--builtin", "driven_ring", "--param", "sites=24", "--sweep-param", "v",
         "--sweep-start", "0", "--sweep-stop", "1", "--sweep-count", str(SWEEP_LIMIT),
         "--out", str(out)]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert f"--sweep-count {SWEEP_LIMIT} is above the limit {limit}" in err["message"]
    assert not out.exists()
    with pytest.raises(_Linspace):
        main(["sweep", "--builtin", "driven_ring", "--param", "sites=24", "--sweep-param", "v",
              "--sweep-start", "0", "--sweep-stop", "1", "--sweep-count", str(limit),
              "--out", str(out)])


def _sweep_peak(tmp_path, argv, count):
    """The tracemalloc peak of a sweep of count points."""
    tracemalloc.start()
    try:
        assert main(argv + ["--sweep-count", str(count), "--out", str(tmp_path / str(count))]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_holds_one_model_at_a_time(tmp_path, capsys):
    # every point's model, with its cached sectors, was built before any was
    # solved: about 66 KB a point on the 24-site ring.  Each is now dropped
    # once its point is solved, and a point holds its record and CSV rows,
    # about 3 KB, well inside the --sweep-count bound's 27.6 KB
    argv = ["sweep", "--builtin", "driven_ring", "--param", "sites=24", "--harmonics", "4",
            "--sweep-param", "v", "--sweep-start", "0.1", "--sweep-stop", "0.5"]
    _sweep_peak(tmp_path, argv, 2)  # imports and caches
    growth = (_sweep_peak(tmp_path, argv, 18) - _sweep_peak(tmp_path, argv, 6)) / 12
    harmonic_bytes = 3 * 16 * 24**2  # H_0, H_1 and H_-1, complex 24 x 24
    assert growth <= harmonic_bytes / 4
    assert growth <= cli._sweep_point_bytes("driven_ring", {"sites": 24}, "v", [0.1, 0.5])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("endpoint", ["--sweep-start", "--sweep-stop"])
def test_sweep_nonfinite_endpoint_exits_config(tmp_path, capsys, endpoint, value):
    # linspace over a non-finite range gives nan points: refused while parsing
    args = {"--sweep-start": "0.5", "--sweep-stop": "2", endpoint: value}
    out = tmp_path / "o"
    code = main(
        ["sweep", "--builtin", "static", "--sweep-param", "omega", "--sweep-count", "3",
         *(f"{key}={text}" for key, text in args.items()), "--out", str(out)]
    )
    assert code == 2
    assert "expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_perturb_fixture_reproduces_contrast(tmp_path):
    out = tmp_path / "run"
    assert main(["perturb", "--out", str(out)]) == 0
    rows = read_csv(out / "tracking.csv")
    assert max(float(r["overlap_qorder"]) for r in rows) <= 0.9
    assert min(float(r["overlap_label"]) for r in rows) >= 0.999


@pytest.mark.parametrize(
    "argv",
    [
        ["--builtin", "static", "--pert-model", "{pert}"],
        ["--builtin", "static", "--pert-model", "{pert}", "--strength", "1e-3"],
        ["--strength", "1e-3"],  # the shipped fixture
    ],
)
def test_perturb_writes_one_row_per_state(tmp_path, argv):
    pert = tmp_path / "v.json"
    pert.write_text(json.dumps({"builtin": "static", "params": {"levels": [-1.0, 1.0]}}))
    out = tmp_path / "o"
    assert main(["perturb", *(arg.format(pert=pert) for arg in argv), "--out", str(out)]) == 0
    assert [r["state"] for r in read_csv(out / "tracking.csv")] == ["0", "1"]


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_perturb_nonfinite_strength_exits_config(tmp_path, capsys, value):
    # a plain float let inf through to the model check, after a numpy warning
    out = tmp_path / "o"
    assert main(["perturb", "--strength", value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--strength" in err and "expected a finite number" in err
    assert not out.exists()


def test_perturb_model_without_base_model_exits_config(tmp_path, capsys):
    # the --pert-model was ignored and the shipped fixture ran instead
    out = tmp_path / "o"
    code = main(["perturb", "--pert-model", str(tmp_path / "missing.json"), "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert "--model or --builtin" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "params, message",
    [({"levels": [0.0, 1.0, 2.0]}, "dimension mismatch"), ({"omega": 0.9}, "drive frequency mismatch")],
)
def test_perturb_mismatched_model_exits_config_before_any_solve(tmp_path, capsys, monkeypatch, params, message):
    # the base model was solved in full before the perturbation was checked
    from floqtriplet import analysis

    def unexpected(*args, **kwargs):
        raise AssertionError("solve_spectrum ran before the perturbation was checked")

    monkeypatch.setattr(analysis, "solve_spectrum", unexpected)
    pert = tmp_path / "v.json"
    pert.write_text(json.dumps({"builtin": "static", "params": params}))
    out = tmp_path / "o"
    code = main(["perturb", "--builtin", "static", "--pert-model", str(pert), "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert message in err["message"]
    assert not out.exists()


def test_determinism_identical_runs(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(
            ["solve", "--builtin", "driven_ring", "--out", str(out)]
        ) == 0
        payload = json.loads((out / "spectrum.json").read_text())
        payload["metadata"].pop("timestamp", None)
        outs.append((json.dumps(payload, sort_keys=True), (out / "spectrum.csv").read_text()))
    assert outs[0] == outs[1]


def test_unknown_builtin_exits_config(tmp_path, capsys):
    assert main(["solve", "--builtin", "bogus", "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"


@pytest.mark.parametrize("gate", ["nan", "inf", "-1", "0"])
def test_compare_invalid_gate_exits_config(tmp_path, capsys, gate):
    out = tmp_path / "o"
    assert main(["compare", "--builtin", "static", "--gate", gate, "--out", str(out)]) == 2
    assert "gate must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


SWEEP_ARGS = ["--sweep-param", "omega", "--sweep-start", "2.0", "--sweep-stop", "2.3",
              "--sweep-count", "2"]


@pytest.mark.parametrize("value", ["inf", "nan", "-1", "0", "0.05"])
@pytest.mark.parametrize("command", ["solve", "compare", "sweep", "variational", "perturb"])
def test_invalid_tol_deg_exits_config(tmp_path, capsys, command, value):
    # the degeneracy tolerance is the constant sambe.TOL_DEG, and every
    # --tol-deg is refused; a loose 0.05 gave the ring residuals of 6e-3
    # under an eps bound of 5e-10
    out = tmp_path / "o"
    extra = SWEEP_ARGS if command == "sweep" else []
    code = main(
        [command, "--builtin", "driven_ring", *extra, "--tol-deg", value, "--out", str(out)]
    )
    assert code == 2
    assert "unrecognized arguments: --tol-deg" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["perturb", "--builtin", "static"], "perturb needs --pert-model"),
        (["perturb", "--builtin", "static", "--pert-model", "{pert}"], "dimension mismatch: 2 vs 3"),
        (["solve", "--builtin", "static", "--param", "omega"], "--param expects key=value"),
        (["sweep", "--builtin", "static", *SWEEP_ARGS[:-1], "0"], "--sweep-count must be >= 1"),
        (["sweep", "--builtin", "static", "--sweep-param", "omega.1", *SWEEP_ARGS[2:]],
         "does not index a list parameter"),
    ],
)
def test_inconsistent_arguments_exit_config(tmp_path, capsys, argv, message):
    pert = tmp_path / "v.json"
    pert.write_text(json.dumps({"builtin": "static", "params": {"levels": [0.0, 1.0, 2.0]}}))
    out = tmp_path / "o"
    assert main([*(arg.format(pert=pert) for arg in argv), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config" and message in err["message"]
    assert not out.exists()


def test_sweep_axis_past_a_list_exits_config(tmp_path, capsys):
    # exited 1 with an IndexError traceback
    out = tmp_path / "o"
    argv = ["sweep", "--builtin", "static", "--sweep-param", "levels.5", "--sweep-start", "0",
            "--sweep-stop", "1", "--sweep-count", "2", "--out", str(out)]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config" and "levels.0 to levels.1" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "compare", "variational", "sweep", "perturb"])
def test_param_with_a_model_file_exits_config(tmp_path, capsys, command):
    # --param was dropped on the --model path: solve ran the 4-site ring
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"builtin": "driven_ring", "params": {"sites": 4}}))
    extra = {"sweep": SWEEP_ARGS, "perturb": ["--pert-model", str(model)]}.get(command, [])
    out = tmp_path / "o"
    argv = [command, "--model", str(model), *extra, "--param", "sites=48", "--out", str(out)]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config" and "--param" in err["message"]
    assert not out.exists()


def test_perturb_fixture_rejects_param(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["perturb", "--param", "v=0.3", "--out", str(out)]) == 2
    assert "--param" in json.loads(capsys.readouterr().out.strip().splitlines()[-1])["message"]
    assert not out.exists()


def test_sweep_with_a_model_file_exits_config(tmp_path, capsys):
    # sweep varies a built-in's parameter; a --model beside --builtin was ignored
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"builtin": "driven_ring", "params": {"sites": 4}}))
    out = tmp_path / "o"
    argv = ["sweep", "--builtin", "static", "--model", str(model), *SWEEP_ARGS, "--out", str(out)]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config" and "--model" in err["message"]
    assert not out.exists()


def test_variational_budget_defaults_come_from_the_config():
    args = build_parser().parse_args(["variational", "--builtin", "static", "--out", "o"])
    config = ft.VariationalConfig()
    assert args.restarts == config.restarts
    assert args.seed == config.seed


@pytest.mark.parametrize("option", [["--restarts", "-1"]])
def test_variational_invalid_budget_exits_config(tmp_path, capsys, option):
    out = tmp_path / "o"
    code = main(["variational", "--builtin", "static", *option, "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert not out.exists()


def test_variational_has_no_max_iters_option(tmp_path, capsys):
    # a penalty stage stops after STAGE_ITERATIONS: no iteration budget to set
    out = tmp_path / "o"
    assert main(["variational", "--builtin", "static", "--max-iters", "5", "--out", str(out)]) == 2
    assert "unrecognized arguments: --max-iters 5" in capsys.readouterr().err
    assert not out.exists()


def test_compare_has_no_steps_option(tmp_path, capsys):
    argv = ["compare", "--builtin", "static", "--steps", "4096", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "unrecognized arguments: --steps 4096" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-3", "-0.5", "1.5", "many"])
def test_invalid_harmonics_exits_config(tmp_path, capsys, value):
    code = main(
        ["solve", "--builtin", "static", "--harmonics", value, "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "--harmonics" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--builtin", "static"],
        ["compare", "--builtin", "static"],
        ["sweep", "--builtin", "static", "--sweep-param", "omega",
         "--sweep-start", "0.6", "--sweep-stop", "0.7", "--sweep-count", "2"],
        ["perturb"],
    ],
)
def test_seed_only_on_variational(tmp_path, capsys, argv):
    assert main(argv + ["--seed", "7", "--out", str(tmp_path / "o")]) == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    for i in range(3):
        assert main(["solve", "--builtin", "static", "--out", str(tmp_path / str(i))]) == 0
    assert built == [1]


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    # main reuses one parser: neither a --param nor a refused argv may reach
    # the next call, which solves the default 6-site ring
    ring = ["solve", "--builtin", "driven_ring"]
    assert main([*ring, "--param", "sites=4", "--out", str(tmp_path / "a")]) == 0
    assert len(read_csv(tmp_path / "a" / "spectrum.csv")) == 4
    assert main([*ring, "--param", "sites=5", "--bogus", "--out", str(tmp_path / "r")]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main([*ring, "--out", str(tmp_path / "b")]) == 0
    assert len(read_csv(tmp_path / "b" / "spectrum.csv")) == 6
    assert cli._parser().parse_args([*ring, "--out", "o"]).param == []


def test_main_runs_the_command_bound_on_the_module_at_call_time(tmp_path, monkeypatch):
    # the benchmark's tracer rebinds cli.cmd_* after the parser is built
    assert main(["solve", "--builtin", "static", "--out", str(tmp_path / "a")]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args.builtin) or 0)
    assert main(["solve", "--builtin", "static", "--out", str(tmp_path / "b")]) == 0
    assert seen == ["static"]
    assert not (tmp_path / "b").exists()


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("floqtriplet ")
    ]
    assert len(commands) == 6
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]


@pytest.mark.parametrize("command", ["solve", "variational", "compare", "sweep"])
def test_harmonics_below_model_order_exits_config(tmp_path, capsys, command):
    # M = 0 cannot hold the m = +-1 drive at all: a bad input, not a
    # convergence failure of the solver.  A sweep is checked at every point
    # before any is solved: at its first, v = 0, the drive vanishes
    out = tmp_path / "o"
    extra = {"sweep": ["--sweep-param", "v", "--sweep-start", "0", "--sweep-stop", "0.2",
                       "--sweep-count", "3"]}.get(command, [])
    code = main([command, "--builtin", "two_level_linear", *extra, "--harmonics", "0",
                 "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert "below the largest harmonic index 1" in err["message"]
    assert not out.exists()


def _one_harmonic_model(path, m):
    path.write_text(json.dumps({"dim": 2, "omega": 1.5, "harmonics": [
        {"m": m, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}]}))
    return str(path)


@pytest.mark.parametrize("harmonics", [["--harmonics", "0"], ["--harmonics", "4"], []],
                         ids=["fixed-0", "fixed-4", "auto"])
def test_perturb_below_the_perturbed_order_exits_config(tmp_path, capsys, harmonics):
    # two_level_linear certifies at M = 4; the m = 5 perturbation exited 4 at
    # the auto cutoff, as a convergence failure, after the base model's solve
    pert = _one_harmonic_model(tmp_path / "v5.json", 5)
    out = tmp_path / "o"
    code = main(["perturb", "--builtin", "two_level_linear", "--pert-model", pert, *harmonics,
                 "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert "is below the largest harmonic index" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "content", [b"3", b"null", b"true", b"[]", b'{"builtin": "static", "params": 3}', b"\xff\xfe{}", b""],
    ids=["number", "null", "true", "list", "params-number", "not-utf-8", "empty"],
)
def test_model_file_that_is_not_a_json_object_exits_config(tmp_path, capsys, content):
    # a number, null or true crashed with a TypeError, and so did a number
    # for a built-in's params; a decode failure did not name the file
    model = tmp_path / "m.json"
    model.write_bytes(content)
    out = tmp_path / "o"
    assert main(["solve", "--model", str(model), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert "malformed model JSON" in err["message"] or str(model) in err["message"]
    assert not out.exists()


def test_harmonics_at_model_order_is_accepted(tmp_path):
    # the static model has no drive, so M = 0 is its own order
    assert main(["solve", "--builtin", "static", "--harmonics", "0", "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command", ["solve", "variational"])
def test_huge_dim_without_harmonics_exits_config(tmp_path, capsys, command):
    # with no H_0 stored the model's level reach built a d x d zero matrix,
    # and the dense-matrix guard read it before its size check: a traceback
    model = tmp_path / "m.json"
    model.write_text('{"dim": 1000000000, "omega": 1.0, "harmonics": []}')
    out = tmp_path / "o"
    assert main([command, "--model", str(model), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert "dense" in err["message"] and "GiB limit" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("dim, message", [
    # the dense-limit message divided a size beyond float range: OverflowError
    ("1e308", "GiB limit"),
    # float() of a JSON integer beyond float range: OverflowError
    ("1" + "0" * 400, "dim is out of range"),
], ids=["1e308", "10**400"])
def test_dim_beyond_float_range_exits_config(tmp_path, capsys, dim, message):
    model = tmp_path / "m.json"
    model.write_text(f'{{"dim": {dim}, "omega": 1.0, "harmonics": []}}')
    out = tmp_path / "o"
    assert main(["solve", "--model", str(model), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config" and message in err["message"]
    assert not out.exists()


def test_harmonic_above_the_largest_auto_cutoff_exits_config(tmp_path, capsys):
    # m = 65 is above MAX_TRUNCATION = 64, so no rung of the auto cutoff can
    # hold it: a configuration limit (exit 2), not a convergence failure;
    # a fixed cutoff of 65 solves the same model
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"dim": 1, "omega": 1.0, "harmonics": [
        {"m": 0, "re": [[0.5]], "im": [[0.0]]}, {"m": 65, "re": [[0.1]], "im": [[0.0]]}]}))
    for command in ("solve", "variational"):
        out = tmp_path / command
        assert main([command, "--model", str(model), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["kind"] == "config"
        assert "MAX_TRUNCATION = 64" in err["message"]
        assert not out.exists()
    with pytest.warns(RuntimeWarning, match="below convergence"):
        code = main(["solve", "--model", str(model), "--harmonics", "65", "--out", str(tmp_path / "f")])
    assert code == 0
