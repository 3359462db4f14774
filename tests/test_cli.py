import csv
import dataclasses
import json
import shlex
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import floqtriplet as ft
from floqtriplet import oracle
from floqtriplet.cli import MODE_SIGMA_MIN, build_parser, main

from conftest import CIRCULAR_DEFAULT


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
    "harmonics",
    [
        {"0": 1},  # a mapping instead of a list of entries
        [{"m": 0, "re": [[1.0]]}],  # no "im"
        [{"m": 0, "re": [[1.0]], "im": [[0.0], [1.0, 2.0]]}],  # ragged rows
        3,
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


def test_compare_circular_within_gate(tmp_path):
    out = tmp_path / "run"
    code = main(["compare", "--builtin", "two_level_circular", "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "compare.csv")
    for row in rows:
        assert float(row["delta_eps"]) <= 1e-6
        assert float(row["delta_ebar"]) <= 1e-6


# compare.csv of the default 6-site ring, recorded from the oracle with
# Taylor step factors, whose U(T) test_oracle checks against extended precision
RING_COMPARE_ROWS = [
    (0, 2.830957746002838e-09, 1.27077370848383e-09, 1.0),
    (1, 5.417431170329223e-09, 3.1078701612230475e-08, 0.9999999999999998),
    (2, 7.393837542224446e-09, 2.2829556578507493e-08, 1.0),
    (3, 7.393837986313656e-09, 2.2829559020998147e-08, 0.9999999999999999),
    (4, 5.417431836463038e-09, 3.1078698947695216e-08, 1.0),
    (5, 2.830957246402477e-09, 1.2707745966622497e-09, 0.9999999999999997),
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
    # deliberately small M (with the clustering tolerance loosened so the
    # starved solve still completes): the cross-method gate catches it
    code = main(
        [
            "compare",
            "--builtin", "two_level_linear",
            "--harmonics", "2",
            "--tol-deg", "1e-4",
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


def test_variational_matches_solve_ground(tmp_path):
    out_s = tmp_path / "solve"
    out_v = tmp_path / "var"
    assert main(["solve", "--builtin", "static", "--out", str(out_s)]) == 0
    assert main(["variational", "--builtin", "static", "--out", str(out_v)]) == 0
    solve_rows = read_csv(out_s / "spectrum.csv")
    var_rows = read_csv(out_v / "variational.csv")
    assert abs(float(var_rows[0]["eps"]) - float(solve_rows[0]["eps"])) <= 1e-6
    assert abs(float(var_rows[0]["ebar"]) - float(solve_rows[0]["ebar"])) <= 1e-6


def test_variational_nonconvergence_exits_four(tmp_path, capsys):
    # d = 1 under a strong scalar drive, certified at M = 2: with no restarts
    # the only start ends on a replica cut by the truncation edge
    model = tmp_path / "scalar.json"
    model.write_text(json.dumps(
        {"dim": 1, "omega": 1.818, "harmonics": [
            {"m": 0, "re": [[-0.317]], "im": [[0]]},
            {"m": 1, "re": [[-0.929]], "im": [[0.875]]},
        ]}
    ))
    code = main(
        ["variational", "--model", str(model), "--restarts", "0", "--out", str(tmp_path / "o")]
    )
    assert code == 4
    payload = json.loads((tmp_path / "o" / "variational.json").read_text())
    assert payload["converged"] is False


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


def test_perturb_model_without_base_model_exits_config(tmp_path, capsys):
    # the --pert-model was ignored and the shipped fixture ran instead
    out = tmp_path / "o"
    code = main(["perturb", "--pert-model", str(tmp_path / "missing.json"), "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert "--model or --builtin" in err["message"]
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


@pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
@pytest.mark.parametrize("command", ["solve", "compare", "sweep", "variational"])
def test_invalid_tol_deg_exits_config(tmp_path, capsys, command, value):
    out = tmp_path / "o"
    extra = SWEEP_ARGS if command == "sweep" else []
    code = main(
        [command, "--builtin", "driven_ring", *extra, "--tol-deg", value, "--out", str(out)]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert "tol_deg must be finite and > 0" in err["message"]
    assert not out.exists()


def test_variational_fixed_truncation_checks_tol_deg(tmp_path):
    out = tmp_path / "o"
    argv = ["variational", "--builtin", "static", "--harmonics", "2", "--tol-deg", "nan"]
    assert main(argv + ["--out", str(out)]) == 2
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


@pytest.mark.parametrize("command", ["solve", "variational", "compare"])
def test_harmonics_below_model_order_exits_config(tmp_path, capsys, command):
    # M = 0 cannot hold the m = +-1 drive at all: a bad input, not a
    # convergence failure of the solver
    out = tmp_path / "o"
    code = main([command, "--builtin", "two_level_linear", "--harmonics", "0", "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config"
    assert "below the largest harmonic index 1" in err["message"]
    assert not out.exists()


def test_harmonics_at_model_order_is_accepted(tmp_path):
    # the static model has no drive, so M = 0 is its own order
    assert main(["solve", "--builtin", "static", "--harmonics", "0", "--out", str(tmp_path / "o")]) == 0
