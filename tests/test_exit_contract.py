"""The exit contract of `cli.main` over hostile model files and argv.

Small valid payloads of both model schemas (explicit harmonics, and a
built-in with params) are mutated: a type swap at any node, a list nested
one level deeper or flattened, a bool inside a list, a missing or an extra
key, non-finite and extreme values, a duplicate or non-integral m, a
non-Hermitian +/- pair, a re of another shape than its im, and a huge dim,
only with empty harmonics so that nothing large is allocated.  Whatever the
file holds, `solve --model`, `compare --model` and `variational --model`
return 0, 2, 3 or 4 and raise nothing; a failed solve leaves no output
directory, a compare writes its table on exits 0 and 3 and nothing on exit
2, and a variational run writes only its result, flagged when exit 4.

Valid argv of all five commands are mutated too, by option: dropped, given
twice, moved, swapped in value with another, given a junk or extreme value,
or joined by an unknown flag.  Every call returns 0, 2, 3 or 4 through the
one parser `main` keeps per process, and an argv the parser refuses starts
no solve.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqtriplet import cli, oracle, sambe
from floqtriplet.cli import main
from floqtriplet.model import MODEL_DEFAULTS, ModelError, load_model

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)

# values that stand in for any node: wrong types, wrong nesting, extremes;
# drawn as copies, since a mutation may change a drawn list in place
ODD = [True, False, "1", "x", None, [], {}, [1.0], [[1.0]], [True, 1.5], 0, -1, 0.5,
       1e308, -1e308, math.nan, math.inf, -math.inf, 10**30, 2**63, 10**400]


@st.composite
def explicit_payloads(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    entries = []
    for m in draw(st.lists(st.integers(min_value=-2, max_value=2), max_size=3, unique=True)):
        re = [[draw(unit) for _ in range(dim)] for _ in range(dim)]
        im = [[draw(unit) for _ in range(dim)] for _ in range(dim)]
        if m == 0:  # Hermitian: symmetric real part, antisymmetric imaginary part
            re = [[(re[i][j] + re[j][i]) / 2 for j in range(dim)] for i in range(dim)]
            im = [[(im[i][j] - im[j][i]) / 2 for j in range(dim)] for i in range(dim)]
        entries.append({"m": m, "re": re, "im": im})
    if entries and entries[-1]["m"] != 0 and draw(st.booleans()):
        # the partner given explicitly, as the conjugate transpose
        last = entries[-1]
        entries.append({"m": -last["m"], "re": [list(r) for r in zip(*last["re"])],
                        "im": [[-x for x in r] for r in zip(*last["im"])]})
    omega = draw(st.floats(min_value=0.5, max_value=3.0))
    return {"dim": dim, "omega": omega, "harmonics": entries}


@st.composite
def builtin_payloads(draw):
    name = draw(st.sampled_from(sorted(MODEL_DEFAULTS)))
    params = {}
    for key in draw(st.lists(st.sampled_from(sorted(MODEL_DEFAULTS[name])), unique=True)):
        if key == "sites":
            params[key] = draw(st.integers(min_value=3, max_value=6))
        elif key == "levels":
            params[key] = draw(st.lists(unit, min_size=1, max_size=3))
        elif key == "omega":
            params[key] = draw(st.floats(min_value=0.5, max_value=3.0))
        else:
            params[key] = draw(unit)
    return {"builtin": name, "params": params}


def nodes(obj, path=()):
    """Every (path, node) of a payload of dicts and lists, the root first."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield from nodes(child, (*path, key))


def parent_of(obj, path):
    for key in path[:-1]:
        obj = obj[key]
    return obj


def replace(obj, path, value):
    if not path:
        return value
    parent_of(obj, path)[path[-1]] = value
    return obj


def mutate(data, payload):
    """payload with one hostile change at a node drawn by data."""
    path, node = data.draw(st.sampled_from(list(nodes(payload))))
    kind = data.draw(st.sampled_from(["swap", "nest", "flatten", "bool", "drop", "extra"]))
    if kind == "swap":
        return replace(payload, path, copy.deepcopy(data.draw(st.sampled_from(ODD))))
    if kind == "nest":
        return replace(payload, path, [node])
    if kind == "flatten" and isinstance(node, list) and node:
        return replace(payload, path, node[0])
    if kind == "bool" and isinstance(node, list) and node:
        node[data.draw(st.integers(0, len(node) - 1))] = data.draw(st.booleans())
    elif kind == "drop" and path:
        del parent_of(payload, path)[path[-1]]
    elif kind == "extra" and isinstance(node, dict):
        key = data.draw(st.sampled_from(["extra", "m", "dim", "params", "builtin"]))
        node[key] = copy.deepcopy(data.draw(st.sampled_from(ODD)))
    return payload


def break_harmonics(data, payload):
    """A valid explicit payload with a repeated m, a -m partner that is not
    the conjugate transpose, a re of another shape than its im, or a huge
    dim with no harmonics; and the kind drawn."""
    kind = data.draw(st.sampled_from(["repeat m", "pair", "re shape", "huge dim"]))
    if kind == "huge dim":
        return {**payload, "dim": data.draw(st.sampled_from([10**9, 10**18, 2**63])),
                "harmonics": []}, kind
    if payload["harmonics"]:
        entry = json.loads(json.dumps(data.draw(st.sampled_from(payload["harmonics"]))))
        if kind == "re shape":
            # its re replaced by a scalar or a row, which re + 1j * im would broadcast
            payload["harmonics"].remove(entry)
            entry["re"] = entry["re"][0][0] if data.draw(st.booleans()) else entry["re"][0]
        elif kind == "pair":
            entry["m"] = -entry["m"] if entry["m"] else 1
            entry["re"] = [[x + 0.25 for x in row] for row in entry["re"]]
        payload["harmonics"].append(entry)
    return payload, kind


PAYLOADS = st.sampled_from([explicit_payloads(), builtin_payloads()])


def write_mutated_model(data, schema, path: Path) -> bool:
    """Write a drawn payload, broken and mutated, to path; whether its only
    defect is a reshaped re (a file that must be refused)."""
    payload = data.draw(schema)
    broken = "harmonics" in payload and data.draw(st.booleans())
    reshaped = False
    if broken:
        payload, kind = break_harmonics(data, payload)
        reshaped = kind == "re shape" and bool(payload["harmonics"])
    mutations = data.draw(st.integers(min_value=0 if broken else 1, max_value=2))
    for _ in range(mutations):
        payload = mutate(data, payload)
    path.write_text(json.dumps(payload))
    return reshaped and not mutations


def run_on_mutated_model(data, schema, command: str, tmp: str, *extra: str) -> tuple[int, Path]:
    """The exit code of `command --model` on a drawn payload, broken and
    mutated, with the extra argv, and its output directory; a payload whose
    only defect is a reshaped re must exit 2."""
    path = Path(tmp) / "model.json"
    refused = write_mutated_model(data, schema, path)
    out = Path(tmp) / "out"
    code = main([command, "--model", str(path), *extra, "--out", str(out)])
    assert code in (0, 2, 3, 4)
    if refused:
        assert code == 2
    return code, out


@settings(max_examples=150, deadline=None)
@given(data=st.data(), schema=PAYLOADS)
def test_solve_model_keeps_the_exit_contract(data, schema):
    with tempfile.TemporaryDirectory() as tmp:
        code, out = run_on_mutated_model(data, schema, "solve", tmp)
        assert code == 0 or not out.exists()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), schema=PAYLOADS)
def test_variational_model_keeps_the_exit_contract(data, schema):
    # exits 2 and 3 write nothing; exit 4 writes the unconverged result it
    # flags, or nothing when the cutoff cannot be certified
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code, out = run_on_mutated_model(data, schema, "variational", tmp)
        if code in (2, 3):
            assert not out.exists()
        elif code == 0 or out.exists():
            assert json.loads((out / "variational.json").read_text())["converged"] is (code == 0)


@pytest.mark.filterwarnings("ignore:truncation M=", "ignore:Fourier tail weight")
@settings(max_examples=40, deadline=None)
@given(data=st.data(), schema=PAYLOADS)
def test_compare_model_keeps_the_exit_contract(data, schema):
    # 64 steps, one partial chunk of the streamed oracle, keep a compare fast;
    # exit 2 writes nothing, exits 0 and 3 write the table the gate read
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "STEPS_PER_PERIOD", 64)
        with contextlib.redirect_stdout(io.StringIO()):
            code, out = run_on_mutated_model(data, schema, "compare", tmp)
        if code == 2:
            assert not out.exists()
        elif code in (0, 3):
            assert (out / "compare.csv").is_file()


@pytest.mark.filterwarnings("ignore:truncation M=", "ignore:Fourier tail weight")
@settings(max_examples=30, deadline=None)
@given(data=st.data(), schema=PAYLOADS, pert_schema=PAYLOADS)
def test_perturb_model_keeps_the_exit_contract(data, schema, pert_schema):
    # both files drawn, broken and mutated; a perturbation file that must be
    # refused, or one of another dimension, exits 2 and writes nothing
    with tempfile.TemporaryDirectory() as tmp:
        pert = Path(tmp) / "pert.json"
        refused = write_mutated_model(data, pert_schema, pert)
        with contextlib.redirect_stdout(io.StringIO()):
            code, out = run_on_mutated_model(data, schema, "perturb", tmp, "--pert-model", str(pert))
        dims = []
        for path in (Path(tmp) / "model.json", pert):
            try:
                dims.append(load_model(path).dim)
            except (ModelError, ValueError):  # the errors the CLI exits 2 on
                pass
        if refused or (len(dims) == 2 and dims[0] != dims[1]):
            assert code == 2
        if code == 2:
            assert not out.exists()
        elif code == 0:
            assert (out / "tracking.csv").is_file()


# --- argv --------------------------------------------------------------------

# values that stand in for any option's value: junk, extremes, a flag, a key=value
ODD_VALUES = ["x", "", "-1", "0", "1", "nan", "inf", "-inf", "1e308", "-1e308", "1" + "0" * 30,
              "1,2", "=", "--out", "v=1e308", "omega=-1", "levels=x", "sites=1e9"]
UNKNOWN = [["--bogus"], ["-z", "1"], ["--tol-deg", "0.05"], ["--steps", "64"], ["extra"], ["-h"]]


def base_argv(command: str, builtin: str, pert: Path) -> list[list[str]]:
    """A valid argv of command on builtin, as option-value pairs; --out last."""
    argv = [["--builtin", builtin], ["--param", "omega=0.9"], ["--harmonics", "auto"]]
    if command == "compare":
        argv.append(["--gate", "1e-6"])
    elif command == "variational":
        argv += [["--restarts", "2"], ["--seed", "3"]]
    elif command == "sweep":
        param = "levels.1" if builtin == "static" else "v"
        argv += [["--sweep-param", param], ["--sweep-start", "0.1"], ["--sweep-stop", "0.3"],
                 ["--sweep-count", "2"]]
    elif command == "perturb":
        argv += [["--pert-model", str(pert)], ["--strength", "1e-3"]]
    return argv


def mutate_argv(data, pairs: list[list[str]]) -> list[list[str]]:
    """pairs with one hostile change: an option dropped, given twice, swapped
    in order or value with another, given an odd value, or an unknown flag
    added.  --out keeps its value, so nothing is written outside the test's
    directory."""
    kind = data.draw(st.sampled_from(["drop", "duplicate", "swap order", "swap value", "odd",
                                      "unknown"]))
    i = data.draw(st.integers(0, len(pairs) - 1))
    j = data.draw(st.integers(0, len(pairs) - 1))
    if kind == "drop":
        del pairs[i]
    elif kind == "duplicate":
        pairs.insert(j, list(pairs[i]))
    elif kind == "swap order":
        pairs[i], pairs[j] = pairs[j], pairs[i]
    elif kind == "swap value" and "--out" not in (pairs[i][0], pairs[j][0]):
        pairs[i][1:], pairs[j][1:] = pairs[j][1:], pairs[i][1:]
    elif kind == "odd" and pairs[i][0] != "--out":
        pairs[i][1:] = [data.draw(st.sampled_from(ODD_VALUES))]
    elif kind == "unknown":
        pairs.insert(j, list(data.draw(st.sampled_from(UNKNOWN))))
    return pairs


@pytest.mark.filterwarnings("ignore:truncation M=", "ignore:Fourier tail weight")
@settings(max_examples=300, deadline=None)
@given(data=st.data(), command=st.sampled_from(["solve", "compare", "variational", "sweep",
                                                "perturb"]),
       builtin=st.sampled_from(["static", "two_level_linear"]))
def test_every_command_keeps_the_exit_contract_over_mutated_argv(data, command, builtin):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        # the contract, not the oracle's accuracy, is under test: 64 steps keep
        # a compare fast; the static model's oracle is exact at any count, and
        # two_level_linear's exits 3 at the gate
        mp.setattr(oracle, "STEPS_PER_PERIOD", 64)
        rungs = []
        rung = sambe._rung
        mp.setattr(sambe, "_rung", lambda *args, **kwargs: rungs.append(1) or rung(*args, **kwargs))
        pert = Path(tmp) / "pert.json"
        pert.write_text(json.dumps({"builtin": builtin, "params": {"omega": 0.9}}))
        out = Path(tmp) / "out"
        pairs = [*base_argv(command, builtin, pert), ["--out", str(out)]]
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            pairs = mutate_argv(data, pairs)
        argv = [command, *(token for pair in pairs for token in pair)]
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli._parser().parse_args(argv)
            refused = None
        except SystemExit as exc:
            refused = exc.code
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4)
        if refused is not None:  # by the parser: no solve started
            assert code == (0 if refused == 0 else 2)
            assert not rungs
        # compare writes the table its gate read (exit 3), variational its
        # unconverged result (exit 4); every other failure writes nothing
        assert code == 0 or (command, code) in {("compare", 3), ("variational", 4)} \
            or not out.exists()
