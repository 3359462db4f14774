"""The exit contract of `solve --model` over hostile model files.

Small valid payloads of both model schemas (explicit harmonics, and a
built-in with params) are mutated: a type swap at any node, a list nested
one level deeper or flattened, a bool inside a list, a missing or an extra
key, non-finite and extreme values, a duplicate or non-integral m, a
non-Hermitian +/- pair, and a huge dim, only with empty harmonics so that
nothing large is allocated.  Whatever the file holds, `cli.main` returns
0, 2, 3 or 4, raises nothing, and leaves no output directory when it fails.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from floqtriplet.cli import main
from floqtriplet.model import MODEL_DEFAULTS

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
    the conjugate transpose, or a huge dim with no harmonics."""
    kind = data.draw(st.sampled_from(["repeat m", "pair", "huge dim"]))
    if kind == "huge dim":
        return {**payload, "dim": data.draw(st.sampled_from([10**9, 10**18, 2**63])),
                "harmonics": []}
    if payload["harmonics"]:
        entry = json.loads(json.dumps(data.draw(st.sampled_from(payload["harmonics"]))))
        if kind == "pair":
            entry["m"] = -entry["m"] if entry["m"] else 1
            entry["re"] = [[x + 0.25 for x in row] for row in entry["re"]]
        payload["harmonics"].append(entry)
    return payload


@settings(max_examples=150, deadline=None)
@given(data=st.data(), schema=st.sampled_from([explicit_payloads(), builtin_payloads()]))
def test_solve_model_keeps_the_exit_contract(data, schema):
    payload = data.draw(schema)
    broken = "harmonics" in payload and data.draw(st.booleans())
    if broken:
        payload = break_harmonics(data, payload)
    for _ in range(data.draw(st.integers(min_value=0 if broken else 1, max_value=2))):
        payload = mutate(data, payload)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(payload))
        out = Path(tmp) / "out"
        code = main(["solve", "--model", str(path), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        assert code == 0 or not out.exists()
