"""Batch front door: solve, compare, variational, sweep, perturb.

Exit codes are a contract for CI: 0 success, 2 configuration problem,
3 cross-validation gate violation, 4 solver non-convergence.  Full-fidelity
results go to compact UTF-8 JSON (written by orjson), analyst-facing tables
to CSV; numeric fields use shortest round-trip float formatting so
re-reading a result reproduces it bitwise, and a NaN or infinity in a JSON
result is refused rather than written.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

# only the layers `solve` runs load here; the oracle, variational and
# analysis layers load inside the commands that run them
from . import sambe
from ._config import VariationalConfig
from .model import (
    FourierHamiltonian,
    ModelError,
    builtin_model,
    load_model,
)
from .sambe import PropagationError, SolverError, TruncationError, wrap_distance

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GATE = 3
EXIT_NONCONVERGENCE = 4
# `compare` exits 3 when the Sambe and oracle modes of a (quasi-energy group,
# Ebar-tie) set span subspaces whose overlap block has a singular value below
# this; every built-in, 36 benchmark rings and 18 random and strongly driven
# models give at least 1 - 7.1e-12
MODE_SIGMA_MIN = 1.0 - 1e-6
# Bytes a sweep holds per grid point until it ends (its record and its CSV
# rows; each point's model is dropped once the point is solved), by
# tracemalloc between 20 and 60 points: 0.9 to 1.8 KB for the built-ins at
# their defaults and the rings of up to 16 sites, growing by about 80 bytes
# a state beyond (2.3 to 4.1 KB at 24 sites, 4.1 KB at 48).  A point is
# taken as SWEEP_POINT_BYTES or SWEEP_HARMONIC_FACTOR times its model's
# harmonic bytes, the larger: 27.6 KB at 24 sites, for a term that grows
# with the square of the states where what a point holds grows with their
# number.  `sambe.MAX_DENSE_BYTES` over it bounds --sweep-count.
SWEEP_POINT_BYTES = 2400
SWEEP_HARMONIC_FACTOR = 1


class GateError(RuntimeError):
    def __init__(self, message: str, rows: list[dict]):
        super().__init__(message)
        self.rows = rows


def _parse_param_value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if "," in text:
        try:
            return [float(part) for part in text.split(",")]
        except ValueError:
            pass
    return text


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ModelError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        params[key] = _parse_param_value(value)
    return params


def _resolve_model(args) -> FourierHamiltonian:
    if bool(args.model) == bool(args.builtin):
        raise ModelError("give exactly one of --model or --builtin")
    if args.model:
        return load_model(args.model)
    return builtin_model(args.builtin, _parse_params(args.param))


def _truncation_arg(text: str):
    if text == "auto":
        return text
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected 'auto' or an integer >= 0, got {text!r}")
    return int(text)


def _gate_arg(text: str) -> float:
    gate = float(text)
    if not (np.isfinite(gate) and gate > 0):
        raise argparse.ArgumentTypeError(f"gate must be finite and > 0, got {text!r}")
    return gate


def _finite_arg(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _finite(obj) -> bool:
    """Whether every float in a payload of dicts, lists, numbers, strings
    and numpy values is finite."""
    if isinstance(obj, dict):
        return all(map(_finite, obj.values()))
    if isinstance(obj, (list, tuple)):
        try:
            # a flat list of numbers, such as a row of mode coefficients: a
            # NaN or infinity makes the sum non-finite, and a sum that
            # overflows from finite terms is settled term by term
            return math.isfinite(sum(obj)) or all(map(math.isfinite, obj))
        except TypeError:
            return all(map(_finite, obj))
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, (np.floating, np.ndarray)):
        return bool(np.isfinite(obj).all())
    return True


def _write_json(path: Path, payload: dict):
    """Write strict JSON as compact UTF-8 with shortest round-trip floats.

    orjson writes a NaN or infinity as null, so the payload is checked
    first: a non-finite value raises ValueError and writes nothing, no
    directory either."""
    import orjson

    if not _finite(payload):
        raise ValueError("Out of range float values are not JSON compliant")
    data = orjson.dumps(payload, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _write_csv(path: Path, header: list[str], rows: list[list]):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
            fh.write("\n")


def _state_rows(states) -> tuple[list[str], list[list]]:
    """CSV header and one row per state, for eigentriplets and variational
    results alike."""
    rows = [
        [i, s.quasi_energy, s.avg_energy, s.residual, s.mode.centroid()]
        for i, s in enumerate(states)
    ]
    return ["state", "eps", "ebar", "residual", "centroid"], rows


def cmd_solve(args) -> int:
    h = _resolve_model(args)
    spectrum = sambe.solve_spectrum(h, args.harmonics)
    spectrum.metadata["timestamp"] = datetime.datetime.now().isoformat()
    out = Path(args.out)
    _write_json(out / "spectrum.json", spectrum._payload(lists=False))
    _write_csv(out / "spectrum.csv", *_state_rows(spectrum))
    print(f"solved {len(spectrum)} states at M={spectrum.metadata['truncation']}")
    return EXIT_OK


def cmd_compare(args) -> int:
    from . import analysis, oracle

    h = _resolve_model(args)
    spec_s = sambe.solve_spectrum(h, args.harmonics)
    spec_o = oracle.oracle_spectrum(h, spec_s.metadata["truncation"])
    overlaps = analysis.overlap_matrix(spec_s, spec_o)
    partner = analysis._assignment(1.0 - overlaps)
    rows = []
    worst = 0.0
    for i, j in enumerate(partner):
        deps = float(
            wrap_distance(spec_s[i].quasi_energy, spec_o[j].quasi_energy, h.omega)
        )
        debar = float(abs(spec_s[i].avg_energy - spec_o[j].avg_energy))
        rows.append(
            [int(i), deps, debar, float(overlaps[i, j])]
        )
        worst = max(worst, deps, debar)
    out = Path(args.out)
    _write_csv(out / "compare.csv", ["state", "delta_eps", "delta_ebar", "overlap"], rows)
    offending = [
        {"state": r[0], "delta_eps": r[1], "delta_ebar": r[2], "overlap": r[3]}
        for r in rows
        if r[1] > args.gate or r[2] > args.gate
    ]
    # the modes: states whose Ebar agree within the gate may mix in either
    # route, so each set of them is compared as a subspace
    sets = analysis.mode_agreement(spec_s, spec_o, partner, args.gate)
    sigma = min(s for _, s in sets)
    mode_offending = [{"states": states, "sigma_min": s} for states, s in sets if s < MODE_SIGMA_MIN]
    problems = []
    if offending:
        problems.append(f"cross-method disagreement up to {worst:.3e} exceeds gate {args.gate:.1e}")
    if mode_offending:
        problems.append(
            f"mode subspaces disagree: smallest singular value {sigma:.12f} of an "
            f"overlap block is below {MODE_SIGMA_MIN:.12f}"
        )
    if problems:
        raise GateError("; ".join(problems), offending + mode_offending)
    print(
        f"compare ok: worst delta {worst:.3e} within gate {args.gate:.1e}, "
        f"smallest mode singular value {sigma:.12f}"
    )
    return EXIT_OK


def cmd_variational(args) -> int:
    from . import variational

    h = _resolve_model(args)
    config = VariationalConfig(restarts=args.restarts, seed=args.seed)
    result = variational.minimize_ground(h, args.harmonics, config)
    out = Path(args.out)
    _write_json(out / "variational.json", result.to_json_dict())
    _write_csv(out / "variational.csv", *_state_rows([result]))
    if not result.converged:
        print(
            json.dumps(
                {
                    "kind": "convergence",
                    "message": "variational solver did not reach every Floquet state; "
                    "increase --restarts or --harmonics",
                    "residual": result.residual,
                }
            )
        )
        return EXIT_NONCONVERGENCE
    print(f"variational ground: eps={result.quasi_energy!r} ebar={result.avg_energy!r}")
    return EXIT_OK


def _sweep_point_bytes(name: str, params: dict, axis: str, ends: list[float]) -> int:
    """Bytes a sweep holds per grid point, sized by the larger model at the
    grid's two ends; an end that is no model fails as a point, holding only
    its record."""
    from . import analysis

    harmonic_bytes = [0]
    for point in analysis._sweep_points(name, params, axis, ends):
        try:
            h = builtin_model(name, point)
        except Exception:  # recorded as that point's failure by the sweep
            continue
        harmonic_bytes.append(sum(mat.nbytes for mat in h.harmonics.values()))
    return max(SWEEP_POINT_BYTES, SWEEP_HARMONIC_FACTOR * max(harmonic_bytes))


def cmd_sweep(args) -> int:
    from . import analysis

    if not args.builtin or args.model:
        raise ModelError("sweep needs --builtin with --param defaults, and no --model")
    params = _parse_params(args.param)
    if args.sweep_count < 1:
        raise ModelError("--sweep-count must be >= 1")
    point_bytes = _sweep_point_bytes(
        args.builtin, params, args.sweep_param, [args.sweep_start, args.sweep_stop]
    )
    limit = sambe.MAX_DENSE_BYTES // point_bytes
    if args.sweep_count > limit:
        raise ModelError(
            f"--sweep-count {args.sweep_count} is above the limit {limit}: a sweep holds "
            f"about {point_bytes} bytes per point until it ends, and {limit} points "
            f"fill the {sambe.MAX_DENSE_BYTES / 1024**3:.0f} GiB limit"
        )
    values = np.linspace(args.sweep_start, args.sweep_stop, args.sweep_count)
    records = analysis.sweep_values(args.builtin, params, args.sweep_param, values, args.harmonics)
    rows: list[list] = []
    errors = []
    for record in records:
        if "error" in record:
            errors.append(record)
            continue
        for state, (eps, ebar) in enumerate(zip(record["eps"], record["ebar"])):
            rows.append([record["value"], state, eps, ebar])
    out = Path(args.out)
    _write_csv(out / "sweep.csv", ["lambda", "state", "eps", "ebar"], rows)
    if errors:
        _write_json(out / "sweep_errors.json", {"errors": errors})
    print(f"sweep wrote {len(rows)} rows ({len(errors)} failed points)")
    return EXIT_OK


def cmd_perturb(args) -> int:
    from . import analysis

    if args.builtin or args.model:
        h = _resolve_model(args)
        if not args.pert_model:
            raise ModelError("perturb needs --pert-model when a model is given")
        v = load_model(args.pert_model)
        strength = args.strength if args.strength is not None else 1e-6 * h.omega
    elif args.pert_model:
        raise ModelError("perturb --pert-model needs --model or --builtin for the model to perturb")
    else:
        h, v, strength = analysis.degeneracy_contrast_fixture()
        if args.strength is not None:
            strength = args.strength
    report = analysis.perturb_and_track(h, v, strength, args.harmonics)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "tracking.csv").write_text(report.to_csv(), encoding="utf-8")
    print(
        f"perturb: min label overlap {report.overlap_label.min():.6f}, "
        f"min q-order overlap {report.overlap_qorder.min():.6f}"
    )
    return EXIT_OK


def _add_model_arguments(parser: argparse.ArgumentParser):
    parser.add_argument("--model", help="path to a model JSON file")
    parser.add_argument("--builtin", help="built-in model name")
    parser.add_argument(
        "--param", action="append", default=[], metavar="K=V",
        help="builtin parameter override (repeatable)"
    )
    parser.add_argument(
        "--harmonics", type=_truncation_arg, default="auto", metavar="M|auto"
    )
    parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floqtriplet",
        description="Floquet eigentriplet solver: quasi-energy plus average energy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="diagonalize and resolve a spectrum")
    _add_model_arguments(p_solve)

    p_compare = sub.add_parser("compare", help="cross-validate against propagation")
    _add_model_arguments(p_compare)
    p_compare.add_argument("--gate", type=_gate_arg, default=1e-6)

    p_var = sub.add_parser("variational", help="variational ground state")
    _add_model_arguments(p_var)
    defaults = VariationalConfig()
    p_var.add_argument(
        "--restarts",
        type=int,
        default=defaults.restarts,
        help="random starts beyond one per Floquet state",
    )
    p_var.add_argument("--seed", type=int, default=defaults.seed, help="first random-restart seed")

    p_sweep = sub.add_parser("sweep", help="parameter sweep with label continuity")
    _add_model_arguments(p_sweep)
    p_sweep.add_argument("--sweep-param", required=True)
    p_sweep.add_argument("--sweep-start", type=_finite_arg, required=True)
    p_sweep.add_argument("--sweep-stop", type=_finite_arg, required=True)
    p_sweep.add_argument("--sweep-count", type=int, required=True)

    p_pert = sub.add_parser("perturb", help="perturbation tracking experiment")
    _add_model_arguments(p_pert)
    p_pert.add_argument("--pert-model", help="path to the perturbation model JSON")
    p_pert.add_argument("--strength", type=_finite_arg, default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: argparse keeps no
    state between parses (it copies `--param`'s default list before
    appending), and the command function is looked up per call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        if args.param and not args.builtin:
            # --param overrides a built-in's parameters; nothing reads it otherwise
            raise ModelError("--param sets built-in model parameters and needs --builtin")
        # looked up at call time, so a cmd_* rebound on the module is the one run
        return globals()[f"cmd_{args.command}"](args)
    except (ModelError, ValueError) as exc:
        print(json.dumps({"kind": "config", "message": str(exc)}))
        return EXIT_CONFIG
    except GateError as exc:
        print(json.dumps({"kind": "gate", "message": str(exc), "rows": exc.rows}))
        return EXIT_GATE
    except (TruncationError, SolverError, PropagationError) as exc:
        print(json.dumps({"kind": "convergence", "message": str(exc)}))
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
