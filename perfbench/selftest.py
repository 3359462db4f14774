#!/usr/bin/env python3
"""Self-test of the benchmark's own checks and tracer, on small inputs.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Prints one line per case and
exits 1 if any case does not behave as stated.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def corrupted(src: Path, dst: Path, edit) -> Path:
    """Copy a solve output directory, applying `edit` to its state list."""
    shutil.copytree(src, dst)
    payload = json.loads((src / "spectrum.json").read_text())
    edit(payload["states"], payload["metadata"]["omega"])
    (dst / "spectrum.json").write_text(json.dumps(payload))
    return dst


def replica_of_first(states: list, omega: float):
    """Replace state 1 by state 0 shifted up one harmonic (a replica copy)."""
    first = states[0]
    states[1] = dict(
        first,
        coeffs_re=[[0.0] * len(first["coeffs_re"][0])] + first["coeffs_re"][:-1],
        coeffs_im=[[0.0] * len(first["coeffs_im"][0])] + first["coeffs_im"][:-1],
        quasi_energy_raw=first["quasi_energy_raw"] + omega,
    )


def nudge_ebar(states: list, omega: float):
    states[2]["avg_energy"] += 1e-6


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, str(run.SRC))
    from floqtriplet import cli, sambe
    from checks import check_compare, check_solve
    from tracer import Tracer
    from workloads import Op

    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = []

    def case(label: str, ok: bool):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {label}")

    try:
        ring = {"name": "driven_ring", "sites": 6, "v": 0.5, "omega": 2.3}
        solve = Op(["solve", "--builtin", "driven_ring"], ring)
        _, rc = run.run_op(cli, solve, work / "solve")
        case("an exact solve passes check_solve", not check_solve(solve, work / "solve", rc))
        bad = corrupted(work / "solve", work / "replica", replica_of_first)
        case("a state replaced by a replica shift of another fails",
             bool(check_solve(solve, bad, 0)))
        bad = corrupted(work / "solve", work / "nudged", nudge_ebar)
        case("an average energy moved by 1e-6 fails", bool(check_solve(solve, bad, 0)))
        case("a non-zero exit code fails", bool(check_solve(solve, work / "solve", 4)))

        compare = Op(["compare", "--builtin", "driven_ring"], ring)
        _, rc = run.run_op(cli, compare, work / "plain")
        original = sambe.build_sambe
        tracer = Tracer()
        tracer.install()
        try:
            _, traced_rc = run.run_op(cli, compare, work / "traced")
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        case("traced compare passes its check", not check_compare(compare, work / "traced", traced_rc))
        case("traced output is identical to untraced",
             rc == traced_rc == 0 and run.output_identity(work / "plain", work / "traced"))
        case("uninstall restores the package functions", sambe.build_sambe is original)
        calls = summary["oracle.propagate_trajectory"]["calls"]
        case(f"traced compare makes 12 propagate_trajectory calls (got {calls})", calls == 12)
        # 4096 steps for U(T), 4096 per trajectory, 4097 Simpson nodes per cluster
        calls = summary["model.FourierHamiltonian.eval_at_time"]["calls"]
        case(f"traced compare makes 77830 eval_at_time calls (got {calls})", calls == 77830)
        calls = summary["cli.main"]["calls"]
        case(f"one operation span per traced call (got {calls})", calls == 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
