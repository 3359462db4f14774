"""The benchmark's workloads: generated CLI arguments plus their checks.

Within a workload every operation is the same command on the same model
size; the seed only jitters the drive parameters (and the variational
restart seed), so the median time per operation compares like with like.
Every jittered input exits 0 at the commit that introduced the benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class Op:
    """One CLI invocation (without --out) and the model the check rebuilds."""

    argv: list[str]
    model: dict
    points: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # seconds per operation at the commit that introduced the benchmark, with
    # one BLAS thread on a shared 2-core machine; it fixes the length of the
    # operation list for a given --seconds, so a faster program finishes the
    # same list sooner
    nominal_op_s: float
    make_ops: Callable[[random.Random, int], list[Op]]
    check: Callable

    def op_count(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_op_s))


def strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of `count` equal slices of [lo, hi), shuffled.

    Every operation list then spans the whole jitter range, so the mix of
    inputs differs little between seeds.
    """
    width = (hi - lo) / count
    draws = [lo + (k + rng.random()) * width for k in range(count)]
    rng.shuffle(draws)
    return draws


def _ring_drives(rng: random.Random, count: int):
    return zip(strata(rng, count, 0.45, 0.55), strata(rng, count, 2.2, 2.4))


def _solve_large(rng: random.Random, count: int) -> list[Op]:
    return [
        Op(["solve", "--builtin", "driven_ring", "--param", "sites=48",
            "--param", f"v={v!r}", "--param", f"omega={omega!r}"],
           {"name": "driven_ring", "sites": 48, "v": v, "omega": omega})
        for v, omega in _ring_drives(rng, count)
    ]


SWEEP_POINTS = 40


def _sweep_strong(rng: random.Random, count: int) -> list[Op]:
    # v does not enter Tr H_0, the only model property the sweep check uses
    return [
        Op(["sweep", "--builtin", "two_level_linear", "--param", "omega=0.9",
            "--sweep-param", "v", "--sweep-start", repr(start),
            "--sweep-stop", repr(start + 1.0), "--sweep-count", str(SWEEP_POINTS)],
           {"name": "two_level_linear", "v": start, "omega": 0.9}, SWEEP_POINTS)
        for start in strata(rng, count, 2.5, 2.7)
    ]


def _compare_oracle(rng: random.Random, count: int) -> list[Op]:
    return [
        Op(["compare", "--builtin", "driven_ring",
            "--param", f"v={v!r}", "--param", f"omega={omega!r}"],
           {"name": "driven_ring", "sites": 6, "v": v, "omega": omega})
        for v, omega in _ring_drives(rng, count)
    ]


def _variational_ground(rng: random.Random, count: int) -> list[Op]:
    return [
        Op(["variational", "--builtin", "driven_ring", "--param", "sites=3",
            "--param", f"v={v!r}", "--param", f"omega={omega!r}",
            "--seed", str(rng.randrange(1 << 16))],
           {"name": "driven_ring", "sites": 3, "v": v, "omega": omega})
        for v, omega in _ring_drives(rng, count)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-large",
            "one dense n=816 extended-space solve (48-site ring, M=8): the sambe layer does nearly all the work",
            3.9, _solve_large, checks.check_solve,
        ),
        Workload(
            "sweep-strong",
            "40-point strong-drive two-level sweep certifying M=32: many tiny sambe solves, per-call overhead dominates",
            1.8, _sweep_strong, checks.check_sweep,
        ),
        Workload(
            "compare-oracle",
            "6-site ring cross-check: time propagation in the oracle does about 80% of the work",
            2.4, _compare_oracle, checks.check_compare,
        ),
        Workload(
            "variational-ground",
            "3-site ring variational ground state: the only workload where the variational solver runs",
            2.3, _variational_ground, checks.check_variational,
        ),
    )
}

# Which end-to-end metric each per-layer metric should move, and on which
# workloads; on every other workload its layer is idle and the prediction
# is no movement.
PREDICTIONS = (
    (("sambe.certify_truncation.s", "sambe.solve_at_truncation.calls"),
     ("op_p50_ref", "wall_ref"), ("solve-large", "sweep-strong")),
    (("sambe.diagonalize.self_s", "sambe.diagonalize.calls", "sambe.diagonalize.n3"),
     ("op_p50_ref",), ("solve-large",)),
    (("sambe.build_sambe.calls", "sambe.build_sambe.self_s"),
     ("op_p50_ref",), ("sweep-strong",)),
    (("sambe.build_sambe.bytes",), ("peak_rss_mb",), ("solve-large",)),
    (("sambe.build_energy_matrix.calls", "sambe.build_energy_matrix.self_s",
      "sambe.group_degeneracies.self_s", "sambe.resolve_degeneracies.self_s"),
     ("op_p50_ref",), ("solve-large",)),
    (("sambe.select_representatives.self_s",),
     ("op_p50_ref",), ("sweep-strong", "solve-large")),
    (("oracle.propagate_period.s", "oracle.propagate_trajectory.calls",
      "oracle.propagate_trajectory.s", "oracle.mode_from_propagation.self_s",
      "oracle.oracle_spectrum.self_s", "model.eval_at_time.calls", "model.eval_at_time.s",
      "analysis.overlap_matrix.s"),
     ("op_p50_ref",), ("compare-oracle",)),
    (("variational.minimize_ground.s", "variational.minimize.calls",
      "variational.objective.calls", "variational.objective.s", "variational.optimizer.s"),
     ("op_p50_ref",), ("variational-ground",)),
    (("analysis.sweep_values.self_s",), ("op_p50_ref",), ("sweep-strong",)),
    (("cli.self_s", "cli.output_bytes"), ("op_p50_ref",), ("solve-large",)),
)


def predictions_for(workload: str) -> list[str]:
    lines = []
    for layer_metrics, e2e, targets in PREDICTIONS:
        if workload in targets:
            lines.append(f"{', '.join(layer_metrics)} -> {', '.join(e2e)}")
    return lines
