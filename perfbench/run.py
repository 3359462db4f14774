#!/usr/bin/env python3
"""floqtriplet benchmark: CLI time-to-solution, end to end and per layer.

    python3 perfbench/run.py --workload solve-large --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Each workload is a closed loop: one caller in one
process sends the next operation when the previous one has returned.  An
operation is an in-process call of `floqtriplet.cli.main([...])` with
arguments generated from --seed, writing into its own directory under
`perfbench/.work/`.  The operation list has a fixed length for a given
--seconds (see `Workload.op_count`); results are checked after the list
has run, outside the timed region.

With --trace 0 the run reports the end-to-end metrics; operation times
are divided by the median time of a fixed reference kernel run between
the operations (see `reference_s`), and the raw seconds are printed as
`# raw` comment lines.  With --trace 1 it runs half as many inputs twice
each, untraced and then traced, reports the per-layer metrics of the
traced runs, their overhead against the untraced ones, requires the two
outputs to be identical, and writes the spans to
`perfbench/out/spans-<workload>.csv`.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = HERE / "out"
# set-up is measured this many times per run (this process plus fresh
# processes) and reported as the median
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 150
# reference-kernel timings taken before the first operation and after each
REF_SAMPLES = 2
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Give BLAS a single thread; must run before numpy loads.

    On a shared 2-core machine, two BLAS threads made the small solves of
    the variational workload slower and spread their times by about 30%,
    since each BLAS call waits for the busier core.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def set_up(workload: str, seed: int, seconds: float, trace: bool):
    """Import the package, generate the inputs and run one warm-up operation.

    Returns (cli module, workload, warm-up op, warm-up exit code, ops,
    seconds taken).  The warm-up writes to WORK/warmup-<pid>.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from floqtriplet import cli
    import workloads

    wl = workloads.WORKLOADS.get(workload)
    if wl is None:
        raise SystemExit(f"unknown workload {workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    # the warm-up input does not depend on the seed, so set-up time
    # compares the same work on every run
    [warm] = wl.make_ops(random.Random(f"{workload}:warm-up"), 1)
    rng = random.Random(f"{workload}:{seed}")
    count = wl.op_count(seconds)
    if trace:
        count = max(1, count // 2)
    ops = wl.make_ops(rng, count)
    _, rc = run_op(cli, warm, WORK / f"warmup-{os.getpid()}")
    return cli, wl, warm, rc, ops, time.perf_counter() - start


def reference_s() -> float:
    """Seconds for a fixed kernel that does not touch floqtriplet.

    The kernel mixes what the workloads spend their time on: interpreted
    Python and dense eigensolves.  On a shared host the speed of the
    machine drifts by tens of percent over minutes; dividing the run's
    operation times by the kernel's median time, taken between the
    operations, takes most of that drift out.  A change to the program
    moves the operation times and leaves the kernel alone.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i
    for _ in range(4):
        np.linalg.eigh(_reference_matrix(160))
    return time.perf_counter() - start


@functools.cache
def _reference_matrix(n: int):
    import numpy as np

    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def run_op(cli, op, out: Path) -> tuple[float, int | None]:
    """Time one CLI call; its printed lines are kept off standard output.

    Garbage left by earlier calls is collected first, outside the timed
    region, so no call pays for another's.
    """
    captured = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            rc = cli.main(op.argv + ["--out", str(out)])
    except Exception:  # an operation that raises counts as failed; the run goes on
        rc = None
        traceback.print_exc()
    elapsed = time.perf_counter() - start
    if rc != 0:
        print(f"{' '.join(op.argv)}: exit {rc}: {captured.getvalue().strip()}", file=sys.stderr)
    return elapsed, rc


def checked(wl, op, out: Path, rc) -> bool:
    try:
        problems = wl.check(op, out, rc)
    except Exception as exc:  # a malformed output fails its check, not the run
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    for problem in problems:
        print(f"{' '.join(op.argv)}: {problem}", file=sys.stderr)
    return not problems


def probe_setup(workload: str, seed: int, seconds: float) -> float:
    """Set-up time of a fresh process running the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def output_identity(a: Path, b: Path) -> bool:
    """True when two output directories hold the same files and contents.

    `spectrum.json` carries a wall-clock timestamp, which is ignored.
    """
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    for name in names:
        da, db = (a / name).read_bytes(), (b / name).read_bytes()
        if name == "spectrum.json":
            ja, jb = json.loads(da), json.loads(db)
            ja["metadata"].pop("timestamp", None)
            jb["metadata"].pop("timestamp", None)
            if ja != jb:
                return False
        elif da != db:
            return False
    return True


def environment(seed: int, threads: int, ops: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "ops_per_run": ops,
    }


def run_plain(cli, wl, ops, run_dir: Path):
    """The closed loop: every op in turn, then the checks.

    The reference kernel runs REF_SAMPLES times before the first op and
    after every op; operation times are divided by the median kernel time.
    Returns the failed count, the metrics and the raw seconds.
    """
    reference_s()  # warm-up
    refs = [reference_s() for _ in range(REF_SAMPLES)]
    times, codes = [], []
    for i, op in enumerate(ops):
        elapsed, rc = run_op(cli, op, run_dir / f"op{i}")
        times.append(elapsed)
        refs.extend(reference_s() for _ in range(REF_SAMPLES))
        codes.append(rc)
    failed = sum(not checked(wl, op, run_dir / f"op{i}", rc)
                 for i, (op, rc) in enumerate(zip(ops, codes)))
    ref = statistics.median(refs)
    metrics = {
        "op_p50_ref": (statistics.median(times) / ref, "ref"),
        "wall_ref": (sum(times) / ref, "ref"),
    }
    raw = {
        "op_p50_s": (statistics.median(times), "s"),
        "wall_s": (sum(times), "s"),
        "ref_p50_s": (ref, "s"),
    }
    return failed, metrics, raw


def run_traced(cli, wl, ops, run_dir: Path):
    """Each op untraced, then traced; per-layer metrics from the traced ones."""
    from tracer import Tracer

    tracer = Tracer()
    plain_s = traced_s = 0.0
    codes = []
    for i, op in enumerate(ops):
        elapsed, _ = run_op(cli, op, run_dir / f"plain{i}")
        plain_s += elapsed
        tracer.op = i
        tracer.install()
        try:
            elapsed, rc = run_op(cli, op, run_dir / f"op{i}")
        finally:
            tracer.uninstall()
        traced_s += elapsed
        codes.append(rc)
    failed = 0
    identical = True
    out_bytes = 0
    for i, (op, rc) in enumerate(zip(ops, codes)):
        traced_dir, plain_dir = run_dir / f"op{i}", run_dir / f"plain{i}"
        failed += not checked(wl, op, traced_dir, rc)
        if traced_dir.is_dir() and plain_dir.is_dir():
            out_bytes += sum(p.stat().st_size for p in traced_dir.iterdir())
            if not output_identity(plain_dir, traced_dir):
                identical = False
                print(f"{' '.join(op.argv)}: traced output differs from untraced", file=sys.stderr)
    metrics = tracer.layer_metrics(len(ops))
    metrics["cli.output_bytes"] = (out_bytes / len(ops), "bytes")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "fraction")
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{wl.name}.csv")
    return failed, metrics, identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "floqtriplet" / "__init__.py").is_file():
        print(f"no floqtriplet package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        cli, wl, warm, warm_rc, ops, setup_s = set_up(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        warm_ok = checked(wl, warm, WORK / f"warmup-{os.getpid()}", warm_rc)
        import workloads

        print("# env " + json.dumps(environment(args.seed, threads, len(ops))))
        print(f"# workload {wl.name}: {wl.why}")
        for line in workloads.predictions_for(wl.name):
            print(f"# predicts {line}")

        if args.trace:
            failed, metrics, identical = run_traced(cli, wl, ops, run_dir)
        else:
            failed, metrics, raw = run_plain(cli, wl, ops, run_dir)
            for name, (value, unit) in raw.items():
                print(f"# raw {name} = {value!r} {unit}")
            identical = True
            samples = [setup_s] + [
                probe_setup(args.workload, args.seed, args.seconds)
                for _ in range(SETUP_SAMPLES - 1)
            ]
            metrics["setup_s"] = (statistics.median(samples), "s")
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(WORK / f"warmup-{os.getpid()}", ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": failed == 0 and warm_ok and identical,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
