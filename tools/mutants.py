"""Mutation score of the certificate, the guards, the sector detector, the
state pairing and the oracle's step factors.

Each mutant changes one line of the package.  For each, a temporary copy of
the repository gets that change and runs Tier-1 twice: with every test, and
with the pinned bound cases deselected (-k 'not pinned_values').  A mutant
is killed when a test fails.  The score is printed; the exit status is
always 0, so this is a report, not a gate.

    python tools/mutants.py

Tier-1 must first pass on an unmutated copy.  Each run stops at its first
failure (-x), so a survivor costs two full Tier-1 runs.  Temporary copies
go where `tempfile` puts them (TMPDIR).
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMBE, ORACLE = "src/floqtriplet/sambe.py", "src/floqtriplet/oracle.py"
SECTORS, ANALYSIS = "src/floqtriplet/_sectors.py", "src/floqtriplet/analysis.py"
BOUNDS = "float(scores[best]), float(2 * (truncation + reach) * w_max / omega)"

# (file, old text, new text, reason); the old text occurs once in its file
MUTANTS = [
    (SAMBE, BOUNDS, "float(scores[best]) / 10, float(2 * (truncation + reach) * w_max / omega)",
     "the eps bound reported 10x too small"),
    (SAMBE, BOUNDS, "float(scores[best]), float(2 * (truncation + reach) * w_max / omega) / 10",
     "the Ebar estimate 10x too small"),
    (SAMBE, "return states, eps_bound, max(ebar_estimate, floor)",
     "return states, eps_bound, ebar_estimate", "the estimate without the leak floor"),
    (SAMBE, "& (np.round(centroids, 9) < 0.5)", "& (np.round(centroids, 9) <= 0.5)",
     "both seam replicas kept by the zone rule"),
    (SAMBE, "np.split(_edge_leak(h, x.reshape(count, -1).T), 2, axis=1)",
     "np.split(0 * _edge_leak(h, x.reshape(count, -1).T), 2, axis=1)",
     "no edge leak in the figures"),
    (SAMBE, "clusters[0] = np.concatenate([clusters.pop(), clusters[0]])", "pass",
     "no seam merge in _gap_clusters"),
    (SAMBE, "ks = np.round((lams[cols] - lams[cols[starts]][owner]) / omega)",
     "ks = np.floor((lams[cols] - lams[cols[starts]][owner]) / omega)",
     "group replicas chosen by floor instead of round"),
    (SAMBE, "skip = np.logical_or.reduceat(gaps <= rho + rho[after], level_starts)",
     "skip = np.zeros(level_starts.size, dtype=bool)", "overlapping levels not skipped"),
    (SAMBE, "w[run] / delta + split[run]", "w[run] / delta",
     "the eps bound without its split term"),
    (SAMBE, "np.minimum(gaps - rho[after], gaps[before] - rho[before])",
     "np.minimum(gaps, gaps[before])", "the Kato-Temple gap without the neighbouring cluster's radius"),
    (SAMBE, "2 * (truncation + reach) * worst", "20 * (truncation + reach) * worst",
     "a leak floor 10x too large"),
    (SAMBE, "<= 1e-10 * scale", "<= 1e-6 * scale", "_resolve's Ebar-tie flag at 1e-6, not 1e-10"),
    (ORACLE, "UNITARITY_TOL = 1e-12", "UNITARITY_TOL = 1e-6", "the oracle's UNITARITY_TOL at 1e-6"),
    (ORACLE, "if tail > 1e-6:", "if tail > 1e-2:", "the oracle's mode-tail warning at 1e-2"),
    (ORACLE, "return all(np.array_equal(mat, mat.T) for mat in h.harmonics.values())",
     "return True", "_real_in_time always true: a complex H(t) stepped by its real part"),
    (ORACLE, "for _ in range(squarings):", "for _ in range(squarings - 1):",
     "the step factors squared once too few"),
    (ORACLE, "while scaled ** (order + 1) / math.factorial(order + 1) > _UNIT_ROUNDOFF:",
     "while scaled ** (order + 2) / math.factorial(order + 2) > _UNIT_ROUNDOFF:",
     "the step factors' Taylor order one below the rule's"),
    (SECTORS, "singular > RANK_TOL * size", "singular > 1e4 * RANK_TOL * size",
     "the sector detector's SVD rank threshold 1e4x higher"),
    (SAMBE, "if not worst <= EIGEN_RESIDUAL_TOL * scale:",
     "if not worst <= 1e4 * EIGEN_RESIDUAL_TOL * scale:", "_check_residuals' tolerance 1e4x looser"),
    (SAMBE, "if 3 * nbytes > MAX_DENSE_BYTES:", "if nbytes > MAX_DENSE_BYTES:",
     "_dense_guard without the factor 3 of the solve's copies"),
    (ANALYSIS, "index = free[-1] if free else ties[0]", "index = free[0] if free else ties[0]",
     "_assignment's tie rule takes the first free column, not the last"),
]


def survives(copy: Path, *extra: str) -> bool:
    """Whether Tier-1 in copy, with the extra pytest arguments, passes."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *extra]
    run = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    return run.returncode == 0


def copy_of_repository(tmp: str) -> Path:
    """The working tree (tests read README.md too) without git or caches."""
    copy = Path(tmp) / "repo"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"))
    return copy


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        if not survives(copy_of_repository(tmp)):
            print("Tier-1 fails without a mutant: no score")
            return 0
    killed = killed_unpinned = 0
    for file, old, new, reason in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy = copy_of_repository(tmp)
            path = copy / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"stale    {reason}: {old!r} occurs {text.count(old)} times in {file}")
                continue
            path.write_text(text.replace(old, new))
            pinned = not survives(copy)
            unpinned = not survives(copy, "-k", "not pinned_values")
        killed += pinned
        killed_unpinned += unpinned
        verdict = "killed" if unpinned else "pins" if pinned else "SURVIVED"
        print(f"{verdict:8s} {reason}", flush=True)
    print(f"score: {killed}/{len(MUTANTS)} killed with the pins, "
          f"{killed_unpinned}/{len(MUTANTS)} without them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
