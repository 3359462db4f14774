"""Spans around the floqtriplet layers, recorded from outside the package.

`Tracer.install` wraps every public function of the package modules and
rebinds each name in every module that holds it, so calls through a
module attribute (`sambe.solve_spectrum`), through a name imported from
another module (`analysis` imports `solve_spectrum`, `oracle` imports
`fold_reported`) and calls inside a module (`select_representatives`
calling `build_sambe`) all pass through the wrapper.  Two more boundaries
are wrapped by hand: `FourierHamiltonian.eval_at_time` on the class, and
scipy's `minimize` as `variational` sees it, whose objective callable is
wrapped in turn so that evaluations are counted where scipy makes them.

Spans are kept in memory as (name, start, end, parent, op, work, outermost)
and written out by `write_spans`.  Nothing under `src/` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("model", "sambe", "oracle", "variational", "analysis", "cli")

EVAL_AT_TIME = "model.FourierHamiltonian.eval_at_time"
MINIMIZE = "variational.minimize"
OBJECTIVE = "variational.minimize.fun"

# Work computed from array sizes, not measured: n^3 for each dense
# eigensolve and the bytes of each extended-space matrix built.
WORK = {
    "sambe.diagonalize": lambda args, result: args[0].shape[0] ** 3,
    "sambe.build_sambe": lambda args, result: 0 if result is None else result.nbytes,
}

# (metric, span, field, unit); a field is "calls", "s" (inclusive, outermost
# spans only), "self_s" (minus the time covered by child spans) or "work".
SPAN_METRICS = (
    ("sambe.certify_truncation.s", "sambe.certify_truncation", "s", "s"),
    ("sambe.solve_at_truncation.calls", "sambe.solve_at_truncation", "calls", "count"),
    ("sambe.diagonalize.self_s", "sambe.diagonalize", "self_s", "s"),
    ("sambe.diagonalize.calls", "sambe.diagonalize", "calls", "count"),
    ("sambe.diagonalize.n3", "sambe.diagonalize", "work", "n3-computed"),
    ("sambe.build_sambe.calls", "sambe.build_sambe", "calls", "count"),
    ("sambe.build_sambe.self_s", "sambe.build_sambe", "self_s", "s"),
    ("sambe.build_sambe.bytes", "sambe.build_sambe", "work", "bytes-computed"),
    ("sambe.build_energy_matrix.calls", "sambe.build_energy_matrix", "calls", "count"),
    ("sambe.build_energy_matrix.self_s", "sambe.build_energy_matrix", "self_s", "s"),
    ("sambe.group_degeneracies.self_s", "sambe.group_degeneracies", "self_s", "s"),
    ("sambe.resolve_degeneracies.self_s", "sambe.resolve_degeneracies", "self_s", "s"),
    ("sambe.select_representatives.self_s", "sambe.select_representatives", "self_s", "s"),
    ("oracle.propagate_period.s", "oracle.propagate_period", "s", "s"),
    ("oracle.propagate_trajectory.calls", "oracle.propagate_trajectory", "calls", "count"),
    ("oracle.propagate_trajectory.s", "oracle.propagate_trajectory", "s", "s"),
    ("oracle.mode_from_propagation.self_s", "oracle.mode_from_propagation", "self_s", "s"),
    ("oracle.oracle_spectrum.self_s", "oracle.oracle_spectrum", "self_s", "s"),
    ("model.eval_at_time.calls", EVAL_AT_TIME, "calls", "count"),
    ("model.eval_at_time.s", EVAL_AT_TIME, "s", "s"),
    ("variational.minimize_ground.s", "variational.minimize_ground", "s", "s"),
    ("variational.minimize.calls", MINIMIZE, "calls", "count"),
    ("variational.objective.calls", OBJECTIVE, "calls", "count"),
    ("variational.objective.s", OBJECTIVE, "s", "s"),
    ("analysis.overlap_matrix.s", "analysis.overlap_matrix", "s", "s"),
    ("analysis.sweep_values.self_s", "analysis.sweep_values", "self_s", "s"),
)


class Tracer:
    """Records nested spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, depth, work = self.spans, self._stack, self._depth, WORK.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            level = depth.get(name, 0)
            depth[name] = level + 1
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                depth[name] = level
                stack.pop()
                amount = work(args, result) if work else 0
                spans[idx] = (name, start, end, parent, tracer.op, amount, level == 0)

        return traced

    def _rebind(self, holder, attr: str, new):
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def install(self):
        package = importlib.import_module("floqtriplet")
        modules = {short: importlib.import_module(f"floqtriplet.{short}") for short in LAYERS}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for holder in (package, *modules.values()):
            for attr, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(holder, attr, wrappers[obj])
        cls = modules["model"].FourierHamiltonian
        self._rebind(cls, "eval_at_time", self.wrap(EVAL_AT_TIME, cls.eval_at_time))
        minimize = modules["variational"].minimize

        def traced_minimize(fun, x0, *args, **kwargs):
            return minimize(self.wrap(OBJECTIVE, fun), x0, *args, **kwargs)

        self._rebind(modules["variational"], "minimize", self.wrap(MINIMIZE, traced_minimize))

    def uninstall(self):
        while self._restore:
            holder, attr, old = self._restore.pop()
            setattr(holder, attr, old)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive s, self_s and summed work."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op, work, outer in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, op, work, outer) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
            agg["calls"] += 1
            if outer:
                agg["s"] += end - start
            agg["self_s"] += end - start - covered[i]
            agg["work"] += work
        return out

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as means per traced operation."""
        summary = self.summary()
        empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
        metrics = {}
        for metric, span, fld, unit in SPAN_METRICS:
            metrics[metric] = (summary.get(span, empty)[fld] / ops, unit)
        optimizer = summary.get(MINIMIZE, empty)["s"] - summary.get(OBJECTIVE, empty)["s"]
        metrics["variational.optimizer.s"] = (optimizer / ops, "s")
        cli_self = sum(agg["self_s"] for name, agg in summary.items() if name.startswith("cli."))
        metrics["cli.self_s"] = (cli_self / ops, "s")
        return metrics

    def write_spans(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op,work\n")
            for name, start, end, parent, op, work, outer in self.spans:
                fh.write(f"{name},{start - origin:.9f},{end - origin:.9f},{parent},{op},{work}\n")
