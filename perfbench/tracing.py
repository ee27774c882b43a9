"""Span tracing of the package's public functions, from outside the package.

Each listed function is replaced, in every ``selreg.*`` namespace that binds
it (callers use ``from .x import f``), by a wrapper that records one span:
name, start, end, parent span and run id. Spans stay in memory until
``write``. A span's self time is its duration minus the durations of its
direct children. The wrappers also count the work each call did (kernel
values, quantiles, bytes read or written, verdicts by reason) and the
exceptions that escaped it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

ROOT = "bench.iteration"

# (metric prefix, module, function) of every wrapped function
WRAPPED = (
    ("kernels.eval_sq", "selreg.kernels", "eval_sq"),
    ("estimators.select_bandwidth_loocv", "selreg.estimators", "select_bandwidth_loocv"),
    ("estimators.evaluate_point", "selreg.estimators", "evaluate_point"),
    ("normal.normal_quantile", "selreg.normal", "normal_quantile"),
    ("normal.normal_cdf", "selreg.normal", "normal_cdf"),
    ("abstention.decide", "selreg.abstention", "decide"),
    ("abstention.decide_from_evaluation", "selreg.abstention", "decide_from_evaluation"),
    ("risk.monte_carlo_expected_excess", "selreg.risk", "monte_carlo_expected_excess"),
    ("risk.pointwise_excess", "selreg.risk", "pointwise_excess"),
    ("data.generate_synthetic", "selreg.data", "generate_synthetic"),
    ("data.load_csv", "selreg.data", "load_csv"),
    ("data.covariate_shift_split", "selreg.data", "covariate_shift_split"),
    ("data.standardize", "selreg.data", "standardize"),
    ("experiments.run_scenario", "selreg.experiments", "run_scenario"),
    ("experiments.write_csv", "selreg.experiments", "write_csv"),
    ("experiments.config_from_dict", "selreg.experiments", "config_from_dict"),
    ("cli.main", "selreg.cli", "main"),
)

# Which measures each span reports; every wrapped function also reports errors.
MEASURES = {
    "kernels.eval_sq": ("calls", "self_s", "values"),
    "estimators.select_bandwidth_loocv": ("calls", "self_s"),
    "estimators.evaluate_point": ("calls", "self_s"),
    "normal.normal_quantile": ("calls", "self_s", "values"),
    "normal.normal_cdf": ("self_s",),
    "abstention.decide": ("calls", "self_s"),
    "abstention.decide_from_evaluation": ("calls", "self_s"),
    "risk.monte_carlo_expected_excess": ("calls", "self_s"),
    "risk.pointwise_excess": ("calls", "self_s"),
    "data.generate_synthetic": ("calls", "self_s"),
    "data.load_csv": ("calls", "self_s", "bytes"),
    "data.covariate_shift_split": ("self_s",),
    "data.standardize": ("self_s",),
    "experiments.run_scenario": ("calls", "self_s"),
    "experiments.write_csv": ("self_s", "bytes"),
    "experiments.config_from_dict": ("self_s",),
    "cli.main": ("calls", "self_s"),
}

REASONS = ("accepted", "low_density", "variance_test_failed")

# Spans whose time is per-query-point work (the decision path).
PER_POINT = {"normal.normal_quantile", "normal.normal_cdf",
             "estimators.evaluate_point", "abstention.decide",
             "abstention.decide_from_evaluation", "risk.pointwise_excess"}

UNITS = {"calls": "count", "self_s": "s", "values": "count", "bytes": "B",
         "errors": "count"}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run prints."""
    specs = []
    for key, _, _ in WRAPPED:
        for m in MEASURES[key] + ("errors",):
            specs.append((f"{key}.{m}", UNITS[m], "lower"))
        if key == "estimators.evaluate_point":
            specs.append(("estimators.fit_reuse", "ratio", "higher"))
        if key == "abstention.decide_from_evaluation":
            specs.append(("abstention.evals_per_decision", "ratio", "lower"))
            specs.extend((f"abstention.reason.{r}", "count",
                          "higher" if r == "accepted" else "lower")
                         for r in REASONS)
    specs += [("share.loocv", "ratio", "lower"),
              ("share.per_point", "ratio", "lower"),
              ("trace.overhead_frac", "ratio", "lower")]
    return specs


def _dataset_digest(data) -> bytes:
    h = hashlib.blake2b(data.x.tobytes(), digest_size=16)
    if data.y is not None:
        h.update(data.y.tobytes())
    return h.digest()


class Tracer:
    """Installs span wrappers, keeps the spans, and reduces them to metrics."""

    def __init__(self):
        self.names: list[str] = [ROOT] + [key for key, _, _ in WRAPPED]
        self._ids = {name: i for i, name in enumerate(self.names)}
        # span: [name id, start, end, parent index, run id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.fits: dict[int, list[bytes]] = defaultdict(list)
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def iteration(self, run_id: int):
        """The root span of one traced iteration; its spans share run_id."""
        self.run_id = run_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, key: str, fn):
        name_id = self._ids[key]
        counts = self.counts

        def extra(args, result):
            c = counts[self.run_id]
            if key == "kernels.eval_sq":
                c[key + ".values"] += int(np.size(args[1]))
            elif key == "normal.normal_quantile":
                c[key + ".values"] += int(np.size(args[0]))
            elif key == "data.load_csv":
                c[key + ".bytes"] += os.path.getsize(args[0])
            elif key == "experiments.write_csv":
                c[key + ".bytes"] += os.path.getsize(args[1])
            elif key == "abstention.decide_from_evaluation":
                c["abstention.reason." + result.reason.value] += 1
            elif key == "estimators.select_bandwidth_loocv":
                self.fits[self.run_id].append(_dataset_digest(args[0]))

        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[self.run_id][key + ".errors"] += 1
                raise
            finally:
                self._close(idx)
            extra(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every binding of each listed function in selreg.*."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "selreg" or name.startswith("selreg."))]
        for key, mod_name, attr in WRAPPED:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(key, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, value))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._restore):
            setattr(mod, name, value)
        self._restore.clear()

    # --- reduction ---------------------------------------------------------

    def per_run(self) -> dict[int, dict]:
        """Per run id: calls and self time by span name, and wall time."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        runs: dict[int, dict] = defaultdict(lambda: {
            "calls": Counter(), "self_s": defaultdict(float), "wall_s": 0.0,
            "loocv_s": 0.0, "per_point_s": 0.0})
        names = self.names
        for i, (name_id, start, end, parent, run) in enumerate(self.spans):
            name = names[name_id]
            r = runs[run]
            dur = end - start
            r["calls"][name] += 1
            r["self_s"][name] += dur - child[i]
            if name == ROOT:
                r["wall_s"] += dur
            if name == "estimators.select_bandwidth_loocv":
                r["loocv_s"] += dur
            # outermost per-point spans only, so nested work counts once
            if name in PER_POINT and (
                    parent < 0 or names[self.spans[parent][0]] not in PER_POINT):
                r["per_point_s"] += dur
        for r in runs.values():
            # the Monte-Carlo loop itself is risk-layer per-point work
            r["per_point_s"] += r["self_s"].get("risk.monte_carlo_expected_excess", 0.0)
        return runs

    def metrics(self, traced_runs: list[int], attempted_runs: list[int],
                overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics of one workload iteration.

        Counts come from the first of ``traced_runs``, so they repeat exactly
        for a given workload seed; times are medians over ``traced_runs``.
        Errors are summed over ``attempted_runs``, which also holds the
        traced iterations that raised.
        """
        runs = self.per_run()
        first = traced_runs[0]
        r0 = runs[first]
        c0 = self.counts[first]
        out: dict[str, float] = {}
        for key, _, _ in WRAPPED:
            for m in MEASURES[key]:
                if m == "calls":
                    out[f"{key}.calls"] = r0["calls"][key]
                elif m == "self_s":
                    out[f"{key}.self_s"] = statistics.median(
                        runs[i]["self_s"].get(key, 0.0) for i in traced_runs)
                else:
                    out[f"{key}.{m}"] = c0[f"{key}.{m}"]
            out[f"{key}.errors"] = sum(self.counts[i][f"{key}.errors"]
                                       for i in attempted_runs)
        fits = self.fits[first]
        out["estimators.fit_reuse"] = len(set(fits)) / len(fits) if fits else 0.0
        verdicts = r0["calls"]["abstention.decide_from_evaluation"]
        out["abstention.evals_per_decision"] = (
            r0["calls"]["estimators.evaluate_point"] / verdicts if verdicts else 0.0)
        for reason in REASONS:
            out[f"abstention.reason.{reason}"] = c0[f"abstention.reason.{reason}"]
        out["share.loocv"] = statistics.median(
            runs[i]["loocv_s"] / runs[i]["wall_s"] for i in traced_runs)
        out["share.per_point"] = statistics.median(
            runs[i]["per_point_s"] / runs[i]["wall_s"] for i in traced_runs)
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write(self, path) -> None:
        """Write every span as CSV: name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,run_id\n")
            names = self.names
            for i, (name_id, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{i},{names[name_id]},{start!r},{end!r},{parent},{run}\n")
