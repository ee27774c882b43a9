"""Experiment scenarios: parameterized runs emitting tabular results.

Five scenarios cover the synthetic studies (acceptance curves, excess risk
against sample size / significance level, pointwise convergence under a
bandwidth power law) and the real-data coverage/MSE sweep over the
abstention cost. Each run is a pure function of (config, seed); rerunning
with the same config yields byte-identical CSV files.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .abstention import AbstentionConfig, decide_batch
from .data import (Dataset, Normal, ShiftSplit, SyntheticSpec, Uniform,
                   covariate_shift_split, load_csv, mean_quadratic,
                   sd_heaviside, sd_sigmoid, standardize, synthetic_sampler,
                   table_fn)
from .estimators import (FitState, evaluate_batch, fixed_bandwidth,
                         loocv_bandwidth, power_bandwidth)
from .kernels import KernelSpec, kernel_spec
from .normal import normal_quantile
from .risk import GroundTruth, monte_carlo_expected_excess

SCENARIOS = ("acceptance_curve", "excess_risk_vs_n", "excess_risk_vs_beta",
             "pointwise_convergence", "coverage_mse_sweep")

DIAGNOSTIC_POINTS = (-1.6, -0.5, 0.3, 0.8, 1.6)

_MEAN_FNS = {"quadratic": mean_quadratic}
_SD_FNS = {"sigmoid": sd_sigmoid, "heaviside": sd_heaviside,
           "zero": lambda x: np.zeros_like(np.asarray(x, dtype=float))}


class ConfigError(ValueError):
    """Invalid experiment config; carries one message per violation."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


@dataclass(frozen=True)
class HPolicy:
    """Bandwidth policy: LOO-CV, a fixed value, or h = c * n ** exponent."""

    kind: str
    h: Optional[float] = None
    c: float = 1.0
    exponent: float = -0.2
    grid: Optional[tuple] = None

    def fit_rule(self, kernel: KernelSpec) -> Callable[[Dataset], FitState]:
        if self.kind == "fixed":
            return fixed_bandwidth(kernel, self.h)
        if self.kind == "power":
            return power_bandwidth(kernel, self.c, self.exponent)
        return loocv_bandwidth(kernel, grid=self.grid)


@dataclass(frozen=True)
class DataSource:
    """Coverage-sweep input: pre-split CSVs, or one CSV plus a pivot split."""

    target_column: int
    has_header: bool = True
    standardize: bool = True
    train_csv: Optional[str] = None
    test_csv: Optional[str] = None
    csv: Optional[str] = None
    pivot_feature: Optional[int] = None
    train_quantile: float = 0.7
    swap_fraction: float = 0.2

    def paths(self) -> list[str]:
        return [p for p in (self.train_csv, self.test_csv, self.csv) if p]

    def load(self, seed: int) -> tuple[Dataset, Dataset]:
        if self.csv is not None:
            full = load_csv(self.csv, has_header=self.has_header,
                            target_column=self.target_column)
            split = ShiftSplit(pivot_feature=self.pivot_feature,
                               train_quantile=self.train_quantile,
                               swap_fraction=self.swap_fraction, seed=seed)
            train, test = covariate_shift_split(full, split)
        else:
            train = load_csv(self.train_csv, has_header=self.has_header,
                             target_column=self.target_column)
            test = load_csv(self.test_csv, has_header=self.has_header,
                            target_column=self.target_column)
        if self.standardize:
            train, test, _ = standardize(train, test)
        return train, test


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    seed: int
    kernel: str = "gaussian"
    lam: Optional[float] = None
    beta: Optional[float] = None
    beta_list: Optional[tuple] = None
    z_list: Optional[tuple] = None
    lambdas: Optional[tuple] = None
    n_list: Optional[tuple] = None
    replicates: Optional[int] = None
    x_grid: Optional[tuple] = None
    h_policy: HPolicy = field(default_factory=lambda: HPolicy(kind="loocv"))
    synthetic: Optional[SyntheticSpec] = None
    truth: Optional[GroundTruth] = None
    data: Optional[DataSource] = None


@dataclass(frozen=True)
class Table:
    header: tuple
    rows: list


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(table: Table, path) -> None:
    lines = [",".join(table.header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in table.rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _monte_carlo(cfg: ExperimentConfig, betas):
    """Per n of cfg: (n, one report list per beta), from shared replicates.

    Every replicate is fitted once and evaluated once on the grid; each beta
    scores that same evaluation, so the methods' columns are directly
    comparable.
    """
    sampler = synthetic_sampler(cfg.synthetic)
    rule = cfg.h_policy.fit_rule(kernel_spec(cfg.kernel, cfg.synthetic.d))
    methods = [AbstentionConfig(lam=cfg.lam, beta=beta) for beta in betas]
    return [(n, monte_carlo_expected_excess(
                cfg.truth, sampler, n, methods, rule, cfg.x_grid,
                cfg.replicates, cfg.seed))
            for n in cfg.n_list]


def run_acceptance_curve(cfg: ExperimentConfig) -> Table:
    """Fraction of accepted predictions per grid point and sample size."""
    rows = [(float(rep.x[0]), n, rep.accept_fraction)
            for n, (reports,) in _monte_carlo(cfg, [cfg.beta])
            for rep in reports]
    return Table(header=("x", "n", "accept_fraction"), rows=rows)


def run_excess_risk_vs_n(cfg: ExperimentConfig) -> Table:
    """Expected excess risk against n for the test and the plugin baseline."""
    rows = [(float(rep.x[0]), n, method, rep.expected_excess, rep.mc_stderr)
            for n, per_method in _monte_carlo(cfg, [cfg.beta, 0.5])
            for method, reports in zip(("testing", "plugin"), per_method)
            for rep in reports]
    return Table(header=("x", "n", "method", "expected_excess", "stderr"),
                 rows=rows)


def run_excess_risk_vs_beta(cfg: ExperimentConfig) -> Table:
    """Excess risk and acceptance at fixed n across significance levels."""
    ((_, per_beta),) = _monte_carlo(cfg, cfg.beta_list)
    rows = [(float(rep.x[0]), beta, "plugin" if beta == 0.5 else "testing",
             rep.expected_excess, rep.mc_stderr, rep.accept_fraction)
            for beta, reports in zip(cfg.beta_list, per_beta)
            for rep in reports]
    return Table(header=("x", "beta", "method", "expected_excess", "stderr",
                         "accept_fraction"), rows=rows)


def run_pointwise_convergence(cfg: ExperimentConfig) -> Table:
    """Excess risk at diagnostic points across n under the h power law."""
    c, exponent = cfg.h_policy.c, cfg.h_policy.exponent
    rows = [(float(rep.x[0]), n, n * (c * n ** exponent),
             rep.expected_excess, rep.mc_stderr)
            for n, (reports,) in _monte_carlo(cfg, [cfg.beta])
            for rep in reports]
    return Table(header=("x", "n", "nh", "expected_excess", "stderr"),
                 rows=rows)


def _coverage_methods(cfg: ExperimentConfig) -> list[tuple[str, float]]:
    methods = []
    if cfg.beta_list:
        for beta in cfg.beta_list:
            label = "plugin" if beta == 0.5 else f"beta={beta:g}"
            methods.append((label, normal_quantile(1.0 - beta)))
    if cfg.z_list:
        methods.extend((f"z={z:g}", float(z)) for z in cfg.z_list)
    return methods


def run_coverage_mse_sweep(cfg: ExperimentConfig) -> Table:
    """Acceptance fraction and MSE over accepted test points per lambda.

    The fit and the evaluation of the test points are shared across the
    sweep; only the decision rule changes with (lambda, method). An empty
    accepted set leaves the MSE cell blank.
    """
    train, test = cfg.data.load(cfg.seed)
    fit = cfg.h_policy.fit_rule(kernel_spec(cfg.kernel, train.d))(train)
    ev = evaluate_batch(fit, test.x)
    sq_err = np.square(ev.f_hat - test.y)

    rows = []
    for lam in cfg.lambdas:
        for label, z in _coverage_methods(cfg):
            accepted = decide_batch(ev, fit, lam, z)[0]
            mse = float(np.mean(sq_err[accepted])) if accepted.any() else None
            rows.append((lam, label, float(accepted.mean()), mse))
    return Table(header=("lambda", "method", "accept_fraction",
                         "mse_accepted"), rows=rows)


_RUNNERS = {
    "acceptance_curve": run_acceptance_curve,
    "excess_risk_vs_n": run_excess_risk_vs_n,
    "excess_risk_vs_beta": run_excess_risk_vs_beta,
    "pointwise_convergence": run_pointwise_convergence,
    "coverage_mse_sweep": run_coverage_mse_sweep,
}


def _git_blob_sha1(path) -> str:
    blob = Path(path).read_bytes()
    return hashlib.sha1(b"blob %d\0" % len(blob) + blob).hexdigest()


def run_scenario(config: dict, out_dir) -> dict:
    """Validate the config, run its scenario, write the CSV and manifest.

    Returns the manifest dict. The manifest is only written after the run
    completed and the output CSV exists.
    """
    cfg = config_from_dict(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = datetime.now(timezone.utc)
    t0 = time.monotonic()
    table = _RUNNERS[cfg.scenario](cfg)
    csv_path = out_dir / f"{cfg.scenario}.csv"
    write_csv(table, csv_path)

    hashes = {}
    if cfg.data is not None:
        hashes = {p: _git_blob_sha1(p) for p in cfg.data.paths()}
    manifest = {
        "config": config,
        "seed": cfg.seed,
        "started": started.isoformat(),
        "finished": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": time.monotonic() - t0,
        "outputs": [str(csv_path)],
        "input_hashes": hashes,
        "version": __version__,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n",
                             encoding="utf-8")
    return manifest


# --- config parsing -------------------------------------------------------

_KNOWN_KEYS = {"scenario", "seed", "kernel", "lambda", "beta", "beta_list",
               "z_list", "lambdas", "n", "replicates", "x_grid", "h",
               "synthetic", "data"}


# a linspace grid larger than this is refused before it is allocated
_MAX_GRID_POINTS = 1_000_000


def _convert(raw, field: str, problems: list, kind=float):
    """kind(raw), or None after recording a problem that names the field.

    A bool is refused (JSON true is not the number 1), and so is a real
    that is infinite or NaN.
    """
    try:
        value = None if isinstance(raw, bool) else kind(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or (kind is float and not math.isfinite(value)):
        what = "an integer" if kind is int else "a finite real"
        problems.append(f"{field} must be {what}, got {raw!r}")
        return None
    return value


def _reals(raw, field: str, problems: list) -> Optional[tuple]:
    """A nonempty list of reals as a tuple, or None after recording problems."""
    if not isinstance(raw, (list, tuple)) or not raw:
        problems.append(f"{field} must be a nonempty list of reals")
        return None
    values = tuple(_convert(v, f"{field}[{i}]", problems)
                   for i, v in enumerate(raw))
    return None if None in values else values


def _parse_x_grid(raw, problems) -> Optional[tuple]:
    if raw is None:
        return None
    if isinstance(raw, dict) and set(raw) == {"linspace"}:
        spec = _reals(raw["linspace"], "x_grid.linspace", problems)
        if spec is None:
            return None
        if (len(spec) != 3 or not spec[2].is_integer()
                or not 1 <= spec[2] <= _MAX_GRID_POINTS):
            problems.append("x_grid.linspace must be [lo, hi, num] with a whole "
                            f"num in [1, {_MAX_GRID_POINTS}]")
            return None
        lo, hi, num = spec
        return tuple(np.linspace(lo, hi, int(num)))
    if isinstance(raw, (list, tuple)) and raw:
        return _reals(raw, "x_grid", problems)
    problems.append("x_grid must be a nonempty list or {\"linspace\": [lo, hi, num]}")
    return None


def _parse_h(raw, problems) -> HPolicy:
    if raw is None or raw == "loocv":
        return HPolicy(kind="loocv")
    if isinstance(raw, dict) and set(raw) == {"loocv"} \
            and isinstance(raw["loocv"], dict):
        grid = raw["loocv"].get("grid")
        if grid is not None:
            grid = _reals(grid, "h.loocv.grid", problems)
            for i, h in enumerate(grid or ()):  # finite by _convert
                if not h > 0.0:
                    problems.append(f"h.loocv.grid[{i}] must be a positive "
                                    f"finite real, got {h!r}")
        return HPolicy(kind="loocv", grid=grid)
    if isinstance(raw, dict) and set(raw) == {"fixed"}:
        h = _convert(raw["fixed"], "h.fixed", problems)
        if h is not None and not h > 0.0:
            problems.append("fixed bandwidth must be positive")
        return HPolicy(kind="fixed", h=h)
    if isinstance(raw, dict) and set(raw) == {"power"} \
            and isinstance(raw["power"], dict):
        c = _convert(raw["power"].get("c", HPolicy.c), "h.power.c", problems)
        exponent = _convert(raw["power"].get("exponent", HPolicy.exponent),
                            "h.power.exponent", problems)
        if c is not None and not c > 0.0:
            problems.append("power-rule coefficient c must be positive")
        return HPolicy(kind="power", c=c, exponent=exponent)
    problems.append("h must be \"loocv\", {\"fixed\": h}, {\"power\": {...}} "
                    "or {\"loocv\": {\"grid\": [...]}}")
    return HPolicy(kind="loocv")


def _parse_fn(raw, registry, what, problems) -> Callable:
    if isinstance(raw, str) and raw in registry:
        return registry[raw]
    if isinstance(raw, dict) and set(raw) == {"table"}:
        try:
            return table_fn(raw["table"]["x"], raw["table"]["y"])
        except (KeyError, ValueError, TypeError) as exc:
            problems.append(f"invalid {what} table: {exc}")
            return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    names = ", ".join(sorted(registry))
    problems.append(f"{what} must be one of [{names}] or a {{\"table\": ...}} spec")
    return lambda x: np.zeros_like(np.asarray(x, dtype=float))


def _parse_synthetic(raw, problems) -> tuple[Optional[SyntheticSpec],
                                             Optional[GroundTruth]]:
    if not isinstance(raw, dict):
        problems.append("synthetic block is required for this scenario")
        return None, None
    unknown = set(raw) - {"covariates", "mean", "sd"}
    if unknown:
        problems.append(f"unknown synthetic keys: {sorted(unknown)}")
    dists = []
    covariates = raw.get("covariates")
    if not isinstance(covariates, (list, tuple)):
        covariates = []
    for i, spec in enumerate(covariates):
        if isinstance(spec, dict) and set(spec) in ({"uniform"}, {"normal"}):
            ((kind, params),) = spec.items()
            field = f"synthetic.covariates[{i}].{kind}"
            values = _reals(params, field, problems)
            if values is not None and len(values) != 2:
                problems.append(f"{field} must hold two reals")
            elif values is not None:
                try:
                    dists.append((Uniform if kind == "uniform" else Normal)(*values))
                except ValueError as exc:
                    problems.append(f"{field}: {exc}")
        else:
            problems.append(
                f"covariate {i} must be {{\"uniform\": [lo, hi]}} or "
                f"{{\"normal\": [mu, sd]}}")
    if not dists:
        problems.append("synthetic.covariates must list at least one distribution")
        return None, None
    mean_fn = _parse_fn(raw.get("mean"), _MEAN_FNS, "synthetic.mean", problems)
    sd_fn = _parse_fn(raw.get("sd"), _SD_FNS, "synthetic.sd", problems)
    spec = SyntheticSpec(covariate_dists=tuple(dists), mean_fn=mean_fn,
                         sd_fn=sd_fn, n=1, seed=0)
    return spec, GroundTruth(mean_fn=mean_fn, sd_fn=sd_fn)


def _parse_data(raw, problems) -> Optional[DataSource]:
    if not isinstance(raw, dict):
        problems.append("data block is required for coverage_mse_sweep")
        return None
    known = {"train_csv", "test_csv", "csv", "target_column", "has_header",
             "standardize", "pivot_feature", "train_quantile", "swap_fraction"}
    unknown = set(raw) - known
    if unknown:
        problems.append(f"unknown data keys: {sorted(unknown)}")
    if "target_column" not in raw:
        problems.append("data.target_column is required")
    pre_split = raw.get("train_csv") is not None or raw.get("test_csv") is not None
    single = raw.get("csv") is not None
    if pre_split == single:
        problems.append("data must give either train_csv+test_csv or csv+pivot_feature")
    if pre_split and (raw.get("train_csv") is None or raw.get("test_csv") is None):
        problems.append("pre-split data needs both train_csv and test_csv")
    if single and raw.get("pivot_feature") is None:
        problems.append("data.pivot_feature is required with a single csv")
    q = _convert(raw.get("train_quantile", DataSource.train_quantile),
                 "data.train_quantile", problems)
    s = _convert(raw.get("swap_fraction", DataSource.swap_fraction),
                 "data.swap_fraction", problems)
    if q is not None and not (0.0 < q < 1.0):
        problems.append("data.train_quantile must lie in (0, 1)")
    if s is not None and not (0.0 <= s < 1.0):
        problems.append("data.swap_fraction must lie in [0, 1)")
    target = (_convert(raw["target_column"], "data.target_column", problems,
                       int) if "target_column" in raw else None)
    pivot = (None if raw.get("pivot_feature") is None else
             _convert(raw["pivot_feature"], "data.pivot_feature", problems, int))
    if problems:
        return None
    return DataSource(target_column=target,
                      has_header=bool(raw.get("has_header", True)),
                      standardize=bool(raw.get("standardize", True)),
                      train_csv=raw.get("train_csv"),
                      test_csv=raw.get("test_csv"),
                      csv=raw.get("csv"),
                      pivot_feature=pivot, train_quantile=q, swap_fraction=s)


def config_from_dict(config: dict) -> ExperimentConfig:
    """Strictly validate a JSON-style config dict.

    Raises ConfigError listing every violated constraint; scenario-critical
    fields (lambda, beta, seed) have no defaults.
    """
    problems: list[str] = []
    if not isinstance(config, dict):
        raise ConfigError(["config must be a JSON object"])

    unknown = set(config) - _KNOWN_KEYS
    if unknown:
        problems.append(f"unknown config keys: {sorted(unknown)}")

    scenario = config.get("scenario")
    if scenario not in SCENARIOS:
        problems.append(f"scenario must be one of {list(SCENARIOS)}")
        raise ConfigError(problems)
    synthetic_scenario = scenario != "coverage_mse_sweep"

    seed = config.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        problems.append("seed is required and must be an integer")
        seed = 0

    kernel = config.get("kernel", "gaussian")
    if kernel not in ("gaussian", "epanechnikov"):
        problems.append("kernel must be \"gaussian\" or \"epanechnikov\"")

    lam = config.get("lambda")
    if lam is None:
        if synthetic_scenario:
            problems.append(f"lambda is required for scenario {scenario}")
    else:
        lam = _convert(lam, "lambda", problems)
        if lam is not None and not (0.0 < lam < math.inf):
            problems.append("lambda must be a positive real")

    beta = config.get("beta")
    needs_beta = scenario in ("acceptance_curve", "excess_risk_vs_n",
                              "pointwise_convergence")
    if beta is None:
        if needs_beta:
            problems.append(f"beta is required for scenario {scenario}")
    else:
        beta = _convert(beta, "beta", problems)
        if beta is not None and not (0.0 < beta <= 0.5):
            problems.append("beta must lie in (0, 0.5]")

    beta_list, z_list, lambdas = (
        None if config.get(key) is None else _reals(config[key], key, problems)
        for key in ("beta_list", "z_list", "lambdas"))
    if beta_list and any(not (0.0 < b <= 0.5) for b in beta_list):
        problems.append("every beta_list entry must lie in (0, 0.5]")
    if z_list and any(z < 0.0 for z in z_list):
        problems.append("every z_list entry must be nonnegative")
    if lambdas and any(v < 0.0 for v in lambdas):
        problems.append("every lambdas entry must be nonnegative")

    if scenario == "excess_risk_vs_beta" and not beta_list:
        problems.append("beta_list is required for scenario excess_risk_vs_beta")
    if scenario == "coverage_mse_sweep":
        if not lambdas:
            problems.append("lambdas is required for scenario coverage_mse_sweep")
        if not beta_list and not z_list:
            problems.append("coverage_mse_sweep needs beta_list or z_list")

    n_raw = config.get("n")
    n_list = None
    if n_raw is None:
        if synthetic_scenario:
            problems.append(f"n is required for scenario {scenario}")
    else:
        values = n_raw if isinstance(n_raw, (list, tuple)) else [n_raw]
        if not values or any(not isinstance(v, int) or isinstance(v, bool)
                             or v < 1 for v in values):
            problems.append("n must be a positive integer or list of them")
        else:
            n_list = tuple(values)
            if scenario == "excess_risk_vs_beta" and len(n_list) != 1:
                problems.append("excess_risk_vs_beta takes a single n")

    replicates = config.get("replicates")
    if synthetic_scenario:
        if not isinstance(replicates, int) or isinstance(replicates, bool) \
                or replicates < 1:
            problems.append("replicates is required and must be a positive integer")
            replicates = None

    x_grid = _parse_x_grid(config.get("x_grid"), problems)
    if x_grid is None and synthetic_scenario:
        if scenario == "pointwise_convergence":
            x_grid = DIAGNOSTIC_POINTS
        else:
            x_grid = tuple(np.linspace(-2.0, 2.0, 81))

    h_policy = _parse_h(config.get("h"), problems)
    if scenario == "pointwise_convergence" and h_policy.kind != "power":
        problems.append("pointwise_convergence requires the power bandwidth "
                        "rule {\"power\": {\"c\": ..., \"exponent\": ...}}")

    synthetic = truth = None
    if synthetic_scenario:
        synthetic, truth = _parse_synthetic(config.get("synthetic"), problems)
        if synthetic is not None and kernel == "epanechnikov" and synthetic.d != 1:
            problems.append("the Epanechnikov kernel is only provided for d=1")

    data = None
    if scenario == "coverage_mse_sweep":
        data = _parse_data(config.get("data"), problems)

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(scenario=scenario, seed=seed, kernel=kernel,
                            lam=lam, beta=beta, beta_list=beta_list,
                            z_list=z_list, lambdas=lambdas, n_list=n_list,
                            replicates=replicates, x_grid=x_grid,
                            h_policy=h_policy, synthetic=synthetic,
                            truth=truth, data=data)
