"""Experiment scenarios: parameterized runs emitting tabular results.

Five scenarios cover the synthetic studies (acceptance curves, excess risk
against sample size / significance level, pointwise convergence under a
bandwidth power law) and the real-data coverage/MSE sweep over the
abstention cost. Each run is a pure function of (config, seed); rerunning
with the same config yields byte-identical CSV files.
"""

from __future__ import annotations

import json
import numbers
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .abstention import _LEVEL, AbstentionConfig, critical_value, decide_batch
from .data import (_FRACTION, _QUANTILE, Dataset, Normal, ShiftSplit,
                   SyntheticSpec, Uniform, covariate_shift_split, load_csv,
                   mean_quadratic, sd_heaviside, sd_sigmoid, standardize,
                   table_fn)
from .estimators import _POSITIVE, HPolicy, evaluate_batch
from .kernels import KernelKind, kernel_spec
from .risk import monte_carlo_expected_excess

DIAGNOSTIC_POINTS = (-1.6, -0.5, 0.3, 0.8, 1.6)

_MEAN_FNS = {"quadratic": mean_quadratic}
_SD_FNS = {"sigmoid": sd_sigmoid, "heaviside": sd_heaviside, "zero": np.zeros_like}


class ConfigError(ValueError):
    """Invalid experiment config; carries one message per violation."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


@dataclass(frozen=True)
class DataSource:
    """Coverage-sweep input: pre-split CSVs, or one CSV plus a pivot split;
    each is read by ``load_csv``, with a header row only if has_header."""

    target_column: int
    has_header: bool = False
    standardize: bool = True
    train_csv: Optional[str] = None
    test_csv: Optional[str] = None
    csv: Optional[str] = None
    pivot_feature: Optional[int] = None
    train_quantile: float = ShiftSplit.train_quantile
    swap_fraction: float = ShiftSplit.swap_fraction

    def paths(self) -> list[str]:
        return [p for p in (self.train_csv, self.test_csv, self.csv) if p]

    def load(self, seed: int) -> tuple[Dataset, Dataset]:
        def read(path) -> Dataset:
            return load_csv(path, has_header=self.has_header,
                            target_column=self.target_column)

        if self.csv is not None:
            split = ShiftSplit(pivot_feature=self.pivot_feature,
                               train_quantile=self.train_quantile,
                               swap_fraction=self.swap_fraction, seed=seed)
            train, test = covariate_shift_split(read(self.csv), split)
        else:
            train, test = read(self.train_csv), read(self.test_csv)
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
    lambdas: Optional[tuple] = None
    n_list: Optional[tuple] = None
    replicates: Optional[int] = None
    x_grid: Optional[tuple] = None
    h_policy: HPolicy = field(default_factory=lambda: HPolicy(kind="loocv"))
    synthetic: Optional[SyntheticSpec] = None
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
    """Per n of cfg: (n, RiskReport) with one config row per beta.

    Every replicate is fitted once and evaluated once on the grid; each beta
    scores that same evaluation, so the methods' columns are directly
    comparable.
    """
    rule = cfg.h_policy.fit_rule(kernel_spec(cfg.kernel, cfg.synthetic.d))
    methods = [AbstentionConfig(lam=cfg.lam, beta=beta) for beta in betas]
    return [(n, monte_carlo_expected_excess(
                cfg.synthetic, n, methods, rule, cfg.x_grid, cfg.replicates,
                cfg.seed))
            for n in cfg.n_list]


def run_acceptance_curve(cfg: ExperimentConfig) -> Table:
    """Fraction of accepted predictions per grid point and sample size."""
    rows = [(float(x), n, accept)
            for n, rep in _monte_carlo(cfg, [cfg.beta])
            for x, accept in zip(cfg.x_grid, rep.accept_fraction[0])]
    return Table(header=("x", "n", "accept_fraction"), rows=rows)


def run_excess_risk_vs_n(cfg: ExperimentConfig) -> Table:
    """Expected excess risk against n for the test and the plugin baseline."""
    rows = [(float(x), n, method, excess, stderr)
            for n, rep in _monte_carlo(cfg, [cfg.beta, 0.5])
            for method, excesses, stderrs in zip(
                ("testing", "plugin"), rep.expected_excess, rep.mc_stderr)
            for x, excess, stderr in zip(cfg.x_grid, excesses, stderrs)]
    return Table(header=("x", "n", "method", "expected_excess", "stderr"),
                 rows=rows)


def run_excess_risk_vs_beta(cfg: ExperimentConfig) -> Table:
    """Excess risk and acceptance at fixed n across significance levels."""
    ((_, rep),) = _monte_carlo(cfg, cfg.beta_list)
    rows = [(float(x), beta, "plugin" if beta == 0.5 else "testing", *cell)
            for beta, *table in zip(cfg.beta_list, rep.expected_excess,
                                    rep.mc_stderr, rep.accept_fraction)
            for x, *cell in zip(cfg.x_grid, *table)]
    return Table(header=("x", "beta", "method", "expected_excess", "stderr",
                         "accept_fraction"), rows=rows)


def run_pointwise_convergence(cfg: ExperimentConfig) -> Table:
    """Excess risk at diagnostic points across n under the h power law."""
    # the power rule depends on n alone, so every replicate has the same h
    rows = [(float(x), n, n * rep.h[0], excess, stderr)
            for n, rep in _monte_carlo(cfg, [cfg.beta])
            for x, excess, stderr in zip(cfg.x_grid, rep.expected_excess[0],
                                         rep.mc_stderr[0])]
    return Table(header=("x", "n", "nh", "expected_excess", "stderr"),
                 rows=rows)


def run_coverage_mse_sweep(cfg: ExperimentConfig) -> Table:
    """Acceptance fraction and MSE over accepted test points per lambda.

    The fit, the evaluation of the test points and one decide_batch call
    broadcast over (lambda, beta, point) serve the whole sweep. An empty
    accepted set leaves the MSE cell blank.
    """
    train, test = cfg.data.load(cfg.seed)
    fit = cfg.h_policy.fit_rule(kernel_spec(cfg.kernel, train.d))(train)
    ev = evaluate_batch(fit, test.x)
    sq_err = np.square(ev.f_hat - test.y)

    z = [critical_value(beta) for beta in cfg.beta_list]
    accepted = decide_batch(ev, fit, np.reshape(cfg.lambdas, (-1, 1, 1)),
                            np.reshape(z, (-1, 1)))[0]
    rows = [(lam, "plugin" if beta == 0.5 else f"beta={beta:g}", float(acc.mean()),
             float(np.mean(sq_err[acc])) if acc.any() else None)
            for lam, by_beta in zip(cfg.lambdas, accepted)
            for beta, acc in zip(cfg.beta_list, by_beta)]
    return Table(header=("lambda", "method", "accept_fraction",
                         "mse_accepted"), rows=rows)


_RUNNERS = {
    "acceptance_curve": run_acceptance_curve,
    "excess_risk_vs_n": run_excess_risk_vs_n,
    "excess_risk_vs_beta": run_excess_risk_vs_beta,
    "pointwise_convergence": run_pointwise_convergence,
    "coverage_mse_sweep": run_coverage_mse_sweep,
}
SCENARIOS = tuple(_RUNNERS)


def _git_blob_sha1(path) -> str:
    import hashlib  # here, not at the top: it loads OpenSSL's libcrypto
    blob = Path(path).read_bytes()
    return hashlib.sha1(b"blob %d\0" % len(blob) + blob).hexdigest()


def run_scenario(config: dict, out_dir) -> dict:
    """Validate the config, run its scenario, write the CSV and manifest.

    Returns the manifest dict. The output directory is only created once the
    table is computed, and the manifest only written after the CSV exists.
    """
    cfg = config_from_dict(config)
    started = datetime.now(timezone.utc)
    t0 = time.monotonic()
    table = _RUNNERS[cfg.scenario](cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{cfg.scenario}.csv"
    write_csv(table, csv_path)

    hashes, inputs = {}, {}
    if cfg.scenario == "coverage_mse_sweep":
        hashes = {p: _git_blob_sha1(p) for p in cfg.data.paths()}
        # config keeps the paths as given; this records where they led
        inputs = {p: str(Path(p).resolve()) for p in cfg.data.paths()}
    manifest = {
        "config": config,
        "seed": cfg.seed,
        "started": started.isoformat(),
        "finished": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": time.monotonic() - t0,
        "outputs": [str(csv_path)],
        "inputs": inputs,
        "input_hashes": hashes,
        "version": __version__,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n",
                             encoding="utf-8")
    return manifest


# --- config parsing -------------------------------------------------------

_SYNTHETIC = tuple(s for s in SCENARIOS if s != "coverage_mse_sweep")

# a linspace grid larger than this is refused before it is allocated
_MAX_GRID_POINTS = 1_000_000


def _convert(raw, kind: str):
    """raw as a value of its kind, or None: an integer or a real is a JSON
    number and never a bool, a real is finite, a path a nonempty string."""
    number = isinstance(raw, numbers.Real) and not isinstance(raw, bool)
    if kind == "integer":
        return int(raw) if number and isinstance(raw, numbers.Integral) else None
    if kind == "real":
        return float(raw) if number and abs(raw) <= sys.float_info.max else None
    if kind == "bool":
        return raw if isinstance(raw, bool) else None
    return raw if isinstance(raw, str) and raw else None


_KINDS = {"integer": "an integer", "real": "a finite real",
          "bool": "true or false", "path": "a nonempty string"}


@dataclass(frozen=True)
class _Field:
    """One config value. shape is "one", "list" (nonempty) or "either" (one
    value or a nonempty list, read as a tuple); rule is (predicate, demand)
    on each value; the scenarios of required_by need the field."""

    key: str
    kind: str
    shape: str = "one"
    rule: Optional[tuple] = None
    required_by: tuple = ()
    attr: Optional[str] = None  # the key when None


_NONNEGATIVE = (lambda v: v >= 0.0, "be nonnegative")
_COUNT = (lambda v: v >= 1, "be a positive integer")
_INDEX = (lambda v: v >= 0, "be a nonnegative integer")

_TOP_FIELDS = (
    _Field("seed", "integer", required_by=SCENARIOS),
    _Field("lambda", "real", rule=_POSITIVE, required_by=_SYNTHETIC, attr="lam"),
    _Field("beta", "real", rule=_LEVEL,
           required_by=("acceptance_curve", "excess_risk_vs_n",
                        "pointwise_convergence")),
    _Field("beta_list", "real", "list", _LEVEL,
           ("excess_risk_vs_beta", "coverage_mse_sweep")),
    _Field("lambdas", "real", "list", _NONNEGATIVE, ("coverage_mse_sweep",)),
    _Field("n", "integer", "either", _COUNT, _SYNTHETIC, attr="n_list"),
    _Field("replicates", "integer", rule=_COUNT, required_by=_SYNTHETIC),
)

_DATA_FIELDS = (
    _Field("train_csv", "path"),
    _Field("test_csv", "path"),
    _Field("csv", "path"),
    _Field("target_column", "integer", rule=_INDEX, required_by=SCENARIOS),
    _Field("has_header", "bool"),
    _Field("standardize", "bool"),
    _Field("pivot_feature", "integer", rule=_INDEX),
    _Field("train_quantile", "real", rule=_QUANTILE),
    _Field("swap_fraction", "real", rule=_FRACTION),
)

# h form -> its fields; {"fixed": h} holds its one value directly
_H_FIELDS = {
    "fixed": (_Field("fixed", "real", rule=_POSITIVE, required_by=SCENARIOS,
                     attr="h"),),
    "power": (_Field("c", "real", rule=_POSITIVE), _Field("exponent", "real")),
    "loocv": (_Field("grid", "real", "list", _POSITIVE),),
}


def _value(raw, name: str, kind: str, problems: list, rule=None):
    """raw converted by its kind and checked by rule, or None after a problem."""
    value = _convert(raw, kind)
    if value is None:
        problems.append(f"{name} must be {_KINDS[kind]}, got {raw!r}")
    elif rule is not None and not rule[0](value):
        problems.append(f"{name} must {rule[1]}, got {value!r}")
        return None
    return value


def _values(raw, name: str, kind: str, problems: list,
            rule=None) -> Optional[tuple]:
    """_value of every entry of a nonempty list, or None after problems."""
    if not isinstance(raw, (list, tuple)) or not raw:
        problems.append(f"{name} must be a nonempty list, got {raw!r}")
        return None
    values = tuple(_value(v, f"{name}[{i}]", kind, problems, rule)
                   for i, v in enumerate(raw))
    return None if None in values else values


def _parse_block(raw: dict, table, prefix: str, scenario: str, problems: list,
                 other_keys=()) -> dict:
    """{attribute: value} of the fields of table given in raw (None counts as
    not given; a value with a problem holds None), each checked whether or not
    the scenario reads it. Keys in neither table nor other_keys are unknown."""
    unknown = set(raw) - {f.key for f in table} - set(other_keys)
    if unknown:
        problems.append(f"unknown {prefix[:-1] or 'config'} keys: {sorted(unknown)}")
    fields = {}
    for f in table:
        name, given = prefix + f.key, raw.get(f.key)
        if given is None:
            if scenario in f.required_by:
                problems.append(f"{name} is required for scenario {scenario}")
        elif f.shape == "list" or (f.shape == "either"
                                   and isinstance(given, (list, tuple))):
            fields[f.attr or f.key] = _values(given, name, f.kind, problems, f.rule)
        else:
            value = _value(given, name, f.kind, problems, f.rule)
            fields[f.attr or f.key] = (value,) if f.shape == "either" else value
    return fields


def _parse_x_grid(raw, problems) -> Optional[tuple]:
    """A list of reals or {"linspace": [lo, hi, num]}, as a tuple of points."""
    if not (isinstance(raw, dict) and set(raw) == {"linspace"}):
        return _values(raw, "x_grid", "real", problems)
    spec = _values(raw["linspace"], "x_grid.linspace", "real", problems)
    if spec is not None and (len(spec) != 3 or not spec[2].is_integer()
                             or not 1 <= spec[2] <= _MAX_GRID_POINTS):
        problems.append("x_grid.linspace must be [lo, hi, num] with a whole "
                        f"num in [1, {_MAX_GRID_POINTS}]")
        return None
    return None if spec is None else tuple(np.linspace(spec[0], spec[1], int(spec[2])))


def _parse_h(raw, scenario: str, problems) -> HPolicy:
    if raw is None or raw == "loocv":
        return HPolicy(kind="loocv")
    if isinstance(raw, dict) and len(raw) == 1:
        ((kind, block),) = raw.items()
        block, prefix = (raw, "h.") if kind == "fixed" else (block, f"h.{kind}.")
        if kind in _H_FIELDS and isinstance(block, dict):
            fields = _parse_block(block, _H_FIELDS[kind], prefix, scenario, problems)
            if None in fields.values() or (kind == "fixed" and "h" not in fields):
                return HPolicy(kind="loocv")  # the field's problem is recorded
            return HPolicy(kind=kind, **fields)
    problems.append("h must be \"loocv\", {\"fixed\": h}, {\"power\": {...}} "
                    "or {\"loocv\": {\"grid\": [...]}}")
    return HPolicy(kind="loocv")


def _parse_fn(raw, registry, what, problems) -> Optional[Callable]:
    if isinstance(raw, str) and raw in registry:
        return registry[raw]
    if isinstance(raw, dict) and set(raw) == {"table"}:
        table = raw["table"] if isinstance(raw["table"], dict) else {}
        xs, ys = (_values(table.get(k), f"{what}.table.{k}", "real", problems)
                  for k in ("x", "y"))
        if xs is not None and ys is not None:
            try:
                return table_fn(xs, ys)
            except ValueError as exc:
                problems.append(f"invalid {what} table: {exc}")
    else:
        problems.append(f"{what} must be one of {sorted(registry)} or a "
                        f"{{\"table\": ...}} spec, got {raw!r}")
    return None


def _parse_synthetic(raw, problems) -> Optional[SyntheticSpec]:
    if not isinstance(raw, dict):
        problems.append("synthetic block is required for this scenario"
                        if raw is None else
                        f"synthetic must be a JSON object, got {raw!r}")
        return None
    _parse_block(raw, (), "synthetic.", "", problems, ("covariates", "mean", "sd"))
    mean_fn = _parse_fn(raw.get("mean"), _MEAN_FNS, "synthetic.mean", problems)
    sd_fn = _parse_fn(raw.get("sd"), _SD_FNS, "synthetic.sd", problems)
    covariates = raw.get("covariates")
    single = (covariates[0] if isinstance(covariates, (list, tuple))
              and len(covariates) == 1 else None)
    if not (isinstance(single, dict) and set(single) in ({"uniform"}, {"normal"})):
        problems.append("synthetic.covariates must hold one covariate, "
                        "[{\"uniform\": [lo, hi]}] or [{\"normal\": [mu, sd]}], "
                        f"got {covariates!r}")
        return None
    ((kind, params),) = single.items()
    name = f"synthetic.covariates[0].{kind}"
    values = _values(params, name, "real", problems)
    if values is not None and len(values) != 2:
        problems.append(f"{name} must hold two reals")
    elif values is not None:
        try:
            dist = (Uniform if kind == "uniform" else Normal)(*values)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            return None
        return SyntheticSpec(covariate_dists=(dist,), mean_fn=mean_fn,
                             sd_fn=sd_fn, n=1, seed=0)
    return None


def _parse_data(raw, scenario: str, problems) -> Optional[DataSource]:
    if not isinstance(raw, dict):
        problems.append("data block is required for coverage_mse_sweep"
                        if raw is None else
                        f"data must be a JSON object, got {raw!r}")
        return None
    fields = _parse_block(raw, _DATA_FIELDS, "data.", scenario, problems)
    sources = {k for k in ("train_csv", "test_csv", "csv") if raw.get(k) is not None}
    if sources not in ({"train_csv", "test_csv"}, {"csv"}):
        problems.append("data must give either train_csv+test_csv or csv+pivot_feature")
    if "csv" in sources and raw.get("pivot_feature") is None:
        problems.append("data.pivot_feature is required with a single csv")
    return None if problems else DataSource(**fields)


def config_from_dict(config: dict) -> ExperimentConfig:
    """Strictly validate a JSON-style config dict.

    Raises ConfigError listing every violated constraint; scenario-critical
    fields (lambda, beta, seed) have no defaults. A field that is given is
    checked whether or not its scenario reads it.
    """
    if not isinstance(config, dict):
        raise ConfigError(["config must be a JSON object"])
    scenario = config.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError([f"scenario must be one of {list(SCENARIOS)}"])
    synthetic_scenario = scenario in _SYNTHETIC
    problems: list[str] = []
    top = _parse_block(config, _TOP_FIELDS, "", scenario, problems,
                       ("scenario", "kernel", "x_grid", "h", "synthetic", "data"))

    kernel = config.get("kernel", "gaussian")
    if kernel not in [k.value for k in KernelKind]:
        problems.append("kernel must be " + " or ".join(
            f"\"{k.value}\"" for k in KernelKind))
    if scenario == "excess_risk_vs_beta" and len(top.get("n_list") or ()) > 1:
        problems.append("excess_risk_vs_beta takes a single n")

    x_grid = config.get("x_grid")
    if x_grid is not None:
        x_grid = _parse_x_grid(x_grid, problems)
    elif synthetic_scenario:
        x_grid = (DIAGNOSTIC_POINTS if scenario == "pointwise_convergence"
                  else tuple(np.linspace(-2.0, 2.0, 81)))

    h_policy = _parse_h(config.get("h"), scenario, problems)
    if scenario == "pointwise_convergence" and h_policy.kind != "power":
        problems.append("pointwise_convergence requires the power bandwidth "
                        "rule {\"power\": {\"c\": ..., \"exponent\": ...}}")

    synthetic = data = None
    if synthetic_scenario or config.get("synthetic") is not None:
        synthetic = _parse_synthetic(config.get("synthetic"), problems)
    if not synthetic_scenario or config.get("data") is not None:
        data = _parse_data(config.get("data"), scenario, problems)

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(scenario=scenario, kernel=kernel, x_grid=x_grid,
                            h_policy=h_policy, synthetic=synthetic, data=data,
                            **top)
