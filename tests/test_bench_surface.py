"""The package surface the benchmark builds on, checked as it is used.

perfbench/tracing.py replaces each (module, function) of its WRAPPED table
with a timing wrapper, looked up by name, and perfbench/workloads.py
builds inputs, reads results and calls the CLI through the modules
selreg.{abstention,cli,data,estimators,experiments,kernels}. Renaming,
deleting or reshaping any of these breaks the benchmark run, so they are
checked here the way the benchmark uses them. The benchmark's own files
are only loaded, never changed.
"""

import contextlib
import dataclasses
import enum
import importlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

from selreg import abstention, cli, data, estimators, kernels

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _load_tracing()
WRAPPED = _TRACING.WRAPPED


@pytest.mark.parametrize("metric,module,name", WRAPPED,
                         ids=[metric for metric, _, _ in WRAPPED])
def test_wrapped_function_is_callable(metric, module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def _sigmoid_spec():
    return data.SyntheticSpec(covariate_dists=(data.Uniform(-2.0, 2.0),),
                              mean_fn=data.mean_quadratic,
                              sd_fn=data.sd_sigmoid, n=1, seed=0)


def _fit(n=200, h=0.3):
    ds = data.synthetic_sampler(_sigmoid_spec())(n, data.derive_seed(7, 0))
    return estimators.FitState(
        train=estimators.Dataset(x=ds.x[:, 0], y=ds.y),
        kernel=kernels.kernel_spec("gaussian", 1), h=h)


def test_synthetic_sampler_on_a_one_row_spec():
    ds = data.synthetic_sampler(_sigmoid_spec())(50, data.derive_seed(3, 1))
    assert ds.x.shape == (50, 1) and ds.y.shape == (50,)


def test_decide_returns_a_replaceable_decision_record():
    d = abstention.decide(_fit(), np.float64(-1.6),
                          abstention.AbstentionConfig(lam=0.36, beta=0.05))
    assert dataclasses.is_dataclass(d)
    for value in (d.eval.f_hat, d.eval.sigma2_hat, d.eval.p_hat, d.threshold):
        assert isinstance(float(value), float)
    verdict, reason = type(d.verdict), type(d.reason)
    assert issubclass(verdict, enum.Enum) and issubclass(reason, enum.Enum)
    assert (verdict.ACCEPT.value, verdict.REJECT.value) == ("accept", "reject")
    assert reason.ACCEPTED.value == "accepted"
    assert reason.VARIANCE_TEST_FAILED.value == "variance_test_failed"
    rejected = dataclasses.replace(d, verdict=verdict.REJECT,
                                   reason=reason.VARIANCE_TEST_FAILED)
    accepted = dataclasses.replace(d, verdict=verdict.ACCEPT,
                                   reason=reason.ACCEPTED)
    assert rejected.accepted is False and accepted.accepted is True
    assert rejected.verdict.value == "reject"
    assert accepted.reason.value == "accepted"


def test_decide_from_evaluation_reasons_are_the_traced_strings():
    fit = _fit()
    cfg = abstention.AbstentionConfig(lam=0.36, beta=0.05)
    reasons = {abstention.decide_from_evaluation(
        estimators.evaluate_point(fit, [x]), fit, cfg.lam, cfg.z).reason.value
        for x in (-1.6, 1.8, 9.0)}  # quiet, noisy, far from the data
    assert reasons == set(_TRACING.REASONS)


def test_shift_split_standardize_and_loocv_fit(tmp_path):
    table = np.loadtxt(ROOT / "data" / "airfoil_like.csv", delimiter=",",
                       ndmin=2)[:200]
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("\n".join(",".join(format(v, ".17g") for v in row)
                                  for row in table) + "\n", encoding="utf-8")
    full = data.load_csv(str(csv_path), target_column=5)
    train, test = data.covariate_shift_split(
        full, data.ShiftSplit(pivot_feature=1, seed=11))
    scaled = data.standardize(train, test)
    assert len(scaled) == 3
    train, test, _ = scaled
    fit = estimators.loocv_bandwidth(kernels.kernel_spec("gaussian", train.d))(
        train)
    assert fit.h > 0.0
    assert (fit.train.n, fit.train.d) == (140, 5)
    assert fit.train.x.shape == (140, 5) and fit.train.y.shape == (140,)


def test_cli_decide_json_keys_and_exit_code(tmp_path):
    fit = _fit()
    csv_path = tmp_path / "train.csv"
    csv_path.write_text("\n".join(
        f"{format(x, '.17g')},{format(y, '.17g')}"
        for x, y in zip(fit.train.x[:, 0], fit.train.y)) + "\n",
        encoding="utf-8")
    verdicts = set()
    for query in (-1.6, 1.8, -4.7e-05):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["decide", "--train", str(csv_path),
                           "--target-col", "1", "--x=" + repr(query),
                           "--lambda", "0.36", "--beta", "0.05", "--h-loocv"])
        report = json.loads(out.getvalue())
        assert set(report) == {"verdict", "reason", "f_hat", "sigma2_hat",
                               "p_hat", "threshold", "h"}
        assert report["verdict"] in ("accept", "reject")
        assert rc == (0 if report["verdict"] == "accept" else 3)
        verdicts.add(report["verdict"])
    assert verdicts == {"accept", "reject"}
