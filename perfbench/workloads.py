"""The benchmark's workloads: inputs made from a seed, timed work, checks.

Every workload is one closed loop with one caller: an iteration starts only
after the previous one returned. ``prepare`` builds an iteration's inputs
(untimed), ``execute`` is the timed work, ``collect`` keeps the files the
work wrote, and ``check`` compares outputs with the reference after the
timed window has closed.

Why these three (see also BENCHMARK.json):

* mc_small_n -- the paper's Monte-Carlo study at small n. Per-point Python
  work (decide -> evaluate_point -> normal_quantile, pointwise_excess)
  dominates and LOO-CV is about a quarter of the time.
* mc_large_n -- the same model at n = 1000 and 2000 on a 9-point grid.
  LOO-CV is nearly all of the time and n straddles the package's 1024-row
  block; per-point changes should not show.
* airfoil_shift -- the real-data route: CSV in, d = 5 kernels, one
  evaluation reused across 50 (lambda, method) cells, single-query latency
  on a fitted model, and the CLI.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import reference as ref

LAM = 0.36
BETA = 0.05
AIRFOIL_LAM = 40.0
AIRFOIL_CSV = "data/airfoil_like.csv"
AIRFOIL_SWEEP = "results/coverage_sweep/coverage_mse_sweep.csv"
# The committed sweep's config, as scripts/coverage_sweep.py builds it.
AIRFOIL_LAMBDAS = [0.0] + [float(v) for v in np.geomspace(160.0 / 300.0, 160.0, 24)]
AIRFOIL_BETAS = [0.05, 0.5]
AIRFOIL_COMMITTED_SEED = 99

SYNTHETIC = {"covariates": [{"uniform": [-2, 2]}], "mean": "quadratic",
             "sd": "sigmoid"}

SIZES = {
    "mc_small_n": {
        # few replicates keep an iteration short (about 0.3 s), so that the
        # run's fast iterations resolve the machine's short fast phases
        "full": dict(ns=[20, 50, 100, 200], grid=81, replicates=4,
                     queries=256, cli_n=200),
        "tiny": dict(ns=[20, 50], grid=9, replicates=2, queries=16, cli_n=30),
    },
    "mc_large_n": {
        "full": dict(ns=[1000, 2000], grid=9, replicates=1, queries=256,
                     cli_n=1000),
        "tiny": dict(ns=[60, 90], grid=5, replicates=1, queries=16, cli_n=40),
    },
    "airfoil_shift": {
        "full": dict(rows=1500, cli_calls=3),
        "tiny": dict(rows=200, cli_calls=1),
    },
}
WORKLOADS = tuple(SIZES)


def sub_seed(seed: int, *index: int) -> int:
    """A 31-bit seed for (workload seed, index, ...), independent of selreg."""
    state = np.random.SeedSequence([seed, *index]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def call_cli(sel, argv: list[str]) -> tuple[int, str, float]:
    """Run ``selreg <argv>`` in-process; return exit code, stdout, seconds.

    A query such as ``-4.7e-05`` must be passed as ``--x=-4.7e-05``: after a
    bare ``--x`` argparse takes it for an option.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = sel.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - t0
    return rc, out.getvalue(), elapsed


class Checker:
    """Counts output checks attempted and failed; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def check_decisions(chk: Checker, fit, points, decisions, lam: float,
                    z: float, what: str) -> None:
    """Compare single-query decisions on ``fit`` with the reference rule."""
    train = fit.train
    est = ref.nw(points, train.x, train.y, fit.h)
    if not chk.check(len(decisions) == len(points), f"{what}: decision count"):
        return
    for i, dec in enumerate(decisions):
        thr, _, allowed = ref.rule(est["sigma2_hat"][i], est["p_hat"][i],
                                   train.n, fit.h, train.d, lam, z)
        reason = dec.reason.value
        ok = (reason in allowed
              and (dec.verdict.value == "accept") == (reason == ref.ACCEPTED)
              and ref.close(dec.eval.f_hat, est["f_hat"][i])
              and ref.close(dec.eval.sigma2_hat, est["sigma2_hat"][i])
              and ref.close(dec.eval.p_hat, est["p_hat"][i])
              and ref.close(dec.threshold, thr))
        chk.check(ok, f"{what}: query {i} gave {reason}, reference {sorted(allowed)}")


def check_cli_decide(chk: Checker, rc: int, stdout: str, x, y, query,
                     lam: float, z: float, h_ref, what: str) -> None:
    """Compare one ``selreg decide --h-loocv`` answer with the reference."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        chk.check(False, f"{what}: output is not JSON: {stdout[:80]!r}")
        return
    h, grid, scores = h_ref
    ok_h = ref.h_agrees(out["h"], grid, scores)
    h_used = out["h"] if ok_h else h
    est = ref.nw(np.asarray(query, dtype=float)[None, :], x, y, h_used)
    thr, _, allowed = ref.rule(est["sigma2_hat"][0], est["p_hat"][0], len(y),
                               h_used, x.shape[1], lam, z)
    ok = (ok_h and out["reason"] in allowed
          and (out["verdict"] == "accept") == (out["reason"] == ref.ACCEPTED)
          and rc == (0 if out["verdict"] == "accept" else 3)
          and ref.close(out["f_hat"], est["f_hat"][0])
          and ref.close(out["sigma2_hat"], est["sigma2_hat"][0])
          and ref.close(out["p_hat"], est["p_hat"][0])
          and ref.close(out["threshold"], thr))
    chk.check(ok, f"{what}: got {out}, reference h={h} reasons={sorted(allowed)}")


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def _write_table(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    rows = (",".join(format(v, ".17g") for v in (*xi, yi)) for xi, yi in zip(x, y))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


class MonteCarlo:
    """Synthetic Monte-Carlo scenario through ``run_scenario``, plus
    single-query latency on fitted models and one CLI decide per iteration.
    """

    def __init__(self, sel, name: str, seed: int, size: str, out_dir: Path):
        self.sel = sel
        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        self.p = SIZES[name][size]
        self.scenario = "excess_risk_vs_n" if name == "mc_small_n" else "acceptance_curve"
        self.methods = ([("testing", BETA), ("plugin", 0.5)]
                        if self.scenario == "excess_risk_vs_n" else [(None, BETA)])
        p = self.p
        self.x_grid = np.linspace(-2.0, 2.0, p["grid"])
        self.replicates_per_iteration = len(p["ns"]) * p["replicates"]
        self.decisions_per_iteration = (
            len(p["ns"]) * len(self.methods) * p["replicates"] * p["grid"]
            + p["queries"] + 1)
        out_dir.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _draw(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
        x = rng.uniform(-2.0, 2.0, n)
        y = x * x / 4.0 + rng.standard_normal(n) / (1.0 + np.exp(-x))
        return x, y

    def prepare(self, i: int) -> dict:
        p = self.p
        s = sub_seed(self.seed, i)
        rng = np.random.default_rng(sub_seed(self.seed, i, 1))
        config = {"scenario": self.scenario, "seed": s, "lambda": LAM,
                  "beta": BETA, "n": list(p["ns"]), "replicates": p["replicates"],
                  "x_grid": {"linspace": [-2, 2, p["grid"]]},
                  "synthetic": SYNTHETIC}
        # single queries go to one model fitted at the largest n; a mix of
        # sizes would put the latency median on the boundary between them
        n = max(p["ns"])
        qx, qy = self._draw(rng, n)
        points = rng.uniform(-2.5, 2.5, p["queries"])
        cx, cy = self._draw(rng, p["cli_n"])
        csv_path = self.out_dir / "cli_train.csv"
        _write_table(csv_path, cx[:, None], cy)
        query = float(rng.uniform(-2.0, 2.0))
        argv = ["decide", "--train", str(csv_path), "--target-col", "1",
                "--x=" + repr(query), "--lambda", repr(LAM), "--beta", repr(BETA),
                "--h-loocv"]
        return {"index": i, "config": config,
                "queries": (qx, qy, 1.2 * n ** -0.2, points),
                "cli": (argv, cx[:, None], cy, [query])}

    def execute(self, inp: dict) -> dict:
        sel = self.sel
        sel.experiments.run_scenario(inp["config"], self.out_dir / "scenario")
        kernel = sel.kernels.kernel_spec("gaussian", 1)
        cfg = sel.abstention.AbstentionConfig(lam=LAM, beta=BETA)
        x, y, h, points = inp["queries"]
        fit = sel.estimators.FitState(
            train=sel.estimators.Dataset(x=x, y=y), kernel=kernel, h=h)
        decisions, latency = [], []
        for q in points:
            t0 = time.perf_counter()
            decisions.append(sel.abstention.decide(fit, q, cfg))
            latency.append(time.perf_counter() - t0)
        rc, stdout, cli_s = call_cli(sel, inp["cli"][0])
        return {"fit": fit, "decisions": decisions, "query_s": latency,
                "cli": [(rc, stdout)], "cli_s": [cli_s]}

    def collect(self, inp: dict, rec: dict) -> None:
        path = self.out_dir / "scenario" / f"{self.scenario}.csv"
        rec["csv"] = path.read_text(encoding="utf-8")

    # --- checks ------------------------------------------------------------

    def reference_table(self, seed: int) -> list[tuple]:
        """The scenario's CSV rows recomputed with the reference."""
        sel, p = self.sel, self.p
        spec = sel.data.SyntheticSpec(
            covariate_dists=(sel.data.Uniform(-2.0, 2.0),),
            mean_fn=sel.data.mean_quadratic, sd_fn=sel.data.sd_sigmoid,
            n=1, seed=0)
        sample = sel.data.synthetic_sampler(spec)
        xg = self.x_grid
        f_true = xg * xg / 4.0
        s2_true = (1.0 / (1.0 + np.exp(-xg))) ** 2
        oracle_rejects = s2_true >= LAM
        rows = []
        for n in p["ns"]:
            R = p["replicates"]
            excess = np.zeros((len(self.methods), len(xg), R))
            accepted = np.zeros((len(self.methods), len(xg), R), dtype=bool)
            for r in range(R):
                ds = sample(n, sel.data.derive_seed(seed, r))
                x, y = ds.x[:, 0], ds.y
                h = ref.loocv_choice(x, y)[0]
                est = ref.nw(xg[:, None], x, y, h)
                for m, (_, beta) in enumerate(self.methods):
                    z = ref.z_value(beta)
                    for g in range(len(xg)):
                        _, reason, _ = ref.rule(est["sigma2_hat"][g], est["p_hat"][g],
                                                n, h, 1, LAM, z)
                        acc = reason == ref.ACCEPTED
                        wrong = (not acc) != oracle_rejects[g]
                        e = abs(s2_true[g] - LAM) if wrong else 0.0
                        if acc:
                            e += (est["f_hat"][g] - f_true[g]) ** 2
                        excess[m, g, r] = e
                        accepted[m, g, r] = acc
            for m, (label, _) in enumerate(self.methods):
                for g in range(len(xg)):
                    if label is None:
                        rows.append((xg[g], n, accepted[m, g].mean()))
                    else:
                        e = excess[m, g]
                        se = e.std(ddof=1) / math.sqrt(R) if R > 1 else 0.0
                        rows.append((xg[g], n, label, e.mean(), se))
        return rows

    def check(self, inp: dict, rec: dict, chk: Checker) -> None:
        i = inp["index"]
        got = _rows(rec["csv"])
        want = self.reference_table(inp["config"]["seed"])
        chk.check(len(got) == len(want), f"{self.name} it{i}: CSV row count")
        for k, (g, w) in enumerate(zip(got, want)):
            ok = float(g[0]) == w[0] and int(g[1]) == w[1]
            if len(w) == 3:
                ok = ok and float(g[2]) == w[2]
            else:
                ok = (ok and g[2] == w[2] and ref.close(float(g[3]), w[3])
                      and ref.close(float(g[4]), w[4]))
            chk.check(ok, f"{self.name} it{i}: CSV row {k} {g} vs reference {w}")
        z = ref.z_value(BETA)
        check_decisions(chk, rec["fit"], inp["queries"][3][:, None],
                        rec["decisions"], LAM, z, f"{self.name} it{i} queries")
        _, cx, cy, query = inp["cli"]
        rc, stdout = rec["cli"][0]
        check_cli_decide(chk, rc, stdout, cx, cy, query, LAM, z,
                         ref.loocv_choice(cx, cy), f"{self.name} it{i} cli")

    def check_once(self, chk: Checker) -> None:
        pass


class AirfoilShift:
    """Covariate-shift route on the bundled airfoil-like CSV.

    Per split seed: the coverage/MSE sweep through ``selreg experiment``,
    the same split fitted here with a single-query ``decide`` on every test
    point, and a few ``selreg decide --h-loocv`` calls on the whole CSV.
    The tiny size keeps the first rows of the CSV.
    """

    def __init__(self, sel, name: str, seed: int, size: str, out_dir: Path,
                 root: Path):
        self.sel = sel
        self.seed = seed
        self.out_dir = out_dir
        self.root = root
        self.p = SIZES[name][size]
        out_dir.mkdir(parents=True, exist_ok=True)
        self.csv = root / AIRFOIL_CSV
        table = np.loadtxt(self.csv, delimiter=",", ndmin=2)
        if self.p["rows"] < len(table):
            table = table[:self.p["rows"]]
            self.csv = out_dir / "airfoil_rows.csv"
            _write_table(self.csv, table[:, :5], table[:, 5])
        self.x, self.y = table[:, :5], table[:, 5]
        n_test = len(table) - int(math.floor(0.7 * len(table)))
        self.replicates_per_iteration = 1
        self.decisions_per_iteration = (
            len(AIRFOIL_LAMBDAS) * len(AIRFOIL_BETAS) * n_test + n_test
            + self.p["cli_calls"])
        self._h_full = None

    @staticmethod
    def _config(seed: int, csv: Path) -> dict:
        return {"scenario": "coverage_mse_sweep", "seed": seed,
                "lambdas": AIRFOIL_LAMBDAS, "h": "loocv",
                "data": {"csv": str(csv), "target_column": 5,
                         "has_header": False, "pivot_feature": 1,
                         "standardize": True},
                "beta_list": AIRFOIL_BETAS}

    def prepare(self, i: int) -> dict:
        s = sub_seed(self.seed, i)
        config_path = self.out_dir / "sweep.json"
        config_path.write_text(json.dumps(self._config(s, self.csv)), encoding="utf-8")
        rng = np.random.default_rng(sub_seed(self.seed, i, 1))
        queries = [self.x[r] for r in rng.choice(len(self.x), self.p["cli_calls"],
                                                  replace=False)]
        argvs = [["decide", "--train", str(self.csv), "--target-col", "5",
                  "--x=" + ",".join(repr(float(v)) for v in q),
                  "--lambda", repr(AIRFOIL_LAM), "--beta", repr(BETA), "--h-loocv"]
                 for q in queries]
        return {"index": i, "seed": s, "config_path": str(config_path),
                "queries": queries, "argvs": argvs}

    def execute(self, inp: dict) -> dict:
        sel = self.sel
        sweep_rc, _, _ = call_cli(sel, ["experiment", "--config", inp["config_path"],
                                        "--out-dir", str(self.out_dir / "sweep")])
        full = sel.data.load_csv(str(self.csv), target_column=5)
        train, test = sel.data.covariate_shift_split(
            full, sel.data.ShiftSplit(pivot_feature=1, seed=inp["seed"]))
        train, test, _ = sel.data.standardize(train, test)
        kernel = sel.kernels.kernel_spec("gaussian", train.d)
        fit = sel.estimators.loocv_bandwidth(kernel)(train)
        cfg = sel.abstention.AbstentionConfig(lam=AIRFOIL_LAM, beta=BETA)
        decisions, latency = [], []
        for q in test.x:
            t0 = time.perf_counter()
            decisions.append(sel.abstention.decide(fit, q, cfg))
            latency.append(time.perf_counter() - t0)
        cli, cli_s = [], []
        for argv in inp["argvs"]:
            rc, stdout, elapsed = call_cli(sel, argv)
            cli.append((rc, stdout))
            cli_s.append(elapsed)
        return {"sweep_rc": sweep_rc, "fit": fit, "test": test,
                "decisions": decisions, "query_s": latency, "cli": cli,
                "cli_s": cli_s}

    def collect(self, inp: dict, rec: dict) -> None:
        rec["csv"] = (self.out_dir / "sweep" / "coverage_mse_sweep.csv").read_text(
            encoding="utf-8")

    def check(self, inp: dict, rec: dict, chk: Checker) -> None:
        what = f"airfoil_shift it{inp['index']}"
        chk.check(rec["sweep_rc"] == 0, f"{what}: selreg experiment exit code")
        fit, test = rec["fit"], rec["test"]
        train = fit.train
        h_ref, grid, scores = ref.loocv_choice(train.x, train.y)
        h_ok = chk.check(ref.h_agrees(fit.h, grid, scores),
                         f"{what}: LOO-CV h {fit.h} vs reference {h_ref}")
        h = fit.h if h_ok else h_ref
        est = ref.nw(test.x, train.x, train.y, h)
        want = []
        for lam in AIRFOIL_LAMBDAS:
            for beta in AIRFOIL_BETAS:
                label = "plugin" if beta == 0.5 else f"beta={beta:g}"
                z = ref.z_value(beta)
                acc = np.array([ref.rule(s2, p, train.n, h, train.d, lam, z)[1]
                                == ref.ACCEPTED
                                for s2, p in zip(est["sigma2_hat"], est["p_hat"])])
                mse = (float(np.mean((est["f_hat"][acc] - test.y[acc]) ** 2))
                       if acc.any() else None)
                want.append((lam, label, acc.sum() / test.n, mse))
        got = _rows(rec["csv"])
        chk.check(len(got) == len(want), f"{what}: sweep row count")
        for k, (g, w) in enumerate(zip(got, want)):
            ok = (float(g[0]) == w[0] and g[1] == w[1] and float(g[2]) == w[2]
                  and ((g[3] == "" and w[3] is None)
                       or (g[3] != "" and w[3] is not None
                           and ref.close(float(g[3]), w[3]))))
            chk.check(ok, f"{what}: sweep row {k} {g} vs reference {w}")
        check_decisions(chk, fit, test.x, rec["decisions"], AIRFOIL_LAM,
                        ref.z_value(BETA), f"{what} queries")
        if self._h_full is None:
            self._h_full = ref.loocv_choice(self.x, self.y)
        for k, ((rc, stdout), q) in enumerate(zip(rec["cli"], inp["queries"])):
            check_cli_decide(chk, rc, stdout, self.x, self.y, q, AIRFOIL_LAM,
                             ref.z_value(BETA), self._h_full, f"{what} cli {k}")

    def check_once(self, chk: Checker) -> None:
        """The committed config (seed 99) must reproduce the committed CSV."""
        config = self._config(AIRFOIL_COMMITTED_SEED, self.root / AIRFOIL_CSV)
        path = self.out_dir / "committed.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = self.out_dir / "committed"
        rc, _, _ = call_cli(self.sel, ["experiment", "--config", str(path),
                                       "--out-dir", str(out)])
        produced = (out / "coverage_mse_sweep.csv").read_bytes() if rc == 0 else b""
        chk.check(produced == (self.root / AIRFOIL_SWEEP).read_bytes(),
                  "airfoil_shift: seed-99 sweep differs from the committed CSV")


def make(sel, name: str, seed: int, size: str, out_dir: Path, root: Path):
    if name == "airfoil_shift":
        return AirfoilShift(sel, name, seed, size, out_dir, root)
    return MonteCarlo(sel, name, seed, size, out_dir)
