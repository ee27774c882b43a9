import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selreg.data import airfoil_like_spec, generate_synthetic
from selreg.experiments import (ConfigError, Table, config_from_dict,
                                run_scenario, write_csv)

from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent


def synthetic_block():
    return {"covariates": [{"uniform": [-2, 2]}], "mean": "quadratic",
            "sd": "sigmoid"}


def acceptance_config(**kw):
    cfg = {"scenario": "acceptance_curve", "seed": 11, "lambda": 0.36,
           "beta": 0.05, "n": [50], "replicates": 2,
           "x_grid": {"linspace": [-2, 2, 9]},
           "synthetic": synthetic_block()}
    cfg.update(kw)
    return cfg


def coverage_config(**kw):
    cfg = {"scenario": "coverage_mse_sweep", "seed": 13, "lambdas": [1.0],
           "beta_list": [0.05], "h": {"fixed": 0.6},
           "data": {"csv": "airfoil_like.csv", "target_column": 5,
                    "has_header": False, "pivot_feature": 1,
                    "standardize": True}}
    cfg.update(kw)
    return cfg


DATA_KEYS = ("train_csv", "test_csv", "csv", "target_column", "has_header",
             "standardize", "pivot_feature", "train_quantile", "swap_fraction")


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestConfigValidation:
    def test_minimal_acceptance_config(self):
        cfg = config_from_dict(acceptance_config())
        assert cfg.scenario == "acceptance_curve"
        assert cfg.n_list == (50,)
        assert len(cfg.x_grid) == 9

    def test_beta_bound_cited(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(acceptance_config(beta=0.7))
        assert any("(0, 0.5]" in p for p in err.value.problems)

    def test_all_violations_listed(self):
        bad = acceptance_config(beta=0.7, seed="nope", n=[0])
        bad["lambda"] = -1.0
        with pytest.raises(ConfigError) as err:
            config_from_dict(bad)
        assert len(err.value.problems) >= 4

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(acceptance_config(bogus=1))
        assert any("unknown config keys" in p for p in err.value.problems)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            config_from_dict({"scenario": "nope", "seed": 1})

    def test_missing_scenario_requirements(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"scenario": "excess_risk_vs_beta", "seed": 1,
                              "lambda": 0.36, "n": 100, "replicates": 2,
                              "synthetic": synthetic_block()})
        assert any("beta_list" in p for p in err.value.problems)

    def test_pointwise_requires_power_rule(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"scenario": "pointwise_convergence", "seed": 1,
                              "lambda": 0.36, "beta": 0.05, "n": [10, 32],
                              "replicates": 2, "synthetic": synthetic_block()})
        assert any("power" in p for p in err.value.problems)

    def test_default_grids(self):
        cfg = config_from_dict(acceptance_config(x_grid=None))
        assert len(cfg.x_grid) == 81
        assert cfg.x_grid[0] == -2.0 and cfg.x_grid[-1] == 2.0
        cfg = config_from_dict({
            "scenario": "pointwise_convergence", "seed": 1, "lambda": 0.36,
            "beta": 0.05, "n": [10], "replicates": 2,
            "h": {"power": {"c": 1.0, "exponent": -0.2}},
            "synthetic": synthetic_block()})
        assert cfg.x_grid == (-1.6, -0.5, 0.3, 0.8, 1.6)

    def test_unknown_kernel_is_refused_naming_the_kernels(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(acceptance_config(kernel="triangular"))
        assert err.value.problems == [
            'kernel must be "gaussian" or "epanechnikov"']

    def test_coverage_needs_data_and_methods(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"scenario": "coverage_mse_sweep", "seed": 1})
        problems = " ".join(err.value.problems)
        assert "lambdas" in problems and "data" in problems

    @pytest.mark.parametrize("key,value,field", [
        ("lambda", "abc", "lambda"),
        ("lambda", 10 ** 400, "lambda"),
        ("lambda", True, "lambda"),
        ("lambda", math.inf, "lambda"),
        ("beta", "x", "beta"),
        ("beta", [0.05], "beta"),
        ("h", {"fixed": "x"}, "h.fixed"),
        ("h", {"fixed": None}, "h.fixed"),
        ("h", {"power": {"c": "x"}}, "h.power.c"),
        ("h", {"loocv": {"grid": [0.1, "x"]}}, "h.loocv.grid[1]"),
        ("x_grid", {"linspace": [1, 2]}, "x_grid.linspace"),
        ("x_grid", {"linspace": [-2, 2, 2.5]}, "x_grid.linspace"),
        ("x_grid", {"linspace": [-2, 2, 10 ** 9]}, "x_grid.linspace"),
        ("x_grid", ["a"], "x_grid[0]"),
        ("x_grid", [math.inf], "x_grid[0]"),
        ("x_grid", [math.nan], "x_grid[0]"),
        ("x_grid", [0.5, False], "x_grid[1]"),
        ("x_grid", {"linspace": [-math.inf, 2, 5]}, "x_grid.linspace[0]"),
        ("x_grid", {"linspace": [-2, 2, math.nan]}, "x_grid.linspace[2]"),
        ("h", {"power": {"c": 1.0, "exponent": True}}, "h.power.exponent"),
        ("beta_list", [0.05, None], "beta_list[1]"),
        ("synthetic", {"covariates": [{"uniform": [2, -2]}], "mean": "quadratic",
                       "sd": "sigmoid"}, "synthetic.covariates[0].uniform"),
        ("synthetic", {"covariates": [{"normal": [0, 1, 2]}], "mean": "quadratic",
                       "sd": "sigmoid"}, "synthetic.covariates[0].normal"),
    ])
    def test_bad_value_names_its_field(self, key, value, field):
        bad = acceptance_config(**{key: value}, seed="nope")
        with pytest.raises(ConfigError) as err:
            config_from_dict(bad)
        assert any(p.startswith(field) for p in err.value.problems)
        assert any("seed" in p for p in err.value.problems)  # still collected

    @pytest.mark.parametrize("power,problems", [
        ({"c": -1.0}, ["h.power.c must be a positive finite real, got -1.0"]),
        ({"c": "x"}, ["h.power.c must be a finite real, got 'x'"]),
        ({"c": 1.0, "exponent": True},
         ["h.power.exponent must be a finite real, got True"]),
        ({"c": 0.0, "exponent": None},
         ["h.power.c must be a positive finite real, got 0.0"]),
    ])
    def test_bad_power_rule_gives_only_its_field_problem(self, power, problems):
        # the policy refuses such a rule, so none is built from it
        with pytest.raises(ConfigError) as err:
            config_from_dict(acceptance_config(h={"power": power}))
        assert err.value.problems == problems

    @pytest.mark.parametrize("config", [[], "acceptance_curve", None])
    def test_config_must_be_an_object(self, config):
        with pytest.raises(ConfigError) as err:
            config_from_dict(config)
        assert err.value.problems == ["config must be a JSON object"]

    @pytest.mark.parametrize("h", [{"bogus": 1}, "fixed", {"power": 2.0}])
    def test_unknown_h_form_lists_the_forms(self, h):
        with pytest.raises(ConfigError) as err:
            config_from_dict(acceptance_config(h=h))
        assert err.value.problems == [
            'h must be "loocv", {"fixed": h}, {"power": {...}} or '
            '{"loocv": {"grid": [...]}}']

    @pytest.mark.parametrize("synthetic,problem", [
        (dict(synthetic_block(), mean="cubic"),
         "synthetic.mean must be one of ['quadratic'] or a {\"table\": ...} "
         "spec, got 'cubic'"),
        (None, "synthetic block is required for this scenario"),
        (dict(synthetic_block(), extra=1),
         "unknown synthetic keys: ['extra']"),
    ])
    def test_bad_synthetic_block(self, synthetic, problem):
        cfg = acceptance_config()
        cfg.pop("synthetic")
        if synthetic is not None:
            cfg["synthetic"] = synthetic
        with pytest.raises(ConfigError) as err:
            config_from_dict(cfg)
        assert err.value.problems == [problem]

    def test_beta_sweep_takes_a_single_n(self):
        cfg = acceptance_config(scenario="excess_risk_vs_beta", n=[50, 100],
                                beta_list=[0.05, 0.5])
        del cfg["beta"]
        with pytest.raises(ConfigError) as err:
            config_from_dict(cfg)
        assert err.value.problems == ["excess_risk_vs_beta takes a single n"]

    def test_table_mean_and_sd_parse_and_run(self, tmp_path):
        cfg = acceptance_config(synthetic=dict(
            synthetic_block(),
            mean={"table": {"x": [-2, 0, 2], "y": [1, 0, 1]}},
            sd={"table": {"x": [-2, 2], "y": [0.2, 0.8]}}))
        spec = config_from_dict(cfg).synthetic
        assert spec.mean_fn(1.0) == 0.5 and spec.sd_fn(0.0) == 0.5
        np.testing.assert_array_equal(spec.mean_fn(np.array([-2.0, -1.0])),
                                      [1.0, 0.5])
        run_scenario(cfg, tmp_path / "out")
        header, rows = read_rows(tmp_path / "out" / "acceptance_curve.csv")
        assert header == ["x", "n", "accept_fraction"] and len(rows) == 9
        assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)

    @pytest.mark.parametrize("grid_json,problem", [
        ("[-1, 0.5]", "h.loocv.grid[0] must be a positive finite real, got -1.0"),
        ("[0]", "h.loocv.grid[0] must be a positive finite real, got 0.0"),
        ("[0.5, Infinity]", "h.loocv.grid[1] must be a finite real, got inf"),
        ("[NaN]", "h.loocv.grid[0] must be a finite real, got nan"),
    ])
    def test_bad_loocv_grid_fails_before_the_run(self, tmp_path, grid_json,
                                                 problem):
        cfg = acceptance_config(h={"loocv": {"grid": json.loads(grid_json)}})
        with pytest.raises(ConfigError) as err:
            config_from_dict(cfg)
        assert problem in err.value.problems
        with pytest.raises(ConfigError):
            run_scenario(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_bad_data_fields_name_their_field(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"scenario": "coverage_mse_sweep", "seed": 1,
                              "lambdas": [1.0], "beta_list": [0.05],
                              "data": {"csv": "a.csv", "target_column": "x",
                                       "pivot_feature": [1],
                                       "train_quantile": "x"}})
        for field in ("data.target_column", "data.pivot_feature",
                      "data.train_quantile"):
            assert any(p.startswith(field) for p in err.value.problems)

    @pytest.mark.parametrize("make,key,value,field", [
        (coverage_config, "data.target_column", 5.9, "data.target_column"),
        (coverage_config, "data.target_column", -1, "data.target_column"),
        (coverage_config, "data.pivot_feature", "1", "data.pivot_feature"),
        (coverage_config, "data.standardize", "false", "data.standardize"),
        (coverage_config, "data.has_header", 1, "data.has_header"),
        (coverage_config, "data.csv", 5, "data.csv"),
        (coverage_config, "replicates", "x", "replicates"),
        (acceptance_config, "synthetic",
         {"covariates": [{"uniform": [-2, 2]}, {"normal": [0, 1]}],
          "mean": "quadratic", "sd": "sigmoid"}, "synthetic.covariates"),
        (acceptance_config, "lambda", "0.36", "lambda"),
        (acceptance_config, "n", [], "n"),
        (acceptance_config, "data",  # checked though the scenario is synthetic
         {"csv": "a.csv", "target_column": 5.9, "pivot_feature": 1},
         "data.target_column"),
        (acceptance_config, "synthetic.mean",
         {"table": {"x": ["0", "1"], "y": [0, math.nan]}},
         "synthetic.mean.table.x"),
        (acceptance_config, "synthetic.sd",
         {"table": {"x": [0, 1], "y": [0, math.nan]}}, "synthetic.sd.table.y"),
        (acceptance_config, "synthetic.mean",
         {"table": {"x": [0, 1, 2], "y": [0, 1]}},
         "invalid synthetic.mean table: table needs matching 1-D x and y"),
        (coverage_config, "data.pivot_feature", None,
         "data.pivot_feature is required with a single csv"),
    ])
    def test_value_the_parser_used_to_let_through_is_refused(
            self, tmp_path, make, key, value, field):
        cfg = make()
        config_from_dict(cfg)  # the base config is valid
        block, _, name = key.rpartition(".")
        (cfg[block] if block else cfg)[name] = value
        with pytest.raises(ConfigError) as err:
            config_from_dict(cfg)
        assert any(p.startswith(field) for p in err.value.problems)
        with pytest.raises(ConfigError):
            run_scenario(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_json_value_parses_or_raises_config_error(self, data):
        json_values = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=8)
        fields = {
            "lambda": json_values, "beta": json_values,
            "beta_list": json_values, "z_list": json_values,
            "lambdas": json_values,
            "x_grid": json_values
            | st.fixed_dictionaries({"linspace": json_values}),
            "h": json_values | st.one_of(
                *(st.fixed_dictionaries({kind: json_values})
                  for kind in ("fixed", "power", "loocv")),
                st.fixed_dictionaries({"power": st.fixed_dictionaries(
                    {"c": json_values, "exponent": json_values})}),
                st.fixed_dictionaries({"loocv": st.fixed_dictionaries(
                    {"grid": json_values})})),
            "synthetic": st.fixed_dictionaries({
                "covariates": json_values | st.lists(st.one_of(
                    *(st.fixed_dictionaries({kind: json_values})
                      for kind in ("uniform", "normal"))), max_size=2),
                "mean": st.just("quadratic"), "sd": st.just("sigmoid")}),
            "seed": json_values, "n": json_values, "replicates": json_values,
            "kernel": json_values,
        }
        key = data.draw(st.sampled_from(
            sorted(fields) + [f"data.{k}" for k in DATA_KEYS]))
        if key.startswith("data."):
            config = coverage_config()
            config["data"][key[len("data."):]] = data.draw(json_values)
        else:
            config = acceptance_config(**{key: data.draw(fields[key])})
        try:
            config_from_dict(config)
        except ConfigError:
            pass


class TestWriteCsv:
    def test_seventeen_significant_digits(self, tmp_path):
        table = Table(header=("a", "b", "c"),
                      rows=[(1 / 3, 7, None), ("label", 0.1, 2.0)])
        path = tmp_path / "t.csv"
        write_csv(table, path)
        text = path.read_text()
        assert text.splitlines()[0] == "a,b,c"
        assert "0.33333333333333331" in text
        assert ",7," in text and text.splitlines()[1].endswith(",")


class TestAcceptanceCurve:
    def test_smoke_and_determinism(self, tmp_path):
        cfg = acceptance_config()
        first = run_scenario(cfg, tmp_path / "run1")
        second = run_scenario(cfg, tmp_path / "run2")
        p1 = tmp_path / "run1" / "acceptance_curve.csv"
        p2 = tmp_path / "run2" / "acceptance_curve.csv"
        assert p1.read_bytes() == p2.read_bytes()
        header, rows = read_rows(p1)
        assert header == ["x", "n", "accept_fraction"]
        assert len(rows) == 9
        assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)
        assert first["outputs"] == [str(p1)]

    def test_single_sample_never_accepts(self, tmp_path):
        cfg = acceptance_config(n=[1], replicates=1)
        run_scenario(cfg, tmp_path)
        _, rows = read_rows(tmp_path / "acceptance_curve.csv")
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_manifest_contents(self, tmp_path):
        cfg = acceptance_config()
        manifest = run_scenario(cfg, tmp_path)
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["config"] == cfg
        assert on_disk["seed"] == 11
        assert on_disk["version"]
        assert on_disk["outputs"] == manifest["outputs"]
        assert on_disk["inputs"] == on_disk["input_hashes"] == {}
        assert "started" in on_disk and "finished" in on_disk


class TestExcessRiskVsN:
    def base(self, beta=0.05):
        return {"scenario": "excess_risk_vs_n", "seed": 3, "lambda": 0.36,
                "beta": beta, "n": [40, 80], "replicates": 8,
                "x_grid": [-1.6, 0.3, 1.6], "h": {"fixed": 0.35},
                "synthetic": synthetic_block()}

    def test_plugin_rows_equal_testing_when_beta_half(self, tmp_path):
        run_scenario(self.base(beta=0.5), tmp_path)
        _, rows = read_rows(tmp_path / "excess_risk_vs_n.csv")
        testing = [(r[0], r[1], r[3], r[4]) for r in rows if r[2] == "testing"]
        plugin = [(r[0], r[1], r[3], r[4]) for r in rows if r[2] == "plugin"]
        assert testing == plugin

    def test_excess_nonnegative_up_to_noise(self, tmp_path):
        run_scenario(self.base(), tmp_path)
        _, rows = read_rows(tmp_path / "excess_risk_vs_n.csv")
        assert rows
        for r in rows:
            assert float(r[3]) >= -3.0 * float(r[4])


class TestExcessRiskVsBeta:
    def test_acceptance_monotone_in_beta(self, tmp_path):
        cfg = {"scenario": "excess_risk_vs_beta", "seed": 5, "lambda": 0.36,
               "beta_list": [0.05, 0.2, 0.5], "n": 60, "replicates": 6,
               "x_grid": {"linspace": [-2, 2, 7]}, "h": {"fixed": 0.4},
               "synthetic": synthetic_block()}
        run_scenario(cfg, tmp_path)
        header, rows = read_rows(tmp_path / "excess_risk_vs_beta.csv")
        assert header == ["x", "beta", "method", "expected_excess", "stderr",
                          "accept_fraction"]
        by_x = {}
        for r in rows:
            by_x.setdefault(r[0], []).append((float(r[1]), float(r[5]), r[2]))
        for entries in by_x.values():
            entries.sort()
            fractions = [e[1] for e in entries]
            assert fractions == sorted(fractions)
        assert all(e[2] == "plugin" for e in entries if e[0] == 0.5)
        assert all(e[2] == "testing" for e in entries if e[0] < 0.5)


class TestExcessRiskVsBetaTradeoff:
    def test_quiet_point_improves_and_noisy_point_degrades_with_beta(self,
                                                                     tmp_path):
        # larger beta accepts more: that helps where sigma^2 < lambda and
        # hurts where sigma^2 > lambda; violations allowed up to 2 stderr
        cfg = {"scenario": "excess_risk_vs_beta", "seed": 71, "lambda": 0.36,
               "beta_list": [0.05, 0.2, 0.5], "n": 50, "replicates": 200,
               "x_grid": [-1.6, 1.6], "h": {"fixed": 0.3},
               "synthetic": synthetic_block()}
        run_scenario(cfg, tmp_path)
        _, rows = read_rows(tmp_path / "excess_risk_vs_beta.csv")
        curve = {(float(r[0]), float(r[1])): (float(r[3]), float(r[4]))
                 for r in rows}
        for beta_lo, beta_hi in ((0.05, 0.2), (0.2, 0.5)):
            lo_e, lo_s = curve[(1.6, beta_lo)]
            hi_e, hi_s = curve[(1.6, beta_hi)]
            assert hi_e >= lo_e - 2.0 * math.hypot(lo_s, hi_s)
            lo_e, lo_s = curve[(-1.6, beta_lo)]
            hi_e, hi_s = curve[(-1.6, beta_hi)]
            assert hi_e <= lo_e + 2.0 * math.hypot(lo_s, hi_s)
        # the end-to-end contrast itself is significant
        noisy_gain = curve[(1.6, 0.5)][0] - curve[(1.6, 0.05)][0]
        assert noisy_gain > 2.0 * math.hypot(curve[(1.6, 0.5)][1],
                                             curve[(1.6, 0.05)][1])
        quiet_gain = curve[(-1.6, 0.05)][0] - curve[(-1.6, 0.5)][0]
        assert quiet_gain > 2.0 * math.hypot(curve[(-1.6, 0.5)][1],
                                             curve[(-1.6, 0.05)][1])


class TestPointwiseConvergence:
    def test_regime_contrast_and_slope(self, tmp_path):
        # noisy points (sigma^2 > lambda) collapse outright; the quiet point
        # decays polynomially in n*h with a log-log slope near -1
        cfg = {"scenario": "pointwise_convergence", "seed": 72,
               "lambda": 0.36, "beta": 0.05, "n": [10, 100, 1000, 10000],
               "replicates": 100, "x_grid": [-0.5, 0.8, 1.6],
               "h": {"power": {"c": 0.5, "exponent": -0.2}},
               "synthetic": synthetic_block()}
        run_scenario(cfg, tmp_path)
        _, rows = read_rows(tmp_path / "pointwise_convergence.csv")
        curve = {(float(r[0]), int(r[1])): (float(r[2]), float(r[3]),
                                            float(r[4])) for r in rows}
        for x in (0.8, 1.6):
            nh_small, e_small, se_small = curve[(x, 10)]
            _, e_large, _ = curve[(x, 10000)]
            if e_small > 3.0 * se_small:
                assert e_large < 0.05 * e_small
            else:
                assert e_large == 0.0
        nh_lo, e_lo, _ = curve[(-0.5, 1000)]
        nh_hi, e_hi, _ = curve[(-0.5, 10000)]
        assert e_lo > 0.0 and e_hi > 0.0
        slope = math.log(e_hi / e_lo) / math.log(nh_hi / nh_lo)
        assert -1.5 <= slope <= -0.25

    def test_nh_column_tracks_power_rule(self, tmp_path):
        cfg = {"scenario": "pointwise_convergence", "seed": 7, "lambda": 0.36,
               "beta": 0.05, "n": [10, 32, 100], "replicates": 3,
               "h": {"power": {"c": 1.0, "exponent": -0.2}},
               "synthetic": synthetic_block()}
        run_scenario(cfg, tmp_path)
        header, rows = read_rows(tmp_path / "pointwise_convergence.csv")
        assert header == ["x", "n", "nh", "expected_excess", "stderr"]
        for r in rows:
            n = int(r[1])
            assert float(r[2]) == pytest.approx(n * n ** -0.2, rel=1e-15)
        n32 = {float(r[2]) for r in rows if r[1] == "32"}
        assert n32 == {32 * 0.5}


def write_airfoil_like(path, n):
    """An n-row airfoil-like CSV without header, the response last."""
    ds = generate_synthetic(airfoil_like_spec(n=n, seed=2))
    rows = [",".join(format(v, ".17g") for v in list(row) + [y])
            for row, y in zip(ds.x, ds.y)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestCoverageSweep:
    @pytest.fixture()
    def airfoil_csv(self, tmp_path):
        return write_airfoil_like(tmp_path / "airfoil_like.csv", 300)

    def coverage_config(self, csv_path, **kw):
        cfg = {"scenario": "coverage_mse_sweep", "seed": 13,
               "lambdas": [0.0, 2.0, 8.0, 20.0, 50.0],
               "beta_list": [0.05, 0.5],
               "h": {"fixed": 0.6},
               "data": {"csv": str(csv_path), "target_column": 5,
                        "has_header": False, "pivot_feature": 1,
                        "standardize": True}}
        cfg.update(kw)
        return cfg

    def test_missing_csv_leaves_no_output_directory(self, tmp_path):
        cfg = self.coverage_config(tmp_path / "absent.csv")
        with pytest.raises(FileNotFoundError):
            run_scenario(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_empty_train_side_leaves_no_output_directory(self, tmp_path):
        csv_path = write_airfoil_like(tmp_path / "small.csv", 15)
        cfg = self.coverage_config(csv_path)
        cfg["data"]["train_quantile"] = 0.05
        with pytest.raises(ValueError, match=r"^train_quantile 0\.05 leaves "
                                             r"no training rows at n = 15$"):
            run_scenario(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_lambda_zero_rejects_everything(self, tmp_path, airfoil_csv):
        run_scenario(self.coverage_config(airfoil_csv), tmp_path / "out")
        header, rows = read_rows(tmp_path / "out" / "coverage_mse_sweep.csv")
        assert header == ["lambda", "method", "accept_fraction", "mse_accepted"]
        zero_rows = [r for r in rows if float(r[0]) == 0.0]
        assert zero_rows
        for r in zero_rows:
            assert float(r[2]) == 0.0
            assert r[3] == ""

    def test_acceptance_monotone_in_lambda_and_beta(self, tmp_path,
                                                    airfoil_csv):
        run_scenario(self.coverage_config(airfoil_csv), tmp_path / "out")
        _, rows = read_rows(tmp_path / "out" / "coverage_mse_sweep.csv")
        by_method = {}
        for r in rows:
            by_method.setdefault(r[1], []).append((float(r[0]), float(r[2])))
        for entries in by_method.values():
            entries.sort()
            fractions = [e[1] for e in entries]
            assert fractions == sorted(fractions)
        for lam in {float(r[0]) for r in rows}:
            low = [float(r[2]) for r in rows
                   if float(r[0]) == lam and r[1] == "beta=0.05"]
            high = [float(r[2]) for r in rows
                    if float(r[0]) == lam and r[1] == "plugin"]
            assert low[0] <= high[0]

    def test_level_below_two_to_the_minus_53_runs(self, tmp_path,
                                                  airfoil_csv):
        # 1 - 1e-17 is 1.0, whose normal quantile is infinite
        cfg = self.coverage_config(airfoil_csv, beta_list=[1e-17, 0.5])
        run_scenario(cfg, tmp_path / "out")
        _, rows = read_rows(tmp_path / "out" / "coverage_mse_sweep.csv")
        assert {r[1] for r in rows} == {"beta=1e-17", "plugin"}
        for lam in {float(r[0]) for r in rows}:
            fr = {r[1]: float(r[2]) for r in rows if float(r[0]) == lam}
            assert fr["beta=1e-17"] <= fr["plugin"]

    def test_z_direct_mode(self, tmp_path, airfoil_csv):
        cfg = self.coverage_config(airfoil_csv)
        del cfg["beta_list"]
        cfg["z_list"] = [0.0, 1.6448536269514722, 10.0]
        run_scenario(cfg, tmp_path / "out")
        _, rows = read_rows(tmp_path / "out" / "coverage_mse_sweep.csv")
        labels = {r[1] for r in rows}
        assert labels == {"z=0", "z=1.64485", "z=10"}
        for lam in {float(r[0]) for r in rows}:
            fr = {r[1]: float(r[2]) for r in rows if float(r[0]) == lam}
            assert fr["z=10"] <= fr["z=1.64485"] <= fr["z=0"]

    def test_manifest_hashes_inputs(self, tmp_path, airfoil_csv):
        manifest = run_scenario(self.coverage_config(airfoil_csv),
                                tmp_path / "out")
        assert str(airfoil_csv) in manifest["input_hashes"]
        digest = manifest["input_hashes"][str(airfoil_csv)]
        assert len(digest) == 40 and int(digest, 16) >= 0

    def test_manifest_resolves_inputs_for_a_rerun_elsewhere(
            self, tmp_path, airfoil_csv, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = self.coverage_config("airfoil_like.csv")
        manifest = run_scenario(cfg, "out")
        on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert on_disk["config"] == cfg  # the path as given
        assert list(on_disk["input_hashes"]) == ["airfoil_like.csv"]
        assert on_disk["inputs"] == manifest["inputs"] == {
            "airfoil_like.csv": str(airfoil_csv.resolve())}
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        rerun = dict(cfg, data=dict(cfg["data"],
                                    csv=on_disk["inputs"]["airfoil_like.csv"]))
        run_scenario(rerun, "again")
        assert ((elsewhere / "again" / "coverage_mse_sweep.csv").read_bytes()
                == (tmp_path / "out" / "coverage_mse_sweep.csv").read_bytes())

    def test_has_header_defaults_to_false(self):
        # every row of a headerless CSV reaches the split
        config = json.loads((ROOT / "configs" / "coverage_sweep.json").read_text())
        config["data"]["csv"] = str(ROOT / config["data"]["csv"])
        del config["data"]["has_header"]
        cfg = config_from_dict(config)
        assert cfg.data.has_header is False
        train, test = cfg.data.load(cfg.seed)
        assert train.n + test.n == 1500

    def test_header_row_without_has_header_named(self, tmp_path, airfoil_csv):
        with_header = tmp_path / "with_header.csv"
        with_header.write_text("a,b,c,d,e,y\n" + airfoil_csv.read_text(),
                               encoding="utf-8")
        cfg = self.coverage_config(with_header)
        del cfg["data"]["has_header"]
        with pytest.raises(ValueError, match=r"non-numeric cell at line 1, "
                                             r"column 1: 'a'$"):
            run_scenario(cfg, tmp_path / "out")
        cfg["data"]["has_header"] = True
        run_scenario(cfg, tmp_path / "out")
        run_scenario(self.coverage_config(airfoil_csv), tmp_path / "plain")
        assert ((tmp_path / "out" / "coverage_mse_sweep.csv").read_bytes()
                == (tmp_path / "plain" / "coverage_mse_sweep.csv").read_bytes())

    def test_presplit_csv_path(self, tmp_path, airfoil_csv):
        from selreg import covariate_shift_split, ShiftSplit, load_csv
        full = load_csv(airfoil_csv, target_column=5)
        train, test = covariate_shift_split(
            full, ShiftSplit(pivot_feature=1, seed=13))

        def dump(ds, name):
            path = tmp_path / name
            rows = [",".join(format(v, ".17g") for v in list(row) + [y])
                    for row, y in zip(ds.x, ds.y)]
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            return path

        cfg = self.coverage_config(airfoil_csv)
        cfg["data"] = {"train_csv": str(dump(train, "train.csv")),
                       "test_csv": str(dump(test, "test.csv")),
                       "target_column": 5, "has_header": False,
                       "standardize": True}
        run_scenario(cfg, tmp_path / "pre")
        direct = (tmp_path / "pre" / "coverage_mse_sweep.csv").read_bytes()
        run_scenario(self.coverage_config(airfoil_csv), tmp_path / "split")
        via_split = (tmp_path / "split" / "coverage_mse_sweep.csv").read_bytes()
        assert direct == via_split


def test_importing_the_package_loads_no_hashlib():
    # hashlib loads OpenSSL's libcrypto; only the coverage sweep's manifest
    # hashes, so every other process, such as ``selreg decide``, goes without
    code = ("import sys, selreg, selreg.cli, selreg.experiments; "
            "print('hashlib' in sys.modules)")
    assert run_python(code).strip() == "False"
