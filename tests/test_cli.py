import json

import pytest

from selreg import (AbstentionConfig, FitState, KernelKind, decide,
                    kernel_spec, load_csv)
from selreg.cli import build_parser, main
from selreg.data import generate_synthetic
from selreg.estimators import default_bandwidth_grid, select_bandwidth_loocv


@pytest.fixture()
def train_csv(tmp_path, sigmoid_spec):
    ds = generate_synthetic(sigmoid_spec)
    path = tmp_path / "train.csv"
    rows = [f"{format(x, '.17g')},{format(y, '.17g')}"
            for x, y in zip(ds.x[:, 0], ds.y)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def run_decide(capsys, train_csv, *extra):
    argv = ["decide", "--train", str(train_csv), "--target-col", "1",
            "--lambda", "0.36", *extra]
    code = main(argv)
    captured = capsys.readouterr()
    out = captured.out.strip()
    return code, (json.loads(out) if out else None), captured.err


class TestDecide:
    def test_accept_in_quiet_region(self, capsys, train_csv):
        code, report, _ = run_decide(capsys, train_csv, "--x", "-1.6",
                                  "--beta", "0.05", "--h", "0.3")
        assert code == 0
        assert report["verdict"] == "accept"
        assert report["reason"] == "accepted"
        assert report["sigma2_hat"] <= report["threshold"]

    def test_reject_in_noisy_region(self, capsys, train_csv):
        code, report, _ = run_decide(capsys, train_csv, "--x", "1.8",
                                  "--beta", "0.05", "--h", "0.3")
        assert code == 3
        assert report["verdict"] == "reject"

    def test_plugin_threshold_equals_lambda(self, capsys, train_csv):
        code, report, _ = run_decide(capsys, train_csv, "--x", "0.0",
                                  "--beta", "0.5", "--h", "0.3")
        assert report["threshold"] == 0.36

    def test_matches_library_decision(self, capsys, train_csv):
        code, report, _ = run_decide(capsys, train_csv, "--x", "0.25",
                                  "--beta", "0.05", "--h", "0.3")
        data = load_csv(train_csv, target_column=1)
        fit = FitState(train=data, kernel=kernel_spec("gaussian", 1), h=0.3)
        expect = decide(fit, [0.25], AbstentionConfig(lam=0.36, beta=0.05))
        assert report["f_hat"] == expect.eval.f_hat
        assert report["sigma2_hat"] == expect.eval.sigma2_hat
        assert report["p_hat"] == expect.eval.p_hat
        assert report["threshold"] == expect.threshold
        assert (code == 0) == expect.accepted

    def test_loocv_bandwidth_flag(self, capsys, train_csv):
        code, report, _ = run_decide(capsys, train_csv, "--x", "0.0",
                                  "--beta", "0.05", "--h-loocv")
        data = load_csv(train_csv, target_column=1)
        expect = select_bandwidth_loocv(data, kernel_spec("gaussian", 1),
                                        default_bandwidth_grid(data))
        assert report["h"] == expect

    def test_z_is_an_unknown_flag(self, capsys, train_csv):
        with pytest.raises(SystemExit) as exit_:
            run_decide(capsys, train_csv, "--x", "0.1", "--beta", "0.5",
                       "--z", "0.0", "--h", "0.3")
        assert exit_.value.code == 2
        assert "unrecognized arguments: --z 0.0" in capsys.readouterr().err

    def test_beta_is_required(self, capsys, train_csv):
        (subparsers,) = build_parser()._subparsers._group_actions
        beta = subparsers.choices["decide"]._option_string_actions["--beta"]
        assert beta.required
        with pytest.raises(SystemExit) as exit_:
            run_decide(capsys, train_csv, "--x", "0.1", "--h", "0.3")
        assert exit_.value.code == 2
        assert ("the following arguments are required: --beta"
                in capsys.readouterr().err)

    def test_malformed_csv_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,oops\n", encoding="utf-8")
        code, report, err = run_decide(capsys, bad, "--x", "0.0",
                                       "--beta", "0.05", "--h", "0.3")
        assert code == 1
        assert report is None
        assert "line 2" in err

    def test_level_below_two_to_the_minus_53_decides(self, capsys, train_csv):
        code, report, err = run_decide(capsys, train_csv, "--x", "0.0",
                                       "--beta", "1e-17", "--h", "1")
        assert code in (0, 3) and err == ""
        assert report["verdict"] in ("accept", "reject")

    def test_kernel_choices_are_the_kernel_kinds(self):
        (subparsers,) = build_parser()._subparsers._group_actions
        kernel = subparsers.choices["decide"]._option_string_actions["--kernel"]
        assert kernel.choices == [k.value for k in KernelKind]

    def test_bad_beta_exits_one(self, capsys, train_csv):
        code, _, _ = run_decide(capsys, train_csv, "--x", "0.0",
                             "--beta", "0.7", "--h", "0.3")
        assert code == 1

    @pytest.mark.parametrize("flag,value", [
        ("--lambda", "inf"), ("--lambda", "nan"), ("--beta", "nan"),
    ])
    def test_bad_level_flag_exits_one_naming_it(self, capsys, train_csv, flag,
                                                value):
        level = [] if flag == "--beta" else ["--beta", "0.05"]
        # a repeated --lambda takes the last value
        code, report, err = run_decide(capsys, train_csv, "--x", "0.0",
                                       "--h", "0.3", *level, flag, value)
        assert code == 1
        assert report is None
        assert flag in err

    def test_bad_beta_fails_before_any_work(self, capsys, train_csv,
                                            monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before the flags were checked")

        monkeypatch.setattr("selreg.cli.load_csv", must_not_run)
        monkeypatch.setattr("selreg.estimators.select_bandwidth_loocv",
                            must_not_run)
        code, report, err = run_decide(capsys, train_csv, "--x", "0.0",
                                       "--beta", "0.7", "--h-loocv")
        assert code == 1
        assert report is None
        assert "--beta" in err

    @pytest.mark.parametrize("flag,value", [
        ("--x", "nan"), ("--x", "inf"), ("--x", "abc"), ("--x", "0.5,-inf"),
        ("--h", "inf"), ("--h", "nan"), ("--h", "0"),
    ])
    def test_bad_point_or_bandwidth_fails_before_reading(self, capsys,
                                                         train_csv,
                                                         monkeypatch, flag,
                                                         value):
        def must_not_run(*args, **kwargs):
            raise AssertionError("read the CSV before the flags were checked")

        monkeypatch.setattr("selreg.cli.load_csv", must_not_run)
        args = {"--x": "0.0", "--h": "0.3", flag: value}
        code, report, err = run_decide(capsys, train_csv, "--beta", "0.05",
                                       "--x", args["--x"], "--h", args["--h"])
        assert code == 1
        assert report is None
        assert flag in err

    def test_loocv_below_three_rows_rejects_low_density(self, capsys,
                                                        tmp_path):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("0.0,1.0\n0.1,2.0\n", encoding="utf-8")
        code, report, _ = run_decide(capsys, tiny, "--x", "0.0",
                                     "--beta", "0.05", "--h-loocv")
        assert code == 3
        assert report["reason"] == "low_density"
        assert report["h"] == 1.0

    @pytest.mark.parametrize("h,problem", [("1e-70", "= 0.0 underflows"),
                                           ("1e-63", "= 1e-315 underflows"),
                                           ("1e70", "overflows")])
    def test_bandwidth_out_of_range_at_d5_exits_one(self, capsys, tmp_path,
                                                    h, problem):
        # h itself is a positive finite real, so only the fit can refuse it
        path = tmp_path / "d5.csv"
        path.write_text("".join(f"{i},{i % 3},{i % 5},{i % 7},{i % 2},{i}\n"
                                for i in range(6)), encoding="utf-8")
        code = main(["decide", "--train", str(path), "--target-col", "5",
                     "--x", "0,0,0,0,0", "--lambda", "0.36", "--beta", "0.05",
                     "--h", h])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: bandwidth {float(h)!r}")
        assert problem in captured.err

    def test_dimension_mismatch_exits_one(self, capsys, train_csv):
        code, _, _ = run_decide(capsys, train_csv, "--x", "0.0,1.0",
                             "--beta", "0.05", "--h", "0.3")
        assert code == 1


class TestValidate:
    def test_good_file(self, capsys, train_csv):
        assert main(["validate", str(train_csv)]) == 0

    def test_ragged_file(self, capsys, tmp_path):
        bad = tmp_path / "ragged.csv"
        bad.write_text("1,2\n3\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_byte_order_mark_accepted(self, capsys, tmp_path):
        marked = tmp_path / "excel.csv"
        marked.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n")
        assert main(["validate", str(marked), "--target-col", "1"]) == 0
        assert capsys.readouterr().err == ""

    def test_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        assert main(["validate", str(empty)]) == 1

    def test_missing_file(self, capsys, tmp_path):
        assert main(["validate", str(tmp_path / "absent.csv")]) == 1


class TestExperiment:
    def config(self, tmp_path, **kw):
        cfg = {"scenario": "acceptance_curve", "seed": 21, "lambda": 0.36,
               "beta": 0.05, "n": [50], "replicates": 2,
               "x_grid": {"linspace": [-2, 2, 5]},
               "synthetic": {"covariates": [{"uniform": [-2, 2]}],
                             "mean": "quadratic", "sd": "sigmoid"}}
        cfg.update(kw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_smoke_run(self, capsys, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        csv_path = out / "acceptance_curve.csv"
        assert csv_path.exists()
        assert csv_path.read_text().splitlines()[0] == "x,n,accept_fraction"
        assert (out / "manifest.json").exists()
        assert str(csv_path) in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        cfg = self.config(tmp_path)
        main(["experiment", "--config", str(cfg), "--out-dir",
              str(tmp_path / "a")])
        main(["experiment", "--config", str(cfg), "--out-dir",
              str(tmp_path / "b")])
        assert ((tmp_path / "a" / "acceptance_curve.csv").read_bytes()
                == (tmp_path / "b" / "acceptance_curve.csv").read_bytes())

    def test_invalid_beta_lists_constraint(self, capsys, tmp_path):
        cfg = self.config(tmp_path, beta=0.7)
        assert main(["experiment", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "(0, 0.5]" in err

    def test_unreadable_config(self, capsys, tmp_path):
        bad = tmp_path / "config.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["experiment", "--config", str(bad),
                     "--out-dir", str(tmp_path / "out")]) == 1
