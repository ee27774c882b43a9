"""Smoke test of the benchmark itself, at tiny workload sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit, that the output checks pass on correct outputs and fail on a
deliberately wrong one, and that the benchmark refuses to run without the
package.
"""

import contextlib
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(cwd: Path, out_dir: Path, workload: str, trace: int):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", "--out-dir", str(out_dir)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        tracing.metric_specs()
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert "setup_s" in names and len(set(names)) == len(names)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_prints_every_metric_with_its_unit(tmp_path, workload, trace):
    done = run_benchmark(ROOT, tmp_path, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in specs}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(scope="module")
def one_iteration(tmp_path_factory):
    """(workload, inputs, record) of one tiny iteration per workload."""
    sel = bench.Selreg(ROOT)
    out = tmp_path_factory.mktemp("iteration")
    done = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(sel, name, 5, "tiny", out / name, ROOT)
        inp = wl.prepare(0)
        rec = wl.execute(inp)
        wl.collect(inp, rec)
        done[name] = (wl, inp, rec)
    return done


def failures(wl, inp, rec) -> int:
    chk = workloads.Checker()
    wl.check(inp, rec, chk)
    return chk.failed


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_check_passes_on_correct_outputs(one_iteration, workload):
    assert failures(*one_iteration[workload]) == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_check_catches_one_flipped_verdict(one_iteration, workload):
    wl, inp, rec = one_iteration[workload]
    decisions = rec["decisions"]
    original = decisions[0]
    verdict, reason = type(original.verdict), type(original.reason)
    if original.accepted:
        flipped = dataclasses.replace(original, verdict=verdict.REJECT,
                                      reason=reason.VARIANCE_TEST_FAILED)
    else:
        flipped = dataclasses.replace(original, verdict=verdict.ACCEPT,
                                      reason=reason.ACCEPTED)
    decisions[0] = flipped
    try:
        assert failures(wl, inp, rec) == 1
    finally:
        decisions[0] = original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_check_catches_a_wrong_csv_value(one_iteration, workload):
    wl, inp, rec = one_iteration[workload]
    original = rec["csv"]
    lines = original.splitlines()
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-6) + 1e-6)
    rec["csv"] = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
    try:
        assert failures(wl, inp, rec) == 1
    finally:
        rec["csv"] = original


def test_counts_errors_of_traced_iterations_that_raised(tmp_path, monkeypatch, capsys):
    """A wrapped function raises in the first traced iteration only: that
    iteration fails the run, and the exception that escaped it still shows
    in .errors, although per-layer times come from the iteration that did
    not raise."""
    sel = bench.Selreg(ROOT)
    real = sel.estimators.evaluate_point
    tracing_now = []

    def evaluate_point(*args, **kwargs):
        if tracing_now == [1]:
            raise FloatingPointError("injected")
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "selreg" or name.startswith("selreg."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, evaluate_point)
    iteration = tracing.Tracer.iteration

    @contextlib.contextmanager
    def flagged(self, run_id):
        tracing_now.append(run_id)
        try:
            with iteration(self, run_id):
                yield
        finally:
            tracing_now.pop()

    monkeypatch.setattr(tracing.Tracer, "iteration", flagged)
    code = bench.main(["--workload", "mc_small_n", "--seed", "3", "--seconds", "0",
                       "--trace", "1", "--size", "tiny", "--out-dir", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1  # iteration 1
    assert result["metrics"]["estimators.evaluate_point.errors"]["value"] == 1


def test_cli_query_in_exponent_notation(tmp_path):
    """Seed 405, iteration 13 of mc_small_n asks the CLI about x = -4.7e-05."""
    sel = bench.Selreg(ROOT)
    wl = workloads.make(sel, "mc_small_n", 405, "full", tmp_path, ROOT)
    inp = wl.prepare(13)
    assert "e-05" in repr(inp["cli"][3][0])
    rec = wl.execute(inp)
    wl.collect(inp, rec)
    assert failures(wl, inp, rec) == 0


def test_records_the_commit():
    """Also in a linked worktree, whose .git is a file."""
    commit = bench.environment(ROOT, 1)["commit"]
    if (ROOT / ".git").exists():
        assert len(commit) == 40 and int(commit, 16) >= 0
    else:
        assert commit == "unknown"


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, tmp_path / "out", "mc_small_n", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
