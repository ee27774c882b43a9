"""The committed results/ CSVs are reproduced byte for byte.

Each paper run is rerun from its committed ``configs/<results dir>.json``,
which must equal the config stored in ``results/<dir>/manifest.json``;
input paths in the config are resolved against the repository root. The
slowest, acceptance_curve (about 4.5 s on a 2-vCPU Xeon, nearly all of it
400 LOO-CV fits up to n = 1000), is the end-to-end check that the bandwidth
selection still picks the same h. Every committed config also parses, so a
config that goes stale fails here and not at run time, and the bundled
data/airfoil_like.csv regenerates byte for byte from its script (the d = 5
draw path).

The bytes depend on the arithmetic underneath, numpy's loops and OpenBLAS's
kernels (README, "Determinism"), so a CSV that differs fails with the count
of differing rows, the first of them, and the arithmetic of this run.
"""

import ctypes
import json
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

from selreg.experiments import config_from_dict, run_scenario

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
COMMITTED_ARITHMETIC = ("numpy 2.4.6, float64 exp loop X86_V4 (AVX-512), "
                        "OpenBLAS 0.3.31 on its SkylakeX kernels")


def openblas_core():
    """The name of the OpenBLAS kernels this process runs (picked for the CPU
    or by OPENBLAS_CORETYPE), read from numpy's bundled OpenBLAS; None for a
    numpy without that library or its symbol."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def arithmetic() -> str:
    """The numpy, float64 exp loop and OpenBLAS kernels of this process.
    Without the kernels' name it gives OpenBLAS's configuration string,
    which names its build, not the kernels it picked for this CPU."""
    (exp,) = opt_func_info(func_name="^exp$",
                           signature="float64")["exp"].values()
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    core = openblas_core()
    return (f"numpy {np.__version__}, float64 exp loop {exp['current']}, " + (
        f"OpenBLAS {blas.get('version')} on its {core} kernels" if core else
        f"OpenBLAS configuration {blas.get('openblas configuration')!r}"))


@pytest.mark.parametrize("name", ["acceptance_curve", "coverage_sweep",
                                  "excess_risk_vs_beta", "excess_risk_vs_n",
                                  "pointwise_convergence"])
def test_committed_csv_reproduced(tmp_path, name):
    config = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    manifest = json.loads((ROOT / "results" / name / "manifest.json").read_text())
    assert config == manifest["config"]
    if "data" in config:
        config["data"]["csv"] = str(ROOT / config["data"]["csv"])
    produced = run_scenario(config, tmp_path)["outputs"]
    assert len(produced) == len(manifest["outputs"]) == 1
    got = Path(produced[0]).read_bytes()
    committed = (ROOT / manifest["outputs"][0]).read_bytes()
    if got != committed:
        rows = [pair for pair in zip_longest(got.splitlines(keepends=True),
                                             committed.splitlines(keepends=True))
                if pair[0] != pair[1]]
        pytest.fail(f"{len(rows)} rows differ from {manifest['outputs'][0]}; "
                    f"the first, produced then committed:\n  {rows[0][0]!r}\n"
                    f"  {rows[0][1]!r}\nthis run: {arithmetic()}\n"
                    f"committed bytes: {COMMITTED_ARITHMETIC}")


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_committed_config_parses(path):
    config_from_dict(json.loads(path.read_text()))


def test_airfoil_like_csv_regenerated(tmp_path):
    out = tmp_path / "a.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_airfoil_like.py"),
                    "--out", str(out)], check=True, capture_output=True, env=env)
    assert out.read_bytes() == (ROOT / "data" / "airfoil_like.csv").read_bytes()
