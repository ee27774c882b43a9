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
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from selreg.experiments import config_from_dict, run_scenario

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


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
    assert (Path(produced[0]).read_bytes()
            == (ROOT / manifest["outputs"][0]).read_bytes())


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
