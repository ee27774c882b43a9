"""The committed results/ CSVs are reproduced byte for byte.

Each scenario is rerun from the config stored in its manifest.json; input
paths in the config are resolved against the repository root. The
acceptance_curve scenario (about half a minute, nearly all LOO-CV at
n = 1000) is left out here and rerun by hand with scripts/acceptance_curve.py.
"""

import json
from pathlib import Path

import pytest

from selreg.experiments import run_scenario

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["coverage_sweep", "excess_risk_vs_beta",
                                  "excess_risk_vs_n", "pointwise_convergence"])
def test_committed_csv_reproduced(tmp_path, name):
    manifest = json.loads((ROOT / "results" / name / "manifest.json").read_text())
    config = manifest["config"]
    if "data" in config:
        config["data"]["csv"] = str(ROOT / config["data"]["csv"])
    produced = run_scenario(config, tmp_path)["outputs"]
    assert len(produced) == len(manifest["outputs"]) == 1
    assert (Path(produced[0]).read_bytes()
            == (ROOT / manifest["outputs"][0]).read_bytes())
