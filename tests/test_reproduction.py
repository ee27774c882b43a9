"""The committed results/ CSVs are reproduced byte for byte.

Each scenario is rerun from the config stored in its manifest.json; input
paths in the config are resolved against the repository root. The slowest,
acceptance_curve (about 12 s on 2 cores, nearly all of it 400 LOO-CV fits up
to n = 1000), is the end-to-end check that the bandwidth selection still
picks the same h.
"""

import json
from pathlib import Path

import pytest

from selreg.experiments import run_scenario

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["acceptance_curve", "coverage_sweep",
                                  "excess_risk_vs_beta", "excess_risk_vs_n",
                                  "pointwise_convergence"])
def test_committed_csv_reproduced(tmp_path, name):
    manifest = json.loads((ROOT / "results" / name / "manifest.json").read_text())
    config = manifest["config"]
    if "data" in config:
        config["data"]["csv"] = str(ROOT / config["data"]["csv"])
    produced = run_scenario(config, tmp_path)["outputs"]
    assert len(produced) == len(manifest["outputs"]) == 1
    assert (Path(produced[0]).read_bytes()
            == (ROOT / manifest["outputs"][0]).read_bytes())
