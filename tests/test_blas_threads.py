"""Results do not depend on how many threads the BLAS library runs.

Each run is a separate ``train-and-value`` process, since OpenBLAS reads
its thread count once, when numpy loads it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import fedval

from test_config_cli import base_doc

SRC = Path(fedval.__file__).resolve().parents[1]
SMALL_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "train_value_small.yaml"


def mlp_group_testing_doc():
    doc = base_doc(valuation={
        "method": "group_testing", "approx": {"epsilon": 0.5, "delta": 0.1},
    })
    doc["dataset"].update(samples=600, features=12, classes=4, validation_samples=1000)
    doc["partition"]["participants"] = 10
    doc["training"].update(
        model="mlp", hidden_units=16, init_scale=0.1, learning_rate=0.2
    )
    return doc


def train_and_value(config: Path, out: Path, threads: int) -> dict[str, bytes]:
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
    )
    subprocess.run(
        [sys.executable, "-m", "fedval.cli", "train-and-value",
         "--config", str(config), "--out", str(out)],
        env=env, check=True, capture_output=True,
    )
    outputs = {"values.csv": (out / "values.csv").read_bytes()}
    for path in sorted((out / "rounds").glob("*.fvr")):
        outputs[path.name] = path.read_bytes()
    return outputs


@pytest.mark.parametrize("arch", ["logistic", "mlp"])
def test_outputs_identical_at_one_and_two_blas_threads(tmp_path, arch):
    if arch == "logistic":
        config = SMALL_CONFIG
    else:
        config = tmp_path / "mlp.yaml"
        config.write_text(yaml.safe_dump(mlp_group_testing_doc()))
    single = train_and_value(config, tmp_path / "threads1", 1)
    double = train_and_value(config, tmp_path / "threads2", 2)
    assert len(single) > 1
    assert single == double
