"""Results do not depend on how many threads the BLAS library runs, nor
on how many CPUs the process may use.

Each run is a separate process, since OpenBLAS reads its thread count
once, when numpy loads it.
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


def cli_env(threads: int | None = None) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if threads is not None:
        env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    return env


def train_and_value(config: Path, out: Path, threads: int) -> dict[str, bytes]:
    subprocess.run(
        [sys.executable, "-m", "fedval.cli", "train-and-value",
         "--config", str(config), "--out", str(out)],
        env=cli_env(threads), check=True, capture_output=True,
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


# Runs the CLI on one CPU: the affinity is set in the child, before
# fedval counts the CPUs it may use.
PINNED_CLI = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from fedval.cli import main
sys.exit(main(sys.argv[1:]))
"""


def train_and_replay(config: Path, out: Path, *, pinned: bool) -> dict[str, bytes]:
    """``values.csv`` of ``train-and-value`` and of a group-testing
    ``value-replay`` of its snapshots, and the snapshots themselves."""
    launch = [sys.executable, "-c", PINNED_CLI] if pinned else [sys.executable, "-m", "fedval.cli"]
    for command in (
        ["train-and-value", "--config", str(config), "--out", str(out / "trained")],
        ["value-replay", "--config", str(config), "--method", "group_testing",
         "--snapshots", str(out / "trained" / "rounds"), "--out", str(out / "replayed")],
    ):
        subprocess.run([*launch, *command], env=cli_env(), check=True, capture_output=True)
    outputs = {
        name: (out / name / "values.csv").read_bytes() for name in ("trained", "replayed")
    }
    for path in sorted((out / "trained" / "rounds").glob("*.fvr")):
        outputs[path.name] = path.read_bytes()
    return outputs


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs to compare against one",
)
def test_mlp_outputs_identical_on_one_cpu_and_on_all(tmp_path):
    config = tmp_path / "mlp.yaml"
    config.write_text(yaml.safe_dump(mlp_group_testing_doc()))
    pinned = train_and_replay(config, tmp_path / "pinned", pinned=True)
    unpinned = train_and_replay(config, tmp_path / "unpinned", pinned=False)
    assert len(pinned) > 2
    assert pinned == unpinned
