"""Workload definitions: the fedval configs and CLI commands each workload runs.

Every input is generated from the benchmark's ``--seed``: it becomes the
master seed of the config, from which fedval draws the blobs, the
partition, the label flips and the training streams. The program
receives only the config file. Configs are written as JSON, which the
YAML config parser reads unchanged.

Sizes are chosen so that one iteration (all of a workload's commands)
takes a few seconds on a 2-core machine, which lets a 40 s run repeat
it enough times to report medians.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# The chain-break probe splices two runs that differ only in these seeds.
# They are fixed so the probe's inputs never depend on --seed.
PROBE_SEEDS = (7, 99)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    # Each command is a fedval CLI argv with {config}, {a}, {b} placeholders
    # for the config path and the two output directories.
    commands: tuple[tuple[str, ...], ...]
    # Result tables compared across iterations, relative to {a} or {b}.
    tables: tuple[str, ...]
    has_probe: bool = False


def _blobs(samples: int, features: int, classes: int, separation: float) -> dict:
    return {
        "kind": "blobs",
        "samples": samples,
        "features": features,
        "classes": classes,
        "separation": separation,
        "validation_samples": 1000,
    }


def wide_exact(seed: int) -> Workload:
    config = {
        "seed": seed,
        "dataset": _blobs(4000, 784, 10, 3.0),
        "partition": {"mode": "iid", "participants": 20},
        "corruption": {"kind": "label_flip", "flip_ratio": 0.5, "affected_count": 6},
        "training": {
            "rounds": 2, "participant_fraction": 0.5, "local_epochs": 1,
            "batch_size": 50, "learning_rate": 0.5, "model": "logistic",
        },
        "valuation": {"method": "exact"},
    }
    return Workload(
        name="wide-exact",
        why="2^10 subsets per round, each a 784x10 forward pass: the utility layer is nearly the whole run",
        config=config,
        commands=(
            ("train-and-value", "--config", "{config}", "--out", "{a}"),
            ("value-replay", "--config", "{config}", "--method", "loo",
             "--snapshots", "{a}/rounds", "--out", "{b}"),
        ),
        tables=("a/values.csv", "a/rounds", "b/values.csv"),
    )


def summarize_retrain(seed: int) -> Workload:
    # The shipped configs/summarization.yaml shape with twice the samples,
    # so every participant's shard is twice as large.
    config = {
        "seed": seed,
        "dataset": _blobs(4000, 10, 4, 2.5),
        "partition": {"mode": "iid", "participants": 20},
        "corruption": {"kind": "label_flip", "flip_ratio": 0.5, "affected_count": 8},
        "training": {
            "rounds": 10, "participant_fraction": 0.5, "local_epochs": 2,
            "batch_size": 20, "learning_rate": 1.0, "model": "logistic",
        },
        "valuation": {"method": "exact"},
        "experiment": {
            "dismiss_fractions": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            "random_repeats": 3,
        },
    }
    return Workload(
        name="summarize-retrain",
        why="50 retrain replays dominate and utilities are cheap at 10 features: bypasses wide-model and estimator work",
        config=config,
        commands=(("summarize", "--config", "{config}", "--out", "{a}"),),
        tables=("a/summarization.csv",),
    )


def large_round_estimators(seed: int) -> Workload:
    config = {
        "seed": seed,
        "dataset": _blobs(4000, 20, 4, 2.5),
        "partition": {"mode": "iid", "participants": 40},
        "corruption": {"kind": "label_flip", "flip_ratio": 0.5, "affected_count": 10},
        "training": {
            "rounds": 2, "participant_fraction": 0.5, "local_epochs": 1,
            "batch_size": 20, "learning_rate": 0.5, "model": "mlp",
            # With init_scale 0 the MLP's hidden and output weights stay
            # exactly zero and accuracy sits at chance (see README).
            "hidden_units": 16, "init_scale": 0.1,
        },
        "valuation": {
            "method": "permutation",
            "approx": {"epsilon": 0.25, "delta": 0.2},
        },
    }
    return Workload(
        name="large-round-estimators",
        why="20 selected per round, so sparse cached masks replace enumeration: estimator bookkeeping and the MLP forward path",
        config=config,
        commands=(
            ("train-and-value", "--config", "{config}", "--out", "{a}"),
            ("value-replay", "--config", "{config}", "--method", "group_testing",
             "--snapshots", "{a}/rounds", "--out", "{b}"),
        ),
        tables=("a/values.csv", "a/rounds", "b/values.csv"),
        has_probe=True,
    )


WORKLOADS = {
    build(0).name: build
    for build in (wide_exact, summarize_retrain, large_round_estimators)
}


def probe_config(seed: int) -> dict:
    """Config of the chain-break probe's source runs: the estimator
    workload's shape at a fixed seed, valued cheaply by LOO."""
    config = large_round_estimators(seed).config
    return {**config, "valuation": {"method": "loo"}}


def write_config(config: dict, path: Path) -> Path:
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
    return path


def expand(command: tuple[str, ...], **paths: Path) -> list[str]:
    return [part.format(**{k: str(v) for k, v in paths.items()}) for part in command]
