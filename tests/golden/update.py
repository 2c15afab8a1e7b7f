"""Golden output digests: what fedval's commands write, pinned byte for byte.

``digests.json`` beside this file holds, for each case (one config at one
master seed), every command's exit code and the SHA-256 of every file the
commands wrote except ``manifest.json``, whose timestamps differ from run
to run. It also records the numpy version and platform it was made on.
``tests/test_golden_outputs.py`` runs every case again and compares.

The cases are the shipped configs' commands at seeds 1-3 and the
benchmark's workload commands (their configs built from
``perfbench/workloads.py``) at seed 1. A change that alters outputs on
purpose rewrites the file with

    PYTHONPATH=src python tests/golden/update.py

and the diff of ``digests.json`` lists the files it changed. Any other
change leaves the file as it is.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fedval.cli import main

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = Path(__file__).with_name("digests.json")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    return workloads


@dataclass(frozen=True)
class Case:
    """One config at one seed, and the commands run on it in order. An
    argv may name ``{config}``, ``{seed}`` and output directories
    ``{a}``, ``{b}`` or ``{dir}/NAME``, all inside the case's directory."""

    name: str
    seed: int
    config: Path | dict
    commands: tuple[tuple[str, ...], ...]

    @property
    def key(self) -> str:
        return f"{self.name} --seed {self.seed}"


def _train_and_replay(*methods: str) -> tuple[tuple[str, ...], ...]:
    commands = []
    for method in methods:
        trained = f"{{dir}}/train-and-value-{method}"
        commands += [
            ("train-and-value", "--config", "{config}", "--seed", "{seed}",
             "--method", method, "--out", trained),
            ("value-replay", "--config", "{config}", "--seed", "{seed}",
             "--method", method, "--snapshots", f"{trained}/rounds",
             "--out", f"{{dir}}/value-replay-{method}"),
        ]
    return tuple(commands)


def _one(command: str) -> tuple[tuple[str, ...], ...]:
    return ((command, "--config", "{config}", "--seed", "{seed}", "--out", f"{{dir}}/{command}"),)


SHIPPED = {
    # Only the small config has an approx section for the estimators.
    "train_value_small": _train_and_replay("exact", "permutation", "group_testing", "loo"),
    "summarization": _train_and_replay("exact", "loo") + _one("summarize"),
    "noisy_detection_iid": _one("noisy-detect"),
    "noisy_detection_noniid": _one("noisy-detect"),
    "backdoor_detection": _one("backdoor-detect"),
}


def cases() -> list[Case]:
    shipped = [
        Case(name, seed, ROOT / "configs" / f"{name}.yaml", commands)
        for name, commands in SHIPPED.items()
        for seed in (1, 2, 3)
    ]
    workloads = _load_workloads()
    benchmark = [
        Case(name, 1, workload.config, workload.commands)
        for name, build in workloads.WORKLOADS.items()
        for workload in [build(1)]
    ]
    return shipped + benchmark


def run_case(case: Case, directory: Path) -> dict:
    """Run ``case``'s commands in ``directory`` (empty); returns each
    command's argv and exit code, and each written file's SHA-256."""
    config = case.config
    if isinstance(config, dict):
        config = directory / "config.json"
        config.write_text(json.dumps(case.config, indent=1, sort_keys=True) + "\n")
    places = {"config": config, "seed": case.seed, "dir": directory,
              "a": directory / "a", "b": directory / "b"}
    commands = []
    for template in case.commands:
        argv = [part.format(**places) for part in template]
        commands.append({"argv": " ".join(template), "exit": main(argv)})
    files = {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file() and path.name != "manifest.json" and path != config
    }
    return {"commands": commands, "files": files}


def environment() -> dict:
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


def main_update() -> None:
    runs = {}
    for case in cases():
        with tempfile.TemporaryDirectory() as directory:
            runs[case.key] = run_case(case, Path(directory))
    document = {**environment(), "cases": runs}
    DIGESTS.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main_update()
