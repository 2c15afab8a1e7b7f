"""Every command's outputs on the shipped configs and the benchmark's
workloads are byte-identical to the digests committed in
``tests/golden/digests.json`` (see ``tests/golden/update.py``)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

UPDATE = Path(__file__).resolve().parent / "golden" / "update.py"


def load_update():
    spec = importlib.util.spec_from_file_location("golden_update", UPDATE)
    update = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = update  # its dataclass looks itself up there
    spec.loader.exec_module(update)
    return update


golden = load_update()
RECORDED = json.loads(golden.DIGESTS.read_text())
CASES = golden.cases()


def test_every_case_is_recorded():
    assert sorted(case.key for case in CASES) == sorted(RECORDED["cases"])


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.key.replace(" --seed ", "-seed"))
def test_outputs_match_the_golden_digests(case, tmp_path):
    made, running = RECORDED["numpy"], golden.environment()["numpy"]
    assert made == running, (
        f"the digests were made under numpy {made}, but this is numpy {running}; "
        f"regenerate them with tests/golden/update.py on a tree whose outputs are trusted"
    )
    expected = RECORDED["cases"][case.key]
    actual = golden.run_case(case, tmp_path)
    problems = [
        f"`{run['argv']}` exited {run['exit']}, recorded {want['exit']}"
        for run, want in zip(actual["commands"], expected["commands"])
        if run["exit"] != want["exit"]
    ]
    if [run["argv"] for run in actual["commands"]] != [run["argv"] for run in expected["commands"]]:
        problems.append("the command list differs from the recorded one")
    by_dir = {}
    for run in expected["commands"]:
        parts = run["argv"].split()
        by_dir[Path(parts[parts.index("--out") + 1]).name.strip("{}")] = run["argv"]
    for name in sorted(set(expected["files"]) | set(actual["files"])):
        want, got = expected["files"].get(name), actual["files"].get(name)
        if want != got:
            state = "missing" if got is None else "unexpected" if want is None else "differs"
            command = by_dir.get(name.split("/")[0], "?")
            problems.append(f"{name} {state} (written by `{command}`)")
    assert not problems, f"{case.name} at seed {case.seed}:\n" + "\n".join(problems)
