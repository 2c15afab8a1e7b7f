"""Show that the output checks reject perturbed outputs.

Usage: python3 perfbench/selftest.py [--seed N]

Runs one iteration of wide-exact and of summarize-retrain, confirms that
every check passes on the untouched outputs, then checks three perturbed
copies and expects each to be rejected:

- one exact value in values.csv nudged by 1e-6;
- one fraction-0.0 row of summarization.csv moved one grid step;
- the largest-magnitude LOO value with its sign flipped.

Exits 0 only if the untouched outputs pass and every perturbation fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path
from typing import Callable

from checks import CHECKS
from run import ROOT, SRC, run_child
from workloads import WORKLOADS, expand, write_config


def _edit_csv(path: Path, pick: Callable[[list[list[str]]], int], change: Callable[[float], float]) -> str:
    """Apply ``change`` to the value column of the row ``pick`` chooses."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    index = pick(rows)
    column = len(rows[index]) - 1 if path.name == "summarization.csv" else 3
    old = rows[index][column]
    rows[index][column] = repr(change(float(old)))
    path.write_text("\n".join([lines[0], *(",".join(r) for r in rows)]) + "\n")
    return f"{path.name} row {index + 2}: {old} -> {rows[index][column]}"


def _first_round_row(rows: list[list[str]]) -> int:
    return next(i for i, r in enumerate(rows) if r[0] == "round")


def _largest_round_row(rows: list[list[str]]) -> int:
    candidates = [i for i, r in enumerate(rows) if r[0] == "round"]
    return max(candidates, key=lambda i: abs(float(rows[i][3])))


def _full_retention_row(rows: list[list[str]]) -> int:
    return next(i for i, r in enumerate(rows) if float(r[1]) == 0.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not (SRC / "fedval" / "cli.py").is_file():
        print(f"error: fedval sources not found under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    outputs = {}
    for name in ("wide-exact", "summarize-retrain"):
        workload = WORKLOADS[name](args.seed)
        directory = work / name
        directory.mkdir(parents=True)
        config = write_config(workload.config, directory / "config.yaml")
        out = {"a": directory / "a", "b": directory / "b"}
        result, _ = run_child(
            directory, [expand(c, config=config, **out) for c in workload.commands], False
        )
        if any(c["rc"] != 0 for c in result["commands"]):
            print(f"FAIL {name}: a command failed: {result['commands']}")
            return 1
        outputs[name] = (workload.config, out)

    n_val = WORKLOADS["summarize-retrain"](args.seed).config["dataset"]["validation_samples"]
    perturbations = [
        ("exact value nudged by 1e-6", "wide-exact", "a/values.csv",
         _first_round_row, lambda v: v + 1e-6),
        ("fraction-0.0 summarization row changed", "summarize-retrain",
         "a/summarization.csv", _full_retention_row, lambda v: v - 1.0 / n_val),
        ("LOO value sign flipped", "wide-exact", "b/values.csv",
         _largest_round_row, lambda v: -v),
    ]
    ok = True
    for name, (config, out) in outputs.items():
        failing = [c for c, problems in CHECKS[name](config, out).items() if problems]
        print(f"{'PASS' if not failing else 'FAIL'} untouched {name} outputs"
              + (f": rejected by {failing}" if failing else ""))
        ok &= not failing
    for index, (label, name, target, pick, change) in enumerate(perturbations):
        config, out = outputs[name]
        copy = work / f"perturbed-{index}"
        copied = {key: copy / key for key in out}
        for key, path in out.items():
            if path.exists():
                shutil.copytree(path, copied[key])
        key, _, file = target.partition("/")
        edit = _edit_csv(copied[key] / file, pick, change)
        failing = [c for c, problems in CHECKS[name](config, copied).items() if problems]
        print(f"{'PASS' if failing else 'FAIL'} {label} ({edit}): "
              + (f"rejected by {failing}" if failing else "not rejected"))
        ok &= bool(failing)
    if ok:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
