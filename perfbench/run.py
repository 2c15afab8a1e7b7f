"""fedval benchmark: time a workload's CLI commands end to end and by layer.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S

Each iteration spawns one Python process (perfbench/child.py) that runs
the workload's fedval commands one after another, as a user would chain
them. Iterations repeat until the next one would end after ``--seconds``.
End-to-end metrics are medians over iterations; with ``--trace 1``
every second iteration is traced and the per-layer metrics are medians
over the traced ones. The outputs of the first iteration are checked
against recomputations in perfbench/checks.py; later iterations must
reproduce them byte for byte. The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CHECKS
from tracing import summarize
from workloads import PROBE_SEEDS, WORKLOADS, Workload, expand, probe_config, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (missing program or child crash)."""


def _metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _child_env() -> dict[str, str]:
    threads = str(len(os.sched_getaffinity(0)))
    return {
        **os.environ,
        "OMP_NUM_THREADS": threads,
        "OPENBLAS_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
    }


def run_child(
    directory: Path, commands: list[list[str]], traced: bool, probe: list[str] | None = None
) -> tuple[dict, float]:
    """One child process; returns its result and the spawn time."""
    directory.mkdir(parents=True, exist_ok=True)
    spec_path = directory / "spec.json"
    spec_path.write_text(json.dumps({
        "src": str(SRC),
        "commands": commands,
        "trace": traced,
        "probe": probe,
        "result": str(directory / "result.json"),
    }))
    with open(directory / "child.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            stdout=log, stderr=subprocess.STDOUT, env=_child_env(),
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    if proc.returncode != 0:
        tail = (directory / "child.log").read_text()[-2000:]
        raise BenchmarkError(f"child exited with {proc.returncode}:\n{tail}")
    return json.loads((directory / "result.json").read_text()), spawned


def prepare_probe(work: Path) -> list[str]:
    """Two runs that differ only in seed; round 0 of the first is spliced
    with round 1 of the second. Returns the replay command to probe."""
    runs = []
    for seed in PROBE_SEEDS:
        config = write_config(probe_config(seed), work / f"probe-{seed}.yaml")
        out = work / f"probe-{seed}"
        runs.append((config, out))
    result, _ = run_child(
        work / "probe-prep",
        [["train-and-value", "--config", str(c), "--out", str(o)] for c, o in runs],
        traced=False,
    )
    if any(command["rc"] != 0 for command in result["commands"]):
        raise BenchmarkError(f"probe source runs failed: {result['commands']}")
    splice = work / "probe-splice"
    splice.mkdir()
    shutil.copy(runs[0][1] / "rounds" / "round_00000.fvr", splice)
    shutil.copy(runs[1][1] / "rounds" / "round_00001.fvr", splice)
    return ["value-replay", "--config", str(runs[0][0]), "--method", "loo",
            "--snapshots", str(splice), "--out", str(work / "probe-out")]


def probe_passed(probe: dict) -> bool:
    """Replay must refuse the spliced directory and name the foreign file."""
    return probe["rc"] != 0 and "round_00001.fvr" in probe["stderr"]


def end_to_end(result: dict, spawned: float) -> dict[str, float]:
    stage = {}
    for name, start, end, _ in result["spans"]:
        stage[name] = stage.get(name, 0.0) + end - start
    return {
        "wall_s": result["end"] - spawned,
        "setup_s": result["imported"] - spawned
        + stage.get("config.parse_config", 0.0)
        + stage.get("experiments.prepare_experiment", 0.0),
        "value_s": stage.get("engine.value_rounds", 0.0)
        + stage.get("engine.load_round_records", 0.0),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def table_digest(workload: Workload, out: dict[str, Path]) -> str:
    """Digest of the result tables; manifests carry timestamps and are left out."""
    digest = hashlib.sha256()
    for entry in workload.tables:
        key, _, rest = entry.partition("/")
        path = out[key] / rest
        files = sorted(path.iterdir()) if path.is_dir() else [path]
        for file in files:
            digest.update(file.name.encode() + b"\0" + file.read_bytes())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name](seed)
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = write_config(workload.config, work / "config.yaml")
    probe = prepare_probe(work) if workload.has_probe else None

    first: dict[str, Path] | None = None
    first_digest = None
    attempted = failed = 0
    deterministic = True
    untraced: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    layers: list[dict[str, float]] = []
    durations: list[float] = []
    problems: list[str] = []
    began = time.monotonic()
    iteration = 0
    while True:
        is_traced = trace and iteration % 2 == 1
        directory = work / f"iter-{iteration}"
        out = {"a": directory / "a", "b": directory / "b"}
        commands = [expand(c, config=config, **out) for c in workload.commands]
        started = time.monotonic()
        result, spawned = run_child(directory, commands, is_traced, probe)
        durations.append(time.monotonic() - started)

        attempted += len(workload.commands) + (1 if probe else 0)
        bad = [c for c in result["commands"] if c["rc"] != 0]
        failed += len(workload.commands) - len(result["commands"]) + len(bad)
        for command in bad:
            problems.append(f"{command['argv'][0]} exited {command['rc']}: "
                            f"{command['stderr'].strip()[-300:]}")
        if probe and not probe_passed(result["probe"]):
            failed += 1
        if bad:
            break

        metrics = end_to_end(result, spawned)
        (traced if is_traced else untraced).append(metrics)
        if is_traced:
            layers.append(summarize(result["spans"], result["counters"]))
        digest = table_digest(workload, out)
        if first is None:
            first, first_digest = out, digest
        else:
            deterministic &= digest == first_digest
            shutil.rmtree(directory)
        iteration += 1
        elapsed = time.monotonic() - began
        enough = untraced and (traced or not trace)
        if enough and elapsed + statistics.median(durations) > seconds:
            break
    measured = time.monotonic() - began

    checks: dict[str, list[str]] = {}
    if first is not None:
        try:
            checks = CHECKS[name](workload.config, first)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            checks = {"readable": [f"outputs could not be parsed: {exc!r}"]}
    if not deterministic:
        checks["determinism"] = ["result tables differ between iterations"]
    problems += [f"{check}: {p}" for check, found in checks.items() for p in found]
    correct = first is not None and not problems
    if correct:
        shutil.rmtree(work, ignore_errors=True)

    e2e_units, layer_units = _metric_specs()
    samples = {metric: [m[metric] for m in untraced] for metric in e2e_units}
    values: dict[str, float] = {}
    if trace and traced:
        units = layer_units
        for metric in layer_units:
            values[metric] = statistics.median(layer.get(metric, 0.0) for layer in layers)
        values["trace.overhead_s"] = statistics.median(
            m["wall_s"] for m in traced
        ) - statistics.median(samples["wall_s"])
    elif untraced and not trace:
        units = e2e_units
        values = {metric: statistics.median(samples[metric]) for metric in e2e_units}
    return {
        "workload": name,
        "iterations": iteration,
        "measured_s": measured,
        "checks": {check: not found for check, found in checks.items()},
        "problems": problems,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
        "samples": samples,
    }


def report(outcome: dict) -> None:
    print(f"{outcome['workload']}: {outcome['iterations']} iterations in "
          f"{outcome['measured_s']:.1f} s, {outcome['attempted']} operations attempted, "
          f"{outcome['failed']} failed")
    for check, ok in outcome["checks"].items():
        print(f"  check {check}: {'PASS' if ok else 'FAIL'}")
    for problem in outcome["problems"]:
        print(f"  problem: {problem}")
    for metric, value in outcome["metrics"].items():
        line = f"  {metric} = {value['value']:.6g} {value['unit']}"
        samples = outcome["samples"].get(metric)
        if samples and len(samples) > 1:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            line += f" (median of {len(samples)}; quartiles {q1:.6g} to {q3:.6g})"
        print(line)
    if "trace.overhead_s" in outcome["metrics"]:
        walls = ", ".join(f"{w:.3f}" for w in outcome["samples"]["wall_s"])
        print(f"  untraced wall_s per iteration: {walls}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fedval" / "cli.py").is_file():
        print(f"error: fedval sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        outcomes = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for outcome in outcomes:
        report(outcome)
    if len(outcomes) == 1:
        metrics = outcomes[0]["metrics"]
    else:
        metrics = {
            f"{o['workload']}.{m}": v for o in outcomes for m, v in o["metrics"].items()
        }
    print(json.dumps({
        "correct": all(o["correct"] for o in outcomes),
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
