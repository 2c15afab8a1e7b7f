"""Command-line front end.

Subcommands cover the full pipeline: train-and-value, value-replay from
round snapshots, the detection and summarization protocols, and a
self-contained exact-vs-estimator check on synthetic games. Result
tables are plain delimited text with stable formatting, so identical
configs and seeds produce byte-identical files; timestamps live only in
the run manifest.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    RunManifest,
    config_digest,
    parse_config,
    write_manifest,
)
from .datasets import Dataset
from .engine import (
    VALUATION_METHODS,
    RoundOracle,
    RoundRecord,
    evaluate_utility,
    load_round_records,
    run_federated_training,
    value_rounds,
)
from .estimators import (
    ApproxParams,
    group_testing_plan,
    permutation_sample_count,
    permutation_sampling_round,
    round_plan,
)
from .experiments import (
    DetectionOutcome,
    check_recorded_run,
    prepare_experiment,
    prepare_validation,
    run_backdoor_detection,
    run_noisy_detection,
    run_summarization,
    shapley_backend,
)
from .games import random_table_game
from .models import ModelLayout
from .values import (
    exact_federated_round_shapley,
    exact_shapley_permutation_form,
    format_float,
    write_value_records,
)


_METHOD_ALIASES = {"perm": "permutation", "gt": "group_testing"}


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def _override(spec: Any, flag: str, **changes: Any) -> Any:
    """``spec`` with a flag's changes, checked by the config schema."""
    try:
        return replace(spec, **changes)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _load_config(args: argparse.Namespace) -> tuple[ExperimentConfig, str]:
    cfg = parse_config(args.config)
    digest = config_digest(args.config)
    if args.seed is not None:
        cfg = _override(cfg, f"--seed {args.seed}", seed=args.seed)
    if args.method:
        method = _METHOD_ALIASES.get(args.method, args.method)
        valuation = _override(cfg.valuation, f"--method {args.method}", method=method)
        cfg = replace(cfg, valuation=valuation)
    if getattr(args, "normalized", False):
        cfg = replace(cfg, valuation=replace(cfg.valuation, normalized=True))
    return cfg, digest


def _resolve_out(args: argparse.Namespace, cfg: ExperimentConfig) -> Path:
    out = args.out or cfg.output_dir
    if out is None:
        raise ConfigError("an output directory is required (--out or output_dir)")
    return Path(out)


def _run_with_manifest(
    command: str,
    cfg: ExperimentConfig,
    digest: str,
    out: Path,
    body: Callable[[], dict[str, Any]],
) -> int:
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command=command,
        master_seed=cfg.seed,
        config_digest=digest,
        started=_now(),
    )
    try:
        manifest.details = body()
    except Exception as exc:
        manifest.status = "failed"
        manifest.details = {"error": str(exc), "partial_outputs": True}
        manifest.finished = _now()
        write_manifest(manifest, out / "manifest.json")
        raise
    manifest.finished = _now()
    write_manifest(manifest, out / "manifest.json")
    return 0


def _write_values(
    cfg: ExperimentConfig,
    layout: ModelLayout,
    records: list[RoundRecord],
    validation: Dataset,
    out: Path,
) -> dict[str, Any]:
    """Value recorded rounds by the configured method into ``values.csv``;
    returns the manifest's valuation details, which under an estimator
    include each round's sample count or group-testing plan."""
    method, approx = cfg.valuation.method, cfg.valuation.approx
    report = value_rounds(
        RoundOracle(layout, records, validation.features, validation.labels),
        method,
        approx=approx,
        seed=cfg.seed,
    )
    if cfg.valuation.normalized:
        report = report.normalized()
    write_value_records(report, out / "values.csv")
    details: dict[str, Any] = {
        "rounds": len(records),
        "valuation_method": method,
        "normalized": cfg.valuation.normalized,
    }
    # Each round's sample count or plan, as value_rounds worked it out.
    plans = [
        (record.round_index, round_plan(method, approx, len(record.selected)))
        for record in records
    ]
    plans = [(t, plan) for t, plan in plans if plan is not None]
    if method == "permutation":
        details["permutation_sample_counts"] = [[t, count] for t, count in plans]
    elif plans:
        details["group_testing_plans"] = [
            [t, {"t1": plan.t1, "t2": plan.t2, "q_tot": plan.q_tot, "z": plan.z}]
            for t, plan in plans
        ]
    return details


def _cmd_train_and_value(args: argparse.Namespace) -> int:
    cfg, digest = _load_config(args)
    out = _resolve_out(args, cfg)

    def body() -> dict[str, Any]:
        prepared = prepare_experiment(cfg)
        records = run_federated_training(
            prepared.train, prepared.plan.assignment, prepared.training,
            snapshot_dir=out / "rounds",
        )
        details = _write_values(cfg, prepared.layout, records, prepared.validation, out)
        details["participants"] = cfg.partition.participants
        details["final_accuracy"] = evaluate_utility(
            prepared.layout,
            records[-1].global_after,
            prepared.validation.features,
            prepared.validation.labels,
        )
        return details

    return _run_with_manifest("train-and-value", cfg, digest, out, body)


def _cmd_value_replay(args: argparse.Namespace) -> int:
    cfg, digest = _load_config(args)
    snapshots = Path(args.snapshots)
    if not snapshots.is_dir():
        raise ConfigError(f"snapshot directory not found: {snapshots}")
    out = _resolve_out(args, cfg)

    def body() -> dict[str, Any]:
        loaded = load_round_records(snapshots)
        layout, validation = prepare_validation(cfg)
        records = check_recorded_run(cfg, snapshots, loaded, layout)
        return {
            **_write_values(cfg, layout, records, validation, out),
            "snapshots": str(snapshots),
        }

    return _run_with_manifest("value-replay", cfg, digest, out, body)


def _write_detection(out: Path, outcome: DetectionOutcome) -> None:
    curve_lines = ["method,inspected_fraction,detected_fraction"]
    auc_lines = ["method,auc"]
    for method in sorted(outcome.curves):
        curve = outcome.curves[method]
        for x, y in zip(curve.inspected_fractions, curve.detected_fractions):
            curve_lines.append(f"{method},{format_float(x)},{format_float(y)}")
        auc_lines.append(f"{method},{format_float(curve.auc)}")
    _write_lines(out / "detection_curves.csv", curve_lines)
    _write_lines(out / "detection_auc.csv", auc_lines)


def _cmd_detect(args: argparse.Namespace) -> int:
    cfg, digest = _load_config(args)
    backend = shapley_backend(cfg)
    out = _resolve_out(args, cfg)

    def body() -> dict[str, Any]:
        outcome = args.protocol(cfg)
        _write_detection(out, outcome)
        details: dict[str, Any] = {
            "valuation_method": backend,
            "affected": list(outcome.affected),
            "auc": {m: outcome.curves[m].auc for m in sorted(outcome.curves)},
        }
        if outcome.attack_success_rate is not None:
            _write_lines(
                out / "attack.csv",
                [
                    "attack_success_rate,clean_accuracy",
                    f"{format_float(outcome.attack_success_rate)},"
                    f"{format_float(outcome.clean_accuracy)}",
                ],
            )
            details["attack_success_rate"] = outcome.attack_success_rate
            details["clean_accuracy"] = outcome.clean_accuracy
        return details

    return _run_with_manifest(args.command, cfg, digest, out, body)


def _cmd_summarize(args: argparse.Namespace) -> int:
    cfg, digest = _load_config(args)
    backend = shapley_backend(cfg)
    snapshots = None if args.snapshots is None else Path(args.snapshots)
    if snapshots is not None and not snapshots.is_dir():
        raise ConfigError(f"snapshot directory not found: {snapshots}")
    out = _resolve_out(args, cfg)

    def body() -> dict[str, Any]:
        result = run_summarization(cfg, snapshots)
        lines = ["method,dismiss_fraction,accuracy"]
        for method in sorted(result.accuracy):
            for fraction, accuracy in zip(
                result.dismiss_fractions, result.accuracy[method]
            ):
                lines.append(
                    f"{method},{format_float(fraction)},{format_float(accuracy)}"
                )
        _write_lines(out / "summarization.csv", lines)
        return {
            "valuation_method": backend,
            "baseline_accuracy": result.baseline_accuracy,
            "dismiss_fractions": list(result.dismiss_fractions),
        }

    return _run_with_manifest("summarize", cfg, digest, out, body)


def _check_permutation_contract(
    m: int, epsilon: float, delta: float, trials: int, seed: int
) -> tuple[bool, str]:
    params = ApproxParams(epsilon=epsilon, delta=delta)
    count = permutation_sample_count(params, m)
    players = range(m)
    failures = 0
    telescope_bad = 0
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        game = random_table_game([players], rng)
        exact = exact_federated_round_shapley(game, 0)
        estimate = permutation_sampling_round(game, 0, players, count, rng)
        worst = max(
            abs(estimate.get(pid) - exact.get(pid)) for pid in players
        )
        if worst > epsilon:
            failures += 1
        total = sum(estimate.values.values())
        span = game.evaluate(0, (1 << m) - 1) - game.evaluate(0, 0)
        if abs(total - span) > 1e-9:
            telescope_bad += 1
    rate = 1.0 - failures / trials
    ok = rate >= 1.0 - delta and telescope_bad == 0
    return ok, (
        f"within epsilon in {rate:.1%} of {trials} trials "
        f"(need {1.0 - delta:.0%}), {telescope_bad} telescoping violations, "
        f"{count} orderings per trial"
    )


def _check_form_agreement(games: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for index in range(games):
        rng = np.random.default_rng((seed, 7000 + index))
        m = 2 + index % 5
        players = range(m)
        game = random_table_game([players], rng)
        subset_form = exact_federated_round_shapley(game, 0)
        ordering_form = exact_shapley_permutation_form(game)
        worst = max(
            worst,
            max(abs(subset_form.get(p) - ordering_form.get(p)) for p in players),
        )
    return worst <= 1e-9, f"max disagreement {worst:.2e} over {games} games (cap 1e-09)"


def _check_plan_values() -> tuple[bool, str]:
    plan = group_testing_plan(4, ApproxParams(epsilon=0.1, delta=0.1))
    checks = (
        abs(plan.z - 11.0 / 3.0) <= 1e-12,
        np.allclose(plan.subset_size_probs, [4 / 11, 3 / 11, 4 / 11], atol=1e-12),
        abs(plan.q_tot - 5.0 / 11.0) <= 1e-12,
    )
    return all(checks), f"z={plan.z:.6f}, q_tot={plan.q_tot:.6f} for m=4"


def _cmd_exact_check(args: argparse.Namespace) -> int:
    checks = [
        ("subset-vs-ordering agreement", _check_form_agreement(args.games, args.seed)),
        ("sampling-plan constants", _check_plan_values()),
        (
            "ordering-sampling contract",
            _check_permutation_contract(
                args.players, args.epsilon, args.delta, args.trials, args.seed
            ),
        ),
    ]
    failed = 0
    for name, (ok, detail) in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        if not ok:
            failed += 1
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedval",
        description="Federated training simulator with per-round participant valuation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, normalized_flag: bool = False) -> None:
        p.add_argument("--config", required=True, help="experiment config (YAML)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument(
            "--method",
            choices=(*VALUATION_METHODS, *_METHOD_ALIASES),
            default=None,
            help="override the valuation method",
        )
        if normalized_flag:
            p.add_argument(
                "--normalized", action="store_true",
                help="report per-round values scaled to unit norm",
            )

    p = sub.add_parser("train-and-value", help="train and value every round")
    add_common(p, normalized_flag=True)
    p.set_defaults(handler=_cmd_train_and_value)

    p = sub.add_parser("value-replay", help="recompute values from round snapshots")
    add_common(p, normalized_flag=True)
    p.add_argument("--snapshots", required=True, help="round snapshot directory")
    p.set_defaults(handler=_cmd_value_replay)

    p = sub.add_parser("noisy-detect", help="noisy-participant detection protocol")
    add_common(p)
    p.set_defaults(handler=_cmd_detect, protocol=run_noisy_detection)

    p = sub.add_parser("backdoor-detect", help="backdoor-participant detection protocol")
    add_common(p)
    p.set_defaults(handler=_cmd_detect, protocol=run_backdoor_detection)

    p = sub.add_parser("summarize", help="participant-dismissal summarization protocol")
    add_common(p, normalized_flag=True)
    p.add_argument(
        "--snapshots", default=None,
        help="reuse a persisted run's round snapshots instead of retraining",
    )
    p.set_defaults(handler=_cmd_summarize)

    p = sub.add_parser(
        "exact-check", help="check the estimators against exact values on synthetic games"
    )
    p.add_argument("--players", type=int, default=4)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--games", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_exact_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
