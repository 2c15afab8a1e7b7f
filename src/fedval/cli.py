"""Command-line front end.

Subcommands cover the full pipeline: train-and-value, value-replay from
round snapshots, and the detection and summarization protocols. Result
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
    value_rounds,
)
from .estimators import round_plan
from .experiments import (
    SHAPLEY_METHODS,
    DetectionOutcome,
    check_recorded_run,
    prepare_experiment,
    prepare_validation,
    run_backdoor_detection,
    run_noisy_detection,
    run_summarization,
    shapley_backend,
)
from .models import ModelLayout
from .values import format_float, write_value_records


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
            [t, {"t1": plan.t1, "t2": plan.t2, "z": plan.z}]
            for t, plan in plans
        ]
    return details


def _cmd_train_and_value(args: argparse.Namespace) -> int:
    cfg, digest = _load_config(args)
    out = _resolve_out(args, cfg)

    def body() -> dict[str, Any]:
        prepared = prepare_experiment(cfg)
        records = prepared.train_once(snapshot_dir=out / "rounds")
        layout = prepared.training.layout
        details = _write_values(cfg, layout, records, prepared.validation, out)
        details["participants"] = cfg.partition.participants
        details["final_accuracy"] = evaluate_utility(
            layout,
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
        training, validation = prepare_validation(cfg)
        records = check_recorded_run(cfg, snapshots, loaded, training)
        return {
            **_write_values(cfg, training.layout, records, validation, out),
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
    if cfg.valuation.normalized:
        raise ConfigError(
            "valuation.normalized: the detection protocols write both the raw "
            "and the _norm curves, so they take no normalized setting"
        )
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
    out = _resolve_out(args, cfg)

    def body() -> dict[str, Any]:
        result = run_summarization(cfg)
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
            "normalized": cfg.valuation.normalized,
            "baseline_accuracy": result.baseline_accuracy,
            "dismiss_fractions": list(result.dismiss_fractions),
        }

    return _run_with_manifest("summarize", cfg, digest, out, body)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedval",
        description="Federated training simulator with per-round participant valuation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser,
        *,
        methods: tuple[str, ...] = VALUATION_METHODS,
        normalized_flag: bool = False,
    ) -> None:
        p.add_argument("--config", required=True, help="experiment config (YAML)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument(
            "--method",
            choices=(*methods, *_METHOD_ALIASES),
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
    add_common(p, methods=SHAPLEY_METHODS)
    p.set_defaults(handler=_cmd_detect, protocol=run_noisy_detection)

    p = sub.add_parser("backdoor-detect", help="backdoor-participant detection protocol")
    add_common(p, methods=SHAPLEY_METHODS)
    p.set_defaults(handler=_cmd_detect, protocol=run_backdoor_detection)

    p = sub.add_parser("summarize", help="participant-dismissal summarization protocol")
    add_common(p, methods=SHAPLEY_METHODS, normalized_flag=True)
    p.set_defaults(handler=_cmd_summarize)

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
