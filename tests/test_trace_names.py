"""The benchmark's tracer (perfbench/tracing.py) patches fedval functions
by module and attribute name, and its counters read some arguments by
parameter name; a rename or deletion in fedval must not leave one of
those names dangling."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = []
    for module_name, attribute, _, _ in tracing.LAYERS:
        owner = importlib.import_module(module_name)
        if "." in attribute:
            # The tracer patches a method in its class's own namespace.
            class_name, method = attribute.split(".")
            found = method in vars(getattr(owner, class_name, object))
        else:
            found = callable(getattr(owner, attribute, None))
        if not found:
            missing.append(f"{module_name}.{attribute}")
    assert missing == []


# Parameters the tracer's counters read from each call's bound arguments.
BOUND_PARAMETERS = [
    ("fedval.estimators", "permutation_sampling_round", ("sample_count", "round_players")),
    ("fedval.estimators", "group_testing_round", ("plan",)),
    ("fedval.engine", "save_round_records", ("records", "directory")),
    ("fedval.engine", "load_round_records", ("directory",)),
]


def test_bound_parameters_cover_every_counter():
    counted = {
        (module_name, attribute)
        for module_name, attribute, _, counter in load_tracing().LAYERS
        if counter is not None
    }
    assert counted == {(module_name, function) for module_name, function, _ in BOUND_PARAMETERS}


@pytest.mark.parametrize(
    "module_name, function, names", BOUND_PARAMETERS, ids=[f for _, f, _ in BOUND_PARAMETERS]
)
def test_counted_parameters_exist(module_name, function, names):
    parameters = inspect.signature(
        getattr(importlib.import_module(module_name), function)
    ).parameters
    assert [name for name in names if name not in parameters] == []


# Calls of each stage the end-to-end metrics time (``STAGES``), per
# command: setup_s reads prepare_experiment, value_s reads value_rounds
# and load_round_records.
STAGE_CALLS = {
    "train-and-value": {"prepare_experiment": 1, "value_rounds": 1, "load_round_records": 0},
    "value-replay": {"prepare_experiment": 0, "value_rounds": 1, "load_round_records": 1},
    "summarize": {"prepare_experiment": 1, "value_rounds": 2, "load_round_records": 0},
}


def test_stage_calls_per_command(tmp_path):
    import yaml

    from fedval import cli

    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "seed": 3,
        "dataset": {
            "kind": "blobs", "samples": 120, "features": 3, "classes": 2,
            "separation": 3.0, "validation_samples": 60,
        },
        "partition": {"mode": "iid", "participants": 4},
        "training": {
            "rounds": 2, "participant_fraction": 0.5, "local_epochs": 1,
            "batch_size": 10, "learning_rate": 0.5, "model": "logistic",
        },
        "valuation": {"method": "exact"},
        "experiment": {"dismiss_fractions": [0.0, 0.5], "random_repeats": 1},
    }))
    snapshots = str(tmp_path / "train-and-value" / "rounds")
    extra = {"value-replay": ["--snapshots", snapshots]}
    tracing = load_tracing()
    counted = {}
    for command in STAGE_CALLS:
        tracer = tracing.Tracer()
        tracer.install(tracing.STAGES)
        try:
            argv = [command, "--config", str(config), "--out", str(tmp_path / command)]
            assert cli.main(argv + extra.get(command, [])) == 0
        finally:
            tracer.uninstall()
        names = [span[0].split(".")[-1] for span in tracer.spans]
        counted[command] = {stage: names.count(stage) for stage in STAGE_CALLS[command]}
        assert names.count("parse_config") == 1
    assert counted == STAGE_CALLS


def test_traced_layers_run_both_estimators(tmp_path):
    """Every traced layer installed at once, counters included, through
    a permutation training run and a group-testing replay of it."""
    import yaml

    from fedval import cli
    from fedval.engine import load_round_records
    from fedval.estimators import ApproxParams, group_testing_plan, permutation_sample_count

    approx = {"epsilon": 0.5, "delta": 0.3}
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "seed": 5,
        "dataset": {
            "kind": "blobs", "samples": 120, "features": 3, "classes": 2,
            "separation": 3.0, "validation_samples": 60,
        },
        "partition": {"mode": "iid", "participants": 6},
        "training": {
            "rounds": 2, "participant_fraction": 0.5, "local_epochs": 1,
            "batch_size": 10, "learning_rate": 0.5, "model": "logistic",
        },
        "valuation": {"method": "permutation", "approx": approx},
    }))
    trained, replayed = tmp_path / "train-and-value", tmp_path / "value-replay"
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install(tracing.LAYERS)
    try:
        assert cli.main(["train-and-value", "--config", str(config), "--out", str(trained)]) == 0
        assert cli.main([
            "value-replay", "--config", str(config), "--method", "group_testing",
            "--snapshots", str(trained / "rounds"), "--out", str(replayed),
        ]) == 0
    finally:
        tracer.uninstall()
    params = ApproxParams(**approx)
    sizes = [len(record.selected) for record in load_round_records(trained / "rounds")[0]]
    assert tracer.counters["estimators.permutation_round.planned_evals"] == sum(
        permutation_sample_count(params, m) * m for m in sizes
    )
    plans = [group_testing_plan(m, params) for m in sizes]
    assert tracer.counters["estimators.group_testing_round.planned_evals"] == sum(
        plan.t1 + plan.t2 for plan in plans
    )
