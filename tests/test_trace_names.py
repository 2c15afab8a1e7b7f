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
