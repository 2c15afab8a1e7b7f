"""Span tracing around fedval's public functions, from outside the program.

``Tracer.install`` replaces a function under every name a fedval module
looks it up by, so a call such as ``experiments.run_summarization ->
value_rounds`` goes through the wrapper. Each call leaves a span (name,
start, end, parent); a few wrappers also add counters. Spans stay in
memory until the child process writes them out after its commands end.

Untraced runs install only ``STAGES``, a handful of calls per command
with no counters; traced runs install ``LAYERS``.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

Counter = Callable[[dict[str, float], inspect.BoundArguments], None]


def _count_saved(counters: dict[str, float], call: inspect.BoundArguments) -> None:
    directory = Path(call.arguments["directory"])
    counters["engine.save_round_records.bytes"] += sum(
        (directory / f"round_{record.round_index:05d}.fvr").stat().st_size
        for record in call.arguments["records"]
    )


def _count_loaded(counters: dict[str, float], call: inspect.BoundArguments) -> None:
    counters["engine.load_round_records.bytes"] += sum(
        path.stat().st_size
        for path in Path(call.arguments["directory"]).glob("round_*.fvr")
    )


def _count_permutation(counters: dict[str, float], call: inspect.BoundArguments) -> None:
    counters["estimators.permutation_round.planned_evals"] += call.arguments[
        "sample_count"
    ] * len(call.arguments["round_players"])


def _count_group_testing(counters: dict[str, float], call: inspect.BoundArguments) -> None:
    plan = call.arguments["plan"]
    counters["estimators.group_testing_round.planned_evals"] += plan.t1 + plan.t2


# (module, attribute, span name, counter). An attribute "Class.method"
# patches the method on the class.
LAYERS = (
    ("fedval.config", "parse_config", "config.parse_config", None),
    ("fedval.experiments", "prepare_experiment", "experiments.prepare_experiment", None),
    ("fedval.engine", "value_rounds", "engine.value_rounds", None),
    ("fedval.engine", "load_round_records", "engine.load_round_records", _count_loaded),
    ("fedval.datasets", "synth_blobs", "datasets.synth_blobs", None),
    ("fedval.datasets", "partition_iid", "datasets.partition", None),
    ("fedval.datasets", "partition_noniid_shards", "datasets.partition", None),
    ("fedval.datasets", "flip_labels", "datasets.corrupt", None),
    ("fedval.datasets", "implant_backdoor", "datasets.corrupt", None),
    ("fedval.experiments", "run_summarization", "experiments.run_summarization", None),
    ("fedval.engine", "run_federated_training", "engine.run_federated_training", None),
    ("fedval.engine", "participant_update", "engine.participant_update", None),
    ("fedval.engine", "rerun_with_selections", "engine.rerun_with_selections", None),
    ("fedval.models", "loss_and_gradient", "models.loss_and_gradient", None),
    ("fedval.engine", "RoundOracle.evaluate", "engine.oracle", None),
    ("fedval.engine", "aggregate_subset", "engine.aggregate_subset", None),
    ("fedval.engine", "evaluate_utility", "engine.evaluate_utility", None),
    ("fedval.models", "accuracy", "models.accuracy", None),
    ("fedval.values", "exact_federated_round_shapley", "values.exact_round", None),
    ("fedval.values", "federated_loo_round", "values.loo_round", None),
    ("fedval.values", "write_value_records", "values.write_value_records", None),
    ("fedval.estimators", "permutation_sampling_round", "estimators.permutation_round",
     _count_permutation),
    ("fedval.estimators", "group_testing_round", "estimators.group_testing_round",
     _count_group_testing),
    ("fedval.estimators", "pivot_anchor_values", "estimators.pivot_anchor_values", None),
    ("fedval.engine", "save_round_records", "engine.save_round_records", _count_saved),
)

# The stage boundaries the end-to-end metrics need, without counters.
STAGES = tuple((module, attribute, name, None) for module, attribute, name, _ in LAYERS[:4])


class Tracer:
    """Records a span per call of each installed function."""

    def __init__(self) -> None:
        self.spans: list[Any] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str, counter: Counter | None) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.monotonic
        signature = inspect.signature(fn) if counter is not None else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if counter is not None:
                    counter(counters, signature.bind(*args, **kwargs))

        return traced

    def install(self, targets) -> None:
        modules = [
            module for key, module in list(sys.modules.items())
            if key == "fedval" or key.startswith("fedval.")
        ]
        for module_name, attribute, name, counter in targets:
            owner = sys.modules[module_name]
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(owner, class_name)
                original = owner.__dict__[method]
                self._set(owner, method, self._wrap(original, name, counter))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner: Any, key: str, value: Any) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


def summarize(spans: list[list], counters: dict[str, float]) -> dict[str, float]:
    """Per-name call counts, busy time and self time, plus the counters."""
    calls: dict[str, float] = defaultdict(float)
    busy: dict[str, float] = defaultdict(float)
    in_children: list[float] = [0.0] * len(spans)
    by_parent_name: dict[tuple[str, str], float] = defaultdict(float)
    for name, start, end, parent in spans:
        calls[name] += 1
        busy[name] += end - start
        if parent >= 0:
            in_children[parent] += end - start
            by_parent_name[(spans[parent][0], name)] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        self_time[name] += end - start - in_children[index]
    out = dict(counters)
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = busy[name]
        out[f"{name}.self_s"] = self_time[name]
    # Training proper: the federated loop minus the valuation and the
    # snapshot writes it calls.
    training = "engine.run_federated_training"
    out["engine.training.s"] = busy[training] - by_parent_name[
        (training, "engine.value_rounds")
    ] - by_parent_name[(training, "engine.save_round_records")]
    # Distinct utilities: evaluate_utility calls made by the oracle on a
    # cache miss; calls from elsewhere (final accuracies) are not requests.
    requests = calls["engine.oracle"]
    distinct = sum(
        1 for name, _, _, parent in spans
        if name == "engine.evaluate_utility" and parent >= 0
        and spans[parent][0] == "engine.oracle"
    )
    out["engine.oracle.requests"] = requests
    out["engine.oracle.distinct_share"] = distinct / requests if requests else 0.0
    return out
