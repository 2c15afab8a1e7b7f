"""The config schema: one bad document per rule, and round trips.

Each rejection names the offending key by its path into the document
(the section's path for unknown and missing keys), so a user can find
the line to fix.
"""

import copy
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fedval.config import (
    ConfigError,
    TrainingConfig,
    config_from_dict,
    config_to_dict,
    parse_config,
)
from fedval.models import ModelLayout

DROP = object()

IDX = {
    "kind": "idx", "images": "train.idx", "labels": "train-labels.idx",
    "validation_samples": 100,
}
BACKDOOR = {
    "kind": "backdoor", "trigger_indices": [0, 1], "trigger_value": 5.0,
    "target_label": 0, "affected_count": 2,
}
MLP = [("training.model", "mlp"), ("training.hidden_units", 4), ("training.init_scale", 0.1)]
APPROX = {"approx": {"epsilon": 0.2, "delta": 0.2}}


def valid_doc():
    return {
        "seed": 3,
        "dataset": {
            "kind": "blobs", "samples": 200, "features": 4, "classes": 3,
            "separation": 3.0, "validation_samples": 100,
        },
        "partition": {"mode": "iid", "participants": 6},
        "corruption": {"kind": "label_flip", "flip_ratio": 0.3, "affected_count": 2},
        "training": {
            "rounds": 2, "participant_fraction": 0.5, "local_epochs": 1,
            "batch_size": 10, "learning_rate": 0.8, "model": "logistic",
        },
        "valuation": {"method": "exact"},
        "experiment": {"dismiss_fractions": [0.0, 0.5], "random_repeats": 2},
    }


def edited(*edits):
    """``valid_doc`` with each (dotted path, value) set; DROP deletes the key."""
    doc = valid_doc()
    for dotted, value in edits:
        *parents, key = dotted.split(".")
        node = doc
        for name in parents:
            node = node.setdefault(name, {})
        if value is DROP:
            del node[key]
        elif isinstance(value, dict):
            node[key] = {k: copy.deepcopy(v) for k, v in value.items() if v is not DROP}
        else:
            node[key] = copy.deepcopy(value)
    return doc


# The bounds and rules of the training section; the resolved
# ``TrainingConfig`` inherits every one of them.
TRAINING_RULES = [
    ("rounds-min", [("training.rounds", 0)], "config.training.rounds:"),
    ("fraction-exclusive", [("training.participant_fraction", 0.0)],
     "config.training.participant_fraction:"),
    ("fraction-max", [("training.participant_fraction", 1.2)],
     "config.training.participant_fraction:"),
    ("local-epochs-min", [("training.local_epochs", 0)], "config.training.local_epochs:"),
    ("batch-size-min", [("training.batch_size", 0)], "config.training.batch_size:"),
    ("learning-rate-exclusive", [("training.learning_rate", 0.0)],
     "config.training.learning_rate:"),
    ("lr-decay-exclusive", [("training.lr_decay", 0.0)], "config.training.lr_decay:"),
    ("lr-decay-max", [("training.lr_decay", 1.5)], "config.training.lr_decay:"),
    ("model-choice", [("training.model", "cnn")], "config.training.model:"),
    ("hidden-units-min", [("training.hidden_units", -1)], "config.training.hidden_units:"),
    ("init-scale-min", [("training.init_scale", -0.1)], "config.training.init_scale:"),
    ("logistic-hidden-units", [("training.hidden_units", 4)],
     "config.training.hidden_units:"),
    ("mlp-hidden-units", [*MLP, ("training.hidden_units", 0)],
     "config.training.hidden_units:"),
    ("mlp-init-scale", [*MLP, ("training.init_scale", 0.0)],
     "config.training.init_scale:"),
]

# (case id, edits, expected start of the message)
REJECTIONS = [
    # document and top level
    ("not-a-mapping", [], "config: expected a mapping"),
    ("unknown-top", [("threads", 2)], "config: unknown keys ['threads']"),
    ("missing-seed", [("seed", DROP)], "config: missing required key 'seed'"),
    ("missing-training", [("training", DROP)], "config: missing required key 'training'"),
    ("seed-negative", [("seed", -1)], "config.seed:"),
    ("seed-bool", [("seed", True)], "config.seed:"),
    ("seed-string", [("seed", "3")], "config.seed:"),
    ("seed-float", [("seed", 3.0)], "config.seed:"),
    ("output-dir-type", [("output_dir", 3)], "config.output_dir:"),
    ("section-not-mapping", [("partition", ["iid"])], "config.partition:"),
    # dataset: blobs
    ("dataset-kind-missing", [("dataset.kind", DROP)],
     "config.dataset: missing required key 'kind'"),
    ("dataset-kind-choice", [("dataset.kind", "csv")], "config.dataset.kind:"),
    ("dataset-kind-type", [("dataset.kind", 1)], "config.dataset.kind:"),
    ("blobs-unknown", [("dataset.images", "x.idx")], "config.dataset: unknown keys ['images']"),
    ("blobs-missing", [("dataset.samples", DROP)],
     "config.dataset: missing required key 'samples'"),
    ("samples-min", [("dataset.samples", 0)], "config.dataset.samples:"),
    ("samples-bool", [("dataset.samples", True)], "config.dataset.samples:"),
    ("features-min", [("dataset.features", 0)], "config.dataset.features:"),
    ("classes-min", [("dataset.classes", 1)], "config.dataset.classes:"),
    ("separation-exclusive", [("dataset.separation", 0.0)], "config.dataset.separation:"),
    ("separation-type", [("dataset.separation", "wide")], "config.dataset.separation:"),
    ("separation-bool", [("dataset.separation", True)], "config.dataset.separation:"),
    ("blobs-validation-min", [("dataset.validation_samples", 0)],
     "config.dataset.validation_samples:"),
    # dataset: idx
    ("idx-missing", [("dataset", {**IDX, "images": DROP})],
     "config.dataset: missing required key 'images'"),
    ("idx-images-type", [("dataset", {**IDX, "images": 3})], "config.dataset.images:"),
    ("idx-limit-min", [("dataset", {**IDX, "limit": 0})], "config.dataset.limit:"),
    ("idx-class-count-min", [("dataset", {**IDX, "class_count": 1})],
     "config.dataset.class_count:"),
    ("idx-validation-min", [("dataset", {**IDX, "validation_samples": 0})],
     "config.dataset.validation_samples:"),
    ("idx-unknown", [("dataset", {**IDX, "samples": 10})],
     "config.dataset: unknown keys ['samples']"),
    ("idx-validation-pair", [("dataset", {**IDX, "validation_images": "v.idx"})],
     "config.dataset.validation_labels:"),
    ("idx-no-validation", [("dataset", {**IDX, "validation_samples": DROP})],
     "config.dataset.validation_samples:"),
    # partition
    ("partition-mode", [("partition.mode", "random")], "config.partition.mode:"),
    ("participants-min", [("partition.participants", 0)], "config.partition.participants:"),
    ("participants-exceed-samples", [("partition.participants", 500)],
     "config.partition.participants:"),
    ("shards-per-participant-min",
     [("partition.mode", "shards"), ("partition.shards_per_participant", 0)],
     "config.partition.shards_per_participant:"),
    ("shards-needs-count", [("partition.mode", "shards")],
     "config.partition.shards_per_participant:"),
    ("iid-refuses-count", [("partition.shards_per_participant", 2)],
     "config.partition.shards_per_participant:"),
    # corruption
    ("corruption-kind-missing", [("corruption.kind", DROP)],
     "config.corruption: missing required key 'kind'"),
    ("corruption-kind-choice", [("corruption.kind", "noise")], "config.corruption.kind:"),
    ("flip-ratio-exclusive", [("corruption.flip_ratio", 0.0)], "config.corruption.flip_ratio:"),
    ("flip-ratio-max", [("corruption.flip_ratio", 1.5)], "config.corruption.flip_ratio:"),
    ("flip-unknown", [("corruption.target_label", 0)],
     "config.corruption: unknown keys ['target_label']"),
    ("affected-both", [("corruption.affected", [1])],
     "config.corruption: exactly one of affected / affected_count is required"),
    ("affected-neither", [("corruption.affected_count", DROP)],
     "config.corruption: exactly one of affected / affected_count is required"),
    ("affected-count-min", [("corruption.affected_count", 0)],
     "config.corruption.affected_count:"),
    ("affected-type",
     [("corruption.affected_count", DROP), ("corruption.affected", "1,2")],
     "config.corruption.affected:"),
    ("affected-item-bool",
     [("corruption.affected_count", DROP), ("corruption.affected", [1, True])],
     "config.corruption.affected[1]:"),
    ("affected-outside-partition",
     [("corruption.affected_count", DROP), ("corruption.affected", [1, 6])],
     "config.corruption.affected[1]:"),
    ("affected-negative",
     [("corruption.affected_count", DROP), ("corruption.affected", [-1])],
     "config.corruption.affected[0]:"),
    ("affected-empty",
     [("corruption.affected_count", DROP), ("corruption.affected", [])],
     "config.corruption.affected: must name at least one participant"),
    ("affected-repeated",
     [("corruption.affected_count", DROP), ("corruption.affected", [3, 3, 5])],
     "config.corruption.affected[1]: repeats participant 3"),
    ("affected-count-exceeds-participants", [("corruption.affected_count", 7)],
     "config.corruption.affected_count:"),
    ("backdoor-missing", [("corruption", {**BACKDOOR, "trigger_indices": DROP})],
     "config.corruption: missing required key 'trigger_indices'"),
    ("backdoor-unknown", [("corruption", {**BACKDOOR, "flip_ratio": 0.2})],
     "config.corruption: unknown keys ['flip_ratio']"),
    ("trigger-value-type", [("corruption", {**BACKDOOR, "trigger_value": "high"})],
     "config.corruption.trigger_value:"),
    ("trigger-item-type", [("corruption", {**BACKDOOR, "trigger_indices": [0, 1.5]})],
     "config.corruption.trigger_indices[1]:"),
    ("trigger-item-min", [("corruption", {**BACKDOOR, "trigger_indices": [0, -1]})],
     "config.corruption.trigger_indices[1]:"),
    ("trigger-item-beyond-features", [("corruption", {**BACKDOOR, "trigger_indices": [1, 4]})],
     "config.corruption.trigger_indices[1]:"),
    ("target-label-min", [("corruption", {**BACKDOOR, "target_label": -1})],
     "config.corruption.target_label:"),
    ("target-label-beyond-classes", [("corruption", {**BACKDOOR, "target_label": 3})],
     "config.corruption.target_label:"),
    ("mix-min", [("corruption", {**BACKDOOR, "mix_per_batch": 0})],
     "config.corruption.mix_per_batch:"),
    ("poison-batch-min", [("corruption", {**BACKDOOR, "poison_batch_size": 0})],
     "config.corruption.poison_batch_size:"),
    ("mix-exceeds-poison-batch", [("corruption", {**BACKDOOR, "mix_per_batch": 80})],
     "config.corruption.mix_per_batch:"),
    # training
    ("training-unknown", [("training.momentum", 0.9)],
     "config.training: unknown keys ['momentum']"),
    ("training-missing", [("training.rounds", DROP)],
     "config.training: missing required key 'rounds'"),
    ("rounds-bool", [("training.rounds", True)], "config.training.rounds:"),
    *TRAINING_RULES,
    # valuation
    ("valuation-unknown", [("valuation.metric", "accuracy")],
     "config.valuation: unknown keys ['metric']"),
    ("method-choice", [("valuation.method", "shapley")], "config.valuation.method:"),
    ("method-random", [("valuation.method", "random")], "config.valuation.method:"),
    ("normalized-type", [("valuation.normalized", 1)], "config.valuation.normalized:"),
    ("estimator-needs-approx", [("valuation.method", "group_testing")],
     "config.valuation.approx:"),
    ("approx-not-mapping", [("valuation.approx", 0.1)], "config.valuation.approx:"),
    ("approx-unknown", [("valuation", APPROX), ("valuation.approx.samples", 5)],
     "config.valuation.approx: unknown keys ['samples']"),
    ("approx-missing", [("valuation", APPROX), ("valuation.approx.delta", DROP)],
     "config.valuation.approx: missing required key 'delta'"),
    ("epsilon-type", [("valuation", APPROX), ("valuation.approx.epsilon", "small")],
     "config.valuation.approx.epsilon:"),
    ("epsilon-bound", [("valuation", APPROX), ("valuation.approx.epsilon", 0.0)],
     "config.valuation.approx.epsilon:"),
    ("delta-bound", [("valuation", APPROX), ("valuation.approx.delta", 1.0)],
     "config.valuation.approx.delta:"),
    # The utility range is 1 and the budget split is fixed, so these keys
    # are refused whatever their value, even the one the code uses.
    ("range-bound-bound", [("valuation", APPROX), ("valuation.approx.range_bound", 1.0)],
     "config.valuation.approx: unknown keys ['range_bound']"),
    ("c-eps-bound", [("valuation", APPROX), ("valuation.approx.c_eps", 2.0)],
     "config.valuation.approx: unknown keys ['c_eps']"),
    ("c-delta-bound", [("valuation", APPROX), ("valuation.approx.c_delta", 2.0)],
     "config.valuation.approx: unknown keys ['c_delta']"),
    # experiment
    ("experiment-unknown", [("experiment.repeats", 2)],
     "config.experiment: unknown keys ['repeats']"),
    ("dismiss-type", [("experiment.dismiss_fractions", 0.5)],
     "config.experiment.dismiss_fractions:"),
    ("dismiss-empty", [("experiment.dismiss_fractions", [])],
     "config.experiment.dismiss_fractions:"),
    ("dismiss-item-max", [("experiment.dismiss_fractions", [0.0, 0.95])],
     "config.experiment.dismiss_fractions[1]:"),
    ("dismiss-item-min", [("experiment.dismiss_fractions", [-0.1])],
     "config.experiment.dismiss_fractions[0]:"),
    ("random-repeats-min", [("experiment.random_repeats", 0)],
     "config.experiment.random_repeats:"),
]


@pytest.mark.parametrize(
    "edits, expected", [row[1:] for row in REJECTIONS], ids=[row[0] for row in REJECTIONS]
)
def test_each_rule_is_refused_with_the_key_path(edits, expected):
    doc = edited(*edits) if edits else ["not", "a", "mapping"]
    with pytest.raises(ConfigError) as caught:
        config_from_dict(doc)
    message = str(caught.value)
    assert message.startswith(expected), message


def resolved_training(*edits, **keys):
    """``valid_doc``'s training section, edited, resolved against a 4-feature,
    3-class dataset and seed 3 unless ``keys`` say otherwise."""
    return TrainingConfig(
        **{**edited(*edits)["training"], "n_features": 4, "n_classes": 3, "seed": 3, **keys}
    )


# (case id, edits, keys the resolution adds, expected start of the message)
RESOLVED_TRAINING_RULES = [
    (name, edits, {}, expected.removeprefix("config.training."))
    for name, edits, expected in TRAINING_RULES
] + [
    ("n-features-min", [], {"n_features": 0}, "n_features:"),
    ("n-classes-min", [], {"n_classes": 1}, "n_classes:"),
    ("seed-negative", [], {"seed": -1}, "seed:"),
]


@pytest.mark.parametrize(
    "edits, keys, expected",
    [row[1:] for row in RESOLVED_TRAINING_RULES],
    ids=[row[0] for row in RESOLVED_TRAINING_RULES],
)
def test_resolved_training_refuses_each_rule(edits, keys, expected):
    with pytest.raises(ValueError) as caught:
        resolved_training(*edits, **keys)
    message = str(caught.value)
    assert message.startswith(expected), message


def test_resolved_training_builds_its_layout_once():
    cfg = resolved_training(*MLP)
    assert cfg.layout is cfg.layout
    assert cfg.layout == ModelLayout("mlp", 4, 3, hidden_units=4)


def test_null_means_absent_for_keys_that_default_to_none():
    nulls = {"validation_images": None, "validation_labels": None, "limit": None}
    spelled_out = edited(("dataset", {**IDX, **nulls}), ("corruption", None), ("output_dir", None))
    left_out = edited(("dataset", IDX), ("corruption", DROP))
    assert config_from_dict(spelled_out) == config_from_dict(left_out)


def fixed(required, optional=None):
    return st.fixed_dictionaries(required, optional=optional or {})


def unit(low=0.01, high=1.0):
    return st.floats(low, high, allow_nan=False)


NAME = st.text("abcxyz/._-", min_size=1, max_size=12)
COUNT = st.integers(1, 50)


def affected(participants):
    """Affected ids or a count that the partition's ids 0..participants-1 admit."""
    return st.one_of(
        fixed({"affected": st.lists(
            st.integers(0, participants - 1), min_size=1, max_size=5, unique=True
        )}),
        fixed({"affected_count": st.integers(1, min(10, participants))}),
    )


APPROX_DOC = fixed({"epsilon": unit(), "delta": unit(0.01, 0.99)})


def with_affected(body, participants):
    return st.tuples(body, affected(participants)).map(lambda parts: {**parts[0], **parts[1]})


DATASETS = st.one_of(
    fixed({
        "kind": st.just("blobs"), "samples": st.integers(50, 500),
        "features": st.integers(1, 20), "classes": st.integers(2, 10),
        # An int is accepted where a number is expected.
        "separation": st.one_of(unit(0.1, 10.0), st.integers(1, 5)),
        "validation_samples": st.integers(1, 500),
    }),
    st.tuples(
        fixed(
            {"kind": st.just("idx"), "images": NAME, "labels": NAME},
            {"limit": COUNT, "class_count": st.integers(2, 10)},
        ),
        st.one_of(
            fixed({"validation_images": NAME, "validation_labels": NAME},
                  {"validation_samples": COUNT}),
            fixed({"validation_samples": COUNT}),
        ),
    ).map(lambda parts: {**parts[0], **parts[1]}),
)
PARTITIONS = st.one_of(
    fixed({"mode": st.just("iid"), "participants": COUNT}),
    fixed({
        "mode": st.just("shards"), "participants": COUNT,
        "shards_per_participant": st.integers(1, 5),
    }),
)


def corruptions(participants, dataset):
    """Corruptions of the partition's ids; a backdoor on blobs stays within
    the dataset's features and classes (idx counts are known only at load)."""
    blobs = dataset["kind"] == "blobs"
    features = dataset["features"] if blobs else 10
    classes = dataset["classes"] if blobs else 10
    return st.one_of(
        with_affected(fixed({"kind": st.just("label_flip"), "flip_ratio": unit()}), participants),
        with_affected(fixed(
            {
                "kind": st.just("backdoor"),
                "trigger_indices": st.lists(st.integers(0, features - 1)),
                "trigger_value": st.floats(-10, 10),
                "target_label": st.integers(0, classes - 1),
            },
            {"mix_per_batch": st.integers(1, 20), "poison_batch_size": st.integers(20, 100)},
        ), participants),
    )


TRAINING_COMMON = {
    "rounds": st.integers(1, 20), "participant_fraction": unit(),
    "local_epochs": st.integers(1, 5), "batch_size": st.integers(1, 64),
    "learning_rate": unit(0.001, 5.0),
}
TRAINING = st.one_of(
    fixed(
        {**TRAINING_COMMON, "model": st.just("logistic")},
        {"lr_decay": unit(), "hidden_units": st.just(0), "init_scale": unit(0.0, 1.0)},
    ),
    fixed(
        {**TRAINING_COMMON, "model": st.just("mlp"), "hidden_units": st.integers(1, 32),
         "init_scale": unit()},
        {"lr_decay": unit()},
    ),
)
VALUATIONS = st.one_of(
    fixed(
        {},
        {"method": st.sampled_from(["exact", "loo"]),
         "normalized": st.booleans(), "approx": APPROX_DOC},
    ),
    fixed(
        {"method": st.sampled_from(["permutation", "group_testing"]), "approx": APPROX_DOC},
        {"normalized": st.booleans()},
    ),
)
DOCUMENTS = st.tuples(PARTITIONS, DATASETS).flatmap(lambda parts: fixed(
    {"seed": st.integers(0, 2**32), "dataset": st.just(parts[1]),
     "partition": st.just(parts[0]), "training": TRAINING},
    {
        "valuation": VALUATIONS,
        "corruption": corruptions(parts[0]["participants"], parts[1]),
        "output_dir": NAME,
        "experiment": fixed({}, {
            "dismiss_fractions": st.lists(unit(0.0, 0.9), min_size=1, max_size=10),
            "random_repeats": st.integers(1, 5),
        }),
    },
))


def assert_resolves(given_doc, resolved):
    """Every key the document sets keeps its value in the resolved document."""
    for key, value in given_doc.items():
        if isinstance(value, dict):
            assert_resolves(value, resolved[key])
        else:
            assert resolved[key] == value, key


def assert_round_trips(doc):
    cfg = config_from_dict(doc)
    resolved = config_to_dict(cfg)
    assert_resolves(doc, resolved)
    assert config_from_dict(resolved) == cfg
    assert config_to_dict(config_from_dict(resolved)) == resolved


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_generated_documents_round_trip(doc):
    assert_round_trips(doc)


SHIPPED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


@pytest.mark.parametrize("path", SHIPPED, ids=[path.name for path in SHIPPED])
def test_shipped_configs_round_trip(path):
    doc = yaml.safe_load(path.read_text())
    assert parse_config(path) == config_from_dict(doc, source=str(path))
    assert_round_trips(doc)
