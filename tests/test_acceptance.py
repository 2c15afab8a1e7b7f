"""Acceptance suite: one test per shipped criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them stream). Tolerances and trial counts are fixed here, not tuned at
runtime; experiment settings are the desk-scale defaults the package
ships in its example configs.
"""

import math
import time

import numpy as np
import pytest
import yaml

from fedval.cli import main
from fedval.config import config_from_dict
from fedval.engine import RoundOracle, value_rounds
from fedval.estimators import (
    ApproxParams,
    group_testing_plan,
    group_testing_round,
    permutation_sample_count,
    permutation_sampling_round,
)
from fedval.experiments import (
    prepare_experiment,
    run_backdoor_detection,
    run_noisy_detection,
    run_summarization,
)
from fedval.models import ModelLayout, loss_and_gradient
from fedval.values import exact_federated_round_shapley

from conftest import (
    exact_shapley_permutation_form,
    random_process,
    random_table_game,
    round_gain,
    stitched_game,
    sum_games,
)

EXACT_TOL = 1e-9


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {number:02d} {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def desk_detection_doc(mode: str, seed: int) -> dict:
    partition = {"mode": mode, "participants": 20}
    if mode == "shards":
        partition["shards_per_participant"] = 2
    return {
        "seed": seed,
        "dataset": {
            "kind": "blobs", "samples": 4000, "features": 10, "classes": 4,
            "separation": 3.0, "validation_samples": 2000,
        },
        "partition": partition,
        "corruption": {"kind": "label_flip", "flip_ratio": 0.25, "affected_count": 6},
        "training": {
            "rounds": 10, "participant_fraction": 0.5, "local_epochs": 2,
            "batch_size": 20, "learning_rate": 1.0, "model": "logistic",
        },
        "valuation": {"method": "exact"},
    }


@pytest.fixture(scope="module")
def permutation_contract():
    """Shared run backing criteria 3 and 6."""
    params = ApproxParams(epsilon=0.05, delta=0.1)
    m = 4
    count = permutation_sample_count(params, m)
    game = random_table_game([range(m)], np.random.default_rng(20240501))
    exact = exact_federated_round_shapley(game, 0)
    span = game.evaluate(0, (1 << m) - 1) - game.evaluate(0, 0)
    start = time.monotonic()
    within = 0
    telescope_violations = 0
    trials = 100
    for trial in range(trials):
        estimate = permutation_sampling_round(game, 0, range(m), count, (811, trial))
        worst = max(abs(estimate.get(p) - exact.get(p)) for p in range(m))
        within += worst <= params.epsilon
        total = sum(estimate.values.values())
        if abs(total - span) > EXACT_TOL:
            telescope_violations += 1
    elapsed = time.monotonic() - start
    return {
        "trials": trials,
        "within": within,
        "telescope_violations": telescope_violations,
        "sample_count": count,
        "elapsed": elapsed,
    }


def test_criterion_01_value_axioms():
    start = time.monotonic()
    rng = np.random.default_rng(112)
    oracles = 0
    worst = 0.0

    # Instantaneous group rationality on random processes.
    for _ in range(40):
        game = random_process(rng)
        oracles += 1
        for t in range(len(game.rounds)):
            values = exact_federated_round_shapley(game, t)
            gain = round_gain(game, t)
            worst = max(worst, abs(sum(values.values.values()) - gain))

    # Interchangeable pair and null participant, two-round processes.
    ids = (0, 1, 2, 3)
    for _ in range(30):
        rest_worth = {
            frozenset(s): float(rng.uniform(0, 1)) for s in ([], [2], [3], [2, 3])
        }
        bonus = [0.0, float(rng.uniform(0, 1)), float(rng.uniform(1, 2))]

        def pair_worth(s):
            return rest_worth[frozenset(s - {0, 1})] + bonus[len(s & {0, 1})]

        game = stitched_game([ids, ids], [pair_worth, pair_worth])
        oracles += 1
        for t in range(2):
            values = exact_federated_round_shapley(game, t)
            worst = max(worst, abs(values.get(0) - values.get(1)))

    for _ in range(30):
        keyed = {
            frozenset(s): float(rng.uniform(0, 1))
            for s in ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])
        }

        def null_worth(s):
            return keyed[frozenset(s - {3})]

        game = stitched_game([ids, ids], [null_worth, null_worth])
        oracles += 1
        for t in range(2):
            values = exact_federated_round_shapley(game, t)
            worst = max(worst, abs(values.get(3)))

    # Additivity of values across summed utilities.
    rounds = [(0, 1, 2), (1, 2, 3)]
    for _ in range(15):
        first = random_table_game(rounds, rng)
        second = random_table_game(rounds, rng)
        combined = sum_games(first, second)
        oracles += 2
        for t, block in enumerate(combined.rounds):
            a = exact_federated_round_shapley(first, t)
            b = exact_federated_round_shapley(second, t)
            c = exact_federated_round_shapley(combined, t)
            worst = max(
                worst,
                max(abs(c.get(p) - a.get(p) - b.get(p)) for p in block),
            )

    elapsed = time.monotonic() - start
    report(
        1,
        oracles >= 100 and worst <= EXACT_TOL and elapsed < 60,
        f"{oracles} synthetic oracles, worst property residual {worst:.2e} "
        f"(cap 1e-09), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_02_form_equivalence():
    rng = np.random.default_rng(113)
    worst = 0.0
    games = 60
    for index in range(games):
        m = 2 + index % 5  # player counts 2..6
        game = random_table_game([range(m)], rng)
        subset_form = exact_federated_round_shapley(game, 0)
        ordering_form = exact_shapley_permutation_form(game)
        worst = max(
            worst,
            max(abs(subset_form.get(p) - ordering_form.get(p)) for p in range(m)),
        )
    report(
        2,
        worst <= EXACT_TOL,
        f"subset and ordering forms agree to {worst:.2e} on {games} games (cap 1e-09)",
    )


def test_criterion_03_permutation_sampling_contract(permutation_contract):
    stats = permutation_contract
    rate = stats["within"] / stats["trials"]
    report(
        3,
        rate >= 0.90 and stats["elapsed"] < 120,
        f"max-coordinate error <= 0.05 in {rate:.0%} of {stats['trials']} trials "
        f"(need 90%), {stats['sample_count']} orderings/trial, "
        f"{stats['elapsed']:.1f}s (budget 120s)",
    )


def test_criterion_04_group_testing_contract():
    start = time.monotonic()
    params = ApproxParams(epsilon=0.1, delta=0.2)
    hand = group_testing_plan(4, params)
    # At m = 4 the variance bound is z * 3/4 = 11/4 and the range bound
    # 11/4 + 1 + 1/4 = 4, so b^2 / sigma2 = 64/11, b * epsilon / sigma2 =
    # 8/55 and 2m / delta = 40.
    h = 63 / 55 * math.log(63 / 55) - 8 / 55
    plan_ok = (
        abs(hand.z - 11 / 3) <= 1e-12
        and np.allclose(hand.subset_size_probs, [4 / 11, 3 / 11, 4 / 11], atol=1e-12)
        and hand.t1 == math.ceil(64 / 11 * math.log(40) / h) == 2_126
    )
    m = 6
    plan = group_testing_plan(m, params)
    game = random_table_game([range(m)], np.random.default_rng(20240502))
    exact = exact_federated_round_shapley(game, 0)
    trials = 200
    within = 0
    for trial in range(trials):
        estimate = group_testing_round(game, 0, plan, (977, trial))
        worst = max(abs(estimate.get(p) - exact.get(p)) for p in range(m))
        within += worst <= params.epsilon
    rate = within / trials
    elapsed = time.monotonic() - start
    report(
        4,
        plan_ok and rate >= 0.80 and elapsed < 300,
        f"hand-checked plan (z=11/3, t1=2126) ok={plan_ok}; error <= 0.1 in "
        f"{rate:.0%} of {trials} trials (need 80%) with t1={plan.t1}; "
        f"{elapsed:.1f}s (budget 300s)",
    )


def test_criterion_05_complexity_crossover():
    params = ApproxParams(epsilon=0.1, delta=0.1)
    totals = {}
    for m in (10, 50, 100, 500):
        plan = group_testing_plan(m, params)
        totals[m] = (m * permutation_sample_count(params, m), plan.t1)
    print("\n".join(
        f"m={m}: orderings total {orderings}, paired tests total {paired}"
        for m, (orderings, paired) in totals.items()
    ))
    orderings, paired = totals[500]
    report(
        5,
        paired < orderings,
        f"at m=500 paired tests need {paired} evaluations "
        f"vs {orderings} for ordering sampling",
    )


def test_criterion_06_telescoping(permutation_contract):
    stats = permutation_contract
    report(
        6,
        stats["telescope_violations"] == 0,
        f"value sums matched the round's utility gain within 1e-09 in all "
        f"{stats['trials']} sampling runs",
    )


def test_criterion_07_gradient_check():
    rng = np.random.default_rng(311)
    layouts = (
        ModelLayout("logistic", 8, 4),
        ModelLayout("mlp", 8, 4, hidden_units=6),
    )
    step = 1e-5
    worst = 0.0
    draws = 0
    for layout in layouts:
        for _ in range(50):
            features = rng.normal(size=(6, layout.n_features))
            labels = rng.integers(0, layout.n_classes, size=6)
            theta = rng.normal(0, 0.8, size=layout.param_count)
            _, grad = loss_and_gradient(layout, theta, features, labels)
            numeric = np.zeros_like(theta)
            for i in range(theta.size):
                bumped = theta.copy()
                bumped[i] += step
                up, _ = loss_and_gradient(layout, bumped, features, labels)
                bumped[i] -= 2 * step
                down, _ = loss_and_gradient(layout, bumped, features, labels)
                numeric[i] = (up - down) / (2 * step)
            scale = np.maximum(np.abs(grad) + np.abs(numeric), 1e-4)
            worst = max(worst, float((np.abs(grad - numeric) / scale).max()))
            draws += 1
    report(
        7,
        draws == 100 and worst <= 1e-4,
        f"analytic vs central-difference gradients: worst relative error "
        f"{worst:.2e} over {draws} draws (cap 1e-04)",
    )


def test_criterion_08_noisy_label_detection():
    start = time.monotonic()
    seeds = [2024 + i for i in range(5)]
    means: dict[str, dict[str, float]] = {}
    for mode in ("iid", "shards"):
        aucs = {"fed_sv": [], "fed_sv_norm": [], "random": []}
        for seed in seeds:
            outcome = run_noisy_detection(config_from_dict(desk_detection_doc(mode, seed)))
            for name in aucs:
                aucs[name].append(outcome.curves[name].auc)
        means[mode] = {name: float(np.mean(vals)) for name, vals in aucs.items()}
    elapsed = time.monotonic() - start
    iid_margin = means["iid"]["fed_sv"] - means["iid"]["random"]
    shard_margin = means["shards"]["fed_sv"] - means["shards"]["random"]
    norm_ok = means["shards"]["fed_sv_norm"] >= means["shards"]["fed_sv"]
    report(
        8,
        iid_margin >= 0.15 and shard_margin >= 0.15 and norm_ok and elapsed < 600,
        f"auc margin over random: iid {iid_margin:+.3f}, non-iid {shard_margin:+.3f} "
        f"(need +0.150); normalized {means['shards']['fed_sv_norm']:.3f} >= raw "
        f"{means['shards']['fed_sv']:.3f} on non-iid: {norm_ok}; "
        f"{elapsed:.0f}s (budget 600s)",
    )


def test_criterion_09_backdoor_detection():
    start = time.monotonic()
    seeds = [2024 + i for i in range(5)]
    aucs = {"fed_sv": [], "random": []}
    attack_rates = []
    for seed in seeds:
        doc = desk_detection_doc("iid", seed)
        doc["corruption"] = {
            "kind": "backdoor", "trigger_indices": [8, 9], "trigger_value": 6.0,
            "target_label": 0, "mix_per_batch": 20, "poison_batch_size": 64,
            "affected_count": 6,  # 30% of the 20 participants
        }
        outcome = run_backdoor_detection(config_from_dict(doc))
        for name in aucs:
            aucs[name].append(outcome.curves[name].auc)
        attack_rates.append(outcome.attack_success_rate)
    margin = float(np.mean(aucs["fed_sv"])) - float(np.mean(aucs["random"]))
    elapsed = time.monotonic() - start
    report(
        9,
        margin >= 0.10 and elapsed < 900,
        f"auc margin over random {margin:+.3f} (need +0.100); attack success rate "
        f"of the final model {float(np.mean(attack_rates)):.3f} (reported); "
        f"{elapsed:.0f}s (budget 900s)",
    )


def test_criterion_10_summarization():
    start = time.monotonic()
    seeds = [1000 + i for i in range(5)]
    fractions = tuple(round(0.1 * i, 1) for i in range(10))
    doc = {
        "seed": 0,
        "dataset": {
            "kind": "blobs", "samples": 2000, "features": 10, "classes": 4,
            "separation": 2.5, "validation_samples": 1000,
        },
        "partition": {"mode": "iid", "participants": 20},
        "corruption": {"kind": "label_flip", "flip_ratio": 0.5, "affected_count": 8},
        "training": {
            "rounds": 10, "participant_fraction": 0.5, "local_epochs": 2,
            "batch_size": 20, "learning_rate": 1.0, "model": "logistic",
        },
        "valuation": {"method": "exact"},
        "experiment": {"dismiss_fractions": list(fractions)},
    }
    sv_rows, random_rows = [], []
    anchored = True
    for seed in seeds:
        doc["seed"] = seed
        result = run_summarization(config_from_dict(doc))
        anchored &= result.accuracy["fed_sv"][0] == result.baseline_accuracy
        anchored &= result.accuracy["random"][0] == result.baseline_accuracy
        sv_rows.append(result.accuracy["fed_sv"])
        random_rows.append(result.accuracy["random"])
    sv_mean = np.mean(sv_rows, axis=0)
    random_mean = np.mean(random_rows, axis=0)
    small_q = [i for i, q in enumerate(fractions) if q <= 0.3]
    ordered = all(sv_mean[i] >= random_mean[i] for i in small_q)
    elapsed = time.monotonic() - start
    report(
        10,
        anchored and ordered,
        f"zero dismissal reproduced baseline exactly on all {len(seeds)} seeds: "
        f"{anchored}; value-guided >= random for q<=0.3 (margins "
        f"{[round(float(sv_mean[i] - random_mean[i]), 4) for i in small_q]}); "
        f"{elapsed:.0f}s",
    )


def test_criterion_11_round_norm_decay():
    start = time.monotonic()
    doc = {
        "seed": 0,
        "dataset": {
            "kind": "blobs", "samples": 2000, "features": 10, "classes": 4,
            "separation": 3.0, "validation_samples": 1000,
        },
        "partition": {"mode": "iid", "participants": 20},
        "training": {
            "rounds": 12, "participant_fraction": 0.5, "local_epochs": 2,
            "batch_size": 20, "learning_rate": 1.0, "lr_decay": 0.85,
            "model": "logistic",
        },
        "valuation": {"method": "exact"},
    }
    decayed = 0
    seeds = [500 + i for i in range(5)]
    for seed in seeds:
        doc["seed"] = seed
        cfg = config_from_dict(doc)
        prepared = prepare_experiment(cfg)
        records = prepared.train_once()
        oracle = RoundOracle(
            prepared.training.layout, records, prepared.validation.features, prepared.validation.labels
        )
        norms = value_rounds(oracle, "exact", seed=cfg.seed).round_value_norms
        quarter = len(norms) // 4
        decayed += float(np.mean(norms[-quarter:])) < float(np.mean(norms[:quarter]))
    elapsed = time.monotonic() - start
    report(
        11,
        decayed >= 4,
        f"late-round value norms below early-round norms on {decayed}/5 seeds "
        f"(need 4); {elapsed:.0f}s",
    )


def test_criterion_12_determinism(tmp_path):
    start = time.monotonic()
    doc = {
        "seed": 7,
        "dataset": {
            "kind": "blobs", "samples": 400, "features": 5, "classes": 3,
            "separation": 3.0, "validation_samples": 200,
        },
        "partition": {"mode": "iid", "participants": 8},
        "corruption": {"kind": "label_flip", "flip_ratio": 0.5, "affected_count": 2},
        "training": {
            "rounds": 3, "participant_fraction": 0.5, "local_epochs": 1,
            "batch_size": 10, "learning_rate": 0.8, "model": "logistic",
        },
        "valuation": {
            "method": "permutation",
            "approx": {"epsilon": 0.2, "delta": 0.2},
        },
        "experiment": {"dismiss_fractions": [0.0, 0.3], "random_repeats": 2},
    }
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(doc))
    tables = {
        "train-and-value": ["values.csv"],
        "noisy-detect": ["detection_curves.csv", "detection_auc.csv"],
        "summarize": ["summarization.csv"],
    }
    identical = True
    compared = 0
    for command, files in tables.items():
        outputs = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{command}-{attempt}"
            rc = main([command, "--config", str(config_path), "--out", str(out)])
            assert rc == 0
            outputs.append(out)
        for name in files:
            compared += 1
            identical &= (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    elapsed = time.monotonic() - start
    report(
        12,
        identical,
        f"re-running each command produced byte-identical result tables "
        f"({compared} tables compared); {elapsed:.0f}s",
    )
