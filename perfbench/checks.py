"""Output checks that share no code with fedval.

The validation set is regenerated from the config by the documented
recipe (named seed substreams, Gaussian blobs with round-robin labels),
``.fvr`` snapshots are parsed by their documented layout, and accuracy
is recomputed with this module's own numpy forward pass. Every check
returns a list of problems; an empty list is a pass.

Argmax ties: a recomputed accuracy may legitimately differ from the
program's on samples whose two best logits are equal to within rounding,
so where a tolerance "covers ties" it is the number of such samples over
the validation size.
"""

from __future__ import annotations

import json
import math
import zlib
from pathlib import Path

import numpy as np

SNAPSHOT_MAGIC = b"FEDVALRND1\n"
SUM_TOL = 1e-9
TIE_GAP = 1e-9

Problems = list[str]


def substream(seed: int, *path: int | str) -> np.random.Generator:
    key = tuple(zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else p for p in path)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def validation_set(config: dict) -> tuple[np.ndarray, np.ndarray]:
    """Blobs: class centres at random unit directions times the separation,
    labels round-robin, one draw split into training then validation."""
    spec = config["dataset"]
    n = spec["samples"] + spec["validation_samples"]
    classes, features = spec["classes"], spec["features"]
    rng = substream(config["seed"], "data")
    directions = rng.normal(size=(classes, features))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    labels = np.arange(n) % classes
    points = spec["separation"] * directions[labels] + rng.normal(size=(n, features))
    return points[spec["samples"]:], labels[spec["samples"]:]


def read_fvr(path: Path) -> dict:
    """Magic line, one JSON header line, then three .npy arrays: the
    incoming model, the updates stacked in ``selected`` order, and the
    outgoing average."""
    with open(path, "rb") as fh:
        if fh.read(len(SNAPSHOT_MAGIC)) != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: bad magic")
        header = json.loads(fh.readline())
        before = np.lib.format.read_array(fh, allow_pickle=False)
        updates = np.lib.format.read_array(fh, allow_pickle=False)
        after = np.lib.format.read_array(fh, allow_pickle=False)
    return {**header, "before": before, "updates": updates, "after": after}


def read_rounds(directory: Path) -> list[dict]:
    return [read_fvr(path) for path in sorted(Path(directory).glob("round_*.fvr"))]


def logits(layout: dict, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    d, c, h = layout["n_features"], layout["n_classes"], layout["hidden_units"]
    if layout["arch"] == "logistic":
        return x @ theta[: d * c].reshape(d, c) + theta[d * c:]
    w1 = theta[: d * h].reshape(d, h)
    b1 = theta[d * h: d * h + h]
    w2 = theta[d * h + h: d * h + h + h * c].reshape(h, c)
    b2 = theta[d * h + h + h * c:]
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


class Utility:
    """Validation accuracy with a count of near-tied samples."""

    def __init__(self, layout: dict, x: np.ndarray, y: np.ndarray) -> None:
        self.layout, self.x, self.y = layout, x, y
        self.n = len(y)

    def __call__(self, theta: np.ndarray) -> tuple[float, int]:
        scores = logits(self.layout, theta, self.x)
        top2 = np.sort(scores, axis=1)[:, -2:]
        ties = int(np.sum(top2[:, 1] - top2[:, 0] <= TIE_GAP * (1.0 + np.abs(top2[:, 1]))))
        return float(np.mean(scores.argmax(axis=1) == self.y)), ties

    def of_subset(self, record: dict, members: list[int]) -> tuple[float, int]:
        if not members:
            return self(record["before"])
        return self(record["updates"][members].mean(axis=0))


def read_values(path: Path) -> dict:
    """values.csv: initial record, one record per (round, participant),
    one total per participant."""
    lines = Path(path).read_text().splitlines()
    if lines[0] != "kind,round,participant,value,utility_delta,round_norm":
        raise ValueError(f"{path}: unexpected header")
    out: dict = {"initial": None, "rounds": {}, "deltas": {}, "totals": {}}
    for line in lines[1:]:
        kind, t, pid, value, delta, _ = line.split(",")
        if kind == "initial":
            out["initial"] = float(value)
        elif kind == "round":
            out["rounds"].setdefault(int(t), {})[int(pid)] = float(value)
            out["deltas"][int(t)] = float(delta)
        elif kind == "total":
            out["totals"][int(pid)] = float(value)
        else:
            raise ValueError(f"{path}: unknown record kind {kind!r}")
    return out


def _manifest_ok(*directories: Path) -> Problems:
    problems = []
    for directory in directories:
        manifest = json.loads((Path(directory) / "manifest.json").read_text())
        if manifest.get("status") != "ok":
            problems.append(f"{directory}: manifest status {manifest.get('status')!r}")
    return problems


def _rounds_match(records: list[dict], values: dict) -> Problems:
    problems = []
    if sorted(values["rounds"]) != list(range(len(records))):
        problems.append(f"value rounds {sorted(values['rounds'])} vs {len(records)} snapshots")
        return problems
    for t, record in enumerate(records):
        if record["round_index"] != t:
            problems.append(f"snapshot {t} has round_index {record['round_index']}")
        if sorted(values["rounds"][t]) != list(record["selected"]):
            problems.append(f"round {t}: valued participants differ from snapshot")
        if t and not np.array_equal(records[t - 1]["after"], record["before"]):
            problems.append(f"round {t}: incoming model is not round {t - 1}'s outcome")
    return problems


def _utilities(records: list[dict], values: dict, utility: Utility) -> Problems:
    """The initial utility and each round's utility delta, recomputed."""
    problems = []
    tol = 1.0 / utility.n + 1e-12
    initial, _ = utility(records[0]["before"])
    if abs(values["initial"] - initial) > tol:
        problems.append(f"initial utility {values['initial']} vs recomputed {initial}")
    for t, record in enumerate(records):
        after, _ = utility(record["after"])
        before, _ = utility(record["before"])
        if abs(values["deltas"][t] - (after - before)) > tol:
            problems.append(
                f"round {t}: utility_delta {values['deltas'][t]} vs recomputed {after - before}"
            )
    return problems


def _efficiency(values: dict) -> Problems:
    """Per-round values sum to the round's utility delta."""
    return [
        f"round {t}: values sum to {math.fsum(vector.values())}, delta {values['deltas'][t]}"
        for t, vector in values["rounds"].items()
        if abs(math.fsum(vector.values()) - values["deltas"][t]) > SUM_TOL
    ]


def _telescoping(records: list[dict], values: dict, utility: Utility) -> Problems:
    """Totals are per-participant sums of round values, and together they
    span the final minus the initial utility."""
    problems = []
    for pid, total in values["totals"].items():
        summed = math.fsum(v.get(pid, 0.0) for v in values["rounds"].values())
        if abs(total - summed) > SUM_TOL:
            problems.append(f"participant {pid}: total {total} vs round sum {summed}")
    final, _ = utility(records[-1]["after"])
    span = final - values["initial"]
    grand = math.fsum(values["totals"].values())
    if abs(grand - span) > 1.0 / utility.n + SUM_TOL:
        problems.append(f"totals sum to {grand}, final minus initial is {span}")
    return problems


def _loo(records: list[dict], loo: dict, utility: Utility) -> Problems:
    problems = []
    for t, record in enumerate(records):
        everyone = list(range(len(record["selected"])))
        full, full_ties = utility.of_subset(record, everyone)
        for b, pid in enumerate(record["selected"]):
            rest, rest_ties = utility.of_subset(record, everyone[:b] + everyone[b + 1:])
            tol = (full_ties + rest_ties) / utility.n + 1e-12
            if abs(loo["rounds"][t][pid] - (full - rest)) > tol:
                problems.append(
                    f"round {t}, participant {pid}: LOO {loo['rounds'][t][pid]} "
                    f"vs recomputed {full - rest}"
                )
    return problems


def _shapley(record: dict, reported: dict[int, float], utility: Utility) -> Problems:
    """Exact Shapley values of one round by enumerating all 2^m subsets."""
    m = len(record["selected"])
    u = np.empty(1 << m)
    worst_ties = 0
    for mask in range(1 << m):
        u[mask], ties = utility.of_subset(record, [b for b in range(m) if mask >> b & 1])
        worst_ties = max(worst_ties, ties)
    tol = 2.0 * worst_ties / utility.n + SUM_TOL
    problems = []
    for b, pid in enumerate(record["selected"]):
        phi = 0.0
        for mask in range(1 << m):
            if mask >> b & 1:
                continue
            size = bin(mask).count("1")
            weight = math.factorial(size) * math.factorial(m - size - 1) / math.factorial(m)
            phi += weight * (u[mask | 1 << b] - u[mask])
        if abs(reported[pid] - phi) > tol:
            problems.append(
                f"round {record['round_index']}, participant {pid}: exact value "
                f"{reported[pid]} vs enumerated {phi} (tolerance {tol})"
            )
    return problems


def check_wide_exact(config: dict, out: dict[str, Path]) -> dict[str, Problems]:
    records = read_rounds(out["a"] / "rounds")
    layout = records[0]["layout"]
    utility = Utility(layout, *validation_set(config))
    exact = read_values(out["a"] / "values.csv")
    loo = read_values(out["b"] / "values.csv")
    seeded_round = config["seed"] % len(records)
    return {
        "manifests": _manifest_ok(out["a"], out["b"]),
        "snapshots": _rounds_match(records, exact) + _rounds_match(records, loo),
        "utilities": _utilities(records, exact, utility) + _utilities(records, loo, utility),
        "efficiency": _efficiency(exact),
        "telescoping": _telescoping(records, exact, utility),
        "loo": _loo(records, loo, utility),
        "shapley": _shapley(records[seeded_round], exact["rounds"][seeded_round], utility),
    }


def check_summarize(config: dict, out: dict[str, Path]) -> dict[str, Problems]:
    manifest = json.loads((out["a"] / "manifest.json").read_text())
    baseline = manifest["details"]["baseline_accuracy"]
    fractions = config["experiment"]["dismiss_fractions"]
    repeats = config["experiment"]["random_repeats"]
    n = config["dataset"]["validation_samples"]
    lines = (out["a"] / "summarization.csv").read_text().splitlines()
    rows: dict[str, list[tuple[float, float]]] = {}
    problems: dict[str, Problems] = {"manifests": _manifest_ok(out["a"]), "rows": []}
    if lines[0] != "method,dismiss_fraction,accuracy":
        problems["rows"].append("unexpected header")
    for line in lines[1:]:
        method, fraction, accuracy = line.split(",")
        rows.setdefault(method, []).append((float(fraction), float(accuracy)))
    if sorted(rows) != ["fed_loo", "fed_sv", "random"]:
        problems["rows"].append(f"methods {sorted(rows)}")
    for method, series in rows.items():
        if [f for f, _ in series] != fractions:
            problems["rows"].append(f"{method}: fractions {[f for f, _ in series]}")
    # The random baseline averages `repeats` accuracies, so its grid is finer.
    grid = []
    for method, series in rows.items():
        steps = n * (repeats if method == "random" else 1)
        for fraction, accuracy in series:
            scaled = accuracy * steps
            if not 0.0 <= accuracy <= 1.0 or abs(scaled - round(scaled)) > 1e-6:
                grid.append(f"{method} at {fraction}: {accuracy} is off the 1/{steps} grid")
    full = [
        f"{method}: {accuracy} at fraction 0.0, baseline {baseline}"
        for method, series in rows.items()
        for fraction, accuracy in series
        if fraction == 0.0 and accuracy != baseline
    ]
    return {**problems, "grid": grid, "full_retention": full}


def check_large_round(config: dict, out: dict[str, Path]) -> dict[str, Problems]:
    records = read_rounds(out["a"] / "rounds")
    layout = records[0]["layout"]
    utility = Utility(layout, *validation_set(config))
    perm = read_values(out["a"] / "values.csv")
    gt = read_values(out["b"] / "values.csv")
    approx = config["valuation"]["approx"]
    coordinates = [(t, pid) for t, vector in perm["rounds"].items() for pid in vector]
    agree = sum(
        abs(perm["rounds"][t][pid] - gt["rounds"][t][pid]) <= 2 * approx["epsilon"]
        for t, pid in coordinates
    )
    share = agree / len(coordinates)
    agreement = []
    if share < 1.0 - 2.0 * approx["delta"]:
        agreement.append(f"estimators agree within 2 epsilon on {share:.3f} of coordinates")
    return {
        "manifests": _manifest_ok(out["a"], out["b"]),
        "snapshots": _rounds_match(records, perm) + _rounds_match(records, gt),
        "utilities": _utilities(records, perm, utility) + _utilities(records, gt, utility),
        "efficiency": _efficiency(perm),
        "agreement": agreement,
    }


CHECKS = {
    "wide-exact": check_wide_exact,
    "summarize-retrain": check_summarize,
    "large-round-estimators": check_large_round,
}
