"""Monte Carlo estimation of per-round participant values.

Two estimators for the per-round values: sampling random orderings of
the selected participants, and a paired-test scheme that estimates all
pairwise value differences from utilities of random subsets and anchors
them with one directly estimated pivot value. Sample counts follow the
concentration-bound formulas so the results carry an
(epsilon, delta)-style guarantee per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection

import numpy as np

from .values import UtilityOracle, ValueVector, mask_bits


# How the paired-test scheme splits its budget between difference
# estimation and the pivot (Jia et al., AISTATS 2019).
_C_EPS = _C_DELTA = 2.0


@dataclass(frozen=True)
class ApproxParams:
    """Accuracy target for the estimators: the per-coordinate error bound
    ``epsilon`` and failure probability ``delta``. Utilities are
    validation accuracies, so their range is 1."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon: must be positive, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta: must lie in (0, 1), got {self.delta}")


def permutation_sample_count(params: ApproxParams, m: int) -> int:
    """Orderings needed for the per-coordinate (epsilon, delta) guarantee,
    from the Hoeffding bound on averages of [0, 1]-bounded marginals."""
    if m < 1:
        raise ValueError(f"participant count must be at least 1, got {m}")
    eps, delta = params.epsilon, params.delta
    count = (2.0 / (eps * eps)) * math.log(2.0 * m / delta)
    return max(1, math.ceil(count))


def h_bernstein(u: float) -> float:
    """The Bernstein rate function ``(1 + u) ln(1 + u) - u`` for ``u > -1``."""
    if u <= -1:
        raise ValueError(f"argument must exceed -1, got {u}")
    return (1.0 + u) * math.log1p(u) - u


@dataclass(frozen=True, eq=False)
class GroupTestingPlan:
    """Resolved sampling plan for the paired-test estimator.

    ``subset_size_probs[k - 1]`` is the probability of drawing a test
    subset of size ``k`` (k = 1..m-1); ``t1`` tests estimate pairwise
    differences and ``t2`` samples estimate the pivot value.
    """

    m: int
    z: float
    subset_size_probs: np.ndarray
    q_tot: float
    t1: int
    t2: int


def group_testing_plan(m: int, params: ApproxParams) -> GroupTestingPlan:
    """Plan the paired-test estimator for ``m`` participants.

    The subset-size weights ``1/k + 1/(m - k)`` are normalized by their
    exact sum ``z = 2 * H(m - 1)`` so they form a distribution.
    """
    if m < 2:
        raise ValueError(f"group testing needs at least 2 participants, got {m}")
    ks = np.arange(1, m, dtype=np.float64)
    z = 2.0 * math.fsum(1.0 / k for k in range(1, m))
    probs = (1.0 / ks + 1.0 / (m - ks)) / z
    balance = 1.0 + 2.0 * ks * (ks - m) / (m * (m - 1))
    q_tot = (m - 2) / m * probs[0] + float(np.dot(probs[1:], balance[1:]))
    if q_tot >= 1.0:
        raise ValueError(f"degenerate plan: size-distribution overlap {q_tot} >= 1")
    eps, delta = params.epsilon, params.delta
    spread = 1.0 - q_tot * q_tot
    rate = h_bernstein(2.0 * eps / (z * _C_EPS * spread))
    t1 = math.ceil(4.0 / (spread * rate) * math.log(_C_DELTA * (m - 1) / (2.0 * delta)))
    t2 = math.ceil(
        4.0 * _C_EPS * _C_EPS / ((_C_EPS - 1.0) ** 2 * eps * eps)
        * math.log(2.0 * _C_DELTA / ((_C_DELTA - 1.0) * delta))
    )
    return GroupTestingPlan(
        m=m,
        z=z,
        subset_size_probs=probs,
        q_tot=q_tot,
        t1=max(1, t1),
        t2=max(1, t2),
    )


def round_plan(
    method: str, approx: ApproxParams | None, m: int
) -> int | GroupTestingPlan | None:
    """How ``method`` samples a round of ``m`` participants: the ordering
    count under ``permutation``, the plan under ``group_testing``, and
    None for every other method. A group-testing round of one participant
    also gets None: no test matrix can be formed for one participant, so
    its value is its exact marginal."""
    if method == "permutation":
        return permutation_sample_count(approx, m)
    if method == "group_testing" and m >= 2:
        return group_testing_plan(m, approx)
    return None


def permutation_sampling_round(
    oracle: UtilityOracle,
    round_index: int,
    round_players: Collection[int],
    sample_count: int,
    seed: int | np.random.Generator,
) -> ValueVector:
    """Estimate round values by averaging marginals over random orderings.

    Every sampled ordering walks the participants once, crediting each
    one with the utility increase it causes on top of those before it;
    the walk restarts from the round's empty-subset utility each time, so
    the per-ordering credits always telescope to the round's full utility
    improvement and the estimate inherits that identity exactly.

    ``round_players`` must list exactly the oracle's ``players(round_index)``;
    any other list is refused, naming the round.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count}")
    ids = oracle.players(round_index)
    if tuple(sorted(round_players)) != ids:
        raise ValueError(
            f"round {round_index}: round_players {sorted(round_players)} are not "
            f"the round's participants {list(ids)}"
        )
    m = len(ids)
    if m == 0:
        raise ValueError(f"round {round_index} has no participants")
    rng = np.random.default_rng(seed)
    # All randomness is drawn up front so evaluation order cannot matter.
    orderings = rng.permuted(
        np.tile(np.arange(m), (sample_count, 1)), axis=1
    )
    # Column j of a row is the mask of the ordering's first j participants.
    bits = mask_bits(m)
    prefixes = np.zeros((sample_count, m + 1), dtype=bits.dtype)
    np.cumsum(bits[orderings], axis=1, out=prefixes[:, 1:])
    utilities = oracle.evaluate_many(round_index, prefixes.ravel())
    marginals = np.diff(utilities.reshape(prefixes.shape), axis=1)
    # Unbuffered, in row order: each participant's credits add up in the
    # same sequence as a walk over the orderings one by one.
    acc = np.zeros(m, dtype=np.float64)
    np.add.at(acc, orderings, marginals)
    acc /= sample_count
    return ValueVector({pid: float(acc[b]) for b, pid in enumerate(ids)}, round_index)


def group_testing_round(
    oracle: UtilityOracle,
    round_index: int,
    plan: GroupTestingPlan,
    seed: int | np.random.Generator,
) -> ValueVector:
    """Estimate round values from utilities of random subsets.

    Runs ``plan.t1`` tests, each drawing a subset whose size follows the
    plan's distribution, and turns the recorded membership/utility pairs
    into per-participant loads, whose differences estimate the pairwise
    value differences; the absolute level comes from
    :func:`pivot_anchor_values`. Unlike ordering sampling the
    estimated values only approximately sum to the round's utility
    improvement; the guarantee is per-coordinate.
    """
    m = len(oracle.players(round_index))
    if m != plan.m:
        raise ValueError(f"plan was sized for {plan.m} participants, round has {m}")
    rng = np.random.default_rng(seed)
    sizes = rng.choice(np.arange(1, m), size=plan.t1, p=plan.subset_size_probs)
    membership = np.zeros((plan.t1, m), dtype=bool)
    # The (t1, m) sort keys and their argsort are temporaries, freed
    # before the oracle evaluates the tests.
    np.put_along_axis(
        membership,
        np.argsort(rng.random((plan.t1, m)), axis=1),
        np.arange(m)[None, :] < sizes[:, None],
        axis=1,
    )
    masks = membership @ mask_bits(m)
    test_utilities = oracle.evaluate_many(round_index, masks)
    loads = (plan.z / plan.t1) * (test_utilities @ membership)
    return pivot_anchor_values(loads, oracle, round_index, plan, rng)


def pivot_anchor_values(
    loads: np.ndarray,
    oracle: UtilityOracle,
    round_index: int,
    plan: GroupTestingPlan,
    seed: int | np.random.Generator,
) -> ValueVector:
    """Recover absolute values from per-participant ``loads``, whose
    differences estimate the pairwise value differences.

    The pivot is the highest participant id. Its value is estimated from
    ``plan.t2`` sampled marginal contributions, drawing first a subset
    size uniformly from ``0..m-1`` and then a uniform subset of the other
    participants at that size, which makes the estimate unbiased for the
    pivot's exact value. Participant ``b`` is the pivot plus
    ``loads[b] - loads[-1]``.
    """
    ids = oracle.players(round_index)
    m = len(ids)
    if loads.shape != (m,):
        raise ValueError(f"loads shape {loads.shape} does not match {m} participants")
    rng = np.random.default_rng(seed)
    bits = mask_bits(m)
    sizes = rng.integers(0, m, size=plan.t2)
    others = np.zeros((plan.t2, m - 1), dtype=bool)
    if m > 1:
        order = np.argsort(rng.random((plan.t2, m - 1)), axis=1)
        np.put_along_axis(
            others, order, np.arange(m - 1)[None, :] < sizes[:, None], axis=1
        )
    masks = others @ bits[:-1]
    # One (with, without) pair per sample, so the oracle sees the masks
    # in the order of a sample-by-sample walk.
    paired = oracle.evaluate_many(
        round_index, np.stack([masks | bits[-1], masks], axis=1).ravel()
    ).reshape(-1, 2)
    total = 0.0
    for with_pivot, without in paired.tolist():
        total += with_pivot - without
    pivot_estimate = total / plan.t2
    values = {
        pid: float(pivot_estimate + (loads[b] - loads[-1]))
        for b, pid in enumerate(ids)
    }
    return ValueVector(values, round_index)
