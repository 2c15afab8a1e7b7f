"""Monte Carlo estimation of per-round participant values.

Two estimators for the per-round values: sampling random orderings of
the selected participants, and a paired-test scheme that estimates all
pairwise value differences from utilities of random subsets and anchors
them on the round's utility gain. Sample counts follow concentration
bounds so the results carry an (epsilon, delta)-style guarantee per
coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Collection

import numpy as np

from .values import UtilityOracle, ValueVector, mask_bits


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
    subset of size ``k`` (k = 1..m-1), ``z`` is the exact sum of the
    size weights, and ``t1`` tests put every participant's value within
    the plan's (epsilon, delta) bound.
    """

    m: int
    z: float
    subset_size_probs: np.ndarray
    t1: int
    # Always 0, as the anchor samples nothing; perfbench/tracing.py counts
    # t1 + t2 until the benchmark revision (ROADMAP item 1) drops it.
    t2: ClassVar[int] = 0


def group_testing_plan(m: int, params: ApproxParams) -> GroupTestingPlan:
    """Plan the paired-test estimator for ``m`` participants.

    A test draws a size ``k`` with probability ``(1/k + 1/(m - k)) / z``,
    ``z = 2 * H(m - 1)`` being the weights' exact sum, then a uniform
    subset S of that size, with utility ``u`` in [0, 1]; ``beta_i`` marks
    i in S. Participant i's estimate (see :func:`group_testing_round`) is
    ``du / m`` plus the tests' mean of ``Y_i = z * u * (beta_i - k / m)``,
    ``du`` being the round's utility gain.

    - Mean: Jia et al.'s identity ``E[z * u * (beta_i - beta_j)] = s_i - s_j``,
      averaged over the m participants j with ``sum_j s_j = du``, gives
      ``E[Y_i] = s_i - du / m``: the estimate is unbiased.
    - Variance: given k, ``E[(beta_i - k/m)^2] = k (m - k) / m^2``, which
      the size probabilities ``m / (z k (m - k))`` average to
      ``(m - 1) / (m z)``. With ``u <= 1``,
      ``Var(Y_i) <= z^2 (m - 1) / (m z) = z (m - 1) / m =: sigma2``.
    - Range: ``|beta_i - k/m| <= (m - 1) / m``, and every marginal lies
      in [-1, 1], so ``|s_i - du / m| <= 1 + 1/m`` and
      ``|Y_i - E[Y_i]| <= z (m - 1) / m + 1 + 1/m =: b``.

    By Bennett's inequality (``h`` is :func:`h_bernstein`), i's mean of t1
    tests misses by epsilon or more with probability at most
    ``2 exp(-t1 (sigma2 / b^2) h(b epsilon / sigma2))``; over the m
    participants that totals at most delta when
    ``t1 = ceil((b^2 / sigma2) ln(2 m / delta) / h(b epsilon / sigma2))``.
    """
    if m < 2:
        raise ValueError(f"group testing needs at least 2 participants, got {m}")
    ks = np.arange(1, m, dtype=np.float64)
    z = 2.0 * math.fsum(1.0 / k for k in range(1, m))
    probs = (1.0 / ks + 1.0 / (m - ks)) / z
    sigma2 = z * (m - 1) / m
    b = sigma2 + 1.0 + 1.0 / m
    t1 = math.ceil(
        b * b / sigma2 * math.log(2.0 * m / params.delta)
        / h_bernstein(b * params.epsilon / sigma2)
    )
    return GroupTestingPlan(m=m, z=z, subset_size_probs=probs, t1=t1)


def round_plan(
    method: str, approx: ApproxParams | None, m: int
) -> int | GroupTestingPlan | None:
    """How ``method`` samples a round of ``m`` participants: the ordering
    count under ``permutation``, the test plan under ``group_testing``,
    and None for every other method. A group-testing round of one
    participant also gets None: no test matrix can be formed for one
    participant, so its value is its exact marginal."""
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
    value differences; :func:`pivot_anchor_values` fixes their level so
    that the values sum to the round's utility gain, as ordering
    sampling's do. The guarantee is per coordinate (see
    :func:`group_testing_plan`).
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
    return pivot_anchor_values(loads, oracle, round_index)


# Kept under this name because the benchmark's tracer
# (perfbench/tracing.py) times it; the benchmark revision (ROADMAP
# item 1) renames it.
def pivot_anchor_values(
    loads: np.ndarray, oracle: UtilityOracle, round_index: int
) -> ValueVector:
    """Recover absolute values from per-participant ``loads``, whose
    differences estimate the pairwise value differences.

    The pivot is the mean value, which efficiency fixes at ``du / m``,
    ``du`` being the round's utility gain from its two endpoint
    utilities. Participant ``b`` is ``loads[b] + (du - sum(loads)) / m``
    with the sum taken by ``math.fsum``: the least-squares fit to the
    load differences whose values sum to ``du``.
    """
    ids = oracle.players(round_index)
    m = len(ids)
    if loads.shape != (m,):
        raise ValueError(f"loads shape {loads.shape} does not match {m} participants")
    before, after = oracle.evaluate_many(round_index, [0, (1 << m) - 1])
    shift = (after - before - math.fsum(loads)) / m
    values = {pid: float(loads[b] + shift) for b, pid in enumerate(ids)}
    return ValueVector(values, round_index)
