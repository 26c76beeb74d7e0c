"""Active-learning sample selection over a pool of unlabeled peak sets.

Each strategy scores every unlabeled sample, and the annotation budget
goes to the extreme-B under the strategy's ordering:

* ``vl4pose``: pose log-likelihood under the fitted skeletal model
  (expected over the peak distributions, or the refined maximum);
  lowest scores selected first.
* ``entropy``: total peak entropy; highest selected first.
* ``random``: seeded hash of the sample id; lowest selected first.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceedsPool,
    EmptyClass,
    EmptyInput,
    MissingHeatmap,
    MissingParams,
    SchemaError,
)
from .heatmaps import (
    PeakSet,
    extract_peaks,  # noqa: F401 -- unused here, but bench/tracing.py wraps it by module
)
from .likelihood import (
    PeakStack,
    expected_log_likelihood,  # noqa: F401 -- unused here, but bench/tracing.py wraps it
    expected_log_likelihoods,
    multi_peak_entropies,
    multi_peak_entropy,  # noqa: F401 -- unused here, but bench/tracing.py wraps it by module
    refine_pose,  # noqa: F401 -- unused here, but bench/tracing.py wraps it by module
    refined_log_likelihoods,
)
from .model import Pose, PoseModelParams

STRATEGIES = ("vl4pose", "entropy", "random")
# Strategies whose highest scores are selected first; all others select lowest.
_HIGHEST_FIRST = frozenset({"entropy"})


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise SchemaError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )


@dataclass
class SamplePool:
    """Labeled poses plus the peaks of unlabeled samples.

    Every strategy reads only the peaks, so the pool keeps one batch of
    them and never a heatmap: memory grows with the peaks, not the grids.
    ``unlabeled`` maps each id to its sample in ``peaks``. A pool without
    ``peaks`` is one that only the ``random`` strategy ranks; asking for
    them raises :class:`MissingHeatmap`.

    ``stacks`` caches, per skeleton and link family, the :class:`PeakStack`
    of all of ``peaks``, built on first use; clones share it. A stack holds
    no parameter, so one serves every model of its skeleton and family.
    """

    labeled: dict[str, Pose]
    unlabeled: dict[str, int]
    peaks: PeakSet | None = None
    stacks: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        overlap = set(self.labeled) & set(self.unlabeled)
        if overlap:
            raise SchemaError(
                f"samples cannot be both labeled and unlabeled: {sorted(overlap)[:5]}"
            )

    def clone(self) -> "SamplePool":
        return SamplePool(dict(self.labeled), dict(self.unlabeled), self.peaks, self.stacks)

    def _rows(self, sample_ids) -> list[int]:
        try:
            rows = [self.unlabeled[sample_id] for sample_id in sample_ids]
        except KeyError as exc:
            raise MissingHeatmap(f"no unlabeled sample {exc.args[0]!r}") from None
        if self.peaks is None:
            holder = f"unlabeled sample {sample_ids[0]!r}" if sample_ids else "the pool"
            raise MissingHeatmap(f"{holder} has no peaks")
        return rows

    def peaks_for(self, *sample_ids: str) -> PeakSet:
        """The peaks of the unlabeled ``sample_ids``, in that order, as one batch."""
        rows = self._rows(sample_ids)
        return self.peaks.take(rows)

    def stack_for(self, params: PoseModelParams, *sample_ids: str) -> PeakStack:
        """The peaks of the unlabeled ``sample_ids``, in that order, as the
        :class:`PeakStack` of ``params``' skeleton and link family: rows of
        the pool's cached stack, bit for bit the stack of their peaks alone."""
        rows = self._rows(sample_ids)
        key = (params.skeleton, params.model_kind)
        peaks, stack = self.stacks.get(key, (None, None))
        if peaks is not self.peaks:  # never built, or built for other peaks
            stack = PeakStack.of(self.peaks, *key)
            self.stacks[key] = (self.peaks, stack)
        return stack.take(rows)

    def move_to_labeled(self, sample_id: str, pose: Pose) -> None:
        if sample_id not in self.unlabeled:
            raise MissingHeatmap(f"sample {sample_id!r} is not in the unlabeled pool")
        del self.unlabeled[sample_id]
        self.labeled[sample_id] = pose


@dataclass(frozen=True)
class SelectionResult:
    """One acquisition round: ids chosen and the scores of every candidate."""

    strategy: str
    selected: tuple[str, ...]
    scores: dict[str, float]


def _random_score(seed: int, sample_id: str) -> float:
    """Deterministic uniform in [0, 1) from the seed and sample id."""
    digest = hashlib.sha256(f"{seed}:{sample_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def score_pool(
    pool: SamplePool,
    strategy: str,
    params: PoseModelParams | None = None,
    *,
    mode: str = "expected",
    seed: int = 0,
) -> dict[str, float]:
    """Score every unlabeled sample under one strategy.

    ``params`` is the fitted model shared by every sample; it is required
    for ``vl4pose`` only. ``mode`` picks the vl4pose flavor: the
    expectation over peak distributions (default) or the refined maximum.
    Either is computed for the whole pool by one batched call, from rows of
    the pool's cached stack.
    """
    _check_strategy(strategy)
    if mode not in ("expected", "max"):
        raise SchemaError(f"unknown vl4pose mode {mode!r}; expected 'expected' or 'max'")
    if strategy == "vl4pose" and params is None:
        raise MissingParams("vl4pose scoring needs fitted model parameters")
    if not pool.unlabeled:
        raise EmptyInput("unlabeled pool is empty")
    if strategy == "random":
        return {sample_id: _random_score(seed, sample_id) for sample_id in pool.unlabeled}
    if strategy == "vl4pose" and mode == "max":
        scores = refined_log_likelihoods(pool.stack_for(params, *pool.unlabeled), params)
    elif strategy == "vl4pose":
        reports = expected_log_likelihoods(pool.stack_for(params, *pool.unlabeled), params)
        scores = [report.total for report in reports]
    else:
        scores = multi_peak_entropies(pool.peaks_for(*pool.unlabeled))
    return dict(zip(pool.unlabeled, scores))


def select_batch(scores: dict[str, float], strategy: str, budget: int) -> SelectionResult:
    """Pick the extreme-``budget`` ids under the strategy's ordering.

    Likelihood and random scores select lowest-first; entropy selects
    highest-first. Ties always break on ascending sample id, so the
    result is invariant to the input's iteration order.
    """
    _check_strategy(strategy)
    if budget < 0:
        raise SchemaError(f"budget must be non-negative, got {budget}")
    if budget > len(scores):
        raise BudgetExceedsPool(
            f"budget {budget} exceeds pool of {len(scores)} scored samples"
        )
    sign = -1.0 if strategy in _HIGHEST_FIRST else 1.0
    ranked = sorted(scores.items(), key=lambda item: (sign * item[1], item[0]))
    return SelectionResult(
        strategy=strategy,
        selected=tuple(sample_id for sample_id, _ in ranked[:budget]),
        scores=dict(scores),
    )


def ood_ranking_auc(id_scores, ood_scores) -> float:
    """Probability that a random OOD score falls below a random ID score.

    Mann-Whitney statistic with 0.5 credit for ties, computed through
    tie-averaged ranks over the pooled scores.
    """
    id_scores = [float(s) for s in id_scores]
    ood_scores = [float(s) for s in ood_scores]
    if not id_scores or not ood_scores:
        raise EmptyClass(
            f"need both classes for a ranking: {len(id_scores)} in-distribution, "
            f"{len(ood_scores)} out-of-distribution"
        )
    pooled = np.array(id_scores + ood_scores)
    _, value_of, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    # The c copies of a value hold ranks cumsum - c + 1 .. cumsum; each gets their mean.
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[value_of]
    ood_ranks = ranks[len(id_scores):]
    n_ood, n_id = len(ood_scores), len(id_scores)
    u_ood = ood_ranks.sum() - n_ood * (n_ood + 1) / 2.0  # pairs won (+ half-ties) by OOD
    return float(1.0 - u_ood / (n_ood * n_id))
