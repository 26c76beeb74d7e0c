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
    _expected_totals,
    _refined_totals,
    expected_log_likelihood,  # noqa: F401 -- unused here, but bench/tracing.py wraps it
    multi_peak_entropies,
    multi_peak_entropy,  # noqa: F401 -- unused here, but bench/tracing.py wraps it by module
    refine_pose,  # noqa: F401 -- unused here, but bench/tracing.py wraps it by module
)
from .model import Pose, PoseModelParams

STRATEGIES = ("vl4pose", "entropy", "random")


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

    def _require_peaks(self, first_id: str | None) -> PeakSet:
        if self.peaks is None:
            holder = "the pool" if first_id is None else f"unlabeled sample {first_id!r}"
            raise MissingHeatmap(f"{holder} has no peaks")
        return self.peaks

    def peaks_for(self, *sample_ids: str) -> PeakSet:
        """The peaks of the unlabeled ``sample_ids``, in that order, as one batch."""
        try:
            rows = [self.unlabeled[sample_id] for sample_id in sample_ids]
        except KeyError as exc:
            raise MissingHeatmap(f"no unlabeled sample {exc.args[0]!r}") from None
        return self._require_peaks(sample_ids[0] if sample_ids else None).take(rows)

    def stack(self, params: PoseModelParams) -> PeakStack:
        """The :class:`PeakStack` of all of ``peaks``, labeled samples too,
        for ``params``' skeleton and link family, built once per peaks."""
        peaks = self._require_peaks(next(iter(self.unlabeled), None))
        key = (params.skeleton, params.model_kind)
        built_from, stack = self.stacks.get(key, (None, None))
        if built_from is not peaks:  # never built, or built for other peaks
            stack = PeakStack.of(peaks, *key)
            self.stacks[key] = (peaks, stack)
        return stack

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
) -> np.ndarray:
    """Score every unlabeled sample under one strategy: a float64 array in
    the iteration order of ``pool.unlabeled``.

    ``params`` is the fitted model shared by every sample; it is required
    for ``vl4pose`` only. ``mode`` picks the vl4pose flavor: the
    expectation over peak distributions (default) or the refined maximum.
    Either checks the unlabeled samples, in order, then scores the pool's
    whole cached stack in one batched call and keeps their rows.
    """
    _check_strategy(strategy)
    if mode not in ("expected", "max"):
        raise SchemaError(f"unknown vl4pose mode {mode!r}; expected 'expected' or 'max'")
    if strategy == "vl4pose" and params is None:
        raise MissingParams("vl4pose scoring needs fitted model parameters")
    if not pool.unlabeled:
        raise EmptyInput("unlabeled pool is empty")
    if strategy == "random":
        return np.array([_random_score(seed, sample_id) for sample_id in pool.unlabeled])
    if strategy == "entropy":
        return np.array(multi_peak_entropies(pool.peaks_for(*pool.unlabeled)))
    stack = pool.stack(params)
    rows = np.fromiter(pool.unlabeled.values(), np.intp, len(pool.unlabeled))
    stack.check(rows)
    totals = _refined_totals if mode == "max" else _expected_totals
    return totals(stack, params)[rows]


def ascending(scores: np.ndarray, strategy: str) -> np.ndarray:
    """``scores`` as ``strategy`` ranks them, lowest first: entropy's negated."""
    return -scores if strategy == "entropy" else scores


def id_ranks(ids: list[str]) -> np.ndarray:
    """Each id's place among ``ids`` in ascending order. Python compares the
    strings: a numpy string array drops trailing NULs, so ``"a\\x00"`` would
    tie with ``"a"``."""
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def lowest_first(scores: np.ndarray, ranks: np.ndarray, budget: int) -> np.ndarray:
    """The positions of the ``budget`` lowest ``scores``, lowest first, ties
    broken by the lower of ``ranks``."""
    return np.lexsort((ranks, scores))[:budget]


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
    ids = list(scores)
    values = np.fromiter(scores.values(), np.float64, len(ids))
    picked = lowest_first(ascending(values, strategy), id_ranks(ids), budget)
    return SelectionResult(strategy, tuple(ids[i] for i in picked.tolist()), dict(scores))


def ood_ranking_auc(id_scores, ood_scores) -> float:
    """Probability that a random OOD score falls below a random ID score.

    Mann-Whitney statistic with 0.5 credit for ties, computed through
    tie-averaged ranks over the pooled scores. Ranks are multiples of 0.5,
    so their sum, and the result, is the same in any order of each class.
    """
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    n_id, n_ood = id_scores.size, ood_scores.size
    if not n_id or not n_ood:
        raise EmptyClass(
            f"need both classes for a ranking: {n_id} in-distribution, "
            f"{n_ood} out-of-distribution"
        )
    pooled = np.concatenate([id_scores, ood_scores])
    _, value_of, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    # The c copies of a value hold ranks cumsum - c + 1 .. cumsum; each gets their mean.
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[value_of]
    u_ood = ranks[n_id:].sum() - n_ood * (n_ood + 1) / 2.0  # pairs won (+ half-ties) by OOD
    return float(1.0 - u_ood / (n_ood * n_id))
