"""Tests for pool scoring, batch selection, and ranking quality metrics."""

import numpy as np
import pytest

from poselik import (
    BudgetExceedsPool,
    DistanceParams,
    EmptyClass,
    EmptyInput,
    Heatmap,
    MissingHeatmap,
    MissingParams,
    PeakSet,
    Pose,
    PoseModelParams,
    SamplePool,
    SchemaError,
    STRATEGIES,
    chain_skeleton,
    extract_peaks,
    multi_peak_entropy,
    ood_ranking_auc,
    refine_pose,
    render_gaussian_heatmap,
    score_pool,
    select_batch,
)
from poselik.selection import _random_score

from _helpers import assert_same_peaks, oracle_auc


def chain_model(n_joints=3, mean=6.0, sigma=1.0):
    skel = chain_skeleton(n_joints)
    return PoseModelParams(
        skeleton=skel,
        link_params=tuple(DistanceParams(mean, sigma) for _ in range(n_joints - 1)),
        model_kind="distance",
    )


def vertical_pose(n_joints, start=(20, 20), step=6.0):
    rows = [float(start[0])] * n_joints
    cols = [start[1] + i * step for i in range(n_joints)]
    return Pose.of(np.column_stack([rows, cols]))


def render(pose, size=64):
    return render_gaussian_heatmap(pose, size, size, peak_sigma=1.5)


def make_pool(heatmaps, labeled=None):
    pool = SamplePool(labeled=dict(labeled or {}), unlabeled={})
    for sample_id, heatmap in heatmaps.items():
        pool.add_unlabeled(sample_id, heatmap)
    return pool


class TestSamplePool:
    def test_rejects_overlapping_ids(self):
        peaks = extract_peaks(render(vertical_pose(3)))
        with pytest.raises(SchemaError, match="both"):
            SamplePool(labeled={"x": vertical_pose(3)}, unlabeled={"x": peaks})

    def test_add_unlabeled_stores_only_the_peaks(self):
        hm = render(vertical_pose(3))
        pool = make_pool({"a": hm})
        assert isinstance(pool.unlabeled["a"], PeakSet)
        assert_same_peaks(pool.unlabeled["a"], extract_peaks(hm))
        assert not any(isinstance(value, Heatmap) for value in vars(pool).values())

    def test_add_unlabeled_rejects_known_ids(self):
        pool = make_pool({"a": render(vertical_pose(3))}, labeled={"l": vertical_pose(3)})
        stored = pool.unlabeled["a"]
        with pytest.raises(SchemaError, match="'a'"):
            pool.add_unlabeled("a", render(vertical_pose(3, step=9.0)))
        with pytest.raises(SchemaError, match="'l'"):
            pool.add_unlabeled("l", render(vertical_pose(3)))
        assert pool.unlabeled == {"a": stored}  # a rejected add changes nothing
        assert list(pool.labeled) == ["l"]

    def test_move_to_labeled(self):
        pool = make_pool({"a": render(vertical_pose(3))})
        pool.move_to_labeled("a", vertical_pose(3))
        assert "a" in pool.labeled and "a" not in pool.unlabeled
        with pytest.raises(MissingHeatmap):
            pool.move_to_labeled("a", vertical_pose(3))

    def test_peaks_for_returns_the_stored_set(self):
        pool = make_pool({"a": render(vertical_pose(3))})
        first = pool.peaks_for("a")
        assert first is pool.unlabeled["a"]
        assert pool.peaks_for("a") is first
        with pytest.raises(MissingHeatmap, match="ghost"):
            pool.peaks_for("ghost")

    def test_clone_is_independent_but_shares_peaks(self):
        pool = make_pool({"a": render(vertical_pose(3)), "b": render(vertical_pose(3))})
        peaks = pool.peaks_for("a")
        copy = pool.clone()
        copy.move_to_labeled("a", vertical_pose(3))
        assert "a" in pool.unlabeled  # original untouched
        assert pool.peaks_for("a") is peaks
        with pytest.raises(MissingHeatmap):
            copy.peaks_for("a")
        assert copy.peaks_for("b") is pool.peaks_for("b")


class TestScorePool:
    def test_all_strategies_produce_finite_scores(self):
        pool = make_pool({f"s{i}": render(vertical_pose(3)) for i in range(4)})
        model = chain_model()
        for strategy in STRATEGIES:
            scores = score_pool(pool, strategy, model)
            assert set(scores) == set(pool.unlabeled)
            assert all(np.isfinite(v) for v in scores.values())

    def test_vl4pose_requires_params(self):
        pool = make_pool({"a": render(vertical_pose(3))})
        with pytest.raises(MissingParams):
            score_pool(pool, "vl4pose")

    def test_empty_pool(self):
        with pytest.raises(EmptyInput):
            score_pool(make_pool({}), "random")

    def test_deviant_sample_scores_strictly_lowest(self):
        """A pose whose links run five sigmas long ranks below every
        in-distribution sample under the likelihood strategy."""
        heatmaps = {f"ok{i}": render(vertical_pose(3, start=(18 + i, 14))) for i in range(5)}
        heatmaps["weird"] = render(vertical_pose(3, step=11.0))  # 5 sigmas over
        scores = score_pool(make_pool(heatmaps), "vl4pose", chain_model())
        assert max(s for i, s in scores.items() if i != "weird") > scores["weird"]
        assert min(scores, key=scores.get) == "weird"

    def test_identical_heatmaps_identical_scores(self):
        hm = render(vertical_pose(3))
        pool = make_pool({"a": hm, "b": Heatmap(hm.values.copy())})
        for strategy in ("vl4pose", "entropy"):
            scores = score_pool(pool, strategy, chain_model())
            assert scores["a"] == scores["b"]

    def test_max_mode_uses_refined_likelihood(self):
        pool = make_pool({"a": render(vertical_pose(3))})
        model = chain_model()
        scores = score_pool(pool, "vl4pose", model, mode="max")
        refined = refine_pose(pool.peaks_for("a"), model)
        assert scores["a"] == refined.log_likelihood
        with pytest.raises(SchemaError, match="mode"):
            score_pool(pool, "vl4pose", model, mode="argmax")

    def test_entropy_matches_peak_entropy_and_alias(self):
        pool = make_pool({"a": render(vertical_pose(3))})
        expected = multi_peak_entropy(pool.peaks_for("a"))
        assert score_pool(pool, "entropy")["a"] == expected
        with pytest.raises(SchemaError, match="strategy"):
            score_pool(pool, "multi_peak_entropy")  # the old alias is gone

    def test_unknown_strategy(self):
        pool = make_pool({"a": render(vertical_pose(3))})
        with pytest.raises(SchemaError, match="strategy"):
            score_pool(pool, "oracle")


class TestSelectBatch:
    def oracle_order(self, scores, strategy):
        """Two-stage stable sort: ids ascending, then scores (entropy
        descending, everything else ascending)."""
        by_id = sorted(scores)
        reverse = strategy == "entropy"
        return sorted(by_id, key=lambda i: -scores[i] if reverse else scores[i])

    def test_matches_sorting_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            ids = [f"s{i:02d}" for i in range(int(rng.integers(3, 20)))]
            scores = {i: float(rng.normal()) for i in ids}
            if trial % 3 == 0:  # force ties
                scores[ids[0]] = scores[ids[-1]]
            budget = int(rng.integers(0, len(ids) + 1))
            for strategy in STRATEGIES:
                result = select_batch(scores, strategy, budget)
                assert list(result.selected) == self.oracle_order(scores, strategy)[:budget]
                assert result.scores == scores
                assert result.strategy == strategy

    def test_budget_edges(self):
        scores = {"a": 1.0, "b": 0.0}
        assert select_batch(scores, "vl4pose", 0).selected == ()
        assert select_batch(scores, "vl4pose", 2).selected == ("b", "a")
        with pytest.raises(BudgetExceedsPool):
            select_batch(scores, "vl4pose", 3)
        with pytest.raises(SchemaError):
            select_batch(scores, "vl4pose", -1)

    def test_entropy_takes_highest_first(self):
        scores = {"low": 0.1, "mid": 0.5, "high": 0.9}
        assert select_batch(scores, "entropy", 2).selected == ("high", "mid")
        assert select_batch(scores, "vl4pose", 2).selected == ("low", "mid")

    def test_iteration_order_invariance(self):
        scores = {"c": 2.0, "a": 1.0, "b": 1.0}
        flipped = dict(reversed(list(scores.items())))
        assert (
            select_batch(scores, "vl4pose", 2).selected
            == select_batch(flipped, "vl4pose", 2).selected
            == ("a", "b")
        )

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(42)
        scores = {f"s{i}": float(rng.normal()) for i in range(12)}
        shifted = {i: s + 100.0 for i, s in scores.items()}
        for strategy in STRATEGIES:
            assert (
                select_batch(scores, strategy, 5).selected
                == select_batch(shifted, strategy, 5).selected
            )


class TestRandomScore:
    def test_deterministic_and_seed_sensitive(self):
        assert _random_score(7, "img-1") == _random_score(7, "img-1")
        assert _random_score(7, "img-1") != _random_score(8, "img-1")
        assert _random_score(7, "img-1") != _random_score(7, "img-2")

    def test_unit_interval(self):
        draws = [_random_score(0, f"s{i}") for i in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.3 < np.mean(draws) < 0.7


class TestOodRankingAuc:
    def test_frozen_example(self):
        """id scores 1,2,3 against ood scores 0,2: five pairs, three clean
        wins and one tie for the OOD side -> 3.5/6."""
        assert ood_ranking_auc([1.0, 2.0, 3.0], [0.0, 2.0]) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_matches_pair_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            id_scores = list(np.round(rng.normal(size=rng.integers(1, 30)), 1))
            ood_scores = list(np.round(rng.normal(size=rng.integers(1, 30)), 1))
            assert ood_ranking_auc(id_scores, ood_scores) == pytest.approx(
                oracle_auc(id_scores, ood_scores), abs=1e-12
            )

    def test_extremes(self):
        assert ood_ranking_auc([5.0, 6.0], [1.0, 2.0]) == 1.0
        assert ood_ranking_auc([1.0, 2.0], [5.0, 6.0]) == 0.0
        assert ood_ranking_auc([3.0, 4.0], [3.0, 4.0]) == 0.5

    def test_empty_class(self):
        with pytest.raises(EmptyClass):
            ood_ranking_auc([], [1.0])
        with pytest.raises(EmptyClass):
            ood_ranking_auc([1.0], [])
