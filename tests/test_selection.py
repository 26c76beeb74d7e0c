"""Tests for pool scoring, batch selection, and ranking quality metrics."""

import dataclasses

import numpy as np
import pytest

from poselik import (
    BudgetExceedsPool,
    DimensionMismatch,
    DistanceParams,
    EmptyClass,
    EmptyInput,
    EmptyPeakSet,
    Heatmap,
    MissingHeatmap,
    MissingParams,
    OffsetParams,
    Pose,
    PoseModelParams,
    SamplePool,
    SchemaError,
    STRATEGIES,
    chain_skeleton,
    expected_log_likelihoods,
    extract_peaks,
    multi_peak_entropy,
    ood_ranking_auc,
    refine_pose,
    refine_poses,
    render_gaussian_heatmap,
    score_pool,
    select_batch,
    validate_skeleton,
)
from poselik.likelihood import PeakStack
from poselik.selection import _random_score

from _helpers import assert_same_peaks, batch_of, oracle_auc, peakset_of


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
    return Pose(np.column_stack([rows, cols]))


def render(pose, size=64):
    return render_gaussian_heatmap(pose, size, size, peak_sigma=1.5)


def make_pool(heatmaps, labeled=None):
    peaks = batch_of([extract_peaks(heatmap) for heatmap in heatmaps.values()], joint_count=3)
    unlabeled = {sample_id: i for i, sample_id in enumerate(heatmaps)}
    return SamplePool(labeled=dict(labeled or {}), unlabeled=unlabeled, peaks=peaks)


class TestSamplePool:
    def test_rejects_overlapping_ids(self):
        peaks = extract_peaks(render(vertical_pose(3)))
        with pytest.raises(SchemaError, match="both"):
            SamplePool(labeled={"x": vertical_pose(3)}, unlabeled={"x": 0}, peaks=peaks)

    @pytest.mark.parametrize("row", [-1, 5, 0.0, True], ids=["-1", "5", "0.0", "True"])
    def test_rejects_a_row_that_does_not_index_its_peaks(self, row):
        peaks = extract_peaks(render(vertical_pose(3)))
        with pytest.raises(SchemaError, match=f"'a' has no peaks at row {row!r}"):
            SamplePool(labeled={}, unlabeled={"b": 0, "a": row}, peaks=peaks)
        if row == 5:  # without peaks, any non-negative integer is a row
            assert SamplePool(labeled={}, unlabeled={"b": 0, "a": row}).unlabeled["a"] == 5
        else:
            with pytest.raises(SchemaError, match="'a'"):
                SamplePool(labeled={}, unlabeled={"b": 0, "a": row})

    def test_pool_stores_only_the_peaks(self):
        peaks = extract_peaks(render(vertical_pose(3)))
        pool = SamplePool(labeled={}, unlabeled={"a": 0}, peaks=peaks)
        assert_same_peaks(pool.peaks, peaks)
        assert_same_peaks(pool.peaks_for("a"), peaks)
        assert not any(isinstance(value, Heatmap) for value in vars(pool).values())

    def test_a_sample_without_peaks_has_none_to_give(self):
        """A pool stored without peaks can be ranked at random and labeled,
        but asking for its peaks raises, whoever asks."""
        pool = SamplePool(labeled={}, unlabeled={"b": 0, "a": 1})
        with pytest.raises(MissingHeatmap, match="'b' has no peaks"):
            pool.peaks_for("b")
        with pytest.raises(MissingHeatmap, match="the pool has no peaks"):
            pool.peaks_for()
        assert score_pool(pool, "random").tolist() == [_random_score(0, s) for s in "ba"]
        for strategy in ("vl4pose", "entropy"):
            with pytest.raises(MissingHeatmap, match="'b' has no peaks"):
                score_pool(pool, strategy, chain_model())
        pool.move_to_labeled("b", vertical_pose(3))
        assert score_pool(pool, "random").tolist() == [_random_score(0, "a")]

    def test_move_to_labeled(self):
        pool = make_pool({"a": render(vertical_pose(3))})
        pool.move_to_labeled("a", vertical_pose(3))
        assert "a" in pool.labeled and "a" not in pool.unlabeled
        with pytest.raises(MissingHeatmap):
            pool.move_to_labeled("a", vertical_pose(3))

    def test_peaks_for_returns_the_stored_set(self):
        heatmaps = {"a": render(vertical_pose(3)), "b": render(vertical_pose(3, step=9.0))}
        pool = make_pool(heatmaps)
        first = pool.peaks_for("a")
        assert_same_peaks(first, extract_peaks(heatmaps["a"]))
        assert_same_peaks(pool.peaks_for("a"), first)
        both = [extract_peaks(heatmaps[sample_id]) for sample_id in ("b", "a")]
        assert_same_peaks(pool.peaks_for("b", "a"), batch_of(both))  # in the order asked
        with pytest.raises(MissingHeatmap, match="ghost"):
            pool.peaks_for("ghost")
        with pytest.raises(MissingHeatmap, match="ghost"):
            pool.peaks_for("a", "ghost")

    def test_clone_is_independent_but_shares_peaks(self):
        pool = make_pool({"a": render(vertical_pose(3)), "b": render(vertical_pose(3))})
        peaks = pool.peaks_for("a")
        copy = pool.clone()
        copy.move_to_labeled("a", vertical_pose(3))
        assert "a" in pool.unlabeled  # original untouched
        assert_same_peaks(pool.peaks_for("a"), peaks)
        with pytest.raises(MissingHeatmap):
            copy.peaks_for("a")
        assert_same_peaks(copy.peaks_for("b"), pool.peaks_for("b"))
        assert copy.peaks is pool.peaks


def fresh_scores(peak_sets, model, mode):
    """vl4pose scores of peak sets stacked alone, without a pool."""
    batch = batch_of(peak_sets, joint_count=model.skeleton.n_joints)
    if mode == "max":
        return [pose.log_likelihood for pose in refine_poses(batch, model)]
    return [report.total for report in expected_log_likelihoods(batch, model)]


class TestPoolStacks:
    """A pool stacks its peaks once per skeleton and link family, and every
    round scores that whole stack and keeps the unlabeled rows: what the
    unlabeled samples score when stacked alone."""

    def samples(self):
        return [
            extract_peaks(render(vertical_pose(3, start=(20, 10 + 3 * i), step=5.0 + i)))
            for i in range(4)
        ]

    def test_a_sample_moved_to_labeled_leaves_the_scores_of_the_rest(self):
        good = self.samples()[:3]
        pool = SamplePool({}, {"a": 0, "b": 1, "c": 2}, batch_of(good))
        model = chain_model()
        for mode in ("max", "expected"):
            scores = score_pool(pool, "vl4pose", model, mode=mode)
            assert scores.tolist() == fresh_scores(good, model, mode)
        pool.move_to_labeled("b", vertical_pose(3))
        for mode in ("max", "expected"):
            scores = score_pool(pool, "vl4pose", model, mode=mode)
            assert scores.tolist() == fresh_scores([good[0], good[2]], model, mode)
        assert pool.stack(model) is pool.stack(model)  # built by the first call

    def test_each_skeleton_and_link_family_gets_its_own_stack(self, monkeypatch):
        peak_sets = self.samples()
        pool = SamplePool({}, {f"s{i}": i for i in range(4)}, batch_of(peak_sets))
        built = []  # the pools' stacks, as built
        of = PeakStack.of

        def counted(peaks, skeleton, family):
            if peaks is pool.peaks:
                built.append((skeleton, family))
            return of(peaks, skeleton, family)

        monkeypatch.setattr(PeakStack, "of", counted)
        distance = chain_model()
        offset = PoseModelParams(
            skeleton=distance.skeleton,
            link_params=(OffsetParams([0.0, 6.0], np.eye(2)),) * 2,
            model_kind="offset",
        )
        star = validate_skeleton(
            {"joints": ["j0", "j1", "j2"], "root": 0, "links": [[0, 1], [0, 2]]}
        )
        fan = PoseModelParams(
            skeleton=star, link_params=distance.link_params, model_kind="distance"
        )
        copy = pool.clone()
        for model in (distance, offset, fan, distance):
            for mode in ("max", "expected"):
                scores = score_pool(copy, "vl4pose", model, mode=mode)
                assert scores.tolist() == fresh_scores(peak_sets, model, mode)
        keys = [(distance.skeleton, "distance"), (distance.skeleton, "offset"), (star, "distance")]
        assert built == keys  # each once, on first use
        models = (distance, offset, fan)
        for model in models:
            score_pool(pool, "vl4pose", model)
        assert built == keys * 2  # the clone's cache was its own
        for model, (skeleton, family) in zip(models, keys):
            stack = pool.stack(model)
            assert stack is pool.stack(model) and stack is not copy.stack(model)
            assert len(stack.links) == len(skeleton.links)
            assert {link.ndim for link in stack.links} == {3 if family == "distance" else 4}
        assert built == keys * 2

    def test_a_pool_takes_no_stack(self):
        """A pool builds its own stacks: one it was handed could be another
        pool's, whose rows belong to other samples."""
        peak_sets = self.samples()
        model = chain_model()
        other = SamplePool({}, {"y": 0}, batch_of(peak_sets[:1]))
        foreign = {(model.skeleton, "distance"): other.stack(model)}
        with pytest.raises(TypeError):
            SamplePool({}, {"x": 0}, batch_of(peak_sets[1:2]), foreign)

    def test_new_peaks_get_a_new_stack(self):
        peak_sets = self.samples()
        pool = SamplePool({}, {"a": 0, "b": 1}, batch_of(peak_sets[:2]))
        model = chain_model()
        score_pool(pool, "vl4pose", model, mode="max")
        with pytest.raises(dataclasses.FrozenInstanceError):
            pool.peaks = batch_of(peak_sets[2:])  # so a cached stack is never stale
        pool = SamplePool({}, {"a": 0, "b": 1}, batch_of(peak_sets[2:]))
        scores = score_pool(pool, "vl4pose", model, mode="max")
        assert scores.tolist() == fresh_scores(peak_sets[2:], model, "max")


class TestScorePool:
    def test_all_strategies_produce_finite_scores(self):
        pool = make_pool({f"s{i}": render(vertical_pose(3)) for i in range(4)})
        model = chain_model()
        for strategy in STRATEGIES:
            scores = score_pool(pool, strategy, model)
            assert scores.dtype == np.float64 and scores.shape == (len(pool.unlabeled),)
            assert np.isfinite(scores).all()

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
        pool = make_pool(heatmaps)
        scores = dict(zip(pool.unlabeled, score_pool(pool, "vl4pose", chain_model()).tolist()))
        assert max(s for i, s in scores.items() if i != "weird") > scores["weird"]
        assert min(scores, key=scores.get) == "weird"

    def test_identical_heatmaps_identical_scores(self):
        hm = render(vertical_pose(3))
        pool = make_pool({"a": hm, "b": Heatmap(hm.values.copy())})
        for strategy in ("vl4pose", "entropy"):
            scores = score_pool(pool, strategy, chain_model())
            assert scores[0] == scores[1]

    def test_max_mode_uses_refined_likelihood(self):
        pool = make_pool({"a": render(vertical_pose(3))})
        model = chain_model()
        scores = score_pool(pool, "vl4pose", model, mode="max")
        refined = refine_pose(pool.peaks_for("a"), model)
        assert scores.tolist() == [refined.log_likelihood]
        with pytest.raises(SchemaError, match="mode"):
            score_pool(pool, "vl4pose", model, mode="argmax")

    def test_max_mode_raises_what_refine_pose_raises(self):
        """The batched DP raises what refining the sample alone raises for a
        wrong joint count (one batch has one joint count, so such a pool
        holds no good sample). A sample with an empty joint is refused when
        its peak set is built, so neither is ever given one."""
        model = chain_model()
        with pytest.raises(EmptyPeakSet, match="sample 0 joint 1 has no candidate peaks"):
            peakset_of([[((1, 1), 1.0, 1.0)], [], [((3, 3), 1.0, 1.0)]])
        two_joints = peakset_of([[((1, 1), 1.0, 1.0)], [((3, 3), 1.0, 1.0)]])
        with pytest.raises(DimensionMismatch) as single:
            refine_pose(two_joints, model)
        pool = SamplePool(labeled={}, unlabeled={"bad": 0}, peaks=batch_of([two_joints]))
        with pytest.raises(DimensionMismatch) as batched:
            score_pool(pool, "vl4pose", model, mode="max")
        assert str(batched.value) == str(single.value)

    def test_entropy_matches_peak_entropy_and_alias(self):
        pool = make_pool({"a": render(vertical_pose(3))})
        expected = multi_peak_entropy(pool.peaks_for("a"))
        assert score_pool(pool, "entropy").tolist() == [expected]
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
                selected = select_batch(scores, strategy, budget)
                assert list(selected) == self.oracle_order(scores, strategy)[:budget]

    def test_budget_edges(self):
        scores = {"a": 1.0, "b": 0.0}
        assert select_batch(scores, "vl4pose", 0) == ()
        assert select_batch(scores, "vl4pose", 2) == ("b", "a")
        with pytest.raises(BudgetExceedsPool):
            select_batch(scores, "vl4pose", 3)
        with pytest.raises(SchemaError):
            select_batch(scores, "vl4pose", -1)

    def test_entropy_takes_highest_first(self):
        scores = {"low": 0.1, "mid": 0.5, "high": 0.9}
        assert select_batch(scores, "entropy", 2) == ("high", "mid")
        assert select_batch(scores, "vl4pose", 2) == ("low", "mid")

    def test_iteration_order_invariance(self):
        scores = {"c": 2.0, "a": 1.0, "b": 1.0}
        flipped = dict(reversed(list(scores.items())))
        assert (
            select_batch(scores, "vl4pose", 2)
            == select_batch(flipped, "vl4pose", 2)
            == ("a", "b")
        )

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(42)
        scores = {f"s{i}": float(rng.normal()) for i in range(12)}
        shifted = {i: s + 100.0 for i, s in scores.items()}
        for strategy in STRATEGIES:
            assert (
                select_batch(scores, strategy, 5)
                == select_batch(shifted, strategy, 5)
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
