"""Tests for point/expected log-likelihood and max-likelihood refinement."""

import math

import numpy as np
import pytest

from poselik import (
    DimensionMismatch,
    DistanceParams,
    EmptyPeakSet,
    OffsetParams,
    Pose,
    PoseModelParams,
    SchemaError,
    SearchSpaceTooLarge,
    brute_force_best_pose,
    expected_log_likelihood,
    link_log_density,
    multi_peak_entropy,
    point_log_likelihood,
    refine_pose,
    refinement_objective,
    root_log_density,
    validate_skeleton,
)

from _helpers import (
    oracle_best_config,
    oracle_config_objective,
    oracle_distance_logpdf,
    oracle_expected_ll,
    oracle_expected_ll_by_enumeration,
    oracle_offset_logpdf,
    oracle_peakset_entropy,
    oracle_point_ll,
    peakset_of,
    random_distance_model,
    random_offset_model,
    random_peakset,
    random_tree_skeleton,
)

HALF_LOG_2PI = 0.9189385332046727


def chain(n, dimension=2):
    return validate_skeleton(
        {
            "joints": [f"j{i}" for i in range(n)],
            "root": 0,
            "dimension": dimension,
            "links": [[i, i + 1] for i in range(n - 1)],
        }
    )


def peakset_from(spec):
    """Build a PeakSet from [(loc, prob), ...] lists, one per joint."""
    return peakset_of([[(loc, prob, prob) for loc, prob in joint] for joint in spec])


class TestLinkDensities:
    """Scalar Gaussian log-density anchors and oracle agreement."""

    def test_distance_zero_residual_unit_sigma(self):
        value = link_log_density((0.0, 0.0), (5.0, 0.0), DistanceParams(5.0, 1.0))
        assert value == pytest.approx(-HALF_LOG_2PI, abs=1e-12)

    def test_distance_known_sigma_two(self):
        value = link_log_density((0.0, 0.0), (3.0, 4.0), DistanceParams(5.0, 2.0))
        assert value == pytest.approx(-1.612085713764618, abs=1e-12)

    def test_offset_identity_covariance_zero_residual(self):
        params = OffsetParams(offset=np.array([2.0, 3.0]), covariance=np.eye(2))
        value = link_log_density((1.0, 1.0), (3.0, 4.0), params)
        assert value == pytest.approx(-2 * HALF_LOG_2PI, abs=1e-12)

    def test_offset_identity_covariance_3d(self):
        params = OffsetParams(offset=np.zeros(3), covariance=np.eye(3))
        value = link_log_density((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), params)
        assert value == pytest.approx(-3 * HALF_LOG_2PI, abs=1e-12)

    def test_distance_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            parent = rng.uniform(-20, 20, size=2)
            child = rng.uniform(-20, 20, size=2)
            params = DistanceParams(float(rng.uniform(0.1, 15)), float(rng.uniform(0.2, 4)))
            assert link_log_density(parent, child, params) == pytest.approx(
                oracle_distance_logpdf(parent, child, params.mean_distance, params.sigma),
                abs=1e-12,
            )

    def test_offset_matches_closed_form_oracle(self):
        rng = np.random.default_rng(42)
        for dim in (2, 3):
            for _ in range(50):
                a = rng.uniform(-1, 1, size=(dim, dim))
                params = OffsetParams(
                    offset=rng.uniform(-5, 5, size=dim),
                    covariance=a @ a.T + 0.4 * np.eye(dim),
                )
                parent = rng.uniform(-20, 20, size=dim)
                child = rng.uniform(-20, 20, size=dim)
                assert link_log_density(parent, child, params) == pytest.approx(
                    oracle_offset_logpdf(parent, child, params.offset, params.covariance),
                    abs=1e-9,
                )

    def test_offset_dimension_checked(self):
        params = OffsetParams(offset=np.zeros(2), covariance=np.eye(2))
        with pytest.raises(DimensionMismatch):
            link_log_density((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), params)

    def test_root_density_variants(self):
        assert root_log_density((3.0, 4.0), None) == 0.0
        dist = root_log_density((3.0, 4.0), DistanceParams(5.0, 1.0))
        assert dist == pytest.approx(-HALF_LOG_2PI, abs=1e-12)
        off = root_log_density(
            (3.0, 4.0), OffsetParams(offset=np.array([3.0, 4.0]), covariance=np.eye(2))
        )
        assert off == pytest.approx(-2 * HALF_LOG_2PI, abs=1e-12)


class TestPointLogLikelihood:
    def test_matches_oracle_on_random_trees(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            skel = random_tree_skeleton(rng, int(rng.integers(2, 10)))
            model = random_distance_model(rng, skel, root_prior=bool(rng.integers(2)))
            coords = rng.uniform(0, 40, size=(skel.n_joints, 2))
            report = point_log_likelihood(Pose(coords), model)
            assert report.total == pytest.approx(oracle_point_ll(coords, model), abs=1e-9)
            assert report.mode == "point"
            assert report.total == pytest.approx(
                report.root_term + sum(report.per_link_terms), abs=1e-9
            )

    def test_offset_model_matches_oracle(self):
        rng = np.random.default_rng(42)
        skel = random_tree_skeleton(rng, 5)
        model = random_offset_model(rng, skel)
        coords = rng.uniform(0, 40, size=(5, 2))
        report = point_log_likelihood(Pose(coords), model)
        assert report.total == pytest.approx(oracle_point_ll(coords, model), abs=1e-9)

    def test_additive_over_links(self):
        """Changing one link's params changes exactly that per-link term."""
        rng = np.random.default_rng(42)
        skel = random_tree_skeleton(rng, 6)
        model = random_distance_model(rng, skel)
        coords = rng.uniform(0, 40, size=(6, 2))
        base = point_log_likelihood(Pose(coords), model)
        bumped_links = list(model.link_params)
        bumped_links[2] = DistanceParams(
            bumped_links[2].mean_distance + 1.0, bumped_links[2].sigma
        )
        bumped = point_log_likelihood(
            Pose(coords),
            PoseModelParams(skeleton=skel, link_params=tuple(bumped_links), model_kind="distance"),
        )
        for i in range(skel.n_links):
            if i == 2:
                assert bumped.per_link_terms[i] != base.per_link_terms[i]
            else:
                assert bumped.per_link_terms[i] == base.per_link_terms[i]

    def test_translation_invariance_distance_mode(self):
        rng = np.random.default_rng(42)
        skel = random_tree_skeleton(rng, 7)
        model = random_distance_model(rng, skel)
        coords = rng.integers(0, 40, size=(7, 2)).astype(np.float64)
        base = point_log_likelihood(Pose(coords), model)
        moved = point_log_likelihood(Pose(coords + np.array([13.0, -7.0])), model)
        assert moved.total == base.total  # integer shift: exact

    def test_validation(self):
        skel = chain(3)
        model = PoseModelParams(
            skeleton=skel,
            link_params=(DistanceParams(5, 1), DistanceParams(5, 1)),
            model_kind="distance",
        )
        with pytest.raises(DimensionMismatch):
            point_log_likelihood(Pose(np.zeros((2, 2))), model)
        with pytest.raises(DimensionMismatch):
            point_log_likelihood(Pose(np.zeros((3, 3))), model)


class TestExpectedLogLikelihood:
    def test_single_peak_equals_point(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            skel = random_tree_skeleton(rng, int(rng.integers(2, 8)))
            model = random_distance_model(rng, skel, root_prior=True)
            peaks = random_peakset(rng, skel.n_joints, counts=[1] * skel.n_joints)
            expected = expected_log_likelihood(peaks, model)
            point = point_log_likelihood(Pose(peaks.locs[peaks.offsets[:-1]]), model)
            assert expected.total == pytest.approx(point.total, abs=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            skel = random_tree_skeleton(rng, int(rng.integers(2, 8)))
            model = random_distance_model(rng, skel, root_prior=bool(rng.integers(2)))
            peaks = random_peakset(rng, skel.n_joints, max_peaks=4)
            report = expected_log_likelihood(peaks, model)
            assert report.total == pytest.approx(oracle_expected_ll(peaks, model), abs=1e-9)
            assert report.mode == "expected"

    def test_matches_enumeration_on_small_chain(self):
        """3-joint chains, at most 3 peaks each: the pairwise-marginal sum
        equals the full <=27-configuration enumeration."""
        rng = np.random.default_rng(42)
        skel = chain(3)
        for _ in range(20):
            model = random_distance_model(rng, skel)
            counts = [int(rng.integers(1, 4)) for _ in range(3)]
            peaks = random_peakset(rng, 3, counts=counts)
            report = expected_log_likelihood(peaks, model)
            assert report.total == pytest.approx(
                oracle_expected_ll_by_enumeration(peaks, model), abs=1e-9
            )

    def test_offset_model_supported(self):
        rng = np.random.default_rng(42)
        skel = random_tree_skeleton(rng, 4)
        model = random_offset_model(rng, skel)
        peaks = random_peakset(rng, 4, max_peaks=3)
        report = expected_log_likelihood(peaks, model)
        assert report.total == pytest.approx(oracle_expected_ll(peaks, model), abs=1e-9)

    def test_errors(self):
        skel = chain(2)
        model = PoseModelParams(
            skeleton=skel, link_params=(DistanceParams(5, 1),), model_kind="distance"
        )
        with pytest.raises(EmptyPeakSet, match="j1"):
            expected_log_likelihood(
                peakset_from([[((0, 0), 1.0)], []]), model
            )
        with pytest.raises(DimensionMismatch):
            expected_log_likelihood(peakset_from([[((0, 0), 1.0)]]), model)


class TestRefinePose:
    def test_matches_pure_python_exhaustive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            skel = random_tree_skeleton(rng, int(rng.integers(2, 6)))
            model = random_distance_model(rng, skel, root_prior=bool(rng.integers(2)))
            peaks = random_peakset(rng, skel.n_joints, max_peaks=3)
            refined = refine_pose(peaks, model)
            want_idx, want_score = oracle_best_config(peaks, model)
            assert refined.chosen_peak_index == want_idx
            assert refined.objective == pytest.approx(want_score, abs=1e-9)

    def test_agrees_with_library_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            skel = random_tree_skeleton(rng, int(rng.integers(2, 8)))
            model = random_distance_model(rng, skel, root_prior=bool(rng.integers(2)))
            peaks = random_peakset(rng, skel.n_joints, max_peaks=4)
            a = refine_pose(peaks, model)
            b = brute_force_best_pose(peaks, model)
            assert a.chosen_peak_index == b.chosen_peak_index
            assert a.objective == b.objective  # exact: shared canonical scorer
            assert a.log_likelihood == b.log_likelihood

    def test_log_likelihood_consistency(self):
        """RefinedPose.log_likelihood is the chosen pose's point score."""
        rng = np.random.default_rng(42)
        skel = random_tree_skeleton(rng, 5)
        model = random_distance_model(rng, skel)
        peaks = random_peakset(rng, 5, max_peaks=4)
        refined = refine_pose(peaks, model)
        assert refined.log_likelihood == point_log_likelihood(refined.pose, model).total

    def test_structurally_consistent_peak_beats_global_max(self):
        """A lower-probability peak at the calibrated distance wins when the
        density gap exceeds the probability gap."""
        skel = chain(2)
        model = PoseModelParams(
            skeleton=skel, link_params=(DistanceParams(5.0, 1.0),), model_kind="distance"
        )
        peaks = peakset_from(
            [
                [((10, 10), 1.0)],
                [((10, 30), 0.9), ((10, 15), 0.1)],  # global max 20px off; alt at 5px
            ]
        )
        refined = refine_pose(peaks, model)
        assert refined.chosen_peak_index == (0, 1)
        np.testing.assert_array_equal(refined.pose.coordinates[1], [10, 15])
        # Verify by enumerating both configurations.
        keep_max = oracle_config_objective(peaks, model, [0, 0])
        keep_alt = oracle_config_objective(peaks, model, [0, 1])
        assert keep_alt > keep_max

    def test_hand_enumerated_eight_configurations(self):
        """3-joint chain, 2 peaks each: all 8 selections scored by hand."""
        skel = chain(3)
        model = PoseModelParams(
            skeleton=skel,
            link_params=(DistanceParams(5.0, 1.0), DistanceParams(4.0, 2.0)),
            model_kind="distance",
        )
        spec = [
            [((0, 0), 0.6), ((0, 2), 0.4)],
            [((0, 5), 0.7), ((3, 4), 0.3)],
            [((0, 9), 0.8), ((4, 5), 0.2)],
        ]
        peaks = peakset_from(spec)
        scores = {}
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    total = (
                        math.log(spec[0][a][1])
                        + math.log(spec[1][b][1])
                        + math.log(spec[2][c][1])
                        + oracle_distance_logpdf(spec[0][a][0], spec[1][b][0], 5.0, 1.0)
                        + oracle_distance_logpdf(spec[1][b][0], spec[2][c][0], 4.0, 2.0)
                    )
                    scores[(a, b, c)] = total
        best = max(sorted(scores), key=lambda k: scores[k])
        refined = refine_pose(peaks, model)
        brute = brute_force_best_pose(peaks, model)
        assert refined.chosen_peak_index == best
        assert brute.chosen_peak_index == best
        assert refined.objective == pytest.approx(scores[best], abs=1e-12)

    def test_tie_breaks_to_lowest_peak_index(self):
        """Two exactly symmetric child peaks: index 0 must win in both the
        dynamic program and the exhaustive scorer."""
        skel = chain(2)
        model = PoseModelParams(
            skeleton=skel, link_params=(DistanceParams(5.0, 1.0),), model_kind="distance"
        )
        peaks = peakset_from(
            [
                [((10, 10), 1.0)],
                [((10, 15), 0.5), ((10, 5), 0.5)],  # same distance, same prob
            ]
        )
        assert refine_pose(peaks, model).chosen_peak_index == (0, 0)
        assert brute_force_best_pose(peaks, model).chosen_peak_index == (0, 0)

    def test_root_tie_breaks_to_lowest_root_index(self):
        skel = chain(2)
        model = PoseModelParams(
            skeleton=skel, link_params=(DistanceParams(5.0, 1.0),), model_kind="distance"
        )
        peaks = peakset_from(
            [
                [((10, 10), 0.5), ((20, 10), 0.5)],
                [((10, 15), 0.5), ((20, 15), 0.5)],
            ]
        )
        # Configurations (0,0) and (1,1) score identically; BFS-lex picks (0,0).
        assert refine_pose(peaks, model).chosen_peak_index == (0, 0)
        assert brute_force_best_pose(peaks, model).chosen_peak_index == (0, 0)

    def test_brute_force_guard(self):
        skel = chain(7)
        model = PoseModelParams(
            skeleton=skel,
            link_params=tuple(DistanceParams(5.0, 1.0) for _ in range(6)),
            model_kind="distance",
        )
        rng = np.random.default_rng(42)
        peaks = random_peakset(rng, 7, counts=[10] * 7, grid=64)  # 10^7 configs
        with pytest.raises(SearchSpaceTooLarge):
            brute_force_best_pose(peaks, model)
        refine_pose(peaks, model)  # the DP is unaffected by the guard

    def test_zero_probability_peak_never_chosen(self):
        skel = chain(2)
        model = PoseModelParams(
            skeleton=skel, link_params=(DistanceParams(5.0, 1.0),), model_kind="distance"
        )
        peaks = peakset_from(
            [
                [((10, 10), 1.0)],
                [((10, 15), 0.0), ((10, 14), 1.0)],  # index 0 is perfect but impossible
            ]
        )
        assert refine_pose(peaks, model).chosen_peak_index == (0, 1)
        assert brute_force_best_pose(peaks, model).chosen_peak_index == (0, 1)

    def test_refinement_objective_checks_the_selection(self):
        model = PoseModelParams(
            skeleton=chain(3),
            link_params=(DistanceParams(5.0, 1.0), DistanceParams(5.0, 1.0)),
            model_kind="distance",
        )
        peaks = peakset_from([[((10, 10), 0.6), ((10, 20), 0.4)]] * 3)
        assert refinement_objective(peaks, model, [1, 0, 0]) == refinement_objective(
            peaks, model, (np.int64(1), 0, 0)
        )
        for indices in ([-1, 0, 0], [2, 0, 0], [0, 1.0, 0]):
            with pytest.raises(SchemaError, match=r"joint 'j.*' must be an integer in 0\.\.1"):
                refinement_objective(peaks, model, indices)
        with pytest.raises(DimensionMismatch, match="2 peak indices, skeleton has 3 joints"):
            refinement_objective(peaks, model, [0, 0])


class TestMultiPeakEntropy:
    def test_single_peak_is_exactly_zero(self):
        peaks = peakset_from([[((1, 1), 1.0)], [((2, 2), 1.0)]])
        assert multi_peak_entropy(peaks) == 0.0

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            peaks = random_peakset(rng, int(rng.integers(1, 10)), max_peaks=6)
            assert multi_peak_entropy(peaks) == pytest.approx(
                oracle_peakset_entropy(peaks), abs=1e-12
            )

    def test_uniform_peaks_maximize(self):
        uniform = peakset_from([[((0, 0), 0.25), ((0, 1), 0.25), ((0, 2), 0.25), ((0, 3), 0.25)]])
        assert multi_peak_entropy(uniform) == pytest.approx(math.log(4), abs=1e-12)

    def test_empty_errors(self):
        with pytest.raises(EmptyPeakSet):
            multi_peak_entropy(peakset_of([]))
        with pytest.raises(EmptyPeakSet):
            multi_peak_entropy(peakset_of([[]]))


@pytest.mark.parametrize("samples", [0, 2, 3])
def test_one_sample_scorers_reject_any_other_batch(samples):
    """A one-sample scorer given a batch of 0 or of 2 or more samples raises,
    rather than score the batch's first sample."""
    model = PoseModelParams(
        skeleton=chain(2), link_params=(DistanceParams(5.0, 1.0),), model_kind="distance"
    )
    batch = peakset_from([[((0, 0), 1.0)], [((0, 5), 1.0)]]).take([0] * samples)
    calls = [
        lambda: expected_log_likelihood(batch, model),
        lambda: refine_pose(batch, model),
        lambda: brute_force_best_pose(batch, model),
        lambda: refinement_objective(batch, model, [0, 0]),
        lambda: multi_peak_entropy(batch),
    ]
    for call in calls:
        with pytest.raises(SchemaError, match=f"one sample, got a batch of {samples}"):
            call()


class TestSerialization:
    def test_report_record_shape(self):
        skel = chain(2)
        model = PoseModelParams(
            skeleton=skel, link_params=(DistanceParams(5.0, 1.0),), model_kind="distance"
        )
        report = point_log_likelihood(Pose([[0, 0], [0, 5]]), model)
        record = report.to_json_dict("s1")
        assert record == {
            "id": "s1",
            "mode": "point",
            "total": report.total,
            "root": 0.0,
            "per_link": [report.per_link_terms[0]],
        }

    def test_refined_record_shape(self):
        skel = chain(2)
        model = PoseModelParams(
            skeleton=skel, link_params=(DistanceParams(5.0, 1.0),), model_kind="distance"
        )
        peaks = peakset_from([[((0, 0), 1.0)], [((0, 5), 1.0)]])
        refined = refine_pose(peaks, model)
        report = point_log_likelihood(refined.pose, model)
        record = refined.to_json_dict("s1")
        assert record["id"] == "s1"
        assert record["mode"] == "refined"
        assert record["pose"] == [[0, 0], [0, 5]]
        assert record["peak_index"] == [0, 0]
        assert record["total"] == refined.log_likelihood
        assert record["per_link"] == list(report.per_link_terms)
