"""Tests for point/expected log-likelihood and max-likelihood refinement."""

import math

import numpy as np
import pytest

from poselik import (
    DimensionMismatch,
    DistanceParams,
    EmptyPeakSet,
    Heatmap,
    OffsetParams,
    Pose,
    PoseModelParams,
    SchemaError,
    SearchSpaceTooLarge,
    SimulationConfig,
    brute_force_best_pose,
    expected_log_likelihood,
    expected_log_likelihoods,
    extract_peaks,
    link_log_density,
    multi_peak_entropy,
    point_log_likelihood,
    point_log_likelihoods,
    refine_pose,
    refine_poses,
    refinement_objective,
    run_simulation,
    validate_skeleton,
)
from poselik import likelihood, simulation

from _helpers import (
    SUM_OVERFLOW_POSE,
    batch_of,
    far_offset_law,
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
    sum_overflow_law,
    underflow_case,
    UNDERFLOW_SKELETON_DOC,
    UNDERFLOW_TOTAL,
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
        # A root prior is a link law from the grid origin to the root.
        pose = Pose([[3.0, 4.0], [3.0, 10.0]])
        cases = [
            ("distance", DistanceParams(6.0, 1.0), DistanceParams(5.0, 1.0), -HALF_LOG_2PI),
            ("offset", OffsetParams([0.0, 6.0], np.eye(2)), OffsetParams([3.0, 4.0], np.eye(2)),
             -2 * HALF_LOG_2PI),
        ]
        for kind, law, prior, expected in cases:
            assert link_log_density((0.0, 0.0), (3.0, 4.0), prior) == pytest.approx(
                expected, abs=1e-12
            )
            uniform = PoseModelParams(chain(2), (law,), kind)
            assert point_log_likelihood(pose, uniform).root_term == 0.0
            model = PoseModelParams(chain(2), (law,), kind, root_params=prior)
            assert point_log_likelihood(pose, model).root_term == pytest.approx(
                expected, abs=1e-12
            )


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
        """A joint with no peaks is refused when its peak set is built, so no
        scorer is given one; a set of another joint count, by the scorer."""
        skel = chain(2)
        model = PoseModelParams(
            skeleton=skel, link_params=(DistanceParams(5, 1),), model_kind="distance"
        )
        with pytest.raises(EmptyPeakSet, match="sample 0 joint 1 has no candidate peaks"):
            peakset_from([[((0, 0), 1.0)], []])
        with pytest.raises(DimensionMismatch):
            expected_log_likelihood(peakset_from([[((0, 0), 1.0)]]), model)

    def test_a_peak_of_probability_zero_adds_nothing(self):
        """A peak whose softmax underflows to 0 lies outside its joint's
        distribution, even with a ``-inf`` density: the expectation is that
        of the set without it, which the refined objective also reaches."""
        values, model = underflow_case()
        peaks = extract_peaks(Heatmap(values))
        assert peaks.probs.tolist() == [1.0, 1.0, 0.0]
        without = peakset_of([[((4, 4), 1.0, 1.0)], [((4, 9), 3e38, 1.0)]])
        totals = [
            expected_log_likelihood(peaks, model).total,
            expected_log_likelihood(without, model).total,
            refine_pose(peaks, model).objective,
        ]
        assert totals == [UNDERFLOW_TOTAL] * 3

    def test_a_root_peak_of_probability_zero_adds_nothing(self):
        """A root peak of probability 0 with a ``-inf`` root prior density
        adds nothing either: the root expectation discards its ``0 * -inf``."""
        values = np.zeros((2, 16, 16), dtype=np.float32)
        values[0, 4, 4], values[0, 12, 12], values[1, 4, 9] = 3e38, 2e38, 1.0
        model = PoseModelParams(
            validate_skeleton(UNDERFLOW_SKELETON_DOC), (OffsetParams([0.0, 5.0], np.eye(2)),),
            "offset", root_params=OffsetParams([4.0, 4.0], 1e-320 * np.eye(2)),
        )
        peaks = extract_peaks(Heatmap(values))
        assert peaks.probs.tolist() == [1.0, 0.0, 1.0]
        without = peakset_of([[((4, 4), 3e38, 1.0)], [((4, 9), 1.0, 1.0)]])
        totals = [
            expected_log_likelihood(peaks, model).total,
            expected_log_likelihood(without, model).total,
            refine_pose(peaks, model).objective,
        ]
        assert totals == [733.1514867581553] * 3

    def test_a_residual_whitened_past_the_float_range_scores_minus_inf(self):
        """A residual whitened past the float range is an infinite distance,
        never ``0 * inf`` or ``inf - inf``: every scorer gives ``-inf``."""
        law = far_offset_law()
        model = PoseModelParams(validate_skeleton(UNDERFLOW_SKELETON_DOC), (law,), "offset")
        peaks = peakset_from([[((0, 0), 1.0)], [((0, 5), 1.0)]])
        assert [
            expected_log_likelihood(peaks, model).total,
            refine_pose(peaks, model).objective,
            point_log_likelihood(Pose([[0.0, 0.0], [0.0, 5.0]]), model).total,
            link_log_density((0.0, 0.0), (0.0, 5.0), law),
        ] == [-math.inf] * 4

    def test_coordinates_whose_squares_pass_int64_score_in_float64(self):
        """Past ``2**31`` a sum of two squared coordinates leaves int64; the
        stack scores such cells in float64, as point scoring reads them."""
        model = PoseModelParams(
            skeleton=chain(2), link_params=(DistanceParams(3e9, 1.0),), model_kind="distance"
        )
        far = 3_000_000_000
        peaks = peakset_from([[((0, 0), 1.0)], [((far, far), 1.0)]])
        point = point_log_likelihood(Pose([[0.0, 0.0], [far, far]]), model).total
        assert point == -7.720779386421445e17
        assert expected_log_likelihood(peaks, model).total == point
        assert refine_pose(peaks, model).log_likelihood == point

    def test_a_single_peak_sample_scores_what_its_pose_scores(self):
        """Cells whose squared distance passes ``2**53``: the stack rounds
        each square and their sum as point scoring does, never exactly."""
        model = PoseModelParams(chain(2), (DistanceParams(1780865957.0, 1e6),), "distance")
        cells = [(0, 0), (1139306594, 1607981975)]
        peaks = peakset_from([[(cell, 1.0)] for cell in cells])
        assert [
            point_log_likelihood(Pose(cells), model).total,
            expected_log_likelihood(peaks, model).total,
            refine_pose(peaks, model).log_likelihood,
        ] == [-18031.629753812387] * 3


class TestSumsPastTheFloatRange:
    """Finite terms whose sum passes the float range total ``-inf``, with no
    numpy warning: the suite turns a ``RuntimeWarning`` into an error."""

    def test_every_peak_scorer_totals_minus_inf(self):
        model = PoseModelParams(chain(4), (sum_overflow_law(),) * 3, "offset")
        peaks = peakset_from([[((4, 2 + 3 * j), 1.0)] for j in range(4)])
        refined = refine_pose(peaks, model)  # the tree DP, its finish and its total
        assert refined.per_link_terms == (-8.035714285714286e307,) * 3
        assert (refined.log_likelihood, refined.objective) == (-math.inf, -math.inf)
        oracle = brute_force_best_pose(peaks, model)
        assert (oracle.chosen_peak_index, oracle.objective) == ((0, 0, 0, 0), -math.inf)
        assert refinement_objective(peaks, model, [0, 0, 0, 0]) == -math.inf
        assert expected_log_likelihood(peaks, model).total == -math.inf

    def test_a_point_pose_totals_minus_inf(self):
        model = PoseModelParams(chain(4), (DistanceParams(0.0, 1.0),) * 3, "distance")
        report = point_log_likelihood(Pose(SUM_OVERFLOW_POSE), model)
        assert all(-9e307 < term < -8e307 for term in report.per_link_terms)
        assert report.total == -math.inf


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
        for indices in ([-1, 0, 0], [2, 0, 0], [0, 1.0, 0], [True, 0, 0], [0, False, 0]):
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


def compensated_sum(values, start=0):
    """The builtin ``sum`` as Python 3.12 and later add floats: Neumaier-
    compensated. Anything but floats from 0 goes to the builtin ``sum``."""
    values = list(values)
    if start != 0 or not all(type(v) is float for v in values):
        return sum(values, start)
    total = compensation = 0.0
    for v in values:
        added = total + v
        compensation += (total - added) + v if abs(total) >= abs(v) else (v - added) + total
        total = added
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_totals_have_the_same_bits_under_a_compensated_sum(monkeypatch):
    """Every total adds float64 columns one add at a time, so a ``sum`` that
    compensates float additions, as Python 3.12's does, changes no bit."""
    rng = np.random.default_rng(5)
    joints = 12
    model = random_distance_model(rng, random_tree_skeleton(rng, joints), root_prior=True)
    peaks = batch_of([random_peakset(rng, joints, max_peaks=3) for _ in range(40)])
    poses = [Pose(rng.uniform(0.0, 64.0, size=(joints, 2))) for _ in range(40)]
    links = 7

    def generator(mean):
        return {"link_means": [mean] * links, "link_sds": [1] * links,
                "angle_ranges": [[-0.6, 0.6]] * links}

    cfg = SimulationConfig.from_dict({
        "seed": 5, "rounds": 3, "budget": 4,
        "pool": {"labeled": 12, "unlabeled": 40, "ood": 4, "heldout": 30},
        "skeleton": {"joints": links + 1}, "generator": generator(5), "ood_generator": generator(8),
        "heatmap": {"height": 96, "width": 96, "peak_sigma": 1.5, "distractors": 2},
    })

    def outputs():
        refined = refine_poses(peaks, model)
        return repr((
            [report.total for report in expected_log_likelihoods(peaks, model)],
            [(pose.log_likelihood, pose.objective) for pose in refined],
            [point_log_likelihood(pose, model).total for pose in poses],
            point_log_likelihoods(poses, model),
            run_simulation(cfg).report,
        )), refined

    plain, refined = outputs()
    # The inputs are ones whose totals a compensated sum would round otherwise.
    assert any(
        compensated_sum(pose.per_link_terms) != sum(pose.per_link_terms) for pose in refined
    )
    for module in (likelihood, simulation):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert outputs()[0] == plain
