"""Tests for closed-form link-parameter fitting and parameter file IO."""

import json
import math

import numpy as np
import pytest

from poselik import (
    CovarianceNotSPD,
    DistanceParams,
    EmptyInput,
    InsufficientData,
    LabeledPoseSet,
    Pose,
    PoseModelParams,
    SchemaError,
    SIGMA_FLOOR,
    SigmaNonPositive,
    fit_distance_params,
    fit_model,
    fit_offset_params,
    load_image_params,
    point_log_likelihood,
    read_labeled_poses,
    validate_skeleton,
)

from _helpers import oracle_weighted_mean_sd, random_tree_skeleton

TWO_JOINTS = {"joints": ["a", "b"], "root": 0, "dimension": 2, "links": [[0, 1]]}


def poses_with_distances(distances):
    """Horizontal two-joint poses whose link lengths are given exactly."""
    return [Pose([[0.0, 0.0], [0.0, float(d)]]) for d in distances]


class TestLabeledPoseSet:
    def test_needs_two_poses(self):
        skel = validate_skeleton(TWO_JOINTS)
        with pytest.raises(InsufficientData):
            LabeledPoseSet.of(skel, poses_with_distances([5]))

    def test_rejects_shape_mismatches(self):
        skel = validate_skeleton(TWO_JOINTS)
        with pytest.raises(SchemaError):
            LabeledPoseSet.of(skel, [Pose(np.zeros((3, 2)))] * 2)
        with pytest.raises(SchemaError):
            LabeledPoseSet.of(skel, [Pose(np.zeros((2, 3)))] * 2)


class TestFitDistanceParams:
    def test_two_point_known_statistics(self):
        """Distances 4 and 6: mean 5, population sd exactly 1."""
        skel = validate_skeleton(TWO_JOINTS)
        data = LabeledPoseSet.of(skel, poses_with_distances([4, 6]))
        fitted = fit_distance_params(data, 0, 1)
        assert fitted.mean_distance == pytest.approx(5.0, abs=1e-12)
        assert fitted.sigma == pytest.approx(1.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(42)
        skel = validate_skeleton(TWO_JOINTS)
        for _ in range(20):
            distances = rng.uniform(2, 20, size=int(rng.integers(2, 40)))
            data = LabeledPoseSet.of(skel, poses_with_distances(distances))
            fitted = fit_distance_params(data, 0, 1)
            mean, sd = oracle_weighted_mean_sd(list(distances), [1.0] * len(distances))
            assert fitted.mean_distance == pytest.approx(mean, abs=1e-9)
            assert fitted.sigma == pytest.approx(max(sd, SIGMA_FLOOR), abs=1e-9)

    def test_sample_mean_convergence(self):
        """100 draws around a true length: the fit recovers the sample mean
        (and lands within 3 standard errors of it, trivially)."""
        rng = np.random.default_rng(42)
        skel = validate_skeleton(TWO_JOINTS)
        draws = rng.normal(8.0, 1.5, size=100)
        data = LabeledPoseSet.of(skel, poses_with_distances(np.abs(draws)))
        fitted = fit_distance_params(data, 0, 1)
        mean, sd = oracle_weighted_mean_sd(list(np.abs(draws)), [1.0] * 100)
        assert abs(fitted.mean_distance - mean) < 1e-9
        assert abs(fitted.mean_distance - mean) <= 3 * sd / math.sqrt(100)

    def test_sigma_floor_on_degenerate_sample(self):
        skel = validate_skeleton(TWO_JOINTS)
        data = LabeledPoseSet.of(skel, poses_with_distances([5, 5, 5]))
        assert fit_distance_params(data, 0, 1).sigma == SIGMA_FLOOR

    def test_mle_optimality_against_perturbation(self):
        """±1% nudges of the fitted mean or sigma never improve the total
        training point log-likelihood."""
        rng = np.random.default_rng(42)
        skel = validate_skeleton(TWO_JOINTS)
        for _ in range(10):
            distances = rng.uniform(3, 15, size=12)
            data = LabeledPoseSet.of(skel, poses_with_distances(distances))
            fitted = fit_model(data, "distance")

            def training_ll(model):
                return sum(point_log_likelihood(p, model).total for p in data.poses)

            base = training_ll(fitted)
            link = fitted.link_params[0]
            for factor in (0.99, 1.01):
                for candidate in (
                    DistanceParams(link.mean_distance * factor, link.sigma),
                    DistanceParams(link.mean_distance, link.sigma * factor),
                ):
                    perturbed = PoseModelParams(
                        skeleton=skel, link_params=(candidate,), model_kind="distance"
                    )
                    assert training_ll(perturbed) <= base + 1e-12


class TestFitOffsetParams:
    def test_requires_dim_plus_one_poses(self):
        skel = validate_skeleton(TWO_JOINTS)
        data = LabeledPoseSet.of(skel, poses_with_distances([4, 6]))
        with pytest.raises(InsufficientData):
            fit_offset_params(data, 0, 1)

    def test_recovers_known_covariance(self):
        """10^4 displacement samples from a known Gaussian: fitted entries
        within 10% of the truth."""
        rng = np.random.default_rng(42)
        skel = validate_skeleton(TWO_JOINTS)
        true_offset = np.array([2.0, -3.0])
        true_cov = np.array([[2.0, 0.7], [0.7, 1.2]])
        disp = rng.multivariate_normal(true_offset, true_cov, size=10_000)
        poses = [Pose([[0.0, 0.0], list(d)]) for d in disp]
        fitted = fit_offset_params(LabeledPoseSet.of(skel, poses), 0, 1)
        np.testing.assert_allclose(fitted.offset, true_offset, rtol=0.1, atol=0.05)
        np.testing.assert_allclose(fitted.covariance, true_cov, rtol=0.1, atol=0.05)

    def test_matches_weighted_oracle(self):
        rng = np.random.default_rng(42)
        skel = validate_skeleton(TWO_JOINTS)
        disp = rng.uniform(-5, 5, size=(30, 2))
        weights = np.ones(30)
        poses = [Pose([[0.0, 0.0], list(d)]) for d in disp]
        fitted = fit_offset_params(LabeledPoseSet.of(skel, poses), 0, 1)
        w = weights / weights.sum()
        mean = w @ disp
        centered = disp - mean
        cov = (w[:, None] * centered).T @ centered + 1e-6 * np.eye(2)
        np.testing.assert_allclose(fitted.offset, mean, atol=1e-12)
        np.testing.assert_allclose(fitted.covariance, cov, atol=1e-12)

    def test_ridge_rescues_degenerate_sample(self):
        skel = validate_skeleton(TWO_JOINTS)
        poses = poses_with_distances([5, 5, 5, 5])  # identical displacements
        fitted = fit_offset_params(LabeledPoseSet.of(skel, poses), 0, 1)
        np.testing.assert_allclose(fitted.covariance, 1e-6 * np.eye(2), atol=1e-18)


class TestFitModel:
    def test_fits_every_link(self):
        rng = np.random.default_rng(42)
        skel = random_tree_skeleton(rng, 6)
        poses = [Pose(rng.uniform(0, 40, size=(6, 2))) for _ in range(15)]
        data = LabeledPoseSet.of(skel, poses)
        model = fit_model(data, "distance")
        assert len(model.link_params) == skel.n_links
        assert model.model_kind == "distance"
        offset_model = fit_model(data, "offset")
        assert offset_model.model_kind == "offset"

    def test_unknown_kind(self):
        rng = np.random.default_rng(42)
        skel = random_tree_skeleton(rng, 3)
        data = LabeledPoseSet.of(skel, [Pose(rng.uniform(0, 9, size=(3, 2))) for _ in range(4)])
        with pytest.raises(SchemaError):
            fit_model(data, "mystery")

    @pytest.mark.parametrize(
        "fit, message",
        [(fit_distance_params, "mean_distance must be finite"),
         (fit_offset_params, "offset parameters must be finite")],
    )
    def test_a_fit_past_the_float_range_is_refused(self, fit, message):
        """Displacements of 1e308 overflow on the way: each fit, called
        directly, raises its parameter error, not a numpy warning."""
        skel = validate_skeleton({"joints": ["a", "b", "c"], "root": 0, "links": [[0, 1], [1, 2]]})
        poses = [
            Pose([[20, 10], [20, 14 + i], [row, 10]])
            for i, row in enumerate([1e308, -1e308, 1e308, -1e308])
        ]
        with pytest.raises(SchemaError, match=message):
            fit(LabeledPoseSet.of(skel, poses), 1, 2)


class TestLabeledPoseFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "poses.jsonl"
        lines = [
            {"id": "a", "pose": [[0, 0], [0, 5]]},
            {"id": "b", "pose": [[1, 1], [1, 7]]},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")
        records = read_labeled_poses(path)
        assert [r[0] for r in records] == ["a", "b"]
        np.testing.assert_array_equal(records[1][1].coordinates, [[1, 1], [1, 7]])
        skeleton = validate_skeleton(
            {"joints": ["a", "b"], "root": 0, "links": [[0, 1]], "dimension": 2}
        )
        assert [r[0] for r in read_labeled_poses(path, skeleton)] == ["a", "b"]

    @pytest.mark.parametrize(
        "pose, message",
        [
            ([[0, 0], [0, 5]], r":2: pose has 2 joints, skeleton has 3$"),
            ([[0, 0, 1], [0, 5, 1], [0, 9, 1]], r":2: pose dimension 3 != skeleton dimension 2$"),
        ],
        ids=["joint-count", "3-D"],
    )
    def test_shape_is_checked_against_the_skeleton(self, tmp_path, pose, message):
        path = tmp_path / "poses.jsonl"
        path.write_text(
            json.dumps({"id": "a", "pose": [[0, 0], [0, 5], [0, 9]]}) + "\n"
            + json.dumps({"id": "b", "pose": pose}) + "\n",
            encoding="utf-8",
        )
        skeleton = validate_skeleton(
            {"joints": ["a", "b", "c"], "root": 0, "links": [[0, 1], [1, 2]], "dimension": 2}
        )
        with pytest.raises(SchemaError, match=message):
            read_labeled_poses(path, skeleton)
        assert len(read_labeled_poses(path)) == 2  # without a skeleton, any shape reads

    def test_errors(self, tmp_path):
        path = tmp_path / "poses.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyInput):
            read_labeled_poses(path)
        path.write_text("{bad\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=":1"):
            read_labeled_poses(path)
        path.write_text(json.dumps({"id": "a"}) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_labeled_poses(path)
        dup = json.dumps({"id": "a", "pose": [[0, 0]]})
        path.write_text(dup + "\n" + dup + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="duplicate"):
            read_labeled_poses(path)
        # not UTF-8, nested too deep, a coordinate that is not finite or beyond the float range
        # and coordinates that are not JSON numbers
        big = b"1" + b"0" * 400
        for data in (b"\xff\n", b"[" * 200_000 + b"\n", b'{"id": "a", "pose": [[0, NaN]]}\n',
                     b'{"id": "a", "pose": [[0, ' + big + b"]]}\n",
                     b'{"id": "a", "pose": [[true, "3"], [4, 5], [6, "7"]]}\n',
                     b'{"id": "a", "pose": [[0, 1], [2, null]]}\n',
                     b'{"id": "a", "pose": "[[0, 1], [2, 3]]"}\n'):
            path.write_bytes(data)
            with pytest.raises(SchemaError, match=":1: "):
                read_labeled_poses(path)


class TestPerImageParams:
    def write_file(self, tmp_path, per_image, model_kind="distance"):
        path = tmp_path / "per_image.json"
        path.write_text(
            json.dumps({"model_kind": model_kind, "per_image": per_image}),
            encoding="utf-8",
        )
        return path

    def test_load_and_round_trip_many_entries(self, tmp_path):
        """A 1000-image file loads into an identical per-image map."""
        skel = validate_skeleton(TWO_JOINTS)
        rng = np.random.default_rng(42)
        per_image = {
            f"img-{i:04d}": {
                "links": [
                    {"mean": float(rng.uniform(1, 10)), "sigma": float(rng.uniform(0.5, 2))}
                ]
            }
            for i in range(1000)
        }
        path = self.write_file(tmp_path, per_image)
        loaded = load_image_params(path, skel)
        assert sorted(loaded) == sorted(per_image)
        for image_id, entry in per_image.items():
            got = loaded[image_id].link_params[0]
            assert got.mean_distance == entry["links"][0]["mean"]
            assert got.sigma == entry["links"][0]["sigma"]

    def test_root_entry_supported(self, tmp_path):
        skel = validate_skeleton(TWO_JOINTS)
        path = self.write_file(
            tmp_path,
            {"x": {"links": [{"mean": 5, "sigma": 1}], "root": {"mean": 20, "sigma": 4}}},
        )
        loaded = load_image_params(path, skel)
        assert loaded["x"].root_params == DistanceParams(20, 4)

    def test_errors_name_the_image(self, tmp_path):
        skel = validate_skeleton(TWO_JOINTS)
        path = self.write_file(tmp_path, {"imgX": {"links": [{"mean": 5, "sigma": -1}]}})
        with pytest.raises(SigmaNonPositive, match="imgX"):
            load_image_params(path, skel)
        path = self.write_file(tmp_path, {"imgY": {"links": []}})
        with pytest.raises(SchemaError, match="imgY"):
            load_image_params(path, skel)
        path = self.write_file(
            tmp_path,
            {"imgZ": {"links": [{"offset": [0, 0], "covariance": [[1, 2], [2, 1]]}]}},
            model_kind="offset",
        )
        with pytest.raises(CovarianceNotSPD, match="imgZ"):
            load_image_params(path, skel)
        path = self.write_file(
            tmp_path,
            {"imgW": {"links": [{"offset": [0, 0], "covariance": [[6.0, 1.0], [1.0]]}]}},
            model_kind="offset",
        )
        with pytest.raises(SchemaError, match=r"'imgW': links\[0\]"):
            load_image_params(path, skel)
        path = self.write_file(tmp_path, {"imgV": {"links": [{"mean": "5", "sigma": True}]}})
        with pytest.raises(SchemaError, match=r"'imgV': links\[0\]: distance entry"):
            load_image_params(path, skel)
        path = self.write_file(
            tmp_path,
            {"imgU": {"links": [{"mean": 5, "sigma": 1}], "root": {"mean": "20", "sigma": 4}}},
        )
        with pytest.raises(SchemaError, match=r"'imgU': root: distance entry"):
            load_image_params(path, skel)

    def test_document_level_errors(self, tmp_path):
        skel = validate_skeleton(TWO_JOINTS)
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"model_kind": "distance"}), encoding="utf-8")
        with pytest.raises(SchemaError, match="per_image"):
            load_image_params(path, skel)
        path.write_text(json.dumps({"model_kind": "nope", "per_image": {}}), encoding="utf-8")
        with pytest.raises(SchemaError, match="model_kind"):
            load_image_params(path, skel)


# Input checks, each with the input that reaches it and the exact error it
# raises: a file's text, the reader, and the message for the file's ``path``.
UNREACHED_INPUT_CHECKS = {
    "pose-not-2d": (
        '{"id": "a", "pose": []}\n', read_labeled_poses, "{path}:1: pose must be a 2D array",
    ),
    "per-image-not-an-object": (
        '{"model_kind": "distance", "per_image": []}',
        lambda path: load_image_params(path, validate_skeleton(TWO_JOINTS)),
        "{path}: 'per_image' must be an object",
    ),
    "entry-not-an-object": (
        '{"model_kind": "distance", "per_image": {"a": 5}}',
        lambda path: load_image_params(path, validate_skeleton(TWO_JOINTS)),
        "{path}: image 'a': expected a 'links' array",
    ),
    "entry-without-links": (
        '{"model_kind": "distance", "per_image": {"a": {"root": null}}}',
        lambda path: load_image_params(path, validate_skeleton(TWO_JOINTS)),
        "{path}: image 'a': expected a 'links' array",
    ),
}


@pytest.mark.parametrize("case", sorted(UNREACHED_INPUT_CHECKS))
def test_input_checks_name_the_fault(tmp_path, case):
    text, read, message = UNREACHED_INPUT_CHECKS[case]
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(Exception) as caught:
        read(path)
    assert (type(caught.value), str(caught.value)) == (SchemaError, message.format(path=path))
