"""Tests for the skeletal model types and their JSON schema."""

import json

import numpy as np
import pytest

from poselik import (
    BadRootIndex,
    CovarianceNotSPD,
    CycleDetected,
    DimensionMismatch,
    DisconnectedJoint,
    DistanceParams,
    DuplicateJointName,
    OffsetParams,
    Pose,
    PoseModelParams,
    SIGMA_FLOOR,
    SchemaError,
    SigmaNonPositive,
    load_model_file,
    load_skeleton_file,
    model_from_dict,
    model_to_dict,
    save_model_file,
    skeleton_to_dict,
    validate_skeleton,
)

from _helpers import random_distance_model, random_offset_model, random_tree_skeleton


def star_doc():
    return {
        "joints": ["hub", "n", "e", "s", "w"],
        "root": "hub",
        "dimension": 2,
        "links": [["hub", "n"], ["hub", "e"], ["hub", "s"], ["hub", "w"]],
    }


class TestValidateSkeleton:
    """Structural validation of joint trees."""

    def test_valid_star(self):
        skel = validate_skeleton(star_doc())
        assert skel.joints == ("hub", "n", "e", "s", "w")
        assert skel.root == 0
        assert skel.links == ((0, 1), (0, 2), (0, 3), (0, 4))

    def test_indices_accepted_alongside_names(self):
        doc = star_doc()
        doc["root"] = 0
        doc["links"] = [[0, 1], [0, 2], [0, 3], ["hub", "w"]]
        skel = validate_skeleton(doc)
        assert skel.links == ((0, 1), (0, 2), (0, 3), (0, 4))

    def test_duplicate_joint_name(self):
        doc = star_doc()
        doc["joints"][2] = "n"
        with pytest.raises(DuplicateJointName, match="'n'"):
            validate_skeleton(doc)

    def test_bad_root_name_and_index(self):
        doc = star_doc()
        doc["root"] = "nope"
        with pytest.raises(BadRootIndex):
            validate_skeleton(doc)
        doc["root"] = 99
        with pytest.raises(BadRootIndex):
            validate_skeleton(doc)

    def test_cycle_via_second_parent(self):
        doc = star_doc()
        doc["links"].append(["n", "e"])  # e now has two parents
        with pytest.raises(CycleDetected, match="'e'"):
            validate_skeleton(doc)

    def test_self_loop(self):
        doc = star_doc()
        doc["links"][0] = ["n", "n"]
        with pytest.raises(CycleDetected):
            validate_skeleton(doc)

    def test_disconnected_joint(self):
        doc = star_doc()
        doc["links"] = doc["links"][:3]  # w unreachable
        with pytest.raises(DisconnectedJoint, match="'w'"):
            validate_skeleton(doc)

    def test_unknown_link_endpoint(self):
        doc = star_doc()
        doc["links"][0] = ["hub", "mystery"]
        with pytest.raises(SchemaError, match="mystery"):
            validate_skeleton(doc)

    def test_bad_dimension(self):
        doc = star_doc()
        for dimension in (4, 2.0, True):  # 2.0 would reach np.eye as a float
            doc["dimension"] = dimension
            with pytest.raises(SchemaError):
                validate_skeleton(doc)

    def test_missing_keys_and_wrong_types(self):
        with pytest.raises(SchemaError):
            validate_skeleton({"joints": ["a"]})
        with pytest.raises(SchemaError):
            validate_skeleton([1, 2])
        with pytest.raises(SchemaError):
            validate_skeleton({"joints": [], "links": []})

    def test_single_joint_tree(self):
        skel = validate_skeleton({"joints": ["solo"], "root": "solo", "links": []})
        assert skel.n_links == 0
        assert skel.bfs_joints == (0,)


class TestSkeletonOrderings:
    """Derived breadth-first and link orderings."""

    def test_bfs_order_chain(self):
        skel = validate_skeleton(
            {"joints": ["a", "b", "c"], "root": "c",
             "links": [["b", "a"], ["c", "b"]]}
        )
        assert skel.bfs_joints == (2, 1, 0)

    def test_every_link_parent_precedes_child(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            skel = random_tree_skeleton(rng, int(rng.integers(2, 12)))
            position = {j: i for i, j in enumerate(skel.bfs_joints)}
            for parent, child in skel.links:
                assert position[parent] < position[child]
            # children_links covers every link exactly once
            seen = sorted(
                idx for entries in skel.children_links for idx, _ in entries
            )
            assert seen == list(range(skel.n_links))


class TestPose:
    def test_construction_and_flags(self):
        pose = Pose([[1.0, 2.0], [3.0, 4.0]])
        assert pose.n_joints == 2
        assert pose.dimension == 2
        assert not pose.coordinates.flags.writeable

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            Pose([1.0, 2.0])  # 1-D array
        with pytest.raises(SchemaError):
            Pose([[np.nan, 0.0]])


class TestLinkParams:
    def test_distance_validation(self):
        params = DistanceParams(5.0, 1.5)
        assert params.mean_distance == 5.0
        with pytest.raises(SigmaNonPositive):
            DistanceParams(5.0, 0.0)
        with pytest.raises(SigmaNonPositive):
            DistanceParams(5.0, -1.0)
        with pytest.raises(SchemaError):
            DistanceParams(-1.0, 1.0)
        with pytest.raises(SchemaError):
            DistanceParams(np.inf, 1.0)

    def test_offset_cholesky_matches_numpy(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(-1, 1, size=(3, 3))
        cov = a @ a.T + np.eye(3)
        params = OffsetParams(offset=np.zeros(3), covariance=cov)
        np.testing.assert_allclose(params.cholesky @ params.cholesky.T, cov, atol=1e-12)
        sign, logdet = np.linalg.slogdet(cov)
        assert sign == 1.0
        np.testing.assert_allclose(params.log_det, logdet, rtol=1e-12)

    def test_offset_rejects_bad_covariance(self):
        with pytest.raises(CovarianceNotSPD):
            OffsetParams(offset=np.zeros(2), covariance=[[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(CovarianceNotSPD):
            OffsetParams(offset=np.zeros(2), covariance=[[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(CovarianceNotSPD, match="not symmetric"):  # a difference of 2e308
            OffsetParams(offset=np.zeros(2), covariance=[[1.0, 1e308], [-1e308, 1.0]])
        with pytest.raises(SchemaError):
            OffsetParams(offset=np.zeros(2), covariance=np.eye(3))


class TestPoseModelParams:
    def test_link_count_enforced(self):
        skel = validate_skeleton(star_doc())
        with pytest.raises(SchemaError):
            PoseModelParams(
                skeleton=skel,
                link_params=(DistanceParams(1, 1),),
                model_kind="distance",
            )

    def test_kind_variant_enforced(self):
        skel = validate_skeleton({"joints": ["a", "b"], "root": 0, "links": [[0, 1]]})
        with pytest.raises(SchemaError):
            PoseModelParams(
                skeleton=skel,
                link_params=(OffsetParams(np.zeros(2), np.eye(2)),),
                model_kind="distance",
            )
        with pytest.raises(SchemaError):
            PoseModelParams(
                skeleton=skel,
                link_params=(DistanceParams(1, 1),),
                model_kind="bogus",
            )

    def test_offset_dimension_enforced(self):
        skel = validate_skeleton(
            {"joints": ["a", "b"], "root": 0, "dimension": 3, "links": [[0, 1]]}
        )
        with pytest.raises(DimensionMismatch):
            PoseModelParams(
                skeleton=skel,
                link_params=(OffsetParams(np.zeros(2), np.eye(2)),),
                model_kind="offset",
            )


class TestJsonSchema:
    """Round trips through the on-disk JSON formats."""

    def test_skeleton_round_trip(self):
        skel = validate_skeleton(star_doc())
        again = validate_skeleton(skeleton_to_dict(skel))
        assert again == skel

    def test_distance_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        skel = random_tree_skeleton(rng, 6)
        model = random_distance_model(rng, skel, root_prior=True)
        path = tmp_path / "model.json"
        save_model_file(model, path)
        again = load_model_file(path)
        assert again.skeleton == model.skeleton
        assert again.model_kind == "distance"
        for a, b in zip(again.link_params, model.link_params):
            assert a == b
        assert again.root_params == model.root_params

    def test_offset_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        skel = random_tree_skeleton(rng, 4)
        model = random_offset_model(rng, skel)
        path = tmp_path / "model.json"
        save_model_file(model, path)
        again = load_model_file(path)
        for a, b in zip(again.link_params, model.link_params):
            np.testing.assert_allclose(a.offset, b.offset, rtol=1e-15)
            np.testing.assert_allclose(a.covariance, b.covariance, rtol=1e-15)

    def test_sigma_floor_applied_on_load(self):
        skel_doc = {"joints": ["a", "b"], "root": 0, "links": [[0, 1]]}
        doc = dict(skel_doc, model_kind="distance", params=[{"mean": 5.0, "sigma": 1e-9}])
        model = model_from_dict(doc)
        assert model.link_params[0].sigma == SIGMA_FLOOR

    def test_nonpositive_sigma_still_rejected(self):
        skel_doc = {"joints": ["a", "b"], "root": 0, "links": [[0, 1]]}
        doc = dict(skel_doc, model_kind="distance", params=[{"mean": 5.0, "sigma": -2.0}])
        with pytest.raises(SigmaNonPositive):
            model_from_dict(doc)

    def test_model_to_dict_is_json_ready(self):
        rng = np.random.default_rng(42)
        skel = random_tree_skeleton(rng, 4)
        doc = model_to_dict(random_offset_model(rng, skel))
        json.dumps(doc)  # must not raise

    def test_load_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_skeleton_file(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_skeleton_file(arr)
        for data in (b"\xff", b"[" * 200_000):  # not UTF-8, nested too deep
            bad.write_bytes(data)
            with pytest.raises(SchemaError, match="invalid JSON"):
                load_skeleton_file(bad)
        incomplete = tmp_path / "inc.json"
        incomplete.write_text(json.dumps(star_doc()), encoding="utf-8")
        with pytest.raises(SchemaError, match="model_kind"):
            load_model_file(incomplete)
        doc = dict(star_doc(), model_kind="offset")
        # Only JSON numbers: numpy and float() would read "5" and true as 5.0 and 1.0.
        for bad_entry in ({"offset": [0.0, 0.0], "covariance": [[6.0, 1.0], [1.0]]},
                          {"offset": [{}, 1.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]},
                          {"offset": ["1", 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]},
                          {"offset": [0.0, 0.0], "covariance": [[True, 0.0], [0.0, 1.0]]},
                          {"offset": [0.0, 0.0], "covariance": "[[1, 0], [0, 1]]"}):
            doc["params"] = [bad_entry] * len(doc["links"])
            incomplete.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(SchemaError, match=r"inc\.json: params\[0\]: 'offset' and"):
                load_model_file(incomplete)
        doc = dict(star_doc(), model_kind="distance")
        for bad_entry in ({"mean": "5", "sigma": True}, {"mean": 5.0, "sigma": "1"},
                          {"mean": False, "sigma": 1.0}, {"mean": None, "sigma": 1.0}):
            doc["params"] = [bad_entry] * len(doc["links"])
            incomplete.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(SchemaError, match=r"inc\.json: params\[0\]: distance entry"):
                load_model_file(incomplete)
        doc["params"] = [{"mean": 5.0, "sigma": 1.0}] * len(doc["links"])
        doc["root_params"] = {"mean": 5.0, "sigma": "2"}
        incomplete.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError, match=r"inc\.json: root_params: distance entry"):
            load_model_file(incomplete)
