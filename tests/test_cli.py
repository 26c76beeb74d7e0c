"""End-to-end tests for the command-line interface (in-process)."""

import hashlib
import json

import numpy as np
import pytest

from poselik import (
    DistanceParams,
    Heatmap,
    Pose,
    PoseModelParams,
    SimulationConfig,
    chain_skeleton,
    cli,
    expected_log_likelihood,
    extract_peaks,
    fit_distance_params,
    LabeledPoseSet,
    load_model_file,
    multi_peak_entropy,
    point_log_likelihood,
    read_heatmap_file,
    refine_pose,
    render_gaussian_heatmap,
    run_simulation,
    save_model_file,
    select_batch,
    validate_skeleton,
    write_heatmap_file,
)
from poselik.selection import _random_score

from _helpers import pshm_bytes

SKELETON_DOC = {
    "joints": ["j0", "j1", "j2"],
    "root": 0,
    "dimension": 2,
    "links": [[0, 1], [1, 2]],
}


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def chain_model(mean=6.0, sigma=1.0, joints=3):
    skel = chain_skeleton(joints)
    return PoseModelParams(
        skeleton=skel,
        link_params=tuple(DistanceParams(mean, sigma) for _ in range(joints - 1)),
        model_kind="distance",
    )


def write_inputs(tmp_path, n_samples=3):
    """Skeleton + model + rendered heatmaps + manifest, all on disk."""
    skeleton_path = tmp_path / "skeleton.json"
    skeleton_path.write_text(json.dumps(SKELETON_DOC), encoding="utf-8")

    model = chain_model()
    model_path = tmp_path / "model.json"
    save_model_file(model, model_path)

    entries = []
    for i in range(n_samples):
        pose = Pose([[20.0 + i, 14.0], [20.0 + i, 20.0], [20.0 + i, 26.0]])
        hm = render_gaussian_heatmap(pose, 48, 48, peak_sigma=1.5)
        name = f"sample-{i}.pshm"
        write_heatmap_file(hm, tmp_path / name)
        entries.append({"id": f"s{i}", "path": name})  # relative to the manifest
    manifest_path = tmp_path / "heatmaps.jsonl"
    manifest_path.write_text(
        "\n".join(json.dumps(e) for e in entries) + "\n", encoding="utf-8"
    )
    return skeleton_path, model_path, manifest_path, model


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class TestScoreCommand:
    def test_expected_mode_matches_library_bytes(self, tmp_path):
        skeleton_path, model_path, manifest_path, model = write_inputs(tmp_path)
        out = tmp_path / "scores.jsonl"
        code = run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(model_path),
             "--heatmaps", str(manifest_path), "--out", str(out)]
        )
        assert code == 0
        expected_lines = []
        for i in range(3):
            hm = read_heatmap_file(tmp_path / f"sample-{i}.pshm")
            report = expected_log_likelihood(extract_peaks(hm), model)
            expected_lines.append(json.dumps(report.to_json_dict(f"s{i}"), sort_keys=True))
        assert out.read_text(encoding="utf-8") == "\n".join(expected_lines) + "\n"

    def test_run_manifest_contents(self, tmp_path):
        skeleton_path, model_path, manifest_path, _ = write_inputs(tmp_path)
        out = tmp_path / "scores.jsonl"
        assert run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(model_path),
             "--heatmaps", str(manifest_path), "--out", str(out)]
        ) == 0
        manifest = json.loads((tmp_path / "scores.jsonl.manifest.json").read_text())
        assert manifest["tool"] == "poselik"
        assert manifest["command"] == "score"
        assert manifest["samples"] == 3
        assert manifest["config"]["mode"] == "expected"
        for name, path in (
            ("skeleton", skeleton_path), ("params", model_path), ("heatmaps", manifest_path)
        ):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert manifest["inputs"][name] == {"path": str(path), "sha256": digest}
        timings = manifest["timings_ms"]
        assert set(timings) == {"io", "compute", "total"}
        assert timings["total"] >= 0.0

    @pytest.mark.parametrize("command", ["score", "refine", "maxima", "point"])
    def test_run_manifest_stage_times(self, tmp_path, monkeypatch, command):
        skeleton_path, model_path, manifest_path, _ = write_inputs(tmp_path, n_samples=5)
        model = ["--skeleton", str(skeleton_path), "--params", str(model_path)]
        argv = {
            "score": ["score", *model, "--heatmaps", str(manifest_path)],
            "refine": ["refine", *model, "--heatmaps", str(manifest_path)],
            "maxima": ["maxima", "--heatmaps", str(manifest_path)],
            "point": ["score", *model, "--heatmaps", str(tmp_path / "dangling.jsonl"),
                      "--mode", "point", "--poses", str(tmp_path / "poses.jsonl")],
        }[command]
        (tmp_path / "dangling.jsonl").write_text("".join(
            json.dumps({"id": f"s{i}", "path": "missing.pshm"}) + "\n" for i in range(5)
        ))
        (tmp_path / "poses.jsonl").write_text("".join(
            json.dumps({"id": f"s{i}", "pose": [[20, 14], [20, 20], [20, 26]]}) + "\n"
            for i in range(5)
        ))
        monkeypatch.setattr(cli, "CHUNK", 2)
        out = tmp_path / "out.jsonl"
        assert run_cli([*argv, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        stages = manifest["stages"]
        assert stages["chunks"] == 3
        names = {"read", "check", "peaks", "records", "write"}
        assert set(stages) == {"chunks", "wall_ms", "cpu_ms"}
        assert set(stages["wall_ms"]) == set(stages["cpu_ms"]) == names
        assert all(t >= 0.0 for t in [*stages["wall_ms"].values(), *stages["cpu_ms"].values()])
        assert sum(stages["wall_ms"].values()) <= manifest["timings_ms"]["total"]
        read = stages["wall_ms"]["read"]
        assert (read == 0.0) == (command == "point")
        assert manifest["timings_ms"]["io"] >= read

    def test_point_mode_scores_poses_without_reading_heatmaps(self, tmp_path):
        skeleton_path, model_path, _, model = write_inputs(tmp_path)
        manifest_path = tmp_path / "dangling.jsonl"
        manifest_path.write_text(
            json.dumps({"id": "a", "path": "missing.pshm"}) + "\n", encoding="utf-8"
        )
        pose = Pose([[20, 14], [20, 20], [20, 26]])
        poses_path = tmp_path / "poses.jsonl"
        poses_path.write_text(
            json.dumps({"id": "a", "pose": pose.coordinates.tolist()}) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "point.jsonl"
        code = run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(model_path),
             "--heatmaps", str(manifest_path), "--mode", "point",
             "--poses", str(poses_path), "--out", str(out)]
        )
        assert code == 0
        (record,) = read_jsonl(out)
        assert record == json.loads(
            json.dumps(point_log_likelihood(pose, model).to_json_dict("a"), sort_keys=True)
        )

    def test_point_mode_requires_poses_flag(self, tmp_path, capsys):
        skeleton_path, model_path, manifest_path, _ = write_inputs(tmp_path)
        code = run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(model_path),
             "--heatmaps", str(manifest_path), "--mode", "point",
             "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 2
        assert "--poses" in capsys.readouterr().err

    def test_missing_pose_for_sample_exits_4(self, tmp_path, capsys):
        skeleton_path, model_path, manifest_path, _ = write_inputs(tmp_path)
        poses_path = tmp_path / "poses.jsonl"
        poses_path.write_text(
            json.dumps({"id": "s0", "pose": [[20, 14], [20, 20], [20, 26]]}) + "\n",
            encoding="utf-8",
        )
        code = run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(model_path),
             "--heatmaps", str(manifest_path), "--mode", "point",
             "--poses", str(poses_path), "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 4
        assert "'s1'" in capsys.readouterr().err

    def test_load_errors_exit_3(self, tmp_path, capsys):
        skeleton_path, model_path, manifest_path, _ = write_inputs(tmp_path)
        code = run_cli(
            ["score", "--skeleton", str(tmp_path / "nope.json"),
             "--params", str(model_path), "--heatmaps", str(manifest_path),
             "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_mismatched_model_skeleton_exits_3(self, tmp_path, capsys):
        skeleton_path, _, manifest_path, _ = write_inputs(tmp_path)
        other_model_path = tmp_path / "other-model.json"
        save_model_file(chain_model(joints=4), other_model_path)
        code = run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(other_model_path),
             "--heatmaps", str(manifest_path), "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 3
        assert "skeleton" in capsys.readouterr().err

    def test_per_image_params(self, tmp_path, capsys):
        skeleton_path, _, manifest_path, _ = write_inputs(tmp_path)
        per_image_path = tmp_path / "per-image.json"

        def link(mean):
            return {"links": [{"mean": mean, "sigma": 1.0}] * 2}

        per_image_path.write_text(
            json.dumps({"model_kind": "distance",
                        "per_image": {"s0": link(6.0), "s1": link(6.0), "s2": link(30.0)}}),
            encoding="utf-8",
        )
        out = tmp_path / "scores.jsonl"
        code = run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(per_image_path),
             "--per-image", "--heatmaps", str(manifest_path), "--out", str(out)]
        )
        assert code == 0
        records = {r["id"]: r for r in read_jsonl(out)}
        assert records["s2"]["total"] < records["s0"]["total"]  # absurd prior tanks s2

        per_image_path.write_text(
            json.dumps({"model_kind": "distance", "per_image": {"s0": link(6.0)}}),
            encoding="utf-8",
        )
        code = run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(per_image_path),
             "--per-image", "--heatmaps", str(manifest_path), "--out", str(out)]
        )
        assert code == 4
        assert "'s1'" in capsys.readouterr().err

    def test_empty_manifest_succeeds_with_zero_samples(self, tmp_path):
        skeleton_path, model_path, _, _ = write_inputs(tmp_path)
        manifest_path = tmp_path / "empty.jsonl"
        manifest_path.write_text("", encoding="utf-8")
        out = tmp_path / "scores.jsonl"
        assert run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(model_path),
             "--heatmaps", str(manifest_path), "--out", str(out)]
        ) == 0
        assert out.read_text(encoding="utf-8") == ""
        manifest = json.loads((tmp_path / "scores.jsonl.manifest.json").read_text())
        assert manifest["samples"] == 0


class TestRefineCommand:
    def test_matches_library_serialization(self, tmp_path):
        skeleton_path, model_path, manifest_path, model = write_inputs(tmp_path)
        out = tmp_path / "refined.jsonl"
        assert run_cli(
            ["refine", "--skeleton", str(skeleton_path), "--params", str(model_path),
             "--heatmaps", str(manifest_path), "--out", str(out)]
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            hm = read_heatmap_file(tmp_path / f"sample-{i}.pshm")
            refined = refine_pose(extract_peaks(hm), model)
            assert line == json.dumps(refined.to_json_dict(f"s{i}"), sort_keys=True)
            report = point_log_likelihood(refined.pose, model)
            assert json.loads(line)["per_link"] == list(report.per_link_terms)

    def test_prefers_plausible_peak_over_global_max(self, tmp_path):
        """Joint 1 has a strong far peak and a weak peak at the modeled
        distance; refinement must take the weak one."""
        skeleton_doc = {"joints": ["a", "b"], "root": 0, "dimension": 2, "links": [[0, 1]]}
        skeleton_path = tmp_path / "skel.json"
        skeleton_path.write_text(json.dumps(skeleton_doc), encoding="utf-8")
        model = PoseModelParams(
            skeleton=validate_skeleton(skeleton_doc),
            link_params=(DistanceParams(5.0, 1.0),),
            model_kind="distance",
        )
        model_path = tmp_path / "model.json"
        save_model_file(model, model_path)

        grid = np.zeros((2, 64, 64), dtype=np.float32)
        grid[0, 10, 10] = 1.0
        grid[1, 10, 30] = 0.9  # twenty pixels out: fifteen sigmas of stretch
        grid[1, 10, 15] = 0.1
        write_heatmap_file(Heatmap(grid), tmp_path / "trap.pshm")
        manifest_path = tmp_path / "m.jsonl"
        manifest_path.write_text(
            json.dumps({"id": "trap", "path": "trap.pshm"}) + "\n", encoding="utf-8"
        )
        out = tmp_path / "refined.jsonl"
        assert run_cli(
            ["refine", "--skeleton", str(skeleton_path), "--params", str(model_path),
             "--heatmaps", str(manifest_path), "--out", str(out)]
        ) == 0
        (record,) = read_jsonl(out)
        assert record["pose"] == [[10, 10], [10, 15]]
        assert record["peak_index"] == [0, 1]


class TestSelectCommand:
    def write_scores(self, tmp_path, records):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
        )
        return path

    def test_vl4pose_takes_lowest_totals(self, tmp_path):
        scores_path = self.write_scores(
            tmp_path,
            [{"id": "a", "total": -5.0}, {"id": "b", "total": -9.0}, {"id": "c", "total": -1.0}],
        )
        out = tmp_path / "selected.json"
        assert run_cli(
            ["select", "--scores", str(scores_path), "--strategy", "vl4pose",
             "--budget", "2", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["selected"] == ["b", "a"]
        assert doc["strategy"] == "vl4pose"
        assert doc["budget"] == 2
        assert doc["scores"] == {"a": -5.0, "b": -9.0, "c": -1.0}
        expected = select_batch({"a": -5.0, "b": -9.0, "c": -1.0}, "vl4pose", 2)
        assert tuple(doc["selected"]) == expected.selected

    def test_entropy_takes_highest(self, tmp_path):
        scores_path = self.write_scores(
            tmp_path,
            [{"id": "a", "entropy": 0.2}, {"id": "b", "entropy": 1.4}, {"id": "c", "entropy": 0.9}],
        )
        out = tmp_path / "selected.json"
        assert run_cli(
            ["select", "--scores", str(scores_path), "--strategy", "entropy",
             "--budget", "2", "--out", str(out)]
        ) == 0
        assert json.loads(out.read_text())["selected"] == ["b", "c"]

    def test_random_ignores_file_scores_and_respects_seed(self, tmp_path):
        records = [{"id": f"s{i}", "total": 0.0} for i in range(6)]
        scores_path = self.write_scores(tmp_path, records)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            assert run_cli(
                ["select", "--scores", str(scores_path), "--strategy", "random",
                 "--budget", "3", "--seed", "11", "--out", str(out)]
            ) == 0
        assert out_a.read_text(encoding="utf-8") == out_b.read_text(encoding="utf-8")
        hash_scores = {f"s{i}": _random_score(11, f"s{i}") for i in range(6)}
        expected = select_batch(hash_scores, "random", 3).selected
        assert tuple(json.loads(out_a.read_text())["selected"]) == expected

    def test_budget_beyond_pool_exits_4(self, tmp_path, capsys):
        scores_path = self.write_scores(tmp_path, [{"id": "a", "total": 1.0}])
        assert run_cli(
            ["select", "--scores", str(scores_path), "--strategy", "vl4pose",
             "--budget", "5", "--out", str(tmp_path / "x.json")]
        ) == 4
        assert "exceeds" in capsys.readouterr().err

    def test_negative_budget_is_a_usage_error(self, tmp_path, capsys):
        scores_path = self.write_scores(tmp_path, [{"id": "a", "total": 1.0}])
        assert run_cli(
            ["select", "--scores", str(scores_path), "--strategy", "vl4pose",
             "--budget", "-1", "--out", str(tmp_path / "x.json")]
        ) == 2
        assert "--budget" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_malformed_score_files_exit_3(self, tmp_path, capsys):
        bad_json = tmp_path / "bad.jsonl"
        for data in (
            b"{nope\n",
            b"\xff\n",  # not UTF-8
            b"[" * 200_000 + b"\n",  # nested too deep
            b'{"id": "b", "total": 1.0}\n{"id": "a", "total": NaN}\n',  # NaN has no rank
            b'{"id": "a", "total": 1' + b"0" * 400 + b"}\n",  # beyond the float range
        ):
            bad_json.write_bytes(data)
            assert run_cli(
                ["select", "--scores", str(bad_json), "--strategy", "vl4pose",
                 "--budget", "1", "--out", str(tmp_path / "x.json")]
            ) == 3
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and f"{bad_json}:" in err[0]
            assert not (tmp_path / "x.json").exists()
        missing_field = self.write_scores(tmp_path, [{"id": "a", "confidence": 1.0}])
        assert run_cli(
            ["select", "--scores", str(missing_field), "--strategy", "vl4pose",
             "--budget", "1", "--out", str(tmp_path / "x.json")]
        ) == 3
        dup = self.write_scores(tmp_path, [{"id": "a", "total": 1.0}, {"id": "a", "total": 2.0}])
        assert run_cli(
            ["select", "--scores", str(dup), "--strategy", "vl4pose",
             "--budget", "1", "--out", str(tmp_path / "x.json")]
        ) == 3
        assert "duplicate" in capsys.readouterr().err

    def test_unknown_strategy_is_a_usage_error(self, tmp_path):
        scores_path = self.write_scores(tmp_path, [{"id": "a", "total": 1.0}])
        assert run_cli(
            ["select", "--scores", str(scores_path), "--strategy", "psychic",
             "--budget", "1", "--out", str(tmp_path / "x.json")]
        ) == 2


class TestCalibrateCommand:
    def write_labeled(self, tmp_path, distances):
        poses = [
            {"id": f"p{i}", "pose": [[20, 10], [20, 10 + d], [20, 10 + 2 * d]]}
            for i, d in enumerate(distances)
        ]
        path = tmp_path / "labeled.jsonl"
        path.write_text("\n".join(json.dumps(p) for p in poses) + "\n", encoding="utf-8")
        return path

    def test_fits_and_round_trips(self, tmp_path):
        skeleton_path = tmp_path / "skel.json"
        skeleton_path.write_text(json.dumps(SKELETON_DOC), encoding="utf-8")
        labeled_path = self.write_labeled(tmp_path, [4, 6, 8])
        out = tmp_path / "fitted.json"
        assert run_cli(
            ["calibrate", "--skeleton", str(skeleton_path), "--labeled", str(labeled_path),
             "--model", "distance", "--out", str(out)]
        ) == 0
        fitted = load_model_file(out)
        skel = validate_skeleton(SKELETON_DOC)
        data = LabeledPoseSet.of(
            skel,
            [Pose([[20, 10], [20, 10 + d], [20, 10 + 2 * d]]) for d in (4, 6, 8)],
        )
        for link_idx, (parent, child) in enumerate(skel.links):
            direct = fit_distance_params(data, parent, child)
            assert fitted.link_params[link_idx] == direct
        assert json.loads(out.read_text())["fit"] == {"sample_count": 3}
        manifest = json.loads((tmp_path / "fitted.json.manifest.json").read_text())
        assert manifest["command"] == "calibrate"
        assert manifest["samples"] == 3

    def test_offset_model(self, tmp_path):
        skeleton_path = tmp_path / "skel.json"
        skeleton_path.write_text(json.dumps(SKELETON_DOC), encoding="utf-8")
        labeled_path = self.write_labeled(tmp_path, [4, 6, 8, 5])
        out = tmp_path / "fitted.json"
        assert run_cli(
            ["calibrate", "--skeleton", str(skeleton_path), "--labeled", str(labeled_path),
             "--model", "offset", "--out", str(out)]
        ) == 0
        assert load_model_file(out).model_kind == "offset"

    def test_insufficient_data_exits_4(self, tmp_path, capsys):
        skeleton_path = tmp_path / "skel.json"
        skeleton_path.write_text(json.dumps(SKELETON_DOC), encoding="utf-8")
        labeled_path = self.write_labeled(tmp_path, [4])
        assert run_cli(
            ["calibrate", "--skeleton", str(skeleton_path), "--labeled", str(labeled_path),
             "--model", "distance", "--out", str(tmp_path / "x.json")]
        ) == 4
        assert "error" in capsys.readouterr().err

    def test_unreadable_labeled_file_exits_3(self, tmp_path):
        skeleton_path = tmp_path / "skel.json"
        skeleton_path.write_text(json.dumps(SKELETON_DOC), encoding="utf-8")
        assert run_cli(
            ["calibrate", "--skeleton", str(skeleton_path),
             "--labeled", str(tmp_path / "nope.jsonl"),
             "--model", "distance", "--out", str(tmp_path / "x.json")]
        ) == 3

    def test_pose_of_non_numbers_exits_3(self, tmp_path, capsys):
        skeleton_path = tmp_path / "skel.json"
        skeleton_path.write_text(json.dumps(SKELETON_DOC), encoding="utf-8")
        labeled_path = self.write_labeled(tmp_path, [4, 6])
        with open(labeled_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "bad", "pose": [[True, "3"], [4, 5], [6, "7"]]}) + "\n")
        out = tmp_path / "x.json"
        assert run_cli(
            ["calibrate", "--skeleton", str(skeleton_path), "--labeled", str(labeled_path),
             "--model", "distance", "--out", str(out)]
        ) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "labeled.jsonl:3: pose" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "pose, message",
        [
            ([[0, 0], [0, 5]], "labeled.jsonl:2: pose has 2 joints, skeleton has 3"),
            ([[0, 0, 0], [0, 5, 0], [0, 9, 0]],
             "labeled.jsonl:2: pose dimension 3 != skeleton dimension 2"),
        ],
        ids=["joint-count", "3-D"],
    )
    def test_pose_of_the_wrong_shape_exits_3_naming_its_line(
        self, tmp_path, capsys, pose, message
    ):
        skeleton_path = tmp_path / "skel.json"
        skeleton_path.write_text(json.dumps(SKELETON_DOC), encoding="utf-8")
        labeled_path = tmp_path / "labeled.jsonl"
        labeled_path.write_text(
            json.dumps({"id": "p0", "pose": [[20, 10], [20, 14], [20, 18]]}) + "\n"
            + json.dumps({"id": "p1", "pose": pose}) + "\n"
            + json.dumps({"id": "p2", "pose": [[20, 10], [20, 16], [20, 22]]}) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "x.json"
        assert run_cli(
            ["calibrate", "--skeleton", str(skeleton_path), "--labeled", str(labeled_path),
             "--model", "distance", "--out", str(out)]
        ) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].endswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("model", ["distance", "offset"])
    def test_overflowing_fit_exits_4_naming_the_link(self, tmp_path, capsys, model):
        skeleton_path = tmp_path / "skel.json"
        skeleton_path.write_text(json.dumps(SKELETON_DOC), encoding="utf-8")
        labeled_path = tmp_path / "labeled.jsonl"
        labeled_path.write_text(
            "".join(
                json.dumps({"id": f"p{i}", "pose": [[20, 10], [20, 14 + i], [row, 10]]}) + "\n"
                for i, row in enumerate([1e308, -1e308, 1e308, -1e308])
            ),
            encoding="utf-8",
        )
        out = tmp_path / "x.json"
        assert run_cli(
            ["calibrate", "--skeleton", str(skeleton_path), "--labeled", str(labeled_path),
             "--model", model, "--out", str(out)]
        ) == 4
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1 and "link #1" in err_lines[0]
        assert not out.exists() and not (tmp_path / "x.json.manifest.json").exists()


class TestMaximaCommand:
    def two_bump_inputs(self, tmp_path):
        grid = np.zeros((1, 32, 32), dtype=np.float32)
        grid[0, 10, 10] = 1.0
        grid[0, 20, 20] = 0.6
        write_heatmap_file(Heatmap(grid), tmp_path / "hm.pshm")
        manifest_path = tmp_path / "m.jsonl"
        manifest_path.write_text(
            json.dumps({"id": "x", "path": "hm.pshm"}) + "\n", encoding="utf-8"
        )
        return manifest_path

    def test_reports_peaks_and_entropy(self, tmp_path):
        manifest_path = self.two_bump_inputs(tmp_path)
        out = tmp_path / "peaks.jsonl"
        assert run_cli(["maxima", "--heatmaps", str(manifest_path), "--out", str(out)]) == 0
        (record,) = read_jsonl(out)
        hm = read_heatmap_file(tmp_path / "hm.pshm")
        peaks = extract_peaks(hm)
        assert record["entropy"] == multi_peak_entropy(peaks)
        assert [p["loc"] for p in record["peaks"][0]] == [[10, 10], [20, 20]]
        assert record["peaks"][0][0]["score"] == 1.0
        assert record["peaks"][0][0]["prob"] == peaks.probs[0]

    def test_flags_are_honored(self, tmp_path):
        manifest_path = self.two_bump_inputs(tmp_path)
        out = tmp_path / "peaks.jsonl"
        assert run_cli(
            ["maxima", "--heatmaps", str(manifest_path), "--max-peaks", "1",
             "--out", str(out)]
        ) == 0
        (record,) = read_jsonl(out)
        assert len(record["peaks"][0]) == 1
        assert record["entropy"] == 0.0

        assert run_cli(
            ["maxima", "--heatmaps", str(manifest_path), "--threshold", "0.8",
             "--out", str(out)]
        ) == 0
        (record,) = read_jsonl(out)
        assert [p["loc"] for p in record["peaks"][0]] == [[10, 10]]

    def test_max_peaks_below_one_is_a_usage_error(self, tmp_path, capsys):
        # The manifest does not exist: the flag is rejected before any input is read.
        assert run_cli(
            ["maxima", "--heatmaps", str(tmp_path / "none.jsonl"), "--max-peaks", "0",
             "--out", str(tmp_path / "x.jsonl")]
        ) == 2
        assert "--max-peaks" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    def test_max_peaks_beyond_int64_keeps_every_peak(self, tmp_path):
        """A bound no NumPy integer holds writes the lines of a bound of
        every cell: 16 strict maxima a joint on 8x8 grids."""
        grid = np.random.default_rng(3).random((2, 8, 8), dtype=np.float32)
        grid[:, ::2, ::2] += 1.0
        write_heatmap_file(Heatmap(grid), tmp_path / "hm.pshm")
        manifest_path = tmp_path / "m.jsonl"
        manifest_path.write_text(
            json.dumps({"id": "x", "path": "hm.pshm"}) + "\n", encoding="utf-8"
        )
        lines = []
        for max_peaks in ("64", "100000000000000000000"):
            out = tmp_path / f"{max_peaks}.jsonl"
            assert run_cli(
                ["maxima", "--heatmaps", str(manifest_path), "--threshold", "0",
                 "--max-peaks", max_peaks, "--out", str(out)]
            ) == 0
            lines.append(out.read_bytes())
        assert lines[0] == lines[1]
        (record,) = read_jsonl(tmp_path / "64.jsonl")
        assert [len(peaks) for peaks in record["peaks"]] == [16, 16]

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "1e999", "-0.5", "1.5"])
    def test_non_finite_threshold_is_a_usage_error(self, tmp_path, capsys, threshold):
        manifest_path = self.two_bump_inputs(tmp_path)
        out = tmp_path / "x.jsonl"
        assert run_cli(
            ["maxima", "--heatmaps", str(manifest_path), f"--threshold={threshold}",
             "--out", str(out)]
        ) == 2
        assert "--threshold must be finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hm.pshm", "m.jsonl"]

    def test_manifest_is_strict_json(self, tmp_path):
        manifest_path = self.two_bump_inputs(tmp_path)
        out = tmp_path / "peaks.jsonl"
        assert run_cli(
            ["maxima", "--heatmaps", str(manifest_path), "--threshold", "0.25", "--out", str(out)]
        ) == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        text = (tmp_path / "peaks.jsonl.manifest.json").read_text(encoding="utf-8")
        manifest = json.loads(text, parse_constant=reject)
        assert manifest["config"] == {"threshold": 0.25, "max_peaks": 10, "out": str(out)}

    def test_truncated_heatmap_exits_4(self, tmp_path, capsys):
        manifest_path = self.two_bump_inputs(tmp_path)
        payload = (tmp_path / "hm.pshm").read_bytes()
        (tmp_path / "hm.pshm").write_bytes(payload[:-8])
        assert run_cli(
            ["maxima", "--heatmaps", str(manifest_path), "--out", str(tmp_path / "x.jsonl")]
        ) == 4
        assert "'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("path", [None, 7], ids=["null", "number"])
    def test_non_string_path_exits_3(self, tmp_path, capsys, path):
        manifest_path = tmp_path / "m.jsonl"
        manifest_path.write_text(
            json.dumps({"id": "ok", "path": "hm.pshm"}) + "\n"
            + json.dumps({"id": "a", "path": path}) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "x.jsonl"
        assert run_cli(["maxima", "--heatmaps", str(manifest_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{manifest_path}:2:" in err[0] and "'path'" in err[0]
        assert not out.exists()


class TestSimulateCommand:
    def config_doc(self):
        return {
            "seed": 7,
            "rounds": 1,
            "budget": 2,
            "pool": {"labeled": 6, "unlabeled": 8, "ood": 2, "heldout": 3},
            "skeleton": {"joints": 3},
            "generator": {
                "link_means": [6.0, 6.0],
                "link_sds": [1.0, 1.0],
                "angle_ranges": [[-0.6, 0.6], [-0.6, 0.6]],
            },
            "ood_generator": {
                "link_means": [11.0, 11.0],
                "link_sds": [1.0, 1.0],
                "angle_ranges": [[-0.6, 0.6], [-0.6, 0.6]],
            },
            "heatmap": {"height": 80, "width": 80, "peak_sigma": 1.5},
            "strategies": ["vl4pose", "random"],
        }

    def write_config(self, tmp_path, doc=None):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc or self.config_doc()), encoding="utf-8")
        return path

    def test_report_matches_library_bytes(self, tmp_path):
        config_path = self.write_config(tmp_path)
        out = tmp_path / "report.json"
        assert run_cli(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        cfg = SimulationConfig.from_dict(self.config_doc())
        lib = run_simulation(cfg)
        expected = json.dumps(lib.report, indent=2, sort_keys=True) + "\n"
        assert out.read_text(encoding="utf-8") == expected

        selections = read_jsonl(tmp_path / "report.json.selections.jsonl")
        assert selections == lib.selections
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["samples"] == 8

    def test_runs_are_byte_identical(self, tmp_path):
        config_path = self.write_config(tmp_path)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["simulate", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert run_cli(["simulate", "--config", str(config_path), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (
            (tmp_path / "a.json.selections.jsonl").read_bytes()
            == (tmp_path / "b.json.selections.jsonl").read_bytes()
        )

    def test_bad_configs_exit_3(self, tmp_path, capsys):
        doc = self.config_doc()
        doc["surprise"] = True
        config_path = self.write_config(tmp_path, doc)
        assert run_cli(
            ["simulate", "--config", str(config_path), "--out", str(tmp_path / "x.json")]
        ) == 3
        assert "surprise" in capsys.readouterr().err
        for data in (b"{not json", b"\xff", b"[" * 200_000):
            config_path.write_bytes(data)
            assert run_cli(
                ["simulate", "--config", str(config_path), "--out", str(tmp_path / "x.json")]
            ) == 3
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and f"{config_path}: invalid JSON" in err[0]

    def test_failed_write_leaves_no_old_manifest_beside_new_outputs(self, tmp_path, capsys):
        config_path = self.write_config(tmp_path)
        out = tmp_path / "x.json"
        assert run_cli(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        manifest = tmp_path / "x.json.manifest.json"
        assert json.loads(manifest.read_text())["seed"] == 7
        selections = tmp_path / "x.json.selections.jsonl"
        selections.unlink()
        selections.mkdir()
        (selections / "keep").write_text("", encoding="utf-8")  # os.replace onto it fails
        doc = dict(self.config_doc(), seed=8)
        assert run_cli(
            ["simulate", "--config", str(self.write_config(tmp_path, doc)), "--out", str(out)]
        ) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "x.json.selections.jsonl" in err[0]
        assert json.loads(out.read_text())["config"]["seed"] == 8
        assert not manifest.exists()
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    @pytest.mark.parametrize("peak_sigma", [1e-160, 1e-200])
    def test_a_tiny_peak_sigma_exits_4_without_outputs(self, tmp_path, capsys, peak_sigma):
        # 2 * sigma**2 is subnormal at 1e-160 and 0 at 1e-200: each bump's centre is NaN.
        doc = self.config_doc()
        doc["heatmap"]["peak_sigma"] = peak_sigma
        out = tmp_path / "x.json"
        assert run_cli(
            ["simulate", "--config", str(self.write_config(tmp_path, doc)), "--out", str(out)]
        ) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].endswith("heatmap contains NaN or infinite scores")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("infeasible", ["distractor", "link_lengths"])
    def test_infeasible_config_exits_3_without_outputs(self, tmp_path, capsys, infeasible):
        # Both are found only while the pool is generated, after the config loaded.
        doc = self.config_doc()
        if infeasible == "distractor":  # no 8x8 cell is 3 * 3.0 + 1 cells from a joint
            doc["generator"]["link_means"] = [1.0, 1.0]
            doc["ood_generator"]["link_means"] = [2.0, 2.0]
            doc["heatmap"] = {"height": 8, "width": 8, "peak_sigma": 3.0, "distractors": 1}
        else:
            doc["generator"]["link_means"] = [200.0, 200.0]
        out = tmp_path / "x.json"
        assert run_cli(
            ["simulate", "--config", str(self.write_config(tmp_path, doc)), "--out", str(out)]
        ) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "grid" in err[0] and "config.json" in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def per_image_params(path, means):
    """A per-image parameter file: one distance-law mean per image id."""
    path.write_text(
        json.dumps({
            "model_kind": "distance",
            "per_image": {
                sample_id: {"links": [{"mean": mean, "sigma": 1.0}] * 2}
                for sample_id, mean in means.items()
            },
        }),
        encoding="utf-8",
    )
    return path


class TestChunkedRunner:
    """Heatmaps are read, extracted and scored in chunks; each record must
    read as the sample's own run, and the first failure in manifest order
    must abort the run naming its sample."""

    def test_scoring_error_before_later_read_error_names_the_earlier_sample(
        self, tmp_path, capsys
    ):
        skeleton_path, _, manifest_path, _ = write_inputs(tmp_path, n_samples=4)
        params_path = per_image_params(
            tmp_path / "per-image.json", {"s0": 6.0, "s2": 6.0, "s3": 6.0}
        )
        payload = (tmp_path / "sample-2.pshm").read_bytes()
        (tmp_path / "sample-2.pshm").write_bytes(payload[:-8])  # s2: truncated
        assert run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(params_path),
             "--per-image", "--heatmaps", str(manifest_path),
             "--out", str(tmp_path / "x.jsonl")]
        ) == 4
        assert capsys.readouterr().err == (
            "poselik: error: sample 's1': no model parameters for sample 's1'\n"
        )

    def test_scoring_error_before_later_non_finite_heatmap_names_the_earlier_sample(
        self, tmp_path, capsys
    ):
        skeleton_path, _, manifest_path, _ = write_inputs(tmp_path, n_samples=4)
        params_path = per_image_params(
            tmp_path / "per-image.json", {"s0": 6.0, "s2": 6.0, "s3": 6.0}
        )
        heatmap = read_heatmap_file(tmp_path / "sample-2.pshm").values.copy()
        heatmap[1, 5, 7] = np.nan  # s2: read whole, but not finite
        (tmp_path / "sample-2.pshm").write_bytes(pshm_bytes(heatmap))
        assert run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(params_path),
             "--per-image", "--heatmaps", str(manifest_path),
             "--out", str(tmp_path / "x.jsonl")]
        ) == 4
        assert capsys.readouterr().err == (
            "poselik: error: sample 's1': no model parameters for sample 's1'\n"
        )

    def test_a_manifest_of_mixed_grid_shapes(self, tmp_path, monkeypatch):
        shapes = [(2, 9, 9), (2, 9, 9), (3, 9, 9), (2, 9, 9), (2, 7, 11), (2, 7, 11), (2, 9, 9)]
        rng = np.random.default_rng(5)
        entries = []
        for i, shape in enumerate(shapes):
            values = rng.integers(0, 4, size=shape).astype(np.float32)
            write_heatmap_file(Heatmap(values), tmp_path / f"h{i}.pshm")
            entries.append(json.dumps({"id": f"h{i}", "path": f"h{i}.pshm"}) + "\n")
        manifest_path = tmp_path / "m.jsonl"
        manifest_path.write_text("".join(entries), encoding="utf-8")
        out = tmp_path / "peaks.jsonl"
        monkeypatch.setattr(cli, "CHUNK", 2)  # chunks end on shapes and on the count
        assert run_cli(
            ["maxima", "--heatmaps", str(manifest_path), "--threshold", "0",
             "--max-peaks", "3", "--out", str(out)]
        ) == 0
        records = read_jsonl(out)
        assert [r["id"] for r in records] == [f"h{i}" for i in range(len(shapes))]
        for i, record in enumerate(records):
            peaks = extract_peaks(read_heatmap_file(tmp_path / f"h{i}.pshm"), 0.0, 3)
            assert record["entropy"] == multi_peak_entropy(peaks)
            assert [[p["loc"] for p in joint] for joint in record["peaks"]] == [
                peaks.locs[a:b].tolist()
                for a, b in zip(peaks.offsets[:-1], peaks.offsets[1:])
            ]
            assert [p["prob"] for joint in record["peaks"] for p in joint] == peaks.probs.tolist()

    def test_per_image_scores_match_each_image_alone(self, tmp_path, monkeypatch):
        skeleton_path, _, manifest_path, _ = write_inputs(tmp_path, n_samples=5)
        means = {"s0": 6.0, "s1": 5.0, "s2": 30.0, "s3": 6.0, "s4": 7.5}
        params_path = per_image_params(tmp_path / "per-image.json", means)
        out = tmp_path / "scores.jsonl"
        monkeypatch.setattr(cli, "CHUNK", 3)
        assert run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(params_path),
             "--per-image", "--heatmaps", str(manifest_path), "--out", str(out)]
        ) == 0
        expected = [
            json.dumps(
                expected_log_likelihood(
                    extract_peaks(read_heatmap_file(tmp_path / f"sample-{i}.pshm")),
                    chain_model(mean=means[f"s{i}"]),
                ).to_json_dict(f"s{i}"),
                sort_keys=True,
            )
            for i in range(5)
        ]
        assert out.read_text(encoding="utf-8") == "\n".join(expected) + "\n"

    def test_failed_run_leaves_old_outputs_and_no_temporary_file(self, tmp_path, capsys):
        skeleton_path, model_path, manifest_path, _ = write_inputs(tmp_path, n_samples=3)
        out = tmp_path / "scores.jsonl"
        argv = ["score", "--skeleton", str(skeleton_path), "--params", str(model_path),
                "--heatmaps", str(manifest_path), "--out", str(out)]
        assert run_cli(argv) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        payload = (tmp_path / "sample-2.pshm").read_bytes()
        (tmp_path / "sample-2.pshm").write_bytes(payload[:-8])
        before["sample-2.pshm"] = payload[:-8]
        assert run_cli(argv) == 4
        assert "'s2'" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestOutputWrites:
    def test_unwritable_out_exits_3_without_partial_files(self, tmp_path, capsys):
        skeleton_path, model_path, manifest_path, _ = write_inputs(tmp_path, n_samples=2)
        out = tmp_path / "missing-dir" / "scores.jsonl"
        assert run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(model_path),
             "--heatmaps", str(manifest_path), "--out", str(out)]
        ) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(out) in err[0]
        assert not (tmp_path / "missing-dir").exists()

    def test_failed_manifest_write_leaves_no_temp_file(self, tmp_path, capsys):
        skeleton_path, model_path, manifest_path, _ = write_inputs(tmp_path, n_samples=2)
        out = tmp_path / "scores.jsonl"
        (tmp_path / "scores.jsonl.manifest.json").mkdir()  # os.replace onto a directory fails
        assert run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(model_path),
             "--heatmaps", str(manifest_path), "--out", str(out)]
        ) == 3
        assert "scores.jsonl.manifest.json" in capsys.readouterr().err
        assert len(read_jsonl(out)) == 2
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_interrupted_manifest_write_keeps_the_previous_output(
        self, tmp_path, capsys, monkeypatch
    ):
        skeleton_path, model_path, manifest_path, _ = write_inputs(tmp_path, n_samples=2)
        out = tmp_path / "scores.jsonl"
        out.write_text("old\n", encoding="utf-8")

        def write_json(path, doc):  # the disk fills up part way through the manifest
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("{\"partial")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_json", write_json)
        assert run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(model_path),
             "--heatmaps", str(manifest_path), "--out", str(out)]
        ) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "scores.jsonl.manifest.json" in err[0]
        assert "No space left on device" in err[0]
        assert out.read_text(encoding="utf-8") == "old\n"
        assert not (tmp_path / "scores.jsonl.manifest.json").exists()
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


class TestThreadsAndParser:
    def test_version_flag(self, capsys):
        import poselik

        assert run_cli(["--version"]) == 0
        assert poselik.__version__ in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli([]) == 2
