"""End-to-end tests for the command-line interface (in-process)."""

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

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
    extract_peak_sets,
    extract_peaks,
    fit_distance_params,
    LabeledPoseSet,
    OffsetParams,
    load_model_file,
    multi_peak_entropy,
    point_log_likelihood,
    read_heatmap_file,
    refine_pose,
    render_gaussian_heatmap,
    run_simulation,
    save_model_file,
    select_batch,
    skeleton_to_dict,
    validate_skeleton,
    write_heatmap_file,
)
from poselik.selection import _random_score

from _helpers import (
    PSHM_HEADER,
    SUM_OVERFLOW_POSE,
    UNDERFLOW_SKELETON_DOC,
    UNDERFLOW_TOTAL,
    far_offset_law,
    pshm_bytes,
    sum_overflow_law,
    underflow_case,
)

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
        monkeypatch.setattr(cli, "CHUNK_BYTES", 2 * 3 * 48 * 48 * 4)  # two samples
        out = tmp_path / "out.jsonl"
        assert run_cli([*argv, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        stages = manifest["stages"]
        assert stages["chunks"] == (1 if command == "point" else 3)  # point: the whole manifest
        names = {"read", "peaks", "records", "write"}
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

    @pytest.mark.parametrize(
        "kind, law",
        [("distance", DistanceParams(6.0, 1.0)), ("offset", OffsetParams([0.0, 6.0], np.eye(2)))],
    )
    def test_point_mode_past_the_float_range_scores_minus_infinity(
        self, tmp_path, capsys, kind, law
    ):
        """Poses 1e200 apart overflow the squared distance and the whitened
        residual: each total is ``-Infinity``, and nothing goes to stderr."""
        skeleton_path = tmp_path / "skeleton.json"
        skeleton_path.write_text(json.dumps(SKELETON_DOC))
        save_model_file(
            PoseModelParams(chain_skeleton(3), (law, law), kind), tmp_path / "model.json"
        )
        (tmp_path / "dangling.jsonl").write_text('{"id": "a", "path": "missing.pshm"}\n')
        (tmp_path / "poses.jsonl").write_text(
            json.dumps({"id": "a", "pose": [[1e200, -1e200], [-1e200, 1e200], [1e200, 1e200]]})
            + "\n"
        )
        out = tmp_path / "point.jsonl"
        assert run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(tmp_path / "model.json"),
             "--heatmaps", str(tmp_path / "dangling.jsonl"), "--mode", "point",
             "--poses", str(tmp_path / "poses.jsonl"), "--out", str(out)]
        ) == 0
        assert capsys.readouterr().err == ""
        (record,) = read_jsonl(out)
        assert record["total"] == -math.inf and '"total": -Infinity' in out.read_text()

    @pytest.mark.parametrize("command", ["refine", "score", "point"])
    def test_terms_that_add_past_the_float_range_total_minus_infinity(
        self, tmp_path, capsys, command
    ):
        """Finite link terms whose sum passes the float range: the total is
        ``-Infinity``, the run exits 0, and stderr stays empty, as the suite
        turns a numpy warning into an error. Each joint has one peak, 3
        cells from its parent's."""
        skeleton = chain_skeleton(4)
        (tmp_path / "skeleton.json").write_text(json.dumps(skeleton_to_dict(skeleton)))
        law, kind = (
            (DistanceParams(0.0, 1.0), "distance") if command == "point"
            else (sum_overflow_law(), "offset")
        )
        save_model_file(PoseModelParams(skeleton, (law,) * 3, kind), tmp_path / "model.json")
        values = np.zeros((4, 16, 16), np.float32)
        values[np.arange(4), 4, 2 + 3 * np.arange(4)] = 1.0
        (tmp_path / "s.pshm").write_bytes(pshm_bytes(values))
        (tmp_path / "heatmaps.jsonl").write_text('{"id": "s", "path": "s.pshm"}\n')
        (tmp_path / "poses.jsonl").write_text(json.dumps({"id": "s", "pose": SUM_OVERFLOW_POSE}))
        argv = {
            "refine": ["refine"], "score": ["score"],
            "point": ["score", "--mode", "point", "--poses", str(tmp_path / "poses.jsonl")],
        }[command]
        out = tmp_path / "out.jsonl"
        assert run_cli([
            *argv, "--skeleton", str(tmp_path / "skeleton.json"),
            "--params", str(tmp_path / "model.json"),
            "--heatmaps", str(tmp_path / "heatmaps.jsonl"), "--out", str(out),
        ]) == 0
        assert capsys.readouterr().err == ""
        (record,) = read_jsonl(out)
        assert record["total"] == -math.inf and '"total": -Infinity' in out.read_text()
        assert all(math.isfinite(term) for term in record["per_link"])

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
        assert tuple(doc["selected"]) == expected

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
        expected = select_batch(hash_scores, "random", 3)
        assert tuple(json.loads(out_a.read_text())["selected"]) == expected

    def test_a_peak_of_probability_zero_leaves_a_total_to_rank(self, tmp_path):
        """A peak whose softmax underflows to 0 adds nothing to the expected
        total, even with a ``-inf`` density, so ``select`` can rank it."""
        values, model = underflow_case()
        (tmp_path / "s.pshm").write_bytes(pshm_bytes(values))
        (tmp_path / "heatmaps.jsonl").write_text('{"id": "s", "path": "s.pshm"}\n')
        (tmp_path / "skeleton.json").write_text(json.dumps(UNDERFLOW_SKELETON_DOC))
        save_model_file(model, tmp_path / "model.json")
        scores, out = tmp_path / "scores.jsonl", tmp_path / "selected.json"
        assert run_cli(
            ["score", "--skeleton", str(tmp_path / "skeleton.json"),
             "--params", str(tmp_path / "model.json"),
             "--heatmaps", str(tmp_path / "heatmaps.jsonl"), "--out", str(scores)]
        ) == 0
        assert [record["total"] for record in read_jsonl(scores)] == [UNDERFLOW_TOTAL]
        assert run_cli(
            ["select", "--scores", str(scores), "--strategy", "vl4pose",
             "--budget", "1", "--out", str(out)]
        ) == 0
        assert json.loads(out.read_text())["selected"] == ["s"]

    def test_a_residual_past_the_float_range_scores_minus_infinity_to_rank(self, tmp_path):
        """An offset law that whitens every residual past the float range
        scores ``-Infinity`` in ``score`` and ``refine``, never ``NaN``, and
        ``select`` ranks those totals."""
        (tmp_path / "skeleton.json").write_text(json.dumps(SKELETON_DOC))
        law = far_offset_law()
        save_model_file(
            PoseModelParams(chain_skeleton(3), (law, law), "offset"), tmp_path / "model.json"
        )
        rng = np.random.default_rng(3)
        for i in range(2):
            (tmp_path / f"s{i}.pshm").write_bytes(pshm_bytes(rng.random((3, 16, 16))))
        (tmp_path / "heatmaps.jsonl").write_text(
            "".join(json.dumps({"id": f"s{i}", "path": f"s{i}.pshm"}) + "\n" for i in range(2))
        )
        inputs = ["--skeleton", str(tmp_path / "skeleton.json"),
                  "--params", str(tmp_path / "model.json"),
                  "--heatmaps", str(tmp_path / "heatmaps.jsonl")]
        scores, refined = tmp_path / "scores.jsonl", tmp_path / "refined.jsonl"
        assert run_cli(["score", *inputs, "--out", str(scores)]) == 0
        assert run_cli(["refine", *inputs, "--out", str(refined)]) == 0
        for path, field in ((scores, "total"), (refined, "objective")):
            assert "NaN" not in path.read_text()
            assert [record[field] for record in read_jsonl(path)] == [-math.inf] * 2
        out = tmp_path / "selected.json"
        assert run_cli(
            ["select", "--scores", str(scores), "--strategy", "vl4pose",
             "--budget", "1", "--out", str(out)]
        ) == 0
        assert json.loads(out.read_text())["selected"] == ["s0"]

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

    def test_a_covariance_no_ridge_makes_positive_definite_exits_4(self, tmp_path, capsys):
        # Link 0's displacements lie on one line, 1e150 apart: a rank-1
        # covariance near 1e300 that no ridge up to 1e12 changes.
        skeleton_path = tmp_path / "skel.json"
        skeleton_path.write_text(json.dumps(SKELETON_DOC), encoding="utf-8")
        labeled_path = tmp_path / "labeled.jsonl"
        labeled_path.write_text(
            "".join(
                json.dumps({"id": f"p{i}", "pose": [[0, 0], [d, d], [d, d + 4]]}) + "\n"
                for i, d in enumerate([1e150, 2e150, 3e150, 5e150])
            ),
            encoding="utf-8",
        )
        out = tmp_path / "x.json"
        assert run_cli(
            ["calibrate", "--skeleton", str(skeleton_path), "--labeled", str(labeled_path),
             "--model", "offset", "--out", str(out)]
        ) == 4
        assert capsys.readouterr().err.splitlines() == [
            "poselik: error: link #0: covariance is not positive-definite"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labeled.jsonl", "skel.json"]


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
        stages = manifest["stages"]
        names = {"poses", "peaks", "pool", "fit", "score", "select", "heldout"}
        assert set(stages) == {"wall_ms", "cpu_ms"}
        assert set(stages["wall_ms"]) == set(stages["cpu_ms"]) == names
        assert all(t >= 0.0 for t in [*stages["wall_ms"].values(), *stages["cpu_ms"].values()])
        assert sum(stages["wall_ms"].values()) <= manifest["timings_ms"]["total"]

    # SHA-256 of the report and of the selections, as first written: a change
    # in pose generation, pool peaks, caching or scoring shows here.
    PINNED = {
        "max": (
            "28938ba07f5a19bf2ea345d9b873fd01b6480024143fa24187d506f94bc50434",
            "369f6151051c409f7ea0fa3c9e0011b050892a6590d3e3d81212aed7f4ce44bc",
        ),
        "expected": (
            "924280c60b3172b12f052ec4029da83bf3e42dbc2a762e4ea340ca7eb72dc375",
            "f330163b33465731b170662f0917406019b22d36fed940a54d0454eddc55a3d5",
        ),
    }

    @pytest.mark.parametrize("ranking", sorted(PINNED))
    def test_outputs_keep_their_pinned_bytes(self, tmp_path, ranking):
        links = 4
        doc = {
            "seed": 23, "rounds": 3, "budget": 4,
            "pool": {"labeled": 6, "unlabeled": 40, "ood": 6, "heldout": 5},
            "skeleton": {"joints": 5},
            "generator": {"link_means": [5.0] * links, "link_sds": [1.0] * links,
                          "angle_ranges": [[-0.6, 0.6]] * links},
            "ood_generator": {"link_means": [8.0] * links, "link_sds": [1.0] * links,
                              "angle_ranges": [[-0.6, 0.6]] * links},
            "heatmap": {"height": 48, "width": 48, "peak_sigma": 1.5,
                        "distractors": 3, "distractor_amplitude": 0.7},
            "ranking_mode": ranking,
            "initial_random_fraction": 0.25,
            "strategies": ["vl4pose", "entropy", "random"],
        }
        out = tmp_path / "report.json"
        config = self.write_config(tmp_path, doc)
        assert run_cli(["simulate", "--config", str(config), "--out", str(out)]) == 0
        digests = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (out, tmp_path / "report.json.selections.jsonl")
        )
        assert digests == self.PINNED[ranking]

    # SHA-256 of the report and of the selections of three pool shapes, as
    # first written by the one-draw-at-a-time generator: the bench's shape,
    # one whose poses and distractors are often redrawn (about 100 pose
    # attempts for 60 poses, and 1,006 integer draws where 432 would do), and
    # one with a random warm-up ranked by expected likelihood.
    POOL_PINNED = {
        "bench": (
            "5fd4cf3d2c8b1cbcce14d85281a2832846d6d377720cbf8455b76911aa9e83c0",
            "12dd2fac3715a0fd0e9f105e8012c2e06f76d881218756b88c92dec68a4ca3cd",
        ),
        "redrawn": (
            "02bcfde14d0a60cdec5ba8d3c00a47886153d04d6d9eac91faf76f605f513dae",
            "07eb16c99767d2ce8be86046b0e7f8fd95a8fa7e5ac4372fe5e09ce4274a0c83",
        ),
        "warmup": (
            "1d3b30741935eff8013a7d80ac2a52c7ef7d90cf2cb191bfbfbefaa13e970bf4",
            "9a5ad0a2d8a1c504104ac672debd2794daa32157293d97157e18ac7166463edc",
        ),
    }

    @staticmethod
    def pool_doc(shape):
        links = 3 if shape == "redrawn" else 4
        doc = {
            "seed": 41, "rounds": 2, "budget": 5,
            "pool": {"labeled": 8, "unlabeled": 48, "ood": 6, "heldout": 4},
            "skeleton": {"joints": links + 1},
            "generator": {"link_means": [5.0] * links, "link_sds": [1.0] * links,
                          "angle_ranges": [[-0.6, 0.6]] * links},
            "ood_generator": {"link_means": [8.0] * links, "link_sds": [1.0] * links,
                              "angle_ranges": [[-0.6, 0.6]] * links},
            "heatmap": {"height": 64, "width": 64, "peak_sigma": 1.5,
                        "distractors": 4, "distractor_amplitude": 0.5},
            "ranking_mode": "max",
            "strategies": ["vl4pose", "entropy", "random"],
        }
        if shape == "redrawn":
            doc["generator"].update(link_means=[3.0] * links, angle_ranges=[[-3.0, 3.0]] * links)
            doc["ood_generator"].update(link_means=[5.0] * links, link_sds=[2.0] * links,
                                        angle_ranges=[[-3.0, 3.0]] * links)
            doc["heatmap"].update(height=16, width=16, peak_sigma=1.8, distractors=3)
        if shape == "warmup":
            doc.update(ranking_mode="expected", initial_random_fraction=0.4)
        return doc

    @pytest.mark.parametrize("shape", sorted(POOL_PINNED))
    def test_pool_shapes_keep_their_pinned_bytes(self, tmp_path, shape):
        out = tmp_path / "report.json"
        config = self.write_config(tmp_path, self.pool_doc(shape))
        assert run_cli(["simulate", "--config", str(config), "--out", str(out)]) == 0
        digests = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (out, tmp_path / "report.json.selections.jsonl")
        )
        assert digests == self.POOL_PINNED[shape]

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
    def test_a_tiny_peak_sigma_exits_3_without_outputs(self, tmp_path, capsys, peak_sigma):
        # 2 * sigma**2 is subnormal at 1e-160 and 0 at 1e-200: each bump's centre
        # would be NaN, so no pool can satisfy the config.
        doc = self.config_doc()
        doc["heatmap"]["peak_sigma"] = peak_sigma
        out = tmp_path / "x.json"
        assert run_cli(
            ["simulate", "--config", str(self.write_config(tmp_path, doc)), "--out", str(out)]
        ) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config.heatmap.peak_sigma is too small" in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("generator", ["generator", "ood_generator"])
    def test_an_angle_range_whose_width_overflows_exits_3_without_outputs(
        self, tmp_path, capsys, generator
    ):
        # Both ends are finite, but a draw scales hi - lo, which is not.
        doc = self.config_doc()
        doc[generator]["angle_ranges"][1] = [-1e308, 1e308]
        out = tmp_path / "x.json"
        assert run_cli(
            ["simulate", "--config", str(self.write_config(tmp_path, doc)), "--out", str(out)]
        ) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"config.{generator}.angle_ranges[1]" in err[0]
        assert "overflows" in err[0]
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

    @pytest.mark.parametrize(
        "side, message",
        [
            (30000, "the pool of 30000x30000 grids does not fit in memory"),
            (2**29, "the pool of 536870912x536870912 grids does not fit in memory"),
            (2**29 + 1, "config.heatmap.height must be <= 536870912, got 536870913"),
            (10**20, "config.heatmap.height must be <= 536870912, got 100000000000000000000"),
        ],
        ids=["30000", "2**29", "2**29+1", "10**20"],
    )
    def test_a_grid_too_large_to_generate_exits_3_without_outputs(self, tmp_path, side, message):
        # The bump table of a 30000x30000 grid takes 26.8 GiB: the run goes in
        # a child whose address space is capped at 2 GiB, so it never gets it.
        doc = self.config_doc()
        doc["heatmap"].update(height=side, width=side, distractors=1)
        config_path = self.write_config(tmp_path, doc)
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from poselik import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        run = subprocess.run(
            [sys.executable, "-c", script, "simulate", "--config", str(config_path),
             "--out", str(tmp_path / "x.json")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (run.returncode, run.stderr) == (3, f"poselik: error: {config_path}: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def write_multi_peak_inputs(tmp_path, model):
    """A seeded manifest of 12 five-joint heatmaps on 32x32 grids, each with
    three distractor bumps, the skeleton and ``model``, and a pose per
    sample off the grid cells, written to ``tmp_path``."""
    rng = np.random.default_rng(2024)
    (tmp_path / "skeleton.json").write_text(
        json.dumps(skeleton_to_dict(model.skeleton)), encoding="utf-8"
    )
    save_model_file(model, tmp_path / "model.json")
    entries, poses = [], []
    for i in range(12):
        pose = Pose(np.column_stack([rng.uniform(8, 24, 5), 4.0 + 6.0 * np.arange(5)]))
        distractors = [
            (int(rng.integers(5)), tuple(rng.integers(0, 32, 2).tolist()), rng.uniform(0.4, 0.9))
            for _ in range(3)
        ]
        heatmap = render_gaussian_heatmap(pose, 32, 32, peak_sigma=1.5, distractors=distractors)
        write_heatmap_file(heatmap, tmp_path / f"m{i}.pshm")
        entries.append(json.dumps({"id": f"m{i}", "path": f"m{i}.pshm"}) + "\n")
        poses.append(json.dumps({"id": f"m{i}", "pose": pose.coordinates.tolist()}) + "\n")
    (tmp_path / "manifest.jsonl").write_text("".join(entries), encoding="utf-8")
    (tmp_path / "poses.jsonl").write_text("".join(poses), encoding="utf-8")


def write_per_image_laws(path, model):
    """A per-image parameter file for the 12 samples of
    :func:`write_multi_peak_inputs`: each gets ``model``'s links scaled by its
    own factor, and a root prior of no form, of the distance form or of the
    offset form, in turn."""
    per_image = {}
    for i in range(12):
        scale = 1.0 + 0.1 * i
        links = [
            {"mean": law.mean_distance * scale, "sigma": law.sigma * scale}
            if isinstance(law, DistanceParams)
            else {"offset": (law.offset * scale).tolist(),
                  "covariance": (law.covariance * scale).tolist()}
            for law in model.link_params
        ]
        roots = [
            None,
            {"mean": 10.0 + i, "sigma": 2.0 + 0.3 * i},
            {"offset": [14.0 + 0.5 * i, 5.0], "covariance": [[9.0 * scale, 2.0], [2.0, 6.0]]},
        ]
        per_image[f"m{i}"] = {"links": links, "root": roots[i % 3]}
    path.write_text(
        json.dumps({"model_kind": model.model_kind, "per_image": per_image}), encoding="utf-8"
    )


class TestPinnedHeatmapOutputs:
    """The heatmap commands keep the bytes they first wrote on multi-peak
    grids: a change in peak extraction or in the arithmetic of any scorer
    shows here, which a comparison with the library, changed with it, misses."""

    DISTANCE = PoseModelParams(
        chain_skeleton(5),
        tuple(DistanceParams(m, s) for m, s in [(6.0, 1.0), (5.5, 1.3), (6.5, 0.8), (6.0, 2.0)]),
        "distance",
    )
    OFFSET = PoseModelParams(
        chain_skeleton(5),
        tuple(OffsetParams([d, 6.0], [[1.5, 0.3], [0.3, 1.0]]) for d in (0.5, -1.0, 0.0, 1.5)),
        "offset", root_params=OffsetParams([16.0, 4.0], [[9.0, 2.0], [2.0, 6.0]]),
    )
    # SHA-256 of each output, as first written.
    PINNED = {
        ("distance", "score"): "6fcd2d383d4b73e9a962a7f0f29a37479f23f534fb10efb00860630f85b8b233",
        ("distance", "refine"): "815132f0dd54dac0c05072f51a383fb73f5712ba0f4a15426f6bfa5bbeb0dcb7",
        ("distance", "maxima"): "20ba2bd6202eee8014d5a3ba86b35f9a44dd65d20d45b26dbd1c932a1bf4ba37",
        ("distance", "point"): "e4c50320d07cee14d47a58e87bfd0c961a2ededb3c23dacbcc3bc2b769e16327",
        ("offset", "score"): "495a291336737ea95eb8e869b1638dfc33e8637bbb8db2027c393efd37810c41",
        ("offset", "refine"): "61dcbb6cc3216f07fe61d347451050108135cda80f1575fc0ccc3e34968ee1c8",
        ("distance", "per-image"):
            "6fa08ceb58efe46908f3d2e816fa26c66f9767765a0fab086945cc5b4fcee565",
        ("distance", "per-image-point"):
            "69f5bec0d82a7b008471f497a32263ff947a4820bace724a18e1c1f920a083ea",
        ("offset", "per-image"):
            "0309f90e6eaf46dfe71dfa3c105be043d2c9a94f60c0c8ed923f8945db38481c",
        ("offset", "per-image-point"):
            "60228eda13f1ac5e467584a692d36b44022c301c2a92dc38e5961505535f282b",
    }

    @pytest.mark.parametrize("kind, command", sorted(PINNED))
    def test_outputs_keep_their_pinned_bytes(self, tmp_path, kind, command):
        model = getattr(self, kind.upper())
        write_multi_peak_inputs(tmp_path, model)
        write_per_image_laws(tmp_path / "per-image.json", model)
        out = tmp_path / "out.jsonl"
        heatmaps = ["--heatmaps", str(tmp_path / "manifest.jsonl")]
        skeleton = ["--skeleton", str(tmp_path / "skeleton.json")]
        shared = [*skeleton, "--params", str(tmp_path / "model.json"), *heatmaps]
        per_image = [*skeleton, "--params", str(tmp_path / "per-image.json"), "--per-image",
                     *heatmaps]
        point = ["--mode", "point", "--poses", str(tmp_path / "poses.jsonl")]
        argv = {
            "score": ["score", *shared],
            "refine": ["refine", *shared],
            "maxima": ["maxima", *heatmaps],
            "point": ["score", *shared, *point],
            "per-image": ["score", *per_image],
            "per-image-point": ["score", *per_image, *point],
        }[command]
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED[kind, command]


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
            "poselik: error: sample 's1': no model parameters\n"
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
            "poselik: error: sample 's1': no model parameters\n"
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
        # Chunks end on shapes and at two 2x9x9 grids' bytes.
        monkeypatch.setattr(cli, "CHUNK_BYTES", 2 * 2 * 9 * 9 * 4)
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

    @pytest.mark.parametrize("per_image", [False, True], ids=["shared", "per-image"])
    def test_point_mode_scores_the_manifest_as_one_chunk(self, tmp_path, monkeypatch, per_image):
        """Point mode reads no heatmap, so its manifest is one chunk: one
        batched call, under a shared model or under ``--per-image``, and
        each line is the sample's own report."""
        skeleton_path, model_path, _, _ = write_inputs(tmp_path, n_samples=0)
        means = {"s0": 6.0, "s1": 5.0, "s2": 30.0, "s3": 6.0, "s4": 7.5}
        if per_image:
            model_path = per_image_params(tmp_path / "per-image.json", means)
        poses = {f"s{i}": Pose([[20.0, 14.0 - i], [20.0 + i, 20.0], [20, 26]]) for i in range(5)}
        (tmp_path / "dangling.jsonl").write_text("".join(
            json.dumps({"id": sample_id, "path": "missing.pshm"}) + "\n" for sample_id in poses
        ))
        (tmp_path / "poses.jsonl").write_text("".join(
            json.dumps({"id": sample_id, "pose": pose.coordinates.tolist()}) + "\n"
            for sample_id, pose in poses.items()
        ))
        calls = []
        for name in ("point_log_likelihood", "point_log_likelihoods"):
            scorer = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda *a, _name=name, _scorer=scorer: calls.append(_name) or _scorer(*a)
            )
        out = tmp_path / "point.jsonl"
        assert run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(model_path),
             *(["--per-image"] if per_image else []),
             "--heatmaps", str(tmp_path / "dangling.jsonl"), "--mode", "point",
             "--poses", str(tmp_path / "poses.jsonl"), "--out", str(out)]
        ) == 0
        expected = [
            json.dumps(point_log_likelihood(
                pose, chain_model(mean=means[sample_id]) if per_image else chain_model()
            ).to_json_dict(sample_id), sort_keys=True) + "\n"
            for sample_id, pose in poses.items()
        ]
        assert out.read_text(encoding="utf-8") == "".join(expected)
        assert calls == ["point_log_likelihoods"]
        manifest = json.loads((tmp_path / "point.jsonl.manifest.json").read_text())
        assert manifest["stages"]["chunks"] == 1

    def test_point_mode_names_the_first_failing_sample(self, tmp_path, capsys):
        """s3's pose has two joints and s4 has none: one chunk, and the run
        still names s3."""
        skeleton_path, model_path, _, _ = write_inputs(tmp_path, n_samples=0)
        (tmp_path / "dangling.jsonl").write_text("".join(
            json.dumps({"id": f"s{i}", "path": "missing.pshm"}) + "\n" for i in range(5)
        ))
        poses = [[[20, 14], [20, 20], [20, 26]]] * 3 + [[[20, 14], [20, 20]]]
        (tmp_path / "poses.jsonl").write_text("".join(
            json.dumps({"id": f"s{i}", "pose": pose}) + "\n" for i, pose in enumerate(poses)
        ))
        out = tmp_path / "point.jsonl"
        assert run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(model_path),
             "--heatmaps", str(tmp_path / "dangling.jsonl"), "--mode", "point",
             "--poses", str(tmp_path / "poses.jsonl"), "--out", str(out)]
        ) == 4
        assert capsys.readouterr().err == (
            "poselik: error: sample 's3': pose has 2 joints, skeleton has 3\n"
        )
        assert not out.exists() and not (tmp_path / "point.jsonl.manifest.json").exists()

    def test_point_mode_names_a_sample_without_a_pose_once(self, tmp_path, capsys):
        """s1 has no pose: the one stderr line names it once."""
        skeleton_path, model_path, _, _ = write_inputs(tmp_path, n_samples=0)
        (tmp_path / "dangling.jsonl").write_text("".join(
            json.dumps({"id": f"s{i}", "path": "missing.pshm"}) + "\n" for i in range(3)
        ))
        (tmp_path / "poses.jsonl").write_text("".join(
            json.dumps({"id": f"s{i}", "pose": [[20, 14], [20, 20], [20, 26]]}) + "\n"
            for i in (0, 2)
        ))
        out = tmp_path / "point.jsonl"
        assert run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(model_path),
             "--heatmaps", str(tmp_path / "dangling.jsonl"), "--mode", "point",
             "--poses", str(tmp_path / "poses.jsonl"), "--out", str(out)]
        ) == 4
        assert capsys.readouterr().err == "poselik: error: sample 's1': no pose provided\n"
        assert not out.exists() and not (tmp_path / "point.jsonl.manifest.json").exists()

    def test_per_image_point_mode_names_a_missing_pose_before_missing_parameters(
        self, tmp_path, capsys
    ):
        """s2 has neither a pose nor parameters: its own run finds the pose
        missing first, so the batch says the same."""
        skeleton_path, _, _, _ = write_inputs(tmp_path, n_samples=0)
        params_path = per_image_params(
            tmp_path / "per-image.json", {"s0": 6.0, "s1": 5.0, "s3": 6.0}
        )
        (tmp_path / "dangling.jsonl").write_text("".join(
            json.dumps({"id": f"s{i}", "path": "missing.pshm"}) + "\n" for i in range(4)
        ))
        (tmp_path / "poses.jsonl").write_text("".join(
            json.dumps({"id": f"s{i}", "pose": [[20, 14], [20, 20], [20, 26]]}) + "\n"
            for i in (0, 1, 3)
        ))
        out = tmp_path / "point.jsonl"
        assert run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(params_path),
             "--per-image", "--heatmaps", str(tmp_path / "dangling.jsonl"), "--mode", "point",
             "--poses", str(tmp_path / "poses.jsonl"), "--out", str(out)]
        ) == 4
        assert capsys.readouterr().err == "poselik: error: sample 's2': no pose provided\n"
        assert not out.exists() and not (tmp_path / "point.jsonl.manifest.json").exists()

    def test_per_image_scores_match_each_image_alone(self, tmp_path, monkeypatch):
        skeleton_path, _, manifest_path, _ = write_inputs(tmp_path, n_samples=5)
        means = {"s0": 6.0, "s1": 5.0, "s2": 30.0, "s3": 6.0, "s4": 7.5}
        params_path = per_image_params(tmp_path / "per-image.json", means)
        out = tmp_path / "scores.jsonl"
        monkeypatch.setattr(cli, "CHUNK_BYTES", 3 * 3 * 48 * 48 * 4)  # three samples
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

    @pytest.mark.parametrize("samples, rows", [(17, [16, 1]), (3, [3])], ids=["17", "3"])
    def test_the_byte_budget_alone_sizes_a_chunk(self, tmp_path, monkeypatch, samples, rows):
        values = np.zeros((16, 64, 64), np.float32)  # 256 KiB: 16 fill CHUNK_BYTES
        values[:, 30, 30] = 1.0
        write_heatmap_file(Heatmap(values), tmp_path / "h.pshm")
        manifest_path = tmp_path / "m.jsonl"
        manifest_path.write_text("".join(
            json.dumps({"id": f"h{i}", "path": "h.pshm"}) + "\n" for i in range(samples)
        ), encoding="utf-8")
        seen = []

        def extract(values, *settings):
            seen.append(len(values))
            return extract_peak_sets(values, *settings)

        monkeypatch.setattr(cli, "extract_peak_sets", extract)
        out = tmp_path / "peaks.jsonl"
        assert run_cli(["maxima", "--heatmaps", str(manifest_path), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "peaks.jsonl.manifest.json").read_text())
        assert (manifest["stages"]["chunks"], seen) == (len(rows), rows)
        assert len(read_jsonl(out)) == samples

    @pytest.mark.parametrize("alone_fits", [True, False], ids=["alone-fits", "never-fits"])
    def test_a_chunk_out_of_memory_runs_its_samples_alone(
        self, tmp_path, monkeypatch, capsys, alone_fits
    ):
        _, _, manifest_path, _ = write_inputs(tmp_path, n_samples=3)  # one chunk
        out = tmp_path / "peaks.jsonl"
        argv = ["maxima", "--heatmaps", str(manifest_path), "--out", str(out)]
        assert run_cli(argv) == 0
        chunked = out.read_text(encoding="utf-8")

        def extract(values, *settings):
            if len(values) > 1 or not alone_fits:
                raise MemoryError  # as Python raises it: without a message
            return extract_peak_sets(values, *settings)

        monkeypatch.setattr(cli, "extract_peak_sets", extract)
        if alone_fits:
            assert run_cli(argv) == 0
            assert out.read_text(encoding="utf-8") == chunked
        else:
            assert run_cli(argv) == 4
            assert capsys.readouterr().err == "poselik: error: sample 's0': out of memory\n"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    @pytest.mark.parametrize("headroom_mib, buffered", [(64, False), (200, True)],
                             ids=["buffer", "extraction"])
    def test_a_heatmap_too_large_for_memory_exits_4_naming_it(
        self, tmp_path, headroom_mib, buffered
    ):
        # One 1x6000x6000 grid: a 137 MiB payload of zeros, left sparse, so no
        # payload is written here. The run goes in a child whose address space
        # is capped at its size after import plus the headroom: 64 MiB cannot
        # hold the chunk buffer; 200 MiB holds it and the read's finiteness
        # check, but not extraction, for which every cell of a zero grid is a
        # candidate (274 MiB of cell indices).
        with open(tmp_path / "big.pshm", "wb") as fh:
            fh.write(PSHM_HEADER.pack(b"PSHM", 1, 1, 6000, 6000))
            fh.truncate(PSHM_HEADER.size + 4 * 6000 * 6000)
        manifest_path = tmp_path / "m.jsonl"
        manifest_path.write_text(json.dumps({"id": "a", "path": "big.pshm"}) + "\n")
        script = (
            "import resource, sys\n"
            "from poselik import cli\n"
            "with open('/proc/self/status') as fh:\n"
            "    kib = next(int(line.split()[1]) for line in fh if line.startswith('VmSize:'))\n"
            f"limit = (kib << 10) + ({headroom_mib} << 20)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, resource.RLIM_INFINITY))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        run = subprocess.run(
            [sys.executable, "-c", script, "maxima", "--heatmaps", str(manifest_path),
             "--out", str(tmp_path / "peaks.jsonl")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 4, run.stderr
        assert run.stderr.startswith("poselik: error: sample 'a': ")
        assert len(run.stderr.splitlines()) == 1
        assert ("(1, 1, 6000, 6000)" in run.stderr) != buffered  # the buffer's allocation
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.pshm", "m.jsonl"]

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

    def test_an_interrupted_run_exits_130_and_leaves_no_file(
        self, tmp_path, capsys, monkeypatch
    ):
        """SIGINT part way through: the records of the first chunk are staged,
        the second chunk is interrupted, and the run removes what it staged."""
        skeleton_path, model_path, manifest_path, _ = write_inputs(tmp_path, n_samples=2)
        inputs = sorted(p.name for p in tmp_path.iterdir())
        monkeypatch.setattr(cli, "CHUNK_BYTES", 1)  # one sample per chunk
        chunks = []

        def extract(values, *settings):
            chunks.append(len(values))
            if len(chunks) == 2:
                raise KeyboardInterrupt
            return extract_peak_sets(values, *settings)

        monkeypatch.setattr(cli, "extract_peak_sets", extract)
        handler = signal.getsignal(signal.SIGTERM)
        assert run_cli(
            ["score", "--skeleton", str(skeleton_path), "--params", str(model_path),
             "--heatmaps", str(manifest_path), "--out", str(tmp_path / "scores.jsonl")]
        ) == 130
        assert capsys.readouterr().err == "poselik: error: interrupted by SIGINT\n"
        assert chunks == [1, 1]
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs
        assert signal.getsignal(signal.SIGTERM) is handler

    def test_a_terminated_run_exits_143_and_leaves_no_file(self, tmp_path):
        """SIGTERM once the output is staged, while the run extracts peaks: it
        unwinds as on SIGINT."""
        skeleton_path, model_path, manifest_path, _ = write_inputs(tmp_path, n_samples=2)
        inputs = sorted(p.name for p in tmp_path.iterdir())
        script = (
            "import sys, time\n"
            "from poselik import cli\n"
            "cli.extract_peak_sets = lambda *args: time.sleep(60)\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        out = tmp_path / "scores.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "score", "--skeleton", str(skeleton_path),
             "--params", str(model_path), "--heatmaps", str(manifest_path), "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            deadline = time.monotonic() + 60
            while not list(tmp_path.glob("scores.jsonl.*.tmp")) and time.monotonic() < deadline:
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert (proc.returncode, stdout, stderr) == (
            143, "", "poselik: error: interrupted by SIGTERM\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs


def test_importing_the_cli_loads_no_numpy_submodule():
    """Start-up time is a measured cost: beyond ``import numpy`` itself, the
    CLI's imports pull in no numpy submodule (``np.unique`` would bring
    ``numpy.ma``)."""
    script = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import poselik.cli\n"
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.')))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


class TestThreadsAndParser:
    def test_version_flag(self, capsys):
        import poselik

        assert run_cli(["--version"]) == 0
        assert poselik.__version__ in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli([]) == 2


class TestManifestFields:
    """Each command's manifest records its options as ``config``, hashes
    each input file it was given under ``inputs``, and states its ``seed``."""

    @staticmethod
    def argv(tmp_path, case):
        skeleton, params, heatmaps, _ = write_inputs(tmp_path)
        model = ["--skeleton", str(skeleton), "--params", str(params)]
        poses = tmp_path / "poses.jsonl"
        poses.write_text("".join(
            json.dumps({"id": f"s{i}", "pose": [[20, 14], [20, 20 + i], [20, 26 + 2 * i]]}) + "\n"
            for i in range(3)
        ), encoding="utf-8")
        scores = tmp_path / "scores.jsonl"
        scores.write_text("".join(
            json.dumps({"id": f"s{i}", "total": -float(i)}) + "\n" for i in range(3)
        ), encoding="utf-8")
        config = TestSimulateCommand().write_config(tmp_path)
        return {
            "score": ["score", *model, "--heatmaps", str(heatmaps)],
            "score-point": ["score", *model, "--heatmaps", str(heatmaps),
                            "--mode", "point", "--poses", str(poses)],
            "score-per-image": [
                "score", "--skeleton", str(skeleton), "--per-image", "--heatmaps", str(heatmaps),
                "--params", str(per_image_params(
                    tmp_path / "per_image.json", {f"s{i}": 6.0 for i in range(3)}
                )),
            ],
            "refine": ["refine", *model, "--heatmaps", str(heatmaps)],
            "maxima": ["maxima", "--heatmaps", str(heatmaps), "--threshold", "0.25"],
            "select": ["select", "--scores", str(scores), "--strategy", "random",
                       "--budget", "2", "--seed", "7"],
            "calibrate": ["calibrate", "--skeleton", str(skeleton), "--labeled", str(poses),
                          "--model", "offset"],
            "simulate": ["simulate", "--config", str(config)],
        }[case]

    CASES = {  # config without "out", the inputs hashed, seed
        "score": ({"mode": "expected", "per_image": False},
                  {"skeleton", "params", "heatmaps"}, None),
        "score-point": ({"mode": "point", "per_image": False},
                        {"skeleton", "params", "heatmaps", "poses"}, None),
        "score-per-image": ({"mode": "expected", "per_image": True},
                            {"skeleton", "params", "heatmaps"}, None),
        "refine": ({}, {"skeleton", "params", "heatmaps"}, None),
        "maxima": ({"threshold": 0.25, "max_peaks": 10}, {"heatmaps"}, None),
        "select": ({"strategy": "random", "budget": 2}, {"scores"}, 7),
        "calibrate": ({"model": "offset"}, {"skeleton", "labeled"}, None),
        "simulate": (None, {"config"}, 7),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_config_inputs_and_seed(self, tmp_path, case):
        out = tmp_path / "out.json"
        assert run_cli([*self.argv(tmp_path, case), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "out.json.manifest.json").read_text(encoding="utf-8"))
        config, inputs, seed = self.CASES[case]
        if config is None:  # simulate records its parsed config, which holds the seed
            config = SimulationConfig.from_dict(TestSimulateCommand().config_doc()).to_json_dict()
        else:
            config = {**config, "out": str(out)}
        assert manifest["config"] == config
        assert set(manifest["inputs"]) == inputs
        assert manifest["seed"] == seed
