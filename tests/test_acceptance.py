"""Acceptance gate: eight end-to-end guarantees, one printed line each.

Every test wraps its body in :func:`criterion`, which records a PASS/FAIL
line that the terminal summary prints after the run.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from poselik import (
    DistanceParams,
    LabeledPoseSet,
    OffsetParams,
    Pose,
    PoseModelParams,
    SimulationConfig,
    brute_force_best_pose,
    cli,
    expected_log_likelihood,
    fit_model,
    link_log_density,
    multi_peak_entropy,
    point_log_likelihood,
    refine_pose,
    render_gaussian_heatmap,
    run_simulation,
    save_model_file,
    validate_skeleton,
    write_heatmap_file,
)

from conftest import record_acceptance
from _helpers import (
    oracle_expected_ll_by_enumeration,
    oracle_peakset_entropy,
    random_distance_model,
    random_offset_model,
    random_peakset,
    random_tree_skeleton,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        record_acceptance(f"criterion {number}: FAIL - {description}")
        raise
    record_acceptance(f"criterion {number}: PASS - {description}")


def budgeted_peak_counts(rng, n_joints: int, cap: int, budget: int) -> list[int]:
    """Per-joint peak counts whose product stays within the search budget."""
    counts = []
    for _ in range(n_joints):
        allowed = max(1, min(cap, budget))
        count = int(rng.integers(1, allowed + 1))
        counts.append(count)
        budget //= count
    rng.shuffle(counts)
    return counts


def test_criterion_1_refinement_matches_exhaustive_search():
    with criterion(
        1, "refinement equals exhaustive search exactly on 1000 random trees (<60 s)"
    ):
        rng = np.random.default_rng(42)
        started = time.perf_counter()
        for _ in range(1000):
            n_joints = int(rng.integers(3, 17))
            skeleton = random_tree_skeleton(rng, n_joints)
            counts = budgeted_peak_counts(rng, n_joints, cap=5, budget=100_000)
            peaks = random_peakset(rng, n_joints, grid=64, counts=counts)
            model = random_distance_model(rng, skeleton, root_prior=bool(rng.integers(2)))
            refined = refine_pose(peaks, model)
            brute = brute_force_best_pose(peaks, model)
            assert refined.chosen_peak_index == brute.chosen_peak_index
            assert refined.objective == brute.objective
            assert refined.log_likelihood == brute.log_likelihood
            np.testing.assert_array_equal(
                refined.pose.coordinates, brute.pose.coordinates
            )
        assert time.perf_counter() - started < 60.0


def test_criterion_2_expectation_matches_enumeration():
    with criterion(
        2, "expected likelihood matches full enumeration within 1e-9 on 1000 instances"
    ):
        rng = np.random.default_rng(42)
        for trial in range(1000):
            n_joints = int(rng.integers(3, 6))
            skeleton = random_tree_skeleton(rng, n_joints)
            counts = [int(c) for c in rng.integers(1, 4, size=n_joints)]
            peaks = random_peakset(rng, n_joints, grid=48, counts=counts)
            if trial % 2:
                model = random_offset_model(rng, skeleton)
            else:
                model = random_distance_model(rng, skeleton, root_prior=bool(rng.integers(2)))
            got = expected_log_likelihood(peaks, model).total
            want = oracle_expected_ll_by_enumeration(peaks, model)
            assert abs(got - want) <= 1e-9


def test_criterion_3_analytic_gaussian_anchors():
    with criterion(
        3, "zero-residual unit-sigma link terms hit analytic constants within 1e-12"
    ):
        half_log_2pi = 0.5 * math.log(2.0 * math.pi)
        univariate = link_log_density(
            (0.0, 0.0), (0.0, 7.0), DistanceParams(7.0, 1.0)
        )
        assert abs(univariate - (-half_log_2pi)) <= 1e-12
        for dim in (2, 3):
            params = OffsetParams(
                offset=np.arange(1.0, dim + 1.0), covariance=np.eye(dim)
            )
            multivariate = link_log_density(
                np.zeros(dim), np.arange(1.0, dim + 1.0), params
            )
            assert abs(multivariate - (-dim * half_log_2pi)) <= 1e-12


def test_criterion_4_fitted_parameters_are_local_optima():
    with criterion(
        4, "+/-1% parameter perturbations never beat the closed-form fit (100 sets)"
    ):
        rng = np.random.default_rng(42)
        for _ in range(100):
            skeleton = random_tree_skeleton(rng, int(rng.integers(2, 7)))
            poses = [
                Pose(rng.uniform(0.0, 40.0, size=(skeleton.n_joints, 2)))
                for _ in range(int(rng.integers(4, 13)))
            ]
            data = LabeledPoseSet.of(skeleton, poses)
            fitted = fit_model(data, "distance")
            base = sum(point_log_likelihood(p, fitted).total for p in poses)
            for link_idx, link in enumerate(fitted.link_params):
                for factor in (0.99, 1.01):
                    for candidate in (
                        DistanceParams(link.mean_distance * factor, link.sigma),
                        DistanceParams(link.mean_distance, link.sigma * factor),
                    ):
                        params = list(fitted.link_params)
                        params[link_idx] = candidate
                        perturbed = PoseModelParams(
                            skeleton=skeleton,
                            link_params=tuple(params),
                            model_kind="distance",
                        )
                        total = sum(
                            point_log_likelihood(p, perturbed).total for p in poses
                        )
                        assert total <= base + 1e-12


def simulation_doc(seed: int, distractors: bool) -> dict:
    """Chain of three ~6px links; planted samples run five sigmas longer."""
    doc = {
        "seed": seed,
        "rounds": 1,
        "budget": 6,
        "pool": {"labeled": 12, "unlabeled": 24, "ood": 6, "heldout": 6},
        "skeleton": {"joints": 4},
        "generator": {
            "link_means": [6.0, 6.0, 6.0],
            "link_sds": [1.0, 1.0, 1.0],
            "angle_ranges": [[-0.6, 0.6], [-0.6, 0.6], [-0.6, 0.6]],
        },
        "ood_generator": {
            "link_means": [11.0, 11.0, 11.0],
            "link_sds": [1.0, 1.0, 1.0],
            "angle_ranges": [[-0.6, 0.6], [-0.6, 0.6], [-0.6, 0.6]],
        },
        "heatmap": {"height": 96, "width": 96, "peak_sigma": 1.5},
        "strategies": ["vl4pose", "random"],
    }
    if distractors:
        doc["heatmap"].update(distractors=2, distractor_amplitude=0.5)
        # Expectation scores are dominated by distractor noise; rank by the
        # refined maximum, which discards implausible peaks.
        doc["ranking_mode"] = "max"
    return doc


def test_criterion_5_planted_ood_detection():
    with criterion(
        5,
        "5-sigma planted OOD: clean AUC and recall 1.0 (seed 7); "
        "beats random in >=19/20 distractor seeds",
    ):
        clean = run_simulation(SimulationConfig.from_dict(simulation_doc(7, False)))
        metrics = clean.report["metrics"]["vl4pose"]
        assert metrics["ood_auc"] == [1.0]
        assert metrics["ood_recall"] == [1.0]

        wins = 0
        for seed in range(20):
            report = run_simulation(
                SimulationConfig.from_dict(simulation_doc(seed, True))
            ).report
            vl4pose_auc = report["metrics"]["vl4pose"]["ood_auc"][0]
            random_auc = report["metrics"]["random"]["ood_auc"][0]
            wins += vl4pose_auc > random_auc
        assert wins >= 19


def test_criterion_6_entropy_baseline_consistency():
    with criterion(
        6, "peak entropy matches -sum(p ln p) within 1e-12 and is 0 on single peaks"
    ):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n_joints = int(rng.integers(1, 9))
            peaks = random_peakset(rng, n_joints, max_peaks=6, grid=48)
            got = multi_peak_entropy(peaks)
            assert abs(got - oracle_peakset_entropy(peaks)) <= 1e-12
        single = random_peakset(rng, 5, grid=48, counts=[1, 1, 1, 1, 1])
        assert multi_peak_entropy(single) == 0.0


def test_criterion_7_single_thread_scoring_throughput(tmp_path, monkeypatch):
    with criterion(
        7, "single-thread scoring averages <5 ms/sample over a 1000-sample batch"
    ):
        joints = 16
        skeleton_doc = {
            "joints": [f"j{i}" for i in range(joints)],
            "root": 0,
            "dimension": 2,
            "links": [[i, i + 1] for i in range(joints - 1)],
        }
        skeleton_path = tmp_path / "skeleton.json"
        skeleton_path.write_text(json.dumps(skeleton_doc), encoding="utf-8")
        model = PoseModelParams(
            skeleton=validate_skeleton(skeleton_doc),
            link_params=tuple(DistanceParams(4.0, 1.0) for _ in range(joints - 1)),
            model_kind="distance",
        )
        model_path = tmp_path / "model.json"
        save_model_file(model, model_path)

        rng = np.random.default_rng(42)
        file_names = []
        for i in range(50):
            rows = 4.0 + np.arange(joints) * 3.5 + rng.uniform(-1, 1, size=joints)
            cols = 16.0 + rng.uniform(-8, 8, size=joints).cumsum().clip(-12, 12) + 24.0
            pose = Pose(np.column_stack([rows.clip(2, 61), cols.clip(2, 61)]))
            distractors = [
                (int(rng.integers(joints)),
                 (float(rng.integers(2, 62)), float(rng.integers(2, 62))),
                 0.5)
                for _ in range(8)
            ]
            heatmap = render_gaussian_heatmap(pose, 64, 64, 1.5, distractors=distractors)
            name = f"batch-{i:02d}.pshm"
            write_heatmap_file(heatmap, tmp_path / name)
            file_names.append(name)
        manifest_path = tmp_path / "batch.jsonl"
        manifest_path.write_text(
            "\n".join(
                json.dumps({"id": f"m{i:04d}", "path": file_names[i % 50]})
                for i in range(1000)
            )
            + "\n",
            encoding="utf-8",
        )

        monkeypatch.setenv("POSELIK_THREADS", "1")
        out = tmp_path / "scores.jsonl"
        code = cli.main(
            ["score", "--skeleton", str(skeleton_path), "--params", str(model_path),
             "--heatmaps", str(manifest_path), "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "scores.jsonl.manifest.json").read_text())
        assert manifest["samples"] == 1000
        per_sample_ms = manifest["timings_ms"]["compute"] / 1000.0
        assert per_sample_ms < 5.0


def test_criterion_8_simulation_reports_are_byte_identical(tmp_path):
    with criterion(8, "repeated simulation runs write byte-identical reports"):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(simulation_doc(7, True)), encoding="utf-8")
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert cli.main(["simulate", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert cli.main(["simulate", "--config", str(config_path), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (
            (tmp_path / "a.json.selections.jsonl").read_bytes()
            == (tmp_path / "b.json.selections.jsonl").read_bytes()
        )
