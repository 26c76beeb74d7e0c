"""Tests for the seeded active-learning simulation harness."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poselik import (
    ConfigInvalid,
    Heatmap,
    MissingHeatmap,
    PeakSet,
    SimulationConfig,
    build_pool,
    chain_skeleton,
    extract_peaks,
    render_gaussian_heatmap,
    run_simulation,
)
import poselik
from poselik import simulation
from poselik.simulation import _draw_distractors

from _helpers import assert_same_peaks


def replayed_peaks(cfg, truth):
    """Each unlabeled sample's peaks from a fresh render generator, drawn in
    id order from the same poses and rendered one heatmap at a time."""
    _, render_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    render_rng = np.random.default_rng(render_seed)
    peaks = {}
    for sample_id, pose in truth.items():
        distractors = _draw_distractors(render_rng, pose, cfg)
        heatmap = render_gaussian_heatmap(pose, cfg.height, cfg.width, cfg.peak_sigma, distractors)
        peaks[sample_id] = extract_peaks(heatmap)
    return peaks


def base_doc():
    """A small, geometrically comfortable config: 3 links of ~6px on a
    96x96 grid, with OOD links five sigmas longer."""
    return copy.deepcopy(
        {
            "seed": 7,
            "rounds": 2,
            "budget": 3,
            "pool": {"labeled": 8, "unlabeled": 12, "ood": 3, "heldout": 4},
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
        }
    )


class TestConfigParsing:
    def test_round_trips_through_json_dict(self):
        cfg = SimulationConfig.from_dict(base_doc())
        assert SimulationConfig.from_dict(cfg.to_json_dict()) == cfg

    def test_defaults(self):
        cfg = SimulationConfig.from_dict(base_doc())
        assert cfg.ranking_mode == "expected"
        assert cfg.initial_random_fraction == 0.0
        assert cfg.strategies == ("vl4pose", "entropy", "random")
        assert cfg.distractor_count == 0

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(extra=1), "unknown keys"),
            (lambda d: d["pool"].update(extra=1), "config.pool"),
            (lambda d: d.pop("seed"), "missing"),
            (lambda d: d.update(seed=True), "integer"),
            (lambda d: d.update(rounds=1.5), "integer"),
            (lambda d: d.update(rounds=0), ">= 1"),
            (lambda d: d["pool"].update(heldout=0), ">= 1"),
            (lambda d: d["generator"]["link_sds"].__setitem__(1, 0.0), "> 0"),
            (lambda d: d["generator"]["link_means"].pop(), "list of 3"),
            (lambda d: d["generator"]["angle_ranges"].__setitem__(0, [2.0, 1.0]), "lo"),
            (lambda d: d.update(ood_generator=copy.deepcopy(d["generator"])), "differ"),
            (lambda d: d["pool"].update(ood=13), "exceeds"),
            (lambda d: d.update(rounds=3, budget=5), "exceeds"),
            (lambda d: d.update(strategies=["vl4pose", "psychic"]), "psychic"),
            (lambda d: d.update(strategies=["random", "random"]), "duplicates"),
            (lambda d: d.update(strategies=[]), "empty"),
            (lambda d: d.update(ranking_mode="best"), "ranking_mode"),
            (lambda d: d.update(initial_random_fraction=1.5), "[0, 1]"),
            (lambda d: d["heatmap"].update(distractor_amplitude=1.5), "<= 1"),
            (lambda d: d["heatmap"].update(peak_sigma=0.0), "> 0"),
            (lambda d: d["heatmap"].update(peak_sigma=10**400), "finite"),
            (lambda d: d.update(strategies=2.5), "list of names"),
            (lambda d: d.update(strategies=None), "list of names"),
            (lambda d: d.update(strategies=[[1]]), "list of names"),
            (lambda d: d.update(strategies="random"), "list of names"),
        ],
    )
    def test_rejects_invalid_documents(self, mutate, message):
        doc = base_doc()
        mutate(doc)
        with pytest.raises(ConfigInvalid, match=__import__("re").escape(message)):
            SimulationConfig.from_dict(doc)

    def test_rejects_non_object(self):
        with pytest.raises(ConfigInvalid):
            SimulationConfig.from_dict([1, 2, 3])


class TestChainSkeleton:
    def test_shape(self):
        skel = chain_skeleton(4)
        assert skel.joints == ("j0", "j1", "j2", "j3")
        assert skel.root == 0
        assert skel.links == ((0, 1), (1, 2), (2, 3))
        assert skel.bfs_joints == (0, 1, 2, 3)


class TestBuildPool:
    def test_counts_ids_and_flags(self):
        cfg = SimulationConfig.from_dict(base_doc())
        pool, heldout, truth, is_ood = build_pool(cfg)
        assert len(pool.labeled) == 8
        assert len(pool.unlabeled) == 12
        assert len(heldout) == 4
        assert sorted(pool.labeled) == [f"lab-{i:04d}" for i in range(8)]
        assert sorted(heldout) == [f"held-{i:04d}" for i in range(4)]
        flagged = sorted(s for s, f in is_ood.items() if f)
        assert flagged == ["unl-0009", "unl-0010", "unl-0011"]
        assert set(truth) == set(is_ood) == set(pool.unlabeled)

    def test_truth_poses_are_integer_cells_in_bounds(self):
        cfg = SimulationConfig.from_dict(base_doc())
        _, _, truth, _ = build_pool(cfg)
        for pose in truth.values():
            coords = pose.coordinates
            np.testing.assert_array_equal(coords, np.rint(coords))
            assert np.all(coords >= 1)
            assert np.all(coords[:, 0] <= cfg.height - 2)
            assert np.all(coords[:, 1] <= cfg.width - 2)

    def test_seed_reproducibility(self):
        cfg = SimulationConfig.from_dict(base_doc())
        pool_a, held_a, truth_a, _ = build_pool(cfg)
        pool_b, held_b, truth_b, _ = build_pool(cfg)
        assert list(pool_a.unlabeled) == list(pool_b.unlabeled) == list(truth_a)
        for sample_id in truth_a:
            np.testing.assert_array_equal(
                truth_a[sample_id].coordinates, truth_b[sample_id].coordinates
            )
            assert_same_peaks(pool_a.unlabeled[sample_id], pool_b.unlabeled[sample_id])
        for sample_id in held_a:
            np.testing.assert_array_equal(
                held_a[sample_id].coordinates, held_b[sample_id].coordinates
            )

    def test_pool_keeps_peak_sets_and_no_heatmap(self):
        pool, *_ = build_pool(SimulationConfig.from_dict(base_doc()))
        assert all(isinstance(peaks, PeakSet) for peaks in pool.unlabeled.values())
        held = [v for field in vars(pool).values() for v in field.values()]
        assert not any(isinstance(value, Heatmap) for value in held)

    def test_pool_peaks_match_a_replayed_render(self):
        """The stored peaks are the peaks of the heatmaps a fresh render
        generator reproduces, drawn in id order from the same pose."""
        doc = base_doc()
        doc["heatmap"].update(distractors=2, distractor_amplitude=0.5)
        cfg = SimulationConfig.from_dict(doc)
        pool, _, truth, _ = build_pool(cfg)
        for sample_id, peaks in replayed_peaks(cfg, truth).items():
            assert_same_peaks(pool.unlabeled[sample_id], peaks)

    def test_chunk_size_changes_no_peak(self, monkeypatch):
        """Chunks of 1, 3, 8 and the default size store the replayed peaks,
        byte for byte and in id order, on a pool of 13 samples, which none
        of 3, 8 and the default size divides."""
        doc = base_doc()
        doc["pool"]["unlabeled"] = 13
        doc["heatmap"].update(distractors=3, distractor_amplitude=0.5)
        cfg = SimulationConfig.from_dict(doc)
        sizes = (1, 3, 8, simulation._CHUNK)
        assert all(cfg.unlabeled_size % size for size in sizes[1:])
        expected = None
        for size in sizes:
            monkeypatch.setattr(simulation, "_CHUNK", size)
            pool, _, truth, _ = build_pool(cfg)
            expected = expected or replayed_peaks(cfg, truth)
            assert list(pool.unlabeled) == list(expected)
            for sample_id, peaks in expected.items():
                stored = pool.unlabeled[sample_id]
                for name in ("locs", "scores", "probs", "offsets"):
                    assert getattr(stored, name).dtype == getattr(peaks, name).dtype
                    assert getattr(stored, name).tobytes() == getattr(peaks, name).tobytes()

    def test_a_random_only_pool_renders_nothing(self, monkeypatch):
        """Only vl4pose and entropy read peaks: without them every sample is
        stored without peaks, and no peak is computed."""
        doc = base_doc()
        doc["strategies"] = ["random"]
        monkeypatch.setattr(simulation, "bump_peak_sets", None)  # a call would fail
        pool, _, truth, _ = build_pool(SimulationConfig.from_dict(doc))
        assert list(pool.unlabeled) == list(truth)
        assert all(peaks is None for peaks in pool.unlabeled.values())
        with pytest.raises(MissingHeatmap, match="no peaks"):
            pool.peaks_for("unl-0000")

    def test_distractors_add_extra_peaks(self):
        doc = base_doc()
        doc["heatmap"].update(distractors=2, distractor_amplitude=0.5)
        pool, *_ = build_pool(SimulationConfig.from_dict(doc))
        counts = [sum(peaks.counts()) for peaks in pool.unlabeled.values()]
        assert max(counts) > SimulationConfig.from_dict(doc).joints

    def test_infeasible_geometry_is_rejected(self):
        doc = base_doc()
        doc["generator"]["link_means"] = [80.0, 80.0, 80.0]
        with pytest.raises(ConfigInvalid, match="attempts"):
            build_pool(SimulationConfig.from_dict(doc))

    def test_unplaceable_distractor_is_rejected(self):
        # An 8x8 grid cannot hold a cell 3 * 3.0 + 1 = 10 cells from any joint.
        doc = base_doc()
        doc["generator"]["link_means"] = [1.0, 1.0, 1.0]
        doc["ood_generator"]["link_means"] = [2.0, 2.0, 2.0]
        doc["heatmap"] = {"height": 8, "width": 8, "peak_sigma": 3.0, "distractors": 1}
        with pytest.raises(ConfigInvalid, match="8x8 grid .* 10 cells"):
            build_pool(SimulationConfig.from_dict(doc))


class TestRunSimulation:
    def test_deterministic_replay(self):
        cfg = SimulationConfig.from_dict(base_doc())
        first = run_simulation(cfg)
        second = run_simulation(cfg)
        assert first.report == second.report
        assert first.selections == second.selections

    def test_random_alone_ranks_as_beside_the_others(self):
        """A random-only run, which extracts no peaks, reports for random
        what a run of every strategy reports for it."""
        doc = base_doc()
        every = run_simulation(SimulationConfig.from_dict(doc))
        doc["strategies"] = ["random"]
        alone = run_simulation(SimulationConfig.from_dict(doc))
        for key in ("metrics", "selected"):
            assert alone.report[key] == {"random": every.report[key]["random"]}
        assert alone.selections == [r for r in every.selections if r["strategy"] == "random"]

    def test_report_structure_and_accounting(self):
        cfg = SimulationConfig.from_dict(base_doc())
        out = run_simulation(cfg)
        report = out.report
        assert report["config"] == cfg.to_json_dict()
        assert report["planted_ood"] == ["unl-0009", "unl-0010", "unl-0011"]
        assert set(report["metrics"]) == set(cfg.strategies)
        for strategy in cfg.strategies:
            metrics = report["metrics"][strategy]
            for key in ("ood_recall", "ood_auc", "heldout_mean_ll", "labeled_count"):
                assert len(metrics[key]) == cfg.rounds
            assert metrics["labeled_count"] == [
                cfg.labeled_size + cfg.budget * (r + 1) for r in range(cfg.rounds)
            ]
            assert all(math.isfinite(v) for v in metrics["heldout_mean_ll"])
            picks = report["selected"][strategy]
            assert [len(batch) for batch in picks] == [cfg.budget] * cfg.rounds
            flat = [s for batch in picks for s in batch]
            assert len(set(flat)) == len(flat)  # never select twice
            assert all(s.startswith("unl-") for s in flat)
        assert len(out.selections) == cfg.rounds * cfg.budget * len(cfg.strategies)
        for record in out.selections:
            assert set(record) == {"round", "strategy", "id", "score"}
            assert record["id"] == record["id"].strip()
            assert math.isfinite(record["score"])

    def test_selections_agree_with_selected_lists(self):
        cfg = SimulationConfig.from_dict(base_doc())
        out = run_simulation(cfg)
        for strategy in cfg.strategies:
            for round_idx in range(cfg.rounds):
                from_log = [
                    r["id"]
                    for r in out.selections
                    if r["strategy"] == strategy and r["round"] == round_idx
                ]
                assert from_log == out.report["selected"][strategy][round_idx]

    def test_likelihood_strategy_flags_planted_ood_immediately(self):
        """Links five sigmas long leave the fitted model no doubt: round one
        selects every planted sample, with a perfect ranking."""
        doc = base_doc()
        doc.update(rounds=1, strategies=["vl4pose"])
        out = run_simulation(SimulationConfig.from_dict(doc))
        metrics = out.report["metrics"]["vl4pose"]
        assert metrics["ood_recall"] == [1.0]
        assert metrics["ood_auc"] == [1.0]

    def test_no_planted_ood_yields_null_metrics(self):
        doc = base_doc()
        doc["pool"]["ood"] = 0
        out = run_simulation(SimulationConfig.from_dict(doc))
        for strategy in out.report["metrics"]:
            assert out.report["metrics"][strategy]["ood_recall"] == [None, None]
            assert out.report["metrics"][strategy]["ood_auc"] == [None, None]

    def test_full_random_warmup_mirrors_random_strategy(self):
        doc = base_doc()
        doc.update(rounds=1, initial_random_fraction=1.0, strategies=["vl4pose", "random"])
        out = run_simulation(SimulationConfig.from_dict(doc))
        assert (
            out.report["selected"]["vl4pose"][0] == out.report["selected"]["random"][0]
        )

    def test_max_ranking_mode_runs(self):
        doc = base_doc()
        doc.update(rounds=1, ranking_mode="max", strategies=["vl4pose"])
        out = run_simulation(SimulationConfig.from_dict(doc))
        assert out.report["metrics"]["vl4pose"]["ood_recall"] == [1.0]


def test_simulate_imports_no_numpy_ma(tmp_path):
    """``np.unique`` imports ``numpy.ma`` (about 1.4 MB of RSS and 15 ms of
    start-up): a whole ``simulate`` run, peaks and all, never loads it."""
    doc = base_doc()
    doc["heatmap"].update(distractors=3, distractor_amplitude=0.5)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    script = (
        "import json, sys\n"
        "from poselik import cli\n"
        "code = cli.main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma'])]))\n"
    )
    src = str(Path(poselik.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", script, str(config), str(tmp_path / "report.json")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(run.stdout.splitlines()[-1]) == [0, []]
