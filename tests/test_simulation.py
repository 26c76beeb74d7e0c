"""Tests for the seeded active-learning simulation harness."""

import copy
import functools
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poselik import (
    ConfigInvalid,
    Heatmap,
    LabeledPoseSet,
    MissingHeatmap,
    PeakSet,
    Pose,
    SimulationConfig,
    build_pool,
    chain_skeleton,
    extract_peaks,
    fit_model,
    refine_poses,
    render_gaussian_heatmap,
    run_simulation,
    save_model_file,
    skeleton_to_dict,
    write_heatmap_file,
)
import poselik
from poselik import simulation

from _helpers import (
    assert_same_peaks,
    reference_config_from_dict,
    reference_config_to_json_dict,
    reference_draw_distractors,
    reference_sample_pose,
)


def replayed_peaks(cfg, truth):
    """Each unlabeled sample's peaks from a fresh render generator, drawn in
    id order from the same poses and rendered one heatmap at a time."""
    _, render_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    render_rng = np.random.default_rng(render_seed)
    peaks = {}
    for sample_id, pose in truth.items():
        distractors = reference_draw_distractors(render_rng, pose, cfg)
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


def full_doc():
    """base_doc with every optional key given."""
    doc = base_doc()
    doc.update(ranking_mode="max", initial_random_fraction=0.5, strategies=["entropy", "random"])
    doc["heatmap"].update(distractors=2, distractor_amplitude=0.7)
    return doc


def _paths(value, prefix=()):
    """Every path of keys and indices into a JSON value, the empty one first."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, inner in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(inner, prefix + (key,))


# Every key of the layout, and one that is none.
CONFIG_KEYS = sorted({key for path in _paths(full_doc()) for key in path if isinstance(key, str)})
CONFIG_KEYS.append("extra")
# Wrong types and non-finite, out-of-range and unhashable values, and valid
# ones of each key, so that some mutated documents are still valid configs.
SWAPPED_VALUES = (
    True, False, None, math.nan, math.inf, -math.inf, 10**400, -(10**400), "", "x", "max",
    "expected", [], [[1]], {}, {"extra": 1}, ["random"], ["random", "random"],
    ["vl4pose", "entropy"], -1, 0, 1, 2, 3, 4, 8, 12, 100, 0.0, 0.5, 1.0, 1.5, 6.0, 11.0,
    [6.0, 6.0, 6.0], [1.0, 0.0, 1.0], [[-0.6, 0.6]] * 3, [[0.6, -0.6]] * 3, [2.0, 1.0],
)


@st.composite
def mutated_configs(draw):
    """A valid config document after 1-3 mutations: a key (or list item)
    deleted, an unknown or misplaced key added, or a value swapped."""
    doc = draw(st.sampled_from((base_doc, full_doc)))()
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        target = functools.reduce(operator.getitem, path, doc)
        kind = draw(st.sampled_from(("delete", "add", "swap")))
        value = copy.deepcopy(draw(st.sampled_from(SWAPPED_VALUES)))
        if kind == "add" and isinstance(target, dict):
            target[draw(st.sampled_from(CONFIG_KEYS))] = value
        elif kind == "delete" and path:
            del functools.reduce(operator.getitem, path[:-1], doc)[path[-1]]
        elif path:
            functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
    return doc


def parsed(parse, to_json, doc):
    try:
        cfg = parse(copy.deepcopy(doc))
    except Exception as exc:  # noqa: BLE001 -- any exception must match the reference's
        return type(exc), str(exc)
    return cfg, to_json(cfg)


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@example({**base_doc(), "pool": {**base_doc()["pool"], "extra": 1}, "skeleton": {}})
@example({**base_doc(), "seed": True, "skeleton": {"joints": 1}})
@example({**base_doc(), "ood_generator": base_doc()["generator"], "strategies": []})
@example({**base_doc(), "pool": {**base_doc()["pool"], "ood": 13}, "rounds": 5})
@example({**base_doc(), "rounds": 5, "heatmap": {**base_doc()["heatmap"], "distractors": -1}})
@example({**full_doc(), "heatmap": {**full_doc()["heatmap"], "distractor_amplitude": 1.5}})
@example({**base_doc(), "rounds": 0, "heatmap": {**base_doc()["heatmap"], "peak_sigma": 1e-160}})
@example({**base_doc(), "heatmap": {**base_doc()["heatmap"], "peak_sigma": 1e-200}})
@given(mutated_configs())
def test_config_parser_matches_the_hand_written_reference(doc):
    """The declared config keys raise the reference parser's exception and
    message for every mutated document, or give its config and JSON dict."""
    assert parsed(SimulationConfig.from_dict, SimulationConfig.to_json_dict, doc) == parsed(
        reference_config_from_dict, reference_config_to_json_dict, doc
    )


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
            assert_same_peaks(pool_a.peaks_for(sample_id), pool_b.peaks_for(sample_id))
        for sample_id in held_a:
            np.testing.assert_array_equal(
                held_a[sample_id].coordinates, held_b[sample_id].coordinates
            )

    def test_pool_keeps_peak_sets_and_no_heatmap(self):
        pool, *_ = build_pool(SimulationConfig.from_dict(base_doc()))
        assert isinstance(pool.peaks, PeakSet) and len(pool.peaks) == len(pool.unlabeled)
        held = [*pool.labeled.values(), *pool.unlabeled.values(), pool.peaks]
        assert not any(isinstance(value, Heatmap) for value in held)

    def test_pool_peaks_match_a_replayed_render(self):
        """The stored peaks are the peaks of the heatmaps a fresh render
        generator reproduces, drawn in id order from the same pose."""
        doc = base_doc()
        doc["heatmap"].update(distractors=2, distractor_amplitude=0.5)
        cfg = SimulationConfig.from_dict(doc)
        pool, _, truth, _ = build_pool(cfg)
        for sample_id, peaks in replayed_peaks(cfg, truth).items():
            assert_same_peaks(pool.peaks_for(sample_id), peaks)

    def test_one_call_stores_the_replayed_peaks(self, monkeypatch):
        """One bump_peak_sets call finds the whole pool's peaks: the replayed
        peaks, byte for byte and in id order, on a pool of 13 samples with
        3 distractors each."""
        doc = base_doc()
        doc["pool"]["unlabeled"] = 13
        doc["heatmap"].update(distractors=3, distractor_amplitude=0.5)
        cfg = SimulationConfig.from_dict(doc)
        calls, bump_peak_sets = [], simulation.bump_peak_sets

        def counted(centres, *args):
            calls.append(len(centres))
            return bump_peak_sets(centres, *args)

        monkeypatch.setattr(simulation, "bump_peak_sets", counted)
        pool, _, truth, _ = build_pool(cfg)
        assert calls == [cfg.unlabeled_size]
        expected = replayed_peaks(cfg, truth)
        assert list(pool.unlabeled) == list(expected)
        for sample_id, peaks in expected.items():
            stored = pool.peaks_for(sample_id)
            for name in ("locs", "scores", "probs", "offsets"):
                assert getattr(stored, name).dtype == getattr(peaks, name).dtype
                assert getattr(stored, name).tobytes() == getattr(peaks, name).tobytes()

    def test_a_random_only_pool_renders_nothing(self, monkeypatch):
        """Only vl4pose and entropy read peaks: without them the pool holds
        no peaks, and no peak is computed."""
        doc = base_doc()
        doc["strategies"] = ["random"]
        monkeypatch.setattr(simulation, "bump_peak_sets", None)  # a call would fail
        pool, _, truth, _ = build_pool(SimulationConfig.from_dict(doc))
        assert list(pool.unlabeled) == list(truth)
        assert pool.peaks is None
        with pytest.raises(MissingHeatmap, match="no peaks"):
            pool.peaks_for("unl-0000")

    def test_distractors_add_extra_peaks(self):
        doc = base_doc()
        doc["heatmap"].update(distractors=2, distractor_amplitude=0.5)
        pool, *_ = build_pool(SimulationConfig.from_dict(doc))
        counts = [sum(pool.peaks_for(sample_id).counts()) for sample_id in pool.unlabeled]
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


# --- the block draws against the one-draw-at-a-time oracle ----------------------

@st.composite
def redrawn_pools(draw):
    """``simulate`` configs whose poses and distractors are often redrawn:
    8-64 cell grid sides, links up to the grid's side long, any angles, OOD
    mixes, 0-6 distractors a sample, and a ``peak_sigma`` whose separation
    of ``3 * peak_sigma + 1`` cells can reach past what the grid holds."""
    height, width = draw(st.integers(8, 64)), draw(st.integers(8, 64))
    links, side = draw(st.integers(1, 4)), min(height, width)

    def generator():
        laws = st.lists(st.floats(0.1, side), min_size=links, max_size=links)
        angle = st.floats(-4.0, 4.0)
        ranges = st.lists(st.tuples(angle, angle).map(sorted), min_size=links, max_size=links)
        return {"link_means": draw(laws), "link_sds": draw(laws), "angle_ranges": draw(ranges)}

    unlabeled = draw(st.integers(1, 12))
    return {
        "seed": draw(st.integers(0, 2**64 - 1)), "rounds": 1, "budget": 1,
        "pool": {"labeled": draw(st.integers(2, 6)), "unlabeled": unlabeled,
                 "ood": draw(st.integers(0, unlabeled)), "heldout": draw(st.integers(1, 4))},
        "skeleton": {"joints": links + 1},
        "generator": generator(), "ood_generator": generator(),
        "heatmap": {"height": height, "width": width, "distractors": draw(st.integers(0, 6)),
                    "peak_sigma": draw(st.sampled_from([0.3, 1.0]) | st.floats(0.3, side / 3))},
    }


def drawn_or_error(call):
    """What ``call`` returns, or the message of the ``ConfigInvalid`` it raises."""
    try:
        return call()
    except ConfigInvalid as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example({**full_doc(), "seed": 3})
@given(redrawn_pools())
def test_block_draws_equal_the_one_at_a_time_oracle(doc):
    """The poses (labeled, held-out, then unlabeled, OOD last) and each
    unlabeled pose's distractors equal the oracle's, which draws one value at
    a time, and leave both generators where the oracle leaves them; an
    unplaceable pose or distractor raises the oracle's message."""
    try:
        cfg = SimulationConfig.from_dict(doc)
    except ConfigInvalid:  # say, equal generators
        return
    pose_seed, render_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    ours, oracle = np.random.default_rng(pose_seed), np.random.default_rng(pose_seed)
    n_id = cfg.labeled_size + cfg.heldout_size + cfg.unlabeled_size - cfg.ood_count
    gens = [cfg.generator] * n_id + [cfg.ood_generator] * cfg.ood_count
    expected = drawn_or_error(lambda: np.array([
        reference_sample_pose(oracle, gen, cfg).coordinates for gen in gens
    ]))
    cells = drawn_or_error(lambda: np.concatenate([
        simulation._poses(ours, cfg.generator, n_id, cfg),
        simulation._poses(ours, cfg.ood_generator, cfg.ood_count, cfg),
    ]))
    built = drawn_or_error(lambda: build_pool(cfg))
    if isinstance(expected, str):
        assert cells == built == expected
        return
    assert cells.tobytes() == expected.tobytes()
    assert ours.bit_generator.state == oracle.bit_generator.state

    centres = cells[-cfg.unlabeled_size:]
    ours, oracle = np.random.default_rng(render_seed), np.random.default_rng(render_seed)
    expected = drawn_or_error(lambda: [
        [joint, *cell]
        for centre in centres
        for joint, cell, _ in reference_draw_distractors(oracle, Pose(centre), cfg)
    ])
    drawn = drawn_or_error(lambda: simulation._distractors(ours, centres, cfg).tolist())
    assert drawn == expected
    if isinstance(expected, str):
        assert built == expected
        return
    assert ours.bit_generator.state == oracle.bit_generator.state
    _, heldout, truth, _ = built
    poses = [*built[0].labeled.values(), *heldout.values(), *truth.values()]
    assert np.array([pose.coordinates for pose in poses]).tobytes() == cells.tobytes()


# Facts of the installed numpy that the block draws stand on: if an upgrade
# breaks one, its test fails by name instead of every report moving.

@pytest.mark.parametrize("seed", range(20))
def test_numpy_integers_with_a_bound_per_value_make_the_scalar_calls(seed):
    rng = np.random.default_rng(seed)
    low = rng.integers(0, 50, 300)
    high = low + rng.choice([1, 2, 7, 95, 2**31, 2**40], 300)
    ours, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        drawn = ours.integers(low, high).tolist() + ours.integers(1, (9, 63)).tolist()
        expected = [int(scalar.integers(lo, hi)) for lo, hi in zip(low, high)]
        expected += [int(scalar.integers(1, 9)), int(scalar.integers(1, 63))]
        assert drawn == expected
        assert ours.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("loc, scale", [(5.0, 1.0), (8.0, 2.5), (0.1, 1e-3), (3.0, 1e300)])
def test_numpy_normal_is_loc_plus_scale_standard_normal(loc, scale):
    ours, numpys = np.random.default_rng(11), np.random.default_rng(11)
    draws = [numpys.normal(loc, scale) for _ in range(20_000)]
    with np.errstate(over="ignore"):
        assert (loc + scale * ours.standard_normal(20_000)).tolist() == draws
    assert ours.bit_generator.state == numpys.bit_generator.state


def test_numpy_cumsum_and_rint_walk_like_python_floats():
    rng = np.random.default_rng(5)
    steps = rng.standard_normal((500, 9)) * 10.0 ** rng.integers(-8, 9, (500, 9))
    walks = np.cumsum(steps, axis=1)
    for row, walk in zip(steps.tolist(), walks.tolist()):
        assert walk == [functools.reduce(operator.add, row[: i + 1]) for i in range(len(row))]
    halves = np.arange(-20.5, 21.0)
    assert np.rint(halves).tolist() == [float(round(x)) for x in halves.tolist()]


@pytest.mark.parametrize("seed", [1001, 1002])
def test_refinement_recovers_the_joints_argmax_gives_to_distractors(seed):
    """The paper's refinement claim on the bench's ``simloop`` pool shape
    (8-joint chains, 96x96 grids, 4 distractors per sample, 1,000 unlabeled
    samples of which 50 OOD) with distractors as high as the true bumps, so
    that about 23% of the joints' highest peaks are a distractor that wins
    the cell tie-break. Under parameters fitted on the labeled set, the
    refined pose must pick the true cell for at least 99% of those joints
    and keep it for all but at most 0.5% of the joints argmax got right.
    Over seeds 1001-1020 the rates were 99.67-100% and 0-0.113%."""
    links = 7
    cfg = SimulationConfig.from_dict({
        "seed": seed, "rounds": 8, "budget": 25,
        "pool": {"labeled": 24, "unlabeled": 1000, "ood": 50, "heldout": 50},
        "skeleton": {"joints": links + 1},
        "generator": {"link_means": [5] * links, "link_sds": [1] * links,
                      "angle_ranges": [[-0.6, 0.6]] * links},
        "ood_generator": {"link_means": [8] * links, "link_sds": [1] * links,
                          "angle_ranges": [[-0.6, 0.6]] * links},
        "heatmap": {"height": 96, "width": 96, "peak_sigma": 1.5,
                    "distractors": 4, "distractor_amplitude": 1.0},
    })
    pool, _, truth, _ = build_pool(cfg)
    labeled = [pool.labeled[sample_id] for sample_id in sorted(pool.labeled)]
    params = fit_model(LabeledPoseSet.of(chain_skeleton(cfg.joints), labeled), "distance")
    ids = sorted(pool.unlabeled)
    peaks = pool.peaks_for(*ids)
    first, locs = peaks.offsets.tolist(), peaks.locs.tolist()
    wrong = recovered = right = moved = 0
    for s, (sample_id, refined) in enumerate(zip(ids, refine_poses(peaks, params))):
        for j, true in enumerate(truth[sample_id].coordinates.tolist()):
            start = first[s * cfg.joints + j]
            on_truth = locs[start + refined.chosen_peak_index[j]] == true
            if locs[start] == true:
                right, moved = right + 1, moved + (not on_truth)
            else:
                wrong, recovered = wrong + 1, recovered + on_truth
    assert wrong > 0.15 * (wrong + right)  # distractors do fool argmax
    assert recovered >= 0.99 * wrong
    assert moved <= 0.005 * right


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
    start-up): a whole ``simulate`` run, peaks and all, never loads it, and
    neither do ``score``, ``refine`` and ``maxima`` on heatmaps with
    distractor peaks. Each command runs in a process of its own."""
    doc = base_doc()
    doc["heatmap"].update(distractors=3, distractor_amplitude=0.5)
    (tmp_path / "config.json").write_text(json.dumps(doc))
    skeleton = chain_skeleton(4)
    (tmp_path / "skeleton.json").write_text(json.dumps(skeleton_to_dict(skeleton)))
    labeled = [Pose([[20, 20], [20, 26 + i], [20, 32], [20 + i, 38]]) for i in range(3)]
    save_model_file(fit_model(LabeledPoseSet.of(skeleton, labeled), "distance"),
                    tmp_path / "model.json")
    with open(tmp_path / "heatmaps.jsonl", "w") as manifest:
        for i in range(3):
            heatmap = render_gaussian_heatmap(
                Pose([[20, 20], [20, 26], [20, 32], [20, 38]]), 48, 48, 1.5,
                [(j, (30.0 + i, 10.0 + 8 * j), 0.6) for j in range(4)],
            )
            write_heatmap_file(heatmap, tmp_path / f"s{i}.pshm")
            manifest.write(json.dumps({"id": f"s{i}", "path": f"s{i}.pshm"}) + "\n")
    model = ["--skeleton", "skeleton.json", "--params", "model.json",
             "--heatmaps", "heatmaps.jsonl"]
    script = (
        "import json, sys\n"
        "from poselik import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma'])]))\n"
    )
    src = str(Path(poselik.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv in (["simulate", "--config", "config.json"], ["score", *model], ["refine", *model],
                 ["maxima", "--heatmaps", "heatmaps.jsonl"]):
        run = subprocess.run(
            [sys.executable, "-c", script, *argv, "--out", f"{argv[0]}.out"],
            capture_output=True, text=True, env=env, check=True, cwd=tmp_path,
        )
        assert json.loads(run.stdout.splitlines()[-1]) == [0, []], argv
