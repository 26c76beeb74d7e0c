"""Property tests over generated trees, peak sets, link models and heatmaps.

The fixed-seed tests and criterion 1 cover distance models; these
properties add offset models and root priors, and check that a refined
pose reports the same terms as scoring that pose directly and the same
objective as scoring its selection, which no other selection beats, and
that expected scoring equals a full enumeration of joint assignments. The
batched DP over a padded pool, batched expected scoring (with
zero-probability peaks and ``-inf`` densities) and stacked point scoring
must report bit for bit what each sample's own call reports, and so must
every batched score of a batch's ``take`` of any rows, whose arrays are
those of the samples built alone. The closed-form link fits beat every
perturbation on generated weighted pose sets (two poses, a weight near 0,
collinear displacements), up to the ridge's share for a covariance. Peak
extraction is checked bit for bit against a per-joint loop and against a
full-grid 8-comparison pass on grids full of ties, plateaus, border and
negative maxima, and a stacked extraction against each sample's own, in
candidate slices of any size; the heatmap renderer (bumps on cells and
between them) against its out-of-place
formula; the peaks found from bumps on integer cells against those
extracted from the rendered grids; and the ranking AUC against its
pairwise definition. Fuzzed manifests and heatmap files must
read back exactly or raise only ``PoseLikError``s, and every
command must turn any bytes in any of its JSON inputs into a documented exit
code with at most one stderr line and, on failure, no output.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poselik import (
    SIGMA_FLOOR,
    STRATEGIES,
    BadMagic,
    DistanceParams,
    EmptyPeakSet,
    Heatmap,
    JointOutOfRange,
    LabeledPoseSet,
    NonFiniteValue,
    OffsetParams,
    PeakSet,
    Pose,
    PoseLikError,
    PoseModelParams,
    SamplePool,
    SchemaError,
    TruncatedPayload,
    VersionUnsupported,
    brute_force_best_pose,
    bump_peak_sets,
    cli,
    expected_log_likelihood,
    expected_log_likelihoods,
    extract_peak_sets,
    extract_peaks,
    fit_distance_params,
    fit_offset_params,
    link_log_density,
    multi_peak_entropies,
    multi_peak_entropy,
    ood_ranking_auc,
    point_log_likelihood,
    point_log_likelihoods,
    read_heatmap_file,
    read_manifest,
    refine_pose,
    refine_poses,
    refinement_objective,
    render_gaussian_heatmap,
    score_pool,
    select_batch,
    validate_skeleton,
    write_heatmap_file,
)
from poselik import heatmaps as heatmaps_module
from poselik.calibration import RIDGE_START
from poselik.heatmaps import _gaussian_table
from poselik.selection import ascending, id_ranks, lowest_first

from _helpers import (
    assert_same_peaks,
    batch_of,
    eight_comparison_peaks,
    far_offset_law,
    oracle_auc,
    oracle_config_objective,
    oracle_expected_ll_by_enumeration,
    oracle_peaks,
    peakset_of,
    pshm_bytes,
    reference_read_heatmap_file,
    reference_uniform,
    render_reference,
)

GRID = 32
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

coordinate = st.floats(-5.0, 5.0, allow_nan=False)
unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def offset_params(draw, center: float = 0.0) -> OffsetParams:
    a = np.array([[draw(unit), draw(unit)], [draw(unit), draw(unit)]])
    offset = [center + draw(coordinate), center + draw(coordinate)]
    return OffsetParams(offset=offset, covariance=a @ a.T + 0.5 * np.eye(2))


@st.composite
def distance_params(draw) -> DistanceParams:
    return DistanceParams(draw(st.floats(0.0, 12.0)), draw(st.floats(0.5, 3.0)))


@st.composite
def peak_sets(
    draw, n_joints: int, max_peaks: int = 3, zero_probs: bool = False, distributions: bool = False
) -> PeakSet:
    """Up to ``max_peaks`` distinct cells per joint with softmax probabilities;
    with ``zero_probs``, some peaks (at times all of a joint's, unless each
    joint's ``distributions`` must add up to 1) get probability zero."""
    joints = []
    for _ in range(n_joints):
        cells = draw(
            st.lists(
                st.tuples(st.integers(0, GRID - 1), st.integers(0, GRID - 1)),
                min_size=1, max_size=max_peaks, unique=True,
            )
        )
        scores = sorted(
            draw(st.lists(st.floats(0.05, 1.0), min_size=len(cells), max_size=len(cells))),
            reverse=True,
        )
        weights = np.exp(np.array(scores) - max(scores))
        if zero_probs:
            kept = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
            kept[0] = kept[0] or (distributions and not any(kept))
            weights *= kept
        probs = weights / weights.sum() if weights.any() else weights
        joints.append(list(zip(cells, scores, probs.tolist())))
    return peakset_of(joints)


@st.composite
def models(draw, kinds=("distance", "offset")) -> PoseModelParams:
    """A random tree with permuted joint indices and per-link laws of one
    family, with an optional root prior."""
    n = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(n)))
    links = [[perm[draw(st.integers(0, child - 1))], perm[child]] for child in range(1, n)]
    skeleton = validate_skeleton(
        {"joints": [f"j{i}" for i in range(n)], "root": perm[0], "links": links}
    )
    kind = draw(st.sampled_from(kinds))
    if kind == "offset":
        link_params = tuple(draw(offset_params()) for _ in links)
        root_params = draw(st.none() | offset_params(center=GRID / 2))
    else:
        link_params = tuple(draw(distance_params()) for _ in links)
        root_params = draw(st.none() | distance_params())
    return PoseModelParams(
        skeleton=skeleton, link_params=link_params, model_kind=kind, root_params=root_params
    )


@st.composite
def instances(draw, kinds=("distance", "offset")):
    """(peaks, model): a random model and a peak set of up to 3 peaks per joint."""
    model = draw(models(kinds))
    return draw(peak_sets(model.skeleton.n_joints)), model


@st.composite
def pools(draw, distributions: bool = False):
    """(peak sets, model): 1-6 samples of one random model whose peak counts
    differ from sample to sample (1-4 per joint), some at probability zero
    (with ``distributions``, never all of a joint's)."""
    model = draw(models())
    n_joints = model.skeleton.n_joints
    samples = draw(st.integers(1, 6))
    peaks = peak_sets(n_joints, 4, zero_probs=True, distributions=distributions)
    return [draw(peaks) for _ in range(samples)], model


def pool_of(peak_sets) -> SamplePool:
    """An unlabeled pool ``s0``, ``s1``, ... of one-sample peak sets."""
    unlabeled = {f"s{i}": i for i in range(len(peak_sets))}
    return SamplePool(labeled={}, unlabeled=unlabeled, peaks=batch_of(peak_sets))


@PROPERTY_SETTINGS
@given(instances(kinds=("offset",)))
def test_refinement_matches_exhaustive_search_for_offset_models(instance):
    peaks, model = instance
    refined = refine_pose(peaks, model)
    oracle = brute_force_best_pose(peaks, model)
    assert refined.chosen_peak_index == oracle.chosen_peak_index
    assert refined.objective == oracle.objective
    assert refined.log_likelihood == oracle.log_likelihood


@PROPERTY_SETTINGS
@given(instances(), st.data())
def test_refined_terms_equal_point_scoring_of_the_pose(instance, data):
    peaks, model = instance
    refined = refine_pose(peaks, model)
    report = point_log_likelihood(refined.pose, model)
    assert refined.per_link_terms == report.per_link_terms
    assert refined.root_term == report.root_term
    assert refined.log_likelihood == report.total
    assert refinement_objective(peaks, model, refined.chosen_peak_index) == refined.objective
    indices = [data.draw(st.integers(0, count - 1)) for count in peaks.counts()]
    objective = refinement_objective(peaks, model, indices)
    assert objective == pytest.approx(oracle_config_objective(peaks, model, indices), abs=1e-9)
    assert objective <= refined.objective + 1e-9


@PROPERTY_SETTINGS
@given(models(), st.data())
def test_one_peak_per_joint_at_far_cells_scores_what_its_pose_scores(model, data):
    """Cells up to ``2**31``, whose squares round in float64: a sample of one
    peak per joint scores, expected or refined, what its pose scores."""
    n_joints = model.skeleton.n_joints
    cells = data.draw(st.lists(
        st.tuples(st.integers(0, 2**31), st.integers(0, 2**31)),
        min_size=n_joints, max_size=n_joints,
    ))
    peaks = peakset_of([[(cell, 1.0, 1.0)] for cell in cells])
    point = point_log_likelihood(Pose(cells), model).total
    assert expected_log_likelihood(peaks, model).total == point
    assert refine_pose(peaks, model).log_likelihood == point


@PROPERTY_SETTINGS
@given(pools())
def test_batched_refinement_equals_per_sample_refinement(pool_case):
    peak_sets, model = pool_case
    singles = [refine_pose(peaks, model) for peaks in peak_sets]
    for batched, single in zip(refine_poses(batch_of(peak_sets), model), singles):
        assert batched.chosen_peak_index == single.chosen_peak_index
        assert batched.pose.coordinates.tolist() == single.pose.coordinates.tolist()
        assert batched.log_likelihood == single.log_likelihood
        assert batched.objective == single.objective
        assert batched.per_link_terms == single.per_link_terms
        assert batched.root_term == single.root_term
    scores = score_pool(pool_of(peak_sets), "vl4pose", model, mode="max")
    assert scores.tolist() == [single.log_likelihood for single in singles]


@PROPERTY_SETTINGS
@given(pools(distributions=True))
def test_expected_log_likelihood_equals_enumeration(pool_case):
    """Expectation equals enumeration, within 1e-9 relative (1e-9 absolute
    near 0), on distance and offset models, with and without a root prior,
    with zero-probability peaks. The identity needs each joint's
    probabilities to add up to 1: were all of a joint's 0, every full
    assignment would weigh 0."""
    peak_sets, model = pool_case
    for peaks in peak_sets:
        assert expected_log_likelihood(peaks, model).total == pytest.approx(
            oracle_expected_ll_by_enumeration(peaks, model), rel=1e-9, abs=1e-9
        )


@PROPERTY_SETTINGS
@given(pools(), st.data())
def test_pool_cached_scores_equal_scoring_the_gathered_subset(pool_case, data):
    """Each round scores the whole stack the pool built once for the model's
    skeleton and family and keeps the unlabeled rows: bit for bit what those
    samples score when gathered and stacked alone, in either mode, for any
    subset in any order, also one whose own padding is narrower than the
    pool's, and beside a labeled sample whose peak counts differ."""
    samples, model = pool_case
    n_joints = model.skeleton.n_joints
    counts = np.array([peaks.counts() for peaks in samples])  # (B, J)
    widest = counts.max(axis=0)
    spread = np.flatnonzero(counts.min(axis=0) < widest)  # joints some sample pads
    narrow = [] if not spread.size else np.flatnonzero(counts[:, spread[0]] < widest[spread[0]])
    drawn = data.draw(st.permutations(range(len(samples))))
    subsets = [drawn[: data.draw(st.integers(1, len(drawn)))], list(narrow[::-1])]
    stacked = list(samples)
    if data.draw(st.booleans()):  # a labeled sample, placed last
        stacked.append(data.draw(peak_sets(n_joints, 5, zero_probs=True)))
    base = SamplePool({}, {}, batch_of(stacked))
    for rows in filter(None, subsets):
        pool = SamplePool({}, {f"s{i}": i for i in rows}, base.peaks)
        gathered = batch_of([samples[i] for i in rows])
        for mode in ("max", "expected"):
            scores = score_pool(pool, "vl4pose", model, mode=mode)
            if mode == "max":
                fresh = [pose.log_likelihood for pose in refine_poses(gathered, model)]
            else:
                fresh = [report.total for report in expected_log_likelihoods(gathered, model)]
            assert scores.dtype == np.float64
            assert scores.tobytes() == np.array(fresh).tobytes()


@st.composite
def faulty_pools(draw):
    """(peak sets, model): a pool of one joint count, at times not the
    skeleton's, under a distance model whose skeleton is at times 3-D, which
    no peak set can be scored on."""
    model = draw(models(kinds=("distance",)))
    skel = model.skeleton
    if draw(st.booleans()):
        doc = {"joints": list(skel.joints), "root": skel.root,
               "links": [list(link) for link in skel.links], "dimension": 3}
        model = PoseModelParams(
            skeleton=validate_skeleton(doc), link_params=model.link_params,
            model_kind="distance", root_params=model.root_params,
        )
    n_joints = skel.n_joints
    if draw(st.integers(0, 3)) == 0:  # a batch of 0 joints would hold one sample
        n_joints = draw(st.sampled_from([n for n in (n_joints - 1, n_joints + 1) if n]))
    return [draw(peak_sets(n_joints, 2)) for _ in range(draw(st.integers(1, 6)))], model


def raised_by(call):
    try:
        call()
    except PoseLikError as exc:
        return type(exc), str(exc)
    return None


@PROPERTY_SETTINGS
@given(st.integers(1, 4), st.data())
def test_a_batch_with_an_empty_grid_is_refused_when_built(n_joints, data):
    """A batch with a grid of no peaks raises :class:`EmptyPeakSet` when it
    is built, naming its first such grid by sample and joint, so no scorer
    is ever given one."""
    samples = data.draw(st.integers(1, 5))
    counts = data.draw(st.lists(st.integers(0, 3), min_size=samples * n_joints,
                                max_size=samples * n_joints))
    counts[data.draw(st.integers(0, len(counts) - 1))] = 0
    first = counts.index(0)
    rows = sum(counts)
    with pytest.raises(EmptyPeakSet) as raised:
        PeakSet(np.zeros((rows, 2), np.int64), np.zeros(rows), np.ones(rows),
                np.cumsum([0, *counts]), n_joints)
    sample, joint = divmod(first, n_joints)
    assert str(raised.value) == f"sample {sample} joint {joint} has no candidate peaks"


@PROPERTY_SETTINGS
@given(faulty_pools())
def test_batch_check_raises_what_the_first_failing_sample_raises(pool_case):
    peak_sets, model = pool_case
    alone = [raised_by(functools.partial(refine_pose, peaks, model)) for peaks in peak_sets]
    pool = pool_of(peak_sets)
    batched = raised_by(functools.partial(score_pool, pool, "vl4pose", model, mode="max"))
    assert batched == next((error for error in alone if error), None)


@PROPERTY_SETTINGS
@given(models(), st.data())
def test_stacked_point_scoring_equals_per_pose_scoring(model, data):
    skeleton = model.skeleton
    coords = st.lists(
        st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
        min_size=skeleton.n_joints, max_size=skeleton.n_joints,
    )
    poses = [Pose(c) for c in data.draw(st.lists(coords, min_size=1, max_size=5))]
    assert [report_bits(r) for r in point_log_likelihoods(poses, model)] == [
        report_bits(point_log_likelihood(pose, model)) for pose in poses
    ]


@st.composite
def heatmaps(draw, shape=None) -> Heatmap:
    """Small grids of small integers (ties and plateaus everywhere), of
    negative integers, of one constant, of float32 scores, or of zeros with
    maxima on the border, each of ``shape`` or of a drawn one."""
    if shape is None:
        shape = (draw(st.integers(1, 4)), draw(st.integers(3, 7)), draw(st.integers(3, 7)))
    size = int(np.prod(shape))
    kind = draw(st.sampled_from(("small", "negative", "constant", "float", "border")))
    if kind == "border":
        values = np.zeros(shape)
        _, h, w = shape
        for j in range(shape[0]):
            cells = st.tuples(st.sampled_from((0, h - 1)), st.integers(0, w - 1)) | st.tuples(
                st.integers(0, h - 1), st.sampled_from((0, w - 1))
            )
            for row, col in draw(st.lists(cells, min_size=1, max_size=4)):
                values[j, row, col] = draw(st.integers(1, 3))
    elif kind == "constant":
        values = [draw(st.integers(-3, 3))] * size
    elif kind == "float":
        values = draw(st.lists(st.floats(-50.0, 50.0, width=32), min_size=size, max_size=size))
    else:
        lo, hi = (-3, 3) if kind == "small" else (-9, -1)
        values = draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))
    return Heatmap(values=np.array(values, dtype=np.float32).reshape(shape))


@PROPERTY_SETTINGS
@given(
    heatmaps(),
    st.sampled_from((-1.0, 0.0, 0.05, 0.5, 0.9, 1.0, 1.5)) | st.floats(-2.0, 2.0),
    st.integers(1, 10),
)
def test_extract_peaks_matches_per_joint_reference(heatmap, threshold_ratio, max_peaks):
    peaks = extract_peaks(heatmap, threshold_ratio, max_peaks)
    locs, scores, probs, offsets = oracle_peaks(heatmap.values, threshold_ratio, max_peaks)
    assert peaks.offsets.tolist() == offsets
    assert peaks.locs.tolist() == locs
    assert peaks.scores.tolist() == scores
    assert peaks.probs.tolist() == probs


@PROPERTY_SETTINGS
@given(heatmaps(), st.sampled_from((0.0, 0.05, 0.5, 1.0)), st.integers(1, 12))
def test_extract_peaks_equals_eight_comparison_extraction(heatmap, threshold_ratio, max_peaks):
    assert_same_peaks(
        extract_peaks(heatmap, threshold_ratio, max_peaks),
        eight_comparison_peaks(heatmap.values, threshold_ratio, max_peaks),
    )


@st.composite
def heatmap_stacks(draw) -> list[Heatmap]:
    """1-5 heatmaps of one shape, each of its own kind."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(3, 7)), draw(st.integers(3, 7)))
    return draw(st.lists(heatmaps(shape), min_size=1, max_size=5))


@PROPERTY_SETTINGS
@given(
    heatmap_stacks(),
    st.sampled_from((0.0, 0.05, 0.5, 1.0)) | st.floats(-2.0, 2.0),
    st.integers(1, 12),
    st.sampled_from((1, 7, 64, heatmaps_module._CANDIDATE_SLICE)),
)
def test_extracting_a_stack_equals_extracting_each_sample(
    stack, threshold_ratio, max_peaks, candidate_slice
):
    values = np.stack([heatmap.values for heatmap in stack])
    # Small slices cut the grids of one stack into many slices.
    with mock.patch.object(heatmaps_module, "_CANDIDATE_SLICE", candidate_slice):
        stacked = extract_peak_sets(values, threshold_ratio, max_peaks)
    assert len(stacked) == len(stack)
    for i, heatmap in enumerate(stack):
        assert_same_peaks(stacked.take([i]), extract_peaks(heatmap, threshold_ratio, max_peaks))


@st.composite
def scoring_pools(draw):
    """(peak sets, model) as :func:`pools` draws them, at times with laws
    that give peaks a ``-inf`` density: a distance law so narrow that far
    peaks score it, an offset law that whitens every residual past the float
    range, or an offset root prior of variance 1e-320."""
    peak_sets, model = draw(pools())
    if draw(st.booleans()):
        distance = model.model_kind == "distance"
        laws = tuple(
            (DistanceParams(law.mean_distance, 1e-160) if distance else far_offset_law())
            if draw(st.booleans()) else law
            for law in model.link_params
        )
        root = model.root_params
        if not distance and root is not None and draw(st.booleans()):
            root = OffsetParams(root.offset, 1e-320 * np.eye(2))
        model = PoseModelParams(
            skeleton=model.skeleton, link_params=laws, model_kind=model.model_kind,
            root_params=root,
        )
    return peak_sets, model


def report_bits(report) -> bytes:
    """The bytes of every number of a report, which holds no NaN: -0.0 is not 0.0."""
    numbers = np.array([report.total, report.root_term, *report.per_link_terms])
    assert not np.isnan(numbers).any()
    return numbers.tobytes()


@PROPERTY_SETTINGS
@given(scoring_pools())
def test_batched_expected_scoring_equals_its_batch_of_one(pool_case):
    peak_sets, model = pool_case
    batched = expected_log_likelihoods(batch_of(peak_sets), model)
    singles = [expected_log_likelihood(peaks, model) for peaks in peak_sets]
    scores = score_pool(pool_of(peak_sets), "vl4pose", model, mode="expected")
    assert [report_bits(r) for r in batched] == [report_bits(r) for r in singles]
    assert scores.tobytes() == np.array([r.total for r in singles]).tobytes()


@st.composite
def per_sample_pools(draw):
    """(peak sets, poses, models): 1-6 samples of one random skeleton and link
    family as :func:`pools` draws them, each with a pose and its own laws, and
    a root prior of no form, of the distance form or of the offset form."""
    peak_sets, model = draw(pools())
    skeleton, kind = model.skeleton, model.model_kind
    law = offset_params() if kind == "offset" else distance_params()
    root = st.none() | distance_params() | offset_params(center=GRID / 2)
    coords = st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0))
    joints = st.lists(coords, min_size=skeleton.n_joints, max_size=skeleton.n_joints)
    poses = [Pose(draw(joints)) for _ in peak_sets]
    models = [
        PoseModelParams(
            skeleton=skeleton, link_params=tuple(draw(law) for _ in skeleton.links),
            model_kind=kind, root_params=draw(root),
        )
        for _ in peak_sets
    ]
    return peak_sets, poses, models


@PROPERTY_SETTINGS
@given(per_sample_pools())
def test_a_batch_under_one_model_per_sample_scores_each_sample_under_its_own(pool_case):
    peak_sets, poses, models = pool_case
    assert [report_bits(r) for r in expected_log_likelihoods(batch_of(peak_sets), models)] == [
        report_bits(expected_log_likelihood(peaks, model))
        for peaks, model in zip(peak_sets, models)
    ]
    assert [report_bits(r) for r in point_log_likelihoods(poses, models)] == [
        report_bits(point_log_likelihood(pose, model)) for pose, model in zip(poses, models)
    ]


@PROPERTY_SETTINGS
@given(scoring_pools(), st.data())
def test_taking_samples_of_a_batch_equals_building_each_alone(pool_case, data):
    """``take`` of any rows (repeated, reversed or none) of a batch holds,
    byte for byte, the samples built alone, and every batched score of it
    has the bits of each sample's own score."""
    peak_sets, model = pool_case
    rows = data.draw(
        st.lists(st.integers(0, len(peak_sets) - 1), max_size=8)
        | st.just(list(range(len(peak_sets)))[::-1])
    )
    taken = batch_of(peak_sets).take(rows)
    assert (len(taken), taken.joint_count) == (len(rows), peak_sets[0].joint_count)
    for i, row in enumerate(rows):
        assert_same_peaks(taken.take([i]), peak_sets[row])
    alone = [peak_sets[row] for row in rows]
    assert [report_bits(r) for r in expected_log_likelihoods(taken, model)] == [
        report_bits(expected_log_likelihood(peaks, model)) for peaks in alone
    ]
    assert np.array([p.log_likelihood for p in refine_poses(taken, model)]).tobytes() == np.array(
        [refine_pose(peaks, model).log_likelihood for peaks in alone]
    ).tobytes()
    assert np.array(multi_peak_entropies(taken)).tobytes() == np.array(
        [multi_peak_entropy(peaks) for peaks in alone]
    ).tobytes()


@PROPERTY_SETTINGS
@given(
    heatmaps(),
    st.sampled_from((-1.0, 0.0, 0.05, 0.5, 1.0)) | st.floats(-2.0, 2.0),
    st.integers(1, 10),
)
def test_peak_probabilities_and_entropy_stay_in_range(heatmap, threshold_ratio, max_peaks):
    peaks = extract_peaks(heatmap, threshold_ratio, max_peaks)
    bounds = peaks.offsets.tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        probs, scores = peaks.probs[a:b], peaks.scores[a:b]
        assert abs(math.fsum(probs) - 1.0) <= 4 * np.finfo(float).eps
        assert ((probs > 0.0) & (probs <= 1.0)).all()
        # Scores descend within a joint, so probabilities never rise, and
        # equal scores get equal probabilities.
        assert (np.diff(probs) <= 0.0).all()
        assert (np.diff(probs)[np.diff(scores) == 0.0] == 0.0).all()
        if b - a == 1:
            assert probs[0] == 1.0
    entropy = multi_peak_entropy(peaks)
    assert 0.0 <= entropy <= sum(math.log(k) for k in peaks.counts())
    if set(peaks.counts()) == {1}:
        assert entropy == 0.0
    assert multi_peak_entropy(extract_peaks(heatmap, threshold_ratio, 1)) == 0.0


@st.composite
def link_sets(draw):
    """Displacements ``(n, 2)`` of one link over 2-12 poses, often only two,
    at times collinear, and spread over 60 cells or over 0.02 (where a
    ridge is no small change)."""
    n = draw(st.just(2) | st.integers(2, 12))
    spread = draw(st.sampled_from((30.0, 0.01)))
    coordinate = st.floats(-1.0, 1.0).map(lambda x: 5.0 + spread * x)
    if draw(st.booleans()):  # collinear: every displacement on one line
        direction = np.array(draw(st.tuples(unit, unit).filter(any)))
        disp = np.array(draw(st.lists(coordinate, min_size=n, max_size=n)))[:, None] * direction
    else:
        disp = np.array(draw(st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n)))
    return disp


def link_log_likelihood(disp, params) -> float:
    return math.fsum(link_log_density((0.0, 0.0), d, params) for d in disp.tolist())


# A relative step of a fitted parameter: small ones find a fit a little off.
fit_step = st.floats(-1.0, 1.0) | st.sampled_from([s * 10.0**-k for s in (-1, 1) for k in range(7)])


@PROPERTY_SETTINGS
@given(link_sets(), st.lists(fit_step, min_size=7, max_size=7))
def test_closed_form_fits_are_optimal(disp, steps):
    """No perturbation of a fitted mean, offset, or sigma kept at or above
    ``SIGMA_FLOOR``, raises the log-likelihood of ``n`` poses beyond rounding.
    A perturbed Cholesky factor raises it by at most the ridge's share,
    ``0.5 * n * RIDGE_START * tr(S^-1)`` for the sample covariance
    ``S``, as ``S + RIDGE_START * I`` is no exact fit of ``S``. That holds
    only where ``S`` is nonsingular: on collinear sets (and two poses are
    collinear) the likelihood grows without bound as the covariance
    flattens, so there only the offset is checked."""
    skel = validate_skeleton({"joints": ["a", "b"], "root": 0, "links": [[0, 1]]})
    data = LabeledPoseSet.of(skel, [Pose([[0.0, 0.0], d]) for d in disp])

    def gain(fitted, perturbed):
        base = link_log_likelihood(disp, fitted)
        return link_log_likelihood(disp, perturbed) - base, 1e-12 * (1 + abs(base))

    law = fit_distance_params(data, 0, 1)
    mean = law.mean_distance + steps[0] * law.sigma
    sigma = law.sigma * math.exp(steps[1])
    candidates = [DistanceParams(law.mean_distance, sigma)] if sigma >= SIGMA_FLOOR else []
    for candidate in candidates + ([DistanceParams(mean, law.sigma)] if mean >= 0 else []):
        change, rounding = gain(law, candidate)
        assert change <= rounding

    if len(disp) < 3:  # an offset fit needs 3 poses in 2-D
        return
    law = fit_offset_params(data, 0, 1)
    scale = np.sqrt(np.diagonal(law.covariance))
    change, rounding = gain(law, OffsetParams(law.offset + scale * steps[2:4], law.covariance))
    assert change <= rounding
    centred = disp - disp.mean(axis=0)
    sample = centred.T @ centred / len(disp)
    if np.linalg.cond(sample) > 1e8:  # collinear, or nearly
        return
    chol = law.cholesky.copy()
    chol[1, 0] += steps[4] * chol[1, 1]
    chol[np.diag_indices(2)] *= np.exp(steps[5:7])
    change, rounding = gain(law, OffsetParams(law.offset, chol @ chol.T))
    assert change <= 0.5 * len(disp) * RIDGE_START * np.trace(np.linalg.inv(sample)) + rounding


@PROPERTY_SETTINGS
@given(models(), st.data())
def test_displacements_are_the_per_pose_differences(model, data):
    """The stacked labeled set gives, per link, the bits of each pose's own
    child-minus-parent difference."""
    skeleton = model.skeleton
    coords = st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
        min_size=skeleton.n_joints, max_size=skeleton.n_joints,
    )
    poses = [Pose(c) for c in data.draw(st.lists(coords, min_size=2, max_size=6))]
    labeled = LabeledPoseSet.of(skeleton, poses)
    for parent, child in skeleton.links:
        each = np.array([pose.coordinates[child] - pose.coordinates[parent] for pose in poses])
        got = labeled.displacements(parent, child)
        assert (got.dtype, got.shape, got.tobytes()) == (each.dtype, each.shape, each.tobytes())


@PROPERTY_SETTINGS
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)), max_size=12),
)
def test_generator_uniform_draws_are_numpys(seed, ranges):
    """``simulate`` draws ``rng.uniform(lo, hi)`` as ``lo + (hi - lo) *
    rng.random()``: the same bits from the same stream, whatever the range
    (numpy refuses ``hi < lo`` and a width that is not finite, which configs
    reject)."""
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    for lo, hi in map(sorted, ranges):
        if not math.isfinite(hi - lo):
            continue
        assert reference_uniform(ours, lo, hi).hex() == numpys.uniform(lo, hi).hex()
    assert ours.random() == numpys.random()


ranking_score = st.integers(-3, 3).map(float) | st.floats(-1e6, 1e6)


@PROPERTY_SETTINGS
@given(
    st.lists(ranking_score, min_size=1, max_size=40),
    st.lists(ranking_score, min_size=1, max_size=40),
)
def test_ood_ranking_auc_equals_pairwise_definition(id_scores, ood_scores):
    assert abs(ood_ranking_auc(id_scores, ood_scores) - oracle_auc(id_scores, ood_scores)) <= 1e-12


tied_score = st.sampled_from((0.0, -0.0, 1.0, -1.0, math.inf, -math.inf)) | st.floats(
    -1e6, 1e6, allow_nan=False
)


@PROPERTY_SETTINGS
@given(
    st.lists(tied_score, min_size=1, max_size=30),
    st.lists(tied_score, min_size=1, max_size=30),
    st.randoms(use_true_random=False),
)
def test_ood_ranking_auc_is_the_same_in_any_order_of_each_class(id_scores, ood_scores, rnd):
    """Tie-averaged ranks are multiples of 0.5, so their sums are exact: the
    AUC has the same bits in any order of each class, which lets a round
    rank its samples in pool order."""
    auc = ood_ranking_auc(np.array(id_scores), np.array(ood_scores))
    rnd.shuffle(id_scores)
    rnd.shuffle(ood_scores)
    assert ood_ranking_auc(np.array(id_scores), np.array(ood_scores)).hex() == auc.hex()
    assert ood_ranking_auc(id_scores, ood_scores).hex() == auc.hex()


@st.composite
def id_score_dicts(draw) -> dict[str, float]:
    """Scores of ids with many ties, both zeros and both infinities, among
    them ids that differ only by a trailing NUL."""
    stems = draw(st.lists(st.text("ab\x00", max_size=3), min_size=1, max_size=12, unique=True))
    ids = list(dict.fromkeys(stems + [stem + "\x00" for stem in stems if draw(st.booleans())]))
    ids = draw(st.permutations(ids))
    return {sample_id: draw(tied_score) for sample_id in ids}


@PROPERTY_SETTINGS
@given(id_score_dicts())
def test_array_ranking_equals_sorting_by_score_then_id(scores):
    ids, values = list(scores), np.array(list(scores.values()))
    ranks = id_ranks(ids)
    for strategy in STRATEGIES:
        sign = -1.0 if strategy == "entropy" else 1.0
        ranked = sorted(scores.items(), key=lambda kv: (sign * kv[1], kv[0]))
        for budget in range(len(ids) + 1):
            expected = [sample_id for sample_id, _ in ranked[:budget]]
            positions = lowest_first(ascending(values, strategy), ranks, budget)
            assert [ids[i] for i in positions.tolist()] == expected
            assert list(select_batch(scores, strategy, budget)) == expected


@st.composite
def render_cases(draw):
    """(coords, height, width, peak_sigma, distractors). About half the
    centres sit on integer cells, the grid's edge rows and columns often;
    the rest are fractional anywhere in the grid."""
    height, width = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    n = draw(st.integers(1, 4))

    def cell(size):
        return (st.sampled_from((0, size - 1)) | st.integers(0, size - 1)).map(float)

    def axis(size):
        return cell(size) | st.floats(0.0, size - 1.0, allow_nan=False)

    centre = st.tuples(cell(height), cell(width)) | st.tuples(axis(height), axis(width))
    coords = draw(st.lists(centre, min_size=n, max_size=n))
    distractors = draw(
        st.lists(st.tuples(st.integers(0, n - 1), centre, st.floats(0.01, 1.0)), max_size=4)
    )
    return coords, height, width, draw(st.floats(0.1, 8.0)), distractors


def assert_renders_like_reference(case):
    coords, height, width, peak_sigma, distractors = case
    rendered = render_gaussian_heatmap(
        Pose(coords), height, width, peak_sigma, distractors=distractors
    )
    expected = render_reference(coords, height, width, peak_sigma, distractors)
    assert rendered.values.tobytes() == expected.tobytes()
    table = _gaussian_table(height, width, 1.0 / (2.0 * peak_sigma * peak_sigma))
    assert not table.flags.writeable


@PROPERTY_SETTINGS
@given(render_cases(), render_cases())
def test_render_matches_out_of_place_formula(case, other):
    # Rendering another shape before and after shows no state carries over
    # from one call to the next.
    for each in (other, case, other):
        assert_renders_like_reference(each)


@PROPERTY_SETTINGS
@example(([(3.0, 3.0), (5.0, 6.5)], 9, 9, 1.0, []))  # no distractor
@example(  # two distractors on one joint
    ([(3.0, 3.0), (5.0, 6.0)], 9, 9, 1.0, [(1, (1.0, 1.0), 0.4), (1, (7.0, 2.5), 0.9)])
)
@example(([(4.0, 4.0)], 9, 9, 1.5, [(0, (4.0, 4.0), 0.8), (0, (4.0, 5.0), 1.0)]))  # 2.6 at (4, 4)
@given(render_cases())
def test_render_with_absent_joints_matches_reference(case):
    """Every cell of every joint, with or without distractors, several on
    one joint or clipped above 1, holds the out-of-place formula's value."""
    assert_renders_like_reference(case)


@st.composite
def bump_cases(draw):
    """(centres, distractors, height, width, peak_sigma, threshold_ratio,
    max_peaks) as ``bump_peak_sets`` takes them: 1-6 samples of 1-3 joints
    on integer cells of an 8x8 or larger grid, often on its edges, with up
    to 6 distractors a sample, at times all on one joint. Some ratios are so
    small (or 0) that a patch covers the whole grid."""
    height, width = draw(st.integers(8, 40)), draw(st.integers(8, 40))
    samples, joints = draw(st.integers(1, 6)), draw(st.integers(1, 3))

    def axis(size):
        return st.sampled_from((0, size - 1)) | st.integers(0, size - 1)

    cell = st.tuples(axis(height), axis(width))
    centres = draw(st.lists(
        st.lists(cell, min_size=joints, max_size=joints), min_size=samples, max_size=samples
    ))
    distractor = st.tuples(
        st.just(0) | st.integers(0, joints - 1),
        cell,
        st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True),
    )
    distractors = draw(st.lists(
        st.lists(distractor, max_size=6), min_size=samples, max_size=samples
    ))
    ratio = draw(
        st.sampled_from((0.05, 0.5, 1.0, 1e-12, 1e-44, 1e-300, 0.0)) | st.floats(1e-45, 1.0)
    )
    return (centres, distractors, height, width, draw(st.floats(0.3, 8.0)), ratio,
            draw(st.integers(1, 12)))


def peaks_or_error(call):
    """What ``call`` returns, or the type and message of the
    ``PoseLikError`` it raises."""
    try:
        return call()
    except PoseLikError as exc:
        return type(exc), str(exc)


def rendered_peak_sets(centres, distractors, height, width, peak_sigma, ratio, max_peaks):
    values = np.stack([
        render_gaussian_heatmap(Pose(c), height, width, peak_sigma, d).values
        for c, d in zip(centres, distractors)
    ])
    return extract_peak_sets(values, ratio, max_peaks)


@PROPERTY_SETTINGS
@example(  # two amplitude-1 distractors on one cell: a plateau clipped at 1
    ([[(4, 4)]], [[(0, (9, 9), 1.0), (0, (9, 9), 1.0)]], 16, 16, 1.5, 0.05, 10), 64
)
@example(  # bumps on the grid's corners and edges
    ([[(0, 0), (0, 15), (15, 7)]], [[(1, (15, 15), 0.7), (2, (7, 0), 0.4)]], 16, 16, 2.0,
     0.05, 10), 1
)
@example(([[(3, 4), (6, 1)]], [[(0, (7, 7), 0.9)]], 8, 8, 8.0, 0.05, 10), 64)  # wider than the grid
@given(bump_cases(), st.sampled_from((1, 64, heatmaps_module._CANDIDATE_SLICE)))
def test_bump_peak_sets_equal_peaks_of_the_rendered_grids(case, cells_per_pass):
    """The peaks found from the bumps are those extracted from the rendered
    grids: the same dtypes and bytes, or the same error, whatever number
    of patch cells one pass takes."""
    centres, distractors, height, width, peak_sigma, ratio, max_peaks = case
    with mock.patch.object(heatmaps_module, "_CANDIDATE_SLICE", cells_per_pass):
        bumped = peaks_or_error(lambda: bump_peak_sets(
            np.array(centres), distractors, height, width, peak_sigma, ratio, max_peaks
        ))
    rendered = peaks_or_error(lambda: rendered_peak_sets(*case))
    if isinstance(rendered, tuple):
        assert bumped == rendered
        return
    assert (len(bumped), bumped.joint_count) == (len(rendered), rendered.joint_count)
    assert_same_peaks(bumped, rendered)


def test_an_overflowing_bump_raises_non_finite_on_both_paths():
    """With ``2 * sigma**2`` subnormal (1e-160) or 0 (1e-200),
    ``1 / (2 * sigma**2)`` is infinite and each bump's centre cell is NaN."""
    expected = (NonFiniteValue, "heatmap contains NaN or infinite scores")
    for peak_sigma in (1e-160, 1e-200):
        case = ([[(3, 4), (6, 1)]], [[(1, (2, 2), 0.5)]], 8, 8, peak_sigma, 0.05, 10)
        assert peaks_or_error(lambda: rendered_peak_sets(*case)) == expected
        assert peaks_or_error(lambda: bump_peak_sets(np.array(case[0]), *case[1:])) == expected


@pytest.mark.parametrize("joint", [1.0, 1.5, np.int64(1), True])
def test_a_distractor_joint_is_an_integer_on_both_paths(joint):
    """A float or bool joint raises SchemaError naming it on both paths,
    whole or not; a NumPy integer is the joint of its value."""
    case = ([[(3, 4), (6, 1)]], [[(joint, (2, 2), 0.5)]], 8, 8, 1.5, 0.05, 10)
    bumped = peaks_or_error(lambda: bump_peak_sets(np.array(case[0]), *case[1:]))
    rendered = peaks_or_error(lambda: rendered_peak_sets(*case))
    if isinstance(joint, (float, bool)):
        expected = (SchemaError, f"distractor joint {joint!r} is not an integer")
        assert bumped == rendered == expected
        return
    assert_same_peaks(bumped, rendered)
    assert_same_peaks(bumped, bump_peak_sets(np.array(case[0]), [[(1, (2, 2), 0.5)]], *case[2:]))


@pytest.mark.parametrize("joint", [-1, 2])
def test_a_distractor_joint_outside_the_pose_is_out_of_range_on_both_paths(joint):
    case = ([[(3, 4), (6, 1)]], [[(joint, (2, 2), 0.5)]], 8, 8, 1.5, 0.05, 10)
    expected = (JointOutOfRange, f"distractor joint {joint} outside [0, 2)")
    assert peaks_or_error(lambda: bump_peak_sets(np.array(case[0]), *case[1:])) == expected
    assert peaks_or_error(lambda: rendered_peak_sets(*case)) == expected


def test_a_tiny_sigma_off_the_cells_renders_zeros_without_warnings():
    """A bump between cells is 0 on every cell when ``1 / (2 * sigma**2)``
    is infinite (no centre cell to turn NaN), and on a wide grid when only
    the products with the larger offsets overflow."""
    for peak_sigma in (1e-160, 1e-200):
        zeros = render_gaussian_heatmap(Pose([[3.5, 4.0]]), 8, 8, peak_sigma).values
        assert not zeros.any()
    wide = render_gaussian_heatmap(Pose([[3.0, 3.0]]), 64, 64, 1e-153).values
    assert wide[0, 3, 3] == 1.0 and np.count_nonzero(wide) == 1


# --- untrusted files --------------------------------------------------------------

@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("untrusted")


json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def manifest_entries(ids, paths):
    return st.fixed_dictionaries({"id": ids, "path": paths}).map(json.dumps)


repeated_id = st.sampled_from(("a", "b", "1"))
manifest_line = st.one_of(
    manifest_entries(repeated_id, st.text(max_size=8)),
    manifest_entries(repeated_id, st.sampled_from(("", "a\0b", "\ud800", "\udcff"))),
    manifest_entries(json_value, json_value),
    st.dictionaries(st.sampled_from(("id", "path", "x")), json_value, max_size=2).map(json.dumps),
    json_value.map(json.dumps),  # mostly not an object
    st.text(max_size=12),  # mostly invalid JSON
    st.just(json.dumps({"id": "t", "path": "x"})[:-3]),  # truncated
).map(lambda line: line.encode("utf-8", "surrogatepass")) | st.binary(max_size=12)


@PROPERTY_SETTINGS
@given(st.lists(manifest_line, max_size=6))
def test_read_manifest_returns_entries_or_raises_poselik_errors(scratch, lines):
    path = scratch / "manifest.jsonl"
    # Each line alone as well, so no line hides behind an earlier bad one.
    for content in [lines] + [[line] for line in lines]:
        path.write_bytes(b"\n".join(content))
        try:
            entries = read_manifest(path)
        except PoseLikError:
            continue
        ids = [sample_id for sample_id, _ in entries]
        assert len(set(ids)) == len(ids)
        for sample_id, target in entries:
            assert isinstance(sample_id, str) and isinstance(target, str)
            assert os.path.isabs(target) and "\0" not in target
            os.fsencode(target)  # a name open() can take


@st.composite
def float32_grids(draw) -> Heatmap:
    shape = (draw(st.integers(1, 3)), draw(st.integers(3, 6)), draw(st.integers(3, 6)))
    values = draw(
        st.lists(
            st.floats(width=32, allow_nan=False, allow_infinity=False),
            min_size=int(np.prod(shape)), max_size=int(np.prod(shape)),
        )
    )
    return Heatmap(values=np.array(values, dtype=np.float32).reshape(shape))


@PROPERTY_SETTINGS
@given(float32_grids())
def test_heatmap_file_round_trip_keeps_every_byte(scratch, heatmap):
    path = scratch / "round-trip.pshm"
    write_heatmap_file(heatmap, path)
    again = read_heatmap_file(path)
    assert again.values.shape == heatmap.values.shape
    assert again.values.tobytes() == heatmap.values.tobytes()


HEADER = struct.Struct("<4sIIII")
dimension = st.integers(0, 2**32 - 1)


@st.composite
def corrupted_files(draw) -> tuple[bytes, type | None]:
    """(file bytes, the error reading them must raise); ``None`` where only
    "some PoseLikError or a heatmap" can be said."""
    heatmap = draw(float32_grids())
    n, h, w = heatmap.values.shape
    payload = heatmap.values.astype("<f4").tobytes()
    kind = draw(st.sampled_from(("truncated", "magic", "version", "random", "zero", "dims")))
    if kind == "truncated":
        cut = draw(st.integers(0, HEADER.size + len(payload) - 1))
        data = (HEADER.pack(b"PSHM", 1, n, h, w) + payload)[:cut]
        return data, BadMagic if cut < HEADER.size else TruncatedPayload
    if kind == "magic":
        magic = draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != b"PSHM"))
        return HEADER.pack(magic, 1, n, h, w) + payload, BadMagic
    if kind == "version":
        version = draw(dimension.filter(lambda v: v != 1))
        return HEADER.pack(b"PSHM", version, n, h, w) + payload, VersionUnsupported
    if kind == "random":
        return draw(st.binary(min_size=HEADER.size, max_size=HEADER.size)) + payload, None
    if kind == "zero":
        dims = [n, h, w]
        dims[draw(st.integers(0, 2))] = 0
        return HEADER.pack(b"PSHM", 1, *dims) + draw(st.sampled_from((b"", payload))), PoseLikError
    dims = draw(st.tuples(dimension, dimension, dimension).filter(lambda d: d != (n, h, w)))
    if dims[0] * dims[1] * dims[2] == n * h * w:
        return HEADER.pack(b"PSHM", 1, *dims) + payload, None  # reshaped, maybe too small
    return HEADER.pack(b"PSHM", 1, *dims) + payload, TruncatedPayload


@PROPERTY_SETTINGS
@given(corrupted_files())
def test_corrupt_heatmap_files_raise_only_poselik_errors(scratch, corrupted):
    data, error = corrupted
    path = scratch / "corrupt.pshm"
    path.write_bytes(data)
    if error is not None:
        with pytest.raises(error):
            read_heatmap_file(path)
        return
    try:
        read_heatmap_file(path)
    except PoseLikError:
        pass


@st.composite
def pshm_files(draw) -> bytes:
    """A valid PSHM file, some with one NaN or infinite score, or a corrupted one."""
    if draw(st.booleans()):
        return draw(corrupted_files())[0]
    values = draw(float32_grids()).values.copy()
    if draw(st.booleans()):
        cell = draw(st.integers(0, values.size - 1))
        values.reshape(-1)[cell] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    return pshm_bytes(values)


def read_outcome(read):
    """(dtype, shape, bytes) of the scores ``read`` returns, or the type and
    message of the ``PoseLikError`` it raises."""
    try:
        values = read()
    except PoseLikError as exc:
        return type(exc), str(exc)
    return values.dtype.str, values.shape, values.tobytes()


@PROPERTY_SETTINGS
@given(pshm_files())
def test_both_reader_paths_match_the_reference_reader(scratch, data):
    """Read into a new :class:`Heatmap` or into a caller's row, a file gives
    the reference reader's scores or error, and the row is asked for only
    once the header and length are valid."""
    path = scratch / "reader.pshm"
    path.write_bytes(data)
    expected = read_outcome(lambda: reference_read_heatmap_file(path).values)
    assert read_outcome(lambda: read_heatmap_file(path).values) == expected
    rows = []

    def into(shape):
        rows.append(np.full(shape, np.nan, dtype=np.float32))  # each byte must be read
        return rows[-1]

    def read_into():
        assert read_heatmap_file(path, into=into) is None
        return rows[0]

    assert read_outcome(read_into) == expected
    assert len(rows) == (expected[0] in ("<f4", NonFiniteValue))


# --- every JSON input of every command ---------------------------------------------

def _jsonl(*records) -> bytes:
    return "".join(json.dumps(record) + "\n" for record in records).encode("utf-8")


def _pose(shift: int) -> list:
    return [[8 + shift, 4], [8 + shift, 8], [8, 12 + shift]]


_SKELETON = {
    "joints": ["a", "b", "c"], "root": "a", "dimension": 2, "links": [["a", "b"], ["b", "c"]],
}
_OFFSET = {"offset": [0.0, 4.0], "covariance": [[1.0, 0.25], [0.25, 1.0]]}
_SIM_GENERATOR = {
    "link_means": [3.0, 3.0], "link_sds": [0.5, 0.5], "angle_ranges": [[-0.5, 0.5]] * 2,
}
VALID_INPUTS = {
    "skeleton.json": json.dumps(_SKELETON).encode("utf-8"),
    "model.json": json.dumps(dict(
        _SKELETON, model_kind="offset", params=[_OFFSET, _OFFSET],
        root_params={"offset": [8.0, 4.0], "covariance": [[4.0, 0.0], [0.0, 4.0]]},
    )).encode("utf-8"),
    "per_image.json": json.dumps({"model_kind": "distance", "per_image": {
        f"s{i}": {"links": [{"mean": 4.0, "sigma": 1.0}] * 2, "root": {"mean": 9.0, "sigma": 3.0}}
        for i in range(2)
    }}).encode("utf-8"),
    "manifest.jsonl": _jsonl(*({"id": f"s{i}", "path": f"s{i}.pshm"} for i in range(2))),
    "poses.jsonl": _jsonl(*({"id": f"s{i}", "pose": _pose(i)} for i in range(2))),
    "labeled.jsonl": _jsonl(*({"id": i, "pose": _pose(i)} for i in range(3))),
    "scores.jsonl": _jsonl(
        {"id": "a", "total": -3.5, "entropy": 0.25},
        {"id": "b", "total": -math.inf, "entropy": 1.0},
        {"id": "c", "score": 1, "total": 0.5},
    ),
    "config.json": json.dumps({
        "seed": 7, "rounds": 1, "budget": 1, "ranking_mode": "max",
        "initial_random_fraction": 0.0, "strategies": ["vl4pose", "entropy", "random"],
        "pool": {"labeled": 3, "unlabeled": 3, "ood": 1, "heldout": 1},
        "skeleton": {"joints": 3}, "generator": _SIM_GENERATOR,
        "ood_generator": dict(_SIM_GENERATOR, link_means=[5.0, 5.0]),
        "heatmap": {"height": 16, "width": 16, "peak_sigma": 1.0,
                    "distractors": 1, "distractor_amplitude": 0.5},
    }).encode("utf-8"),
}
_MODEL = ["--skeleton", "skeleton.json", "--params", "model.json", "--heatmaps", "manifest.jsonl"]
_PER_IMAGE = ["--skeleton", "skeleton.json", "--params", "per_image.json", "--per-image",
              "--heatmaps", "manifest.jsonl"]
CLI_RUNS = (
    ["score", *_MODEL],
    ["score", *_PER_IMAGE],
    ["score", *_MODEL, "--mode", "point", "--poses", "poses.jsonl"],
    ["score", *_PER_IMAGE, "--mode", "point", "--poses", "poses.jsonl"],  # distance laws
    ["refine", *_MODEL],
    ["maxima", "--heatmaps", "manifest.jsonl"],
    ["select", "--scores", "scores.jsonl", "--strategy", "vl4pose", "--budget", "1"],
    ["select", "--scores", "scores.jsonl", "--strategy", "entropy", "--budget", "2"],
    ["calibrate", "--skeleton", "skeleton.json", "--labeled", "labeled.jsonl", "--model", "offset"],
    ["calibrate", "--skeleton", "skeleton.json", "--labeled", "labeled.jsonl", "--model", "distance"],
    ["simulate", "--config", "config.json"],
)


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-inputs")
    for name, data in VALID_INPUTS.items():
        (directory / name).write_bytes(data)
    for i in range(2):
        heatmap = render_gaussian_heatmap(Pose(_pose(i)), 16, 16, 1.0, [(1, (2, 2), 0.7)])
        write_heatmap_file(heatmap, directory / f"s{i}.pshm")
    (directory / "out").mkdir()
    return directory


def _paths(value, prefix=()):
    """Every path of keys and indices into a JSON value, the empty one first."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, inner in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(inner, prefix + (key,))


def _replace(value, path, new):
    if not path:
        return new
    value[path[0]] = _replace(value[path[0]], path[1:], new)
    return value


# One value of each JSON type, the awkward ones first: non-finite,
# out-of-float-range and integral float numbers, empty and unhashable containers.
odd_value = st.sampled_from((
    math.nan, math.inf, -math.inf, 10**400, -(10**400), 0, -1, 0.5, 2.0, None, True, "", "x",
    [], [[1]], [{}], {}, {"": 0},
)) | json_value


@st.composite
def corrupted_inputs(draw):
    """(file name, bytes): one valid input made random, cut short, not UTF-8,
    nested too deep, holding a value of the wrong type somewhere, or a number
    scaled towards or past the float range."""
    name = draw(st.sampled_from(sorted(VALID_INPUTS)))
    valid = VALID_INPUTS[name]
    kind = draw(st.sampled_from(
        ("random", "truncated", "not_utf8", "deep") + ("retyped",) * 4 + ("rescaled",) * 4
    ))
    cut = draw(st.integers(0, len(valid)))
    if kind == "random":
        return name, draw(st.binary(max_size=64))
    if kind == "truncated":
        return name, valid[:cut]
    if kind == "not_utf8":  # a stray byte, a cut-off sequence, an encoded surrogate
        bad = draw(st.sampled_from((b"\xff", b"\xc3", b"\xed\xa0\x80")))
        return name, valid[:cut] + bad + valid[cut:]
    if kind == "deep":
        return name, valid[:cut] + b"[" * 100_000 + valid[cut:]
    docs = [json.loads(line) for line in valid.splitlines()]
    at = draw(st.integers(0, len(docs) - 1))
    paths = list(_paths(docs[at]))

    def value_at(path):
        return functools.reduce(lambda value, key: value[key], path, docs[at])

    numbers = [path for path in paths if type(value_at(path)) in (int, float)]
    if kind == "rescaled" and numbers:
        path = draw(st.sampled_from(numbers))
        new = value_at(path) * draw(st.sampled_from((1e300, -1e300, 1e-300, 1.7e308)))
    else:
        path = draw(st.sampled_from(paths))
        old = value_at(path)
        new = draw(odd_value.filter(lambda v: type(v) is not type(old)))
    docs[at] = _replace(docs[at], path, new)
    return name, "\n".join(json.dumps(doc) for doc in docs).encode("utf-8")


@PROPERTY_SETTINGS
@given(corrupted_inputs())
def test_every_command_survives_any_json_input(cli_dir, corrupted):
    name, data = corrupted
    out = cli_dir / "out"
    (cli_dir / name).write_bytes(data)
    try:
        for argv in (argv for argv in CLI_RUNS if name in argv):
            try:
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    code = cli.main([str(cli_dir / a) if a in VALID_INPUTS else a for a in argv]
                                    + ["--out", str(out / "result")])
                lines = stderr.getvalue().splitlines()
                assert code in (0, 2, 3, 4), (argv, code)
                assert len(lines) <= 1 and "Traceback" not in stderr.getvalue(), (argv, lines)
                if code == 3:  # a bad input: the one line names its file
                    assert name in lines[0], (argv, lines)
                if code != 0:
                    assert os.listdir(out) == [], (argv, lines)
                elif argv[0] in ("score", "refine"):  # a NaN total has no rank
                    constants = []
                    for line in (out / "result").read_text(encoding="utf-8").splitlines():
                        json.loads(line, parse_constant=constants.append)
                    assert "NaN" not in constants, argv
            finally:  # each run, and the next example's first, starts from an empty directory
                for leftover in out.iterdir():
                    leftover.unlink()
    finally:
        (cli_dir / name).write_bytes(VALID_INPUTS[name])

# --- chunked runs and their output lines -------------------------------------------

_FAILURES = ("magic", "version", "short", "trailing", "small", "nan", "inf", "-inf", "params")


def _sample_file(shape, failure, seed) -> bytes:
    """A heatmap file of random scores, made to fail in the given way."""
    if failure == "small":
        shape = (shape[0], 2, shape[2])
    values = np.random.default_rng(seed).random(shape, dtype=np.float32)
    if failure in ("nan", "inf", "-inf"):
        values.reshape(-1)[seed % values.size] = float(failure)
    data = pshm_bytes(values, magic=b"PSHX" if failure == "magic" else b"PSHM",
                      version=2 if failure == "version" else 1)
    return {"short": data[:-4], "trailing": data + bytes(4)}.get(failure, data)


@pytest.fixture(scope="module")
def chunk_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("chunks")
    (directory / "skeleton.json").write_text(json.dumps(_SKELETON), encoding="utf-8")
    return directory


@settings(PROPERTY_SETTINGS, max_examples=80)  # each example runs up to 8 commands
@given(
    st.integers(2, 4),
    st.lists(
        st.tuples(
            st.sampled_from(((3, 5, 5), (3, 4, 6))),
            st.sampled_from((None,) * 4 + _FAILURES),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1, max_size=7,
    ),
)
def test_a_chunked_run_fails_as_its_first_failing_sample_alone(chunk_dir, chunk, samples):
    """In chunks of 2-4 (and new chunks at each change of grid shape), a run
    of ``score --per-image`` exits and reports as the first sample that
    fails on its own; a run where none fails writes each sample's own line."""
    ids = [f"s{i}" for i in range(len(samples))]
    for sample_id, (shape, failure, seed) in zip(ids, samples):
        (chunk_dir / f"{sample_id}.pshm").write_bytes(_sample_file(shape, failure, seed))
    (chunk_dir / "params.json").write_text(json.dumps({"model_kind": "distance", "per_image": {
        sample_id: {"links": [{"mean": 2.0, "sigma": 1.0}] * 2}
        for sample_id, (_, failure, _) in zip(ids, samples) if failure != "params"
    }}), encoding="utf-8")

    def run(run_ids):
        manifest, out = chunk_dir / "manifest.jsonl", chunk_dir / "out.jsonl"
        manifest.write_text("".join(
            json.dumps({"id": i, "path": f"{i}.pshm"}) + "\n" for i in run_ids
        ), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), mock.patch.object(
            cli, "CHUNK_BYTES", chunk * 3 * 5 * 5 * 4
        ):
            code = cli.main(["score", "--skeleton", str(chunk_dir / "skeleton.json"),
                             "--params", str(chunk_dir / "params.json"), "--per-image",
                             "--heatmaps", str(manifest), "--out", str(out)])
        return code, stderr.getvalue(), out.read_text(encoding="utf-8") if code == 0 else None

    alone = [run([sample_id]) for sample_id in ids]
    failed = [result for result in alone if result[0] != 0]
    code, err, text = run(ids)
    if failed:
        assert (code, err) == failed[0][:2]
    else:
        assert (code, err, text) == (0, "", "".join(result[2] for result in alone))


def maxima_record(sample_id: str, peaks: PeakSet) -> dict:
    """A ``maxima`` output record as a dict: the peaks of each joint, in order."""
    rows = [
        {"loc": loc, "score": score, "prob": prob}
        for loc, score, prob in zip(
            peaks.locs.tolist(), peaks.scores.tolist(), peaks.probs.tolist()
        )
    ]
    bounds = peaks.offsets.tolist()
    return {
        "id": sample_id,
        "entropy": multi_peak_entropy(peaks),
        "peaks": [rows[a:b] for a, b in zip(bounds[:-1], bounds[1:])],
    }


FLOAT32_MAX = float(np.finfo(np.float32).max)
odd_id = st.text() | st.sampled_from(
    ('"', "\\", "\x00\x1f\x7f", "é\u2028\U0001f600", 'a"b\\c\nd')
)
maxima_peak = st.tuples(
    st.tuples(st.integers(0, 2**31), st.integers(0, 2**31)),
    st.floats(width=32, allow_nan=False, allow_infinity=False)
    | st.sampled_from((FLOAT32_MAX, -FLOAT32_MAX, -0.0)),
    st.floats(0.0, 1.0) | st.sampled_from((5e-324, 1e-310, 2.2250738585072014e-308, 1.0)),
)
maxima_samples = st.integers(1, 4).flatmap(lambda joints: st.lists(  # one batch, one joint count
    st.tuples(odd_id, st.lists(
        st.lists(maxima_peak, min_size=1, max_size=3), min_size=joints, max_size=joints
    )),
    min_size=1, max_size=3,
))


@PROPERTY_SETTINGS
@example([("a\"\\", [[((0, 1), FLOAT32_MAX, 5e-324)], [((2, 3), -0.0, 1.0)]])])  # single peaks
@given(maxima_samples)
def test_maxima_lines_are_the_json_of_their_records(samples):
    ids = [sample_id for sample_id, _ in samples]
    peak_sets = [peakset_of(joints) for _, joints in samples]
    expected = "".join(
        json.dumps(maxima_record(sample_id, peaks), sort_keys=True) + "\n"
        for sample_id, peaks in zip(ids, peak_sets)
    )
    assert cli._maxima_records(None, None, ids, batch_of(peak_sets)) == expected


def test_a_failing_property_fails_with_its_example(tmp_path):
    """Under the suite's own warning filters, a failing property reports its
    falsifying example as an ordinary failure, and the session goes on."""
    root = Path(__file__).resolve().parent.parent
    (tmp_path / "test_failing.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None, derandomize=True)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n\n"
        "def test_passes():\n"
        "    pass\n",
        encoding="utf-8",
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(root / "pyproject.toml"), "--rootdir",
         str(root), "-p", "no:cacheprovider", "-q", str(tmp_path / "test_failing.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout and "x=5," in run.stdout
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
