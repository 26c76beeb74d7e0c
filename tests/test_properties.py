"""Property tests over generated trees, peak sets, link models and heatmaps.

The fixed-seed tests and criterion 1 cover distance models; these
properties add offset models and root priors, and check that a refined
pose reports the same terms as scoring that pose directly. Peak
extraction is checked bit for bit against a per-joint loop on grids
full of ties, plateaus and negative maxima, the in-place heatmap renderer
against its out-of-place formula, and the ranking AUC against its
pairwise definition.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from poselik import (
    DistanceParams,
    Heatmap,
    OffsetParams,
    PeakSet,
    Pose,
    PoseModelParams,
    brute_force_best_pose,
    extract_peaks,
    ood_ranking_auc,
    point_log_likelihood,
    refine_pose,
    render_gaussian_heatmap,
    validate_skeleton,
)

from _helpers import oracle_auc, oracle_peaks, peakset_of, render_reference

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
def peak_sets(draw, n_joints: int) -> PeakSet:
    joints = []
    for _ in range(n_joints):
        cells = draw(
            st.lists(
                st.tuples(st.integers(0, GRID - 1), st.integers(0, GRID - 1)),
                min_size=1, max_size=3, unique=True,
            )
        )
        scores = sorted(
            draw(st.lists(st.floats(0.05, 1.0), min_size=len(cells), max_size=len(cells))),
            reverse=True,
        )
        weights = np.exp(np.array(scores) - max(scores))
        probs = weights / weights.sum()
        joints.append(list(zip(cells, scores, probs.tolist())))
    return peakset_of(joints)


@st.composite
def instances(draw, kinds=("distance", "offset")):
    """(peaks, model): a random tree with permuted joint indices, a peak set
    of up to 3 peaks per joint, and per-link laws of one family with an
    optional root prior."""
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
    model = PoseModelParams(
        skeleton=skeleton, link_params=link_params, model_kind=kind, root_params=root_params
    )
    return draw(peak_sets(n)), model


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
@given(instances())
def test_refined_terms_equal_point_scoring_of_the_pose(instance):
    peaks, model = instance
    refined = refine_pose(peaks, model)
    report = point_log_likelihood(refined.pose, model)
    assert refined.per_link_terms == report.per_link_terms
    assert refined.root_term == report.root_term
    assert refined.log_likelihood == report.total


@st.composite
def heatmaps(draw) -> Heatmap:
    """Small grids of small integers (ties and plateaus everywhere), of
    negative integers, of one constant, or of float32 scores."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(3, 7)), draw(st.integers(3, 7)))
    size = int(np.prod(shape))
    kind = draw(st.sampled_from(("small", "negative", "constant", "float")))
    if kind == "constant":
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


ranking_score = st.integers(-3, 3).map(float) | st.floats(-1e6, 1e6)


@PROPERTY_SETTINGS
@given(
    st.lists(ranking_score, min_size=1, max_size=40),
    st.lists(ranking_score, min_size=1, max_size=40),
)
def test_ood_ranking_auc_equals_pairwise_definition(id_scores, ood_scores):
    assert abs(ood_ranking_auc(id_scores, ood_scores) - oracle_auc(id_scores, ood_scores)) <= 1e-12


@st.composite
def render_cases(draw):
    """(coords, height, width, peak_sigma, distractors) with fractional
    coordinates anywhere in the grid, including its edges."""
    height, width = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    n = draw(st.integers(1, 4))
    row = st.floats(0.0, height - 1.0, allow_nan=False)
    col = st.floats(0.0, width - 1.0, allow_nan=False)
    coords = [(draw(row), draw(col)) for _ in range(n)]
    distractors = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.tuples(row, col), st.floats(0.01, 1.0)),
            max_size=4,
        )
    )
    return coords, height, width, draw(st.floats(0.1, 8.0)), distractors


@PROPERTY_SETTINGS
@given(render_cases())
def test_render_matches_out_of_place_formula(case):
    coords, height, width, peak_sigma, distractors = case
    rendered = render_gaussian_heatmap(
        Pose.of(coords), height, width, peak_sigma, distractors=distractors
    )
    expected = render_reference(coords, height, width, peak_sigma, distractors)
    assert rendered.values.tobytes() == expected.tobytes()
