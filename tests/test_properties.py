"""Property tests over generated trees, peak sets and link models.

The fixed-seed tests and criterion 1 cover distance models; these
properties add offset models and root priors, and check that a refined
pose reports the same terms as scoring that pose directly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from poselik import (
    DistanceParams,
    OffsetParams,
    Peak,
    PeakSet,
    PoseModelParams,
    brute_force_best_pose,
    point_log_likelihood,
    refine_pose,
    validate_skeleton,
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
        joints.append(
            tuple(Peak(loc=cell, score=s, prob=float(p)) for cell, s, p in zip(cells, scores, probs))
        )
    return PeakSet(peaks=tuple(joints))


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
