"""Pose log-likelihood under the skeletal tree model.

Three evaluation modes share the same per-link Gaussian densities:

* point: score one complete pose,
* expected: average the link terms over each joint's peak distribution,
* refined: pick one peak per joint maximizing peak probability plus
  link density, via exact max-sum dynamic programming on the tree.

All log-likelihoods are natural log (nats). Every operation is a pure
function over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyPeakSet,
    MissingJoint,
    SearchSpaceTooLarge,
)
from .heatmaps import PeakSet, entropy_of_probs
from .model import DistanceParams, LinkParams, OffsetParams, Pose, PoseModelParams

LOG_2PI = math.log(2.0 * math.pi)

# Upper bound on the number of pose configurations the exhaustive scorer
# will enumerate.
BRUTE_FORCE_GUARD = 10**6


@dataclass(frozen=True)
class LikelihoodReport:
    """Total and per-link log-likelihood terms for one sample."""

    total: float
    per_link_terms: tuple[float, ...]
    root_term: float
    mode: str  # "point" | "expected" | "refined"

    def to_json_dict(self, sample_id: str) -> dict:
        return {
            "id": sample_id,
            "mode": self.mode,
            "total": self.total,
            "root": self.root_term,
            "per_link": list(self.per_link_terms),
        }


@dataclass(frozen=True, eq=False)
class RefinedPose:
    """Peak selection maximizing the joint peak-probability + link objective.

    ``log_likelihood`` is the point log-likelihood of the chosen pose,
    ``root_term + sum(per_link_terms)``; ``objective`` additionally
    includes the per-joint log peak probabilities that drive the
    selection. Every term is an entry of the density matrices the search
    maximized over.
    """

    pose: Pose
    log_likelihood: float
    chosen_peak_index: tuple[int, ...]
    objective: float
    per_link_terms: tuple[float, ...]
    root_term: float

    def to_json_dict(self, sample_id: str) -> dict:
        return {
            "id": sample_id,
            "mode": "refined",
            "total": self.log_likelihood,
            "root": self.root_term,
            "per_link": list(self.per_link_terms),
            "pose": [[int(r), int(c)] for r, c in self.pose.coordinates],
            "peak_index": list(self.chosen_peak_index),
            "objective": self.objective,
        }


# --- link densities ---------------------------------------------------------

def _density_matrix(parent_locs: np.ndarray, child_locs: np.ndarray, params: LinkParams) -> np.ndarray:
    """(a, b) matrix of link log-densities over candidate location pairs.

    The one log-density formula per link family: the scalar, point,
    expected, refined and exhaustive scores all read their link terms from
    here. Every entry is computed from its own pair by elementwise
    operations, so an entry does not depend on the shape of the batch it
    is computed in and a 1x1 call matches the (a, b) call bit for bit.
    """
    diff = child_locs[None, :, :] - parent_locs[:, None, :]
    if isinstance(params, DistanceParams):
        dist = np.sqrt((diff * diff).sum(axis=-1))
        z = (dist - params.mean_distance) / params.sigma
        return -0.5 * z * z - math.log(params.sigma) - 0.5 * LOG_2PI
    # Forward substitution through the Cholesky factor, one coordinate at a
    # time (a multi-column LAPACK solve rounds by column position).
    residual = diff - params.offset
    chol = params.cholesky
    whitened: list[np.ndarray] = []
    maha = 0.0
    for i in range(params.dimension):
        acc = residual[..., i]
        for k in range(i):
            acc = acc - chol[i, k] * whitened[k]
        whitened.append(acc / chol[i, i])
        maha = maha + whitened[i] * whitened[i]
    return -0.5 * maha - 0.5 * params.log_det - 0.5 * params.dimension * LOG_2PI


def _root_density_vector(locs: np.ndarray, params: LinkParams | None) -> np.ndarray:
    if params is None:
        return np.zeros(locs.shape[0])
    origin = np.zeros((1, locs.shape[1]))
    return _density_matrix(origin, locs, params)[0]


def link_log_density(parent_loc, child_loc, params: LinkParams) -> float:
    """Log-density of one parent/child location pair under one link law."""
    parent = np.asarray(parent_loc, dtype=np.float64)
    child = np.asarray(child_loc, dtype=np.float64)
    if isinstance(params, OffsetParams) and (
        parent.shape != (params.dimension,) or child.shape != (params.dimension,)
    ):
        raise DimensionMismatch(
            f"locations must be {params.dimension}-vectors for this offset model"
        )
    return float(_density_matrix(parent[None, :], child[None, :], params)[0, 0])


def link_log_density_distance(parent_loc, child_loc, params: DistanceParams) -> float:
    """Log-density of the univariate normal over the parent-child distance."""
    return link_log_density(parent_loc, child_loc, params)


def link_log_density_offset(parent_loc, child_loc, params: OffsetParams) -> float:
    """Log-density of the multivariate normal over the child displacement."""
    return link_log_density(parent_loc, child_loc, params)


def root_log_density(loc, params: LinkParams | None) -> float:
    """Root prior term: 0 under the default uniform prior.

    A distance prior is a normal over the root's distance from the grid
    origin; an offset prior is a normal centred at the absolute location
    stored in its offset field.
    """
    if params is None:
        return 0.0
    loc = np.asarray(loc, dtype=np.float64)
    return link_log_density(np.zeros(loc.shape), loc, params)


# --- whole-pose scoring -------------------------------------------------------

def _check_pose(pose: Pose, params: PoseModelParams) -> None:
    skel = params.skeleton
    if pose.n_joints != skel.n_joints:
        raise DimensionMismatch(
            f"pose has {pose.n_joints} joints, skeleton has {skel.n_joints}"
        )
    if pose.dimension != skel.dimension:
        raise DimensionMismatch(
            f"pose dimension {pose.dimension} != skeleton dimension {skel.dimension}"
        )
    if not pose.complete:
        absent = int(np.argmin(pose.present))
        raise MissingJoint(f"joint {skel.joints[absent]!r} is missing from the pose")


def point_log_likelihood(pose: Pose, params: PoseModelParams) -> LikelihoodReport:
    """Log-likelihood of one complete pose: root prior + per-link terms."""
    _check_pose(pose, params)
    skel = params.skeleton
    coords = pose.coordinates
    terms = [
        link_log_density(coords[parent], coords[child], params.link_params[idx])
        for idx, (parent, child) in enumerate(skel.links)
    ]
    root_term = root_log_density(coords[skel.root], params.root_params)
    return LikelihoodReport(
        total=root_term + sum(terms),
        per_link_terms=tuple(terms),
        root_term=root_term,
        mode="point",
    )


def _peak_arrays(peaks: PeakSet, params: PoseModelParams):
    skel = params.skeleton
    if peaks.joint_count != skel.n_joints:
        raise DimensionMismatch(
            f"peak set covers {peaks.joint_count} joints, skeleton has {skel.n_joints}"
        )
    if skel.dimension != 2:
        raise DimensionMismatch("peak-based scoring operates on 2D grid locations")
    counts = peaks.counts()
    if 0 in counts:
        raise EmptyPeakSet(f"joint {skel.joints[counts.index(0)]!r} has no candidate peaks")
    bounds = peaks.offsets.tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    return [peaks.locs[a:b] for a, b in spans], [peaks.probs[a:b] for a, b in spans]


def expected_log_likelihood(peaks: PeakSet, params: PoseModelParams) -> LikelihoodReport:
    """Link terms averaged over each joint's peak distribution.

    Each link term is the expectation of the link log-density under the
    product of the parent's and child's peak probabilities; the root term
    averages the root prior the same way. With single-peak joints this
    reduces to the point log-likelihood of the argmax pose.
    """
    locs, probs = _peak_arrays(peaks, params)
    skel = params.skeleton
    terms = []
    for idx, (parent, child) in enumerate(skel.links):
        m = _density_matrix(locs[parent], locs[child], params.link_params[idx])
        terms.append(float(probs[parent] @ m @ probs[child]))
    root_term = float(probs[skel.root] @ _root_density_vector(locs[skel.root], params.root_params))
    return LikelihoodReport(
        total=root_term + sum(terms),
        per_link_terms=tuple(terms),
        root_term=root_term,
        mode="expected",
    )


def multi_peak_entropy(peaks: PeakSet) -> float:
    """Sum over joints of the Shannon entropy of the peak probabilities."""
    if peaks.joint_count == 0:
        raise EmptyPeakSet("peak set has no joints")
    counts = peaks.counts()
    if 0 in counts:
        raise EmptyPeakSet(f"joint #{counts.index(0)} has no candidate peaks")
    bounds, probs = peaks.offsets.tolist(), peaks.probs.tolist()
    total = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        total += entropy_of_probs(probs[a:b])
    return total


# --- max-likelihood refinement --------------------------------------------------

def _joint_log_probs(peaks: PeakSet) -> list[np.ndarray]:
    """Per-joint views of the log peak probabilities, one ``np.log`` for all."""
    with np.errstate(divide="ignore"):
        logs = np.log(peaks.probs)  # log(0) -> -inf: a zero-probability peak is never chosen
    bounds = peaks.offsets.tolist()
    return [logs[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _objective(probs: list[np.ndarray], indices, root_term: float, link_terms) -> float:
    """Canonical sum of one selection's terms: joint log peak probabilities,
    root prior, then links in declaration order. The tree DP, the
    exhaustive scorer and :func:`refinement_objective` all add in this
    order, so they report bit-identical values for the same selection."""
    total = 0.0
    for j, i in enumerate(indices):
        p = probs[j][i]
        total += math.log(p) if p > 0.0 else -math.inf
    total += root_term
    for term in link_terms:
        total += term
    return total


def refinement_objective(
    peaks: PeakSet, params: PoseModelParams, indices: tuple[int, ...] | list[int]
) -> float:
    """Score of one peak selection: log peak probabilities + link densities."""
    locs, probs = _peak_arrays(peaks, params)
    skel = params.skeleton
    root_term = root_log_density(locs[skel.root][indices[skel.root]], params.root_params)
    link_terms = [
        link_log_density(
            locs[parent][indices[parent]], locs[child][indices[child]], params.link_params[idx]
        )
        for idx, (parent, child) in enumerate(skel.links)
    ]
    return _objective(probs, indices, root_term, link_terms)


def _finish(
    peaks: PeakSet,
    params: PoseModelParams,
    probs: list[np.ndarray],
    root_vector: np.ndarray,
    link_matrices: list[np.ndarray],
    indices: list[int],
) -> RefinedPose:
    """Gather the chosen entries from the densities the search already built."""
    skel = params.skeleton
    root_term = float(root_vector[indices[skel.root]])
    link_terms = tuple(
        float(link_matrices[idx][indices[parent], indices[child]])
        for idx, (parent, child) in enumerate(skel.links)
    )
    return RefinedPose(
        pose=Pose.of(peaks.locs[peaks.offsets[:-1] + indices]),
        log_likelihood=root_term + sum(link_terms),
        chosen_peak_index=tuple(int(i) for i in indices),
        objective=_objective(probs, indices, root_term, link_terms),
        per_link_terms=link_terms,
        root_term=root_term,
    )


def refine_pose(peaks: PeakSet, params: PoseModelParams) -> RefinedPose:
    """Exact argmax over joint-wise peak choices via max-sum on the tree.

    Bottom-up pass: for each joint and candidate peak, the best attainable
    score of its subtree (own log peak probability plus, per child link,
    the maximum of link density + child subtree score). Top-down pass
    follows the recorded argmax choices from the root. Ties resolve to the
    lowest peak index at each joint, root first, which makes the result
    the lexicographically smallest maximizer in breadth-first joint order.
    """
    locs, probs = _peak_arrays(peaks, params)
    log_probs = _joint_log_probs(peaks)
    skel = params.skeleton
    n = skel.n_joints
    root_vector = _root_density_vector(locs[skel.root], params.root_params)
    link_matrices: list[np.ndarray] = [None] * skel.n_links
    subtree: list[np.ndarray | None] = [None] * n
    choice: dict[tuple[int, int], np.ndarray] = {}

    for j in reversed(skel.bfs_joints):
        score = log_probs[j].copy()
        for link_idx, child in skel.children_links[j]:
            m = _density_matrix(locs[j], locs[child], params.link_params[link_idx])
            link_matrices[link_idx] = m
            combined = m + subtree[child][None, :]
            best = np.argmax(combined, axis=1)  # first max = lowest peak index
            score += combined[np.arange(combined.shape[0]), best]
            choice[(j, child)] = best
        if j == skel.root:
            score += root_vector
        subtree[j] = score

    indices = [0] * n
    indices[skel.root] = int(np.argmax(subtree[skel.root]))
    for j in skel.bfs_joints:
        for _, child in skel.children_links[j]:
            indices[child] = int(choice[(j, child)][indices[j]])
    return _finish(peaks, params, probs, root_vector, link_matrices, indices)


def brute_force_best_pose(peaks: PeakSet, params: PoseModelParams) -> RefinedPose:
    """Exhaustively score every peak configuration; test oracle for refine_pose.

    Enumerates the full product space with one score per configuration and
    takes the first maximum in breadth-first joint order, matching the
    refinement tie-break. Guarded to :data:`BRUTE_FORCE_GUARD`
    configurations.
    """
    locs, probs = _peak_arrays(peaks, params)
    skel = params.skeleton
    counts = peaks.counts()
    space = math.prod(counts)
    if space > BRUTE_FORCE_GUARD:
        raise SearchSpaceTooLarge(f"{space} configurations exceed guard {BRUTE_FORCE_GUARD}")

    order = skel.bfs_joints
    axis_of = {j: a for a, j in enumerate(order)}
    shape = [counts[j] for j in order]
    n_axes = len(shape)

    def along(arr: np.ndarray, *axes: int) -> np.ndarray:
        full = [1] * n_axes
        for axis, size in zip(axes, arr.shape):
            full[axis] = size
        return arr.reshape(full)

    root_vector = _root_density_vector(locs[skel.root], params.root_params)
    link_matrices = [
        _density_matrix(locs[parent], locs[child], params.link_params[idx])
        for idx, (parent, child) in enumerate(skel.links)
    ]
    log_probs = _joint_log_probs(peaks)
    total = np.zeros(shape)
    for j in order:
        total = total + along(log_probs[j], axis_of[j])
    total = total + along(root_vector, axis_of[skel.root])
    for pairwise, (parent, child) in zip(link_matrices, skel.links):
        a, b = axis_of[parent], axis_of[child]
        total = total + (along(pairwise, a, b) if a < b else along(pairwise.T, b, a))

    flat = int(np.argmax(total))  # first max in C order = BFS-lexicographic min
    per_axis = np.unravel_index(flat, shape)
    indices = [0] * skel.n_joints
    for a, j in enumerate(order):
        indices[j] = int(per_axis[a])
    return _finish(peaks, params, probs, root_vector, link_matrices, indices)
