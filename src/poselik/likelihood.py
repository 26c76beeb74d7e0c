"""Pose log-likelihood under the skeletal tree model.

Three evaluation modes share the same per-link Gaussian densities:

* point: score one complete pose,
* expected: average the link terms over each joint's peak distribution,
* refined: pick one peak per joint maximizing peak probability plus
  link density, via exact max-sum dynamic programming on the tree, run
  over a whole batch of samples at once.

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
    SchemaError,
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
    selection. Every term is an entry of the arrays the search maximized
    over.
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

def _log_density(diff: np.ndarray, params: LinkParams) -> np.ndarray:
    """Log-densities of displacements ``diff`` of any shape ``(..., D)``.

    The one formula per link family. Each entry is computed from its own
    displacement by elementwise operations, so it does not depend on the
    shape of the batch it is computed in.
    """
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


def _terms(locs: list[np.ndarray], params: PoseModelParams):
    """Every density term of a batch of samples, which every scoring mode
    reads: the root prior ``(B, K_root)`` and, per link in declaration order,
    a ``(B, K_parent, K_child)`` matrix over candidate locations ``locs[j]``
    ``(B, K_j, D)``. A root prior scores a location as a displacement from
    the origin; the uniform default scores zero.
    """
    root, prior = locs[params.skeleton.root], params.root_params
    root_vector = np.zeros(root.shape[:-1]) if prior is None else _log_density(root, prior)
    link_matrices = [
        _log_density(locs[child][:, None, :, :] - locs[parent][:, :, None, :], law)
        for law, (parent, child) in zip(params.link_params, params.skeleton.links)
    ]
    return root_vector, link_matrices


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
    return float(_log_density(child - parent, params))


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


def _point_terms(poses, params: PoseModelParams):
    """Root terms ``(B,)`` and per-link terms ``(B,)`` of complete poses."""
    for pose in poses:
        _check_pose(pose, params)
    coords = np.stack([pose.coordinates for pose in poses], axis=1)  # (J, B, D)
    root_vector, link_matrices = _terms(list(coords[:, :, None, :]), params)
    return root_vector[:, 0], [m[:, 0, 0] for m in link_matrices]


def point_log_likelihood(pose: Pose, params: PoseModelParams) -> LikelihoodReport:
    """Log-likelihood of one complete pose: root prior + per-link terms."""
    root, links = _point_terms([pose], params)
    terms = [float(t[0]) for t in links]
    root_term = float(root[0])
    return LikelihoodReport(
        total=root_term + sum(terms),
        per_link_terms=tuple(terms),
        root_term=root_term,
        mode="point",
    )


def point_log_likelihoods(poses, params: PoseModelParams) -> list[float]:
    """``point_log_likelihood(pose, params).total`` of each pose, from one
    term evaluation over the stacked poses."""
    if not poses:
        return []
    root, links = _point_terms(poses, params)
    return (root + sum(links)).tolist()


def _log(probs: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(probs)  # log(0) -> -inf: a zero-probability peak is never chosen


def _stack(peak_sets, params: PoseModelParams):
    """The peaks of a batch as padded per-joint arrays: what every peak
    likelihood reads, and the only place peak sets meet the skeleton.

    The batch is checked at once, and raises what checking the samples one
    by one in batch order would: a wrong joint count, a skeleton that is not
    2-D, then a joint with no peaks. Every peak is then scattered once into
    ``(B, J, K)`` grids. Joint ``j`` gets views of locations ``(B, K_j, 2)``
    padded with 0, probabilities ``(B, K_j)`` padded with 0 and their logs
    padded with ``-inf``, ``K_j`` being the largest count of that joint in
    the batch. Padding follows each sample's peaks and never beats a real
    peak, so a first maximum is still the lowest real peak index.
    """
    skel = params.skeleton
    joints = [peaks.joint_count for peaks in peak_sets]
    # Samples before the first wrong joint count have every joint.
    whole = next((b for b, n in enumerate(joints) if n != skel.n_joints), len(joints))
    if whole and skel.dimension != 2:
        raise DimensionMismatch("peak-based scoring operates on 2D grid locations")
    offsets = np.array([peaks.offsets for peaks in peak_sets[:whole]], dtype=np.int64)
    offsets = offsets.reshape(whole, skel.n_joints + 1)
    counts = offsets[:, 1:] - offsets[:, :-1]  # (B, J)
    if not counts.all():
        first = np.argmin(counts.min(axis=1))  # the first sample with an empty joint
        joint = skel.joints[np.argmin(counts[first])]
        raise EmptyPeakSet(f"joint {joint!r} has no candidate peaks")
    if whole < len(joints):
        raise DimensionMismatch(
            f"peak set covers {joints[whole]} joints, skeleton has {skel.n_joints}"
        )
    widths = counts.max(axis=0).tolist()
    # The real cells of the grids, in C order, are the peaks in CSR order.
    real = np.arange(max(widths)) < counts[:, :, None]
    locs = np.zeros(real.shape + (2,), dtype=np.int64)
    locs[real] = np.concatenate([peaks.locs for peaks in peak_sets])
    probs = np.zeros(real.shape)
    probs[real] = np.concatenate([peaks.probs for peaks in peak_sets])
    return tuple(
        [grid[:, j, :k] for j, k in enumerate(widths)] for grid in (locs, probs, _log(probs))
    )


def expected_log_likelihood(peaks: PeakSet, params: PoseModelParams) -> LikelihoodReport:
    """Link terms averaged over each joint's peak distribution.

    Each link term is the expectation of the link log-density under the
    product of the parent's and child's peak probabilities; the root term
    averages the root prior the same way. With single-peak joints this
    reduces to the point log-likelihood of the argmax pose.
    """
    locs, probs, _ = _stack([peaks], params)
    root_vector, link_matrices = _terms(locs, params)
    skel = params.skeleton
    terms = [
        float(probs[parent][0] @ m[0] @ probs[child][0])
        for m, (parent, child) in zip(link_matrices, skel.links)
    ]
    root_term = float(probs[skel.root][0] @ root_vector[0])
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

def _max_sum(log_probs, root_vector, link_matrices, skeleton) -> np.ndarray:
    """Exact argmax over joint-wise peak choices via max-sum on the tree,
    for every sample of a batch at once: peak indices ``(B, J)``.

    Bottom-up pass: for each joint and candidate peak, the best attainable
    score of its subtree (own log peak probability plus, per child link,
    the maximum of link density + child subtree score). Top-down pass
    follows the recorded argmax choices from the root. Ties resolve to the
    lowest peak index at each joint, root first, which makes the result
    the lexicographically smallest maximizer in breadth-first joint order.
    """
    rows = np.arange(len(root_vector))
    subtree: list = [None] * skeleton.n_joints
    choice: list = [None] * skeleton.n_joints  # per child: its best peak per parent peak
    for j in reversed(skeleton.bfs_joints):
        score = log_probs[j].copy()
        for link_idx, child in skeleton.children_links[j]:
            combined = link_matrices[link_idx] + subtree[child][:, None, :]
            best = combined.argmax(axis=2)  # first max = lowest peak index
            # Integer-array gather of the argmax entries (take_along_axis costs
            # more in argument checks than in the gather on small batches).
            score += combined[rows[:, None], np.arange(best.shape[1]), best]
            choice[child] = best
        if j == skeleton.root:
            score += root_vector
        subtree[j] = score

    chosen: list = [None] * skeleton.n_joints  # per joint: each sample's chosen peak
    chosen[skeleton.root] = subtree[skeleton.root].argmax(axis=1)
    for j in skeleton.bfs_joints:
        for _, child in skeleton.children_links[j]:
            chosen[child] = choice[child][rows, chosen[j]]
    return np.stack(chosen, axis=1)


def _refine(peak_sets, params: PoseModelParams):
    """Stack, term table and tree DP of a batch: the padded locations and log
    peak probabilities, the root vector and link matrices, and the chosen
    peak indices ``(B, J)``."""
    locs, _, log_probs = _stack(peak_sets, params)
    root_vector, link_matrices = _terms(locs, params)
    indices = _max_sum(log_probs, root_vector, link_matrices, params.skeleton)
    return locs, log_probs, root_vector, link_matrices, indices


def _finish(
    params: PoseModelParams,
    locs: list[np.ndarray],
    log_probs: list[np.ndarray],
    root_vector: np.ndarray,
    link_matrices: list[np.ndarray],
    indices: list[int],
) -> RefinedPose:
    """Gather one selection's entries from the batch-of-one arrays the search
    maximized.

    ``objective`` adds them in the canonical order: joint log peak
    probabilities, root prior, then links in declaration order. The tree
    DP, the exhaustive scorer and :func:`refinement_objective` all finish
    here, so they report bit-identical values for the same selection.
    """
    skel = params.skeleton
    root_term = float(root_vector[0, indices[skel.root]])
    link_terms = tuple(
        float(m[0, indices[parent], indices[child]])
        for m, (parent, child) in zip(link_matrices, skel.links)
    )
    joint_terms = [float(logs[0, i]) for logs, i in zip(log_probs, indices)]
    objective = 0.0
    for term in (*joint_terms, root_term, *link_terms):
        objective += term
    return RefinedPose(
        pose=Pose.of([joint_locs[0, i] for joint_locs, i in zip(locs, indices)]),
        log_likelihood=root_term + sum(link_terms),
        chosen_peak_index=tuple(int(i) for i in indices),
        objective=objective,
        per_link_terms=link_terms,
        root_term=root_term,
    )


def refinement_objective(
    peaks: PeakSet, params: PoseModelParams, indices: tuple[int, ...] | list[int]
) -> float:
    """Score of one peak selection: log peak probabilities + root and link
    densities, exactly as :func:`refine_pose` reports it for that selection."""
    locs, _, log_probs = _stack([peaks], params)
    skel = params.skeleton
    if len(indices) != skel.n_joints:
        raise DimensionMismatch(
            f"selection has {len(indices)} peak indices, skeleton has {skel.n_joints} joints"
        )
    for name, index, joint_locs in zip(skel.joints, indices, locs):
        count = joint_locs.shape[1]
        if not isinstance(index, (int, np.integer)) or not 0 <= index < count:
            raise SchemaError(
                f"peak index {index!r} for joint {name!r} must be an integer in 0..{count - 1}"
            )
    terms = _terms(locs, params)
    return _finish(params, locs, log_probs, *terms, list(indices)).objective


def refine_pose(peaks: PeakSet, params: PoseModelParams) -> RefinedPose:
    """The maximizing peak selection of one sample: the tree DP on a batch of one."""
    *arrays, indices = _refine([peaks], params)
    return _finish(params, *arrays, indices[0].tolist())


def refined_log_likelihoods(peak_sets, params: PoseModelParams) -> list[float]:
    """``refine_pose(peaks, params).log_likelihood`` of each peak set, from one
    batched tree DP over the padded stack of all of them."""
    if not peak_sets:
        return []
    _, _, root_vector, link_matrices, indices = _refine(peak_sets, params)
    skel = params.skeleton
    rows = np.arange(len(indices))
    link_terms = [
        m[rows, indices[:, parent], indices[:, child]]
        for m, (parent, child) in zip(link_matrices, skel.links)
    ]
    return (root_vector[rows, indices[:, skel.root]] + sum(link_terms)).tolist()


def brute_force_best_pose(peaks: PeakSet, params: PoseModelParams) -> RefinedPose:
    """Exhaustively score every peak configuration; test oracle for refine_pose.

    Enumerates the full product space with one score per configuration and
    takes the first maximum in breadth-first joint order, matching the
    refinement tie-break. Guarded to :data:`BRUTE_FORCE_GUARD`
    configurations.
    """
    locs, _, log_probs = _stack([peaks], params)
    skel = params.skeleton
    counts = [joint_locs.shape[1] for joint_locs in locs]
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

    root_vector, link_matrices = _terms(locs, params)
    total = np.zeros(shape)
    for j in order:
        total = total + along(log_probs[j][0], axis_of[j])
    total = total + along(root_vector[0], axis_of[skel.root])
    for m, (parent, child) in zip(link_matrices, skel.links):
        a, b = axis_of[parent], axis_of[child]
        total = total + (along(m[0], a, b) if a < b else along(m[0].T, b, a))

    flat = int(np.argmax(total))  # first max in C order = BFS-lexicographic min
    per_axis = np.unravel_index(flat, shape)
    indices = [0] * skel.n_joints
    for a, j in enumerate(order):
        indices[j] = int(per_axis[a])
    return _finish(params, locs, log_probs, root_vector, link_matrices, indices)
