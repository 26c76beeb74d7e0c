"""Pose log-likelihood under the skeletal tree model.

Three evaluation modes share the same per-link Gaussian densities:

* point: score poses at fixed joint locations,
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

from .errors import DimensionMismatch, SchemaError, SearchSpaceTooLarge
from .heatmaps import PeakSet
from .model import DistanceParams, LinkParams, OffsetParams, Pose, PoseModelParams, Skeleton

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

    ``log_likelihood`` is the point log-likelihood of the chosen pose, bit
    for bit what :func:`point_log_likelihood` gives it: both read the same
    float64 geometry and add it in :func:`_total`. ``objective``
    additionally includes the per-joint log peak probabilities that drive
    the selection. Every term is an entry of the arrays the search
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
#
# A link density is two steps: ``_geometry`` takes what its family reads of a
# displacement, which no parameter changes, and ``_density`` evaluates the one
# formula of the family on it from the fitted parameters. Both are
# elementwise, so an entry does not depend on the shape of the batch it is
# computed in.

def _family(law: LinkParams) -> str:
    return "distance" if isinstance(law, DistanceParams) else "offset"


def _geometry(diff: np.ndarray, family: str) -> np.ndarray:
    """What a ``family`` density reads of float64 displacements ``diff``
    ``(..., D)``: their lengths ``(...)`` for ``distance``, the displacements
    themselves for ``offset``."""
    return np.sqrt((diff * diff).sum(axis=-1)) if family == "distance" else diff


def _density(geometry: np.ndarray, law: LinkParams) -> np.ndarray:
    """Log-densities of a :func:`_geometry` of ``law``'s family under
    ``law``: the one formula per link family."""
    if isinstance(law, DistanceParams):
        # -0.5 * z * z - log(sigma) - 0.5 * LOG_2PI, in that order, in two buffers.
        z = geometry - law.mean_distance
        z /= law.sigma
        density = -0.5 * z
        density *= z
        density -= math.log(law.sigma)
        density -= 0.5 * LOG_2PI
        return density
    # Forward substitution through the Cholesky factor, one coordinate at a
    # time (a multi-column LAPACK solve rounds by column position).
    residual = geometry - law.offset
    chol = law.cholesky
    whitened: list[np.ndarray] = []
    maha = 0.0
    for i in range(law.dimension):
        acc = residual[..., i]
        for k in range(i):
            acc = acc - chol[i, k] * whitened[k]
        whitened.append(acc / chol[i, i])
        maha = maha + whitened[i] * whitened[i]
    maha = np.fmin(maha, np.inf)  # NaN is 0 * inf or inf - inf: whitened past the float range
    return -0.5 * maha - 0.5 * law.log_det - 0.5 * law.dimension * LOG_2PI


def _link_geometry(locs: list[np.ndarray], skeleton: Skeleton, family: str) -> list[np.ndarray]:
    """Each link's :func:`_geometry`, in declaration order, over every
    parent/child pair of candidate locations ``locs[j]`` ``(B, K_j, D)``:
    ``(B, K_parent, K_child)`` entries."""
    with np.errstate(over="ignore"):  # a square past the float range is an infinite distance
        return [
            _geometry(locs[child][:, None, :, :] - locs[parent][:, :, None, :], family)
            for parent, child in skeleton.links
        ]


def _terms(root_locs: np.ndarray, geometry: list[np.ndarray], params: PoseModelParams):
    """Every density term of a batch of samples, which every scoring mode
    reads: the root prior ``(B, K_root)`` over root locations ``root_locs``
    ``(B, K_root, D)`` and, per link, the densities of its
    :func:`_link_geometry`. A root prior scores a location as a displacement
    from the origin; the uniform default scores zero.
    """
    prior = params.root_params
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: a -inf density
        root_vector = (
            np.zeros(root_locs.shape[:-1]) if prior is None
            else _density(_geometry(root_locs, _family(prior)), prior)
        )
        return root_vector, [_density(g, law) for g, law in zip(geometry, params.link_params)]


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
    with np.errstate(over="ignore", invalid="ignore"):  # as in _terms
        return float(_density(_geometry(child - parent, _family(params)), params))


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


def _point_terms(poses, params: PoseModelParams):
    """Root terms ``(B,)`` and per-link terms ``(B,)`` of poses."""
    for pose in poses:
        _check_pose(pose, params)
    locs = list(np.stack([pose.coordinates for pose in poses], axis=1)[:, :, None, :])  # (B, 1, D)
    skel = params.skeleton
    geometry = _link_geometry(locs, skel, params.model_kind)
    root_vector, link_matrices = _terms(locs[skel.root], geometry, params)
    return root_vector[:, 0], [m[:, 0, 0] for m in link_matrices]


def point_log_likelihoods(poses, params: PoseModelParams) -> list[LikelihoodReport]:
    """Log-likelihood of each pose, root prior + per-link terms, from one
    term evaluation over the stacked poses; each report is bit for bit what
    the pose gets alone."""
    return _reports(*_point_terms(poses, params), "point") if poses else []


def point_log_likelihood(pose: Pose, params: PoseModelParams) -> LikelihoodReport:
    """The log-likelihood of one pose: a batch of one for
    :func:`point_log_likelihoods`."""
    return point_log_likelihoods([pose], params)[0]


def _one(peaks: PeakSet) -> PeakSet:
    """``peaks``, if it holds one sample: what a one-sample scorer reads."""
    if len(peaks) != 1:
        raise SchemaError(f"expected the peaks of one sample, got a batch of {len(peaks)}")
    return peaks


@dataclass(frozen=True, eq=False)
class PeakStack:
    """A batch of peaks as the padded arrays that every peak likelihood
    reads, with each link's geometry over them: all that scoring under one
    skeleton and link family computes before it reads a fitted parameter.
    It holds no parameter, so it serves every model of that skeleton and
    family.

    Joint ``j`` gets probabilities ``probs[j]`` ``(B, K_j)`` padded with 0,
    ``K_j`` being the largest count of that joint in the batch, and the root
    its float64 locations ``root_locs`` ``(B, K_root, 2)`` padded with 0.
    Link ``l`` gets its :func:`_geometry` over every parent/child pair,
    ``(B, K_parent, K_child)``: the float64 lengths or displacements that
    point scoring computes, so a sample of one peak per joint scores what
    its pose scores. Padding follows each sample's peaks and never beats a real
    peak, so a first maximum is still the lowest real peak index and a
    sample scores the same bits in any batch. Like a real peak of
    probability 0, a padded one lies outside the peak distribution.
    """

    probs: list[np.ndarray]
    root_locs: np.ndarray
    links: list[np.ndarray]

    @classmethod
    def of(cls, peaks: PeakSet, skeleton: Skeleton, family: str) -> "PeakStack":
        """The stack of a batch, which must cover the skeleton's joints on a
        2-D grid; every peak is scattered once into ``(B, J, K)`` grids."""
        if peaks.joint_count != skeleton.n_joints:
            raise DimensionMismatch(
                f"peak set covers {peaks.joint_count} joints, skeleton has {skeleton.n_joints}"
            )
        if skeleton.dimension != 2:
            raise DimensionMismatch("peak-based scoring operates on 2D grid locations")
        counts = np.diff(peaks.offsets).reshape(len(peaks), skeleton.n_joints)
        widths = counts.max(axis=0, initial=1).tolist()  # 1 for an empty batch
        # The real cells of the grids, in C order, are the peaks in CSR order.
        real = np.arange(max(widths)) < counts[:, :, None]
        locs = np.zeros(real.shape + (2,))
        locs[real] = peaks.locs
        probs = np.zeros(real.shape)
        probs[real] = peaks.probs
        locs = [locs[:, j, :k] for j, k in enumerate(widths)]
        # Copies, so that the stack holds no view of the (B, J, K) grids.
        return cls(
            [probs[:, j, :k].copy() for j, k in enumerate(widths)],
            locs[skeleton.root].copy(), _link_geometry(locs, skeleton, family),
        )

    def log_probs(self) -> list[np.ndarray]:
        """Per joint, log peak probabilities padded with ``-inf``."""
        with np.errstate(divide="ignore"):  # log(0) -> -inf: such a peak is never chosen
            return [np.log(probs) for probs in self.probs]

    def terms(self, params: PoseModelParams):
        """:func:`_terms` of the batch under ``params``."""
        return _terms(self.root_locs, self.links, params)


def _expect(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_k weights[b, k] * values[b, ..., k]`` over the peaks ``k`` of
    positive weight of each sample ``b``, added one peak at a time in peak
    order, which does not depend on the batch. A peak of weight 0, padded or
    real, adds nothing: its ``0 * value``, NaN for a ``-inf`` density, is discarded."""
    # weights[..., k] against values[..., k]
    weights = weights.reshape((len(weights),) + (1,) * (values.ndim - 2) + weights.shape[1:])
    counted = weights > 0.0
    total = np.zeros(values.shape[:-1])
    np.multiply(values[..., 0], weights[..., 0], out=total, where=counted[..., 0])
    for k in range(1, weights.shape[-1]):
        np.add(total, values[..., k] * weights[..., k], out=total, where=counted[..., k])
    return total


def _total(root: np.ndarray, links: list[np.ndarray]) -> np.ndarray:
    """Each sample's log-likelihood ``(B,)`` from root terms ``(B,)`` and
    per-link terms ``(B,)``: ``sum`` adds the link columns to 0 in declaration
    order, then the root is added, one float64 add at a time on any Python.
    Finite terms that add past the float range give a ``-inf`` total."""
    with np.errstate(over="ignore"):
        return root + sum(links)


def _per_link(links: list[np.ndarray], samples: int) -> list[tuple[float, ...]]:
    """Per sample, its per-link terms from columns ``links`` ``(B,)``."""
    return list(map(tuple, np.reshape(links, (len(links), samples)).T.tolist()))


def _reports(root: np.ndarray, links: list[np.ndarray], mode: str) -> list[LikelihoodReport]:
    """One report per sample from root terms ``(B,)`` and per-link terms ``(B,)``."""
    per_link = _per_link(links, len(root))
    return [
        LikelihoodReport(total, terms, root_term, mode)
        for total, terms, root_term in zip(_total(root, links).tolist(), per_link, root.tolist())
    ]


def _expected_terms(stack: PeakStack, params: PoseModelParams):
    """Expected root terms ``(B,)`` and per-link terms ``(B,)`` of every
    sample of a stack."""
    root_vector, link_matrices = stack.terms(params)
    probs, skel = stack.probs, params.skeleton
    with np.errstate(invalid="ignore"):  # the 0 * -inf of a weight-0 peak, which _expect discards
        links = [
            _expect(_expect(m, probs[child]), probs[parent])
            for m, (parent, child) in zip(link_matrices, skel.links)
        ]
        return _expect(root_vector, probs[skel.root]), links


def _expected_totals(stack: PeakStack, params: PoseModelParams) -> np.ndarray:
    """The expected log-likelihood ``(B,)`` of every sample of a stack, added
    as a :class:`LikelihoodReport` adds its terms."""
    return _total(*_expected_terms(stack, params))


def expected_log_likelihoods(peaks: PeakSet, params: PoseModelParams) -> list[LikelihoodReport]:
    """Link terms averaged over each joint's peak distribution, for every
    sample of a batch from one stack.

    Each link term is the expectation of the link log-density under the
    product of the parent's and child's peak probabilities, summed over the
    child's peaks, then over the parent's; the root term averages the root
    prior the same way. With single-peak joints this reduces to the point
    log-likelihood of the argmax pose. Each sample's report is bit for bit
    what it gets alone.
    """
    stack = PeakStack.of(peaks, params.skeleton, params.model_kind)
    return _reports(*_expected_terms(stack, params), "expected")


def expected_log_likelihood(peaks: PeakSet, params: PoseModelParams) -> LikelihoodReport:
    """The expected log-likelihood of one sample: a batch of one for
    :func:`expected_log_likelihoods`."""
    return expected_log_likelihoods(_one(peaks), params)[0]


def multi_peak_entropy(peaks: PeakSet) -> float:
    """:func:`multi_peak_entropies` of the peaks of one sample."""
    return multi_peak_entropies(_one(peaks))[0]


def multi_peak_entropies(peaks: PeakSet) -> list[float]:
    """Sum over joints of the Shannon entropy (nats) of the peak probabilities
    of each sample of a batch, zero-probability peaks adding 0. Each joint
    subtracts ``p * math.log(p)`` from 0 peak by peak, and each sample adds
    its joints to 0 in order: a sample's entropy has the same bits in any batch.
    """
    counts = np.diff(peaks.offsets)
    probs = np.where(peaks.probs > 0.0, peaks.probs, 1.0)  # 1 adds 1 * log(1) = 0
    terms = probs * np.fromiter(map(math.log, probs), float, len(probs))  # np.log may differ
    joints = np.zeros(len(counts))
    for k in range(counts.max(initial=0)):  # each grid's k-th peak
        deep = np.flatnonzero(counts > k)
        joints[deep] -= terms[peaks.offsets[deep] + k]
    totals = np.zeros(len(peaks))
    for column in joints.reshape(len(peaks), peaks.joint_count).T:
        totals += column
    return totals.tolist()


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
    with np.errstate(over="ignore"):  # finite scores that add past the float range: -inf
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


def _chosen(root_vector, link_matrices, indices: np.ndarray, skeleton: Skeleton):
    """The root terms ``(B,)`` and per-link terms ``(B,)`` at peak selections
    ``indices`` ``(B, J)``, gathered from the arrays the search maximized."""
    rows = np.arange(len(indices))
    return root_vector[rows, indices[:, skeleton.root]], [
        m[rows, indices[:, parent], indices[:, child]]
        for m, (parent, child) in zip(link_matrices, skeleton.links)
    ]


def _refined(peaks: PeakSet, log_probs, root_vector, link_matrices, indices, skeleton):
    """A :class:`RefinedPose` per row of peak selections ``indices`` ``(B, J)``
    of the samples of ``peaks``, from their :func:`_chosen` entries.

    ``objective`` adds whole columns in the canonical order: joint log peak
    probabilities, root prior, then links in declaration order. The tree
    DP, the exhaustive scorer and :func:`refinement_objective` all finish
    here, so they report bit-identical values for the same selection.
    """
    root, links = _chosen(root_vector, link_matrices, indices, skeleton)
    rows = np.arange(len(indices))
    joints = [logs[rows, chosen] for logs, chosen in zip(log_probs, indices.T)]
    objective = np.zeros(len(indices))
    with np.errstate(over="ignore"):  # as in _total
        for terms in (*joints, root, *links):
            objective += terms
    poses = peaks.locs[peaks.offsets[:-1].reshape(-1, skeleton.n_joints) + indices]  # (B, J, 2)
    return [
        RefinedPose(Pose(pose), total, tuple(chosen), score, terms, root_term)
        for pose, total, chosen, score, terms, root_term in zip(
            poses, _total(root, links).tolist(), indices.tolist(), objective.tolist(),
            _per_link(links, len(indices)), root.tolist(),
        )
    ]


def refinement_objective(
    peaks: PeakSet, params: PoseModelParams, indices: tuple[int, ...] | list[int]
) -> float:
    """Score of one peak selection: log peak probabilities + root and link
    densities, exactly as :func:`refine_pose` reports it for that selection."""
    stack = PeakStack.of(_one(peaks), params.skeleton, params.model_kind)
    skel = params.skeleton
    if len(indices) != skel.n_joints:
        raise DimensionMismatch(
            f"selection has {len(indices)} peak indices, skeleton has {skel.n_joints} joints"
        )
    for name, index, count in zip(skel.joints, indices, peaks.counts()):
        integer = isinstance(index, (int, np.integer)) and not isinstance(index, bool)
        if not integer or not 0 <= index < count:
            raise SchemaError(
                f"peak index {index!r} for joint {name!r} must be an integer in 0..{count - 1}"
            )
    selection = np.array([indices])
    return _refined(peaks, stack.log_probs(), *stack.terms(params), selection, skel)[0].objective


def refine_poses(peaks: PeakSet, params: PoseModelParams) -> list[RefinedPose]:
    """The maximizing peak selection of each sample of a batch, from one
    batched tree DP; each is bit for bit what the sample gets alone."""
    stack = PeakStack.of(peaks, params.skeleton, params.model_kind)
    log_probs = stack.log_probs()
    root_vector, link_matrices = stack.terms(params)
    indices = _max_sum(log_probs, root_vector, link_matrices, params.skeleton)
    return _refined(peaks, log_probs, root_vector, link_matrices, indices, params.skeleton)


def refine_pose(peaks: PeakSet, params: PoseModelParams) -> RefinedPose:
    """The maximizing peak selection of one sample: a batch of one for
    :func:`refine_poses`."""
    return refine_poses(_one(peaks), params)[0]


def _refined_totals(stack: PeakStack, params: PoseModelParams) -> np.ndarray:
    """The refined log-likelihood ``(B,)`` of every sample of a stack, from
    one batched tree DP."""
    root_vector, link_matrices = stack.terms(params)
    indices = _max_sum(stack.log_probs(), root_vector, link_matrices, params.skeleton)
    return _total(*_chosen(root_vector, link_matrices, indices, params.skeleton))


def brute_force_best_pose(peaks: PeakSet, params: PoseModelParams) -> RefinedPose:
    """Exhaustively score every peak configuration; test oracle for refine_pose.

    Enumerates the full product space with one score per configuration and
    takes the first maximum in breadth-first joint order, matching the
    refinement tie-break. Guarded to :data:`BRUTE_FORCE_GUARD`
    configurations.
    """
    stack = PeakStack.of(_one(peaks), params.skeleton, params.model_kind)
    log_probs = stack.log_probs()
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

    root_vector, link_matrices = stack.terms(params)
    total = np.zeros(shape)
    with np.errstate(over="ignore"):  # as in _max_sum
        for j in order:
            total = total + along(log_probs[j][0], axis_of[j])
        total = total + along(root_vector[0], axis_of[skel.root])
        for m, (parent, child) in zip(link_matrices, skel.links):
            a, b = axis_of[parent], axis_of[child]
            total = total + (along(m[0], a, b) if a < b else along(m[0].T, b, a))

    flat = int(np.argmax(total))  # first max in C order = BFS-lexicographic min
    per_axis = np.unravel_index(flat, shape)
    indices = np.array([[per_axis[axis_of[j]] for j in range(skel.n_joints)]])
    return _refined(peaks, log_probs, root_vector, link_matrices, indices, skel)[0]
