"""Pose log-likelihood under the skeletal tree model.

Three evaluation modes share the same per-link Gaussian densities:

* point: score one pose,
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
    SchemaError,
    SearchSpaceTooLarge,
)
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
#
# A link density is two steps: ``_geometry`` takes what its family reads of a
# displacement, which no parameter changes, and ``_density`` evaluates the one
# formula of the family on it from the fitted parameters. Both are
# elementwise, so an entry does not depend on the shape of the batch it is
# computed in.

def _family(law: LinkParams) -> str:
    return "distance" if isinstance(law, DistanceParams) else "offset"


def _geometry(diff: np.ndarray, family: str) -> np.ndarray:
    """What a ``family`` density reads of displacements ``diff`` ``(..., D)``,
    in their dtype: their squared lengths ``(...)`` for ``distance``, the
    displacements themselves for ``offset``."""
    return (diff * diff).sum(axis=-1, dtype=diff.dtype) if family == "distance" else diff


def _density(geometry: np.ndarray, law: LinkParams) -> np.ndarray:
    """Log-densities of a :func:`_geometry` of ``law``'s family under
    ``law``: the one formula per link family."""
    if isinstance(law, DistanceParams):
        # -0.5 * z * z - log(sigma) - 0.5 * LOG_2PI, in that order, in two buffers.
        z = np.sqrt(geometry, dtype=np.float64)
        z -= law.mean_distance
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
    return -0.5 * maha - 0.5 * law.log_det - 0.5 * law.dimension * LOG_2PI


def _link_geometry(locs: list[np.ndarray], skeleton: Skeleton, family: str) -> list[np.ndarray]:
    """Each link's :func:`_geometry`, in declaration order, over every
    parent/child pair of candidate locations ``locs[j]`` ``(B, K_j, D)``:
    ``(B, K_parent, K_child)`` entries."""
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
    return float(_density(_geometry(child - parent, _family(params)), params))


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


def _point_terms(poses, params: PoseModelParams):
    """Root terms ``(B,)`` and per-link terms ``(B,)`` of poses."""
    for pose in poses:
        _check_pose(pose, params)
    locs = list(np.stack([pose.coordinates for pose in poses], axis=1)[:, :, None, :])  # (B, 1, D)
    skel = params.skeleton
    geometry = _link_geometry(locs, skel, params.model_kind)
    root_vector, link_matrices = _terms(locs[skel.root], geometry, params)
    return root_vector[:, 0], [m[:, 0, 0] for m in link_matrices]


def point_log_likelihood(pose: Pose, params: PoseModelParams) -> LikelihoodReport:
    """Log-likelihood of one pose: root prior + per-link terms."""
    return _reports(*_point_terms([pose], params), "point")[0]


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
    family, and only the samples a scorer is given are checked.

    Joint ``j`` gets probabilities ``probs[j]`` ``(B, K_j)`` padded with 0,
    ``K_j`` being the largest count of that joint in the batch, and the root
    its locations ``root_locs`` ``(B, K_root, 2)`` padded with 0. Link ``l``
    gets its :func:`_geometry` over every parent/child pair, ``(B, K_parent,
    K_child)``. Padding follows each sample's peaks and never beats a real
    peak, so a first maximum is still the lowest real peak index and a
    sample scores the same bits in any batch.
    """

    skeleton: Skeleton
    family: str
    counts: np.ndarray  # (B, J) peaks per joint
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
        locs = np.zeros(real.shape + (2,), dtype=_cell_type(peaks.locs))
        locs[real] = peaks.locs
        probs = np.zeros(real.shape)
        probs[real] = peaks.probs
        locs = [locs[:, j, :k] for j, k in enumerate(widths)]
        # Copies, so that the stack holds no view of the (B, J, K) grids.
        return cls(
            skeleton, family, counts, [probs[:, j, :k].copy() for j, k in enumerate(widths)],
            locs[skeleton.root].copy(), _link_geometry(locs, skeleton, family),
        )

    def log_probs(self) -> list[np.ndarray]:
        """Per joint, log peak probabilities padded with ``-inf``."""
        return [_log(probs) for probs in self.probs]

    def real(self) -> list[np.ndarray]:
        """Per joint, the mask ``(B, K_j)`` of the real peaks."""
        return [np.arange(p.shape[1]) < self.counts[:, j, None] for j, p in enumerate(self.probs)]

    def terms(self, params: PoseModelParams):
        """:func:`_terms` of the batch under ``params``."""
        return _terms(self.root_locs, self.links, params)

    def check(self, rows=slice(None)) -> None:
        """Raise what checking samples ``rows`` (all by default) one by one,
        in that order, would: the first with a joint with no peaks raises
        :class:`EmptyPeakSet`."""
        counts = self.counts[rows]
        if not counts.all():
            first = np.argmin(counts.min(axis=1))  # the first sample with an empty joint
            joint = self.skeleton.joints[np.argmin(counts[first])]
            raise EmptyPeakSet(f"joint {joint!r} has no candidate peaks")


def _cell_type(locs: np.ndarray) -> np.dtype:
    """The smallest signed integer type that holds every coordinate of grid
    cells ``locs``, their differences and any sum of two squares of those:
    the geometry is exact in it, and a pool's cached stack small."""
    lo, hi = (int(v) for v in (locs.min(initial=0), locs.max(initial=0)))
    bound = 2 * max(hi - lo, -lo, hi) ** 2
    return np.min_scalar_type(-bound - 1) if bound < 2**62 else np.dtype(np.int64)


def _stack(peaks: PeakSet, params: PoseModelParams) -> PeakStack:
    """``peaks`` stacked for the skeleton and link family of ``params``: the
    only place peaks meet the skeleton.

    The batch is checked at once, and raises what checking its samples one
    by one in batch order would: a wrong joint count, a skeleton that is not
    2-D, then a joint with no peaks.
    """
    stack = PeakStack.of(peaks, params.skeleton, params.model_kind)
    stack.check()
    return stack


def _expect(values: np.ndarray, weights: np.ndarray, real: np.ndarray) -> np.ndarray:
    """``sum_k weights[b, k] * values[b, ..., k]`` over the real peaks ``k`` of
    each sample ``b``, added one peak at a time in peak order.

    The order does not depend on the batch, and a padded peak adds nothing:
    not even ``0 * value``, which is NaN for a ``-inf`` density. Every joint
    has a real first peak.
    """
    shape = (-1,) + (1,) * (values.ndim - 2)  # weights[:, k] against values[..., k]
    total = values[..., 0] * weights[:, 0].reshape(shape)
    for k in range(1, weights.shape[1]):
        added = total + values[..., k] * weights[:, k].reshape(shape)
        total = np.where(real[:, k].reshape(shape), added, total)
    return total


def _reports(root: np.ndarray, links: list[np.ndarray], mode: str) -> list[LikelihoodReport]:
    """One report per sample from root terms ``(B,)`` and per-link terms ``(B,)``."""
    columns = [terms.tolist() for terms in links]
    reports = []
    for b, root_term in enumerate(root.tolist()):
        terms = tuple(column[b] for column in columns)
        reports.append(LikelihoodReport(
            total=root_term + sum(terms), per_link_terms=terms, root_term=root_term, mode=mode,
        ))
    return reports


def _expected_terms(stack: PeakStack, params: PoseModelParams):
    """Expected root terms ``(B,)`` and per-link terms ``(B,)`` of every
    sample of a stack."""
    probs, real = stack.probs, stack.real()
    root_vector, link_matrices = stack.terms(params)
    skel = params.skeleton
    links = [
        _expect(_expect(m, probs[child], real[child]), probs[parent], real[parent])
        for m, (parent, child) in zip(link_matrices, skel.links)
    ]
    return _expect(root_vector, probs[skel.root], real[skel.root]), links


def _expected_totals(stack: PeakStack, params: PoseModelParams) -> np.ndarray:
    """The expected log-likelihood ``(B,)`` of every sample of a stack, added
    as a :class:`LikelihoodReport` adds its terms."""
    root, links = _expected_terms(stack, params)
    return root + sum(links)


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
    return _reports(*_expected_terms(_stack(peaks, params), params), "expected")


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
    if not counts.all():
        raise EmptyPeakSet("each joint of a peak set needs a candidate peak")
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


def _finish(
    params: PoseModelParams,
    peaks: PeakSet,
    log_probs: list[np.ndarray],
    root_vector: np.ndarray,
    link_matrices: list[np.ndarray],
    indices: list[int],
    row: int,
) -> RefinedPose:
    """Gather one selection's entries from row ``row`` of the batch arrays the
    search maximized, and its pose from sample ``row`` of ``peaks``.

    ``objective`` adds them in the canonical order: joint log peak
    probabilities, root prior, then links in declaration order. The tree
    DP, the exhaustive scorer and :func:`refinement_objective` all finish
    here, so they report bit-identical values for the same selection.
    """
    skel = params.skeleton
    root_term = float(root_vector[row, indices[skel.root]])
    link_terms = tuple(
        float(m[row, indices[parent], indices[child]])
        for m, (parent, child) in zip(link_matrices, skel.links)
    )
    joint_terms = [float(logs[row, i]) for logs, i in zip(log_probs, indices)]
    objective = 0.0
    for term in (*joint_terms, root_term, *link_terms):
        objective += term
    return RefinedPose(
        pose=Pose(peaks.locs[peaks.offsets[row * skel.n_joints :][: skel.n_joints] + indices]),
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
    stack = _stack(_one(peaks), params)
    skel = params.skeleton
    if len(indices) != skel.n_joints:
        raise DimensionMismatch(
            f"selection has {len(indices)} peak indices, skeleton has {skel.n_joints} joints"
        )
    for name, index, count in zip(skel.joints, indices, stack.counts[0].tolist()):
        if not isinstance(index, (int, np.integer)) or not 0 <= index < count:
            raise SchemaError(
                f"peak index {index!r} for joint {name!r} must be an integer in 0..{count - 1}"
            )
    terms = stack.terms(params)
    return _finish(params, peaks, stack.log_probs(), *terms, list(indices), 0).objective


def refine_poses(peaks: PeakSet, params: PoseModelParams) -> list[RefinedPose]:
    """The maximizing peak selection of each sample of a batch, from one
    batched tree DP; each is bit for bit what the sample gets alone."""
    stack = _stack(peaks, params)
    log_probs = stack.log_probs()
    root_vector, link_matrices = stack.terms(params)
    indices = _max_sum(log_probs, root_vector, link_matrices, params.skeleton)
    return [
        _finish(params, peaks, log_probs, root_vector, link_matrices, chosen, b)
        for b, chosen in enumerate(indices.tolist())
    ]


def refine_pose(peaks: PeakSet, params: PoseModelParams) -> RefinedPose:
    """The maximizing peak selection of one sample: a batch of one for
    :func:`refine_poses`."""
    return refine_poses(_one(peaks), params)[0]


def _refined_totals(stack: PeakStack, params: PoseModelParams) -> np.ndarray:
    """The refined log-likelihood ``(B,)`` of every sample of a stack, from
    one batched tree DP."""
    root_vector, link_matrices = stack.terms(params)
    indices = _max_sum(stack.log_probs(), root_vector, link_matrices, params.skeleton)
    skel = params.skeleton
    rows = np.arange(len(indices))
    link_terms = [
        m[rows, indices[:, parent], indices[:, child]]
        for m, (parent, child) in zip(link_matrices, skel.links)
    ]
    return root_vector[rows, indices[:, skel.root]] + sum(link_terms)


def refined_log_likelihoods(peaks: PeakSet, params: PoseModelParams) -> list[float]:
    """``refine_pose(peaks, params).log_likelihood`` of each sample of a
    batch, from one batched tree DP over its stack."""
    return _refined_totals(_stack(peaks, params), params).tolist()


def brute_force_best_pose(peaks: PeakSet, params: PoseModelParams) -> RefinedPose:
    """Exhaustively score every peak configuration; test oracle for refine_pose.

    Enumerates the full product space with one score per configuration and
    takes the first maximum in breadth-first joint order, matching the
    refinement tie-break. Guarded to :data:`BRUTE_FORCE_GUARD`
    configurations.
    """
    stack = _stack(_one(peaks), params)
    log_probs = stack.log_probs()
    skel = params.skeleton
    counts = stack.counts[0].tolist()
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
    return _finish(params, peaks, log_probs, root_vector, link_matrices, indices, 0)
