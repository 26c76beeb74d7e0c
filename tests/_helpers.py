"""Shared builders and independent oracles for the test suite.

The oracle functions recompute every quantity from first principles
(plain loops, closed-form matrix algebra), deliberately avoiding the
library's vectorized code paths, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from poselik import (
    DistanceParams,
    OffsetParams,
    PeakSet,
    PoseModelParams,
    Skeleton,
    validate_skeleton,
)

LOG_2PI = math.log(2.0 * math.pi)


# --- random instance builders ---------------------------------------------------

def random_tree_skeleton(rng: np.random.Generator, n_joints: int, dimension: int = 2) -> Skeleton:
    """Random tree shape with randomly permuted joint indices."""
    perm = rng.permutation(n_joints)
    links = []
    for child in range(1, n_joints):
        parent = int(rng.integers(0, child))
        links.append([int(perm[parent]), int(perm[child])])
    return validate_skeleton(
        {
            "joints": [f"j{i}" for i in range(n_joints)],
            "root": int(perm[0]),
            "dimension": dimension,
            "links": links,
        }
    )


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = np.exp(scores - scores.max())
    return shifted / shifted.sum()


def peakset_of(joints) -> PeakSet:
    """CSR PeakSet from per-joint lists of (loc, score, prob) triples."""
    rows = [row for joint in joints for row in joint]
    return PeakSet(
        locs=np.array([loc for loc, _, _ in rows], dtype=np.int64).reshape(-1, 2),
        scores=np.array([score for _, score, _ in rows], dtype=np.float64),
        probs=np.array([prob for _, _, prob in rows], dtype=np.float64),
        offsets=np.cumsum([0] + [len(joint) for joint in joints]),
    )


def joint_peaks(peaks: PeakSet, joint: int) -> list[tuple[tuple[int, int], float]]:
    """(loc, prob) pairs of one joint, read row by row from the arrays."""
    a, b = int(peaks.offsets[joint]), int(peaks.offsets[joint + 1])
    return [
        ((int(peaks.locs[i, 0]), int(peaks.locs[i, 1])), float(peaks.probs[i]))
        for i in range(a, b)
    ]


def assert_same_peaks(a: PeakSet, b: PeakSet) -> None:
    """All four arrays of two peak sets hold the same dtype, shape and bytes."""
    for name in ("locs", "scores", "probs", "offsets"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


def random_peakset(
    rng: np.random.Generator,
    n_joints: int,
    max_peaks: int = 5,
    grid: int = 64,
    counts: list[int] | None = None,
) -> PeakSet:
    """Random distinct peak locations with softmax-normalized probabilities."""
    per_joint = []
    for j in range(n_joints):
        k = counts[j] if counts is not None else int(rng.integers(1, max_peaks + 1))
        cells = rng.choice(grid * grid, size=k, replace=False)
        locs = [(int(c) // grid, int(c) % grid) for c in cells]
        scores = rng.uniform(0.05, 1.0, size=k)
        order = np.argsort(-scores, kind="stable")
        locs = [locs[i] for i in order]
        scores = scores[order]
        probs = _softmax(scores)
        per_joint.append([(locs[i], float(scores[i]), float(probs[i])) for i in range(k)])
    return peakset_of(per_joint)


def random_distance_model(
    rng: np.random.Generator, skeleton: Skeleton, root_prior: bool = False
) -> PoseModelParams:
    link_params = tuple(
        DistanceParams(float(rng.uniform(1.0, 12.0)), float(rng.uniform(0.5, 3.0)))
        for _ in skeleton.links
    )
    root_params = None
    if root_prior:
        root_params = DistanceParams(float(rng.uniform(5.0, 40.0)), float(rng.uniform(1.0, 8.0)))
    return PoseModelParams(
        skeleton=skeleton, link_params=link_params, model_kind="distance",
        root_params=root_params,
    )


def random_offset_model(rng: np.random.Generator, skeleton: Skeleton) -> PoseModelParams:
    d = skeleton.dimension
    link_params = []
    for _ in skeleton.links:
        a = rng.uniform(-1.0, 1.0, size=(d, d))
        cov = a @ a.T + 0.5 * np.eye(d)
        link_params.append(OffsetParams(offset=rng.uniform(-5.0, 5.0, size=d), covariance=cov))
    return PoseModelParams(
        skeleton=skeleton, link_params=tuple(link_params), model_kind="offset"
    )


# --- scalar density oracles -------------------------------------------------------

def oracle_distance_logpdf(parent, child, mean: float, sigma: float) -> float:
    dist = math.sqrt(sum((c - p) ** 2 for p, c in zip(parent, child)))
    z = (dist - mean) / sigma
    return -0.5 * z * z - math.log(sigma) - 0.5 * LOG_2PI


def _det_and_inverse(mat):
    """Closed-form determinant and inverse for 1x1, 2x2 or 3x3 matrices."""
    n = len(mat)
    if n == 1:
        det = mat[0][0]
        return det, [[1.0 / det]]
    if n == 2:
        (a, b), (c, d) = mat
        det = a * d - b * c
        return det, [[d / det, -b / det], [-c / det, a / det]]
    if n == 3:
        m = mat
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        cof = [
            [
                (m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
                 - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3])
                for j in range(3)
            ]
            for i in range(3)
        ]
        inv = [[cof[j][i] / det for j in range(3)] for i in range(3)]
        return det, inv
    raise ValueError(f"oracle only handles up to 3x3, got {n}x{n}")


def oracle_offset_logpdf(parent, child, offset, covariance) -> float:
    d = len(offset)
    residual = [child[i] - parent[i] - offset[i] for i in range(d)]
    cov = [[float(covariance[i][j]) for j in range(d)] for i in range(d)]
    det, inv = _det_and_inverse(cov)
    maha = sum(
        residual[i] * inv[i][j] * residual[j] for i in range(d) for j in range(d)
    )
    return -0.5 * maha - 0.5 * math.log(det) - 0.5 * d * LOG_2PI


def oracle_link_logpdf(parent, child, params) -> float:
    if isinstance(params, DistanceParams):
        return oracle_distance_logpdf(parent, child, params.mean_distance, params.sigma)
    return oracle_offset_logpdf(parent, child, params.offset, params.covariance)


def oracle_root_logpdf(loc, params) -> float:
    if params is None:
        return 0.0
    origin = [0.0] * len(loc)
    return oracle_link_logpdf(origin, loc, params)


# --- whole-pose oracles -------------------------------------------------------------

def oracle_point_ll(coords, model: PoseModelParams) -> float:
    skel = model.skeleton
    total = oracle_root_logpdf(coords[skel.root], model.root_params)
    for idx, (parent, child) in enumerate(skel.links):
        total += oracle_link_logpdf(coords[parent], coords[child], model.link_params[idx])
    return total


def oracle_expected_ll(peaks: PeakSet, model: PoseModelParams) -> float:
    """Pairwise-marginal expectation, plain quadruple loop."""
    skel = model.skeleton
    total = 0.0
    for loc, prob in joint_peaks(peaks, skel.root):
        total += prob * oracle_root_logpdf(loc, model.root_params)
    for idx, (parent, child) in enumerate(skel.links):
        for p_loc, p_prob in joint_peaks(peaks, parent):
            for c_loc, c_prob in joint_peaks(peaks, child):
                total += (
                    p_prob
                    * c_prob
                    * oracle_link_logpdf(p_loc, c_loc, model.link_params[idx])
                )
    return total


def oracle_expected_ll_by_enumeration(peaks: PeakSet, model: PoseModelParams) -> float:
    """Full-configuration expectation: sum over every joint assignment of
    the product of peak probabilities times the summed log terms."""
    skel = model.skeleton
    n = skel.n_joints
    per_joint = [joint_peaks(peaks, j) for j in range(n)]
    total = 0.0
    for combo in itertools.product(*[range(len(per_joint[j])) for j in range(n)]):
        weight = 1.0
        for j in range(n):
            weight *= per_joint[j][combo[j]][1]
        score = oracle_root_logpdf(per_joint[skel.root][combo[skel.root]][0], model.root_params)
        for idx, (parent, child) in enumerate(skel.links):
            score += oracle_link_logpdf(
                per_joint[parent][combo[parent]][0],
                per_joint[child][combo[child]][0],
                model.link_params[idx],
            )
        total += weight * score
    return total


def oracle_bfs_order(skeleton: Skeleton) -> list[int]:
    """Breadth-first joint order: root first, children in link order."""
    children = {j: [] for j in range(skeleton.n_joints)}
    for parent, child in skeleton.links:
        children[parent].append(child)
    order, queue = [], deque([skeleton.root])
    while queue:
        joint = queue.popleft()
        order.append(joint)
        queue.extend(children[joint])
    return order


def oracle_config_objective(peaks: PeakSet, model: PoseModelParams, indices) -> float:
    skel = model.skeleton
    chosen = [joint_peaks(peaks, j)[indices[j]] for j in range(skel.n_joints)]
    total = 0.0
    for j in range(skel.n_joints):
        total += math.log(chosen[j][1])
    total += oracle_root_logpdf(chosen[skel.root][0], model.root_params)
    for idx, (parent, child) in enumerate(skel.links):
        total += oracle_link_logpdf(chosen[parent][0], chosen[child][0], model.link_params[idx])
    return total


def oracle_best_config(peaks: PeakSet, model: PoseModelParams):
    """Exhaustive argmax; ties resolve to the first candidate in
    breadth-first-lexicographic order, matching the declared tie-break."""
    skel = model.skeleton
    bfs = oracle_bfs_order(skel)
    best_indices, best_score = None, -math.inf
    for combo in itertools.product(*[range(len(joint_peaks(peaks, j))) for j in bfs]):
        indices = [0] * skel.n_joints
        for pos, j in enumerate(bfs):
            indices[j] = combo[pos]
        score = oracle_config_objective(peaks, model, indices)
        if score > best_score:
            best_indices, best_score = tuple(indices), score
    return best_indices, best_score


def scan_strict_maxima(grid):
    """Independent exhaustive scan for strictly-greater 8-neighborhoods."""
    h, w = grid.shape
    out = []
    for r in range(h):
        for c in range(w):
            is_max = True
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and not grid[r, c] > grid[rr, cc]:
                        is_max = False
            if is_max:
                out.append((r, c))
    return out


def oracle_peaks(values, threshold_ratio: float, max_peaks: int):
    """(locs, scores, probs, offsets) of every joint, one joint at a time:
    strict maxima at or above the threshold plus the row-major-first global
    maximum, sorted by (-score, row, col), cut to ``max_peaks`` and
    softmax-normalized with one ``ndarray.sum`` per joint."""
    locs, scores, probs, offsets = [], [], [], [0]
    for grid32 in values:
        grid = grid32.astype(np.float64)
        top = max(np.ndindex(grid.shape), key=lambda rc: grid[rc])  # first maximum
        threshold = threshold_ratio * grid[top]
        cells = [rc for rc in scan_strict_maxima(grid) if grid[rc] >= threshold]
        if top not in cells:
            cells.append(top)
        cells = sorted(cells, key=lambda rc: (-grid[rc], rc))[:max_peaks]
        joint_scores = np.array([grid[rc] for rc in cells])
        shifted = np.exp(joint_scores - joint_scores.max())
        locs += [list(rc) for rc in cells]
        scores += joint_scores.tolist()
        probs += (shifted / shifted.sum()).tolist()
        offsets.append(offsets[-1] + len(cells))
    return locs, scores, probs, offsets


def eight_comparison_peaks(values, threshold_ratio: float, max_peaks: int) -> PeakSet:
    """Peak extraction as one full-grid pass: each cell compared with its 8
    neighbors over a ``-inf``-padded copy of the ``(J, H, W)`` grids, then
    threshold, global-maximum keep, sort, cut and a per-joint softmax with
    one ``ndarray.sum`` per joint. The library tests the threshold first
    and the neighbors of surviving cells only; both must give the same bytes."""
    n, h, w = values.shape
    padded = np.full((n, h + 2, w + 2), -np.inf, dtype=values.dtype)
    padded[:, 1:-1, 1:-1] = values
    strict = np.ones(values.shape, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:
                strict &= values > padded[:, 1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
    flat, strict = values.reshape(n, h * w), strict.reshape(n, h * w)
    every = np.arange(n)
    top = flat.argmax(axis=1)
    threshold = threshold_ratio * flat[every, top].astype(np.float64)
    strict[every, top] = True
    index = np.flatnonzero(strict)
    joint, cell = np.divmod(index, h * w)
    score = values.reshape(-1)[index].astype(np.float64)
    keep = (score >= threshold[joint]) | (cell == top[joint])
    joint, cell, score = joint[keep], cell[keep], score[keep]
    order = np.lexsort((cell, -score, joint))
    found = np.bincount(joint, minlength=n)
    rank = np.arange(len(order)) - np.repeat(np.cumsum(found) - found, found)
    order = order[rank < max_peaks]
    cell, score = cell[order], score[order]
    counts = np.minimum(found, max_peaks)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    shifted = np.exp(score - np.repeat(score[offsets[:-1]], counts))
    bounds = offsets.tolist()
    sums = np.array([shifted[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])])
    return PeakSet(
        locs=np.stack(np.divmod(cell, w), axis=1),
        scores=score,
        probs=shifted / np.repeat(sums, counts),
        offsets=offsets,
    )


def render_reference(coords, height: int, width: int, peak_sigma: float, distractors,
                     present=None):
    """float32 grids of one out-of-place Gaussian bump per present joint
    (all by default) and per (joint, (row, col), amplitude) distractor,
    summed then clipped to [0, 1]."""
    rows = np.arange(height, dtype=np.float64)[:, None]
    cols = np.arange(width, dtype=np.float64)[None, :]
    inv = 1.0 / (2.0 * peak_sigma * peak_sigma)

    def bump(row, col):
        return np.exp(-((rows - row) ** 2 + (cols - col) ** 2) * inv)

    maps = np.zeros((len(coords), height, width), dtype=np.float64)
    for j, (row, col) in enumerate(coords):
        if present is None or present[j]:
            maps[j] += bump(row, col)
    for joint, (row, col), amplitude in distractors:
        maps[joint] += amplitude * bump(row, col)
    return np.clip(maps, 0.0, 1.0).astype(np.float32)


def oracle_entropy(probs) -> float:
    return -sum(p * math.log(p) for p in probs if p > 0.0)


def oracle_peakset_entropy(peaks: PeakSet) -> float:
    return sum(
        oracle_entropy([prob for _, prob in joint_peaks(peaks, j)])
        for j in range(peaks.joint_count)
    )


def oracle_auc(id_scores, ood_scores) -> float:
    """Brute-force pair loop: P(ood < id) with half credit for ties."""
    wins = 0.0
    for ood in ood_scores:
        for sample in id_scores:
            if ood < sample:
                wins += 1.0
            elif ood == sample:
                wins += 0.5
    return wins / (len(id_scores) * len(ood_scores))


def oracle_weighted_mean_sd(values, weights):
    """Two-pass weighted mean and population standard deviation."""
    total_weight = sum(weights)
    mean = sum(w * v for v, w in zip(values, weights)) / total_weight
    var = sum(w * (v - mean) ** 2 for v, w in zip(values, weights)) / total_weight
    return mean, math.sqrt(var)
