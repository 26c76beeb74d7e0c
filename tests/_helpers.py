"""Shared builders and independent oracles for the test suite.

The oracle functions recompute every quantity from first principles
(plain loops, closed-form matrix algebra), deliberately avoiding the
library's vectorized code paths, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
import struct
from collections import deque

import numpy as np

from poselik import (
    STRATEGIES,
    BadMagic,
    ConfigInvalid,
    DistanceParams,
    GeneratorParams,
    Heatmap,
    OffsetParams,
    PeakSet,
    Pose,
    PoseModelParams,
    SimulationConfig,
    Skeleton,
    TruncatedPayload,
    VersionUnsupported,
    validate_skeleton,
)
from poselik.model import is_number

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


def batch_of(peak_sets, joint_count: int | None = None) -> PeakSet:
    """One batch of the samples of one-sample peak sets, in order, built row
    by row from their arrays; ``joint_count`` is needed for no peak sets."""
    rows, counts = [], []
    for peaks in peak_sets:
        rows += zip(peaks.locs.tolist(), peaks.scores.tolist(), peaks.probs.tolist())
        counts += np.diff(peaks.offsets).tolist()
    return PeakSet(
        locs=np.array([loc for loc, _, _ in rows], dtype=np.int64).reshape(-1, 2),
        scores=np.array([score for _, score, _ in rows], dtype=np.float64),
        probs=np.array([prob for _, _, prob in rows], dtype=np.float64),
        offsets=np.cumsum([0] + counts),
        joint_count=peak_sets[0].joint_count if joint_count is None else joint_count,
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


def render_reference(coords, height: int, width: int, peak_sigma: float, distractors):
    """float32 grids of one out-of-place Gaussian bump per joint and per
    (joint, (row, col), amplitude) distractor, summed then clipped to [0, 1]."""
    rows = np.arange(height, dtype=np.float64)[:, None]
    cols = np.arange(width, dtype=np.float64)[None, :]
    inv = 1.0 / (2.0 * peak_sigma * peak_sigma)

    def bump(row, col):
        return np.exp(-((rows - row) ** 2 + (cols - col) ** 2) * inv)

    maps = np.zeros((len(coords), height, width), dtype=np.float64)
    for j, (row, col) in enumerate(coords):
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


# --- PSHM files ------------------------------------------------------------------

PSHM_HEADER = struct.Struct("<4sIIII")  # magic, version, joints, height, width


def pshm_bytes(values, magic: bytes = b"PSHM", version: int = 1) -> bytes:
    """A PSHM file holding ``values`` (float32 little-endian, finite or not)."""
    values = np.asarray(values, dtype="<f4")
    return PSHM_HEADER.pack(magic, version, *values.shape) + values.tobytes()


UNDERFLOW_SKELETON_DOC = {"joints": ["a", "b"], "root": 0, "links": [[0, 1]]}
UNDERFLOW_TOTAL = 734.9893638245646  # -0.5 * log det - log(2 pi): a zero residual


def underflow_case() -> tuple[np.ndarray, PoseModelParams]:
    """Grids ``(2, 16, 16)`` and an a -> b offset model on which joint b's
    second peak has probability ``exp(-1e38) = 0`` and a ``-inf`` link
    density: its residual of (8, 3) is whitened by a 1e-160 deviation. The
    first peak sits at the offset exactly, and scores :data:`UNDERFLOW_TOTAL`."""
    values = np.zeros((2, 16, 16), dtype=np.float32)
    values[0, 4, 4], values[1, 4, 9], values[1, 12, 12] = 1.0, 3e38, 2e38
    model = PoseModelParams(
        skeleton=validate_skeleton(UNDERFLOW_SKELETON_DOC),
        link_params=(OffsetParams([0.0, 5.0], [[1e-320, 0.0], [0.0, 1e-320]]),),
        model_kind="offset",
    )
    return values, model


def sum_overflow_law() -> OffsetParams:
    """An offset law of offset (0, 0) and covariance ``5.6e-308 * I``: it scores
    a displacement of 3 cells -8.04e307, a finite term, of which three add past
    the float range."""
    return OffsetParams([0.0, 0.0], [[5.6e-308, 0.0], [0.0, 5.6e-308]])


# A pose whose links, each 1.3e154 long, score -8.45e307 under DistanceParams(0, 1).
SUM_OVERFLOW_POSE = [[0.0, 0.0], [0.0, 1.3e154], [0.0, 2.6e154], [0.0, 3.9e154]]


def far_offset_law() -> OffsetParams:
    """An offset law of offset (1e300, 0) and first deviation 1e-10: it
    whitens a residual on a grid past the float range, a ``-inf`` density."""
    return OffsetParams([1e300, 0.0], [[1e-20, 0.0], [0.0, 1.0]])


def reference_read_heatmap_file(path) -> Heatmap:
    """The PSHM reader as it was before it read into a caller's buffer: the
    whole file into bytes, then a checked :class:`Heatmap` of a view of them."""
    with open(path, "rb") as fh:
        header = fh.read(PSHM_HEADER.size)
        payload = fh.read()
    if len(header) < PSHM_HEADER.size or header[:4] != b"PSHM":
        raise BadMagic(f"{path}: not a PSHM heatmap file")
    _, version, n, h, w = PSHM_HEADER.unpack(header)
    if version != 1:
        raise VersionUnsupported(f"{path}: version {version} unsupported (expected 1)")
    expected = n * h * w * 4
    if len(payload) != expected:
        raise TruncatedPayload(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}"
        )
    values = np.frombuffer(payload, dtype="<f4").reshape(n, h, w)
    return Heatmap(values=values)


# --- the pool generator that drew one value at a time ----------------------------
# build_pool's pose and distractor samplers as they were before it drew in
# blocks, kept as the oracle: the block draws must give the same poses and
# distractors, leave both generators in the same state, and raise the same
# ConfigInvalid.

ORACLE_ATTEMPTS = 1000


def reference_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` without its argument checks: numpy computes
    ``lo + (hi - lo) * u`` from one ``rng.random()`` draw, so the bits and
    the stream are the same."""
    return lo + (hi - lo) * rng.random()


def reference_sample_pose(rng: np.random.Generator, gen: GeneratorParams, cfg) -> Pose:
    """One chain pose with integer grid coordinates, rejection-sampled in-bounds."""
    h, w = cfg.height, cfg.width
    for _ in range(ORACLE_ATTEMPTS):
        # The chain walks on Python floats, which add like float64 rows.
        row = reference_uniform(rng, 0.35 * h, 0.65 * h)
        col = reference_uniform(rng, 0.35 * w, 0.65 * w)
        coords = [(row, col)]
        for i in range(cfg.joints - 1):
            length = rng.normal(gen.link_means[i], gen.link_sds[i])
            angle = reference_uniform(rng, *gen.angle_ranges[i])
            row, col = row + length * math.sin(angle), col + length * math.cos(angle)
            coords.append((row, col))
        if not all(math.isfinite(row) and math.isfinite(col) for row, col in coords):
            continue  # round() takes finite floats only
        cells = [(round(row), round(col)) for row, col in coords]  # halves to even, as np.rint
        if all(1 <= row <= h - 2 and 1 <= col <= w - 2 for row, col in cells):
            return Pose(cells)
    raise ConfigInvalid(
        f"generator failed to place a pose inside the {h}x{w} grid after "
        f"{ORACLE_ATTEMPTS} attempts; link lengths are too large for the grid"
    )


def reference_draw_distractors(rng: np.random.Generator, pose: Pose, cfg) -> list:
    """One pose's configured distractor bumps, as ``bump_peak_sets`` takes them."""
    distractors = []
    min_sep = 3.0 * cfg.peak_sigma + 1.0
    for _ in range(cfg.distractor_count):
        joint = int(rng.integers(cfg.joints))
        true_cell = pose.coordinates[joint]
        for _ in range(ORACLE_ATTEMPTS):
            loc = (
                float(rng.integers(1, cfg.height - 1)),
                float(rng.integers(1, cfg.width - 1)),
            )
            if max(abs(loc[0] - true_cell[0]), abs(loc[1] - true_cell[1])) >= min_sep:
                break
        else:
            raise ConfigInvalid(
                f"no cell of the {cfg.height}x{cfg.width} grid is {min_sep:g} cells from joint "
                f"{joint} after {ORACLE_ATTEMPTS} draws; peak_sigma is too large for the grid"
            )
        distractors.append((joint, loc, cfg.distractor_amplitude))
    return distractors


# --- the simulate config parser before its keys were declared once --------------
# SimulationConfig.from_dict and to_json_dict as they were when every key of
# the config layout was written out by hand, with their helpers, kept as a
# reference: for any document the declared parser must raise what this one
# raises, or give an equal config and an equal JSON dict.

def reference_config_from_dict(doc: dict) -> SimulationConfig:
    cls = SimulationConfig
    top = _take_keys(
        doc,
        required=("seed", "rounds", "budget", "pool", "skeleton",
                  "generator", "ood_generator", "heatmap"),
        optional=("ranking_mode", "initial_random_fraction", "strategies"),
        where="config",
    )
    pool = _take_keys(
        top["pool"],
        required=("labeled", "unlabeled", "ood", "heldout"),
        optional=(),
        where="config.pool",
    )
    skeleton = _take_keys(
        top["skeleton"], required=("joints",), optional=(), where="config.skeleton"
    )
    heatmap = _take_keys(
        top["heatmap"],
        required=("height", "width", "peak_sigma"),
        optional=("distractors", "distractor_amplitude"),
        where="config.heatmap",
    )
    joints = _as_int(skeleton["joints"], "config.skeleton.joints", minimum=2)
    generator = _parse_generator(top["generator"], joints, "config.generator")
    ood_generator = _parse_generator(top["ood_generator"], joints, "config.ood_generator")
    if generator == ood_generator:
        raise ConfigInvalid(
            "config.ood_generator must differ from config.generator in at "
            "least one field"
        )
    strategies = top.get("strategies", list(STRATEGIES))
    if not isinstance(strategies, list) or not all(isinstance(s, str) for s in strategies):
        raise ConfigInvalid(f"config.strategies must be a list of names, got {strategies!r}")
    strategies = tuple(strategies)
    if not strategies:
        raise ConfigInvalid("config.strategies must not be empty")
    if len(set(strategies)) != len(strategies):
        raise ConfigInvalid("config.strategies contains duplicates")
    for name in strategies:
        if name not in STRATEGIES:
            raise ConfigInvalid(
                f"config.strategies: unknown strategy {name!r}; "
                f"expected a subset of {list(STRATEGIES)}"
            )
    ranking_mode = top.get("ranking_mode", "expected")
    if ranking_mode not in ("expected", "max"):
        raise ConfigInvalid(
            f"config.ranking_mode must be 'expected' or 'max', got {ranking_mode!r}"
        )
    fraction = _as_float(
        top.get("initial_random_fraction", 0.0), "config.initial_random_fraction"
    )
    if not 0.0 <= fraction <= 1.0:
        raise ConfigInvalid(
            f"config.initial_random_fraction must be in [0, 1], got {fraction}"
        )
    cfg = cls(
        seed=_as_int(top["seed"], "config.seed", minimum=0),
        rounds=_as_int(top["rounds"], "config.rounds", minimum=1),
        budget=_as_int(top["budget"], "config.budget", minimum=1),
        joints=joints,
        labeled_size=_as_int(pool["labeled"], "config.pool.labeled", minimum=2),
        unlabeled_size=_as_int(pool["unlabeled"], "config.pool.unlabeled", minimum=1),
        ood_count=_as_int(pool["ood"], "config.pool.ood", minimum=0),
        heldout_size=_as_int(pool["heldout"], "config.pool.heldout", minimum=1),
        generator=generator,
        ood_generator=ood_generator,
        height=_as_int(heatmap["height"], "config.heatmap.height", minimum=8, maximum=2**29),
        width=_as_int(heatmap["width"], "config.heatmap.width", minimum=8, maximum=2**29),
        peak_sigma=_as_peak_sigma(heatmap["peak_sigma"], "config.heatmap.peak_sigma"),
        distractor_count=_as_int(
            heatmap.get("distractors", 0), "config.heatmap.distractors", minimum=0
        ),
        distractor_amplitude=_as_float(
            heatmap.get("distractor_amplitude", 0.6),
            "config.heatmap.distractor_amplitude",
            positive=True,
        ),
        ranking_mode=ranking_mode,
        initial_random_fraction=fraction,
        strategies=strategies,
    )
    if cfg.ood_count > cfg.unlabeled_size:
        raise ConfigInvalid(
            f"config.pool.ood ({cfg.ood_count}) exceeds config.pool.unlabeled "
            f"({cfg.unlabeled_size})"
        )
    if cfg.rounds * cfg.budget > cfg.unlabeled_size:
        raise ConfigInvalid(
            f"rounds x budget ({cfg.rounds} x {cfg.budget}) exceeds the "
            f"unlabeled pool size ({cfg.unlabeled_size})"
        )
    if cfg.distractor_amplitude > 1.0:
        raise ConfigInvalid(
            f"config.heatmap.distractor_amplitude must be <= 1, "
            f"got {cfg.distractor_amplitude}"
        )
    return cfg


def reference_config_to_json_dict(self: SimulationConfig) -> dict:
    return {
        "seed": self.seed,
        "rounds": self.rounds,
        "budget": self.budget,
        "pool": {
            "labeled": self.labeled_size,
            "unlabeled": self.unlabeled_size,
            "ood": self.ood_count,
            "heldout": self.heldout_size,
        },
        "skeleton": {"joints": self.joints},
        "generator": _reference_generator_to_json_dict(self.generator),
        "ood_generator": _reference_generator_to_json_dict(self.ood_generator),
        "heatmap": {
            "height": self.height,
            "width": self.width,
            "peak_sigma": self.peak_sigma,
            "distractors": self.distractor_count,
            "distractor_amplitude": self.distractor_amplitude,
        },
        "ranking_mode": self.ranking_mode,
        "initial_random_fraction": self.initial_random_fraction,
        "strategies": list(self.strategies),
    }


def _reference_generator_to_json_dict(self: GeneratorParams) -> dict:
    return {
        "link_means": list(self.link_means),
        "link_sds": list(self.link_sds),
        "angle_ranges": [list(r) for r in self.angle_ranges],
    }


def _take_keys(doc, required, optional, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise ConfigInvalid(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ConfigInvalid(f"{where}: missing keys {missing}")
    return doc


def _as_int(value, where: str, minimum: int, maximum: float = math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(f"{where} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigInvalid(f"{where} must be >= {minimum}, got {value}")
    if value > maximum:
        raise ConfigInvalid(f"{where} must be <= {maximum}, got {value}")
    return value

def _as_float(value, where: str, positive: bool = False) -> float:
    if not is_number(value):
        raise ConfigInvalid(f"{where} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise ConfigInvalid(f"{where} must be finite, got {value}")
    if positive and value <= 0.0:
        raise ConfigInvalid(f"{where} must be > 0, got {value}")
    return value


def _as_peak_sigma(value, where: str) -> float:
    sigma = _as_float(value, where, positive=True)
    square = 2.0 * sigma * sigma
    if square == 0.0 or math.isinf(1.0 / square):
        raise ConfigInvalid(f"{where} is too small: 1 / (2 * peak_sigma**2) overflows, got {sigma}")
    return sigma


def _parse_generator(doc, joints: int, where: str) -> GeneratorParams:
    fields = _take_keys(
        doc, required=("link_means", "link_sds", "angle_ranges"), optional=(), where=where
    )
    n_links = joints - 1
    means = _float_list(fields["link_means"], n_links, f"{where}.link_means")
    sds = _float_list(fields["link_sds"], n_links, f"{where}.link_sds")
    for i, (mean, sd) in enumerate(zip(means, sds)):
        if mean <= 0.0:
            raise ConfigInvalid(f"{where}.link_means[{i}] must be > 0, got {mean}")
        if sd <= 0.0:
            raise ConfigInvalid(f"{where}.link_sds[{i}] must be > 0, got {sd}")
    ranges = fields["angle_ranges"]
    if not isinstance(ranges, list) or len(ranges) != n_links:
        raise ConfigInvalid(f"{where}.angle_ranges must be a list of {n_links} [lo, hi] pairs")
    parsed_ranges = []
    for i, pair in enumerate(ranges):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigInvalid(f"{where}.angle_ranges[{i}] must be a [lo, hi] pair")
        lo = _as_float(pair[0], f"{where}.angle_ranges[{i}][0]")
        hi = _as_float(pair[1], f"{where}.angle_ranges[{i}][1]")
        if lo > hi:
            raise ConfigInvalid(f"{where}.angle_ranges[{i}]: lo {lo} > hi {hi}")
        parsed_ranges.append((lo, hi))
    return GeneratorParams(
        link_means=tuple(means), link_sds=tuple(sds), angle_ranges=tuple(parsed_ranges)
    )


def _float_list(value, expected_len: int, where: str) -> list[float]:
    if not isinstance(value, list) or len(value) != expected_len:
        raise ConfigInvalid(f"{where} must be a list of {expected_len} numbers")
    return [_as_float(item, f"{where}[{i}]") for i, item in enumerate(value)]
