"""Seeded active-learning simulation with planted out-of-distribution poses.

The harness generates chain-skeleton poses on a pixel grid, renders
their heatmaps (optionally with distractor bumps) and keeps only their
peaks, plants OOD poses drawn from a shifted generator, and then runs
each selection strategy on its own clone of the pool: fit link
parameters on the labeled set, score the unlabeled set, select the
bottom-budget samples, move them to the labeled set, and record
per-round detection metrics.

Everything downstream of the config is reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import LabeledPoseSet, fit_model
from .errors import ConfigInvalid
from .heatmaps import (
    bump_peak_sets,
    render_gaussian_heatmap,  # noqa: F401 -- unused here, but bench/tracing.py wraps it by module
)
from .likelihood import (
    point_log_likelihood,  # noqa: F401 -- unused here, but bench/tracing.py wraps it by module
    point_log_likelihoods,
)
from .model import Pose, Skeleton, is_number, validate_skeleton
from .selection import (
    _HIGHEST_FIRST,
    STRATEGIES,
    SamplePool,
    SelectionResult,
    ood_ranking_auc,
    score_pool,
    select_batch,
)

_MAX_POSE_ATTEMPTS = 1000
# Unlabeled samples whose peaks one bump_peak_sets call finds. Larger chunks
# share each call's fixed cost; at 32, simloop's peak RSS is within 0.1 MB of
# chunks of 8.
_CHUNK = 32


@dataclass(frozen=True)
class GeneratorParams:
    """Chain-pose generator: one (length, angle-range) law per link."""

    link_means: tuple[float, ...]
    link_sds: tuple[float, ...]
    angle_ranges: tuple[tuple[float, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "link_means": list(self.link_means),
            "link_sds": list(self.link_sds),
            "angle_ranges": [list(r) for r in self.angle_ranges],
        }


@dataclass(frozen=True)
class SimulationConfig:
    seed: int
    rounds: int
    budget: int
    joints: int
    labeled_size: int
    unlabeled_size: int
    ood_count: int
    heldout_size: int
    generator: GeneratorParams
    ood_generator: GeneratorParams
    height: int
    width: int
    peak_sigma: float
    distractor_count: int
    distractor_amplitude: float
    ranking_mode: str = "expected"
    initial_random_fraction: float = 0.0
    strategies: tuple[str, ...] = STRATEGIES

    @classmethod
    def from_dict(cls, doc: dict) -> "SimulationConfig":
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
            height=_as_int(heatmap["height"], "config.heatmap.height", minimum=8),
            width=_as_int(heatmap["width"], "config.heatmap.width", minimum=8),
            peak_sigma=_as_float(heatmap["peak_sigma"], "config.heatmap.peak_sigma", positive=True),
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

    def to_json_dict(self) -> dict:
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
            "generator": self.generator.to_json_dict(),
            "ood_generator": self.ood_generator.to_json_dict(),
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


def _as_int(value, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(f"{where} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigInvalid(f"{where} must be >= {minimum}, got {value}")
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


# --- pose and pool generation ---------------------------------------------------

def chain_skeleton(joints: int) -> Skeleton:
    return validate_skeleton(
        {
            "joints": [f"j{i}" for i in range(joints)],
            "root": 0,
            "links": [[i, i + 1] for i in range(joints - 1)],
            "dimension": 2,
        }
    )


def _sample_pose(rng: np.random.Generator, gen: GeneratorParams, cfg: SimulationConfig) -> Pose:
    """One chain pose with integer grid coordinates, rejection-sampled in-bounds."""
    h, w = cfg.height, cfg.width
    for _ in range(_MAX_POSE_ATTEMPTS):
        # The chain walks on Python floats, which add like float64 rows.
        row, col = rng.uniform(0.35 * h, 0.65 * h), rng.uniform(0.35 * w, 0.65 * w)
        coords = [(row, col)]
        for i in range(cfg.joints - 1):
            length = rng.normal(gen.link_means[i], gen.link_sds[i])
            angle = rng.uniform(*gen.angle_ranges[i])
            row, col = row + length * math.sin(angle), col + length * math.cos(angle)
            coords.append((row, col))
        if not all(math.isfinite(row) and math.isfinite(col) for row, col in coords):
            continue  # round() takes finite floats only
        cells = [(round(row), round(col)) for row, col in coords]  # halves to even, as np.rint
        if all(1 <= row <= h - 2 and 1 <= col <= w - 2 for row, col in cells):
            return Pose.of(cells)
    raise ConfigInvalid(
        f"generator failed to place a pose inside the {h}x{w} grid after "
        f"{_MAX_POSE_ATTEMPTS} attempts; link lengths are too large for the grid"
    )


def _draw_distractors(rng: np.random.Generator, pose: Pose, cfg: SimulationConfig) -> list:
    """One pose's configured distractor bumps, as ``bump_peak_sets`` takes them."""
    distractors = []
    min_sep = 3.0 * cfg.peak_sigma + 1.0
    for _ in range(cfg.distractor_count):
        joint = int(rng.integers(cfg.joints))
        true_cell = pose.coordinates[joint]
        for _ in range(_MAX_POSE_ATTEMPTS):
            loc = (
                float(rng.integers(1, cfg.height - 1)),
                float(rng.integers(1, cfg.width - 1)),
            )
            if max(abs(loc[0] - true_cell[0]), abs(loc[1] - true_cell[1])) >= min_sep:
                break
        else:
            raise ConfigInvalid(
                f"no cell of the {cfg.height}x{cfg.width} grid is {min_sep:g} cells from joint "
                f"{joint} after {_MAX_POSE_ATTEMPTS} draws; peak_sigma is too large for the grid"
            )
        distractors.append((joint, loc, cfg.distractor_amplitude))
    return distractors


def build_pool(cfg: SimulationConfig):
    """(pool, heldout poses, truth, is_ood) generated from the config seed.

    Each unlabeled sample keeps the peaks of the heatmap rendered from its
    pose and distractors. :func:`bump_peak_sets` finds them from the bumps
    of :data:`_CHUNK` samples at a time, without rendering a grid, and they
    are stored in id order. Only ``vl4pose`` and ``entropy`` read peaks:
    without them no distractor is drawn and no peak found, and every
    unlabeled sample is stored without peaks. The render generator is a
    stream of its own, so skipping it changes no pose. ``truth`` maps each
    unlabeled id to the pose its peaks come from, and ``is_ood`` flags the
    planted out-of-distribution ids; only the simulation reads them, never
    the selection strategies.
    """
    seq = np.random.SeedSequence(cfg.seed)
    pose_rng, render_rng = (np.random.default_rng(s) for s in seq.spawn(2))

    labeled = {
        f"lab-{i:04d}": _sample_pose(pose_rng, cfg.generator, cfg)
        for i in range(cfg.labeled_size)
    }
    heldout = {
        f"held-{i:04d}": _sample_pose(pose_rng, cfg.generator, cfg)
        for i in range(cfg.heldout_size)
    }
    pool = SamplePool(labeled=labeled, unlabeled={})
    truth, is_ood = {}, {}
    with_peaks = not {"vl4pose", "entropy"}.isdisjoint(cfg.strategies)
    pending = []  # (id, pose, distractors) of the chunk being drawn
    n_id = cfg.unlabeled_size - cfg.ood_count
    for i in range(cfg.unlabeled_size):
        ood = i >= n_id
        gen = cfg.ood_generator if ood else cfg.generator
        sample_id = f"unl-{i:04d}"
        pose = _sample_pose(pose_rng, gen, cfg)
        truth[sample_id] = pose
        is_ood[sample_id] = ood
        if not with_peaks:
            pool.add_unlabeled(sample_id, None)
            continue
        pending.append((sample_id, pose, _draw_distractors(render_rng, pose, cfg)))
        if len(pending) == _CHUNK or i == cfg.unlabeled_size - 1:
            ids, poses, distractors = zip(*pending)
            centres = np.stack([p.coordinates for p in poses])
            peak_sets = bump_peak_sets(
                centres, distractors, cfg.height, cfg.width, cfg.peak_sigma
            )
            for pending_id, peaks in zip(ids, peak_sets):
                pool.add_unlabeled(pending_id, peaks)
            pending.clear()
    return pool, heldout, truth, is_ood


# --- the simulation loop --------------------------------------------------------

@dataclass(frozen=True)
class SimulationReport:
    """JSON-ready report plus the flat per-selection log."""

    report: dict
    selections: list[dict]


def _fit_round_params(pool: SamplePool, skeleton: Skeleton):
    ordered = [pool.labeled[sample_id] for sample_id in sorted(pool.labeled)]
    data = LabeledPoseSet.of(skeleton, ordered)
    return fit_model(data, "distance")


def _split_scores(scores: dict[str, float], is_ood: dict[str, bool]):
    id_scores = [scores[s] for s in sorted(scores) if not is_ood.get(s, False)]
    ood_scores = [scores[s] for s in sorted(scores) if is_ood.get(s, False)]
    return id_scores, ood_scores


def _round_auc(scores: dict[str, float], is_ood: dict[str, bool], strategy: str):
    """Probability a random OOD sample is selected before a random ID sample."""
    id_scores, ood_scores = _split_scores(scores, is_ood)
    if not id_scores or not ood_scores:
        return None
    if strategy in _HIGHEST_FIRST:
        id_scores = [-s for s in id_scores]
        ood_scores = [-s for s in ood_scores]
    return ood_ranking_auc(id_scores, ood_scores)


def _select_round(
    cfg: SimulationConfig,
    scores: dict[str, float],
    strategy: str,
    random_scores: dict[str, float],
) -> SelectionResult:
    """Budgeted selection, with an optional random warm-up slice ranked by
    ``random_scores``."""
    n_random = int(round(cfg.initial_random_fraction * cfg.budget))
    if strategy == "random" or n_random == 0:
        return select_batch(scores, strategy, cfg.budget)
    warmup = select_batch(
        {sample_id: random_scores[sample_id] for sample_id in scores}, "random", n_random
    ).selected
    remaining = {s: v for s, v in scores.items() if s not in warmup}
    rest = select_batch(remaining, strategy, cfg.budget - n_random).selected
    return SelectionResult(strategy=strategy, selected=warmup + rest, scores=dict(scores))


def run_simulation(cfg: SimulationConfig) -> SimulationReport:
    """Run every configured strategy on clones of one generated pool.

    A sample's peaks never change, so the model-free ``entropy`` and
    ``random`` scores are computed once over the generated pool; each round
    reads those of the samples still unlabeled. Only ``vl4pose`` is scored
    again every round, under that round's fitted model.
    """
    skeleton = chain_skeleton(cfg.joints)
    base_pool, heldout, truth, is_ood = build_pool(cfg)
    heldout_poses = [heldout[h] for h in sorted(heldout)]
    fixed_scores = {  # random scores also rank every strategy's warm-up slice
        strategy: score_pool(base_pool, strategy, seed=cfg.seed)
        for strategy in ("entropy", "random")
        if strategy in cfg.strategies or strategy == "random"
    }

    metrics = {
        s: {"ood_recall": [], "ood_auc": [], "heldout_mean_ll": [], "labeled_count": []}
        for s in cfg.strategies
    }
    selected_ids = {s: [] for s in cfg.strategies}
    selections: list[dict] = []

    pools = {s: base_pool.clone() for s in cfg.strategies}
    for round_idx in range(cfg.rounds):
        for strategy in cfg.strategies:
            pool = pools[strategy]
            params = _fit_round_params(pool, skeleton)
            if strategy in fixed_scores:
                scores = {s: fixed_scores[strategy][s] for s in pool.unlabeled}
            else:
                scores = score_pool(pool, strategy, params, mode=cfg.ranking_mode)
            result = _select_round(cfg, scores, strategy, fixed_scores["random"])

            remaining_ood = sum(1 for s in pool.unlabeled if is_ood[s])
            hit = sum(1 for s in result.selected if is_ood[s])
            recall = hit / remaining_ood if remaining_ood else None
            auc = _round_auc(scores, is_ood, strategy)
            heldout_ll = sum(point_log_likelihoods(heldout_poses, params)) / len(heldout_poses)

            for sample_id in result.selected:
                selections.append(
                    {
                        "round": round_idx,
                        "strategy": strategy,
                        "id": sample_id,
                        "score": float(scores[sample_id]),
                    }
                )
                pool.move_to_labeled(sample_id, truth[sample_id])

            metrics[strategy]["ood_recall"].append(recall)
            metrics[strategy]["ood_auc"].append(auc)
            metrics[strategy]["heldout_mean_ll"].append(float(heldout_ll))
            metrics[strategy]["labeled_count"].append(len(pool.labeled))
            selected_ids[strategy].append(list(result.selected))

    report = {
        "config": cfg.to_json_dict(),
        "planted_ood": sorted(s for s, flag in is_ood.items() if flag),
        "metrics": metrics,
        "selected": selected_ids,
    }
    return SimulationReport(report=report, selections=selections)
