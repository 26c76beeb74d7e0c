"""Seeded active-learning simulation with planted out-of-distribution poses.

The harness generates chain-skeleton poses on a pixel grid, finds the
peaks of their heatmaps (optionally with distractor bumps) from the bumps
without rendering a grid, plants OOD poses drawn from a shifted
generator, and then runs each selection strategy on its own clone of the
pool: fit link parameters on the labeled set, score the unlabeled set,
select the bottom-budget samples, move them to the labeled set, and
record per-round detection metrics.

Everything downstream of the config is reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from functools import reduce
from itertools import repeat
from operator import add

import numpy as np

from .calibration import LabeledPoseSet, fit_model
from .errors import ConfigInvalid
from .heatmaps import (
    _bump_inv,
    bump_peak_sets,
    render_gaussian_heatmap,  # noqa: F401 -- unused here, but bench/tracing.py wraps it by module
)
from .likelihood import (
    _point_terms,
    _total,
    point_log_likelihood,  # noqa: F401 -- unused here, but bench/tracing.py wraps it by module
)
from .model import Pose, Skeleton, Stages, clock, is_number, validate_skeleton
from .selection import (
    STRATEGIES,
    VL4POSE_MODES,
    SamplePool,
    ascending,
    id_ranks,
    lowest_first,
    ood_ranking_auc,
    score_pool,
    select_batch,  # noqa: F401 -- unused here, but bench/tracing.py wraps it by module
)

_MAX_POSE_ATTEMPTS = 1000
_DRAW_AHEAD = 256  # distractors drawn ahead of their separation checks

# The largest grid side a config may set: the pool's largest array, its bump
# table of (2 * height + 1) x (2 * width + 1) floats, then fails only to allocate.
_MAX_SIDE = 2**29


@dataclass(frozen=True)
class GeneratorParams:
    """Chain-pose generator: one (length, angle-range) law per link. The
    field names are the keys of its JSON object."""

    link_means: tuple[float, ...]
    link_sds: tuple[float, ...]
    angle_ranges: tuple[tuple[float, float], ...]


def _key(path: str, parse, default=MISSING):
    """A config field read from the JSON key at the dotted ``path`` by
    ``parse(value, where, get)``, where ``get(name)`` gives another field's
    parsed value. A key with a default may be left out."""
    return field(default=default, metadata={"path": path, "parse": parse})


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


def _int(minimum: int, maximum: float = math.inf):
    def parse(value, where, get) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigInvalid(f"{where} must be an integer, got {value!r}")
        if value < minimum:
            raise ConfigInvalid(f"{where} must be >= {minimum}, got {value}")
        if value > maximum:
            raise ConfigInvalid(f"{where} must be <= {maximum}, got {value}")
        return value

    return parse


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


def _positive(value, where, get) -> float:
    return _as_float(value, where, positive=True)


def _peak_sigma(value, where, get) -> float:
    sigma = _positive(value, where, get)
    if math.isinf(_bump_inv(sigma)):  # every bump's centre would score NaN
        raise ConfigInvalid(f"{where} is too small: 1 / (2 * peak_sigma**2) overflows, got {sigma}")
    return sigma


def _float_list(value, expected_len: int, where: str) -> list[float]:
    if not isinstance(value, list) or len(value) != expected_len:
        raise ConfigInvalid(f"{where} must be a list of {expected_len} numbers")
    return [_as_float(item, f"{where}[{i}]") for i, item in enumerate(value)]


def _generator(doc, where: str, get) -> GeneratorParams:
    doc = _take_keys(
        doc, required=[f.name for f in fields(GeneratorParams)], optional=(), where=where
    )
    n_links = get("joints") - 1
    means = _float_list(doc["link_means"], n_links, f"{where}.link_means")
    sds = _float_list(doc["link_sds"], n_links, f"{where}.link_sds")
    for i, (mean, sd) in enumerate(zip(means, sds)):
        if mean <= 0.0:
            raise ConfigInvalid(f"{where}.link_means[{i}] must be > 0, got {mean}")
        if sd <= 0.0:
            raise ConfigInvalid(f"{where}.link_sds[{i}] must be > 0, got {sd}")
    ranges = doc["angle_ranges"]
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
        if not math.isfinite(hi - lo):  # a draw scales the width
            raise ConfigInvalid(f"{where}.angle_ranges[{i}]: the width of [{lo}, {hi}] overflows")
        parsed_ranges.append((lo, hi))
    return GeneratorParams(
        link_means=tuple(means), link_sds=tuple(sds), angle_ranges=tuple(parsed_ranges)
    )


def _ood_generator(value, where, get) -> GeneratorParams:
    generator = _generator(value, where, get)
    if generator == get("generator"):
        raise ConfigInvalid(
            "config.ood_generator must differ from config.generator in at "
            "least one field"
        )
    return generator


def _strategies(value, where, get) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ConfigInvalid(f"{where} must be a list of names, got {value!r}")
    strategies = tuple(value)
    if not strategies:
        raise ConfigInvalid(f"{where} must not be empty")
    if len(set(strategies)) != len(strategies):
        raise ConfigInvalid(f"{where} contains duplicates")
    for name in strategies:
        if name not in STRATEGIES:
            raise ConfigInvalid(
                f"{where}: unknown strategy {name!r}; expected a subset of {list(STRATEGIES)}"
            )
    return strategies


def _ranking_mode(value, where, get) -> str:
    if value not in VL4POSE_MODES:
        raise ConfigInvalid(f"{where} must be 'expected' or 'max', got {value!r}")
    return value


def _fraction(value, where, get) -> float:
    fraction = _as_float(value, where)
    if not 0.0 <= fraction <= 1.0:
        raise ConfigInvalid(f"{where} must be in [0, 1], got {fraction}")
    return fraction


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    """A ``simulate`` config. Each field declares its key of the JSON
    layout once, with its check and its default; :meth:`from_dict` and
    :meth:`to_json_dict` both walk these declarations.

    ``from_dict`` checks the keys of each JSON object (``config``, then its
    objects in the order their fields first appear), then parses the fields
    in order, so the field order decides which fault a document with
    several reports; a generator parses the joint count first.
    """

    generator: GeneratorParams = _key("generator", _generator)
    ood_generator: GeneratorParams = _key("ood_generator", _ood_generator)
    strategies: tuple[str, ...] = _key("strategies", _strategies, STRATEGIES)
    ranking_mode: str = _key("ranking_mode", _ranking_mode, "expected")
    initial_random_fraction: float = _key("initial_random_fraction", _fraction, 0.0)
    seed: int = _key("seed", _int(0))
    rounds: int = _key("rounds", _int(1))
    budget: int = _key("budget", _int(1))
    labeled_size: int = _key("pool.labeled", _int(2))
    unlabeled_size: int = _key("pool.unlabeled", _int(1))
    ood_count: int = _key("pool.ood", _int(0))
    heldout_size: int = _key("pool.heldout", _int(1))
    joints: int = _key("skeleton.joints", _int(2))
    height: int = _key("heatmap.height", _int(8, _MAX_SIDE))
    width: int = _key("heatmap.width", _int(8, _MAX_SIDE))
    peak_sigma: float = _key("heatmap.peak_sigma", _peak_sigma)
    distractor_count: int = _key("heatmap.distractors", _int(0), 0)
    distractor_amplitude: float = _key("heatmap.distractor_amplitude", _positive, 0.6)

    @classmethod
    def from_dict(cls, doc: dict) -> "SimulationConfig":
        keys = {"config": ([], [])}  # each JSON object's (required, optional) keys
        for f in fields(cls):
            where, _, key = f"config.{f.metadata['path']}".rpartition(".")
            if where != "config":  # a key of one of config's objects, which are required
                keys["config"][0].append(where.removeprefix("config."))
            keys.setdefault(where, ([], []))[f.default is not MISSING].append(key)
        objects = {"": {"config": doc}}  # each checked JSON object by its path
        for where, (required, optional) in keys.items():
            parent, _, name = where.rpartition(".")
            objects[where] = _take_keys(objects[parent][name], required, optional, where)
        by_name, values = {f.name: f for f in fields(cls)}, {}

        def get(name: str):
            if name not in values:
                f = by_name[name]
                where, _, key = f"config.{f.metadata['path']}".rpartition(".")
                found = objects[where]
                values[name] = (
                    f.metadata["parse"](found[key], f"{where}.{key}", get)
                    if key in found else f.default
                )
            return values[name]

        cfg = cls(**{name: get(name) for name in by_name})
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
        doc = {}
        for f in fields(self):
            parent, _, key = f.metadata["path"].rpartition(".")
            (doc.setdefault(parent, {}) if parent else doc)[key] = _json(getattr(self, f.name))
        return doc


def _json(value):
    """A field's value as the JSON it is read from: a generator as the
    object of its fields, a tuple as a list."""
    if isinstance(value, GeneratorParams):
        return {f.name: _json(getattr(value, f.name)) for f in fields(value)}
    return [_json(item) for item in value] if isinstance(value, tuple) else value


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


def _poses(rng: np.random.Generator, gen: GeneratorParams, count: int, cfg) -> np.ndarray:
    """The (count, J, 2) cells of ``count`` chain poses drawn from ``gen``: an
    attempt draws ``random()`` twice, then ``standard_normal()`` and
    ``random()`` per link, until its rounded cells lie inside the grid.
    Blocks of one attempt per pose left are drawn (never past the last
    pose's draws) and walked in arrays with a scalar walk's bits: ``loc +
    scale * standard_normal()`` is ``normal(loc, scale)``, ``cumsum`` adds
    in order, and ``rint`` rounds halves to even, as ``round`` does."""
    h, w, links = cfg.height, cfg.width, cfg.joints - 1
    draws = (rng.random,) * 2 + (rng.standard_normal, rng.random) * links
    lo, hi = np.array([(0.35 * h, 0.65 * h), (0.35 * w, 0.65 * w), *gen.angle_ranges]).T
    cells, tries = [], 0
    while len(cells) < count:
        block = np.reshape([f() for f in draws * (count - len(cells))], (-1, len(draws)))
        uniform = lo + (hi - lo) * block[:, [0, 1, *range(3, len(draws), 2)]]
        angle = uniform[:, 2:].ravel().tolist()
        steps = np.empty((len(block), cfg.joints, 2))
        steps[:, 0] = uniform[:, :2]
        # math.sin and math.cos: np.sin and np.cos may round otherwise on some CPUs.
        steps[:, 1:, 0] = np.reshape(list(map(math.sin, angle)), (-1, links))
        steps[:, 1:, 1] = np.reshape(list(map(math.cos, angle)), (-1, links))
        with np.errstate(over="ignore", invalid="ignore"):  # long links overflow, then fall out
            length = np.array(gen.link_means) + np.array(gen.link_sds) * block[:, 2::2]
            steps[:, 1:] *= length[:, :, None]
            walk = np.rint(np.cumsum(steps, axis=1))
            hits = np.flatnonzero(((walk >= 1) & (walk <= (h - 2, w - 2))).all(axis=(1, 2)))
        # The failed attempts of each placed pose, then of the next one.
        fails = np.diff(hits, prepend=-1 - tries) - 1
        tries = len(block) - 1 - hits[-1] if len(hits) else tries + len(block)
        if max(fails.max(initial=0), tries) >= _MAX_POSE_ATTEMPTS:
            raise ConfigInvalid(
                f"generator failed to place a pose inside the {h}x{w} grid after "
                f"{_MAX_POSE_ATTEMPTS} attempts; link lengths are too large for the grid"
            )
        cells.extend(walk[hits])
    return np.reshape(cells, (-1, cfg.joints, 2))


def _distractors(rng: np.random.Generator, cells: np.ndarray, cfg) -> np.ndarray:
    """The (P * D, 3) (joint, row, col) of the ``D`` distractors of each pose of
    ``cells``: ``integers(joints)``, then ``integers(1, height - 1)`` and
    ``integers(1, width - 1)`` until ``3 * peak_sigma + 1`` from the joint's cell,
    drawn ahead in blocks (one bound per value) and rewound to a cell too near."""
    d, min_sep, k = cfg.distractor_count, 3.0 * cfg.peak_sigma + 1.0, 0
    bounds = np.tile([[0, 1, 1], [cfg.joints, cfg.height - 1, cfg.width - 1]], _DRAW_AHEAD)
    out = np.empty((len(cells) * d, 3), np.int64)
    while k < len(out):
        state, m = rng.bit_generator.state, min(_DRAW_AHEAD, len(out) - k)
        drawn = rng.integers(*bounds[:, : 3 * m]).reshape(m, 3)
        true = cells[(k + np.arange(m)) // d, drawn[:, 0]]
        near = np.abs(drawn[:, 1:] - true).max(axis=1) < min_sep
        kept = int(near.argmax()) if near.any() else m
        out[k : k + m] = drawn  # the rows past a cell too near are drawn again
        k += kept
        if kept == m:
            continue
        rng.bit_generator.state = state
        rng.integers(*bounds[:, : 3 * kept + 3])
        for _ in range(_MAX_POSE_ATTEMPTS - 1):
            out[k, 1:] = rng.integers(1, (cfg.height - 1, cfg.width - 1))
            if np.abs(out[k, 1:] - true[kept]).max() >= min_sep:
                break
        else:
            raise ConfigInvalid(
                f"no cell of the {cfg.height}x{cfg.width} grid is {min_sep:g} cells from "
                f"joint {out[k, 0]} after {_MAX_POSE_ATTEMPTS} draws; peak_sigma is too large "
                "for the grid"
            )
        k += 1
    return out


def build_pool(cfg: SimulationConfig, stages: Stages | None = None):
    """(pool, heldout poses, truth, is_ood) generated from the config seed.

    Each unlabeled sample keeps the peaks of the heatmap rendered from its
    pose and distractors. Every pose is drawn, then every sample's
    distractors, and one :func:`bump_peak_sets` call finds the pool's one
    batch of peaks from the bumps, in id order, without rendering a grid.
    Only ``vl4pose`` and ``entropy`` read peaks: without them no distractor
    is drawn and no peak found, and the pool holds no peaks. The pose and
    render generators are streams of their own, so neither the order of
    the draws nor skipping the render changes a pose or a distractor.
    ``truth`` maps each unlabeled id to the pose its peaks come from, and
    ``is_ood`` flags the planted out-of-distribution ids; only the simulation
    reads them, never the selection strategies. ``stages`` times ``poses`` and ``peaks``.
    """
    stages, t = stages or Stages(("poses", "peaks")), clock()
    seq = np.random.SeedSequence(cfg.seed)
    pose_rng, render_rng = (np.random.default_rng(s) for s in seq.spawn(2))
    sizes = {"lab": cfg.labeled_size, "held": cfg.heldout_size, "unl": cfg.unlabeled_size}
    cells = np.concatenate([
        _poses(pose_rng, cfg.generator, sum(sizes.values()) - cfg.ood_count, cfg),
        _poses(pose_rng, cfg.ood_generator, cfg.ood_count, cfg),
    ])
    poses = iter(Pose.each(cells))
    labeled, heldout, truth = (
        {f"{kind}-{i:04d}": next(poses) for i in range(size)} for kind, size in sizes.items()
    )
    n_id = cfg.unlabeled_size - cfg.ood_count
    is_ood = {f"unl-{i:04d}": i >= n_id for i in range(cfg.unlabeled_size)}
    t = stages.since("poses", t)
    peaks = None
    if not {"vl4pose", "entropy"}.isdisjoint(cfg.strategies):
        centres, d = cells[-cfg.unlabeled_size :], cfg.distractor_count
        joint, row, col = _distractors(render_rng, centres, cfg).T.tolist()
        bumps = list(zip(joint, zip(row, col), repeat(cfg.distractor_amplitude)))
        peaks = bump_peak_sets(
            centres, [bumps[i * d : i * d + d] for i in range(len(centres))],
            cfg.height, cfg.width, cfg.peak_sigma,
        )
    pool = SamplePool(labeled, {sample_id: i for i, sample_id in enumerate(truth)}, peaks)
    stages.since("peaks", t)
    return pool, heldout, truth, is_ood


# --- the simulation loop --------------------------------------------------------

@dataclass(frozen=True)
class SimulationReport:
    """JSON-ready report plus the flat per-selection log, and the run's
    :class:`Stages` as the manifest reports them."""

    report: dict
    selections: list[dict]
    stages: dict


def _fit_round_params(pool: SamplePool, skeleton: Skeleton):
    ordered = [pool.labeled[sample_id] for sample_id in sorted(pool.labeled)]
    data = LabeledPoseSet.of(skeleton, ordered)
    return fit_model(data, "distance")


def _select_round(
    cfg: SimulationConfig, strategy: str, ranked: np.ndarray, random: np.ndarray, ranks: np.ndarray
) -> np.ndarray:
    """Positions, among the round's unlabeled rows, of its budgeted
    selection: an optional warm-up slice ranked by ``random``, then the rest
    ranked by ``ranked`` (lowest first), ties to the lower of ``ranks``."""
    n_random = int(round(cfg.initial_random_fraction * cfg.budget))
    if strategy == "random" or n_random == 0:
        return lowest_first(ranked, ranks, cfg.budget)
    warmup = lowest_first(random, ranks, n_random)
    rest = np.delete(np.arange(len(ranked)), warmup)
    return np.concatenate(
        [warmup, rest[lowest_first(ranked[rest], ranks[rest], cfg.budget - n_random)]]
    )


def run_simulation(cfg: SimulationConfig) -> SimulationReport:
    """Run every configured strategy on clones of one generated pool.

    A sample's peaks never change, so the model-free ``entropy`` and
    ``random`` scores are computed once over the generated pool; each round
    reads those of the samples still unlabeled. Only ``vl4pose`` is scored
    again every round, under that round's fitted model.

    ``stages`` sums the wall and CPU time of each stage over the rounds: ``poses``,
    ``peaks`` (distractors and peaks), ``pool`` (clones, ids and ranks), ``fit``,
    ``score``, ``select`` (with the recall, the AUC and the labeling) and ``heldout``.
    """
    stages = Stages(("poses", "peaks", "pool", "fit", "score", "select", "heldout"))
    try:
        base_pool, heldout, truth, is_ood = build_pool(cfg, stages)
    except MemoryError:
        raise ConfigInvalid(
            f"the pool of {cfg.height}x{cfg.width} grids does not fit in memory"
        ) from None
    t = clock()
    skeleton = chain_skeleton(cfg.joints)
    heldout_poses = [heldout[h] for h in sorted(heldout)]
    pools = {s: base_pool.clone() for s in cfg.strategies}
    # Per pool row: build_pool gives the i-th unlabeled id row i.
    ids = list(base_pool.unlabeled)
    ood = np.array([is_ood[sample_id] for sample_id in ids])
    ranks = id_ranks(ids)
    t = stages.since("pool", t)
    fixed_scores = {  # random scores also rank every strategy's warm-up slice
        strategy: score_pool(base_pool, strategy, seed=cfg.seed)
        for strategy in ("entropy", "random")
        if strategy in cfg.strategies or strategy == "random"
    }
    t = stages.since("score", t)

    metrics = {
        s: {"ood_recall": [], "ood_auc": [], "heldout_mean_ll": [], "labeled_count": []}
        for s in cfg.strategies
    }
    selected_ids = {s: [] for s in cfg.strategies}
    selections: list[dict] = []

    for round_idx in range(cfg.rounds):
        for strategy in cfg.strategies:
            pool = pools[strategy]
            params = _fit_round_params(pool, skeleton)
            t = stages.since("fit", t)
            rows = np.fromiter(pool.unlabeled.values(), np.intp, len(pool.unlabeled))
            if strategy in fixed_scores:
                scores = fixed_scores[strategy][rows]
            else:
                scores = score_pool(pool, strategy, params, mode=cfg.ranking_mode)
            t = stages.since("score", t)
            lls = _total(*_point_terms(heldout_poses, params)).tolist()
            heldout_ll = reduce(add, lls, 0.0) / len(lls)  # left to right on every Python
            t = stages.since("heldout", t)
            ranked = ascending(scores, strategy)
            picked = _select_round(
                cfg, strategy, ranked, fixed_scores["random"][rows], ranks[rows]
            ).tolist()

            flags = ood[rows]
            remaining_ood = np.count_nonzero(flags)
            recall = np.count_nonzero(flags[picked]) / remaining_ood if remaining_ood else None
            # Probability a random OOD sample is selected before a random ID sample.
            auc = (
                ood_ranking_auc(ranked[~flags], ranked[flags])
                if 0 < remaining_ood < len(flags) else None
            )

            chosen = [ids[row] for row in rows[picked].tolist()]
            for sample_id, score in zip(chosen, scores[picked].tolist()):
                selections.append(
                    {"round": round_idx, "strategy": strategy, "id": sample_id, "score": score}
                )
                pool.move_to_labeled(sample_id, truth[sample_id])

            metrics[strategy]["ood_recall"].append(recall)
            metrics[strategy]["ood_auc"].append(auc)
            metrics[strategy]["heldout_mean_ll"].append(float(heldout_ll))
            metrics[strategy]["labeled_count"].append(len(pool.labeled))
            selected_ids[strategy].append(chosen)
            t = stages.since("select", t)

    report = {
        "config": cfg.to_json_dict(),
        "planted_ood": sorted(s for s, flag in is_ood.items() if flag),
        "metrics": metrics,
        "selected": selected_ids,
    }
    return SimulationReport(report=report, selections=selections, stages=stages.to_json_dict())
