"""Command-line interface: files in, JSON/JSONL out.

Each subcommand is a thin shell over one library operation. Exit codes:

* 0 — success (a run manifest is written next to the output),
* 2 — usage errors (bad flags, missing required combinations),
* 3 — schema errors while loading shared inputs, a ``simulate`` config
  found infeasible while generating its pool, and failures to write an
  output (no partial file is left behind),
* 4 — data errors while processing samples (first failure aborts the
  run; the diagnostic names the sample).

Data outputs go to ``--out``; diagnostics go to stderr; the run
manifest goes to ``<out>.manifest.json``, which is removed before any
output is replaced and written last (``simulate`` additionally writes the
per-selection log to ``<out>.selections.jsonl``).
Output lines always follow input-manifest order.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .calibration import LabeledPoseSet, fit_model, load_image_params, read_labeled_poses
from .errors import ConfigInvalid, MissingJoint, MissingParams, PoseLikError, SchemaError
from .heatmaps import (
    DEFAULT_MAX_PEAKS,
    DEFAULT_THRESHOLD_RATIO,
    extract_peaks,
    read_heatmap_file,
    read_manifest,
)
from .likelihood import (
    expected_log_likelihood,
    multi_peak_entropy,
    point_log_likelihood,
    refine_pose,
)
from .model import (
    PoseModelParams,
    errors_at,
    is_number,
    iter_jsonl,
    load_model_file,
    load_skeleton_file,
    model_to_dict,
    read_json,
    write_json,
)
from .selection import _random_score, select_batch
from .simulation import SimulationConfig, run_simulation

TOOL_NAME = "poselik"


# --- outputs ---------------------------------------------------------------------

def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def _write_atomic(path: str, write: Callable[[str], None]) -> None:
    """Run ``write`` on a temporary file beside ``path``, then rename it over
    ``path``, so a failed write never leaves a partial file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


# --- commands ---------------------------------------------------------------------

@dataclass(frozen=True)
class _Command:
    """One subcommand as data for :func:`_run`.

    ``load(args)`` reads the shared inputs into a context dict (failures
    exit 3). ``compute(args, ctx, timings)`` returns the output files as
    ``(path, write)`` pairs plus the sample count (failures exit 4) and
    adds the time of any file reads to ``timings["io"]``. ``config`` and
    ``seed`` fill the run manifest; ``inputs`` names the arguments whose
    files it hashes (unset ones are skipped).
    """

    load: Callable[[argparse.Namespace], dict]
    compute: Callable
    config: Callable[[argparse.Namespace, dict], dict]
    inputs: tuple[str, ...]
    seed: Callable[[argparse.Namespace, dict], int | None] = lambda args, ctx: None


def _per_sample(sample: Callable, reads_heatmap: Callable = lambda args: True) -> Callable:
    """``compute`` for a command that maps ``sample(args, ctx, id, heatmap)``
    over the heatmap manifest into one JSONL record per sample, in manifest
    order. The first failure aborts the run, naming the sample."""

    def compute(args, ctx, timings):
        records = []
        for sample_id, path in ctx["entries"]:
            try:
                t0 = time.perf_counter()
                heatmap = read_heatmap_file(path) if reads_heatmap(args) else None
                timings["io"] += (time.perf_counter() - t0) * 1000.0
                records.append(sample(args, ctx, sample_id, heatmap))
            except (PoseLikError, OSError) as exc:
                raise PoseLikError(f"sample {sample_id!r}: {exc}") from exc
        return [(args.out, lambda tmp: _write_jsonl(tmp, records))], len(records)

    return compute


def _load_model(args) -> PoseModelParams:
    skeleton = load_skeleton_file(args.skeleton)
    params = load_model_file(args.params)
    if params.skeleton != skeleton:
        raise PoseLikError(f"{args.params}: embedded skeleton does not match {args.skeleton}")
    return params


def _load_score(args) -> dict:
    ctx = {"params_map": None, "params": None, "poses": None}
    if args.per_image:
        ctx["params_map"] = load_image_params(args.params, load_skeleton_file(args.skeleton))
    else:
        ctx["params"] = _load_model(args)
    ctx["entries"] = read_manifest(args.heatmaps)
    if args.mode == "point":
        ctx["poses"] = dict(read_labeled_poses(args.poses))
    return ctx


def _params_for(ctx, sample_id: str) -> PoseModelParams:
    if ctx["params_map"] is None:
        return ctx["params"]
    params = ctx["params_map"].get(sample_id)
    if params is None:
        raise MissingParams(f"no model parameters for sample {sample_id!r}")
    return params


def _score_sample(args, ctx, sample_id, heatmap) -> dict:
    if args.mode == "point":
        pose = ctx["poses"].get(sample_id)
        if pose is None:
            raise MissingJoint(f"no pose provided for sample {sample_id!r}")
        report = point_log_likelihood(pose, _params_for(ctx, sample_id))
    else:
        report = expected_log_likelihood(extract_peaks(heatmap), _params_for(ctx, sample_id))
    return report.to_json_dict(sample_id)


def _refine_sample(args, ctx, sample_id, heatmap) -> dict:
    return refine_pose(extract_peaks(heatmap), ctx["params"]).to_json_dict(sample_id)


def _maxima_sample(args, ctx, sample_id, heatmap) -> dict:
    peaks = extract_peaks(heatmap, args.threshold, args.max_peaks)
    rows = [
        {"loc": loc, "score": score, "prob": prob}
        for loc, score, prob in zip(
            peaks.locs.tolist(), peaks.scores.tolist(), peaks.probs.tolist()
        )
    ]
    bounds = peaks.offsets.tolist()
    return {
        "id": sample_id,
        "entropy": multi_peak_entropy(peaks),
        "peaks": [rows[a:b] for a, b in zip(bounds[:-1], bounds[1:])],
    }


def _score_from_record(record: dict, strategy: str, where: str) -> float:
    candidates = ("score", "total") if strategy == "vl4pose" else ("score", "entropy")
    for key in candidates:
        if key in record:
            value = record[key]
            if not is_number(value):
                raise SchemaError(f"{where}: field {key!r} must be a number")
            try:
                value = float(value)
            except OverflowError:
                raise SchemaError(f"{where}: field {key!r} is out of range") from None
            if math.isnan(value):  # NaN has no rank; -Infinity is a valid total
                raise SchemaError(f"{where}: field {key!r} is NaN")
            return value
    raise SchemaError(
        f"{where}: no usable score field (looked for {list(candidates)})"
    )


def _load_select(args) -> dict:
    scores: dict[str, float] = {}
    for where, sample_id, record in iter_jsonl(args.scores):
        if args.strategy == "random":
            scores[sample_id] = _random_score(args.seed, sample_id)
        else:
            scores[sample_id] = _score_from_record(record, args.strategy, where)
    return {"scores": scores}


def _compute_select(args, ctx, timings):
    result = select_batch(ctx["scores"], args.strategy, args.budget)
    document = {
        "strategy": result.strategy,
        "budget": args.budget,
        "selected": list(result.selected),
        "scores": {k: result.scores[k] for k in sorted(result.scores)},
    }
    return [(args.out, lambda tmp: write_json(tmp, document))], len(ctx["scores"])


def _compute_calibrate(args, ctx, timings):
    data = LabeledPoseSet.of(ctx["skeleton"], [pose for _, pose in ctx["labeled"]])
    fitted = fit_model(data, args.model)
    document = {**model_to_dict(fitted), "fit": {"sample_count": data.n_poses}}
    return [(args.out, lambda tmp: write_json(tmp, document))], data.n_poses


def _load_simulate(args) -> dict:
    doc = read_json(args.config)
    with errors_at(args.config):
        return {"cfg": SimulationConfig.from_dict(doc)}


def _compute_simulate(args, ctx, timings):
    with errors_at(args.config):  # an infeasible config is found only while generating
        outcome = run_simulation(ctx["cfg"])
    files = [
        (args.out, lambda tmp: write_json(tmp, outcome.report)),
        (f"{args.out}.selections.jsonl", lambda tmp: _write_jsonl(tmp, outcome.selections)),
    ]
    return files, ctx["cfg"].unlabeled_size


_COMMANDS = {
    "score": _Command(
        load=_load_score,
        compute=_per_sample(_score_sample, reads_heatmap=lambda args: args.mode != "point"),
        config=lambda args, ctx: {
            "mode": args.mode, "per_image": bool(args.per_image), "out": args.out,
        },
        inputs=("skeleton", "params", "heatmaps", "poses"),
    ),
    "refine": _Command(
        load=lambda args: {"params": _load_model(args), "entries": read_manifest(args.heatmaps)},
        compute=_per_sample(_refine_sample),
        config=lambda args, ctx: {"out": args.out},
        inputs=("skeleton", "params", "heatmaps"),
    ),
    "select": _Command(
        load=_load_select,
        compute=_compute_select,
        config=lambda args, ctx: {
            "strategy": args.strategy, "budget": args.budget, "out": args.out,
        },
        inputs=("scores",),
        seed=lambda args, ctx: args.seed,
    ),
    "calibrate": _Command(
        load=lambda args: {
            "skeleton": load_skeleton_file(args.skeleton),
            "labeled": read_labeled_poses(args.labeled),
        },
        compute=_compute_calibrate,
        config=lambda args, ctx: {"model": args.model, "out": args.out},
        inputs=("skeleton", "labeled"),
    ),
    "maxima": _Command(
        load=lambda args: {"entries": read_manifest(args.heatmaps)},
        compute=_per_sample(_maxima_sample),
        config=lambda args, ctx: {
            "threshold": args.threshold, "max_peaks": args.max_peaks, "out": args.out,
        },
        inputs=("heatmaps",),
    ),
    "simulate": _Command(
        load=_load_simulate,
        compute=_compute_simulate,
        config=lambda args, ctx: ctx["cfg"].to_json_dict(),
        inputs=("config",),
        seed=lambda args, ctx: ctx["cfg"].seed,
    ),
}


def _error(message) -> None:
    print(f"{TOOL_NAME}: error: {message}", file=sys.stderr)


def _run(command: str, args: argparse.Namespace) -> int:
    """Load, compute, write the outputs, then the run manifest last.

    Each output is written to a temporary file and renamed into place, so
    no failure leaves a partial file. The old manifest is removed before
    any output is replaced, so a manifest exists only beside the outputs of
    the run that wrote it.
    """
    spec = _COMMANDS[command]
    started = time.perf_counter()
    # Extreme finite inputs may overflow to inf or nan on the way; the
    # parameter checks reject non-finite fits and -inf densities are valid
    # scores, so numpy's warnings would only add stderr lines.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            ctx = spec.load(args)
        except (PoseLikError, OSError) as exc:
            _error(exc)
            return 3
        load_ms = (time.perf_counter() - started) * 1000.0

        timings = {"io": load_ms}
        compute_start = time.perf_counter()
        try:
            files, samples = spec.compute(args, ctx, timings)
        except ConfigInvalid as exc:  # a config no sample can satisfy, not a sample's data
            _error(exc)
            return 3
        except PoseLikError as exc:
            _error(exc)
            return 4
    read_ms = timings["io"] - load_ms
    timings["compute"] = (time.perf_counter() - compute_start) * 1000.0 - read_ms

    try:
        inputs = {
            name: {"path": str(given), "sha256": _sha256_file(given)}
            for name in spec.inputs
            if (given := getattr(args, name))
        }
    except OSError as exc:
        _error(exc)
        return 3

    manifest_path = f"{args.out}.manifest.json"
    path = manifest_path
    try:
        # An old manifest must not outlive the outputs it describes.
        with contextlib.suppress(FileNotFoundError, IsADirectoryError):
            os.unlink(manifest_path)
        for path, write in files:
            _write_atomic(path, write)
        timings["total"] = (time.perf_counter() - started) * 1000.0
        manifest = {
            "tool": TOOL_NAME,
            "version": __version__,
            "command": command,
            "config": spec.config(args, ctx),
            "inputs": inputs,
            "seed": spec.seed(args, ctx),
            "timings_ms": timings,
            "samples": samples,
        }
        path = manifest_path
        _write_atomic(path, lambda tmp: write_json(tmp, manifest))
    except OSError as exc:
        _error(f"cannot write {path}: {exc.strerror or exc}")
        return 3
    return 0


# --- parser -----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Skeletal-likelihood scoring, refinement and selection.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    score = subs.add_parser("score", help="score heatmap samples or poses")
    score.add_argument("--skeleton", required=True)
    score.add_argument("--params", required=True)
    score.add_argument("--per-image", action="store_true", dest="per_image")
    score.add_argument("--heatmaps", required=True)
    score.add_argument("--mode", choices=("expected", "point"), default="expected")
    score.add_argument("--poses", default=None)
    score.add_argument("--out", required=True)

    refine = subs.add_parser("refine", help="max-likelihood peak selection")
    refine.add_argument("--skeleton", required=True)
    refine.add_argument("--params", required=True)
    refine.add_argument("--heatmaps", required=True)
    refine.add_argument("--out", required=True)

    select = subs.add_parser("select", help="bottom-budget sample selection")
    select.add_argument("--scores", required=True)
    select.add_argument("--strategy", choices=("vl4pose", "entropy", "random"), required=True)
    select.add_argument("--budget", type=int, required=True)
    select.add_argument("--seed", type=int, default=0)
    select.add_argument("--out", required=True)

    calibrate = subs.add_parser("calibrate", help="fit link parameters from poses")
    calibrate.add_argument("--skeleton", required=True)
    calibrate.add_argument("--labeled", required=True)
    calibrate.add_argument("--model", choices=("distance", "offset"), required=True)
    calibrate.add_argument("--out", required=True)

    maxima = subs.add_parser("maxima", help="extract heatmap local maxima")
    maxima.add_argument("--heatmaps", required=True)
    maxima.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD_RATIO)
    maxima.add_argument("--max-peaks", type=int, default=DEFAULT_MAX_PEAKS, dest="max_peaks")
    maxima.add_argument("--out", required=True)

    simulate = subs.add_parser("simulate", help="seeded active-learning simulation")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "score" and args.mode == "point" and not args.poses:
        parser.error("--mode point requires --poses")
    if args.command == "select" and args.budget < 0:
        parser.error(f"--budget must be non-negative, got {args.budget}")
    if args.command == "maxima" and args.max_peaks < 1:
        parser.error(f"--max-peaks must be >= 1, got {args.max_peaks}")
    return _run(args.command, args)


if __name__ == "__main__":
    raise SystemExit(main())
