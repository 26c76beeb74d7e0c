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
from .errors import (
    ConfigInvalid,
    MissingJoint,
    MissingParams,
    PoseLikError,
    SchemaError,
)
from .heatmaps import (
    DEFAULT_MAX_PEAKS,
    DEFAULT_THRESHOLD_RATIO,
    extract_peak_sets,
    extract_peaks,  # noqa: F401 -- unused here, but bench/tracing.py wraps it by module
    read_heatmap_file,
    read_manifest,
)
from .likelihood import (
    expected_log_likelihood,
    expected_log_likelihoods,
    multi_peak_entropies,
    multi_peak_entropy,  # noqa: F401 -- unused here, but bench/tracing.py wraps it by module
    point_log_likelihood,
    point_log_likelihoods,
    refine_pose,  # noqa: F401 -- unused here, but bench/tracing.py wraps it by module
    refine_poses,
)
from .model import (
    PoseModelParams,
    Stages,
    clock,
    errors_at,
    is_number,
    iter_jsonl,
    load_model_file,
    load_skeleton_file,
    model_to_dict,
    read_json,
    write_json,
)
from .selection import STRATEGIES, _random_score, select_batch
from .simulation import SimulationConfig, run_simulation

TOOL_NAME = "poselik"


# --- outputs ---------------------------------------------------------------------

def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _jsonl(records) -> str:
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


# --- commands ---------------------------------------------------------------------

@dataclass(frozen=True)
class _Command:
    """One subcommand as data for :func:`_run`.

    ``load(args)`` reads the shared inputs into a context dict (failures
    exit 3). ``compute(args, ctx, stage)`` writes each output to the
    temporary file ``stage(path)`` names and returns the sample count
    (failures exit 4, failed writes exit 3); it may put a per-stage
    breakdown in ``ctx["stages"]``, whose ``read`` time counts as I/O.
    ``config`` and ``seed`` fill the run manifest; ``inputs`` names the
    arguments whose files it hashes (unset ones are skipped).
    """

    load: Callable[[argparse.Namespace], dict]
    compute: Callable
    config: Callable[[argparse.Namespace, dict], dict]
    inputs: tuple[str, ...]
    seed: Callable[[argparse.Namespace, dict], int | None] = lambda args, ctx: None


# Samples read, extracted and scored together: memory grows with the chunk,
# not with the manifest. A chunk holds at most CHUNK_BYTES of grids (at
# least one sample): 16 samples of 16-joint 64x64 heatmaps, 3 of 17-joint
# 128x128. On the 64x64 grids, chunks of 4 ran 20-35% slower than 16 and
# chunks of 32 about 5% faster for 5 MB more memory.
CHUNK_BYTES = 1 << 22
# What fails a sample: its data, or memory for its grids and their peaks.
_FAILURES = (PoseLikError, MemoryError)
_DEFAULT_EXTRACTION = (DEFAULT_THRESHOLD_RATIO, DEFAULT_MAX_PEAKS)


def _chunked(records: Callable, extraction: Callable) -> Callable:
    """``compute`` for a command that turns each chunk of the heatmap
    manifest into JSONL text with ``records(args, ctx, ids, peaks)``
    and streams it to its output, in manifest order.

    ``extraction(args)`` gives the ``(threshold_ratio, max_peaks)`` that the
    command extracts peaks with, or ``None`` if it reads no heatmap (its
    ``peaks`` are then ``None``, and the whole manifest is one chunk).
    Each heatmap is read straight into its row of one reused
    ``(chunk, J, H, W)`` buffer of at most :data:`CHUNK_BYTES`, sized for
    the first heatmap of its shape, which checks its scores as it reads
    them, and a change of shape starts a new chunk. Each chunk's peaks are
    extracted and its records made through :func:`_chunk_records`.
    The first failure in manifest order aborts the run, naming its sample;
    a chunk too large for memory is such a failure.
    The time of each stage and the chunk count go to ``ctx["stages"]``.
    """

    def compute(args, ctx, stage):
        entries, settings = ctx["entries"], extraction(args)
        stages, chunks = Stages(("read", "peaks", "records", "write")), 0
        ids: list[str] = []
        chunk = fresh = None  # the buffer of ids' heatmaps; one for a new shape

        def row(shape):
            nonlocal fresh
            if chunk is not None and chunk.shape[1:] == shape:
                return chunk[len(ids)]
            size = min(max(1, CHUNK_BYTES // (4 * math.prod(shape))), len(entries))
            fresh = np.empty((size, *shape), np.float32)
            return fresh[0]

        def text(sample_ids, values) -> str:
            t = clock()
            peaks = None
            if values is not None:
                peaks = extract_peak_sets(values, *settings)
                t = stages.since("peaks", t)
            lines = records(args, ctx, sample_ids, peaks)
            stages.since("records", t)
            return lines

        with open(stage(args.out), "w", encoding="utf-8") as out:

            def flush():
                nonlocal chunks
                if ids:
                    lines = _chunk_records(text, ids, chunk[: len(ids)] if settings else None)
                    t = clock()
                    out.write(lines)
                    stages.since("write", t)
                    chunks += 1
                    ids.clear()

            for sample_id, path in entries:
                if settings is not None:
                    try:
                        t = clock()
                        read_heatmap_file(path, into=row)
                        stages.since("read", t)
                    except (*_FAILURES, OSError) as exc:
                        flush()  # a sample before it may fail first
                        raise _named(sample_id, exc) from exc
                    if fresh is not None:  # a new shape: the chunk so far goes first
                        flush()
                        chunk, fresh = fresh, None
                ids.append(sample_id)
                if chunk is not None and len(ids) == len(chunk):
                    flush()
            flush()
        ctx["stages"] = {"chunks": chunks, **stages.to_json_dict()}
        return len(entries)

    return compute


def _chunk_records(text: Callable, ids: list[str], values) -> str:
    """``text(ids, values)`` of one chunk. If the chunk fails, its samples run
    alone in turn, so that the error names the first failing sample and says
    what that sample's own run says; if none fails alone (the chunk ran out
    of memory), their own runs' text is the chunk's."""
    try:
        return text(ids, values)
    except _FAILURES:
        lines = []
        for i, sample_id in enumerate(ids):
            try:
                lines.append(text(ids[i : i + 1], None if values is None else values[i : i + 1]))
            except _FAILURES as exc:
                raise _named(sample_id, exc) from exc
        return "".join(lines)


def _named(sample_id: str, exc: Exception) -> PoseLikError:
    return PoseLikError(f"sample {sample_id!r}: {str(exc) or 'out of memory'}")


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
        raise MissingParams("no model parameters")
    return params


def _score_records(args, ctx, ids, peaks) -> str:
    point = args.mode == "point"
    if ctx["params_map"] is None:  # one shared model: the chunk is one batch
        reports = (
            point_log_likelihoods([_pose_for(ctx, i) for i in ids], ctx["params"]) if point
            else expected_log_likelihoods(peaks, ctx["params"])
        )
    else:  # --per-image: each sample under its own model
        reports = [
            point_log_likelihood(_pose_for(ctx, i), _params_for(ctx, i)) if point
            else expected_log_likelihood(peaks.take([k]), _params_for(ctx, i))
            for k, i in enumerate(ids)
        ]
    return _jsonl(report.to_json_dict(i) for report, i in zip(reports, ids))


def _pose_for(ctx, sample_id: str):
    pose = ctx["poses"].get(sample_id)
    if pose is None:
        raise MissingJoint("no pose provided")
    return pose


def _refine_records(args, ctx, ids, peaks) -> str:
    refined = refine_poses(peaks, ctx["params"])
    return _jsonl(pose.to_json_dict(sample_id) for pose, sample_id in zip(refined, ids))


# One peak of a ``maxima`` line. For a finite float, ``%r`` writes what the
# JSON encoder writes.
_PEAK = '{"loc": [%d, %d], "prob": %r, "score": %r}'


def _maxima_records(args, ctx, ids, peaks) -> str:
    """One line per sample, each ``json.dumps(record, sort_keys=True)`` of
    ``{"id", "entropy", "peaks": [[{"loc", "score", "prob"}, ...], ...]}``
    (a list of peaks per joint), written without building the record: its
    scores, probabilities and entropy are all finite."""
    probs, scores, bounds = peaks.probs.tolist(), peaks.scores.tolist(), peaks.offsets.tolist()
    rows = [_PEAK % (r, c, p, s) for (r, c), p, s in zip(peaks.locs.tolist(), probs, scores)]
    joints = ["[%s]" % ", ".join(rows[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    n = peaks.joint_count
    return "".join(
        '{"entropy": %r, "id": %s, "peaks": [%s]}\n' % (
            entropy, json.dumps(sample_id), ", ".join(joints[i * n : (i + 1) * n])
        )
        for i, (sample_id, entropy) in enumerate(zip(ids, multi_peak_entropies(peaks)))
    )


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


def _compute_select(args, ctx, stage):
    scores = ctx["scores"]
    document = {
        "strategy": args.strategy,
        "budget": args.budget,
        "selected": list(select_batch(scores, args.strategy, args.budget)),
        "scores": {k: scores[k] for k in sorted(scores)},
    }
    write_json(stage(args.out), document)
    return len(ctx["scores"])


def _load_calibrate(args) -> dict:
    skeleton = load_skeleton_file(args.skeleton)
    return {"skeleton": skeleton, "labeled": read_labeled_poses(args.labeled, skeleton)}


def _compute_calibrate(args, ctx, stage):
    data = LabeledPoseSet.of(ctx["skeleton"], [pose for _, pose in ctx["labeled"]])
    fitted = fit_model(data, args.model)
    document = {**model_to_dict(fitted), "fit": {"sample_count": data.n_poses}}
    write_json(stage(args.out), document)
    return data.n_poses


def _load_simulate(args) -> dict:
    doc = read_json(args.config)
    with errors_at(args.config):
        return {"cfg": SimulationConfig.from_dict(doc)}


def _compute_simulate(args, ctx, stage):
    with errors_at(args.config):  # an infeasible config is found only while generating
        outcome = run_simulation(ctx["cfg"])
    write_json(stage(args.out), outcome.report)
    with open(stage(f"{args.out}.selections.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(_jsonl(outcome.selections))
    ctx["stages"] = outcome.stages
    return ctx["cfg"].unlabeled_size


_COMMANDS = {
    "score": _Command(
        load=_load_score,
        compute=_chunked(
            _score_records, lambda args: None if args.mode == "point" else _DEFAULT_EXTRACTION
        ),
        config=lambda args, ctx: {
            "mode": args.mode, "per_image": bool(args.per_image), "out": args.out,
        },
        inputs=("skeleton", "params", "heatmaps", "poses"),
    ),
    "refine": _Command(
        load=lambda args: {"params": _load_model(args), "entries": read_manifest(args.heatmaps)},
        compute=_chunked(_refine_records, lambda args: _DEFAULT_EXTRACTION),
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
        load=_load_calibrate,
        compute=_compute_calibrate,
        config=lambda args, ctx: {"model": args.model, "out": args.out},
        inputs=("skeleton", "labeled"),
    ),
    "maxima": _Command(
        load=lambda args: {"entries": read_manifest(args.heatmaps)},
        compute=_chunked(_maxima_records, lambda args: (args.threshold, args.max_peaks)),
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
    """Load, compute the outputs, then write the run manifest, each into a
    temporary file, and rename each over its output, the manifest last.

    Each output goes to a temporary file beside it (per-sample commands
    stream their records there chunk by chunk), which is renamed into place
    only once every sample has succeeded, every input is hashed and the
    manifest is written. So no failure leaves a partial file, and no
    temporary file outlives the run. The old manifest is removed before any
    output is replaced, so a manifest exists only beside the outputs of the
    run that wrote it.
    """
    spec = _COMMANDS[command]
    started = time.perf_counter()
    staged: list[tuple[str, str]] = []  # (output, its temporary file), in staging order

    def stage(path: str) -> str:
        staged.append((path, f"{path}.{os.getpid()}.tmp"))
        return staged[-1][1]

    try:
        try:
            ctx = spec.load(args)
        except (PoseLikError, OSError) as exc:
            _error(exc)
            return 3
        load_ms = (time.perf_counter() - started) * 1000.0

        compute_start = time.perf_counter()
        try:
            samples = spec.compute(args, ctx, stage)
        except ConfigInvalid as exc:  # a config no sample can satisfy, not a sample's data
            _error(exc)
            return 3
        except PoseLikError as exc:
            _error(exc)
            return 4
        except OSError as exc:  # reads name their sample; this is a staged write
            _error(f"cannot write {staged[-1][0]}: {exc.strerror or exc}")
            return 3
        read_ms = ctx.get("stages", {}).get("wall_ms", {}).get("read", 0.0)
        timings = {
            "io": load_ms + read_ms,
            "compute": (time.perf_counter() - compute_start) * 1000.0 - read_ms,
        }

        try:
            inputs = {
                name: {"path": str(given), "sha256": _sha256_file(given)}
                for name in spec.inputs
                if (given := getattr(args, name))
            }
        except OSError as exc:
            _error(exc)
            return 3

        path = f"{args.out}.manifest.json"
        try:
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
            if "stages" in ctx:
                manifest["stages"] = ctx["stages"]
            write_json(stage(path), manifest)
            # An old manifest must not outlive the outputs it describes.
            with contextlib.suppress(FileNotFoundError, IsADirectoryError):
                os.unlink(path)
            for path, tmp in staged:  # the manifest last
                os.replace(tmp, path)
        except OSError as exc:
            _error(f"cannot write {path}: {exc.strerror or exc}")
            return 3
        return 0
    finally:
        for _, tmp in staged:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


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
    select.add_argument("--strategy", choices=STRATEGIES, required=True)
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
    if args.command == "maxima" and not 0.0 <= args.threshold <= 1.0:  # NaN too
        parser.error(f"--threshold must be finite and in [0, 1], got {args.threshold}")
    return _run(args.command, args)


if __name__ == "__main__":
    raise SystemExit(main())
