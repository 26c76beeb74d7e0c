"""Heatmap storage, local-maxima extraction and peak normalization.

A heatmap is one dense score grid per joint. Candidate keypoints are the
strict 8-connected local maxima of each grid; their scores are softmax
normalized into a per-joint probability distribution over candidate
locations, which is the representation every downstream likelihood
computation consumes.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadMagic,
    JointOutOfRange,
    NonFiniteValue,
    OutOfBoundsCoordinate,
    SchemaError,
    TruncatedPayload,
    VersionUnsupported,
)
from .model import Pose, iter_jsonl

# Defaults for peak extraction: peaks below threshold_ratio * (global max)
# are dropped, and at most max_peaks survive per joint. Bounds the
# refinement search space without ever discarding the global maximum.
DEFAULT_THRESHOLD_RATIO = 0.05
DEFAULT_MAX_PEAKS = 10

_MAGIC = b"PSHM"
_VERSION = 1
_HEADER = struct.Struct("<4sIIII")  # magic, version, joints, height, width


@dataclass(frozen=True, eq=False)
class Heatmap:
    """Per-joint score grids, shape (joints, height, width), float32."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float32)
        if values.ndim != 3:
            raise SchemaError(f"heatmap must be (joints, H, W), got shape {values.shape}")
        n, h, w = values.shape
        if n < 1 or h < 3 or w < 3:
            raise SchemaError(f"heatmap needs >=1 joint and a >=3x3 grid, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise NonFiniteValue("heatmap contains NaN or infinite scores")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class PeakSet:
    """Per-joint candidate peaks in flat arrays (compressed sparse rows).

    Joint ``j`` owns rows ``offsets[j]:offsets[j + 1]`` of ``locs`` (int
    (row, col) grid cells), ``scores`` (raw heatmap scores) and ``probs``
    (their per-joint softmax). Within a joint, rows are sorted by
    descending score, ties by row-major cell.
    """

    locs: np.ndarray  # (K, 2) int64
    scores: np.ndarray  # (K,) float64
    probs: np.ndarray  # (K,) float64
    offsets: np.ndarray  # (joints + 1,) int64, offsets[0] == 0, offsets[-1] == K

    def __post_init__(self):
        names = ("locs", "scores", "probs", "offsets")
        arrays = [np.asarray(getattr(self, name)) for name in names]
        locs, scores, probs, offsets = arrays
        if locs.ndim != 2 or locs.shape[1] != 2 or locs.dtype.kind not in "iu":
            raise SchemaError(f"peak locs must be (K, 2) integers, got {locs.dtype} {locs.shape}")
        for name, array in (("scores", scores), ("probs", probs)):
            if array.shape != (len(locs),):
                raise SchemaError(f"peak {name} must be ({len(locs)},), got {array.shape}")
        bounds = offsets.ravel().tolist()
        if not (
            offsets.ndim == 1
            and offsets.dtype.kind in "iu"
            and bounds[:1] == [0]
            and bounds[-1] == len(locs)
            and bounds == sorted(bounds)  # never decreases
        ):
            raise SchemaError(
                f"peak offsets must be a 1-D integer array that starts at 0, never "
                f"decreases and ends at {len(locs)}, got {bounds!r:.60}"
            )
        for name, array in zip(names, arrays):
            array.flags.writeable = False  # one peak set is shared by every scorer
            object.__setattr__(self, name, array)

    @property
    def joint_count(self) -> int:
        return len(self.offsets) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(np.diff(self.offsets).tolist())


def extract_peaks(
    heatmap: Heatmap,
    threshold_ratio: float = DEFAULT_THRESHOLD_RATIO,
    max_peaks: int = DEFAULT_MAX_PEAKS,
) -> PeakSet:
    """Candidate peaks of every joint, found in one pass over all grids.

    A peak is a cell strictly greater than its 8-connected neighbors
    (border cells compare only existing neighbors) with score at least
    ``threshold_ratio`` times its joint's global maximum. The global
    maximum cell is always kept, so a constant grid yields the single
    row-major-first cell with probability 1. Each joint's peaks are sorted
    by descending score, ties by row-major location, and truncated to the
    top ``max_peaks`` before softmax normalization.
    """
    if max_peaks < 1:
        raise SchemaError(f"max_peaks must be >= 1, got {max_peaks}")
    # Comparisons run on the stored float32 scores, where they are exact;
    # only candidate scores are widened to float64 for threshold and softmax.
    values = heatmap.values
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
    top = flat.argmax(axis=1)  # row-major scan: ties resolve to the first cell
    threshold = threshold_ratio * flat[every, top].astype(np.float64)
    # A plateaued or negative-valued global maximum may be no strict cell
    # above threshold; keep it regardless.
    strict[every, top] = True
    index = np.flatnonzero(strict)  # much faster than a 2-D np.nonzero
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

    # Softmax with each joint's maximum (its first row) subtracted. One
    # ndarray.sum per joint: np.add.reduceat adds in another order.
    shifted = np.exp(score - np.repeat(score[offsets[:-1]], counts))
    bounds = offsets.tolist()
    sums = np.array([shifted[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])])
    return PeakSet(
        locs=np.stack(np.divmod(cell, w), axis=1),
        scores=score,
        probs=shifted / np.repeat(sums, counts),
        offsets=offsets,
    )


# --- binary heatmap files ---------------------------------------------------

def write_heatmap_file(heatmap: Heatmap, path) -> None:
    """Write the PSHM binary format: 20-byte header + float32 LE payload."""
    n, h, w = heatmap.values.shape
    payload = np.ascontiguousarray(heatmap.values, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, n, h, w))
        fh.write(payload)


def read_heatmap_file(path) -> Heatmap:
    """Read a PSHM file, validating header fields against the payload."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        payload = fh.read()
    if len(header) < _HEADER.size or header[:4] != _MAGIC:
        raise BadMagic(f"{path}: not a PSHM heatmap file")
    _, version, n, h, w = _HEADER.unpack(header)
    if version != _VERSION:
        raise VersionUnsupported(f"{path}: version {version} unsupported (expected {_VERSION})")
    expected = n * h * w * 4
    if len(payload) != expected:
        raise TruncatedPayload(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}"
        )
    values = np.frombuffer(payload, dtype="<f4").reshape(n, h, w)
    return Heatmap(values=values)


# --- synthetic rendering ----------------------------------------------------

def _gaussian(dr: np.ndarray, dc: np.ndarray, inv: float, out: np.ndarray) -> np.ndarray:
    """exp(-(dr**2 + dc**2) * inv) in ``out``, for a column ``dr`` of row
    offsets and a row ``dc`` of column offsets: the one bump formula.

    Each step writes into ``out`` in the formula's order, so values match
    it bit for bit without a fresh temporary per step.
    """
    np.add(dr ** 2, dc ** 2, out=out)
    np.negative(out, out=out)
    np.multiply(out, inv, out=out)
    return np.exp(out, out=out)


@functools.lru_cache(maxsize=1)
def _gaussian_table(height: int, width: int, inv: float) -> np.ndarray:
    """The bump at every integer offset: entry ``(height - 1 + dr, width - 1 + dc)``
    is its value ``dr`` rows and ``dc`` columns from its centre.

    Keyed by ``inv``, not ``peak_sigma``: the table depends on nothing else,
    and equal sigmas of different dtypes can give different ``inv``. Read-only,
    because every render of this shape shares it.
    """
    dr = np.arange(1 - height, height, dtype=np.float64)[:, None]
    dc = np.arange(1 - width, width, dtype=np.float64)[None, :]
    table = _gaussian(dr, dc, inv, np.empty((2 * height - 1, 2 * width - 1)))
    table.flags.writeable = False
    return table


def render_gaussian_heatmap(
    pose: Pose,
    height: int,
    width: int,
    peak_sigma: float,
    distractors: Iterable[tuple[int, tuple[float, float], float]] | None = None,
) -> Heatmap:
    """Render an isotropic Gaussian bump (amplitude 1) at each joint.

    ``distractors`` adds extra bumps as (joint, (row, col), amplitude)
    entries. Values are clipped to [0, 1]. Coordinates are (row, col) at
    grid resolution and must lie inside the grid. A bump on an integer cell
    is a window of one cached table of bumps at integer offsets, whose
    offsets ``rows - row`` are the same exact integers; other bumps are
    computed directly. Both give the formula's values bit for bit.
    """
    if pose.dimension != 2:
        raise OutOfBoundsCoordinate("rendering requires 2D poses")
    if peak_sigma <= 0:
        raise SchemaError(f"peak_sigma must be > 0, got {peak_sigma}")
    rows = np.arange(height, dtype=np.float64)[:, None]
    cols = np.arange(width, dtype=np.float64)[None, :]
    inv = 1.0 / (2.0 * peak_sigma * peak_sigma)
    scratch = np.empty((height, width), dtype=np.float64)

    def bump(row: float, col: float) -> np.ndarray:
        if not (0 <= row <= height - 1 and 0 <= col <= width - 1):
            raise OutOfBoundsCoordinate(
                f"coordinate ({row}, {col}) outside {height}x{width} grid"
            )
        if float(row).is_integer() and float(col).is_integer():
            top, left = height - 1 - int(row), width - 1 - int(col)
            return _gaussian_table(height, width, inv)[top : top + height, left : left + width]
        return _gaussian(rows - row, cols - col, inv, scratch)

    maps = np.zeros((pose.n_joints, height, width), dtype=np.float64)
    for j in range(pose.n_joints):
        if pose.present[j]:
            row, col = pose.coordinates[j]
            maps[j] += bump(row, col)
    for joint, (row, col), amplitude in distractors or ():
        if not 0 <= joint < pose.n_joints:
            raise JointOutOfRange(f"distractor joint {joint} outside [0, {pose.n_joints})")
        maps[joint] += np.multiply(amplitude, bump(row, col), out=scratch)
    return Heatmap(values=np.clip(maps, 0.0, 1.0, out=maps).astype(np.float32))


# --- manifests ----------------------------------------------------------------

def read_manifest(path) -> list[tuple[str, str]]:
    """Read a JSONL manifest of ``{"id": ..., "path": ...}`` lines.

    Relative paths resolve against the manifest's directory. Ids must be
    unique. Every malformed line raises :class:`SchemaError` naming it.
    """
    base = os.path.dirname(os.path.abspath(path))
    return [
        (sample_id, os.path.join(base, _file_path(record["path"], where)))
        for where, sample_id, record in iter_jsonl(path, "path")
    ]


def _file_path(value, where: str) -> str:
    """``value`` if it is a string that ``open`` can take as a file name."""
    if isinstance(value, str) and "\0" not in value:
        try:
            os.fsencode(value)  # rejects lone surrogates that no file name can hold
            return value
        except UnicodeEncodeError:
            pass
    raise SchemaError(f"{where}: 'path' must be a file name string, got {value!r:.60}")


def entropy_of_probs(probs: Sequence[float]) -> float:
    """Shannon entropy in nats; zero-probability entries contribute 0."""
    total = 0.0
    for p in probs:
        if p > 0.0:
            total -= p * math.log(p)
    return total
