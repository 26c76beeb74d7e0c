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

# Candidate cells that peak extraction tests at once. Bounds its index arrays
# for any threshold: at threshold 0 every cell of a non-negative grid is a
# candidate.
_CANDIDATE_SLICE = 1 << 16


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
        require_finite(values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def require_finite(values: np.ndarray) -> None:
    """Raise :class:`NonFiniteValue` unless every score of ``values`` is finite."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue("heatmap contains NaN or infinite scores")


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
    """Candidate peaks of every joint of one heatmap: a stack of one for
    :func:`extract_peak_sets`.

    A peak is a cell strictly greater than its 8-connected neighbors
    (border cells compare only existing neighbors) with score at least
    ``threshold_ratio`` times its joint's global maximum. The global
    maximum cell is always kept, so a constant grid yields the single
    row-major-first cell with probability 1. Each joint's peaks are sorted
    by descending score, ties by row-major location, and truncated to the
    top ``max_peaks`` before softmax normalization.
    """
    return extract_peak_sets(heatmap.values[None], threshold_ratio, max_peaks)[0]


def extract_peak_sets(
    values: np.ndarray,
    threshold_ratio: float = DEFAULT_THRESHOLD_RATIO,
    max_peaks: int = DEFAULT_MAX_PEAKS,
) -> list[PeakSet]:
    """The peaks of each sample of a ``(B, J, H, W)`` float32 stack of
    :class:`Heatmap` values, found in one pass over all ``B * J`` grids.

    Each sample's peak set is what :func:`extract_peaks` defines, whatever
    the other samples of the stack hold. The threshold is applied first, so
    the 8-neighbor test reads only the cells at or above it, in slices of
    about :data:`_CANDIDATE_SLICE` cells: the grid maxima and the threshold
    compare are the only passes over the whole float grids.
    """
    if max_peaks < 1:
        raise SchemaError(f"max_peaks must be >= 1, got {max_peaks}")
    if not (values.ndim == 4 and values.dtype == np.float32 and values.shape[1] >= 1
            and min(values.shape[2:]) >= 3):
        raise SchemaError(
            "expected a (B, J, H, W) float32 stack with >=1 joint and >=3x3 grids, "
            f"got {values.dtype} {values.shape}"
        )
    b, n, h, w = values.shape
    grids, size = b * n, h * w
    flat = values.reshape(grids, size)  # a view of a C-contiguous stack
    every = np.arange(grids)
    top = flat.argmax(axis=1)  # row-major scan: ties resolve to the first cell
    threshold = threshold_ratio * flat[every, top].astype(np.float64)
    # Scores are float32 and the threshold float64: the float32 compare
    # against the next float32 below the threshold keeps every cell the
    # exact test keeps, and a few more that it then drops. Each grid's
    # maximum is left out of the test and kept whatever it gives: a
    # plateaued or negative-valued maximum may be no strict cell above
    # threshold.
    with np.errstate(over="ignore"):  # a threshold beyond float32 rounds to inf
        below = np.nextafter(threshold.astype(np.float32), np.float32(-np.inf))
    candidate = flat >= below[:, None]
    candidate[every, top] = False
    bounds = [0, grids]
    if np.count_nonzero(candidate) > _CANDIDATE_SLICE:
        # Grids whose candidates add up to about _CANDIDATE_SLICE share a slice.
        slice_of = np.cumsum(np.count_nonzero(candidate, axis=1)) // _CANDIDATE_SLICE
        bounds = [0, *(np.flatnonzero(np.diff(slice_of)) + 1).tolist(), grids]
    kept = [
        _strict_maxima(flat, candidate, lo, hi, threshold, w)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    kept.append((every, top, flat[every, top].astype(np.float64)))
    grid, cell, score = (np.concatenate(parts) for parts in zip(*kept))

    order = np.lexsort((cell, -score, grid))
    found = np.bincount(grid, minlength=grids)
    rank = np.arange(len(order)) - np.repeat(np.cumsum(found) - found, found)
    order = order[rank < max_peaks]
    cell, score = cell[order], score[order]
    counts = np.minimum(found, max_peaks)
    offsets = np.concatenate([[0], np.cumsum(counts)])

    # Softmax with each joint's maximum (its first row) subtracted. Each
    # joint's sum is one row of a row sum over the joints with its count,
    # which adds like ndarray.sum on the joint alone (np.add.reduceat adds
    # in another order).
    shifted = np.exp(score - np.repeat(score[offsets[:-1]], counts))
    sums = np.empty(grids)
    for k in np.flatnonzero(np.bincount(counts)).tolist():
        rows = np.flatnonzero(counts == k)
        sums[rows] = shifted[offsets[rows, None] + np.arange(k)].sum(axis=1)
    probs = shifted / np.repeat(sums, counts)
    locs = np.stack(np.divmod(cell, w), axis=1)
    starts = offsets[::n].tolist()  # each sample's first peak row, then the total
    # Copies, not views: a peak set may outlive its chunk by far (a pool holds
    # thousands), and a view keeps a second array object and the whole
    # chunk's arrays alive.
    return [
        PeakSet(
            locs=locs[a:z].copy(),
            scores=score[a:z].copy(),
            probs=probs[a:z].copy(),
            offsets=offsets[i * n : (i + 1) * n + 1] - a,
        )
        for i, (a, z) in enumerate(zip(starts[:-1], starts[1:]))
    ]


def _strict_maxima(flat, candidate, lo, hi, threshold, w):
    """(grid, cell, float64 score) of the candidates of grids ``lo:hi`` that
    are at or above their grid's threshold and strictly greater than each
    existing 8-neighbor. Clears ``candidate``'s first and last columns."""
    size = flat.shape[1]
    values = flat.reshape(-1)
    # The row neighbors go first: on a smooth bump they reject all but about
    # one cell per row, so the rest of the test reads few cells. Cells of
    # the first and last column, which miss one row neighbor, are few and
    # test apart, so the many others need no column arithmetic.
    rows = candidate[lo:hi].reshape(-1, w)
    first = np.flatnonzero(rows[:, 0]) * w + lo * size
    last = np.flatnonzero(rows[:, -1]) * w + (lo * size + w - 1)
    rows[:, 0] = rows[:, -1] = False
    inner = np.flatnonzero(rows) + lo * size
    score = values[inner]
    index = np.concatenate([
        inner[(score > values[inner - 1]) & (score > values[inner + 1])],
        first[values[first] > values[first + 1]],
        last[values[last] > values[last - 1]],
    ])
    grid = index // size  # floor division and subtraction: much faster than np.divmod
    cell = index - grid * size
    score = values[index]
    wide = score.astype(np.float64)
    row = cell // w
    col = cell - row * w
    first_row, last_row = row == 0, row == size // w - 1
    first_col, last_col = col == 0, col == w - 1

    def greater(step, outside):
        # An outside neighbor's index may leave the stack; "clip" keeps the
        # read in bounds, and its value is never used.
        return (score > values.take(index + step, mode="clip")) | outside

    keep = (
        (wide >= threshold[grid])
        & greater(-w - 1, first_row | first_col) & greater(-w, first_row)
        & greater(-w + 1, first_row | last_col) & greater(w - 1, last_row | first_col)
        & greater(w, last_row) & greater(w + 1, last_row | last_col)
    )
    return grid[keep], cell[keep], wide[keep]


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
    grid resolution and must lie inside the grid. The grids are what
    :func:`render_gaussian_into` writes, checked like any :class:`Heatmap`.
    """
    values = np.empty((pose.n_joints, height, width), dtype=np.float32)
    render_gaussian_into(values, pose, peak_sigma, distractors)
    return Heatmap(values=values)


def render_gaussian_into(
    out: np.ndarray,
    pose: Pose,
    peak_sigma: float,
    distractors: Iterable[tuple[int, tuple[float, float], float]] | None = None,
) -> None:
    """Write the grids :func:`render_gaussian_heatmap` renders into ``out``,
    a float32 ``(joints, height, width)`` array, without its finiteness check.

    A bump on an integer cell is a window of one cached table of bumps at
    integer offsets, whose offsets ``rows - row`` are the same exact
    integers; other bumps are computed directly. Both give the formula's
    values bit for bit. A bump lies in [0, 1], and ``0.0 + bump`` is the
    bump, so a joint without a distractor is its bump cast on assignment,
    which rounds like ``astype(np.float32)``. Only a joint with distractors
    is summed in float64, in the given order, then clipped.
    """
    if pose.dimension != 2:
        raise OutOfBoundsCoordinate("rendering requires 2D poses")
    if peak_sigma <= 0:
        raise SchemaError(f"peak_sigma must be > 0, got {peak_sigma}")
    if out.dtype != np.float32 or out.ndim != 3 or len(out) != pose.n_joints:
        raise SchemaError(
            f"expected a float32 ({pose.n_joints}, H, W) grid, got {out.dtype} {out.shape}"
        )
    n, height, width = out.shape
    centres = pose.coordinates.tolist()
    present = pose.present.tolist()
    extra = [[] for _ in range(n)]  # each joint's distractors, in the given order

    def check(row: float, col: float) -> None:
        if not (0 <= row <= height - 1 and 0 <= col <= width - 1):
            raise OutOfBoundsCoordinate(
                f"coordinate ({row}, {col}) outside {height}x{width} grid"
            )

    for j in range(n):
        if present[j]:
            check(*centres[j])
    for joint, (row, col), amplitude in distractors or ():
        if not 0 <= joint < n:
            raise JointOutOfRange(f"distractor joint {joint} outside [0, {n})")
        check(row, col)
        extra[joint].append((row, col, amplitude))

    rows = np.arange(height, dtype=np.float64)[:, None]
    cols = np.arange(width, dtype=np.float64)[None, :]
    inv = 1.0 / (2.0 * peak_sigma * peak_sigma)
    scratch = np.empty((height, width), dtype=np.float64)

    def bump(row: float, col: float) -> np.ndarray:
        if float(row).is_integer() and float(col).is_integer():
            top, left = height - 1 - int(row), width - 1 - int(col)
            return _gaussian_table(height, width, inv)[top : top + height, left : left + width]
        return _gaussian(rows - row, cols - col, inv, scratch)

    total = np.empty((height, width), dtype=np.float64)  # a joint with distractors
    for j in range(n):
        if not extra[j]:
            out[j] = bump(*centres[j]) if present[j] else 0.0
            continue
        np.copyto(total, bump(*centres[j]) if present[j] else 0.0)
        for row, col, amplitude in extra[j]:
            total += np.multiply(amplitude, bump(row, col), out=scratch)
        out[j] = np.clip(total, 0.0, 1.0, out=total)


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
