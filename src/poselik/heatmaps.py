"""Heatmap storage, local-maxima extraction and peak normalization.

A heatmap is one dense score grid per joint. Candidate keypoints are the
strict 8-connected local maxima of each grid; their scores are softmax
normalized into a per-joint probability distribution over candidate
locations, which is the representation every downstream likelihood
computation consumes.
"""

from __future__ import annotations

import math
import os
import stat
import struct
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    BadMagic,
    EmptyPeakSet,
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
        _check_grid(values.shape)
        require_finite(values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _check_grid(shape: tuple[int, int, int]) -> None:
    n, h, w = shape
    if n < 1 or h < 3 or w < 3:
        raise SchemaError(f"heatmap needs >=1 joint and a >=3x3 grid, got {shape}")


def require_finite(values: np.ndarray) -> None:
    """Raise :class:`NonFiniteValue` unless every score of ``values`` is finite."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue("heatmap contains NaN or infinite scores")


@dataclass(frozen=True, eq=False)
class PeakSet:
    """Candidate peaks of a batch of samples in flat arrays (compressed sparse rows).

    The batch holds ``joint_count`` grids per sample, at least one (left
    out: the batch is one sample).
    Grid ``g`` owns rows ``offsets[g]:offsets[g + 1]`` of ``locs`` (int
    (row, col) grid cells), ``scores`` (raw heatmap scores) and ``probs``
    (their per-grid softmax). Within a grid, rows are sorted by descending
    score, ties by row-major cell. Every grid holds a peak: building a set
    with an empty grid raises :class:`EmptyPeakSet` naming the first.
    """

    locs: np.ndarray  # (K, 2) int64
    scores: np.ndarray  # (K,) float64
    probs: np.ndarray  # (K,) float64
    offsets: np.ndarray  # (grids + 1,) int64, offsets[0] == 0, offsets[-1] == K
    joint_count: int | None = None

    def __post_init__(self):
        names = ("locs", "scores", "probs", "offsets")
        arrays = [np.asarray(getattr(self, name)) for name in names]
        locs, scores, probs, offsets = arrays
        if locs.ndim != 2 or locs.shape[1] != 2 or locs.dtype.kind not in "iu":
            raise SchemaError(f"peak locs must be (K, 2) integers, got {locs.dtype} {locs.shape}")
        for name, array in (("scores", scores), ("probs", probs)):
            if array.shape != (len(locs),):
                raise SchemaError(f"peak {name} must be ({len(locs)},), got {array.shape}")
        if not (
            offsets.ndim == 1
            and offsets.dtype.kind in "iu"
            and offsets[:1].tolist() == [0]
            and offsets[-1] == len(locs)
            and (offsets[1:] >= offsets[:-1]).all()  # never decreases
        ):
            raise SchemaError(
                f"peak offsets must be a 1-D integer array that starts at 0, never "
                f"decreases and ends at {len(locs)}, got {offsets.ravel()[:10].tolist()}"
            )
        grids = len(offsets) - 1
        joints = grids if self.joint_count is None else self.joint_count
        if joints == grids == 0:
            raise EmptyPeakSet("a peak set needs a joint")
        if not (joints >= 1 and grids % joints == 0):
            raise SchemaError(f"{grids} peak grids are no batch of {joints}-joint samples")
        empty = np.flatnonzero(offsets[1:] == offsets[:-1])
        if empty.size:
            sample, joint = divmod(int(empty[0]), joints)
            raise EmptyPeakSet(f"sample {sample} joint {joint} has no candidate peaks")
        for name, array in zip(names, arrays):
            array.flags.writeable = False  # one peak set is shared by every scorer
            object.__setattr__(self, name, array)
        object.__setattr__(self, "joint_count", int(joints))

    def __len__(self) -> int:  # samples
        return (len(self.offsets) - 1) // self.joint_count

    def counts(self) -> tuple[int, ...]:
        """Peaks per grid, in grid order."""
        return tuple(np.diff(self.offsets).tolist())

    def take(self, samples) -> "PeakSet":
        """The samples at integer indices ``samples``, in that order, as a new batch."""
        if not all(type(s) is not bool and isinstance(s, (int, np.integer)) for s in samples):
            raise IndexError(f"sample indices must be integers, got {list(samples)[:5]}")
        samples = np.asarray(samples, dtype=np.int64)
        if np.array_equal(samples, np.arange(len(self))):
            return self  # read-only arrays: every sample in order is this batch
        if samples.size and not (samples.min() >= 0 and samples.max() < len(self)):
            raise IndexError(f"sample indices must be in [0, {len(self)})")
        n = self.joint_count
        grids = (samples[:, None] * n + np.arange(n)).ravel()
        counts = self.offsets[grids + 1] - self.offsets[grids]
        ends = np.cumsum(counts)
        # Each new row: its grid's first old row plus its rank in the grid.
        rows = np.repeat(self.offsets[grids] + counts - ends, counts) + np.arange(counts.sum())
        offsets = np.concatenate([[0], ends])
        return PeakSet(self.locs[rows], self.scores[rows], self.probs[rows], offsets, n)


def extract_peaks(
    heatmap: Heatmap,
    threshold_ratio: float = DEFAULT_THRESHOLD_RATIO,
    max_peaks: int = DEFAULT_MAX_PEAKS,
) -> PeakSet:
    """Candidate peaks of every joint of one heatmap: a batch of one from
    :func:`extract_peak_sets`.

    A peak is a cell strictly greater than its 8-connected neighbors
    (border cells compare only existing neighbors) with score at least
    ``threshold_ratio`` times its joint's global maximum. The global
    maximum cell is always kept, so a constant grid yields the single
    row-major-first cell with probability 1. Each joint's peaks are sorted
    by descending score, ties by row-major location, and truncated to the
    top ``max_peaks`` before softmax normalization.
    """
    return extract_peak_sets(heatmap.values[None], threshold_ratio, max_peaks)


def extract_peak_sets(
    values: np.ndarray,
    threshold_ratio: float = DEFAULT_THRESHOLD_RATIO,
    max_peaks: int = DEFAULT_MAX_PEAKS,
) -> PeakSet:
    """The peaks of a ``(B, J, H, W)`` float32 stack of :class:`Heatmap`
    values, a batch of ``B``, found in one pass over all ``B * J`` grids.

    Each sample's peaks are what :func:`extract_peaks` defines, whatever
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
    return _peak_sets(grid, cell, score, n, w, max_peaks)


def _peak_sets(grid, cell, score, joints, width, max_peaks) -> PeakSet:
    """The batch of the samples of ``joints`` consecutive grids each, from
    the (grid, flat cell, float64 score) of every grid's peaks, each listed
    once: each grid's global maximum and its other kept strict maxima.
    Every grid lists its maximum, so the grids are those ``grid`` counts."""
    max_peaks = min(max_peaks, len(cell))  # no grid has more: keeps np.minimum in int64
    order = np.lexsort((cell, -score, grid))
    found = np.bincount(grid)
    grids = len(found)
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
    return PeakSet(
        locs=np.stack(np.divmod(cell, width), axis=1),
        scores=score,
        probs=shifted / np.repeat(sums, counts),
        offsets=offsets,
        joint_count=joints,
    )


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


def read_heatmap_file(path, into: Callable[[tuple[int, int, int]], np.ndarray] | None = None):
    """Read a PSHM file, validating its header against its payload.

    Without ``into``, return the checked :class:`Heatmap`. With ``into``, a
    callable that takes the ``(joints, H, W)`` shape and returns a writable
    C-contiguous float32 array of that shape, read the payload straight
    into that array, check its scores and return ``None``. ``into`` is
    called only once the header, payload length and grid shape are valid,
    so a bad file is never given an array.

    Errors come in this order: bad magic, version, payload length (short or
    trailing bytes), grid shape, a NaN or infinite score. A regular file's
    payload length is its size less the header's; from any other file, such
    as a pipe, at most one byte past the payload its header implies is read.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size or header[:4] != _MAGIC:
            raise BadMagic(f"{path}: not a PSHM heatmap file")
        _, version, n, h, w = _HEADER.unpack(header)
        if version != _VERSION:
            raise VersionUnsupported(
                f"{path}: version {version} unsupported (expected {_VERSION})"
            )
        expected = n * h * w * 4
        info = os.fstat(fh.fileno())
        payload = None
        if stat.S_ISREG(info.st_mode):
            size = info.st_size - _HEADER.size
        else:
            payload = _read_at_most(fh, expected + 1)
            size = len(payload)
        if size != expected:
            if payload is not None and size > expected:  # read only one byte past it
                raise TruncatedPayload(
                    f"{path}: payload is longer than the {expected} bytes its header implies"
                )
            raise TruncatedPayload(f"{path}: payload is {size} bytes, header implies {expected}")
        _check_grid((n, h, w))
        values = np.empty((n, h, w), np.float32) if into is None else into((n, h, w))
        if payload is not None:
            values[...] = np.frombuffer(payload, dtype="<f4").reshape(n, h, w)
        else:
            got = fh.readinto(values)  # byte count: the file may shrink while read
            if got != expected:
                raise TruncatedPayload(
                    f"{path}: payload is {got} bytes, header implies {expected}"
                )
            if sys.byteorder == "big":
                values.byteswap(inplace=True)
    if into is None:
        return Heatmap(values=values)
    require_finite(values)


def _read_at_most(fh, limit: int) -> bytes:
    """The first ``limit`` bytes of ``fh``, or all if it holds fewer, read
    in pieces: memory grows with the bytes read, not with ``limit``."""
    parts = []
    while limit and (part := fh.read(min(limit, 1 << 20))):
        parts.append(part)
        limit -= len(part)
    return b"".join(parts)


# --- synthetic rendering ----------------------------------------------------

def _gaussian(dr: np.ndarray, dc: np.ndarray, inv: float) -> np.ndarray:
    """exp(-(dr**2 + dc**2) * inv), for a column ``dr`` of row offsets and a
    row ``dc`` of column offsets: the one bump formula.

    Its one grid-sized array is the result, which takes each step in
    place: ``x * -inv`` has the bits of ``-x * inv``, and a temporary freed
    here cost ``simulate`` about 0.4 MB of peak RSS.

    A tiny sigma makes ``inv`` huge or infinite. The product then overflows
    to ``-inf``, whose ``exp`` is the bump's true 0, or is ``0.0 * -inf``,
    a NaN at the centre that :func:`require_finite` reports. Neither is
    worth a numpy warning.
    """
    exponent = dr ** 2 + dc ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        exponent *= -inv
    return np.exp(exponent, out=exponent)


def _bump_inv(peak_sigma: float) -> float:
    """``1 / (2 * peak_sigma**2)``, the scale of every bump's exponent.

    A square that underflows to 0 gives ``inf``, as a slightly larger
    sigma's overflowing quotient does, so both reach :func:`_gaussian`'s
    zeros and NaN centres rather than a ``ZeroDivisionError``.
    """
    if peak_sigma <= 0:
        raise SchemaError(f"peak_sigma must be > 0, got {peak_sigma}")
    square = 2.0 * peak_sigma * peak_sigma
    return 1.0 / square if square else math.inf


def _gaussian_table(height: int, width: int, inv: float) -> np.ndarray:
    """The bump at every integer offset: entry ``(height - 1 + dr, width - 1 + dc)``
    is its value ``dr`` rows and ``dc`` columns from its centre. Read-only:
    :func:`bump_peak_sets` only gathers from it.
    """
    dr = np.arange(1 - height, height, dtype=np.float64)[:, None]
    dc = np.arange(1 - width, width, dtype=np.float64)[None, :]
    table = _gaussian(dr, dc, inv)
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
    grid resolution and must lie inside the grid.

    Each joint's bumps are summed in float64, its own first, then its
    distractors in the given order, clipped and cast to float32.
    """
    if pose.dimension != 2:
        raise OutOfBoundsCoordinate("rendering requires 2D poses")
    inv = _bump_inv(peak_sigma)
    n = pose.n_joints
    centres = pose.coordinates.tolist()
    rows = np.arange(height, dtype=np.float64)[:, None]
    cols = np.arange(width, dtype=np.float64)[None, :]
    maps = np.empty((n, height, width), dtype=np.float64)
    for j in range(n):
        _check_cell(*centres[j], height, width)
        maps[j] = _gaussian(rows - centres[j][0], cols - centres[j][1], inv)
    for joint, (row, col), amplitude in distractors or ():
        joint = _joint_index(joint, n)
        _check_cell(row, col, height, width)
        maps[joint] += amplitude * _gaussian(rows - row, cols - col, inv)
    return Heatmap(values=np.clip(maps, 0.0, 1.0, out=maps).astype(np.float32))


def _check_cell(row: float, col: float, height: int, width: int) -> None:
    if not (0 <= row <= height - 1 and 0 <= col <= width - 1):
        raise OutOfBoundsCoordinate(f"coordinate ({row}, {col}) outside {height}x{width} grid")


def _joint_index(joint, joints: int) -> int:
    """A distractor's ``joint`` as the index of one of a sample's ``joints`` grids."""
    if isinstance(joint, bool) or not isinstance(joint, (int, np.integer)):
        raise SchemaError(f"distractor joint {joint!r} is not an integer")
    if not 0 <= joint < joints:
        raise JointOutOfRange(f"distractor joint {joint} outside [0, {joints})")
    return int(joint)


def bump_peak_sets(
    centres,
    distractors: Sequence[Iterable[tuple[int, tuple[float, float], float]]],
    height: int,
    width: int,
    peak_sigma: float,
    threshold_ratio: float = DEFAULT_THRESHOLD_RATIO,
    max_peaks: int = DEFAULT_MAX_PEAKS,
) -> PeakSet:
    """The batch :func:`extract_peak_sets` finds in the grids
    :func:`render_gaussian_heatmap` renders, found without rendering a grid.

    ``centres`` is a ``(B, J, 2)`` array of each sample's joint cells, and
    ``distractors[b]`` lists sample ``b``'s ``(joint, (row, col), amplitude)``
    bumps. Every bump sits on an integer
    cell of the grid, and every amplitude lies in [0, 1].

    A cell's score is ``float32(clip(sum(a_k * T[cell - c_k]), 0, 1))``
    over its joint's bumps ``c_k`` (its centre first, with ``a = 1``, then
    its distractors in the given order), where ``T`` is the table of the
    bump at every integer offset: the renderer's values for a bump on a
    cell, and its float64 products and sums, so the same bits. A joint's
    maximum is 1, at its centre. A cell farther
    than :func:`_patch_radius` from each of its joint's bumps scores below
    the threshold, so it is no peak and no maximum: only a square patch of
    cells around each bump is scored, its strict maxima tested inside it,
    and a peak found in several overlapping patches kept once.
    """
    if max_peaks < 1:
        raise SchemaError(f"max_peaks must be >= 1, got {max_peaks}")
    inv = _bump_inv(peak_sigma)
    centres = np.asarray(centres, dtype=np.float64)
    if not (centres.ndim == 3 and centres.shape[1] >= 1 and centres.shape[2] == 2
            and len(distractors) == len(centres) and min(height, width) >= 3):
        raise SchemaError(
            f"expected (B, J, 2) centres, B distractor lists and a >=3x3 grid, got centres "
            f"{centres.shape}, {len(distractors)} lists and a {height}x{width} grid"
        )
    b, n, _ = centres.shape
    if not np.all(centres == np.rint(centres)):
        raise SchemaError("bump_peak_sets takes joint centres on integer cells")
    if not np.all((centres >= 0) & (centres <= (height - 1, width - 1))):
        raise OutOfBoundsCoordinate(f"a joint centre lies outside the {height}x{width} grid")
    # Every bump as a (row, col, amplitude) row: each grid's centre, then the
    # distractors in the given order. A stable sort by grid puts each grid's
    # bumps together in the renderer's order, its centre first.
    extra = np.fromiter(  # (grid, row, col, amplitude) rows
        _distractor_rows(distractors, n, height, width), np.dtype((np.float64, 4))
    )
    owner = np.concatenate([np.arange(b * n), extra[:, 0].astype(np.int64)])
    centre_rows = np.column_stack([centres.reshape(-1, 2), np.ones(b * n)])
    bumps = np.concatenate([centre_rows, extra[:, 1:]])[np.argsort(owner, kind="stable")]
    counts = np.bincount(owner)
    starts = np.cumsum(counts) - counts

    table = _gaussian_table(height, width, inv).reshape(-1)
    none = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))  # of an empty batch
    candidates, maxima = [none], [none]
    for count in np.flatnonzero(np.bincount(counts)).tolist():  # grids with as many bumps
        grids = np.flatnonzero(counts == count)
        terms = bumps[starts[grids, None] + np.arange(count)]  # (grids, count, 3)
        radius = _patch_radius(
            float(terms[:, :, 2].sum(axis=1).max()), inv, threshold_ratio, max(height, width)
        )
        # A patch runs at most one cell past the grid (see _patch_peaks). The
        # whole grid is the same patch around every bump: one bump takes it.
        side = (min(2 * radius + 1, height + 2), min(2 * radius + 1, width + 2))
        patches = 1 if side == (height + 2, width + 2) else count
        step = max(1, _CANDIDATE_SLICE // (patches * side[0] * side[1]))  # grids per pass
        for lo in range(0, len(grids), step):
            found, top = _patch_peaks(
                grids[lo : lo + step], terms[lo : lo + step], patches, side,
                table, height, width, threshold_ratio,
            )
            candidates.append(found)
            maxima.append(top)
    # Overlapping patches find a candidate more than once: keep it once.
    grid, cell, score = (np.concatenate(parts) for parts in zip(*candidates))
    key = grid * (height * width) + cell
    order = np.argsort(key)
    once = order[np.diff(key[order], prepend=-1) != 0]
    grid, cell, score = (
        np.concatenate([part[once], *parts])
        for part, parts in zip((grid, cell, score), zip(*maxima))
    )
    return _peak_sets(grid, cell, score, n, width, max_peaks)


def _distractor_rows(distractors, joints: int, height: int, width: int):
    """The checked (grid, row, col, amplitude) of each distractor, sample by sample."""
    for i, sample in enumerate(distractors):
        for joint, (row, col), amplitude in sample:
            joint = _joint_index(joint, joints)
            _check_cell(row, col, height, width)
            if not (float(row).is_integer() and float(col).is_integer()):
                raise SchemaError(f"distractor ({row}, {col}) is not on an integer cell")
            if not 0.0 <= amplitude <= 1.0:
                raise SchemaError(f"distractor amplitude must be in [0, 1], got {amplitude}")
            yield i * joints + joint, row, col, amplitude


def _patch_radius(total: float, inv: float, ratio: float, limit: int) -> int:
    """Half-width of the square patch around each bump of a joint whose
    amplitudes add up to ``total`` (at least its centre's 1), or ``limit``,
    the grid's larger side, when any cell may be a candidate.

    A candidate peak and the joint's maximum 1 both cast to float32 at or
    above ``min(ratio, 1)``, so their float64 sums are at least ``floor``.
    A cell farther than ``reach`` from every bump sums to less, so every
    candidate lies within ``floor(reach)`` cells of a bump, and one more
    cell holds its 8 neighbors.
    """
    if not (ratio > 0 and inv > 0):
        return limit
    # Room for rounding: 2**-20 relative, and a float32 subnormal step absolute.
    floor = max(min(ratio, 1.0) * (1.0 - 2.0**-20) - 2.0**-149, 2.0**-151)
    reach = math.sqrt(math.log(total / floor) / inv)
    return limit if reach >= limit else math.floor(reach) + 1


def _patch_peaks(grids, terms, patches, side, table, height, width, threshold_ratio):
    """((grid, cell, score) of the candidate peaks, (grid, cell, score) of
    the maximum) of ``grids``, whose bumps ``terms`` are (row, col,
    amplitude) rows, from the ``side`` (rows, columns) patches centred on
    their first ``patches`` bumps."""
    bump_rows, bump_cols = terms[:, :, 0].astype(np.int64), terms[:, :, 1].astype(np.int64)
    # A patch runs at most one cell past the grid, sliding inward where it
    # would run further, so its inner cells all lie in the grid. Its cells
    # outside the grid read a copy of the nearest cell inside, then -inf.
    lines = []
    for centre, size, length in (
        (bump_rows[:, :patches], height, side[0]), (bump_cols[:, :patches], width, side[1])
    ):
        cell = np.clip(centre - length // 2, -1, size + 1 - length)[:, :, None] + np.arange(length)
        lines.append((cell, np.clip(cell, 0, size - 1)))
    (rows, rows_in), (cols, cols_in) = lines
    span = 2 * width - 1  # the table's row stride
    for k in range(terms.shape[1]):  # the renderer's order: centre first
        dr = (height - 1 + rows_in - bump_rows[:, k, None, None]) * span
        dc = width - 1 + cols_in - bump_cols[:, k, None, None]
        bump = table[dr[..., :, None] + dc[..., None, :]]
        if k:
            total += terms[:, k, 2, None, None, None] * bump
        else:
            total = bump
    values = np.clip(total, 0.0, 1.0, out=total).astype(np.float32)
    require_finite(values)
    values[np.nonzero(rows != rows_in)] = -np.inf
    g, p, col = np.nonzero(cols != cols_in)
    values[g, p, :, col] = -np.inf

    m, size = len(grids), height * width
    ids = (rows_in * width)[..., :, None] + cols_in[..., None, :]  # grid cell of each patch cell
    best = values.reshape(m, -1).max(axis=1)
    at = np.flatnonzero(values == best[:, None, None, None])
    top = np.full(m, size)
    np.minimum.at(top, at // (values.size // m), ids.reshape(-1)[at])
    best = best.astype(np.float64)
    # Candidates: the inner cells above both row neighbors, the grid's
    # maximum left out. On a smooth bump that is about one cell per row.
    candidate = np.zeros(values.shape, dtype=bool)
    inner = values[..., 1:-1, 1:-1]
    test = candidate[..., 1:-1, 1:-1]
    np.greater(inner, values[..., 1:-1, :-2], out=test)
    test &= inner > values[..., 1:-1, 2:]
    test &= ids[..., 1:-1, 1:-1] != top[:, None, None, None]
    patch, cell, score = _strict_maxima(
        values.reshape(m * patches, -1), candidate.reshape(m * patches, -1), 0, m * patches,
        np.repeat(threshold_ratio * best, patches), values.shape[-1],
    )
    found = grids[patch // patches], ids.reshape(m * patches, -1)[patch, cell], score
    return found, (grids, top, best)


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
