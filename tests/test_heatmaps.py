"""Tests for heatmap peak extraction, binary IO and synthetic rendering."""

import json
import math
import os
import struct
import threading

import numpy as np
import pytest

from poselik import (
    BadMagic,
    EmptyPeakSet,
    Heatmap,
    NonFiniteValue,
    OutOfBoundsCoordinate,
    PeakSet,
    Pose,
    SchemaError,
    TruncatedPayload,
    VersionUnsupported,
    bump_peak_sets,
    extract_peak_sets,
    extract_peaks,
    multi_peak_entropy,
    read_heatmap_file,
    read_manifest,
    render_gaussian_heatmap,
    write_heatmap_file,
)

from _helpers import oracle_entropy, peakset_of, pshm_bytes, scan_strict_maxima


def heatmap_of(grid) -> Heatmap:
    arr = np.asarray(grid, dtype=np.float32)
    return Heatmap(values=arr[None, :, :])


class TestHeatmapType:
    def test_validation(self):
        with pytest.raises(SchemaError):
            Heatmap(values=np.zeros((4, 4), dtype=np.float32))  # missing joint axis
        with pytest.raises(SchemaError):
            Heatmap(values=np.zeros((1, 2, 8), dtype=np.float32))  # too short
        bad = np.zeros((1, 4, 4), dtype=np.float32)
        bad[0, 1, 1] = np.nan
        with pytest.raises(NonFiniteValue):
            Heatmap(values=bad)

    def test_values_frozen(self):
        hm = heatmap_of(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            hm.values[0, 0, 0] = 1.0


def two_joint_layout(**changes) -> dict:
    """PeakSet arrays of two one-peak joints, with ``changes`` applied."""
    layout = {
        "locs": np.array([[1, 2], [3, 4]]),
        "scores": np.array([0.9, 0.8]),
        "probs": np.array([1.0, 1.0]),
        "offsets": np.array([0, 1, 2]),
    }
    layout.update(changes)
    return layout


class TestPeakSetLayout:
    def test_valid_layout_is_frozen(self):
        peaks = PeakSet(**two_joint_layout(offsets=[0, 1, 2]))  # lists become arrays
        assert peaks.counts() == (1, 1)
        assert (len(peaks), peaks.joint_count) == (1, 2)  # one sample by default
        assert len(PeakSet(**two_joint_layout(joint_count=1))) == 2
        for array in (peaks.locs, peaks.scores, peaks.probs, peaks.offsets):
            assert not array.flags.writeable

    def test_take_rejects_indices_outside_the_batch(self):
        peaks = PeakSet(**two_joint_layout(joint_count=1))
        for rows in ([2], [-1], [0, 5]):
            with pytest.raises(IndexError, match=r"\[0, 2\)"):
                peaks.take(rows)
        assert (len(peaks.take([])), peaks.take([]).offsets.tolist()) == (0, [0])
        assert peaks.take([1, 1]).locs.tolist() == [[3, 4], [3, 4]]
        three = peaks.take([0, 1, 1])
        for rows in ([0.7], [True, 2.9], ["1"], [1, True], np.array([True])):
            with pytest.raises(IndexError, match="sample indices must be integers"):
                three.take(rows)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"offsets": np.array([0, 1, 3])}, "ends at 2"),
            ({"offsets": np.array([0, 2, 1])}, "never decreases"),
            ({"offsets": np.array([1, 1, 2])}, "starts at 0"),
            ({"offsets": np.array([], dtype=np.int64)}, "starts at 0"),
            ({"offsets": np.array([[0, 1, 2]])}, "1-D integer array"),
            ({"offsets": np.array([0.0, 1.0, 2.0])}, "1-D integer array"),
            ({"locs": np.array([[1.0, 2.0], [3.0, 4.0]])}, r"\(K, 2\) integers"),
            ({"locs": np.array([1, 2])}, r"\(K, 2\) integers"),
            ({"locs": np.array([[1, 2, 0], [3, 4, 0]])}, r"\(K, 2\) integers"),
            ({"scores": np.array([0.9])}, r"scores must be \(2,\)"),
            ({"probs": np.array([1.0])}, r"probs must be \(2,\)"),
            ({"probs": np.ones((2, 1))}, r"probs must be \(2,\)"),
            ({"joint_count": 3}, "2 peak grids are no batch of 3-joint samples"),
            ({"joint_count": 0}, "no batch of 0-joint"),
            ({"joint_count": -1}, "no batch of -1-joint"),
        ],
    )
    def test_rejects_a_layout_its_arrays_cannot_hold(self, changes, message):
        with pytest.raises(SchemaError, match=message):
            PeakSet(**two_joint_layout(**changes))

    @pytest.mark.parametrize("joint_count", [0, None])
    def test_a_set_of_no_joints_and_no_grids_is_empty(self, joint_count):
        """A set of no joints is no batch of samples, whether its joint count
        is given as 0 or taken from its 0 grids."""
        with pytest.raises(EmptyPeakSet, match="needs a joint"):
            PeakSet(np.zeros((0, 2), np.int64), np.zeros(0), np.zeros(0), [0], joint_count)


def softmax(scores) -> np.ndarray:
    shifted = np.exp(np.asarray(scores, dtype=np.float64) - max(scores))
    return shifted / shifted.sum()


def three_peaks(scores, background) -> Heatmap:
    """One joint whose strict maxima hold ``scores``, on a flat background."""
    grid = np.full((6, 6), background)
    for (r, c), score in zip([(1, 1), (1, 4), (4, 1)], scores):
        grid[r, c] = score
    return heatmap_of(grid)


class TestNormalizePeaks:
    """The softmax that turns each joint's peak scores into probabilities."""

    def test_frozen_softmax_values(self):
        peaks = extract_peaks(three_peaks([2.0, 1.0, 0.0], -1.0), threshold_ratio=0.0)
        np.testing.assert_allclose(
            peaks.probs,
            [0.6652409557748219, 0.2447284710547977, 0.09003057317038046],
            atol=1e-15,
        )

    def test_partition_of_unity_and_order(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            hm = Heatmap(values=rng.uniform(-5, 5, size=(3, 8, 8)).astype(np.float32))
            peaks = extract_peaks(hm, threshold_ratio=-1.0)
            for a, b in zip(peaks.offsets[:-1], peaks.offsets[1:]):
                probs, scores = peaks.probs[a:b], peaks.scores[a:b]
                assert math.isclose(probs.sum(), 1.0, abs_tol=1e-12)
                assert np.all(np.diff(scores) <= 0.0)
                assert np.all(np.diff(probs) <= 1e-15)

    def test_shift_invariance(self):
        base = extract_peaks(three_peaks([0.25, 1.75, -2.25], -3.0), threshold_ratio=-2.0)
        shifted = extract_peaks(
            three_peaks([123.25, 124.75, 120.75], 120.0), threshold_ratio=0.0
        )
        np.testing.assert_array_equal(shifted.locs, base.locs)
        np.testing.assert_allclose(shifted.probs, base.probs, atol=1e-12)

    def test_extreme_scores_stable(self):
        peaks = extract_peaks(three_peaks([1000.0, -1000.0], -2000.0), threshold_ratio=-1.0)
        assert peaks.counts() == (2,)
        assert peaks.probs[0] == pytest.approx(1.0)
        assert np.all(np.isfinite(peaks.probs))


class TestLocalMaxima:
    """Strict-local-maxima extraction, on one-joint heatmaps."""

    def test_matches_exhaustive_scan(self):
        """Every reported peak is a strict maximum above threshold, and no
        qualifying cell is dropped while capacity remains."""
        rng = np.random.default_rng(42)
        for _ in range(30):
            grid = rng.uniform(0.0, 1.0, size=(12, 12))
            hm = heatmap_of(grid)
            peaks = extract_peaks(hm, threshold_ratio=0.05, max_peaks=10)
            grid64 = np.asarray(hm.values[0], dtype=np.float64)
            strict = set(scan_strict_maxima(grid64))
            threshold = 0.05 * grid64.max()
            qualifying = sorted(
                ((r, c) for r, c in strict if grid64[r, c] >= threshold),
                key=lambda rc: (-grid64[rc], rc[0], rc[1]),
            )
            assert [tuple(loc) for loc in peaks.locs.tolist()] == qualifying[:10]
            np.testing.assert_allclose(peaks.probs, softmax(peaks.scores), atol=1e-15)

    def test_constant_grid_single_first_cell(self):
        peaks = extract_peaks(heatmap_of(np.full((5, 5), 0.7)))
        assert peaks.counts() == (1,)
        assert peaks.locs.tolist() == [[0, 0]]
        assert peaks.probs[0] == 1.0

    def test_plateau_keeps_first_max_cell(self):
        grid = np.zeros((5, 5))
        grid[2, 2] = grid[2, 3] = 0.9  # two-cell plateau: no strict max there
        peaks = extract_peaks(heatmap_of(grid))
        assert peaks.locs[0].tolist() == [2, 2]

    def test_two_separated_bumps(self):
        pose = Pose([[10.0, 10.0]])
        hm = render_gaussian_heatmap(pose, 64, 64, 2.0, distractors=[(0, (50.0, 50.0), 0.6)])
        peaks = extract_peaks(hm)
        assert peaks.locs.tolist() == [[10, 10], [50, 50]]

    def test_threshold_drops_weak_peaks(self):
        pose = Pose([[10.0, 10.0]])
        hm = render_gaussian_heatmap(pose, 64, 64, 2.0, distractors=[(0, (50.0, 50.0), 0.02)])
        assert extract_peaks(hm, threshold_ratio=0.05).counts() == (1,)
        assert extract_peaks(hm, threshold_ratio=0.01).counts() == (2,)

    def test_max_peaks_prefix_property(self):
        rng = np.random.default_rng(42)
        grid = rng.uniform(0, 1, size=(16, 16))
        hm = heatmap_of(grid)
        full = extract_peaks(hm, max_peaks=10)
        for k in range(1, len(full.locs) + 1):
            head = extract_peaks(hm, max_peaks=k)
            np.testing.assert_array_equal(head.locs, full.locs[:k])

    def test_max_peaks_below_one_rejected(self):
        with pytest.raises(SchemaError):
            extract_peaks(heatmap_of(np.zeros((4, 4))), max_peaks=0)

    @pytest.mark.parametrize(
        "values",
        [
            np.zeros((2, 4, 4), np.float32), np.zeros((1, 2, 4, 4)),
            np.zeros((1, 0, 4, 4), np.float32), np.zeros((1, 2, 2, 4), np.float32),
            np.zeros((1, 2, 4, 2), np.float32),
        ],
        ids=["3-D", "float64", "no joints", "2 rows", "2 columns"],
    )
    def test_a_stack_no_heatmap_can_hold_is_rejected(self, values):
        with pytest.raises(SchemaError, match="float32 stack"):
            extract_peak_sets(values)

    def test_an_empty_stack_has_no_peak_sets(self):
        peaks = extract_peak_sets(np.zeros((0, 2, 4, 4), np.float32))
        assert (len(peaks), peaks.joint_count, peaks.offsets.tolist()) == (0, 2, [0])

    def test_extract_peaks_all_joints(self):
        pose = Pose([[5.0, 5.0], [20.0, 20.0]])
        hm = render_gaussian_heatmap(pose, 32, 32, 1.5)
        peaks = extract_peaks(hm)
        assert peaks.joint_count == 2
        assert peaks.counts() == (1, 1)
        np.testing.assert_array_equal(peaks.locs, [[5, 5], [20, 20]])
        np.testing.assert_array_equal(peaks.offsets, [0, 1, 2])


class TestHeatmapFileFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        hm = Heatmap(values=rng.uniform(0, 1, size=(16, 64, 64)).astype(np.float32))
        path = tmp_path / "maps.pshm"
        write_heatmap_file(hm, path)
        again = read_heatmap_file(path)
        np.testing.assert_array_equal(again.values, hm.values)

    def test_header_layout(self, tmp_path):
        hm = Heatmap(values=np.zeros((2, 4, 6), dtype=np.float32))
        path = tmp_path / "maps.pshm"
        write_heatmap_file(hm, path)
        raw = path.read_bytes()
        magic, version, n, h, w = struct.unpack("<4sIIII", raw[:20])
        assert (magic, version, n, h, w) == (b"PSHM", 1, 2, 4, 6)
        assert len(raw) == 20 + 2 * 4 * 6 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pshm"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            read_heatmap_file(path)
        short = tmp_path / "short.pshm"
        short.write_bytes(b"PS")
        with pytest.raises(BadMagic):
            read_heatmap_file(short)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v2.pshm"
        path.write_bytes(struct.pack("<4sIIII", b"PSHM", 2, 1, 4, 4) + b"\x00" * 64)
        with pytest.raises(VersionUnsupported):
            read_heatmap_file(path)

    def test_truncated_payload(self, tmp_path):
        hm = Heatmap(values=np.zeros((1, 4, 4), dtype=np.float32))
        path = tmp_path / "trunc.pshm"
        write_heatmap_file(hm, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TruncatedPayload):
            read_heatmap_file(path)

    def test_read_into_a_caller_row(self, tmp_path):
        rng = np.random.default_rng(3)
        hm = Heatmap(values=rng.uniform(-2, 2, size=(3, 5, 7)).astype(np.float32))
        path = tmp_path / "maps.pshm"
        write_heatmap_file(hm, path)
        buffer = np.full((2, 3, 5, 7), np.nan, dtype=np.float32)
        shapes = []

        def into(shape):
            shapes.append(shape)
            return buffer[1]

        assert read_heatmap_file(path, into=into) is None
        assert shapes == [(3, 5, 7)]
        assert buffer[1].tobytes() == hm.values.tobytes()
        assert np.isnan(buffer[0]).all()

    def test_read_into_a_caller_row_checks_its_scores(self, tmp_path):
        values = np.zeros((2, 4, 5), np.float32)
        values[1, 2, 3] = np.nan
        path = tmp_path / "nan.pshm"
        path.write_bytes(pshm_bytes(values))
        row = np.empty((2, 4, 5), np.float32)
        with pytest.raises(NonFiniteValue):
            read_heatmap_file(path, into=lambda shape: row)

    @pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs per-process I/O counts")
    def test_a_regular_file_of_another_size_is_not_read_for_its_length(self, tmp_path):
        """A regular file's payload length is its size: trailing bytes are
        reported without being read."""
        path = tmp_path / "long.pshm"
        write_heatmap_file(Heatmap(np.zeros((1, 4, 4), np.float32)), path)
        with open(path, "ab") as fh:
            fh.write(bytes(8 << 20))

        def bytes_read() -> int:
            with open("/proc/self/io", encoding="ascii") as fh:
                return int(dict(line.split(": ") for line in fh.read().splitlines())["rchar"])

        before = bytes_read()
        with pytest.raises(TruncatedPayload, match=f"payload is {64 + (8 << 20)} bytes"):
            read_heatmap_file(path)
        assert bytes_read() - before < 1 << 20

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_stream_longer_than_its_header_implies_is_read_one_byte_past_it(self, tmp_path):
        """A pipe has no size, so the reader stops one byte past the payload
        its header implies and closes it while the writer still writes."""
        write_heatmap_file(Heatmap(np.zeros((3, 16, 16), np.float32)), tmp_path / "maps.pshm")
        data = (tmp_path / "maps.pshm").read_bytes() + bytes(64 << 20)
        pipe = tmp_path / "maps.fifo"
        os.mkfifo(pipe)
        broken = []

        def write():
            try:
                pipe.write_bytes(data)
            except BrokenPipeError:
                broken.append(True)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            with pytest.raises(TruncatedPayload, match="payload is longer than the 3072 bytes"):
                read_heatmap_file(pipe)
        finally:
            writer.join()
        assert broken

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_file_without_a_size_is_read_whole(self, tmp_path):
        """A pipe reports no size, so its payload is read and counted first."""
        hm = Heatmap(values=np.arange(2 * 4 * 4, dtype=np.float32).reshape(2, 4, 4))
        write_heatmap_file(hm, tmp_path / "maps.pshm")
        data = (tmp_path / "maps.pshm").read_bytes()
        pipe = tmp_path / "maps.fifo"
        for payload, expected in ((data, None), (data[:-4], "payload is 124 bytes")):
            os.mkfifo(pipe)
            writer = threading.Thread(target=pipe.write_bytes, args=(payload,))
            writer.start()
            try:
                if expected is None:
                    assert read_heatmap_file(pipe).values.tobytes() == hm.values.tobytes()
                else:
                    with pytest.raises(TruncatedPayload, match=expected):
                        read_heatmap_file(pipe)
            finally:
                writer.join()
                pipe.unlink()


class TestRenderGaussianHeatmap:
    def test_bump_argmax_at_coordinate(self):
        pose = Pose([[10.0, 10.0]])
        hm = render_gaussian_heatmap(pose, 64, 64, 2.0)
        flat = int(np.argmax(hm.values[0]))
        assert (flat // 64, flat % 64) == (10, 10)
        assert hm.values[0, 10, 10] == pytest.approx(1.0)

    def test_values_clipped(self):
        pose = Pose([[10.0, 10.0]])
        hm = render_gaussian_heatmap(
            pose, 32, 32, 2.0, distractors=[(0, (10.0, 11.0), 0.9)]
        )
        assert hm.values.max() <= 1.0

    def test_out_of_bounds_rejected(self):
        with pytest.raises(OutOfBoundsCoordinate):
            render_gaussian_heatmap(Pose([[40.0, 10.0]]), 32, 32, 2.0)
        with pytest.raises(OutOfBoundsCoordinate):
            render_gaussian_heatmap(
                Pose([[10.0, 10.0]]), 32, 32, 2.0, distractors=[(0, (-1.0, 5.0), 0.5)]
            )


class TestManifest:
    def test_relative_paths_resolve_to_manifest_dir(self, tmp_path):
        sub = tmp_path / "data"
        sub.mkdir()
        manifest = sub / "m.jsonl"
        manifest.write_text(
            json.dumps({"id": "a", "path": "a.pshm"})
            + "\n"
            + json.dumps({"id": "b", "path": str(tmp_path / "b.pshm")})
            + "\n",
            encoding="utf-8",
        )
        entries = read_manifest(manifest)
        assert entries == [
            ("a", str(sub / "a.pshm")),
            ("b", str(tmp_path / "b.pshm")),
        ]

    def test_undecodable_path_bytes_name_that_file(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_bytes(b'{"id": "a", "path": "caf\xe9.pshm"}\n')
        ((_, target),) = read_manifest(manifest)
        assert os.fsencode(target) == os.fsencode(str(tmp_path)) + b"/caf\xe9.pshm"

    def test_duplicate_ids_rejected(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            json.dumps({"id": "a", "path": "x"}) + "\n" + json.dumps({"id": "a", "path": "y"}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match="duplicate"):
            read_manifest(manifest)

    def test_malformed_lines_rejected(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("{oops\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_manifest(manifest)
        manifest.write_text(json.dumps({"id": "a"}) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_manifest(manifest)
        manifest.write_text("[" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="invalid JSON"):
            read_manifest(manifest)
        manifest.write_bytes(b'{"id": "a", "path": "x"}\xff\n')
        with pytest.raises(SchemaError, match=":1: invalid JSON"):
            read_manifest(manifest)
        for path in ("a\0b", "\ud800", None, 7, ["a"]):
            manifest.write_text(json.dumps({"id": "a", "path": path}) + "\n", encoding="utf-8")
            with pytest.raises(SchemaError, match=":1: 'path'"):
                read_manifest(manifest)


def entropy_of_probs(probs) -> float:
    """The entropy of one joint's peak probabilities, as a one-joint peak set."""
    return multi_peak_entropy(peakset_of([[((0, k), p, p) for k, p in enumerate(probs)]]))


class TestEntropyHelper:
    def test_frozen_value(self):
        assert entropy_of_probs([0.7, 0.2, 0.1]) == pytest.approx(
            0.8018185525433373, abs=1e-15
        )

    def test_zero_probability_contributes_nothing(self):
        assert entropy_of_probs([1.0, 0.0]) == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            raw = rng.uniform(0.01, 1.0, size=int(rng.integers(1, 9)))
            probs = list(raw / raw.sum())
            assert entropy_of_probs(probs) == pytest.approx(
                oracle_entropy(probs), abs=1e-12
            )


def bumps(centres=((2, 3), (4, 4)), distractors=((), ()), max_peaks=10, side=8):
    """:func:`bump_peak_sets` of one joint per sample on ``side`` x ``side`` grids."""
    centres = np.asarray(centres, dtype=np.float64)[:, None, :]
    return bump_peak_sets(centres, distractors, side, side, 1.5, max_peaks=max_peaks)


# Input checks, each with a call that reaches it and the exact error it raises.
UNREACHED_INPUT_CHECKS = {
    "peak-sigma-zero": (
        lambda: render_gaussian_heatmap(Pose([[2.0, 2.0]]), 8, 8, peak_sigma=0.0),
        SchemaError, "peak_sigma must be > 0, got 0.0",
    ),
    "render-3d-pose": (
        lambda: render_gaussian_heatmap(Pose([[2.0, 2.0, 2.0]]), 8, 8, peak_sigma=1.5),
        OutOfBoundsCoordinate, "rendering requires 2D poses",
    ),
    "max-peaks-zero": (
        lambda: bumps(max_peaks=0), SchemaError, "max_peaks must be >= 1, got 0",
    ),
    "centres-of-another-shape": (
        lambda: bump_peak_sets(np.zeros((2, 1, 3)), [(), ()], 8, 8, 1.5),
        SchemaError,
        "expected (B, J, 2) centres, B distractor lists and a >=3x3 grid, got centres "
        "(2, 1, 3), 2 lists and a 8x8 grid",
    ),
    "one-distractor-list-short": (
        lambda: bumps(distractors=((),)),
        SchemaError,
        "expected (B, J, 2) centres, B distractor lists and a >=3x3 grid, got centres "
        "(2, 1, 2), 1 lists and a 8x8 grid",
    ),
    "grid-too-small": (
        lambda: bumps(centres=((1, 1),), distractors=((),), side=2),
        SchemaError,
        "expected (B, J, 2) centres, B distractor lists and a >=3x3 grid, got centres "
        "(1, 1, 2), 1 lists and a 2x2 grid",
    ),
    "centre-off-the-cells": (
        lambda: bumps(centres=((2, 3), (4, 4.5))),
        SchemaError, "bump_peak_sets takes joint centres on integer cells",
    ),
    "centre-outside-the-grid": (
        lambda: bumps(centres=((2, 3), (4, 8))),
        OutOfBoundsCoordinate, "a joint centre lies outside the 8x8 grid",
    ),
    "distractor-off-the-cells": (
        lambda: bumps(distractors=((), [(0, (1.0, 2.5), 0.5)])),
        SchemaError, "distractor (1.0, 2.5) is not on an integer cell",
    ),
    "distractor-amplitude": (
        lambda: bumps(distractors=([(0, (1, 2), 1.25)], ())),
        SchemaError, "distractor amplitude must be in [0, 1], got 1.25",
    ),
}


@pytest.mark.parametrize("case", sorted(UNREACHED_INPUT_CHECKS))
def test_input_checks_name_the_fault(case):
    call, error, message = UNREACHED_INPUT_CHECKS[case]
    with pytest.raises(Exception) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, message)
