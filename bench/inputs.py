"""Seeded benchmark inputs, written with numpy and json only.

Nothing here imports poselik: the PSHM files, skeletons, models and
simulation configs follow the formats documented in the README, so the
inputs stay the same whatever the code under test does.  Every sample
gets its own heatmap file, so no content cache can serve a repeat.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

PSHM_HEADER = struct.Struct("<4sIIII")  # magic, version, joints, height, width
PEAK_SIGMA = 1.5

# COCO keypoint order; the tree is rooted at the nose, which has four
# children, and both shoulders branch into an arm and a hip.
COCO_JOINTS = (
    "nose", "l_eye", "r_eye", "l_ear", "r_ear", "l_shoulder", "r_shoulder",
    "l_elbow", "r_elbow", "l_wrist", "r_wrist", "l_hip", "r_hip",
    "l_knee", "r_knee", "l_ankle", "r_ankle",
)
COCO_LINKS = (
    (0, 1), (0, 2), (1, 3), (2, 4), (0, 5), (0, 6), (5, 7), (7, 9),
    (6, 8), (8, 10), (5, 11), (6, 12), (11, 13), (13, 15), (12, 14), (14, 16),
)
# (row, col) of each joint on a 128x128 grid.
COCO_TEMPLATE = np.array([
    (18, 64), (14, 60), (14, 68), (16, 54), (16, 74), (34, 50), (34, 78),
    (56, 44), (56, 84), (76, 40), (76, 88), (70, 54), (70, 74),
    (94, 52), (94, 76), (114, 52), (114, 76),
], dtype=np.float64)
COCO_JOINT_SD = 1.5
COCO_COVARIANCE = [[6.0, 1.0], [1.0, 6.0]]


def pshm_bytes(values: np.ndarray) -> bytes:
    """PSHM v1: 20-byte little-endian header, then float32 row-major scores."""
    joints, height, width = values.shape
    header = PSHM_HEADER.pack(b"PSHM", 1, joints, height, width)
    return header + np.ascontiguousarray(values, dtype="<f4").tobytes()


def json_bytes(document) -> bytes:
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")


class InputSet:
    """Files written into one directory, with one SHA-256 over names and bytes."""

    def __init__(self, directory: str):
        self.directory = directory
        self.digest = hashlib.sha256()
        os.makedirs(directory, exist_ok=True)

    def write(self, name: str, data: bytes) -> str:
        path = os.path.join(self.directory, name)
        with open(path, "wb") as fh:
            fh.write(data)
        self.digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        self.digest.update(data)
        return path


def render(height: int, width: int, bumps) -> np.ndarray:
    """Grids with a Gaussian bump per (joint, row, col, amplitude), clipped to [0, 1].

    Centres are whole cells, so each bump is the outer product of two rows of
    one table of ``math.exp`` values, summed elementwise in bump order: the
    same bytes on any machine, with no BLAS or SIMD ``exp`` in the way.
    """
    joint, row, col, amplitude = (np.array(v) for v in zip(*bumps))
    table = np.array([math.exp(-d * d / (2.0 * PEAK_SIGMA ** 2)) for d in range(max(height, width))])
    rows = amplitude[:, None] * table[np.abs(np.arange(height) - row[:, None].astype(int))]
    cols = table[np.abs(np.arange(width) - col[:, None].astype(int))]
    maps = np.stack([(rows[joint == j][:, :, None] * cols[joint == j][:, None, :]).sum(axis=0)
                     for j in range(joint.max() + 1)])
    return np.clip(maps, 0.0, 1.0).astype(np.float32)


def distractors(rng, pose: np.ndarray, count: int, height: int, width: int, amplitudes) -> list:
    """Bumps on random joints, each at least 3 sigma + 1 cells from its joint.

    Each bump takes the first of 16 drawn cells that is far enough away; all
    16 fall too close with probability below 1e-20 on these grids.
    """
    joint = rng.integers(len(pose), size=count)
    cells = np.stack([rng.integers(1, height - 1, size=(count, 16)),
                      rng.integers(1, width - 1, size=(count, 16))], axis=-1)
    far = np.abs(cells - pose[joint][:, None, :]).max(axis=-1) >= 3 * PEAK_SIGMA + 1
    row, col = cells[np.arange(count), np.argmax(far, axis=1)].T
    return list(zip(joint, row, col, np.broadcast_to(amplitudes, (count,))))


# --- chain16: the 16-joint chain of acceptance criterion 7 ----------------------

CHAIN_JOINTS = 16
CHAIN_GRID = 64
CHAIN_DISTRACTORS = 8


def chain_pose(rng) -> np.ndarray:
    rows = 4.0 + np.arange(CHAIN_JOINTS) * 3.5 + rng.uniform(-1, 1, size=CHAIN_JOINTS)
    cols = 40.0 + rng.uniform(-8, 8, size=CHAIN_JOINTS).cumsum().clip(-12, 12)
    return np.rint(np.column_stack([rows, cols]).clip(2, CHAIN_GRID - 3))


def chain_model() -> dict:
    return {
        "joints": [f"j{i}" for i in range(CHAIN_JOINTS)],
        "root": "j0",
        "dimension": 2,
        "links": [[f"j{i}", f"j{i + 1}"] for i in range(CHAIN_JOINTS - 1)],
        "model_kind": "distance",
        "params": [{"mean": 6.0, "sigma": 2.0} for _ in range(CHAIN_JOINTS - 1)],
    }


def chain_sample(rng) -> np.ndarray:
    pose = chain_pose(rng)
    bumps = [(j, r, c, 1.0) for j, (r, c) in enumerate(pose)]
    bumps += distractors(rng, pose, CHAIN_DISTRACTORS, CHAIN_GRID, CHAIN_GRID, 0.5)
    return render(CHAIN_GRID, CHAIN_GRID, bumps)


# --- coco17: a branching 17-joint tree with an offset model ---------------------

COCO_GRID = 128
COCO_DISTRACTORS_PER_JOINT = 3
# The first samples of every coco17 set carry few distractors, so that the
# exhaustive oracle (guarded at 10**6 configurations) can check them.
COCO_ORACLE_SAMPLES = 8
COCO_ORACLE_DISTRACTORS = 12


def coco_model() -> dict:
    offsets = COCO_TEMPLATE[[c for _, c in COCO_LINKS]] - COCO_TEMPLATE[[p for p, _ in COCO_LINKS]]
    return {
        "joints": list(COCO_JOINTS),
        "root": "nose",
        "dimension": 2,
        "links": [[COCO_JOINTS[p], COCO_JOINTS[c]] for p, c in COCO_LINKS],
        "model_kind": "offset",
        "params": [
            {"offset": [float(v) for v in offset], "covariance": COCO_COVARIANCE}
            for offset in offsets
        ],
    }


def coco_sample(rng, count: int) -> np.ndarray:
    shift = np.array([rng.uniform(-6, 6), rng.uniform(-10, 10)])
    noise = rng.normal(0.0, COCO_JOINT_SD, size=COCO_TEMPLATE.shape)
    pose = np.rint(COCO_TEMPLATE + shift + noise).clip(2, COCO_GRID - 3)
    bumps = [(j, r, c, 1.0) for j, (r, c) in enumerate(pose)]
    bumps += distractors(rng, pose, count, COCO_GRID, COCO_GRID, rng.uniform(0.3, 0.9, size=count))
    return render(COCO_GRID, COCO_GRID, bumps)


def write_heatmap_set(files: InputSet, kind: str, seed: int, samples: int) -> dict:
    """Write ``samples`` heatmaps, their manifest, skeleton and model; return the paths."""
    rng = np.random.default_rng([seed, {"chain16": 16, "coco17": 17}[kind]])
    ids = [f"s{i:05d}" for i in range(samples)]
    for i, sample_id in enumerate(ids):
        if kind == "chain16":
            values = chain_sample(rng)
        else:
            oracle = i < COCO_ORACLE_SAMPLES
            values = coco_sample(
                rng,
                COCO_ORACLE_DISTRACTORS if oracle
                else COCO_DISTRACTORS_PER_JOINT * len(COCO_JOINTS),
            )
        files.write(f"{sample_id}.pshm", pshm_bytes(values))
    model = chain_model() if kind == "chain16" else coco_model()
    manifest = "".join(json.dumps({"id": i, "path": f"{i}.pshm"}) + "\n" for i in ids)
    return {
        "skeleton": files.write("skeleton.json", json_bytes(
            {k: model[k] for k in ("joints", "root", "dimension", "links")})),
        "params": files.write("model.json", json_bytes(model)),
        "heatmaps": files.write("manifest.jsonl", manifest.encode("utf-8")),
    }


# --- simloop: the README simulate config, scaled up --------------------------------

def simulate_config(seed: int, unlabeled: int = 1000, ood: int = 50, rounds: int = 8,
                    budget: int = 25, heldout: int = 50) -> dict:
    joints = 8
    links = joints - 1
    return {
        "seed": seed,
        "rounds": rounds,
        "budget": budget,
        "pool": {"labeled": 24, "unlabeled": unlabeled, "ood": ood, "heldout": heldout},
        "skeleton": {"joints": joints},
        "generator": {"link_means": [5] * links, "link_sds": [1] * links,
                      "angle_ranges": [[-0.6, 0.6]] * links},
        "ood_generator": {"link_means": [8] * links, "link_sds": [1] * links,
                          "angle_ranges": [[-0.6, 0.6]] * links},
        "heatmap": {"height": 96, "width": 96, "peak_sigma": PEAK_SIGMA,
                    "distractors": 4, "distractor_amplitude": 0.5},
        "ranking_mode": "max",
        "initial_random_fraction": 0.0,
        "strategies": ["vl4pose", "entropy", "random"],
    }
