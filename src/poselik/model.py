"""Core skeletal model: joint tree, poses and per-link Gaussian parameters.

A skeleton is a directed tree over named joints with a designated root.
Each parent->child link carries Gaussian parameters in one of two shapes:

* distance model: a univariate normal over the euclidean parent-child
  distance (bone length),
* offset model: a multivariate normal over the child-minus-parent
  displacement vector.

All types are immutable after validation and safe to share between
threads.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .errors import (
    BadRootIndex,
    CovarianceNotSPD,
    CycleDetected,
    DimensionMismatch,
    DisconnectedJoint,
    DuplicateJointName,
    PoseLikError,
    SchemaError,
    SigmaNonPositive,
)

# Smallest standard deviation accepted when loading or fitting parameters,
# in pixels. Keeps log-densities finite when a calibration collapses.
SIGMA_FLOOR = 1e-3

# Relative tolerance for the covariance symmetry check.
_SYMMETRY_RTOL = 1e-9


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Skeleton:
    """Directed joint tree. Build instances through :func:`validate_skeleton`."""

    joints: tuple[str, ...]
    root: int
    links: tuple[tuple[int, int], ...]
    dimension: int = 2

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    @property
    def n_links(self) -> int:
        return len(self.links)

    @cached_property
    def children_links(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per joint, the (link_index, child_joint) pairs hanging off it."""
        out: list[list[tuple[int, int]]] = [[] for _ in self.joints]
        for idx, (parent, child) in enumerate(self.links):
            out[parent].append((idx, child))
        return tuple(tuple(entries) for entries in out)

    @cached_property
    def bfs_joints(self) -> tuple[int, ...]:
        """Joint indices in breadth-first order from the root.

        The walk proves the tree property: a joint reached twice closes a
        cycle or has a second parent, and a joint never reached is
        disconnected; both raise, naming the joint.
        """
        seen = [False] * self.n_joints
        seen[self.root] = True
        order = [self.root]
        queue = deque([self.root])
        while queue:
            for idx, child in self.children_links[queue.popleft()]:
                if seen[child]:
                    raise CycleDetected(
                        f"joint {self.joints[child]!r} is reachable along more than one "
                        f"path (second entry via link {idx})"
                    )
                seen[child] = True
                order.append(child)
                queue.append(child)
        for joint, visited in enumerate(seen):
            if not visited:
                raise DisconnectedJoint(
                    f"joint {self.joints[joint]!r} is unreachable from the root"
                )
        return tuple(order)


def validate_skeleton(candidate: dict) -> Skeleton:
    """Validate a raw skeleton description and return a :class:`Skeleton`.

    ``candidate`` is a parsed configuration document::

        {"joints": ["head", "neck", ...],
         "root": "head",            # name or index
         "dimension": 2,
         "links": [["head", "neck"], ...]}   # name pairs or index pairs

    Raises :class:`DuplicateJointName`, :class:`BadRootIndex`,
    :class:`CycleDetected`, :class:`DisconnectedJoint` or
    :class:`SchemaError` naming the offending joint or link.
    """
    if not isinstance(candidate, dict):
        raise SchemaError("skeleton description must be a JSON object")
    try:
        raw_joints = candidate["joints"]
        raw_links = candidate["links"]
    except KeyError as exc:
        raise SchemaError(f"skeleton description missing key {exc.args[0]!r}") from None
    raw_root = candidate.get("root", 0)
    dimension = candidate.get("dimension", 2)

    if not isinstance(raw_joints, (list, tuple)) or not raw_joints:
        raise SchemaError("'joints' must be a non-empty list of names")
    joints: list[str] = []
    index_of: dict[str, int] = {}
    for pos, name in enumerate(raw_joints):
        if not isinstance(name, str) or not name:
            raise SchemaError(f"joint #{pos} has an empty or non-string name")
        if name in index_of:
            raise DuplicateJointName(f"joint name {name!r} appears more than once")
        index_of[name] = pos
        joints.append(name)
    n = len(joints)

    if not isinstance(dimension, int) or dimension not in (2, 3):
        raise SchemaError(f"dimension must be 2 or 3, got {dimension!r}")

    if isinstance(raw_root, str):
        if raw_root not in index_of:
            raise BadRootIndex(f"root joint {raw_root!r} is not in the joint list")
        root = index_of[raw_root]
    elif isinstance(raw_root, int) and not isinstance(raw_root, bool):
        if not 0 <= raw_root < n:
            raise BadRootIndex(f"root index {raw_root} outside [0, {n})")
        root = raw_root
    else:
        raise BadRootIndex(f"root must be a joint name or index, got {raw_root!r}")

    def resolve(end, link_pos: int) -> int:
        if isinstance(end, str):
            if end not in index_of:
                raise SchemaError(f"link #{link_pos} names unknown joint {end!r}")
            return index_of[end]
        if isinstance(end, int) and not isinstance(end, bool):
            if not 0 <= end < n:
                raise SchemaError(f"link #{link_pos} index {end} outside [0, {n})")
            return end
        raise SchemaError(f"link #{link_pos} endpoint {end!r} is neither name nor index")

    if not isinstance(raw_links, (list, tuple)):
        raise SchemaError("'links' must be a list of [parent, child] pairs")
    links: list[tuple[int, int]] = []
    for pos, pair in enumerate(raw_links):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SchemaError(f"link #{pos} is not a [parent, child] pair")
        parent, child = resolve(pair[0], pos), resolve(pair[1], pos)
        if parent == child:
            raise CycleDetected(f"link #{pos} connects joint {joints[parent]!r} to itself")
        links.append((parent, child))

    skeleton = Skeleton(joints=tuple(joints), root=root, links=tuple(links), dimension=dimension)
    skeleton.bfs_joints  # raises unless the links form a tree under the root
    return skeleton


@dataclass(frozen=True, eq=False)
class Pose:
    """One keypoint location per joint."""

    coordinates: np.ndarray  # (N, D) float64

    def __post_init__(self):
        coords = np.asarray(self.coordinates, dtype=np.float64)
        if coords.ndim != 2:
            raise DimensionMismatch(f"coordinates must be (N, D), got shape {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise SchemaError("pose coordinates must be finite")
        object.__setattr__(self, "coordinates", _freeze(coords))

    @property
    def n_joints(self) -> int:
        return self.coordinates.shape[0]

    @property
    def dimension(self) -> int:
        return self.coordinates.shape[1]


@dataclass(frozen=True)
class DistanceParams:
    """Univariate normal over the parent-child euclidean distance."""

    mean_distance: float
    sigma: float
    log_sigma: float = field(init=False, repr=False)  # math.log(sigma), which its density reads

    def __post_init__(self):
        mean = float(self.mean_distance)
        sigma = float(self.sigma)
        if not math.isfinite(mean) or mean < 0:
            raise SchemaError(f"mean_distance must be finite and >= 0, got {mean!r}")
        if not math.isfinite(sigma) or sigma <= 0:
            raise SigmaNonPositive(f"sigma must be > 0, got {sigma!r}")
        object.__setattr__(self, "mean_distance", mean)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "log_sigma", math.log(sigma))


@dataclass(frozen=True, eq=False)
class OffsetParams:
    """Multivariate normal over the child-minus-parent displacement."""

    offset: np.ndarray      # (D,)
    covariance: np.ndarray  # (D, D), symmetric positive-definite
    cholesky: np.ndarray = field(init=False, repr=False)  # its lower-triangular factor
    log_det: float = field(init=False, repr=False)  # its log-determinant, from that factor

    def __post_init__(self):
        offset = np.asarray(self.offset, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if offset.ndim != 1:
            raise SchemaError(f"offset must be a vector, got shape {offset.shape}")
        d = offset.shape[0]
        if cov.shape != (d, d):
            raise SchemaError(f"covariance must be ({d}, {d}), got {cov.shape}")
        if not np.all(np.isfinite(offset)) or not np.all(np.isfinite(cov)):
            raise SchemaError("offset parameters must be finite")
        scale = 0.5 * max(np.abs(cov).max(), 1.0)  # halved with cov: halves never overflow
        if np.abs(0.5 * cov - 0.5 * cov.T).max() > _SYMMETRY_RTOL * scale:
            raise CovarianceNotSPD("covariance is not symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise CovarianceNotSPD("covariance is not positive-definite") from None
        object.__setattr__(self, "offset", _freeze(offset))
        object.__setattr__(self, "covariance", _freeze(cov))
        object.__setattr__(self, "cholesky", _freeze(chol))
        object.__setattr__(self, "log_det", float(2.0 * np.log(np.diagonal(chol)).sum()))

    @property
    def dimension(self) -> int:
        return self.offset.shape[0]


LinkParams = Union[DistanceParams, OffsetParams]


@dataclass(frozen=True, eq=False)
class PoseModelParams:
    """Per-link Gaussian parameters tied to one skeleton.

    ``root_params`` is an optional prior over the root joint location;
    when absent the root contributes nothing (uniform prior). A distance
    variant is read as a normal over the root's distance from the grid
    origin, an offset variant as a normal centred at the absolute location
    stored in ``offset``.
    """

    skeleton: Skeleton
    link_params: tuple[LinkParams, ...]
    model_kind: str  # "distance" | "offset"
    root_params: LinkParams | None = None

    def __post_init__(self):
        if self.model_kind not in ("distance", "offset"):
            raise SchemaError(f"model_kind must be 'distance' or 'offset', got {self.model_kind!r}")
        params = tuple(self.link_params)
        if len(params) != self.skeleton.n_links:
            raise SchemaError(
                f"expected {self.skeleton.n_links} link parameter entries, got {len(params)}"
            )
        want = DistanceParams if self.model_kind == "distance" else OffsetParams
        for idx, p in enumerate(params):
            if not isinstance(p, want):
                raise SchemaError(
                    f"link #{idx} parameters do not match model_kind={self.model_kind!r}"
                )
            if isinstance(p, OffsetParams) and p.dimension != self.skeleton.dimension:
                raise DimensionMismatch(
                    f"link #{idx} offset dimension {p.dimension} != skeleton "
                    f"dimension {self.skeleton.dimension}"
                )
        if isinstance(self.root_params, OffsetParams):
            if self.root_params.dimension != self.skeleton.dimension:
                raise DimensionMismatch("root prior dimension != skeleton dimension")
        object.__setattr__(self, "link_params", params)


# --- JSON schema ----------------------------------------------------------

def skeleton_to_dict(skeleton: Skeleton) -> dict:
    return {
        "joints": list(skeleton.joints),
        "root": skeleton.joints[skeleton.root],
        "dimension": skeleton.dimension,
        "links": [
            [skeleton.joints[parent], skeleton.joints[child]]
            for parent, child in skeleton.links
        ],
    }


def _link_params_to_dict(params: LinkParams) -> dict:
    if isinstance(params, DistanceParams):
        return {"mean": params.mean_distance, "sigma": params.sigma}
    return {
        "offset": [float(v) for v in params.offset],
        "covariance": [[float(v) for v in row] for row in params.covariance],
    }


def is_number(value) -> bool:
    """Whether a parsed JSON value is a number (``true`` and ``"5"`` are not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_number_list(value) -> bool:
    """Whether a parsed JSON value is a list of numbers."""
    return isinstance(value, list) and all(map(is_number, value))


def is_number_rows(value) -> bool:
    """Whether a parsed JSON value is a list of lists of numbers."""
    return isinstance(value, list) and all(map(is_number_list, value))


def _link_params_from_dict(entry: dict, *, where: str) -> LinkParams:
    if not isinstance(entry, dict):
        raise SchemaError(f"{where}: parameter entry must be an object")
    if "mean" in entry or "sigma" in entry:
        message = f"{where}: distance entry needs numeric 'mean' and 'sigma'"
        mean, sigma = entry.get("mean"), entry.get("sigma")
        if not (is_number(mean) and is_number(sigma)):
            raise SchemaError(message)
        try:
            mean, sigma = float(mean), float(sigma)
        except OverflowError:  # an integer beyond the float range
            raise SchemaError(message) from None
        if math.isfinite(sigma) and sigma > 0:
            sigma = max(sigma, SIGMA_FLOOR)
        return DistanceParams(mean_distance=mean, sigma=sigma)
    if "offset" in entry or "covariance" in entry:
        if "offset" not in entry or "covariance" not in entry:
            raise SchemaError(f"{where}: offset entry needs 'offset' and 'covariance'")
        message = f"{where}: 'offset' and 'covariance' must be arrays of numbers"
        offset, covariance = entry["offset"], entry["covariance"]
        if not (is_number_list(offset) and is_number_rows(covariance)):
            raise SchemaError(message)
        try:
            return OffsetParams(offset=offset, covariance=covariance)
        except (ValueError, OverflowError):  # from np.asarray: ragged or too large
            raise SchemaError(message) from None
    raise SchemaError(f"{where}: unrecognized parameter entry {sorted(entry)!r}")


def model_to_dict(params: PoseModelParams) -> dict:
    doc = skeleton_to_dict(params.skeleton)
    doc["model_kind"] = params.model_kind
    doc["params"] = [_link_params_to_dict(p) for p in params.link_params]
    if params.root_params is not None:
        doc["root_params"] = _link_params_to_dict(params.root_params)
    return doc


def model_from_dict(doc: dict) -> PoseModelParams:
    skeleton = validate_skeleton(doc)
    if "model_kind" not in doc or "params" not in doc:
        raise SchemaError("model document needs 'model_kind' and 'params'")
    return _params_of(skeleton, doc["model_kind"], doc, "params", "root_params")


def _params_of(skeleton, model_kind, doc: dict, links_key: str, root_key: str) -> PoseModelParams:
    """Parameters from ``doc[links_key]``, one entry per link of ``skeleton``,
    and the optional root prior ``doc[root_key]``; errors name the entry."""
    entries, root_entry = doc[links_key], doc.get(root_key)
    if not isinstance(entries, list):
        raise SchemaError(f"{links_key!r} must be a list with one entry per link")
    return PoseModelParams(
        skeleton=skeleton,
        link_params=tuple(
            _link_params_from_dict(entry, where=f"{links_key}[{i}]")
            for i, entry in enumerate(entries)
        ),
        model_kind=model_kind,
        root_params=(
            None if root_entry is None else _link_params_from_dict(root_entry, where=root_key)
        ),
    )


# --- JSON files -------------------------------------------------------------------
#
# Every JSON and JSON-lines input goes through one of the two readers, and every
# JSON output through ``write_json``. Bytes that are not UTF-8 become lone
# surrogates: invalid JSON outside a string, the file's raw bytes inside one.
# RecursionError is JSON nested too deep.

def read_json(path) -> dict:
    """The JSON object that makes up the whole file at ``path``."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level value must be an object")
    return doc


def iter_jsonl(path, *keys):
    """Yield ``(where, sample_id, record)`` for each non-blank line of a
    JSON-lines file, ``where`` being ``file:line``.

    Each record must be an object holding ``"id"`` and every key in
    ``keys``; ``sample_id`` is ``str(record["id"])`` and must be unique.
    """
    required = ("id", *keys)
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):
                raise SchemaError(f"{where}: invalid JSON") from None
            if not isinstance(record, dict) or not all(key in record for key in required):
                raise SchemaError(f"{where}: expected an object with keys {list(required)}")
            sample_id = str(record["id"])
            if sample_id in seen:
                raise SchemaError(f"{where}: duplicate sample id {sample_id!r}")
            seen.add(sample_id)
            yield where, sample_id, record


def write_json(path, doc: dict) -> None:
    """Write ``doc`` as indented JSON with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def errors_at(where: str):
    """Prefix ``where`` (a file, line or entry) to any poselik error raised inside."""
    try:
        yield
    except PoseLikError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def load_skeleton_file(path) -> Skeleton:
    doc = read_json(path)
    with errors_at(path):
        return validate_skeleton(doc)


def load_model_file(path) -> PoseModelParams:
    doc = read_json(path)
    with errors_at(path):
        return model_from_dict(doc)


def save_model_file(params: PoseModelParams, path) -> None:
    write_json(path, model_to_dict(params))


# --- run manifests ----------------------------------------------------------------

def clock() -> tuple[float, float]:
    """A wall (``perf_counter``) and CPU (``process_time``) time reading."""
    return time.perf_counter(), time.process_time()


class Stages:
    """Wall and CPU time of each named stage of a run, for its manifest."""

    def __init__(self, names):
        self.wall = dict.fromkeys(names, 0.0)
        self.cpu = dict.fromkeys(names, 0.0)

    def since(self, name: str, start: tuple[float, float]) -> tuple[float, float]:
        """Add the time from the :func:`clock` reading ``start`` to now to
        stage ``name``; return now."""
        now = clock()
        self.wall[name] += now[0] - start[0]
        self.cpu[name] += now[1] - start[1]
        return now

    def to_json_dict(self) -> dict:
        return {
            "wall_ms": {name: 1000.0 * t for name, t in self.wall.items()},
            "cpu_ms": {name: 1000.0 * t for name, t in self.cpu.items()},
        }
