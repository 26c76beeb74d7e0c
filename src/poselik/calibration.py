"""Closed-form maximum-likelihood fitting of link parameters.

Distance links fit the mean and population standard deviation of
the parent-child distances; offset links fit the mean displacement and
its sample covariance (with a minimal ridge so the Cholesky
factorization succeeds). Both are exact MLE solutions, no iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CovarianceNotSPD, EmptyInput, InsufficientData, SchemaError
from .model import (
    SIGMA_FLOOR,
    DistanceParams,
    OffsetParams,
    Pose,
    PoseModelParams,
    Skeleton,
    _params_of,
    errors_at,
    is_number_rows,
    iter_jsonl,
    read_json,
)

RIDGE_START = 1e-6


@dataclass(frozen=True, eq=False)
class LabeledPoseSet:
    """Complete poses over one skeleton. ``coordinates`` stacks the poses
    once, ``(n_poses, J, D)``."""

    skeleton: Skeleton
    poses: tuple[Pose, ...]
    coordinates: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.poses) < 2:
            raise InsufficientData(
                f"need at least 2 labeled poses, got {len(self.poses)}"
            )
        for i, pose in enumerate(self.poses):
            if pose.n_joints != self.skeleton.n_joints:
                raise SchemaError(
                    f"pose #{i} has {pose.n_joints} joints, skeleton has "
                    f"{self.skeleton.n_joints}"
                )
            if pose.dimension != self.skeleton.dimension:
                raise SchemaError(
                    f"pose #{i} dimension {pose.dimension} != skeleton "
                    f"dimension {self.skeleton.dimension}"
                )
        coordinates = np.stack([pose.coordinates for pose in self.poses])
        coordinates.flags.writeable = False
        object.__setattr__(self, "coordinates", coordinates)

    @classmethod
    def of(cls, skeleton: Skeleton, poses) -> "LabeledPoseSet":
        return cls(skeleton=skeleton, poses=tuple(poses))

    @property
    def n_poses(self) -> int:
        return len(self.poses)

    def displacements(self, parent: int, child: int) -> np.ndarray:
        """(n_poses, D) child-minus-parent displacement per pose."""
        return self.coordinates[:, child] - self.coordinates[:, parent]


def fit_distance_params(data: LabeledPoseSet, parent: int, child: int) -> DistanceParams:
    """MLE of the distance-model normal for one link.

    Mean is the average distance; sigma is the population
    (biased, 1/n-style) standard deviation, floored at ``SIGMA_FLOOR`` so a
    degenerate sample still yields a usable density.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # DistanceParams refuses a non-finite fit
        disp = data.displacements(parent, child)
        dist = np.sqrt((disp * disp).sum(axis=1))
        w = np.full(data.n_poses, 1.0 / data.n_poses)
        mean = float(w @ dist)
        var = float(w @ (dist - mean) ** 2)
    sigma = max(np.sqrt(var), SIGMA_FLOOR)
    return DistanceParams(mean_distance=mean, sigma=float(sigma))


def fit_offset_params(data: LabeledPoseSet, parent: int, child: int) -> OffsetParams:
    """MLE of the offset-model multivariate normal for one link.

    Needs at least D+1 poses for a meaningful covariance. The sample
    covariance gets ``ridge * I`` added, with ridge escalating through
    powers of 10 from :data:`RIDGE_START` to 1e12 until :class:`OffsetParams`
    accepts it (else :class:`CovarianceNotSPD`); the ridge is always applied
    so the result is strictly positive definite even for degenerate samples.
    """
    d = data.skeleton.dimension
    if data.n_poses < d + 1:
        raise InsufficientData(
            f"offset fit needs at least {d + 1} poses for dimension {d}, "
            f"got {data.n_poses}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # OffsetParams refuses a non-finite fit
        disp = data.displacements(parent, child)
        w = np.full(data.n_poses, 1.0 / data.n_poses)
        mean = w @ disp
        centered = disp - mean
        cov = (w[:, None] * centered).T @ centered
    ridge = RIDGE_START
    while True:
        try:
            return OffsetParams(offset=mean, covariance=cov + ridge * np.eye(d))
        except CovarianceNotSPD:
            ridge *= 10.0
            if ridge > 1e12:
                raise


def fit_model(data: LabeledPoseSet, model_kind: str) -> PoseModelParams:
    """Fit every link of the skeleton from the labeled poses; a failed fit
    names its link."""
    if model_kind not in ("distance", "offset"):
        raise SchemaError(f"unknown model_kind {model_kind!r}")
    fit = fit_distance_params if model_kind == "distance" else fit_offset_params
    link_params = []
    for idx, (parent, child) in enumerate(data.skeleton.links):
        with errors_at(f"link #{idx}"):
            link_params.append(fit(data, parent, child))
    return PoseModelParams(
        skeleton=data.skeleton, link_params=tuple(link_params), model_kind=model_kind
    )


# --- labeled-pose and per-image parameter files --------------------------------

def read_labeled_poses(path, skeleton: Skeleton | None = None) -> list[tuple[str, Pose]]:
    """JSON-lines reader: one ``{"id": ..., "pose": [[...], ...]}`` per line.

    Given a ``skeleton``, a pose whose joint count or dimension differs from
    it is a schema error naming its line.
    """
    records: list[tuple[str, Pose]] = []
    for where, sample_id, record in iter_jsonl(path, "pose"):
        if not is_number_rows(record["pose"]):
            raise SchemaError(f"{where}: pose must be a list of coordinate lists of numbers")
        try:
            coords = np.asarray(record["pose"], dtype=np.float64)
        except (ValueError, OverflowError):  # ragged, or beyond the float range
            raise SchemaError(f"{where}: malformed pose array") from None
        if coords.ndim != 2:
            raise SchemaError(f"{where}: pose must be a 2D array")
        if skeleton is not None and coords.shape[0] != skeleton.n_joints:
            raise SchemaError(
                f"{where}: pose has {coords.shape[0]} joints, skeleton has {skeleton.n_joints}"
            )
        if skeleton is not None and coords.shape[1] != skeleton.dimension:
            raise SchemaError(
                f"{where}: pose dimension {coords.shape[1]} != skeleton dimension "
                f"{skeleton.dimension}"
            )
        with errors_at(where):
            records.append((sample_id, Pose(coords)))
    if not records:
        raise EmptyInput(f"{path}: no labeled poses")
    return records


def load_image_params(path, skeleton: Skeleton) -> dict[str, PoseModelParams]:
    """Per-image link parameters keyed by image id.

    The file holds ``{"model_kind": ..., "per_image": {id: entry}}`` where
    each entry has ``{"links": [...], "root": optional}`` in the same
    per-link layout as the shared model file. Every error names the image
    id it came from.
    """
    doc = read_json(path)
    if "per_image" not in doc:
        raise SchemaError(f"{path}: expected an object with a 'per_image' key")
    model_kind = doc.get("model_kind")
    if model_kind not in ("distance", "offset"):
        raise SchemaError(f"{path}: model_kind must be 'distance' or 'offset'")
    per_image = doc["per_image"]
    if not isinstance(per_image, dict):
        raise SchemaError(f"{path}: 'per_image' must be an object")
    out: dict[str, PoseModelParams] = {}
    for image_id, entry in per_image.items():
        if not isinstance(entry, dict) or "links" not in entry:
            raise SchemaError(f"{path}: image {image_id!r}: expected a 'links' array")
        with errors_at(f"{path}: image {image_id!r}"):
            out[str(image_id)] = _params_of(skeleton, model_kind, entry, "links", "root")
    return out

