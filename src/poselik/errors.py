"""Exception types raised across the package.

Every error inherits from :class:`PoseLikError` so callers can catch the
whole family with one clause. Messages name the offending joint, link or
sample id wherever one exists.
"""


class PoseLikError(Exception):
    """Base class for all poselik errors."""


# --- skeleton validation -------------------------------------------------

class CycleDetected(PoseLikError):
    """A joint is reachable from the root along more than one path."""


class DisconnectedJoint(PoseLikError):
    """A joint is not reachable from the root."""


class DuplicateJointName(PoseLikError):
    """Two joints share the same name."""


class BadRootIndex(PoseLikError):
    """The declared root does not name a joint."""


# --- generic schema / configuration --------------------------------------

class SchemaError(PoseLikError):
    """A document does not match the expected structure."""


class ConfigInvalid(PoseLikError):
    """A simulation configuration is malformed or inconsistent."""


# --- link parameters ------------------------------------------------------

class SigmaNonPositive(PoseLikError):
    """A distance-model standard deviation is zero or negative."""


class CovarianceNotSPD(PoseLikError):
    """An offset-model covariance is not symmetric positive-definite."""


class InsufficientData(PoseLikError):
    """Too few labeled poses to fit the requested model."""


# --- heatmaps -------------------------------------------------------------

class JointOutOfRange(PoseLikError):
    """Joint index exceeds the heatmap's joint count."""


class EmptyInput(PoseLikError):
    """An operation received an empty score list."""


class BadMagic(PoseLikError):
    """Heatmap file does not start with the expected magic bytes."""


class VersionUnsupported(PoseLikError):
    """Heatmap file declares a format version this reader cannot parse."""


class TruncatedPayload(PoseLikError):
    """Heatmap payload length disagrees with the header."""


class NonFiniteValue(PoseLikError):
    """A heatmap contains NaN or infinite scores."""


class OutOfBoundsCoordinate(PoseLikError):
    """A keypoint lies outside the heatmap grid."""


# --- likelihood evaluation -------------------------------------------------

class MissingJoint(PoseLikError):
    """A sample that point scoring needs a pose for has none."""


class DimensionMismatch(PoseLikError):
    """Spatial dimensions or joint counts disagree between inputs."""


class EmptyPeakSet(PoseLikError):
    """A joint has no candidate peaks."""


class SearchSpaceTooLarge(PoseLikError):
    """Exhaustive enumeration would exceed the configuration guard."""


# --- pool scoring and selection ---------------------------------------------

class MissingHeatmap(PoseLikError):
    """The unlabeled pool holds no sample, or no peaks, under this id."""


class MissingParams(PoseLikError):
    """No per-image parameters exist for a sample."""


class BudgetExceedsPool(PoseLikError):
    """Requested batch is larger than the unlabeled pool."""


class EmptyClass(PoseLikError):
    """A ranking metric received an empty score list for one class."""
