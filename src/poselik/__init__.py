"""Skeletal-likelihood engine for pose heatmaps.

Scores pose predictions by their expected log-likelihood under a
tree-structured Gaussian model over heatmap local maxima, refines
poses by exact max-likelihood peak selection, fits link parameters in
closed form, and ranks unlabeled samples for annotation.
"""

__version__ = "0.1.0"

from .calibration import (
    LabeledPoseSet,
    fit_distance_params,
    fit_model,
    fit_offset_params,
    load_image_params,
    read_labeled_poses,
)
from .errors import (
    BadMagic,
    BadRootIndex,
    BudgetExceedsPool,
    ConfigInvalid,
    CovarianceNotSPD,
    CycleDetected,
    DimensionMismatch,
    DisconnectedJoint,
    DuplicateJointName,
    EmptyClass,
    EmptyInput,
    EmptyPeakSet,
    InsufficientData,
    JointOutOfRange,
    MissingHeatmap,
    MissingJoint,
    MissingParams,
    NonFiniteValue,
    OutOfBoundsCoordinate,
    PoseLikError,
    SchemaError,
    SearchSpaceTooLarge,
    SigmaNonPositive,
    TruncatedPayload,
    VersionUnsupported,
)
from .heatmaps import (
    DEFAULT_MAX_PEAKS,
    DEFAULT_THRESHOLD_RATIO,
    Heatmap,
    PeakSet,
    bump_peak_sets,
    extract_peak_sets,
    extract_peaks,
    read_heatmap_file,
    read_manifest,
    render_gaussian_heatmap,
    require_finite,
    write_heatmap_file,
)
from .likelihood import (
    BRUTE_FORCE_GUARD,
    LikelihoodReport,
    RefinedPose,
    brute_force_best_pose,
    expected_log_likelihood,
    expected_log_likelihoods,
    link_log_density,
    multi_peak_entropies,
    multi_peak_entropy,
    point_log_likelihood,
    point_log_likelihoods,
    refine_pose,
    refine_poses,
    refined_log_likelihoods,
    refinement_objective,
    root_log_density,
)
from .model import (
    SIGMA_FLOOR,
    DistanceParams,
    LinkParams,
    OffsetParams,
    Pose,
    PoseModelParams,
    Skeleton,
    load_model_file,
    load_skeleton_file,
    model_from_dict,
    model_to_dict,
    save_model_file,
    skeleton_to_dict,
    validate_skeleton,
)
from .selection import (
    STRATEGIES,
    SamplePool,
    SelectionResult,
    ood_ranking_auc,
    score_pool,
    select_batch,
)
from .simulation import (
    GeneratorParams,
    SimulationConfig,
    SimulationReport,
    build_pool,
    chain_skeleton,
    run_simulation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
