"""Expert-preserving demonstration synthesis with DMPs and splat density fields."""

from .geometry import (
    FieldError,
    Pose,
    Trajectory,
    TrajectoryError,
    quat_exp,
    quat_geodesic_distance,
    quat_log,
    quat_mul,
    unwrap_rotation_vectors,
)
from .splats import (
    GaussianBlob,
    GaussianScene,
    SceneFormatError,
    density,
    density_gradient,
    density_many,
    load_scene,
    query_neighbors,
)
from .alignment import AlignmentError, IcpParams, RigidTransform, apply_transform, icp_align
from .dmp import (CanonicalSystem, DmpModel, FitError, RolloutError, canonical_phase, fit_dmp, rollout,
                  rollout_batch)
from .obstacles import ObstacleParams, obstacle_accel, outward_normal, return_to_reference, tangential_direction
from .synthesis import PerturbationSpec, SynthesisJob, export_dataset, sample_boundary_perturbation, synthesize
from .metrics import EvalReport, RasterSpec, collision_check, dtw, writing_error

__version__ = "0.1.0"
