"""Newton-style 6-DoF pose optimization for tree-like and closed-chain
multi-body systems."""

from .constraints import Constraint, OrthogonalityConstraint
from .energy import (
    BodyEnergy,
    per_body,
    point_registration_energy,
    quadratic_pose_target,
    zero_energy,
)
from .kinematics import (
    AXIS_NAMES,
    Body,
    FixedSide,
    Joint,
    KinematicStructure,
    axes_mask,
)
from .metrics import Mesh, add_error, add_s_error, auc_score, load_obj
from .se3 import (
    Pose,
    adjoint,
    exp_rotvec,
    log_rotation,
    variation_matrix,
)
from .solver import (
    FactorizationFailed,
    KktSystem,
    Regularization,
    SolverConfig,
    SolverMode,
    StepReport,
    assemble,
    solve_kkt,
    step,
)

__all__ = [
    "AXIS_NAMES",
    "Body",
    "BodyEnergy",
    "Constraint",
    "FactorizationFailed",
    "FixedSide",
    "Joint",
    "KinematicStructure",
    "KktSystem",
    "Mesh",
    "OrthogonalityConstraint",
    "Pose",
    "Regularization",
    "SolverConfig",
    "SolverMode",
    "StepReport",
    "add_error",
    "add_s_error",
    "adjoint",
    "assemble",
    "auc_score",
    "axes_mask",
    "exp_rotvec",
    "load_obj",
    "log_rotation",
    "per_body",
    "point_registration_energy",
    "quadratic_pose_target",
    "solve_kkt",
    "step",
    "variation_matrix",
    "zero_energy",
]

__version__ = "0.1.0"
