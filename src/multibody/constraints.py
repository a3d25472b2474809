"""Pose-difference constraints between pairs of bodies and their Jacobians.

A constraint pins selected axes of the relative pose between two frames,
one attached to each body.  Residual rows are taken from the extended
6-vector [rotation vector | translation] of the relative transform, in the
ordering of frame A.  An orthogonality constraint is also provided as a
baseline formulation that only asks pairs of axes to stay perpendicular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kinematics import KinematicStructure
from .se3 import Pose, log_rotation, skew, variation_matrix


@dataclass
class Constraint:
    """Equality constraint on the relative pose between frame A (on body_a)
    and frame B (on body_b).

    ``frame_a`` maps body_a's model frame into A; ``frame_b`` maps body_b's
    model frame into B.  ``constrained_axes`` selects residual rows in frame
    A ordering [rot_x, rot_y, rot_z, trans_x, trans_y, trans_z].
    """

    body_a: int
    body_b: int
    frame_a: Pose = field(default_factory=Pose.identity)
    frame_b: Pose = field(default_factory=Pose.identity)
    constrained_axes: np.ndarray = field(
        default_factory=lambda: np.ones(6, dtype=bool)
    )

    def __post_init__(self):
        if self.body_a == self.body_b:
            raise ValueError("constraint must reference two distinct bodies")
        self.constrained_axes = np.asarray(self.constrained_axes, dtype=bool)
        if self.constrained_axes.shape != (6,):
            raise ValueError("constrained_axes must have 6 entries")
        if not self.constrained_axes.any():
            raise ValueError("constraint must select at least one axis")

    @property
    def n_rows(self) -> int:
        return int(np.count_nonzero(self.constrained_axes))

    def residual(self, s: KinematicStructure) -> np.ndarray:
        """Residual rows [log of relative rotation | relative translation],
        selected by the constrained axes."""
        a_t_b = relative_constraint_pose(self, s)
        extended = np.concatenate([log_rotation(a_t_b.r), a_t_b.t])
        return extended[self.constrained_axes]

    def variation_blocks(self, s: KinematicStructure):
        """Residual-row derivatives w.r.t. the 6-DoF variations of body_a
        and body_b (in their own model frames), each n_rows x 6."""
        pose_a = s.bodies[self.body_a].pose
        pose_b = s.bodies[self.body_b].pose
        a_t_b = relative_constraint_pose(self, s)
        cmat = variation_matrix(log_rotation(a_t_b.r))

        r_a_ma = self.frame_a.r
        a_t_mb = self.frame_a @ pose_a.inverse() @ pose_b
        r_a_mb = a_t_mb.r
        ma_t_b = self.frame_a.inverse() @ a_t_b
        mb_t_b = self.frame_b.inverse()

        da = np.zeros((6, 6))
        da[:3, :3] = -cmat @ r_a_ma
        da[3:, :3] = r_a_ma @ skew(ma_t_b.t)
        da[3:, 3:] = -r_a_ma

        db = np.zeros((6, 6))
        db[:3, :3] = cmat @ r_a_mb
        db[3:, :3] = -r_a_mb @ skew(mb_t_b.t)
        db[3:, 3:] = r_a_mb
        return da[self.constrained_axes], db[self.constrained_axes]


def relative_constraint_pose(c, s: KinematicStructure) -> Pose:
    """Transform from frame B into frame A given current body poses."""
    pose_a = s.bodies[c.body_a].pose
    pose_b = s.bodies[c.body_b].pose
    return c.frame_a @ pose_a.inverse() @ pose_b @ c.frame_b.inverse()


def constraint_jacobian(c, s: KinematicStructure):
    """Rows of the constraint Jacobian w.r.t. the structure's joint
    coordinates: the variation blocks of either constraint type chained
    through the tree Jacobians of its two bodies."""
    jacobians = s.body_jacobians()
    da, db = c.variation_blocks(s)
    return da @ jacobians[c.body_a] + db @ jacobians[c.body_b]


# Axis pairs (i, j) whose inner product must vanish: (x,y), (y,z), (z,x).
ORTHOGONAL_AXIS_PAIRS = ((0, 1), (1, 2), (2, 0))


@dataclass
class OrthogonalityConstraint:
    """Baseline constraint asking pairs of frame axes to stay perpendicular.

    Weaker than pinning the relative rotation: any axis permutation with
    matching signs also satisfies it, which admits spurious solutions with
    rotational errors of pi and 2*pi/3.
    """

    body_a: int
    body_b: int
    frame_a: Pose = field(default_factory=Pose.identity)
    frame_b: Pose = field(default_factory=Pose.identity)

    def __post_init__(self):
        if self.body_a == self.body_b:
            raise ValueError("constraint must reference two distinct bodies")

    @property
    def n_rows(self) -> int:
        return 3

    def residual(self, s) -> np.ndarray:
        """Residual e_i . (R_AB e_j) for each orthogonal axis pair."""
        r_ab = relative_constraint_pose(self, s).r
        return np.array([r_ab[i, j] for i, j in ORTHOGONAL_AXIS_PAIRS])

    def variation_blocks(self, s):
        """3x6 derivatives of the residual w.r.t. the 6-DoF variations of
        body_a and body_b."""
        pose_a = s.bodies[self.body_a].pose
        pose_b = s.bodies[self.body_b].pose
        r_ab = relative_constraint_pose(self, s).r
        r_a_ma = self.frame_a.r
        r_a_mb = (self.frame_a @ pose_a.inverse() @ pose_b).r

        # Translational variation columns do not move the residual.
        da = np.zeros((3, 6))
        db = np.zeros((3, 6))
        for k, (i, j) in enumerate(ORTHOGONAL_AXIS_PAIRS):
            cross = skew(r_ab @ np.eye(3)[j])
            da[k, :3] = np.eye(3)[i] @ cross @ r_a_ma
            db[k, :3] = -np.eye(3)[i] @ cross @ r_a_mb
        return da, db
