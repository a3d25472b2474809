"""Pose-difference constraints between pairs of bodies and their Jacobians.

A constraint pins selected axes of the relative pose between two frames,
one attached to each body.  Residual rows are taken from the extended
6-vector [rotation vector | translation] of the relative transform, in the
ordering of frame A.  An orthogonality constraint is also provided as a
baseline formulation that only asks pairs of axes to stay perpendicular.

Constraints are evaluated together: `evaluate_constraints` computes the
residual rows and their derivatives for every constraint of a list at once,
on stacks over the constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .se3 import (
    Pose,
    compose_stack,
    inverse_stack,
    log_rotation_stack,
    row_norms,
    rows_stack,
    skew_stack,
    stack_poses,
    variation_matrix_stack,
)


@dataclass
class _FramePair:
    """Two distinct bodies with a frame on each: ``frame_a`` maps body_a's
    model frame into frame A, ``frame_b`` body_b's model frame into B."""

    body_a: int
    body_b: int
    frame_a: Pose = field(default_factory=Pose.identity)
    frame_b: Pose = field(default_factory=Pose.identity)

    def __post_init__(self):
        if self.body_a == self.body_b:
            raise ValueError("constraint must reference two distinct bodies")

    def residual(self, s) -> np.ndarray:
        """Residual rows at the structure's current poses."""
        return evaluate_constraints([self], s.bodies, blocks=False).residual


@dataclass
class Constraint(_FramePair):
    """Equality constraint on the relative pose between frame A (on body_a)
    and frame B (on body_b).

    Residual rows are [log of relative rotation | relative translation] of
    A_T_B, selected by ``constrained_axes`` in frame A ordering [rot_x,
    rot_y, rot_z, trans_x, trans_y, trans_z].
    """

    constrained_axes: np.ndarray = field(
        default_factory=lambda: np.ones(6, dtype=bool)
    )

    def __post_init__(self):
        super().__post_init__()
        self.constrained_axes = np.asarray(self.constrained_axes, dtype=bool)
        if self.constrained_axes.shape != (6,):
            raise ValueError("constrained_axes must have 6 entries")
        if not self.constrained_axes.any():
            raise ValueError("constraint must select at least one axis")


# Axis pairs (i, j) whose inner product must vanish: (x,y), (y,z), (z,x).
ORTHOGONAL_AXIS_PAIRS = ((0, 1), (1, 2), (2, 0))


@dataclass
class OrthogonalityConstraint(_FramePair):
    """Baseline constraint asking pairs of frame axes to stay perpendicular:
    residual e_i . (R_AB e_j) for each orthogonal axis pair.

    Weaker than pinning the relative rotation: any axis permutation with
    matching signs also satisfies it, which admits spurious solutions with
    rotational errors of pi and 2*pi/3.
    """


# Stacked formulas, one row per constraint.  Frames and body poses are
# stacked poses (r, t) as in se3.compose_stack.


def relative_poses(frame_a, frame_b, pose_a, pose_b):
    """A_T_Mb = frame_a o pose_a^-1 o pose_b and the transform from frame B
    into frame A, A_T_B = A_T_Mb o frame_b^-1."""
    a_t_mb = compose_stack(compose_stack(frame_a, inverse_stack(pose_a)), pose_b)
    return a_t_mb, compose_stack(a_t_mb, inverse_stack(frame_b))


def pose_constraint_blocks(frame_a, frame_b, a_t_mb, a_t_b, rotvec):
    """6x6 derivatives of a Constraint's extended residual
    [rotvec | translation] w.r.t. the 6-DoF variations of body_a and body_b
    in their own model frames; rotvec is log(R_AB)."""
    n = rotvec.shape[0]
    cmat = variation_matrix_stack(rotvec)
    r_a_ma = frame_a[0]
    r_a_mb = a_t_mb[0]
    ma_t_b = compose_stack(inverse_stack(frame_a), a_t_b)
    mb_t_b = inverse_stack(frame_b)

    d_a = np.zeros((n, 6, 6))
    d_a[:, :3, :3] = -cmat @ r_a_ma
    d_a[:, 3:, :3] = r_a_ma @ skew_stack(ma_t_b[1])
    d_a[:, 3:, 3:] = -r_a_ma

    d_b = np.zeros((n, 6, 6))
    d_b[:, :3, :3] = cmat @ r_a_mb
    d_b[:, 3:, :3] = -r_a_mb @ skew_stack(mb_t_b[1])
    d_b[:, 3:, 3:] = r_a_mb
    return d_a, d_b


def orthogonality_residual(a_t_b) -> np.ndarray:
    """e_i . (R_AB e_j) for each orthogonal axis pair, (n, 3)."""
    r_ab = a_t_b[0]
    return np.stack([r_ab[:, i, j] for i, j in ORTHOGONAL_AXIS_PAIRS], axis=-1)


def orthogonality_blocks(frame_a, a_t_mb, a_t_b):
    """3x6 derivatives of an OrthogonalityConstraint's residual w.r.t. the
    6-DoF variations of body_a and body_b; translational variations do not
    move it."""
    r_ab = a_t_b[0]
    # Row i of skew(R_AB e_j) for each pair.
    cross = np.stack(
        [skew_stack(r_ab[:, :, j])[:, i] for i, j in ORTHOGONAL_AXIS_PAIRS], axis=1
    )
    zeros = np.zeros(cross.shape)
    d_a = np.concatenate([cross @ frame_a[0], zeros], axis=-1)
    d_b = np.concatenate([-cross @ a_t_mb[0], zeros], axis=-1)
    return d_a, d_b


@dataclass
class ConstraintRows:
    """Constraints evaluated together.  ``extended`` holds each constraint's
    residual over all six axes (the three orthogonality residuals first for
    an OrthogonalityConstraint), ``masks`` its rows.  The rows, in
    constraint order, are ``residual``, their derivatives w.r.t. the 6-DoF
    variations of their bodies ``body_a``/``body_b`` are ``d_a``/``d_b``
    (rows x 6, None when evaluated without blocks)."""

    extended: np.ndarray
    masks: np.ndarray
    d_a: np.ndarray | None
    d_b: np.ndarray | None
    body_a: np.ndarray
    body_b: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        return self.extended[self.masks]

    @property
    def counts(self) -> np.ndarray:
        return self.masks.sum(axis=1)

    def norms(self) -> list[float]:
        """Euclidean norm of each constraint's residual.  Zeros in place of
        the unselected axes leave each row's dot product, and so the norm,
        bit for bit that of np.linalg.norm over the selected rows."""
        return row_norms(np.where(self.masks, self.extended, 0.0)).tolist()


def evaluate_constraints(constraints, bodies, blocks: bool = True) -> ConstraintRows:
    """Every constraint of the list at once, from the poses of ``bodies``:
    one stack of relative poses and rotation logs, the extended residuals
    and, with ``blocks``, the variation blocks of the Constraint formulas,
    with the rows of orthogonality constraints replaced by theirs."""
    if not constraints:
        d = np.zeros((0, 6)) if blocks else None
        index = np.zeros(0, dtype=int)
        return ConstraintRows(np.zeros((0, 6)), np.zeros((0, 6), dtype=bool), d, d, index, index)
    frame_a = stack_poses(c.frame_a for c in constraints)
    frame_b = stack_poses(c.frame_b for c in constraints)
    a_t_mb, a_t_b = relative_poses(
        frame_a,
        frame_b,
        stack_poses(bodies[c.body_a].pose for c in constraints),
        stack_poses(bodies[c.body_b].pose for c in constraints),
    )
    rotvec = log_rotation_stack(a_t_b[0])
    extended = np.concatenate([rotvec, a_t_b[1]], axis=-1)
    if blocks:
        d_a, d_b = pose_constraint_blocks(frame_a, frame_b, a_t_mb, a_t_b, rotvec)
    ortho = np.array([isinstance(c, OrthogonalityConstraint) for c in constraints], dtype=bool)
    if ortho.any():
        extended[ortho, :3] = orthogonality_residual(rows_stack(a_t_b, ortho))
        if blocks:
            d_a[ortho, :3], d_b[ortho, :3] = orthogonality_blocks(
                rows_stack(frame_a, ortho), rows_stack(a_t_mb, ortho), rows_stack(a_t_b, ortho)
            )
    masks = np.array(
        [_ORTHOGONALITY_ROWS if o else c.constrained_axes for c, o in zip(constraints, ortho)],
        dtype=bool,
    ).reshape(-1, 6)
    counts = masks.sum(axis=1)
    return ConstraintRows(
        extended,
        masks,
        d_a[masks] if blocks else None,
        d_b[masks] if blocks else None,
        np.repeat(np.array([c.body_a for c in constraints], dtype=int), counts),
        np.repeat(np.array([c.body_b for c in constraints], dtype=int), counts),
    )


_ORTHOGONALITY_ROWS = np.array([True, True, True, False, False, False])
