"""Pose-difference constraints between pairs of bodies and their Jacobians.

A constraint pins selected axes of the relative pose between two frames,
one attached to each body.  Residual rows are taken from the extended
6-vector [rotation vector | translation] of the relative transform, in the
ordering of frame A.  An orthogonality constraint is also provided as a
baseline formulation that only asks pairs of axes to stay perpendicular.

Constraints are frozen records, given to a structure when it is built and
stacked once into a read-only ConstraintStack.  `evaluate_constraints`
computes the residual rows and derivatives of all of them at once, at a
stacked pose; the convergence study calls the formulas below on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .se3 import Pose, log_rotation, row_norms, skew, variation_matrix


def _frozen(value):
    """``value``, its arrays made read-only: an array, a Pose's arrays, or
    the arrays among the items of a dict, tuple or list, at any depth, and
    those of the Poses there.  Other values are left as they are."""
    # Arrays first: a ConstraintRows, built at every step, holds arrays.
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, Pose):
        value.r.setflags(write=False), value.t.setflags(write=False)
    elif isinstance(value, (tuple, list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            _frozen(item)
    return value


class _ReadOnly:
    """Every array among the attributes, and those that _frozen reaches
    from them, is read-only, also in a copy: numpy copies and unpickles
    arrays writeable.  The one unpickling and deep-copy hook of the records
    that hold read-only arrays, which freeze them when built, by _freeze or
    _frozen.  A structure's own copy hook (KinematicStructure.__deepcopy__)
    shares what its construction fixed and its stored rows instead of
    copying them, so that only pickle and a record copied on its own come
    here."""

    def _freeze(self):
        for value in vars(self).values():
            _frozen(value)

    def __setstate__(self, state):
        vars(self).update(state)
        self._freeze()


def _checked_index(value, what: str):
    """``value``, a body index: a Python or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an integer body index, not {value!r}")
    return value


def _checked_type(value, classes: tuple, what: str):
    """``value``, an instance of one of ``classes``."""
    if not isinstance(value, classes):
        kinds = " or ".join(cls.__name__ for cls in classes)
        raise TypeError(f"{what} must be a {kinds}, not {type(value).__name__}")
    return value


def _checked_mask(value, what: str) -> np.ndarray:
    """A new array of ``value``, an axis mask: its dtype must be bool."""
    mask = np.array(value)
    if mask.dtype != bool:
        raise TypeError(f"{what} must be a boolean mask, not {value!r}")
    return mask


@dataclass(frozen=True)
class _FramePair(_ReadOnly):
    """Two distinct bodies with a frame on each: ``frame_a`` maps body_a's
    model frame into frame A, ``frame_b`` body_b's model frame into B.  The
    frames are copied, and their arrays, like every array of the record,
    are read-only, also in a copy."""

    body_a: int
    body_b: int
    frame_a: Pose = field(default_factory=Pose.identity)
    frame_b: Pose = field(default_factory=Pose.identity)

    def __post_init__(self):
        for side in ("body_a", "body_b"):
            _checked_index(getattr(self, side), side)
        if self.body_a == self.body_b:
            raise ValueError("constraint must reference two distinct bodies")
        for side in ("frame_a", "frame_b"):
            frame = getattr(self, side)
            object.__setattr__(self, side, Pose(np.array(frame.r, float), np.array(frame.t, float)))
        self._freeze()

    def residual(self, s) -> np.ndarray:
        """Residual rows at the structure's current poses.  Kept for the
        benchmark's structure check (perfbench/workloads.py, structure_ok)."""
        return evaluate_constraints(ConstraintStack([self]), s.poses(), blocks=False).residual


@dataclass(frozen=True)
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
        axes = _checked_mask(self.constrained_axes, "constrained_axes")
        object.__setattr__(self, "constrained_axes", axes)
        super().__post_init__()
        if axes.shape != (6,):
            raise ValueError("constrained_axes must have 6 entries")
        if not axes.any():
            raise ValueError("constraint must select at least one axis")


# Axis pairs (i, j) whose inner product must vanish: (x,y), (y,z), (z,x).
ORTHOGONAL_AXIS_PAIRS = ((0, 1), (1, 2), (2, 0))


@dataclass(frozen=True)
class OrthogonalityConstraint(_FramePair):
    """Baseline constraint asking pairs of frame axes to stay perpendicular:
    residual e_i . (R_AB e_j) for each orthogonal axis pair.

    Weaker than pinning the relative rotation: any axis permutation with
    matching signs also satisfies it, which admits spurious solutions with
    rotational errors of pi and 2*pi/3.
    """


# Stacked formulas, one row per constraint.  Frames and body poses are
# stacked Poses.


def relative_poses(frame_a: Pose, inverse_b: Pose, pose_a: Pose, pose_b: Pose):
    """A_T_Mb = frame_a o pose_a^-1 o pose_b and the transform from frame B
    into frame A, A_T_B = A_T_Mb o frame_b^-1, given inverse_b = frame_b^-1."""
    a_t_mb = frame_a @ pose_a.inverse() @ pose_b
    return a_t_mb, a_t_mb @ inverse_b


def pose_constraint_blocks(frame_a, inverse_a, inverse_b, a_t_mb, a_t_b, rotvec):
    """6x6 derivatives of a Constraint's extended residual
    [rotvec | translation] w.r.t. the 6-DoF variations of body_a and body_b
    in their own model frames; rotvec is log(R_AB), inverse_a and inverse_b
    are frame_a^-1 and frame_b^-1."""
    n = rotvec.shape[0]
    cmat = variation_matrix(rotvec)
    r_a_ma = frame_a.r
    r_a_mb = a_t_mb.r
    ma_t_b = (inverse_a.r @ a_t_b.t[..., None])[..., 0] + inverse_a.t  # (inverse_a o a_t_b).t

    d_a = np.zeros((n, 6, 6))
    d_a[:, :3, :3] = -cmat @ r_a_ma
    d_a[:, 3:, :3] = r_a_ma @ skew(ma_t_b)
    d_a[:, 3:, 3:] = -r_a_ma

    d_b = np.zeros((n, 6, 6))
    d_b[:, :3, :3] = cmat @ r_a_mb
    d_b[:, 3:, :3] = -r_a_mb @ skew(inverse_b.t)
    d_b[:, 3:, 3:] = r_a_mb
    return d_a, d_b


def orthogonality_residual(a_t_b) -> np.ndarray:
    """e_i . (R_AB e_j) for each orthogonal axis pair, (n, 3)."""
    r_ab = a_t_b.r
    return np.stack([r_ab[:, i, j] for i, j in ORTHOGONAL_AXIS_PAIRS], axis=-1)


def orthogonality_blocks(frame_a, a_t_mb, a_t_b):
    """3x6 derivatives of an OrthogonalityConstraint's residual w.r.t. the
    6-DoF variations of body_a and body_b; translational variations do not
    move it."""
    r_ab = a_t_b.r
    # Row i of skew(R_AB e_j) for each pair.
    cross = np.stack(
        [skew(r_ab[:, :, j])[:, i] for i, j in ORTHOGONAL_AXIS_PAIRS], axis=1
    )
    zeros = np.zeros(cross.shape)
    d_a = np.concatenate([cross @ frame_a.r, zeros], axis=-1)
    d_b = np.concatenate([-cross @ a_t_mb.r, zeros], axis=-1)
    return d_a, d_b


class ConstraintStack(_ReadOnly):
    """Constraints as stacks, built once with a structure: ``frame_a``/``frame_b``
    and their ``inverse_a``/``inverse_b``, ``body_a``/``body_b``, ``ortho`` flags,
    row ``masks``, their ``counts``, ``spans`` [start, end) and ``sides``, the body_a
    of each row, then the body_b of each.  Every array is read-only, also in a copy."""

    def __init__(self, constraints):
        self.frame_a, self.frame_b = (
            Pose.stack([getattr(c, side) for c in constraints], f"constraint {{}}: {side}".format)
            for side in ("frame_a", "frame_b")
        )
        self.inverse_a, self.inverse_b = self.frame_a.inverse(), self.frame_b.inverse()
        self.body_a = np.array([c.body_a for c in constraints], dtype=int)
        self.body_b = np.array([c.body_b for c in constraints], dtype=int)
        self.ortho = np.array([isinstance(c, OrthogonalityConstraint) for c in constraints], bool)
        axes = [getattr(c, "constrained_axes", _ORTHOGONALITY_ROWS) for c in constraints]
        self.masks = np.array(axes, dtype=bool).reshape(-1, 6)
        self.counts = self.masks.sum(axis=1)
        self.spans = np.stack([np.cumsum(self.counts) - self.counts, np.cumsum(self.counts)], -1)
        self.sides = np.repeat([self.body_a, self.body_b], self.counts, axis=1).ravel()
        self._freeze()


@dataclass(frozen=True)
class ConstraintRows(_ReadOnly):
    """A stack of constraints evaluated together.  ``extended`` holds each
    constraint's residual over all six axes (the three orthogonality
    residuals first for an OrthogonalityConstraint).  The rows, in
    constraint order, are ``residual``; their derivatives w.r.t. the 6-DoF
    variations of their bodies (the two halves of ``stack.sides``) are
    ``d_a``/``d_b`` (rows x 6, None when evaluated without blocks).  A
    frozen record whose arrays are read-only, also in a copy, so that the
    rows stay those of the poses they were evaluated at, and a structure's
    copies share it."""

    extended: np.ndarray
    d_a: np.ndarray | None
    d_b: np.ndarray | None
    stack: ConstraintStack

    def __post_init__(self):
        self._freeze()

    @property
    def residual(self) -> np.ndarray:
        return self.extended[self.stack.masks]

    def norms(self) -> list[float]:
        """Euclidean norm of each constraint's residual.  Zeros in place of
        the unselected axes leave each row's dot product, and so the norm,
        bit for bit that of np.linalg.norm over the selected rows."""
        return row_norms(np.where(self.stack.masks, self.extended, 0.0)).tolist()


def evaluate_constraints(stack: ConstraintStack, poses, blocks: bool = True) -> ConstraintRows:
    """Every constraint of a stack at once, at a stacked pose of the bodies:
    one stack of relative poses and rotation logs, the extended residuals
    and, with ``blocks``, the variation blocks of the Constraint formulas,
    with the rows of orthogonality constraints replaced by theirs."""
    if not stack.body_a.shape[0]:
        d = np.zeros((0, 6)) if blocks else None
        return ConstraintRows(np.zeros((0, 6)), d, d, stack)
    a_t_mb, a_t_b = relative_poses(
        stack.frame_a, stack.inverse_b, poses[stack.body_a], poses[stack.body_b]
    )
    rotvec = log_rotation(a_t_b.r)
    extended = np.concatenate([rotvec, a_t_b.t], axis=-1)
    if blocks:
        d_a, d_b = pose_constraint_blocks(
            stack.frame_a, stack.inverse_a, stack.inverse_b, a_t_mb, a_t_b, rotvec
        )
    ortho = stack.ortho
    if np.count_nonzero(ortho):
        extended[ortho, :3] = orthogonality_residual(a_t_b[ortho])
        if blocks:
            d_a[ortho, :3], d_b[ortho, :3] = orthogonality_blocks(
                stack.frame_a[ortho], a_t_mb[ortho], a_t_b[ortho]
            )
    d_a, d_b = (d_a[stack.masks], d_b[stack.masks]) if blocks else (None, None)
    return ConstraintRows(extended, d_a, d_b, stack)


_ORTHOGONALITY_ROWS = np.array([True, True, True, False, False, False])
