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
_PAIR_ROWS, _PAIR_COLUMNS = np.array(ORTHOGONAL_AXIS_PAIRS).T


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


def rotation_blocks(frame_a, a_t_mb, rotvec):
    """Derivatives of a Constraint's rotation rows, log(R_AB) = rotvec, w.r.t.
    the 6-DoF variations of body_a and body_b in their own model frames,
    (2, n, 3, 6): the 3x6 blocks d_a, then d_b.  Translational variations
    do not move these rows."""
    cmat = variation_matrix(rotvec)
    d_a, d_b = blocks = np.zeros((2, rotvec.shape[0], 3, 6))
    d_a[..., :3], d_b[..., :3] = -cmat @ frame_a.r, cmat @ a_t_mb.r
    return blocks


def translation_blocks(frame_a, inverse_a, inverse_b, a_t_mb, a_t_b):
    """Derivatives of a Constraint's translation rows, the translation of
    A_T_B, w.r.t. the 6-DoF variations of body_a and body_b in their own
    model frames, (2, n, 3, 6): the 3x6 blocks d_a, then d_b.  inverse_a
    and inverse_b are frame_a^-1 and frame_b^-1."""
    ma_t_b = (inverse_a.r @ a_t_b.t[..., None])[..., 0] + inverse_a.t  # (inverse_a o a_t_b).t
    d_a, d_b = blocks = np.empty((2, a_t_b.t.shape[0], 3, 6))
    # Each product straight into its block, with no temporary.
    np.matmul(frame_a.r, skew(ma_t_b), out=d_a[..., :3])
    np.matmul(-a_t_mb.r, skew(inverse_b.t), out=d_b[..., :3])
    d_a[..., 3:], d_b[..., 3:] = -frame_a.r, a_t_mb.r
    return blocks


def orthogonality_residual(a_t_b) -> np.ndarray:
    """e_i . (R_AB e_j) for each orthogonal axis pair, (n, 3): the entries
    (i, j) of R_AB."""
    return a_t_b.r[:, _PAIR_ROWS, _PAIR_COLUMNS]


def orthogonality_blocks(frame_a, a_t_mb, a_t_b):
    """Derivatives of an OrthogonalityConstraint's residual w.r.t. the 6-DoF
    variations of body_a and body_b, (2, n, 3, 6): the 3x6 blocks d_a, then
    d_b.  Translational variations do not move it."""
    # Row i of skew(R_AB e_j) for each pair, from one skew of every column.
    cross = skew(a_t_b.r.swapaxes(-1, -2))[:, _PAIR_COLUMNS, _PAIR_ROWS]
    d_a, d_b = blocks = np.zeros((2, cross.shape[0], 3, 6))
    d_a[..., :3], d_b[..., :3] = cross @ frame_a.r, -cross @ a_t_mb.r
    return blocks


class ConstraintStack(_ReadOnly):
    """Constraints as stacks, built once with a structure: ``frame_a``/``frame_b``
    and their ``inverse_a``/``inverse_b``, ``body_a``/``body_b``, ``ortho`` flags,
    row ``masks``, their ``counts``, ``spans`` [start, end) and ``sides``, the body_a
    of each row, then the body_b of each, and ``selects_rotation`` and
    ``selects_translation``, whether any Constraint selects a row of that half.
    Every array is read-only, also in a copy."""

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
        rotation, translation = self.masks[~self.ortho].reshape(-1, 2, 3).any(axis=(0, 2))
        self.selects_rotation, self.selects_translation = np.array(rotation), np.array(translation)
        self._freeze()


@dataclass(frozen=True)
class ConstraintRows(_ReadOnly):
    """A stack of constraints evaluated together.  ``extended`` holds each
    constraint's residual over all six axes (the three orthogonality
    residuals first for an OrthogonalityConstraint); its rotation entries
    are zeros where no Constraint of the stack selects a rotation row, and
    only the entries ``stack.masks`` selects are read.  The rows, in
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
    one stack of relative poses, the extended residuals and, with
    ``blocks``, the variation blocks, each half evaluated only if the stack
    selects a row of it.  The rotation logs and blocks of the Constraint
    formulas are evaluated if a Constraint selects a rotation row
    (``stack.selects_rotation``), and the translation blocks if one selects
    a translation row; the rows of orthogonality constraints have their own
    residual and blocks."""
    frame_a, ortho = stack.frame_a, stack.ortho
    a_t_mb, a_t_b = relative_poses(
        frame_a, stack.inverse_b, poses[stack.body_a], poses[stack.body_b]
    )
    rotvec = log_rotation(a_t_b.r) if stack.selects_rotation else np.zeros_like(a_t_b.t)
    extended = np.concatenate([rotvec, a_t_b.t], axis=-1)
    # d_a, then d_b: the derivatives of each constraint's six axes.
    d = np.zeros((2, *extended.shape, 6)) if blocks else None
    if blocks and stack.selects_rotation:
        d[:, :, :3] = rotation_blocks(frame_a, a_t_mb, rotvec)
    if blocks and stack.selects_translation:
        d[:, :, 3:] = translation_blocks(frame_a, stack.inverse_a, stack.inverse_b, a_t_mb, a_t_b)
    if np.count_nonzero(ortho):
        extended[ortho, :3] = orthogonality_residual(a_t_b[ortho])
        if blocks:
            d[:, ortho, :3] = orthogonality_blocks(frame_a[ortho], a_t_mb[ortho], a_t_b[ortho])
    # A gather per body, so that each is contiguous for assemble: one gather
    # over both gives non-contiguous halves.
    d_a, d_b = (d[0][stack.masks], d[1][stack.masks]) if blocks else (None, None)
    return ConstraintRows(extended, d_a, d_b, stack)


_ORTHOGONALITY_ROWS = np.array([True, True, True, False, False, False])
