"""Kinematic-structure data model and recursive Jacobian / pose machinery.

A structure is a forest of bodies connected by joints.  Each joint frees a
subset of the six variation axes of its joint frame; the stacked vector of
all joint variations drives the whole structure.  Body Jacobians map that
stacked vector to the 6-DoF variation of each body's model frame.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .se3 import Pose, adjoint, pose_with_variation

AXIS_NAMES = ("rot_x", "rot_y", "rot_z", "trans_x", "trans_y", "trans_z")


class FixedSide(enum.Enum):
    """Which joint transform stays fixed; the other is re-inferred after updates."""

    JOINT_TO_MODEL = "joint_to_model"
    PARENT_TO_JOINT = "parent_to_joint"


def axes_mask(names) -> np.ndarray:
    """Boolean 6-mask from axis names like ["rot_z", "trans_x"]."""
    mask = np.zeros(6, dtype=bool)
    for name in names:
        if name not in AXIS_NAMES:
            raise ValueError(f"unknown axis {name!r}; expected one of {AXIS_NAMES}")
        mask[AXIS_NAMES.index(name)] = True
    return mask


@dataclass
class Joint:
    """Connection allowing motion along a chosen set of joint-frame axes.

    ``coupling`` optionally maps the reduced joint variation to the extended
    6-vector (e.g. a screw joint tying rotation to translation); by default
    the free-axis values are scattered and fixed axes stay zero.
    """

    free_axes: np.ndarray
    joint_to_model: Pose = field(default_factory=Pose.identity)
    parent_to_joint: Pose = field(default_factory=Pose.identity)
    fixed_side: FixedSide = FixedSide.JOINT_TO_MODEL
    coupling: np.ndarray | None = None

    def __post_init__(self):
        self.free_axes = np.asarray(self.free_axes, dtype=bool)
        if self.free_axes.shape != (6,):
            raise ValueError("free_axes must have 6 entries")
        if self.coupling is not None:
            self.coupling = np.asarray(self.coupling, dtype=float)
            if self.coupling.shape != (6, self.n_dof):
                raise ValueError("coupling must be 6 x n_dof")

    @property
    def n_dof(self) -> int:
        return int(np.count_nonzero(self.free_axes))

    def expansion(self) -> np.ndarray:
        """6 x n_dof matrix taking the joint variation to the extended 6-vector."""
        if self.coupling is not None:
            return self.coupling
        sel = np.zeros((6, self.n_dof))
        sel[np.flatnonzero(self.free_axes), np.arange(self.n_dof)] = 1.0
        return sel


def expand_joint_variation(joint: Joint, theta_j: np.ndarray) -> np.ndarray:
    """Extended 6-vector with joint values on free axes, zeros on fixed ones."""
    theta_j = np.atleast_1d(np.asarray(theta_j, dtype=float))
    if theta_j.shape != (joint.n_dof,):
        raise ValueError(
            f"joint variation has length {theta_j.shape[0]}, expected {joint.n_dof}"
        )
    return joint.expansion() @ theta_j


@dataclass
class Body:
    name: str
    joint: Joint
    pose: Pose = field(default_factory=Pose.identity)
    parent: int | None = None
    jacobian: np.ndarray | None = None


class KinematicStructure:
    """Bodies in topological order plus constraints and the stacked DoF map.

    Mutating operations (Jacobians, pose updates) must be serialized by the
    caller; read-only snapshots may be shared for parallel evaluation.
    """

    def __init__(self, bodies: list[Body], constraints: list | None = None):
        self.bodies = list(bodies)
        self.constraints = list(constraints) if constraints else []
        self._validate()
        self.dof_offsets = []
        offset = 0
        for body in self.bodies:
            self.dof_offsets.append(offset)
            offset += body.joint.n_dof
        self.n_dof = offset
        self._jacobians_valid = False

    def _validate(self):
        names = set()
        for i, body in enumerate(self.bodies):
            if body.name in names:
                raise ValueError(f"duplicate body name {body.name!r}")
            names.add(body.name)
            if body.parent is not None and not 0 <= body.parent < i:
                raise ValueError(
                    f"body {body.name!r}: parent index {body.parent} must precede it"
                )

    def body_index(self, name: str) -> int:
        for i, body in enumerate(self.bodies):
            if body.name == name:
                return i
        raise KeyError(name)

    def invalidate_jacobians(self):
        self._jacobians_valid = False
        for body in self.bodies:
            body.jacobian = None

    def compute_body_jacobians(self):
        """Fill each body's 6 x n_dof Jacobian by recursion over parents.

        J = Ad(M_T_P) J_parent + columns of Ad(M_T_J) at the body's offset,
        with the root contributing only the joint term.
        """
        for i, body in enumerate(self.bodies):
            jac = np.zeros((6, self.n_dof))
            if body.parent is not None:
                parent = self.bodies[body.parent]
                m_t_p = body.pose.inverse() @ parent.pose
                jac += adjoint(m_t_p) @ parent.jacobian
            if body.joint.n_dof > 0:
                ad_m_t_j = adjoint(body.joint.joint_to_model.inverse())
                off = self.dof_offsets[i]
                jac[:, off : off + body.joint.n_dof] += ad_m_t_j @ body.joint.expansion()
            body.jacobian = jac
        self._jacobians_valid = True

    def body_jacobians(self) -> list[np.ndarray]:
        if not self._jacobians_valid:
            self.compute_body_jacobians()
        return [body.jacobian for body in self.bodies]

    def joint_variation(self, i: int, theta_k: np.ndarray) -> np.ndarray:
        off = self.dof_offsets[i]
        return theta_k[off : off + self.bodies[i].joint.n_dof]

    def update_poses(self, theta_k: np.ndarray):
        """Recursive pose update from the stacked variation vector.

        Non-root bodies rebuild their pose through the (updated) parent and
        the joint chain; the root applies its joint variation relative to its
        previous pose.  Afterwards the non-fixed joint transform of every
        joint is re-inferred from the new poses.
        """
        theta_k = np.asarray(theta_k, dtype=float)
        if theta_k.shape != (self.n_dof,):
            raise ValueError(f"theta has length {theta_k.shape[0]}, expected {self.n_dof}")
        for i, body in enumerate(self.bodies):
            joint = body.joint
            extended = expand_joint_variation(joint, self.joint_variation(i, theta_k))
            j_t_m = joint.joint_to_model
            step = pose_with_variation(j_t_m.inverse(), extended) @ j_t_m
            if body.parent is None:
                body.pose = body.pose @ step
            else:
                parent_pose = self.bodies[body.parent].pose
                body.pose = parent_pose @ joint.parent_to_joint @ j_t_m @ step
        self.refresh_joint_transforms()
        self.invalidate_jacobians()

    def refresh_joint_transforms(self):
        """Re-infer the non-fixed joint transform of every joint from current poses."""
        for body in self.bodies:
            if body.parent is None:
                continue
            joint = body.joint
            parent_pose = self.bodies[body.parent].pose
            if joint.fixed_side is FixedSide.JOINT_TO_MODEL:
                joint.parent_to_joint = _orthonormalized(
                    parent_pose.inverse() @ body.pose @ joint.joint_to_model.inverse()
                )
            else:
                joint.joint_to_model = _orthonormalized(
                    joint.parent_to_joint.inverse() @ parent_pose.inverse() @ body.pose
                )


def _orthonormalized(pose: Pose) -> Pose:
    """One Newton-Schulz polar step, R <- R (3I - R^T R) / 2.

    ``Pose.inverse`` transposes R, which inverts it only while R is
    orthonormal.  Without this step the rounding error of a re-inferred
    joint transform feeds the next pose update and grows with every step
    down a long chain; the step squares the error instead.
    """
    r = pose.r
    return Pose(r @ (_THREE_I - r.T @ r) * 0.5, pose.t)


_THREE_I = 3.0 * np.eye(3)
