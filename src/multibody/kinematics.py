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
    """Connection allowing motion along a chosen set of joint-frame axes:
    the free-axis values are scattered into the extended 6-vector and fixed
    axes stay zero."""

    free_axes: np.ndarray
    joint_to_model: Pose = field(default_factory=Pose.identity)
    parent_to_joint: Pose = field(default_factory=Pose.identity)
    fixed_side: FixedSide = FixedSide.JOINT_TO_MODEL

    def __post_init__(self):
        self.free_axes = np.asarray(self.free_axes, dtype=bool)
        if self.free_axes.shape != (6,):
            raise ValueError("free_axes must have 6 entries")
        # Indices of the free axes: the joint's motion subspace is these
        # columns of the identity.
        self.free = np.flatnonzero(self.free_axes)
        self.n_dof = int(self.free.shape[0])


def expand_joint_variation(joint: Joint, theta_j: np.ndarray) -> np.ndarray:
    """Extended 6-vector with joint values on free axes, zeros on fixed ones."""
    theta_j = np.atleast_1d(np.asarray(theta_j, dtype=float))
    if theta_j.shape != (joint.n_dof,):
        raise ValueError(
            f"joint variation has length {theta_j.shape[0]}, expected {joint.n_dof}"
        )
    extended = np.zeros(6)
    extended[joint.free] = theta_j
    return extended


@dataclass
class Body:
    name: str
    joint: Joint
    pose: Pose = field(default_factory=Pose.identity)
    parent: int | None = None


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
        self._jacobians = None

    def _validate(self):
        if not self.bodies:
            raise ValueError("a structure needs at least one body")
        names = set()
        for i, body in enumerate(self.bodies):
            if body.name in names:
                raise ValueError(f"duplicate body name {body.name!r}")
            names.add(body.name)
            if body.parent is not None and not 0 <= body.parent < i:
                raise ValueError(
                    f"body {body.name!r}: parent index {body.parent} must precede it"
                )
        for k, c in enumerate(self.constraints):
            for index in (c.body_a, c.body_b):
                if not 0 <= index < len(self.bodies):
                    raise ValueError(
                        f"constraint {k}: body index {index} is not one of the "
                        f"{len(self.bodies)} bodies"
                    )

    def invalidate_jacobians(self):
        self._jacobians = None

    def compute_body_jacobians(self) -> list[np.ndarray]:
        """Each body's 6 x n_dof Jacobian, by recursion over parents; also
        cached for `body_jacobians`.

        J = Ad(M_T_P) J_parent + free columns of Ad(M_T_J) at the body's
        offset, with the root contributing only the joint term.
        """
        jacobians = []
        for body, off in zip(self.bodies, self.dof_offsets):
            jac = np.zeros((6, self.n_dof))
            if body.parent is not None:
                m_t_p = body.pose.inverse() @ self.bodies[body.parent].pose
                jac += adjoint(m_t_p) @ jacobians[body.parent]
            if body.joint.n_dof > 0:
                ad_m_t_j = adjoint(body.joint.joint_to_model.inverse())
                jac[:, off : off + body.joint.n_dof] += ad_m_t_j[:, body.joint.free]
            jacobians.append(jac)
        self._jacobians = jacobians
        return jacobians

    def body_jacobians(self) -> list[np.ndarray]:
        if self._jacobians is None:
            return self.compute_body_jacobians()
        return self._jacobians

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
        for body, off in zip(self.bodies, self.dof_offsets):
            joint = body.joint
            extended = expand_joint_variation(joint, theta_k[off : off + joint.n_dof])
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
