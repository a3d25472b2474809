"""Kinematic-structure data model, body Jacobians and pose updates.

A structure is a forest of bodies connected by joints.  Each joint frees a
subset of the six variation axes of its joint frame; the stacked vector of
all joint variations drives the whole structure.  Body Jacobians map that
stacked vector to the 6-DoF variation of each body's model frame.  They
follow Featherstone's spatial-algebra form (Rigid Body Dynamics Algorithms,
2008, ch. 6): each joint coordinate moves the bodies below it along one
world-frame motion column, so no recursion over parents is needed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .se3 import (
    Pose,
    adjoint,
    compose_stack,
    inverse_stack,
    pose_with_variation_stack,
    stack_poses,
)

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


@dataclass
class Body:
    name: str
    joint: Joint
    pose: Pose = field(default_factory=Pose.identity)
    parent: int | None = None


class KinematicStructure:
    """Bodies in topological order plus constraints and the stacked DoF map.

    ``Body.pose`` and the joint transforms are the only state: evaluations
    gather them into stacked arrays, updates write them back once.
    Mutating operations (pose updates) must be serialized by the caller;
    read-only snapshots may be shared for parallel evaluation.
    """

    def __init__(self, bodies: list[Body], constraints: list | None = None):
        self.bodies = list(bodies)
        self.constraints = constraints or []
        n_dofs = [b.joint.n_dof for b in self.bodies]
        self.dof_offsets = np.cumsum([0] + n_dofs[:-1]).tolist()
        self.n_dof = sum(n_dofs)
        # Body and axis of each joint coordinate.
        self.dof_body = np.repeat(np.arange(len(self.bodies)), n_dofs)
        self.dof_axis = np.concatenate([b.joint.free for b in self.bodies])
        # ancestors[i, j]: body j is body i or one of its ancestors.
        ancestors = np.eye(len(self.bodies), dtype=bool)
        self._links = [(i, b.parent) for i, b in enumerate(self.bodies) if b.parent is not None]
        for i, parent in self._links:
            ancestors[i] |= ancestors[parent]
        self._children, self._parents = np.array(self._links, dtype=int).reshape(-1, 2).T
        # subtree[j, i] = 1.0: body i is body j or below it.
        self.subtree = ancestors.T.astype(float)
        # dof_ancestors[i, q]: joint coordinate q moves body i.
        self.dof_ancestors = ancestors[:, self.dof_body]
        # dof_below[p, q]: the body of coordinate q is at or below that of p.
        self.dof_below = self.dof_ancestors[self.dof_body].T

    @property
    def constraints(self) -> list:
        return self._constraints

    @constraints.setter
    def constraints(self, constraints):
        constraints = list(constraints)
        self._validate(constraints)
        self._constraints = constraints

    def _validate(self, constraints):
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
        for k, c in enumerate(constraints):
            for index in (c.body_a, c.body_b):
                if not 0 <= index < len(self.bodies):
                    raise ValueError(
                        f"constraint {k}: body index {index} is not one of the "
                        f"{len(self.bodies)} bodies"
                    )

    def poses(self):
        """Body poses as one stacked pose, (n, 3, 3) and (n, 3)."""
        return stack_poses(b.pose for b in self.bodies)

    def jacobian_factors(self):
        """The factors of the body Jacobians J_i = Ad(pose_i^-1) (S o anc_i):
        the (n, 6, 6) stack Ad(pose_i^-1) and the 6 x n_dof world-frame
        motion columns S, for each joint coordinate the free column of
        Ad(pose_j o joint_to_model_j^-1).  anc_i is row i of dof_ancestors."""
        poses = self.poses()
        joints = stack_poses(b.joint.joint_to_model for b in self.bodies)
        frames = adjoint(compose_stack(poses, inverse_stack(joints)))
        return adjoint(inverse_stack(poses)), frames[self.dof_body, :, self.dof_axis].T

    def body_jacobians(self, factors=None) -> np.ndarray:
        """Each body's 6 x n_dof Jacobian, (n, 6, n_dof): the motion columns
        of body i's ancestors and its own, moved into its model frame."""
        ad_inv, motion = factors or self.jacobian_factors()
        return (ad_inv @ motion) * self.dof_ancestors[:, None, :]

    def update_poses(self, theta_k: np.ndarray):
        """Pose update from the stacked variation vector.

        Each joint's variation T(theta_j) acts in its joint frame: a root
        moves to pose o J_T_M^-1 o T o J_T_M, any other body to
        parent o P_T_J o T o J_T_M with its parent's new pose, in
        topological order.  Afterwards the non-fixed joint transform of
        every joint is re-inferred from the new poses.
        """
        theta_k = np.asarray(theta_k, dtype=float)
        if theta_k.shape != (self.n_dof,):
            raise ValueError(f"theta has length {theta_k.shape[0]}, expected {self.n_dof}")
        n = len(self.bodies)
        extended = np.zeros((n, 6))
        extended[self.dof_body, self.dof_axis] = theta_k
        base = stack_poses(
            b.pose @ b.joint.joint_to_model.inverse() if b.parent is None else b.joint.parent_to_joint
            for b in self.bodies
        )
        joints = stack_poses(b.joint.joint_to_model for b in self.bodies)
        # Homogeneous matrices: one product per body down the tree.
        world = np.zeros((n, 4, 4))
        world[:, :3, :3], world[:, :3, 3] = compose_stack(
            pose_with_variation_stack(base, extended), joints
        )
        world[:, 3, 3] = 1.0
        for i, parent in self._links:
            world[i] = world[parent] @ world[i]
        self.set_poses((np.ascontiguousarray(world[:, :3, :3]), world[:, :3, 3].copy()))

    def set_poses(self, poses):
        """Write stacked poses into the bodies and re-infer the joints."""
        for body, r, t in zip(self.bodies, *poses):
            body.pose = Pose(r, t)
        self._refresh_joints(poses)

    def refresh_joint_transforms(self):
        """Re-infer the non-fixed joint transform of every joint from current poses."""
        self._refresh_joints(self.poses())

    def _refresh_joints(self, poses):
        """With rel = parent^-1 o pose for each non-root body, P_T_J =
        rel o J_T_M^-1 where J_T_M is fixed, else J_T_M = P_T_J^-1 o rel."""
        if not self._links:
            return
        children, parents = self._children, self._parents
        joints = [self.bodies[i].joint for i in children]
        model_fixed = np.array([j.fixed_side is FixedSide.JOINT_TO_MODEL for j in joints])
        fixed_inv = inverse_stack(
            stack_poses(j.joint_to_model if f else j.parent_to_joint for j, f in zip(joints, model_fixed))
        )
        rel = compose_stack(
            inverse_stack((poses[0][parents], poses[1][parents])),
            (poses[0][children], poses[1][children]),
        )
        mask = model_fixed[:, None, None], model_fixed[:, None]
        left = [np.where(m, a, b) for m, a, b in zip(mask, rel, fixed_inv)]
        right = [np.where(m, b, a) for m, a, b in zip(mask, rel, fixed_inv)]
        for joint, fixed, r, t in zip(
            joints, model_fixed, *_orthonormalized(compose_stack(left, right))
        ):
            setattr(joint, "parent_to_joint" if fixed else "joint_to_model", Pose(r, t))


def _orthonormalized(poses):
    """One Newton-Schulz polar step per row, R <- R (3I - R^T R) / 2.

    ``Pose.inverse`` transposes R, which inverts it only while R is
    orthonormal.  Without this step the rounding error of a re-inferred
    joint transform feeds the next pose update and grows with every step
    down a long chain; the step squares the error instead.
    """
    r, t = poses
    return r @ (_THREE_I - np.swapaxes(r, -1, -2) @ r) * 0.5, t


_THREE_I = 3.0 * np.eye(3)
