"""Kinematic-structure data model, body Jacobians and pose updates.

A structure is a forest of bodies connected by joints.  Each joint frees a
subset of the six variation axes of its joint frame; the stacked vector of
all joint variations drives the whole structure.  Body Jacobians map that
stacked vector to the 6-DoF variation of each body's model frame.  They
follow Featherstone's spatial-algebra form (Rigid Body Dynamics Algorithms,
2008, ch. 6): each joint coordinate moves the bodies below it along one
motion column in the frame of its tree's root, so no recursion over parents
is needed.  The same algebra covers free bodies: the forest view of a
structure makes every body a root with its own six coordinates.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .se3 import (
    Pose,
    adjoint,
    compose_stack,
    inverse_stack,
    pose_with_variation_stack,
    rows_stack,
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


class Coordinates:
    """Variation coordinates over a forest of bodies, one per free joint
    axis; each moves its own body and every body below it.  The tree view
    of a structure takes parents and joints from its bodies.  The forest
    view (``joints`` None) makes every body a root with six free axes and
    an identity joint_to_model, so that its coordinates are its own 6-DoF
    variation.
    """

    def __init__(self, parents, joints=None):
        n = len(parents)
        self.joints = joints
        free = [j.free for j in joints] if joints else [np.arange(6)] * n
        n_dofs = [f.shape[0] for f in free]
        self.n_dof = sum(n_dofs)
        self.offsets = np.cumsum([0] + n_dofs[:-1]).tolist()
        # Body and axis of each coordinate.
        self.body = np.repeat(np.arange(n), n_dofs)
        self.axis = np.concatenate(free)
        self.rotational = self.axis < 3
        self.links = [(i, p) for i, p in enumerate(parents) if p is not None]
        self.children, self.parents = np.array(self.links, dtype=int).reshape(-1, 2).T
        # ancestors[i, j]: body j is body i or one of its ancestors, of which
        # the root comes first.
        ancestors = np.eye(n, dtype=bool)
        for i, parent in self.links:
            ancestors[i] |= ancestors[parent]
        self.root = ancestors.argmax(axis=1)
        # subtree[j, i] = 1.0: body i is body j or below it.
        self.subtree = ancestors.T.astype(float)
        # moves[i, q]: coordinate q moves body i.
        self.moves = ancestors[:, self.body]
        # Upper triangle of H's pattern: pairs p <= q of coordinates whose
        # bodies are in an ancestor relation, the body of q at or below p's,
        # from the pairs of related bodies.
        below, above = np.nonzero(ancestors)
        n_dofs, first = np.array(n_dofs), np.array(self.offsets, dtype=int)
        count = n_dofs[above] * n_dofs[below]
        pair = np.repeat(np.arange(count.shape[0]), count)
        within = np.arange(pair.shape[0]) - np.repeat(np.cumsum(count) - count, count)
        p = first[above[pair]] + within // n_dofs[below[pair]]
        q = first[below[pair]] + within % n_dofs[below[pair]]
        upper = p <= q
        p, q = self.pairs = p[upper], q[upper]
        self.diagonal, self.mirrored = np.flatnonzero(p == q), np.flatnonzero(p != q)
        # Slots in a (trees, width) layout, one row per tree, in which
        # products of per-tree blocks cover every pattern pair.
        tree = np.unique(self.root[self.body], return_inverse=True)[1].reshape(-1)
        counts = np.bincount(tree)
        rank = np.empty(self.n_dof, dtype=int)
        rank[np.argsort(tree, kind="stable")] = np.arange(self.n_dof) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        self.layout = (counts.shape[0], int(counts.max(initial=0)))
        self.slots = tree * self.layout[1] + rank
        self.pair_slots = self.slots[p] * self.layout[1] + rank[q]
        self.padded = not np.array_equal(self.slots, np.arange(self.n_dof))
        # Where the solver places the KKT entries of this view, kept from
        # one step to the next.
        self.kkt_pattern = None

    def per_tree(self, x: np.ndarray) -> np.ndarray:
        """Rows of x, one per coordinate, in the (trees, width) layout."""
        if not self.padded:
            return x.reshape(self.layout + x.shape[1:])
        out = np.zeros((self.layout[0] * self.layout[1],) + x.shape[1:])
        out[self.slots] = x
        return out.reshape(self.layout + x.shape[1:])

    def joint_to_model(self):
        """The joint_to_model transforms as one stacked pose."""
        if self.joints is None:
            n = self.subtree.shape[0]
            return np.broadcast_to(_EYE3, (n, 3, 3)), np.zeros((n, 3))
        return stack_poses(j.joint_to_model for j in self.joints)


class KinematicStructure:
    """Bodies in topological order, constraints, and two coordinate views:
    ``tree``, the structure's joint coordinates, and ``forest``.

    ``Body.pose`` and the joint transforms are the only state: evaluations
    gather them into stacked arrays, updates write them back once.
    Mutating operations (pose updates) must be serialized by the caller;
    read-only snapshots may be shared for parallel evaluation.
    """

    def __init__(self, bodies: list[Body], constraints=()):
        self.bodies = list(bodies)
        self.constraints = constraints
        self.tree = Coordinates([b.parent for b in self.bodies], [b.joint for b in self.bodies])
        self.n_dof, self.dof_offsets = self.tree.n_dof, self.tree.offsets

    @functools.cached_property
    def forest(self) -> Coordinates:
        return Coordinates([None] * len(self.bodies))

    @property
    def constraints(self) -> tuple:
        return self._constraints

    @constraints.setter
    def constraints(self, constraints):
        constraints = tuple(constraints)
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

    def jacobian_factors(self, view: Coordinates):
        """The factors of the body Jacobians J_i = Ad(rel_i^-1) (S o anc_i)
        of a view, in the model frame of each body's tree root: the stack
        Ad(rel_i^-1) of the non-root bodies (view.children), with rel_i body
        i's pose in that frame, and the 6 x n_dof motion columns S, for
        each coordinate the free column of Ad(F_j), with F_j =
        rel_j o joint_to_model_j^-1 its joint frame.  anc_i, the
        coordinates that move body i, is view.moves[i].

        Without links every body is its own root, rel is the identity and
        no pose is read; in the forest view every J_i is exactly the
        identity.
        """
        frames = inverse_stack(view.joint_to_model())
        if not view.links:
            return np.zeros((0, 6, 6)), adjoint(frames)[view.body, :, view.axis].T
        poses = self.poses()
        rel = compose_stack(inverse_stack(rows_stack(poses, view.root)), poses)
        # One adjoint call for both stacks.
        both = zip(inverse_stack(rel), compose_stack(rel, frames))
        ad = adjoint([np.concatenate(pair) for pair in both])
        return ad[view.children], ad[len(self.bodies) + view.body, :, view.axis].T

    def update_poses(self, theta_k: np.ndarray, view: Coordinates | None = None):
        """Pose update from a variation vector in the coordinates of a view,
        the tree view by default.

        Each joint's variation T(theta_j) acts in its joint frame: a root
        moves to pose o J_T_M^-1 o T o J_T_M, any other body to
        parent o P_T_J o T o J_T_M with its parent's new pose, in
        topological order.  In the forest view every body is a root with
        J_T_M = I and moves to pose o T(theta_i).  Afterwards the non-fixed
        joint transform of every joint is re-inferred from the new poses.
        """
        view = view or self.tree
        theta_k = np.asarray(theta_k, dtype=float)
        if theta_k.shape != (view.n_dof,):
            raise ValueError(f"theta has length {theta_k.shape[0]}, expected {view.n_dof}")
        n = len(self.bodies)
        extended = np.zeros((n, 6))
        extended[view.body, view.axis] = theta_k
        joints = view.joint_to_model()
        base = compose_stack(self.poses(), inverse_stack(joints))
        if view.links:
            base[0][view.children], base[1][view.children] = stack_poses(
                view.joints[i].parent_to_joint for i in view.children
            )
        poses = compose_stack(pose_with_variation_stack(base, extended), joints)
        if view.links:
            # Homogeneous matrices: one product per body down the tree.
            world = np.zeros((n, 4, 4))
            world[:, :3, :3], world[:, :3, 3] = poses
            world[:, 3, 3] = 1.0
            for i, parent in view.links:
                world[i] = world[parent] @ world[i]
            poses = np.ascontiguousarray(world[:, :3, :3]), world[:, :3, 3].copy()
        for body, r, t in zip(self.bodies, *poses):
            body.pose = Pose(r, t)
        self._refresh_joints(poses)

    def refresh_joint_transforms(self):
        """Re-infer the non-fixed joint transform of every joint from current poses."""
        self._refresh_joints(self.poses())

    def _refresh_joints(self, poses):
        """With rel = parent^-1 o pose for each non-root body, P_T_J =
        rel o J_T_M^-1 where J_T_M is fixed, else J_T_M = P_T_J^-1 o rel."""
        if not self.tree.links:
            return
        children, parents = self.tree.children, self.tree.parents
        joints = [self.bodies[i].joint for i in children]
        model_fixed = np.array([j.fixed_side is FixedSide.JOINT_TO_MODEL for j in joints])
        fixed_inv = inverse_stack(
            stack_poses(j.joint_to_model if f else j.parent_to_joint for j, f in zip(joints, model_fixed))
        )
        rel = compose_stack(
            inverse_stack(rows_stack(poses, parents)), rows_stack(poses, children)
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
_EYE3 = np.eye(3)
