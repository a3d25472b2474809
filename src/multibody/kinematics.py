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
from dataclasses import dataclass

import numpy as np

from .constraints import (
    ConstraintRows, ConstraintStack, _checked_index, _checked_mask, _frozen, _ReadOnly,
    evaluate_constraints,
)
from .se3 import Pose, _pose, adjoint, exp_rotvec

AXIS_NAMES = ("rot_x", "rot_y", "rot_z", "trans_x", "trans_y", "trans_z")


class FixedSide(enum.Enum):
    """Which joint transform stays fixed; the other moves with the joint."""

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


class _PoseRow:
    """A Pose attribute of a Body or Joint, the identity by default.  The
    object holds it in its own ``__dict__``, which shadows this non-data
    descriptor, until a KinematicStructure adopts the object and takes it;
    from then on it is row ``obj._index`` of the structure's read-only stack
    of that name.  A joint's moving side is derived from the poses when
    first read (_PoseStore.joints), replacing the value given: it is not
    part of the state.  Reading gives a view of the row, which keeps its
    value: only update_poses changes the state, by replacing the poses."""

    def __set_name__(self, cls, name):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return _frozen(Pose.identity())  # the dataclass field's default, shared
        store = obj._owner._store
        stack = store.poses if self.name == "pose" else store.joints()[self.name]
        return stack[obj._index]


class _Adoptable:
    """A Body or Joint.  A KinematicStructure reads its fields once, when it
    adopts the object, and from then on no field can be assigned."""

    _owner = None

    def __setattr__(self, name, value):
        if self._owner is not None:
            what = _row_name(self._owner, self._role, name, self._index)
            raise AttributeError(f"{what} is read-only once a structure adopts it")
        object.__setattr__(self, name, value)


@dataclass(eq=False)
class Joint(_Adoptable, _ReadOnly):
    """Connection allowing motion along a chosen set of joint-frame axes:
    the free-axis values are scattered into the extended 6-vector and fixed
    axes stay zero.  The free axes are read-only, also in a copy.
    ``fixed_side``, a FixedSide or its value, names the transform that
    stays as given; the other, the moving side, is derived from the body
    poses once a structure adopts the joint, and a value given for it is
    replaced (a root's joint keeps both)."""

    free_axes: np.ndarray
    joint_to_model: Pose = _PoseRow()
    parent_to_joint: Pose = _PoseRow()
    fixed_side: FixedSide = FixedSide.JOINT_TO_MODEL
    _role = "joint of body"

    def __post_init__(self):
        self.free_axes = _frozen(_checked_mask(self.free_axes, "free_axes"))
        try:
            self.fixed_side = FixedSide(self.fixed_side)
        except ValueError:
            choices = [side.value for side in FixedSide]
            raise ValueError(
                f"fixed_side must be a FixedSide or one of {choices}, not {self.fixed_side!r}"
            ) from None
        if self.free_axes.shape != (6,):
            raise ValueError("free_axes must have 6 entries")


@dataclass(eq=False)
class Body(_Adoptable):
    name: str
    joint: Joint
    pose: Pose = _PoseRow()
    parent: int | None = None
    _role = "body"


class Coordinates(_ReadOnly):
    """Variation coordinates over a forest of bodies, one per free joint
    axis; each moves its own body and every body below it.  The tree view
    of a structure takes parents and free axes from its bodies' joints.
    The forest view (``free`` None) makes every body a root with six free
    axes, so that its coordinates are its own 6-DoF variation.  A view
    without links, such as the forest view, holds no n x n array: each body
    is its own root and subtree, moved by its own coordinates only.  All of
    it is index data, fixed with the structure and read-only, also in a
    copy: ``links`` is a tuple and every array refuses writes.  The joint
    frames are the structure's stacks.  ``kkt_patterns``, the one mutable
    attribute, caches the solver's read-only KKT pattern of the view
    without (False) and with (True) the structure's rows.
    """

    def __init__(self, parents, free=None):
        n = len(parents)
        free = free or [np.arange(6)] * n
        # Each body's number of coordinates and its first one.
        self.n_dofs = n_dofs = np.array([f.shape[0] for f in free], dtype=int)
        first = np.cumsum(n_dofs) - n_dofs
        self.n_dof = int(n_dofs.sum())
        self.offsets = first
        # Body and axis of each coordinate.
        self.body = np.repeat(np.arange(n), n_dofs)
        self.axis = np.concatenate(free)
        self.links = tuple((i, p) for i, p in enumerate(parents) if p is not None)
        self.children, self.parents = np.array(self.links, dtype=int).reshape(-1, 2).T
        if self.links:
            # ancestors[i, j]: body j is body i or one of its ancestors, of
            # which the root comes first.
            ancestors = np.eye(n, dtype=bool)
            for i, parent in self.links:
                ancestors[i] |= ancestors[parent]
            self.root = ancestors.argmax(axis=1)
            # subtree[j, i] = 1.0: body i is body j or below it.
            self.subtree = ancestors.T.astype(float)
            # moves[i, q]: coordinate q moves body i.
            self.moves = ancestors[:, self.body]
            below, above = np.nonzero(ancestors)
        else:
            self.root = below = above = np.arange(n)
            self.subtree = self.moves = None
        self.roots = np.flatnonzero(self.root == np.arange(n))
        # Upper triangle of H's pattern: pairs p <= q of coordinates whose
        # bodies are in an ancestor relation, the body of q at or below p's,
        # from the pairs of related bodies.
        count = n_dofs[above] * n_dofs[below]
        pair = np.repeat(np.arange(count.shape[0]), count)
        within = np.arange(pair.shape[0]) - np.repeat(np.cumsum(count) - count, count)
        p = first[above[pair]] + within // n_dofs[below[pair]]
        q = first[below[pair]] + within % n_dofs[below[pair]]
        upper = p <= q
        p, q = self.pairs = p[upper], q[upper]
        self.diagonal, self.mirrored = np.flatnonzero(p == q), np.flatnonzero(p != q)
        self.kkt_patterns = {}
        self._freeze()

    def moving(self, bodies: np.ndarray):
        """(k, q) for every coordinate q that moves body bodies[k], by k and
        then q, as np.nonzero of the rows of ``moves`` at ``bodies``."""
        if self.moves is not None:
            return np.nonzero(self.moves[bodies])
        count = self.n_dofs[bodies]
        sides = np.repeat(np.arange(bodies.shape[0]), count)
        start = np.cumsum(count) - count
        return sides, np.arange(sides.shape[0]) + np.repeat(self.offsets[bodies] - start, count)


class _PoseStore(_ReadOnly):
    """What a structure holds at one of its body-pose stacks: the poses, and
    what is derived from them when first read, the joint stacks
    (parent_to_joint, joint_to_model and its inverse model_to_joint) and
    the constraints evaluated there.  Every stack is read-only and replaced,
    never written, so that a store stays that of its poses whatever the
    structure does afterwards.  A copy of the structure has a store of its
    own on the same poses, sharing the joint stacks and the frozen rows
    record already derived.  Pickle builds every part again, read-only.

    A store starts without joint stacks (None), also the first one, built
    at adoption: they are inferred from the poses when first read
    (joints()) and published by one assignment, so that a concurrent reader
    sees None or every stack, and at worst infers them twice.  The rows are
    evaluated when first asked for, without blocks or with them, which
    serve both.
    """

    def __init__(self, s, poses: Pose):
        self.s, self.poses, self._joints, self.rows = s, _frozen(poses), None, None

    def __call__(self, blocks: bool = True) -> ConstraintRows:
        """The constraints evaluated at the store's poses, with their
        variation blocks if ``blocks``: the kept rows, evaluated again only
        if there are none yet or they lack the blocks asked for.  Shared, to
        be read, not written."""
        rows = self.rows
        if rows is None or (blocks and rows.d_a is None):
            rows = self.rows = evaluate_constraints(self.s.constraint_stack, self.poses, blocks)
        return rows

    def joints(self) -> dict:
        """The joint stacks by name, inferred first if the store has none."""
        if self._joints is None:
            self._joints = self._infer()
        return self._joints

    def frames(self) -> dict:
        """The joint stacks that the tree view's updates and Jacobians read,
        joint_to_model and model_to_joint: the adopted constants if every
        joint fixes joint_to_model, else the store's, inferred."""
        return self.joints() if "joint_to_model" in self.s._joint_sides else self.s._adopted

    def _infer(self) -> dict:
        """Each joint's moving side from the poses, in a read-only copy of
        the adopted stack, one polar step from orthonormal: with
        rel = parent^-1 o pose for each non-root body, P_T_J = rel o J_T_M^-1
        where J_T_M is fixed, else J_T_M = P_T_J^-1 o rel and model_to_joint
        its inverse.  The fixed factors are the structure's, computed at
        adoption (_joint_sides), so that only rel is inverted."""
        poses, joints = self.poses, dict(self.s._adopted)
        for name, (children, parents, fixed) in self.s._joint_sides.items():
            rel = poses[parents].inverse() @ poses[children]
            row = _orthonormalized(rel @ fixed if name == "parent_to_joint" else fixed @ rel)
            r, t = joints[name].r.copy(), joints[name].t.copy()
            r[children], t[children] = row.r, row.t
            joints[name] = stack = _frozen(_pose(r, t))
            if name == "joint_to_model":
                joints["model_to_joint"] = _frozen(stack.inverse())
        return joints


class KinematicStructure(_ReadOnly):
    """Bodies in topological order (``bodies``, a tuple), constraints, and
    two read-only coordinate views: ``tree``, the structure's joint
    coordinates, and ``forest``.

    The state is one read-only stack of body poses (``poses``), one row per
    body.  The joints' joint_to_model and parent_to_joint are copied from
    the joints the structure adopts and kept as adopted, with beside
    joint_to_model its inverse (model_to_joint): roots' and fixed sides'
    rows are constants, and so is the fixed factor of each side's
    inference.  Each joint's moving side is derived from the poses when
    read.  What construction fixes is immutable: the bodies tuple, the
    views, their KKT patterns and every array the structure keeps.  Only
    update_poses changes the state, by replacing the pose stack;
    ``Body.pose`` and the joint transforms read their row and refuse
    assignment.  A body or joint handed to a second structure belongs to
    that one; no field of an adopted body or joint can be assigned.  The
    constraints, given at construction, are stacked once
    (``constraint_stack``).

    Each body-pose stack has one store (rows_at_poses): its joint stacks,
    inferred from the poses when first read, and the constraints evaluated
    there (``rows_at_poses()()``, read-only arrays), when first asked for,
    so that each pose is evaluated at most once.  A copy (copy.copy or
    copy.deepcopy, one hook) is a new state on the shared constants, made
    in one pass: it shares everything construction fixed and the frozen
    rows record, and has its own store on the same read-only stacks, and
    its own bodies and joints, bound to it as they are copied.  Pickle
    builds every part again and re-freezes it (_ReadOnly).  Mutating operations (pose updates) must be serialized by
    the caller; read-only snapshots may be shared for parallel evaluation,
    which at worst evaluates the same rows or joints twice.
    """

    def __init__(self, bodies: list[Body], constraints=()):
        self.bodies = tuple(bodies)
        self._constraints = tuple(constraints)
        self._validate()
        self.constraint_stack = ConstraintStack(self._constraints)
        joints = [b.joint for b in self.bodies]
        stacks = {}
        for name, objs in zip(_STACKED, (self.bodies, joints, joints)):
            rows = [getattr(obj, name) for obj in objs]
            name_row = functools.partial(_row_name, self, objs[0]._role, name)
            stacks[name] = Pose.stack(rows, name_row)
        stacks["model_to_joint"] = stacks["joint_to_model"].inverse()
        self._store = _PoseStore(self, stacks.pop("pose"))
        self._adopted = stacks
        parents = [b.parent for b in self.bodies]
        free = [np.flatnonzero(j.free_axes) for j in joints]
        self.tree = Coordinates(parents, free)
        self.n_dof, self.dof_offsets = self.tree.n_dof, self.tree.offsets
        # By the stack inferred, per fixed side (joint_to_model, then
        # parent_to_joint): children, parents and the inference's fixed factor,
        # J_T_M^-1 or P_T_J^-1 (in C order: the product's rounding depends on
        # the layout).
        children, parents = self.tree.children, self.tree.parents
        fixed = np.array([joints[i].fixed_side is FixedSide.JOINT_TO_MODEL for i in children], bool)
        inverse = stacks["parent_to_joint"][children[~fixed]].inverse()
        self._joint_sides = {
            name: (children[rows], parents[rows], factor)
            for rows, name, factor in (
                (fixed, "parent_to_joint", stacks["model_to_joint"][children[fixed]]),
                (~fixed, "joint_to_model", _pose(np.ascontiguousarray(inverse.r), inverse.t)),
            )
            if rows.any()
        }
        self._freeze()
        # Only once every row is valid: the bodies and joints read their
        # pose rows from the structure's stacks from then on.
        for i, body in enumerate(self.bodies):
            for name, obj in zip(_STACKED, (body, body.joint, body.joint)):
                vars(obj).pop(name, None)
                vars(obj).update(_owner=self, _index=i)

    def __deepcopy__(self, memo=None):
        """A new state on the structure's shared constants, made in one
        pass.  The copy shares what construction fixed, all of it read-only:
        the views and their KKT patterns, the constraints and their stack,
        the adopted stacks, the fixed sides and the DoF offsets.  It has its
        own store on the same poses, joint stacks (or none, inferred by its
        own first read) and frozen rows record, and its own bodies and
        joints, shallow copies that keep their rows' indices and are bound
        to it as they are made.  ``memo`` gets the copy, its bodies and its
        joints; a body or joint that a deep copy of a tuple has copied
        before the structure is in ``memo`` already, and is taken from
        there.  A shallow copy is the same: sharing the bodies would share
        their pose rows."""
        memo = {} if memo is None else memo

        def made(old, **changes):
            new = memo.setdefault(id(old), object.__new__(type(old)))
            vars(new).update(vars(old), **changes)
            return new

        twin = made(self)
        bodies = (made(b, _owner=twin, joint=made(b.joint, _owner=twin)) for b in self.bodies)
        twin.bodies = tuple(bodies)
        twin._store = made(self._store, s=twin)
        return twin

    __copy__ = __deepcopy__

    @functools.cached_property
    def forest(self) -> Coordinates:
        return Coordinates([None] * len(self.bodies))

    @property
    def constraints(self) -> tuple:
        return self._constraints

    def _validate(self):
        if not self.bodies:
            raise ValueError("a structure needs at least one body")
        names, joints = set(), {}
        for i, body in enumerate(self.bodies):
            if body.name in names:
                raise ValueError(f"duplicate body name {body.name!r}")
            names.add(body.name)
            if body.parent is not None:
                if not 0 <= _checked_index(body.parent, f"body {body.name!r}: parent") < i:
                    raise ValueError(
                        f"body {body.name!r}: parent index {body.parent} must precede it"
                    )
            first = self.bodies[joints.setdefault(id(body.joint), i)]
            if first is not body:
                raise ValueError(f"body {body.name!r} shares its joint with body {first.name!r}")
        for k, c in enumerate(self._constraints):
            for index in (c.body_a, c.body_b):
                if not 0 <= index < len(self.bodies):
                    raise ValueError(
                        f"constraint {k}: body index {index} is not one of the "
                        f"{len(self.bodies)} bodies"
                    )

    def poses(self) -> Pose:
        """Body poses as one stacked Pose, (n, 3, 3) and (n, 3): the
        structure's own stack, with read-only arrays, which only
        update_poses replaces."""
        return self._store.poses

    def rows_at_poses(self) -> _PoseStore:
        """The store of the current body-pose stack, which gives its
        constraint rows when called (``s.rows_at_poses()(blocks)``).  It
        stays bound to that stack after update_poses replaces it, so rows
        asked of it later are still those of the poses it was taken at."""
        return self._store

    def jacobian_factors(self):
        """The factors of the tree view's body Jacobians
        J_i = Ad(rel_i^-1) (S o anc_i) at the structure's poses, in the
        model frame of each body's tree root: the stack Ad(rel_i^-1) of the
        non-root bodies (tree.children), with rel_i body i's pose in that
        frame, and the 6 x n_dof motion columns S, for each coordinate the
        free column of Ad(F_j), with F_j = rel_j o joint_to_model_j^-1 its
        joint frame (_PoseStore.frames).  anc_i, the coordinates
        that move body i, are those tree.moving lists for it.

        Without links every body is its own root, rel is the identity and
        no pose is read.  The forest view has no Jacobian factors: each of
        its J_i is exactly the identity, so that the solver gathers its KKT
        entries and update_poses moves each body by its own variation.
        """
        view, frames = self.tree, self._store.frames()["model_to_joint"]
        if not view.links:
            return np.zeros((0, 6, 6)), adjoint(frames)[view.body, :, view.axis].T
        poses = self.poses()
        rel = poses[view.root].inverse() @ poses
        # One adjoint call for both stacks.
        a, b = rel.inverse(), rel @ frames
        ad = adjoint(_pose(np.concatenate([a.r, b.r]), np.concatenate([a.t, b.t])))
        return ad[view.children], ad[len(self.bodies) + view.body, :, view.axis].T

    def update_poses(self, theta_k: np.ndarray, forest: bool = False):
        """Pose update from a variation vector in the coordinates of the
        tree view, or of the forest view if ``forest`` (the solver's modes
        without tree projection).  Replaces the body pose stack, the only
        change to the state after adoption, and starts a new store
        (rows_at_poses), with no joint stacks and no constraint rows yet.

        Each joint's variation T(theta_j) acts in its joint frame on its
        body's pose relative to its parent, read from the poses: rel =
        parent^-1 o pose, or the pose itself for a root.  The body's new
        local transform is polar(rel o J_T_M^-1) o T o J_T_M, the polar step
        (_orthonormalized) on the non-root rows only, composed down the tree
        in topological order; J_T_M is that of _PoseStore.frames.  In the
        forest view every body is a root with J_T_M = I and moves to
        pose o T(theta_i).  A theta of another shape than (n_dof,) or with
        a non-finite coordinate, which it names, is refused before any
        stack is replaced.
        """
        view = self.forest if forest else self.tree
        theta_k = np.asarray(theta_k, dtype=float)
        if theta_k.shape != (view.n_dof,):
            raise ValueError(f"theta has shape {theta_k.shape}, expected ({view.n_dof},)")
        if not np.isfinite(theta_k).all():
            q = np.flatnonzero(~np.isfinite(theta_k))[0]
            where = f"{AXIS_NAMES[view.axis[q]]} of body {self.bodies[view.body[q]].name!r}"
            raise ValueError(f"theta[{q}] is {theta_k[q]}, not finite: {where}")
        n = len(self.bodies)
        extended = np.zeros((n, 6))
        extended[view.body, view.axis] = theta_k
        store = self._store
        if forest:
            self._store = _PoseStore(self, store.poses.with_variation(extended))
            return
        poses, frames = store.poses, store.frames()
        # The roots' rows: pose o J_T_M^-1; the inner rows: polar(rel o J_T_M^-1),
        # as parent^-1 o (pose o J_T_M^-1).
        local = poses @ frames["model_to_joint"]
        if view.links:
            inner = _orthonormalized(poses[view.parents].inverse() @ local[view.children])
            local.r[view.children], local.t[view.children] = inner.r, inner.t
        variation = _pose(exp_rotvec(extended[:, :3]), extended[:, 3:])
        poses = local @ variation @ frames["joint_to_model"]
        if view.links:
            # Homogeneous matrices: one product per body down the tree, over
            # a list of the rows, which indexes faster than the stack.
            world = np.zeros((n, 4, 4))
            world[:, :3, :3], world[:, :3, 3] = poses.r, poses.t
            world[:, 3, 3] = 1.0
            mats = list(world)
            for i, parent in view.links:
                mats[i] = mats[parent].dot(mats[i])
            world = np.array(mats)
            poses = _pose(np.ascontiguousarray(world[:, :3, :3]), world[:, :3, 3].copy())
        self._store = _PoseStore(self, poses)


def _orthonormalized(poses: Pose) -> Pose:
    """One Newton-Schulz polar step per row, R <- R (3I - R^T R) / 2.

    ``Pose.inverse`` transposes R, which inverts it only while R is
    orthonormal.  Without this step the rounding error of a relative pose
    or an inferred joint transform feeds the next pose update and grows
    with every step down a long chain; the step squares the error instead.
    """
    r = poses.r
    return _pose(r @ (_THREE_I - r.swapaxes(-1, -2) @ r) * 0.5, poses.t)


def _row_name(s, role: str, name: str, i: int) -> str:
    """Field ``name`` of body i of s (role "body") or of its joint, by the body's name."""
    return f"{role} {s.bodies[i].name!r}: {name}"


_STACKED = ("pose", "joint_to_model", "parent_to_joint")
_THREE_I = 3.0 * np.eye(3)
