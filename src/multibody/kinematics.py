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

import functools
from dataclasses import dataclass

import numpy as np

from .constraints import (
    Constraint, ConstraintRows, ConstraintStack, OrthogonalityConstraint, _checked_index,
    _checked_mask, _checked_type, _frozen, _ReadOnly, evaluate_constraints,
)
from .se3 import Pose, _pose, adjoint, exp_rotvec

AXIS_NAMES = ("rot_x", "rot_y", "rot_z", "trans_x", "trans_y", "trans_z")


def axes_mask(names) -> np.ndarray:
    """Boolean 6-mask from axis names like ["rot_z", "trans_x"]."""
    mask = np.zeros(6, dtype=bool)
    for name in names:
        if name not in AXIS_NAMES:
            raise ValueError(f"unknown axis {name!r}; expected one of {AXIS_NAMES}")
        mask[AXIS_NAMES.index(name)] = True
    return mask


@dataclass(frozen=True, eq=False)
class Joint(_ReadOnly):
    """Connection allowing motion along a chosen set of joint-frame axes:
    the free-axis values are scattered into the extended 6-vector and fixed
    axes stay zero.  A joint fixes one of its two transforms, the one given
    by keyword, joint_to_model (the identity if neither is given) or
    parent_to_joint, a Pose.  A step reads only joint_to_model: where the
    joint fixes parent_to_joint, it is derived from the body poses and read
    through the structure's store (``s.rows_at_poses().frames()``).  A root
    fixes joint_to_model.  A frozen record, so that bodies may share it: its
    fields are its inputs, copied, and every array is read-only, also in a
    copy.  A transform's shape is checked by the structure that adopts it."""

    free_axes: np.ndarray
    joint_to_model: Pose | None = None
    parent_to_joint: Pose | None = None

    def __post_init__(self):
        mask = _checked_mask(self.free_axes, "free_axes")
        if mask.shape != (6,):
            raise ValueError("free_axes must have 6 entries")
        if self.joint_to_model is not None and self.parent_to_joint is not None:
            raise ValueError("a joint fixes joint_to_model or parent_to_joint, not both")
        side = "joint_to_model" if self.parent_to_joint is None else "parent_to_joint"
        given = getattr(self, side)
        fixed = Pose.identity() if given is None else _checked_type(given, (Pose,), side)
        vars(self).update({"free_axes": mask, side: Pose(np.array(fixed.r), np.array(fixed.t))})
        self._freeze()


class _PoseRow:
    """A body's pose, the identity by default.  The body holds it in its own
    ``__dict__``, which shadows this non-data descriptor, until a
    KinematicStructure adopts the body and takes it; from then on it is row
    ``body._index`` of the structure's read-only pose stack.  Reading gives
    a view of the row, which keeps its value: only update_poses changes the
    state, by replacing the poses."""

    def __get__(self, body, cls=None):
        if body is None:
            return _frozen(Pose.identity())  # the dataclass field's default, shared
        return body._owner._store.poses[body._index]


@dataclass(eq=False)
class Body:
    """A named body, its joint and its parent's index.  A KinematicStructure
    reads its fields once, when it adopts the body, and from then on no
    field can be assigned and no other structure takes the body."""

    name: str
    joint: Joint
    pose: Pose = _PoseRow()
    parent: int | None = None
    _owner = None

    def __setattr__(self, name, value):
        if self._owner is not None:
            what = f"body {self.name!r}: {name}"
            raise AttributeError(f"{what} is read-only once a structure adopts it")
        object.__setattr__(self, name, value)


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
    what is derived from them when first read, the joint frames a step
    reads (frames()) and the constraints evaluated there.  Every stack is
    read-only and replaced, never written, so that a store stays that of
    its poses whatever the structure does afterwards.  A copy of the
    structure has a store of its own on the same poses, sharing the frames
    and the frozen rows record already derived.  Pickle builds every part
    again, read-only.

    The frames are inferred only where a joint fixes parent_to_joint, when
    first read, and published by one assignment, so that a concurrent
    reader sees None or both stacks, and at worst infers them twice.  The
    rows are evaluated when first asked for, without blocks or with them,
    which serve both.
    """

    def __init__(self, s, poses: Pose):
        self.s, self.poses, self._frames, self.rows = s, _frozen(poses), None, None

    def __call__(self, blocks: bool = True) -> ConstraintRows:
        """The constraints evaluated at the store's poses, with their
        variation blocks if ``blocks``: the kept rows, evaluated again only
        if there are none yet or they lack the blocks asked for.  Shared, to
        be read, not written."""
        rows = self.rows
        if rows is None or (blocks and rows.d_a is None):
            rows = self.rows = evaluate_constraints(self.s.constraint_stack, self.poses, blocks)
        return rows

    def frames(self) -> dict:
        """The joint frames that the tree view's updates and Jacobians read,
        joint_to_model and its inverse model_to_joint, read-only: the
        adopted constants if every joint fixes joint_to_model.  Else, the
        first read infers the rows of the joints that fix parent_to_joint,
        in a copy of the adopted stack, one polar step from orthonormal:
        J_T_M = P_T_J^-1 o rel, with rel = parent^-1 o pose.  P_T_J^-1 is
        the structure's, computed at adoption (_inference), so that only
        the parents' poses are inverted."""
        if self._frames is None and self.s._inference is not None:
            children, parents, fixed = self.s._inference
            row = _orthonormalized(fixed @ (self.poses[parents].inverse() @ self.poses[children]))
            adopted = self.s._adopted["joint_to_model"]
            r, t = adopted.r.copy(), adopted.t.copy()
            r[children], t[children] = row.r, row.t
            stack = _frozen(_pose(r, t))
            self._frames = {"joint_to_model": stack, "model_to_joint": _frozen(stack.inverse())}
        return self._frames or self.s._adopted


class KinematicStructure(_ReadOnly):
    """Bodies in topological order (``bodies``, a tuple), constraints, and
    two read-only coordinate views: ``tree``, the structure's joint
    coordinates, and ``forest``.

    The state is one read-only stack of body poses (``poses``), one row per
    body.  The joint frames a step reads, joint_to_model and its inverse
    model_to_joint, are stacked once from the joints the structure adopts:
    constants, but for the rows of the joints that fix parent_to_joint,
    which are inferred from the poses (_PoseStore.frames) with a fixed
    factor also computed once.  A derived parent_to_joint is read by no
    step and kept nowhere.  What construction fixes is immutable: the
    bodies tuple, the views, their KKT patterns and every array the
    structure keeps.  Only update_poses changes the state, by replacing the
    pose stack; ``Body.pose`` reads its row and refuses assignment.  A body
    belongs to one structure: a second one refuses it, naming it.  No field
    of an adopted body can be assigned, and a joint is a frozen record that
    bodies may share.  The constraints, given at construction, are stacked
    once (``constraint_stack``).

    Each body-pose stack has one store (rows_at_poses): its joint frames,
    inferred from the poses when first read, and the constraints evaluated
    there (``rows_at_poses()()``, read-only arrays), when first asked for,
    so that each pose is evaluated at most once.  A copy (copy.copy or
    copy.deepcopy, one hook) is a new state on the shared constants, made
    in one pass: it shares everything construction fixed, the joints and
    the frozen rows record, and has its own store on the same read-only
    stacks, and its own bodies, bound to it as they are copied.  Pickle
    builds every part again and re-freezes it (_ReadOnly).  Mutating
    operations (pose updates) must be serialized by the caller; read-only
    snapshots may be shared for parallel evaluation, which at worst
    evaluates the same rows or frames twice.
    """

    def __init__(self, bodies: list[Body], constraints=()):
        self.bodies = tuple(bodies)
        self._constraints = tuple(constraints)
        self._validate()
        self.constraint_stack = ConstraintStack(self._constraints)
        bodies, joints = self.bodies, [b.joint for b in self.bodies]
        poses = Pose.stack([b.pose for b in bodies], lambda i: f"body {bodies[i].name!r}: pose")
        # A row of the side a joint does not fix is the identity: a derived
        # joint_to_model until it is inferred, and parent_to_joint, which is
        # stacked to check its rows and to invert those the joints fix.
        identity = Pose.identity()
        model, parent = (
            Pose.stack([getattr(j, side) or identity for j in joints],
                       lambda i: f"joint of body {bodies[i].name!r}: {side}")
            for side in ("joint_to_model", "parent_to_joint")
        )
        self._store = _PoseStore(self, poses)
        self._adopted = {"joint_to_model": model, "model_to_joint": model.inverse()}
        free = [np.flatnonzero(j.free_axes) for j in joints]
        self.tree = Coordinates([b.parent for b in bodies], free)
        self.n_dof, self.dof_offsets = self.tree.n_dof, self.tree.offsets
        # The joints that fix parent_to_joint, whose joint_to_model is
        # inferred: children, parents and the inference's fixed factor,
        # P_T_J^-1 (in C order: the product's rounding depends on the
        # layout), or None.
        fixed = np.array([joints[i].parent_to_joint is not None for i in self.tree.children], bool)
        children, parents = self.tree.children[fixed], self.tree.parents[fixed]
        inverse = parent[children].inverse()
        factor = _pose(np.ascontiguousarray(inverse.r), inverse.t)
        self._inference = (children, parents, factor) if fixed.any() else None
        self._freeze()
        # Only once every row is valid: the bodies read their pose rows from
        # the structure's stack from then on.
        for i, body in enumerate(bodies):
            vars(body).pop("pose", None)
            vars(body).update(_owner=self, _index=i)

    def __deepcopy__(self, memo=None):
        """A new state on the structure's shared constants, made in one
        pass.  The copy shares what construction fixed, all of it read-only:
        the views and their KKT patterns, the constraints and their stack,
        the joints, the adopted frames, the inference's record and the DoF
        offsets.  It has its own store on the same poses, inferred frames
        (or none, inferred by its own first read) and frozen rows record,
        and its own bodies, shallow copies that keep their rows' indices and
        are bound to it as they are made.  ``memo`` gets the copy, its bodies and the
        joints it shares; a body or joint that a deep copy of a tuple has
        copied before the structure is in ``memo`` already, and is taken
        from there, so that a structure and its joints stay tied.  A shallow
        copy is the same: sharing the bodies would share their pose rows."""
        memo = {} if memo is None else memo

        def made(old, **changes):
            new = memo.setdefault(id(old), object.__new__(type(old)))
            vars(new).update(vars(old), **changes)
            return new

        twin = made(self)
        twin.bodies = tuple(
            made(b, _owner=twin, joint=memo.setdefault(id(b.joint), b.joint)) for b in self.bodies
        )
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
        names = set()
        for i, body in enumerate(self.bodies):
            if body.name in names:
                raise ValueError(f"duplicate body name {body.name!r}")
            names.add(body.name)
            if body._owner is not None:
                raise ValueError(f"body {body.name!r} belongs to another structure already")
            _checked_type(body.joint, (Joint,), f"body {body.name!r}: joint")
            _checked_type(body.pose, (Pose,), f"body {body.name!r}: pose")
            if body.parent is not None:
                if not 0 <= _checked_index(body.parent, f"body {body.name!r}: parent") < i:
                    raise ValueError(
                        f"body {body.name!r}: parent index {body.parent} must precede it"
                    )
            elif body.joint.parent_to_joint is not None:
                raise ValueError(
                    f"body {body.name!r}: a root's joint fixes joint_to_model, not parent_to_joint"
                )
        for k, c in enumerate(self._constraints):
            _checked_type(c, (Constraint, OrthogonalityConstraint), f"constraint {k}")
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
        (rows_at_poses), with no inferred frames and no constraint rows yet.

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


_THREE_I = 3.0 * np.eye(3)
