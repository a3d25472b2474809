"""Constraint residuals and Jacobians against composition and FD oracles."""

import copy
import dataclasses

import numpy as np
import pytest

from builders import random_pose, random_tree, rebuilt
from multibody.constraints import (
    Constraint,
    ConstraintStack,
    OrthogonalityConstraint,
    evaluate_constraints,
    relative_poses,
)
from multibody.kinematics import Body, Joint, KinematicStructure, axes_mask
from multibody.se3 import Pose, adjoint, exp_rotvec
from oracles import (
    body_jacobians,
    constraint_residual,
    numeric_jacobian,
    pose_matrix,
    random_rotvec,
    relative_constraint_pose,
    rows_jacobian,
)


def two_free_bodies(pose_a, pose_b):
    return KinematicStructure(
        [
            Body("a", Joint(free_axes=np.ones(6, dtype=bool)), pose=pose_a),
            Body("b", Joint(free_axes=np.ones(6, dtype=bool)), pose=pose_b),
        ]
    )


def random_violated_structure(rng, n_bodies):
    """Random tree plus a random constraint with a violated residual."""
    s = random_tree(rng, n_bodies)
    i, j = rng.choice(n_bodies, size=2, replace=False)
    c = Constraint(
        int(i),
        int(j),
        frame_a=random_pose(rng, max_angle=3.0, max_trans=1.0),
        frame_b=random_pose(rng, max_angle=3.0, max_trans=1.0),
        constrained_axes=np.ones(6, dtype=bool),
    )
    return s, c


def variation_blocks(c, s):
    """The stacked kernel's derivative rows of one constraint w.r.t. the
    6-DoF variations of its two bodies."""
    rows = evaluate_constraints(ConstraintStack([c]), s.poses())
    return rows.d_a, rows.d_b


def constraint_jacobian(c, s):
    """The stacked kernel's rows of one constraint w.r.t. the joint
    coordinates, chained through the body Jacobians."""
    return rows_jacobian(evaluate_constraints(ConstraintStack([c]), s.poses()), body_jacobians(s))


def fd_constraint_jacobian(c, s, eps=1e-6):
    def residual_at(theta):
        moved = copy.deepcopy(s)
        moved.update_poses(theta)
        return c.residual(moved)

    return numeric_jacobian(residual_at, np.zeros(s.n_dof), eps=eps)


class TestEvaluateConstraint:
    def test_coincident_frames_zero_residual(self):
        rng = np.random.default_rng(0)
        pose_a = random_pose(rng)
        frame_a = random_pose(rng)
        frame_b = random_pose(rng)
        # pose_b chosen so that frame A and frame B coincide in the world.
        pose_b = pose_a @ frame_a.inverse() @ frame_b
        s = two_free_bodies(pose_a, pose_b)
        c = Constraint(0, 1, frame_a, frame_b)
        assert np.max(np.abs(c.residual(s))) < 1e-10

    def test_pure_translation_offset(self):
        pose_a = Pose.identity()
        pose_b = Pose(np.eye(3), np.array([0, 0, 0.1]))
        s = two_free_bodies(pose_a, pose_b)
        c = Constraint(
            0, 1, constrained_axes=axes_mask(["trans_x", "trans_y", "trans_z"])
        )
        assert np.allclose(c.residual(s), [0, 0, 0.1], atol=1e-12)

    def test_matches_matrix_composition_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s, c = random_violated_structure(rng, 3)
            expected = (
                pose_matrix(c.frame_a)
                @ np.linalg.inv(pose_matrix(s.bodies[c.body_a].pose))
                @ pose_matrix(s.bodies[c.body_b].pose)
                @ np.linalg.inv(pose_matrix(c.frame_b))
            )
            pose_a, pose_b = s.bodies[c.body_a].pose, s.bodies[c.body_b].pose
            poses = (c.frame_a, c.frame_b.inverse(), pose_a, pose_b)
            _, a_t_b = relative_poses(*(Pose.stack([p]) for p in poses))
            actual = pose_matrix(a_t_b[0])
            assert np.max(np.abs(actual - expected)) < 1e-10

    def test_rotational_rows_stay_principal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s, c = random_violated_structure(rng, 2)
            residual = c.residual(s)
            assert np.linalg.norm(residual[:3]) <= np.pi + 1e-12

    def test_same_body_rejected(self):
        with pytest.raises(ValueError):
            Constraint(0, 0)

    @pytest.mark.parametrize("kind", [Constraint, OrthogonalityConstraint])
    @pytest.mark.parametrize("bad", [0.5, 2.0, True, np.bool_(False), "0"])
    def test_a_body_index_must_be_an_integer(self, kind, bad):
        """``Constraint(0.5, 2)`` constrained body 0, as the stack casts
        its indices to int, and ``Constraint(True, 0)`` body 1.  Fails if a
        bool or a non-integral index is taken, or if the error stops naming
        the field; numpy integers stay valid."""
        for side, args in (("body_a", (bad, 2)), ("body_b", (2, bad))):
            with pytest.raises(TypeError, match=f"^{side} must be an integer body index, not "):
                kind(*args)
        c = kind(np.int64(0), np.int32(2))
        assert (c.body_a, c.body_b) == (0, 2)


    @pytest.mark.parametrize("bad", [[0, 1, 2, 3, 4, 5], [0.5, 0, 0, 0, 0, 0], np.ones(6), "rot_x"])
    def test_constrained_axes_must_be_a_boolean_mask(self, bad):
        """``constrained_axes=[0, 1, 2, 3, 4, 5]`` was cast to a mask that
        left rot_x free.  Fails if a mask whose dtype is not bool is taken,
        or if the error stops naming the field; a list of bools stays valid."""
        with pytest.raises(TypeError, match="^constrained_axes must be a boolean mask, not "):
            Constraint(0, 1, constrained_axes=bad)
        c = Constraint(0, 1, constrained_axes=[False] + [True] * 5)
        assert c.constrained_axes.tolist() == [False] + [True] * 5


class TestConstraintJacobian:
    @pytest.mark.parametrize("seed", range(10))
    def test_finite_difference_match(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        s, c = random_violated_structure(rng, n)
        analytic = constraint_jacobian(c, s)
        assert np.max(np.abs(analytic - fd_constraint_jacobian(c, s))) < 1e-5

    def test_masked_rows_match_full(self):
        rng = np.random.default_rng(10)
        s, c = random_violated_structure(rng, 3)
        full = constraint_jacobian(c, s)
        masked = Constraint(
            c.body_a, c.body_b, c.frame_a, c.frame_b,
            axes_mask(["rot_y", "trans_z"]),
        )
        assert np.allclose(constraint_jacobian(masked, s), full[[1, 5]], atol=1e-12)

    def test_adjoint_reduction_at_zero_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            pose_a = random_pose(rng)
            frame_a = random_pose(rng)
            frame_b = random_pose(rng)
            pose_b = pose_a @ frame_a.inverse() @ frame_b
            s = two_free_bodies(pose_a, pose_b)
            c = Constraint(0, 1, frame_a, frame_b)
            da, db = variation_blocks(c, s)
            assert np.max(np.abs(da + adjoint(frame_a))) < 1e-9
            assert np.max(np.abs(db - adjoint(frame_b))) < 1e-9

    def test_antisymmetry_with_equal_frames(self):
        rng = np.random.default_rng(12)
        pose = random_pose(rng)
        frame = random_pose(rng)
        s = two_free_bodies(pose, pose)
        c = Constraint(0, 1, frame, frame)
        da, db = variation_blocks(c, s)
        assert np.max(np.abs(da + db)) < 1e-9

    def test_identity_variation_matrix_at_zero_rotation(self):
        rng = np.random.default_rng(13)
        frame_a = Pose(np.eye(3), rng.uniform(-1, 1, 3))
        frame_b = Pose(np.eye(3), rng.uniform(-1, 1, 3))
        pose_a = Pose(np.eye(3), rng.uniform(-1, 1, 3))
        pose_b = Pose(np.eye(3), rng.uniform(-1, 1, 3))
        s = two_free_bodies(pose_a, pose_b)
        c = Constraint(0, 1, frame_a, frame_b)
        da, _ = variation_blocks(c, s)
        # Zero rotation difference: the rotational block is plain -R.
        assert np.allclose(da[:3, :3], -frame_a.r, atol=1e-12)


class TestOrthogonality:
    def test_identity_rotation_is_feasible(self):
        s = two_free_bodies(Pose.identity(), Pose.identity())
        c = OrthogonalityConstraint(0, 1)
        assert np.allclose(c.residual(s), np.zeros(3))

    def test_pi_flip_is_spurious_solution(self):
        s = two_free_bodies(
            Pose.identity(), Pose(exp_rotvec([np.pi, 0, 0]), np.zeros(3))
        )
        c = OrthogonalityConstraint(0, 1)
        assert np.max(np.abs(c.residual(s))) < 1e-12

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            pose_b = random_pose(rng)
            s = two_free_bodies(random_pose(rng), pose_b)
            c = OrthogonalityConstraint(
                0, 1, random_pose(rng), random_pose(rng)
            )
            r = relative_constraint_pose(c, s).r
            eye = np.eye(3)
            expected = [
                eye[0] @ r @ eye[1],
                eye[1] @ r @ eye[2],
                eye[2] @ r @ eye[0],
            ]
            assert np.max(np.abs(c.residual(s) - expected)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_match(self, seed):
        rng = np.random.default_rng(seed)
        s = random_tree(rng, 3)
        c = OrthogonalityConstraint(
            0, 2, random_pose(rng), random_pose(rng)
        )
        analytic = constraint_jacobian(c, s)
        assert np.max(np.abs(analytic - fd_constraint_jacobian(c, s))) < 1e-5

    def test_identical_variation_cancels_with_equal_frames(self):
        rng = np.random.default_rng(15)
        pose = random_pose(rng)
        frame = random_pose(rng)
        s = two_free_bodies(pose, pose)
        c = OrthogonalityConstraint(0, 1, frame, frame)
        jac = constraint_jacobian(c, s)
        theta = np.concatenate([random_rotvec(rng), rng.uniform(-1, 1, 3)])
        assert np.max(np.abs(jac @ np.concatenate([theta, theta]))) < 1e-9


class TestFrozenRecords:
    """Constraints cannot change after construction, so the stack a
    structure builds when they are assigned cannot go stale."""

    def test_fields_cannot_be_reassigned(self):
        c = Constraint(0, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.frame_a = Pose.from_rotvec([0.1, 0.0, 0.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            OrthogonalityConstraint(0, 1).body_b = 2
        with pytest.raises(ValueError):
            c.constrained_axes[0] = False

    def test_axes_are_copied(self):
        axes = np.ones(6, dtype=bool)
        frame = Pose.from_rotvec([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
        c = Constraint(0, 1, frame, frame, constrained_axes=axes)
        axes[0] = False
        frame.t[0] = frame.r[0, 0] = 9.0
        assert c.constrained_axes.all()
        assert c.frame_a.t[0] == c.frame_b.t[0] == 1.0 and c.frame_a.r[0, 0] < 1.0

    @pytest.mark.parametrize("copied", [False, True])
    def test_frames_and_axes_refuse_in_place_writes(self, copied):
        """A write there would leave a constraint and the stack its
        structure built from it disagreeing.  Fails if ``_FramePair``
        leaves its frames' arrays writeable, or if a deep copy, whose arrays
        numpy copies writeable, does not freeze its frames and axes again."""
        rng = np.random.default_rng(22)
        s = rebuilt(random_tree(rng, 3), constraints=[
            Constraint(0, 2, random_pose(rng), random_pose(rng), np.array([1, 0, 1, 1, 0, 1], bool)),
            OrthogonalityConstraint(1, 2, random_pose(rng), random_pose(rng)),
        ])
        if copied:
            s = copy.deepcopy(s)
        pose, ortho = s.constraints
        arrays = [pose.constrained_axes] + [
            getattr(getattr(c, side), part)
            for c in (pose, ortho) for side in ("frame_a", "frame_b") for part in "rt"
        ]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 9.0
        assert np.array_equal(s.constraint_stack.frame_a.t[0], pose.frame_a.t)

    def test_each_structure_stacks_its_constraints(self):
        rng = np.random.default_rng(21)
        s = random_tree(rng, 5)
        single = rebuilt(s, constraints=[Constraint(0, 3, random_pose(rng), random_pose(rng))])
        s = rebuilt(s, constraints=[
            OrthogonalityConstraint(1, 4, random_pose(rng), random_pose(rng)),
            Constraint(2, 0, random_pose(rng), random_pose(rng), np.array([1, 0, 1, 1, 0, 1], bool)),
        ])
        assert single.constraint_stack.counts.tolist() == [6]
        rows = evaluate_constraints(s.constraint_stack, s.poses())
        expected = np.concatenate([constraint_residual(c, s) for c in s.constraints])
        assert np.array_equal(rows.residual, expected)
        assert s.constraint_stack.counts.tolist() == [3, 4]
