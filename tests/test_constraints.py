"""Constraint residuals and Jacobians against composition and FD oracles."""

import copy

import numpy as np
import pytest

from builders import random_pose, random_tree
from multibody.constraints import (
    Constraint,
    OrthogonalityConstraint,
    evaluate_constraints,
    relative_poses,
)
from multibody.kinematics import Body, Joint, KinematicStructure, axes_mask
from multibody.se3 import Pose, adjoint, exp_rotvec, stack_poses
from oracles import (
    body_jacobians,
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
    rows = evaluate_constraints([c], s.bodies)
    return rows.d_a, rows.d_b


def constraint_jacobian(c, s):
    """The stacked kernel's rows of one constraint w.r.t. the joint
    coordinates, chained through the body Jacobians."""
    return rows_jacobian(evaluate_constraints([c], s.bodies), body_jacobians(s))


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
            poses = (c.frame_a, c.frame_b, s.bodies[c.body_a].pose, s.bodies[c.body_b].pose)
            _, (r, t) = relative_poses(*(stack_poses([p]) for p in poses))
            actual = pose_matrix(Pose(r[0], t[0]))
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
