"""Synthetic energy providers against FD and closed-form registration oracles."""

import numpy as np
import pytest

from builders import random_pose
from multibody.energy import point_registration_energy, quadratic_pose_target
from multibody.kinematics import Body, Joint, KinematicStructure
from multibody.se3 import Pose, exp_rotvec, log_rotation, pose_with_variation
from multibody.solver import Regularization, SolverConfig, SolverMode, step
from oracles import (
    evaluate_quadratic_target,
    kabsch,
    numeric_hessian,
    numeric_jacobian,
    random_rotvec,
)


class TestQuadraticPoseTarget:
    def test_zero_gradient_at_target(self):
        rng = np.random.default_rng(0)
        pose = random_pose(rng)
        e = quadratic_pose_target(pose)(0, pose)
        assert np.max(np.abs(e.g)) < 1e-12

    def test_pure_translation_offset(self):
        rng = np.random.default_rng(1)
        r = exp_rotvec(random_rotvec(rng))
        target = Pose(r, np.zeros(3))
        d = np.array([0.1, -0.05, 0.2])
        e = quadratic_pose_target(target, 1.0, 1.0)(0, Pose(r, d))
        assert np.allclose(e.g[3:], 2.0 * r.T @ d, atol=1e-12)
        assert np.allclose(e.g[:3], np.zeros(3), atol=1e-12)
        assert np.allclose(e.h[3:, 3:], 2.0 * np.eye(3), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            target = random_pose(rng)
            pose = random_pose(rng)
            e = quadratic_pose_target(target, 0.7, 1.3)(0, pose)

            def scalar(theta):
                return evaluate_quadratic_target(
                    pose_with_variation(pose, theta), target, 0.7, 1.3
                )

            g_fd = numeric_jacobian(scalar, np.zeros(6), eps=1e-6)[0]
            assert np.max(np.abs(g_fd - e.g)) < 1e-5

    def test_hessian_exact_at_zero_rotation_residual(self):
        rng = np.random.default_rng(3)
        pose = random_pose(rng)
        # Same rotation as the target, translation off: the Gauss-Newton
        # Hessian is the exact Hessian there.
        target = Pose(pose.r, pose.t + np.array([0.05, -0.1, 0.2]))
        e = quadratic_pose_target(target, 0.7, 1.3)(0, pose)

        def scalar(theta):
            return evaluate_quadratic_target(
                pose_with_variation(pose, theta), target, 0.7, 1.3
            )

        h_fd = numeric_hessian(scalar, np.zeros(6), eps=1e-4)
        assert np.max(np.abs(h_fd - e.h)) < 1e-4

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            quadratic_pose_target(Pose.identity(), weight_r=-1.0)


class TestPointRegistration:
    def test_zero_gradient_at_alignment(self):
        rng = np.random.default_rng(4)
        pose = random_pose(rng)
        model = rng.uniform(-0.2, 0.2, (8, 3))
        provider = point_registration_energy(model, pose.apply(model))
        e = provider(0, pose)
        assert np.max(np.abs(e.g)) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        model = rng.uniform(-0.2, 0.2, (10, 3))
        observed = rng.uniform(-0.3, 0.3, (10, 3))
        provider = point_registration_energy(model, observed)
        pose = random_pose(rng)
        e = provider(0, pose)

        def scalar(theta):
            moved = pose_with_variation(pose, theta)
            return float(np.sum((moved.apply(model) - observed) ** 2))

        g_fd = numeric_jacobian(scalar, np.zeros(6), eps=1e-6)[0]
        assert np.max(np.abs(g_fd - e.g)) < 1e-5

    def test_small_rotation_recovered_against_kabsch(self):
        corners = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        model = 0.2 * np.array(corners, dtype=float)
        offset = 0.1
        true_rot = exp_rotvec([0.0, 0.0, offset])
        observed = model @ true_rot.T
        provider = point_registration_energy(model, observed)

        s = KinematicStructure([Body("a", Joint(free_axes=np.ones(6, dtype=bool)))])
        step(
            s,
            provider,
            SolverConfig(mode=SolverMode.PROJECTED, regularization=Regularization(0, 0)),
        )
        r_kabsch, _ = kabsch(model, observed)
        estimated = log_rotation(s.bodies[0].pose.r)
        reference = log_rotation(r_kabsch)
        assert np.linalg.norm(estimated - reference) < 1e-3

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            point_registration_energy([[0, 0, 0]], [[0, 0, 0]])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            point_registration_energy(np.zeros((4, 3)), np.zeros((5, 3)))


class TestEnergyDecrease:
    @pytest.mark.parametrize("seed", range(5))
    def test_strict_decrease_to_stationarity(self, seed):
        rng = np.random.default_rng(seed)
        target = random_pose(rng)
        start = pose_with_variation(
            target,
            np.concatenate([random_rotvec(rng, 0.5), rng.uniform(-0.2, 0.2, 3)]),
        )
        s = KinematicStructure(
            [Body("a", Joint(free_axes=np.ones(6, dtype=bool)), pose=start)]
        )
        provider = quadratic_pose_target(target)
        cfg = SolverConfig(
            mode=SolverMode.PROJECTED, regularization=Regularization(1.0, 1.0)
        )
        previous = evaluate_quadratic_target(s.bodies[0].pose, target)
        for _ in range(100):
            if np.linalg.norm(provider(0, s.bodies[0].pose).g) < 1e-8:
                break
            step(s, provider, cfg)
            current = evaluate_quadratic_target(s.bodies[0].pose, target)
            assert current < previous
            previous = current
        assert np.linalg.norm(provider(0, s.bodies[0].pose).g) < 1e-8
