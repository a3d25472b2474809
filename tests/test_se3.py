"""Rotation and rigid-transform algebra against quaternion and FD oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibody.se3 import (
    NEAR_PI,
    SMALL_ANGLE,
    Pose,
    adjoint,
    exp_rotvec,
    exp_rotvec_stack,
    log_rotation,
    log_rotation_stack,
    pose_with_variation,
    row_norms,
    skew,
    skew_stack,
    variation_matrix,
    variation_matrix_stack,
)
from oracles import (
    numeric_jacobian,
    pose_matrix,
    quat_from_rotvec,
    random_rotvec,
    random_unit_vector,
    relative_variation,
    rotmat_from_quat,
    variation_transform,
)


def random_pose(rng):
    return Pose(exp_rotvec(random_rotvec(rng)), rng.uniform(-1, 1, 3))


class TestExpRotvec:
    def test_zero_gives_identity(self):
        assert np.allclose(exp_rotvec(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_x(self):
        r = exp_rotvec(np.array([np.pi / 2, 0, 0]))
        assert np.allclose(r @ np.array([0, 1, 0]), np.array([0, 0, 1]), atol=1e-12)

    def test_matches_quaternion_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = random_rotvec(rng)
            assert np.allclose(
                exp_rotvec(v), rotmat_from_quat(quat_from_rotvec(v)), atol=1e-12
            )

    def test_small_angle_continuity(self):
        v = np.array([1e-9, -2e-9, 1e-9])
        r = exp_rotvec(v)
        assert np.allclose(r, np.eye(3) + skew(v), atol=1e-15)


class TestLogRotation:
    def test_identity(self):
        assert np.allclose(log_rotation(np.eye(3)), np.zeros(3))

    def test_round_trip(self):
        assert np.allclose(log_rotation(exp_rotvec([0, 0, 1.2])), [0, 0, 1.2])

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            v = rng.uniform(1e-4, np.pi - 1e-4) * axis
            assert np.linalg.norm(log_rotation(exp_rotvec(v)) - v) < 1e-9

    def test_axis_recovered_near_pi(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            r = rotmat_from_quat(quat_from_rotvec((np.pi - 1e-7) * axis))
            v = log_rotation(r)
            assert np.dot(v / np.linalg.norm(v), axis) > 1 - 1e-6
            assert np.allclose(exp_rotvec(v), r, atol=1e-8)

    def test_exactly_pi_sign_convention(self):
        # Axis sign is ambiguous at pi; the first nonzero component comes
        # back positive.
        rng = np.random.default_rng(3)
        for _ in range(50):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            v = log_rotation(exp_rotvec(np.pi * axis))
            first = next(x for x in v if abs(x) > 1e-12)
            assert first > 0
            assert np.allclose(exp_rotvec(v), exp_rotvec(np.pi * axis), atol=1e-8)

    def test_principal_branch_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            v = log_rotation(exp_rotvec(random_rotvec(rng, 3 * np.pi)))
            assert np.linalg.norm(v) <= np.pi + 1e-12


class TestPose:
    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = random_pose(rng)
            q = p @ p.inverse()
            assert np.allclose(q.r, np.eye(3), atol=1e-9)
            assert np.allclose(q.t, np.zeros(3), atol=1e-9)

    def test_associativity(self):
        rng = np.random.default_rng(6)
        a, b, c = (random_pose(rng) for _ in range(3))
        left = (a @ b) @ c
        right = a @ (b @ c)
        assert np.allclose(left.r, right.r, atol=1e-12)
        assert np.allclose(left.t, right.t, atol=1e-12)

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(7)
        p = random_pose(rng)
        pts = rng.uniform(-1, 1, (5, 3))
        m = pose_matrix(p)
        expected = pts @ m[:3, :3].T + m[:3, 3]
        assert np.allclose(p.apply(pts), expected, atol=1e-12)


class TestAdjoint:
    def test_identity_pose(self):
        assert np.allclose(adjoint(Pose.identity()), np.eye(6))

    def test_pure_rotation_is_block_diagonal(self):
        r = exp_rotvec([0.4, -0.2, 0.9])
        ad = adjoint(Pose(r, np.zeros(3)))
        assert np.allclose(ad[:3, :3], r)
        assert np.allclose(ad[3:, 3:], r)
        assert np.allclose(ad[3:, :3], np.zeros((3, 3)))
        assert np.allclose(ad[:3, 3:], np.zeros((3, 3)))

    def test_homomorphism(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p1, p2 = random_pose(rng), random_pose(rng)
            assert np.allclose(
                adjoint(p1 @ p2), adjoint(p1) @ adjoint(p2), atol=1e-9
            )

    def test_projects_variations_first_order(self):
        # p o T(theta) o p^-1 agrees with T(adjoint(p) theta) to first order.
        rng = np.random.default_rng(9)
        p = random_pose(rng)

        def conjugated(theta):
            moved = p @ variation_transform(theta) @ p.inverse()
            return np.concatenate([log_rotation(moved.r), moved.t])

        jac = numeric_jacobian(conjugated, np.zeros(6), eps=1e-6)
        assert np.max(np.abs(jac - adjoint(p))) < 1e-5


def right_jacobian(v):
    """J_r(v) = I - (1 - cos a)/a^2 [v]x + (a - sin a)/a^3 [v]x^2, with
    its series below 1e-3."""
    a = np.linalg.norm(v)
    k = skew(v)
    if a < 1e-3:
        return np.eye(3) - (0.5 - a * a / 24.0) * k + (1.0 / 6.0 - a * a / 120.0) * (k @ k)
    return np.eye(3) - (1.0 - np.cos(a)) / a**2 * k + (a - np.sin(a)) / a**3 * (k @ k)


class TestVariationMatrix:
    def test_zero_angle_is_identity(self):
        assert np.allclose(variation_matrix(np.zeros(3)), np.eye(3))

    def test_eigenvector_property(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            v = random_rotvec(rng)
            c = variation_matrix(v)
            assert np.allclose(c @ v, v, atol=1e-9)
            assert np.allclose(c.T @ v, v, atol=1e-9)

    def test_matches_composition_derivative(self):
        v = np.array([0.3, -0.7, 0.2])

        def composed(theta):
            return log_rotation(exp_rotvec(theta) @ exp_rotvec(v))

        jac = numeric_jacobian(composed, np.zeros(3), eps=1e-6)
        assert np.max(np.abs(jac - variation_matrix(v))) < 1e-5
        # The variation matrix is the inverse left Jacobian J_l^-1(v) of
        # Sola et al., "A micro Lie theory for state estimation in robotics"
        # (arXiv:1812.01537): exp(d) exp(v) = exp(v + J_l^-1 d), and its
        # transpose the inverse right Jacobian: exp(v) exp(d) =
        # exp(v + J_r^-1 d), to first order in d.  Checked through exp, here
        # and at the branch seams, where log_rotation's own rounding would
        # swamp a finite difference.
        rng = np.random.default_rng(18)
        for v in [v] + [a * random_unit_vector(rng) for a in IDENTITY_ANGLES]:
            c = variation_matrix(v)
            for _ in range(10):
                d = 1e-6 * random_unit_vector(rng)
                left = exp_rotvec(v + c @ d) - exp_rotvec(d) @ exp_rotvec(v)
                right = exp_rotvec(v + c.T @ d) - exp_rotvec(v) @ exp_rotvec(d)
                assert np.max(np.abs(left)) < 1e-5 * 1e-6
                assert np.max(np.abs(right)) < 1e-5 * 1e-6

    def test_identity_suite(self):
        rng = np.random.default_rng(11)
        seams = [a * random_unit_vector(rng) for a in IDENTITY_ANGLES]
        for v in [random_rotvec(rng) for _ in range(1000)] + seams:
            r = exp_rotvec(v)
            c = variation_matrix(v)
            assert np.allclose(c @ c.T, c.T @ c, atol=1e-8)
            assert np.allclose(r @ c, c.T, atol=1e-8)
            assert np.allclose(c @ r, c.T, atol=1e-8)
            assert np.allclose(c.T @ np.linalg.inv(c), r, atol=1e-8)
            assert np.allclose(np.linalg.inv(c) @ c.T, r, atol=1e-8)
            # Right Jacobian J_r(v) = J_l(v)^T = J_l(-v) in closed form
            # (Sola et al.) against the kernel's inverses.
            j_r = right_jacobian(v)
            assert np.allclose(c.T @ j_r, np.eye(3), atol=1e-8)
            assert np.allclose(c @ right_jacobian(-v), np.eye(3), atol=1e-8)
            assert np.allclose(r @ j_r, j_r.T, atol=1e-8)

    def test_neither_symmetric_nor_orthogonal(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            v = rng.uniform(0.1, np.pi - 0.1) * axis
            c = variation_matrix(v)
            assert np.linalg.norm(c - c.T) > 1e-6
            assert np.linalg.norm(c.T @ c - np.eye(3)) > 1e-6


class TestVariationHelpers:
    def test_translation_is_additive_in_local_frame(self):
        rng = np.random.default_rng(15)
        p = random_pose(rng)
        theta = np.array([0, 0, 0, 0.1, -0.2, 0.3])
        moved = pose_with_variation(p, theta)
        assert np.allclose(moved.r, p.r)
        assert np.allclose(moved.t, p.t + p.r @ theta[3:], atol=1e-12)

    def test_relative_variation_inverts_pose_with_variation(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            p = random_pose(rng)
            theta = np.concatenate([random_rotvec(rng), rng.uniform(-1, 1, 3)])
            recovered = relative_variation(p, pose_with_variation(p, theta))
            assert np.allclose(recovered, theta, atol=1e-9)


@pytest.mark.parametrize("angle", [1e-8, 1e-5, 1e-3, 0.5, 3.0, np.pi - 1e-6])
def test_round_trip_across_angle_regimes(angle):
    axis = np.array([2.0, -1.0, 0.5])
    axis /= np.linalg.norm(axis)
    v = angle * axis
    assert np.allclose(log_rotation(exp_rotvec(v)), v, atol=1e-8)


# Stacked kernels against their scalar twins, row by row, at the branch
# seams of the scalar functions and on stacks mixing the branches.
SEAM_ANGLES = (
    0.0,
    SMALL_ANGLE * (1 - 1e-9),
    SMALL_ANGLE * (1 + 1e-9),
    NEAR_PI - 1e-9,
    NEAR_PI + 1e-9,
    np.pi,
)
STACK_TOL = 2e-15
# The seams for the scalar identities, with pi - 1e-6 in place of pi, where
# the rotation vector of exp(v) is ambiguous.
IDENTITY_ANGLES = tuple(a if a < np.pi else np.pi - 1e-6 for a in SEAM_ANGLES)

axes = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: v / np.linalg.norm(v))
)
angles = st.one_of(st.sampled_from(SEAM_ANGLES), st.floats(0.0, np.pi))
rotvec_stacks = st.lists(st.tuples(axes, angles), min_size=1, max_size=12).map(
    lambda rows: np.array([angle * axis for axis, angle in rows])
)


def assert_rows_match(stacked, scalar, rows):
    expected = np.array([scalar(row) for row in rows])
    assert stacked.shape == expected.shape
    assert np.max(np.abs(stacked - expected)) <= STACK_TOL


class TestStackedKernels:
    @settings(max_examples=150, deadline=None)
    @given(rotvec_stacks)
    def test_skew(self, v):
        assert_rows_match(skew_stack(v), skew, v)

    @settings(max_examples=150, deadline=None)
    @given(rotvec_stacks)
    def test_exp_rotvec(self, v):
        assert_rows_match(exp_rotvec_stack(v), exp_rotvec, v)

    @settings(max_examples=150, deadline=None)
    @given(rotvec_stacks)
    def test_variation_matrix(self, v):
        assert_rows_match(variation_matrix_stack(v), variation_matrix, v)

    @settings(max_examples=150, deadline=None)
    @given(rotvec_stacks)
    def test_log_rotation(self, v):
        r = np.array([exp_rotvec(row) for row in v])
        assert_rows_match(log_rotation_stack(r), log_rotation, r)

    def test_log_rotation_exact_half_turns(self):
        # Rotations by exactly pi have no skew part; the scalar sign rule
        # decides, mixed here with the other branches.
        r = np.array(
            [
                np.diag([1.0, -1.0, -1.0]),
                np.eye(3),
                np.diag([-1.0, 1.0, -1.0]),
                exp_rotvec([0.0, 1e-6, 0.0]),
                np.diag([-1.0, -1.0, 1.0]),
                exp_rotvec([0.3, -1.2, 0.4]),
            ]
        )
        assert_rows_match(log_rotation_stack(r), log_rotation, r)

    @settings(max_examples=50, deadline=None)
    @given(rotvec_stacks)
    def test_row_norms_equal_numpy_norm_bit_for_bit(self, v):
        assert np.array_equal(row_norms(v), [np.linalg.norm(row) for row in v])

    def test_leading_axes_and_empty_stacks(self):
        rng = np.random.default_rng(17)
        v = np.array([random_rotvec(rng) for _ in range(6)]).reshape(2, 3, 3)
        assert exp_rotvec_stack(v).shape == (2, 3, 3, 3)
        assert np.allclose(log_rotation_stack(exp_rotvec_stack(v)), v, atol=1e-12)
        assert variation_matrix_stack(np.zeros((0, 3))).shape == (0, 3, 3)
