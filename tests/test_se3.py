"""Rotation and rigid-transform algebra against quaternion and FD oracles."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as scalar
from multibody.se3 import (
    Pose,
    adjoint,
    exp_rotvec,
    log_rotation,
    row_norms,
    skew,
    variation_matrix,
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
        moved = p.with_variation(theta)
        assert np.allclose(moved.r, p.r)
        assert np.allclose(moved.t, p.t + p.r @ theta[3:], atol=1e-12)

    def test_relative_variation_inverts_pose_with_variation(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            p = random_pose(rng)
            theta = np.concatenate([random_rotvec(rng), rng.uniform(-1, 1, 3)])
            moved = p.with_variation(theta)
            recovered = relative_variation(p, moved)
            assert np.allclose(recovered, theta, atol=1e-9)


@pytest.mark.parametrize("angle", [1e-8, 1e-5, 1e-3, 0.5, 3.0, np.pi - 1e-6])
def test_round_trip_across_angle_regimes(angle):
    axis = np.array([2.0, -1.0, 0.5])
    axis /= np.linalg.norm(axis)
    v = angle * axis
    assert np.allclose(log_rotation(exp_rotvec(v)), v, atol=1e-8)


# The kernels against the scalar formulas kept in oracles, bit for bit: on
# stacks mixing the branches, and on single inputs at the branch seams of
# the scalar functions.
SEAM_ANGLES = (
    0.0,
    1e-4 * (1 - 1e-9),
    1e-4 * (1 + 1e-9),
    np.pi / 2 - 1e-9,
    np.pi / 2 + 1e-9,
    np.pi - 1e-4 - 1e-9,
    np.pi - 1e-4 + 1e-9,
    np.pi,
)
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


def assert_rows_match(stacked, reference, rows):
    expected = np.array([reference(row) for row in rows])
    assert stacked.shape == expected.shape
    assert np.array_equal(stacked, expected)


def half_turn_mix():
    """Rotations through every branch of log_rotation: exact and near half
    turns, small and ordinary angles, the identity."""
    e = np.array([2.0, -1.0, 0.5]) / np.linalg.norm([2.0, -1.0, 0.5])
    return np.array(
        [
            np.diag([1.0, -1.0, -1.0]),
            scalar.exp_rotvec((np.pi - 1e-4 + 5e-5) * e),
            np.eye(3),
            np.diag([-1.0, 1.0, -1.0]),
            scalar.exp_rotvec([0.0, 1e-6, 0.0]),
            scalar.exp_rotvec(np.pi * e),
            np.diag([-1.0, -1.0, 1.0]),
            scalar.exp_rotvec([0.3, -1.2, 0.4]),
            scalar.exp_rotvec(-(np.pi - 1e-4) * e),
        ]
    )


class TestStackedKernels:
    @settings(max_examples=150, deadline=None)
    @given(rotvec_stacks)
    def test_skew(self, v):
        assert_rows_match(skew(v), scalar.skew, v)

    @settings(max_examples=150, deadline=None)
    @given(rotvec_stacks)
    def test_exp_rotvec(self, v):
        assert_rows_match(exp_rotvec(v), scalar.exp_rotvec, v)

    @settings(max_examples=150, deadline=None)
    @given(rotvec_stacks)
    def test_variation_matrix(self, v):
        assert_rows_match(variation_matrix(v), scalar.variation_matrix, v)

    @settings(max_examples=150, deadline=None)
    @given(rotvec_stacks)
    def test_log_rotation(self, v):
        r = np.array([scalar.exp_rotvec(row) for row in v])
        assert_rows_match(log_rotation(r), scalar.log_rotation, r)

    def test_log_rotation_exact_half_turns(self):
        # Rotations by exactly pi have no skew part; the scalar sign rule
        # decides, mixed here with the other branches.
        r = half_turn_mix()
        assert_rows_match(log_rotation(r), scalar.log_rotation, r)

    def test_log_rotation_two_leading_axes(self):
        r = half_turn_mix()
        expected = np.array([scalar.log_rotation(m) for m in r]).reshape(3, 3, 3)
        assert np.array_equal(log_rotation(r.reshape(3, 3, 3, 3)), expected)

    @pytest.mark.parametrize("angle", SEAM_ANGLES)
    def test_single_inputs_at_the_seams(self, angle):
        rng = np.random.default_rng(19)
        for v in [angle * random_unit_vector(rng) for _ in range(20)] + list(angle * np.eye(3)):
            for kernel, reference in (
                (skew, scalar.skew),
                (exp_rotvec, scalar.exp_rotvec),
                (variation_matrix, scalar.variation_matrix),
            ):
                assert kernel(v).shape == (3, 3)
                assert np.array_equal(kernel(v), reference(v))
            r = scalar.exp_rotvec(v)
            assert log_rotation(r).shape == (3,)
            assert np.array_equal(log_rotation(r), scalar.log_rotation(r))

    @settings(max_examples=50, deadline=None)
    @given(rotvec_stacks)
    def test_row_norms_equal_numpy_norm_bit_for_bit(self, v):
        assert np.array_equal(row_norms(v), [np.linalg.norm(row) for row in v])

    def test_leading_axes_and_empty_stacks(self):
        rng = np.random.default_rng(17)
        v = np.array([random_rotvec(rng) for _ in range(6)]).reshape(2, 3, 3)
        assert exp_rotvec(v).shape == (2, 3, 3, 3)
        assert np.allclose(log_rotation(exp_rotvec(v)), v, atol=1e-12)
        assert variation_matrix(np.zeros((0, 3))).shape == (0, 3, 3)
        assert log_rotation(np.zeros((0, 3, 3))).shape == (0, 3)



# Accuracy against long double, in units of the float64 epsilon.  The
# scalar oracles share the kernels' formulas, so they cannot show an error
# of a formula; these references are long double evaluations.
LD = np.longdouble
EPS = np.finfo(float).eps
ACCURACY_ANGLES = (
    0.0,
    1e-12,
    1e-6,
    5e-5,
    1e-4 * (1 - 1e-9),
    1e-4 * (1 + 1e-9),
    1e-3,
    0.3,
    np.pi / 2 - 1e-9,
    np.pi / 2 + 1e-9,
    2.0,
    3.0,
    np.pi - 0.1,
    np.pi - 1e-4,
    np.pi - 1e-9,
    np.pi,
)


def skew_ld(v):
    x, y, z = np.moveaxis(v, -1, 0)
    zero = np.zeros_like(x)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(v.shape + (3,))


def exp_reference(v):
    """Rodrigues' formula in long double, from the unit axis."""
    v = v.astype(LD)
    angle = np.sqrt(np.sum(v * v, axis=-1))
    k = skew_ld(np.divide(v, angle[:, None], out=np.zeros_like(v), where=angle[:, None] > 0))
    eye = np.eye(3, dtype=LD)
    return eye + np.sin(angle)[:, None, None] * k + (1 - np.cos(angle))[:, None, None] * (k @ k)


def variation_reference(v):
    """(a/2)cot(a/2) I - (a/2)[e]x + (1 - (a/2)cot(a/2)) e e^T in long double."""
    v = v.astype(LD)
    angle = np.sqrt(np.sum(v * v, axis=-1))
    half = angle / 2
    h = np.divide(half, np.tan(half), out=np.ones_like(half), where=half > 0)
    e = np.divide(v, angle[:, None], out=np.zeros_like(v), where=angle[:, None] > 0)
    return (
        h[:, None, None] * np.eye(3, dtype=LD)
        - half[:, None, None] * skew_ld(e)
        + (1 - h)[:, None, None] * (e[:, :, None] * e[:, None, :])
    )


def log_reference(r):
    """Rotation vector of each rotation in long double, by formulas that
    log_rotation does not use: the angle atan2(|w|, tr - 1), w the skew
    part, and the axis w / |w| up to pi/2 and, beyond, the largest column
    of R + R^T - (tr - 1) I = 2 (1 - cos a) e e^T, signed by w."""
    r = r.astype(LD)
    trace = np.trace(r, axis1=-2, axis2=-1)
    w = np.stack([r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0], r[:, 1, 0] - r[:, 0, 1]], -1)
    angle = np.arctan2(np.sqrt(np.sum(w * w, axis=-1)), trace - 1)
    b = r + np.swapaxes(r, -1, -2) - (trace - 1)[:, None, None] * np.eye(3, dtype=LD)
    column = b[np.arange(len(b)), :, np.argmax(np.diagonal(b, axis1=-2, axis2=-1), axis=-1)]
    column = np.where((np.sum(column * w, axis=-1) < 0)[:, None], -column, column)
    axis = np.where((trace >= 1)[:, None], w, column)
    norm = np.sqrt(np.sum(axis * axis, axis=-1))[:, None]
    return angle[:, None] * np.divide(axis, norm, out=np.zeros_like(axis), where=norm > 0)


def rotvecs_at(angle, n=2000, seed=31):
    e = np.random.default_rng(seed).standard_normal((n, 3))
    return angle * (e / np.linalg.norm(e, axis=1)[:, None])


class TestAccuracy:
    @pytest.mark.parametrize("angle", ACCURACY_ANGLES)
    def test_exp_rotvec_within_8_eps(self, angle):
        v = rotvecs_at(angle)
        assert np.max(np.abs(exp_rotvec(v) - exp_reference(v))) <= 8 * EPS

    @pytest.mark.parametrize("angle", ACCURACY_ANGLES)
    def test_variation_matrix_within_4_eps(self, angle):
        """Below 1e-4 rad a series that dropped the e e^T term read 9.4e5
        eps at 5e-5 and 3.8e6 eps at 1e-4 (1 - 1e-9)."""
        v = rotvecs_at(angle)
        assert np.max(np.abs(variation_matrix(v) - variation_reference(v))) <= 4 * EPS

    @pytest.mark.parametrize("angle", ACCURACY_ANGLES)
    def test_log_rotation_within_4_eps_relative(self, angle):
        """Near pi, dividing by sin(a) or taking square roots of the
        symmetric part loses the axis: 6.4e-8 relative at pi - 1e-4.  At pi
        the axis sign is ambiguous, and either sign is taken."""
        r = exp_rotvec(rotvecs_at(angle))
        got, expected = log_rotation(r).astype(LD), log_reference(r)
        error = np.sqrt(np.sum((got - expected) ** 2, axis=-1))
        if angle == np.pi:
            error = np.minimum(error, np.sqrt(np.sum((got + expected) ** 2, axis=-1)))
        assert np.all(error <= 4 * EPS * np.sqrt(np.sum(expected * expected, axis=-1)))

    @pytest.mark.parametrize("angle", [np.pi / 2, np.pi - 1e-4])
    def test_log_rotation_central_differences_across_a_seam(self, angle):
        """Central differences of log(exp(d) exp(v)) at d = 0, with |v| at
        pi/2, where the quaternion rows begin, and at pi - 1e-4, close to a
        half turn: each step moves the angle to both sides, and the
        difference must match the variation matrix of v."""
        rng = np.random.default_rng(37)
        for _ in range(20):
            v = angle * random_unit_vector(rng)
            r = exp_rotvec(v)
            jac = numeric_jacobian(lambda d: log_rotation(exp_rotvec(d) @ r), np.zeros(3), eps=1e-6)
            assert np.max(np.abs(jac - variation_matrix(v))) < 1e-5

leading_shapes = st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple)
seeds = st.integers(0, 2**32 - 1)


def random_stack(rng, shape):
    """A Pose of random rotations and translations over leading axes ``shape``."""
    v = np.array([random_rotvec(rng) for _ in range(int(np.prod(shape)))]).reshape(shape + (3,))
    return Pose(exp_rotvec(v), rng.uniform(-1, 1, shape + (3,)))


def single_rows(p):
    """(index, single Pose of row index) for every row of a stacked pose,
    built from the arrays, not by Pose.__getitem__."""
    for index in np.ndindex(p.t.shape[:-1]):
        yield index, Pose(p.r[index].copy(), p.t[index].copy())


def assert_same_pose(actual, expected):
    assert actual.r.shape == expected.r.shape and actual.t.shape == expected.t.shape
    assert np.array_equal(actual.r, expected.r) and np.array_equal(actual.t, expected.t)


class TestStackedPose:
    """A Pose of any leading shape acts row by row, bit for bit as the
    single-pose operations on each of its rows."""

    @settings(max_examples=60, deadline=None)
    @given(leading_shapes, seeds)
    def test_compose(self, shape, seed):
        rng = np.random.default_rng(seed)
        p, q = random_stack(rng, shape), random_stack(rng, shape)
        pq = p @ q
        assert_same_pose(p.compose(q), pq)
        rows_q = dict(single_rows(q))
        for index, row in single_rows(p):
            expected = row @ rows_q[index]
            assert_same_pose(pq[index], expected)
            # The single-pose formula, written out.
            r, t = row.r, row.t
            assert np.array_equal(expected.r, r @ rows_q[index].r)
            assert np.array_equal(expected.t, r @ rows_q[index].t + t)

    @settings(max_examples=60, deadline=None)
    @given(leading_shapes, seeds)
    def test_inverse(self, shape, seed):
        p = random_stack(np.random.default_rng(seed), shape)
        inv = p.inverse()
        for index, row in single_rows(p):
            expected = row.inverse()
            assert_same_pose(inv[index], expected)
            assert np.array_equal(expected.r, row.r.T)
            assert np.array_equal(expected.t, -row.r.T @ row.t)

    @settings(max_examples=60, deadline=None)
    @given(leading_shapes, seeds)
    def test_with_variation(self, shape, seed):
        rng = np.random.default_rng(seed)
        p = random_stack(rng, shape)
        theta = rng.normal(size=shape + (6,))
        moved = p.with_variation(theta)
        for index, row in single_rows(p):
            expected = scalar.pose_with_variation(row, theta[index])
            assert_same_pose(row.with_variation(theta[index]), expected)
            assert_same_pose(moved[index], expected)

    @settings(max_examples=60, deadline=None)
    @given(leading_shapes, seeds)
    def test_rows_and_stack_round_trip(self, shape, seed):
        p = random_stack(np.random.default_rng(seed), shape)
        rows = []
        for index, row in single_rows(p):
            assert_same_pose(p[index], row)
            rows.append(row)
        flat = Pose.stack(rows)
        assert flat.r.shape == (len(rows), 3, 3) and flat.t.shape == (len(rows), 3)
        assert np.array_equal(flat.r.reshape(p.r.shape), p.r)
        assert np.array_equal(flat.t.reshape(p.t.shape), p.t)
        for i, row in enumerate(rows):
            assert_same_pose(flat[i], row)
        # Index arrays select rows in their order.
        if rows:
            picks = np.arange(len(rows))[::-1]
            assert_same_pose(flat[picks], Pose.stack(rows[::-1]))

    def test_stack_and_single_broadcast(self):
        rng = np.random.default_rng(23)
        p, q = random_stack(rng, (5,)), random_pose(rng)
        for i, row in single_rows(p):
            assert_same_pose((p @ q)[i], row @ q)
            assert_same_pose((q @ p)[i], q @ row)

    def test_stack_rejects_rows_that_are_not_single_poses(self):
        good, flat = Pose.identity(), Pose(np.eye(3).reshape(9), np.zeros(3))
        # A lone flat rotation is not reshaped into a 3 x 3 one.
        with pytest.raises(ValueError, match=r"row 0: rotation has shape \(9,\), not \(3, 3\)"):
            Pose.stack([flat])
        # Rows of mixed shapes: the first bad one is named.
        with pytest.raises(ValueError, match=r"row 1: rotation has shape \(9,\), not \(3, 3\)"):
            Pose.stack([good, flat, flat])
        with pytest.raises(ValueError, match=r"row 2: translation has shape \(1, 3\), not \(3,\)"):
            Pose.stack([good, good, Pose(np.eye(3), np.zeros((1, 3)))])
        with pytest.raises(ValueError, match=r"row 0: translation has shape \(1, 3\), not \(3,\)"):
            Pose.stack([Pose(np.eye(3), np.zeros((1, 3)))])
        stacked = Pose.stack([good, good])
        with pytest.raises(ValueError, match=r"row 0: rotation has shape \(2, 3, 3\), not \(3, 3\)"):
            Pose.stack([stacked])
        # apply moves points by one transform only.
        with pytest.raises(ValueError, match=r"Pose.apply: rotation has shape \(2, 3, 3\)"):
            stacked.apply(np.zeros(3))
        # Values are not checked.
        nan = Pose.stack([Pose(np.full((3, 3), np.nan), np.zeros(3))])
        assert np.isnan(nan.r).all()
        assert Pose.stack([]).r.shape == (0, 3, 3) and Pose.stack([]).t.shape == (0, 3)

    def test_a_pose_is_not_a_pair(self):
        p = Pose.stack([Pose.identity(), Pose.from_rotvec([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])])
        with pytest.raises(TypeError):
            r, t = p
        with pytest.raises(TypeError):
            iter(Pose.identity())
        with pytest.raises(TypeError):
            list(p)
        with pytest.raises(TypeError, match="a single pose has no rows"):
            Pose.identity()[0]

    def test_a_pose_is_immutable(self):
        p = Pose.from_rotvec([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
        for name in ("r", "t", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, np.zeros(3))
        with pytest.raises(AttributeError):
            del p.r
        assert np.array_equal(p.t, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("shape", [(), (0,), (4,), (2, 3)])
    def test_deepcopy_and_pickle_round_trips(self, shape):
        rng = np.random.default_rng(29)
        p = random_pose(rng) if shape == () else random_stack(rng, shape)
        for copied in (copy.deepcopy(p), pickle.loads(pickle.dumps(p)), copy.copy(p)):
            assert type(copied) is Pose
            assert_same_pose(copied, p)
            with pytest.raises(AttributeError):
                copied.r = p.r
        assert copy.deepcopy(p).r is not p.r
