"""Synthetic energy providers against FD and closed-form registration oracles,
and the stacked pose-target kernel against the scalar formula it replaced."""

import copy
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import energy_at, random_pose, random_tree
from multibody import energy, solver
from multibody.energy import (
    PoseTarget,
    evaluate,
    per_body,
    point_registration_energy,
    pose_target_stack,
    quadratic_pose_target,
    zero_energy,
)
from multibody.experiments import build_serial_chain
from multibody.kinematics import Body, Joint, KinematicStructure
from multibody.se3 import Pose, exp_rotvec, log_rotation
from multibody.solver import FactorizationFailed, Regularization, SolverConfig, SolverMode, step
from oracles import (
    body_energy,
    evaluate_quadratic_target,
    kabsch,
    numeric_hessian,
    numeric_jacobian,
    point_registration_loop,
    pose_target_energy,
    pose_with_variation,
    random_rotvec,
    stacked_energies,
    zero_body_energy,
)

class TestQuadraticPoseTarget:
    def test_zero_gradient_at_target(self):
        rng = np.random.default_rng(0)
        pose = random_pose(rng)
        e = energy_at(quadratic_pose_target(pose), pose)
        assert np.max(np.abs(e.g)) < 1e-12

    def test_pure_translation_offset(self):
        rng = np.random.default_rng(1)
        r = exp_rotvec(random_rotvec(rng))
        target = Pose(r, np.zeros(3))
        d = np.array([0.1, -0.05, 0.2])
        e = energy_at(quadratic_pose_target(target, 1.0, 1.0), Pose(r, d))
        assert np.allclose(e.g[3:], 2.0 * r.T @ d, atol=1e-12)
        assert np.allclose(e.g[:3], np.zeros(3), atol=1e-12)
        assert np.allclose(e.h[3:, 3:], 2.0 * np.eye(3), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            target = random_pose(rng)
            pose = random_pose(rng)
            e = energy_at(quadratic_pose_target(target, 0.7, 1.3), pose)

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
        e = energy_at(quadratic_pose_target(target, 0.7, 1.3), pose)

        def scalar(theta):
            return evaluate_quadratic_target(
                pose_with_variation(pose, theta), target, 0.7, 1.3
            )

        h_fd = numeric_hessian(scalar, np.zeros(6), eps=1e-4)
        assert np.max(np.abs(h_fd - e.h)) < 1e-4

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            quadratic_pose_target(Pose.identity(), weight_r=-1.0)

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, weight):
        with pytest.raises(ValueError, match="finite"):
            quadratic_pose_target(Pose.identity(), weight_r=weight)
        with pytest.raises(ValueError, match="finite"):
            quadratic_pose_target(Pose.identity(), weight_t=weight)


class TestPoseTargetRecord:
    def test_a_pose_target_is_a_frozen_record_of_slots(self):
        """No field of a PoseTarget can be assigned or deleted and no
        attribute added; a copy or pickle is built from its fields."""
        target = quadratic_pose_target(Pose(exp_rotvec([0.1, 0.2, 0.3]), [1.0, 2.0, 3.0]), 0.5, 2.0)
        assert not hasattr(target, "__dict__")
        for name in ("target", "scale_r", "scale_t", "other"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(target, name, 1.0)
        with pytest.raises(AttributeError, match="read-only"):
            del target.scale_r
        for twin in (copy.deepcopy(target), pickle.loads(pickle.dumps(target))):
            assert isinstance(twin, PoseTarget)
            assert (twin.scale_r, twin.scale_t) == (1.0, 4.0)
            assert np.array_equal(twin.target.r, target.target.r)
            assert np.array_equal(twin.target.t, target.target.t)


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

    def test_point_stack_equals_the_per_point_loop(self):
        # The einsum sums the points in another order than the loop did.
        rng = np.random.default_rng(20)
        model = rng.uniform(-0.2, 0.2, (30, 3))
        observed = rng.uniform(-0.3, 0.3, (30, 3))
        provider = point_registration_energy(model, observed)
        for _ in range(50):
            pose = random_pose(rng)
            e, expected = provider(0, pose), point_registration_loop(model, observed, pose)
            assert np.linalg.norm(e.g - expected.g) <= 1e-12 * np.linalg.norm(expected.g)
            assert np.linalg.norm(e.h - expected.h) <= 1e-12 * np.linalg.norm(expected.h)

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
            if np.linalg.norm(energy_at(provider, s.bodies[0].pose).g) < 1e-8:
                break
            step(s, provider, cfg)
            current = evaluate_quadratic_target(s.bodies[0].pose, target)
            assert current < previous
            previous = current
        assert np.linalg.norm(energy_at(provider, s.bodies[0].pose).g) < 1e-8


# Relative rotation angles at the branch seams of log_rotation and the
# variation matrix, mixed with random angles in stacks.
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
axes = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: v / np.linalg.norm(v))
)
angles = st.one_of(st.sampled_from(SEAM_ANGLES), st.floats(0.0, np.pi))
weights = st.floats(0.0, 1e3)
target_rows = st.tuples(axes, angles, st.integers(0, 2**32 - 1), weights, weights)


def targets_at(rows):
    """(target, w_r, w_t, pose) per row: a random pose and a target whose
    rotation differs from it by the row's angle about the row's axis."""
    out = []
    for axis, angle, seed, w_r, w_t in rows:
        rng = np.random.default_rng(seed)
        pose = random_pose(rng)
        target = Pose(pose.r @ exp_rotvec(angle * axis).T, rng.uniform(-1, 1, 3))
        out.append((target, w_r, w_t, pose))
    return out


class TestPoseTargetKernel:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(target_rows, min_size=1, max_size=12))
    def test_stack_equals_scalar_formula_bit_for_bit(self, rows):
        cases = targets_at(rows)
        g, h = pose_target_stack(
            Pose.stack(target for target, _, _, _ in cases),
            np.array([(2.0 * w_r, 2.0 * w_t) for _, w_r, w_t, _ in cases]),
            Pose.stack(pose for _, _, _, pose in cases),
        )
        expected = [pose_target_energy(*case) for case in cases]
        g_ref, h_ref = stacked_energies(expected)
        assert np.array_equal(g, g_ref) and np.array_equal(h, h_ref)
        # The one-row case, as a provider.
        for (target, w_r, w_t, pose), e in zip(cases, expected):
            row = energy_at(quadratic_pose_target(target, w_r, w_t), pose)
            assert np.array_equal(row.g, e.g) and np.array_equal(row.h, e.h)

    def test_one_target_for_every_body(self):
        rng = np.random.default_rng(20)
        s = random_tree(rng, 5)
        provider = quadratic_pose_target(random_pose(rng), 0.3, 2.0)
        g, h = evaluate(provider, s.poses())
        g_ref, h_ref = stacked_energies(
            [body_energy(provider, i, b.pose) for i, b in enumerate(s.bodies)]
        )
        assert np.array_equal(g, g_ref) and np.array_equal(h, h_ref)

    def test_a_bare_provider_keeps_its_values_bit_for_bit(self):
        """A bare pose target and a bare per-body callable, each given to
        every body of a stack, evaluate to the bytes of one kernel call with
        the target's own (2,) scales, and of one call of the callable per
        body."""
        rng = np.random.default_rng(25)
        poses = random_tree(rng, 6).poses()
        target = quadratic_pose_target(random_pose(rng), 0.3, 2.0)
        g_ref, h_ref = pose_target_stack(target.target, np.array([0.6, 4.0]), poses)
        g, h = evaluate(target, poses)
        assert g.tobytes() == g_ref.tobytes() and h.tobytes() == h_ref.tobytes()
        model = rng.uniform(-0.2, 0.2, (6, 3))
        points = point_registration_energy(model, rng.uniform(-0.3, 0.3, (6, 3)))
        g_ref, h_ref = stacked_energies([points(i, poses[i]) for i in range(6)])
        g, h = evaluate(points, poses)
        assert g.tobytes() == g_ref.tobytes() and h.tobytes() == h_ref.tobytes()

    @pytest.mark.parametrize("n_bodies", [3, 4])
    def test_a_stacked_target_is_refused_by_name(self, n_bodies):
        """A pose target pulls every body toward one target.  A stacked
        target of three rows pulled body i toward row i on three bodies and
        failed on four with numpy's unnamed broadcast error; on both it is
        refused where per_body stacks the targets, naming the first body
        (per_body gives each body its own)."""
        provider = quadratic_pose_target(build_serial_chain(3).poses(), 1.0, 1.0)
        poses = build_serial_chain(n_bodies).poses()
        named = r"^per_body: body 0 target rotation has shape \(3, 3, 3\), not \(3, 3\)$"
        with pytest.raises(ValueError, match=named):
            evaluate(provider, poses)
        with pytest.raises(ValueError, match=named):
            per_body({0: provider})


class TestPerBody:
    @staticmethod
    def mixed_providers(rng):
        model = rng.uniform(-0.2, 0.2, (6, 3))
        fixed = energy.BodyEnergy(rng.standard_normal(6), np.diag(rng.uniform(1, 2, 6)))
        return {
            0: quadratic_pose_target(random_pose(rng), 2.0, 3.0),
            2: point_registration_energy(model, rng.uniform(-0.3, 0.3, (6, 3))),
            3: lambda i, pose: fixed,
            5: quadratic_pose_target(random_pose(rng), 0.0, 1.0),
        }

    def test_mixed_providers_equal_the_per_body_loop(self):
        rng = np.random.default_rng(21)
        s = random_tree(rng, 7)
        provider = per_body(self.mixed_providers(rng))
        g, h = evaluate(provider, s.poses())
        g_ref, h_ref = stacked_energies(
            [body_energy(provider, i, b.pose) for i, b in enumerate(s.bodies)]
        )
        assert np.array_equal(g, g_ref) and np.array_equal(h, h_ref)
        # A body without a provider has zero energy.
        assert not (np.any(g[1]) or np.any(h[1]))

    def test_plain_callable_is_called_once_per_body(self):
        s = random_tree(np.random.default_rng(22), 4)
        calls = []

        def provider(i, pose):
            calls.append(i)
            return energy.BodyEnergy(np.full(6, i), np.eye(6))

        g, _ = evaluate(provider, s.poses())
        assert calls == [0, 1, 2, 3]
        assert np.array_equal(g[:, 0], [0, 1, 2, 3])

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError, match="-1"):
            per_body({-1: quadratic_pose_target(Pose.identity())})

    @pytest.mark.parametrize("bad", [True, 1.0, np.bool_(True)])
    def test_a_key_must_be_an_integer(self, bad):
        """``per_body({True: target})`` targeted body 1.  Fails if a bool or
        a non-integral key is taken, or if the error stops naming the key;
        a numpy integer stays valid."""
        with pytest.raises(TypeError, match="^per_body: a key must be an integer body index, not "):
            per_body({bad: quadratic_pose_target(Pose.identity())})
        assert per_body({np.int64(1): quadratic_pose_target(Pose.identity())}).last == 1

    @pytest.mark.parametrize("bad", [None, 3.0])
    def test_a_provider_must_be_a_pose_target_or_callable(self, bad):
        """``per_body({0: None})`` gave body 0 zero energy, and a bare None
        provider failed with an unnamed "'NoneType' object is not callable";
        both are refused, naming the body.  A per_body map is not a provider
        of one body."""
        named = r"^per_body: body 2: .* is neither a pose target nor callable$"
        for providers in ({0: quadratic_pose_target(Pose.identity()), 2: bad}, {2: zero_energy}):
            with pytest.raises(TypeError, match=named):
                per_body(providers)
        with pytest.raises(TypeError, match="^per_body: body 0: "):
            step(build_serial_chain(3), bad, SolverConfig())

    def test_a_target_that_is_not_a_pose_is_named(self):
        """A target of a 4 x 4 matrix failed with numpy's unnamed
        "'numpy.ndarray' object has no attribute 'r'"."""
        providers = {0: quadratic_pose_target(Pose.identity()), 1: quadratic_pose_target(np.eye(4))}
        with pytest.raises(TypeError, match="^per_body: body 1 target ndarray is not a Pose$"):
            per_body(providers)

    def test_malformed_target_rejected_naming_its_body(self):
        flat = Pose(np.eye(3).reshape(9), np.zeros(3))
        with pytest.raises(
            ValueError, match=r"per_body: body 0 target rotation has shape \(9,\), not \(3, 3\)"
        ):
            per_body({0: quadratic_pose_target(flat)})
        with pytest.raises(ValueError, match=r"per_body: body 2 target rotation has shape \(9,\)"):
            per_body({0: quadratic_pose_target(Pose.identity()), 2: quadratic_pose_target(flat)})
        nan = per_body({0: quadratic_pose_target(Pose(np.eye(3), np.full(3, np.nan)))})
        assert nan.targets.t.shape == (1, 3) and np.isnan(nan.targets.t).all()

    def test_out_of_range_key_rejected_before_any_change(self):
        s = random_tree(np.random.default_rng(23), 3)
        before = [(b.pose.r.copy(), b.pose.t.copy()) for b in s.bodies]
        provider = per_body(
            {1: lambda i, pose: zero_body_energy(), 3: quadratic_pose_target(Pose.identity())}
        )
        with pytest.raises(ValueError, match="body index 3"):
            step(s, provider, SolverConfig(mode=SolverMode.PROJECTED))
        for (r, t), body in zip(before, s.bodies):
            assert np.array_equal(body.pose.r, r) and np.array_equal(body.pose.t, t)

    @pytest.mark.parametrize("mode", list(SolverMode))
    def test_nan_target_named_before_the_solve(self, mode, monkeypatch):
        s = random_tree(np.random.default_rng(24), 4, min_dof=6)
        target = Pose(np.full((3, 3), np.nan), np.zeros(3))
        providers = {i: quadratic_pose_target(b.pose) for i, b in enumerate(s.bodies)}
        providers[2] = quadratic_pose_target(target)

        def no_solve(k):
            raise AssertionError("solve_kkt was called")

        monkeypatch.setattr(solver, "solve_kkt", no_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FactorizationFailed, match="body 2"):
                step(s, per_body(providers), SolverConfig(mode=mode))


class TestStackedPath:
    """The step evaluates stacked providers in one pass: the claimed speed
    of a pose-target step rests on it."""

    def test_pose_targets_take_one_kernel_call_per_step(self, monkeypatch):
        s = build_serial_chain(8)
        kernel_calls = []
        kernel = energy.pose_target_stack

        def counting_kernel(*args):
            kernel_calls.append(args[2].t.shape[0])
            return kernel(*args)

        monkeypatch.setattr(energy, "pose_target_stack", counting_kernel)
        provider = per_body({i: quadratic_pose_target(b.pose) for i, b in enumerate(s.bodies)})
        for _ in range(3):
            step(s, provider, SolverConfig(mode=SolverMode.CONSTRAINED))
        assert kernel_calls == [8, 8, 8]

    def test_zero_energy_step_makes_no_provider_call(self, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("pose-target kernel call")

        monkeypatch.setattr(energy, "pose_target_stack", no_kernel)
        for mode in (SolverMode.PROJECTED, SolverMode.CONSTRAINED):
            step(build_serial_chain(5), zero_energy, SolverConfig(mode=mode))
        g, h = evaluate(zero_energy, build_serial_chain(5).poses())
        assert not (g.any() or h.any())
