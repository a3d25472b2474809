"""KKT assembly, solve, and the four solver configurations."""

import copy
import warnings

import numpy as np
import pytest
import scipy.sparse

from builders import random_pose, random_tree
from multibody.constraints import Constraint, OrthogonalityConstraint
from multibody.energy import (
    BodyEnergy,
    per_body,
    quadratic_pose_target,
    zero_energy,
)
from multibody.experiments import build_serial_chain
from multibody.kinematics import Body, Joint, KinematicStructure
from multibody.se3 import Pose
from multibody.solver import (
    DENSE_MAX_DIM,
    DENSE_MIN_FILL,
    FactorizationFailed,
    KktSystem,
    Regularization,
    SolverConfig,
    SolverMode,
    assemble,
    run,
    solve_kkt,
    step,
)
from oracles import (
    body_jacobians,
    evaluate_quadratic_target,
    n_rows,
    numeric_hessian,
    random_rotvec,
    scalar_kkt,
    selection_kkt,
    solve_dense_kkt,
)


def random_spd(rng, n=6):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.5 * np.eye(n)


def dense_blocks(k):
    """H and B of an assembled system as dense arrays."""
    kkt = k.matrix.toarray() if scipy.sparse.issparse(k.matrix) else k.matrix
    n = k.g_k.shape[0]
    return kkt[:n, :n], kkt[n:, :n]


def constrained_tree(rng, n_bodies=5, min_dof=1):
    """Random tree with violated constraints of both kinds between its
    bodies, one of them masked.  With fewer than 6 DoF per joint, the
    constraint rows in joint coordinates are usually rank deficient."""
    s = random_tree(rng, n_bodies, min_dof)
    s.constraints = [
        Constraint(0, 3, random_pose(rng), random_pose(rng)),
        OrthogonalityConstraint(1, 4, random_pose(rng), random_pose(rng)),
        Constraint(4, 2, random_pose(rng), random_pose(rng),
                   np.array([True, False, True, False, True, True])),
    ]
    return s


def random_energies(rng, n_bodies):
    return [BodyEnergy(rng.standard_normal(6), random_spd(rng)) for _ in range(n_bodies)]


def relative_error(actual, expected):
    return np.linalg.norm(actual - expected) / max(np.linalg.norm(expected), 1e-300)


def fixed_energies(energies):
    return lambda i, pose: energies[i]


class TestAssemble:
    def test_single_free_body_passthrough(self):
        s = KinematicStructure([Body("a", Joint(free_axes=np.ones(6, dtype=bool)))])
        rng = np.random.default_rng(0)
        e = BodyEnergy(rng.standard_normal(6), random_spd(rng))
        k = assemble(s, [e], SolverMode.PROJECTED, None)
        assert np.allclose(dense_blocks(k)[0], e.h)
        assert np.allclose(k.g_k, e.g)

    def test_child_contribution_projected(self):
        rng = np.random.default_rng(1)
        s = random_tree(rng, 2)
        j1 = body_jacobians(s)[1]
        e0 = BodyEnergy.zero()
        e1 = BodyEnergy(rng.standard_normal(6), random_spd(rng))
        k = assemble(s, [e0, e1], SolverMode.PROJECTED, None)
        assert np.allclose(dense_blocks(k)[0], j1.T @ e1.h @ j1, atol=1e-12)
        assert np.allclose(k.g_k, j1.T @ e1.g, atol=1e-12)

    def test_matches_numeric_hessian_of_composed_energy(self):
        # Quadratic targets at the current poses: zero residual, so the
        # Gauss-Newton assembly equals the true Hessian of the composed
        # scalar energy.
        rng = np.random.default_rng(2)
        s = random_tree(rng, 3)
        targets = [b.pose for b in s.bodies]
        provider = lambda i, pose: quadratic_pose_target(targets[i])(i, pose)  # noqa: E731
        energies = [provider(i, b.pose) for i, b in enumerate(s.bodies)]
        k = assemble(s, energies, SolverMode.PROJECTED, None)

        def composed(theta):
            moved = copy.deepcopy(s)
            moved.update_poses(theta)
            return sum(
                evaluate_quadratic_target(b.pose, targets[i])
                for i, b in enumerate(moved.bodies)
            )

        h_fd = numeric_hessian(composed, np.zeros(s.n_dof), eps=1e-4)
        assert np.max(np.abs(h_fd - dense_blocks(k)[0])) < 1e-6

    def test_regularization_on_matching_axes(self):
        s = KinematicStructure([Body("a", Joint(free_axes=np.ones(6, dtype=bool)))])
        k = assemble(s, [BodyEnergy.zero()], SolverMode.PROJECTED, Regularization(7.0, 9.0))
        assert np.allclose(np.diag(dense_blocks(k)[0]), [7, 7, 7, 9, 9, 9])

    def test_energy_count_mismatch(self):
        rng = np.random.default_rng(3)
        s = random_tree(rng, 2)
        with pytest.raises(ValueError):
            assemble(s, [BodyEnergy.zero()], SolverMode.PROJECTED, None)

    def test_free_body_modes_match_selection_formula(self):
        rng = np.random.default_rng(4)
        s = constrained_tree(rng)
        energies = random_energies(rng, len(s.bodies))
        for mode, constraints in (
            (SolverMode.INDEPENDENT, []),
            (SolverMode.CONSTRAINED, s.constraints),
        ):
            k = assemble(s, energies, mode, Regularization(7.0, 9.0))
            h, g, b_mat, b_vec = selection_kkt(s, energies, constraints, [7, 7, 7, 9, 9, 9])
            h_k, b_k = dense_blocks(k)
            assert np.allclose(h_k, 0.5 * (h + h.T), rtol=0.0, atol=1e-12)
            assert np.allclose(k.g_k, g, rtol=0.0, atol=1e-12)
            assert np.allclose(b_k, b_mat, rtol=0.0, atol=1e-12)
            assert np.array_equal(k.b_vec, b_vec)


class TestSolveKkt:
    def test_unconstrained_newton_reduction(self):
        v = np.array([1.0, -2.0, 3.0])
        k = KktSystem.from_blocks(np.eye(3), v, np.zeros((0, 3)), np.zeros(0))
        theta, lam = solve_kkt(k)
        assert np.allclose(theta, -v)
        assert lam.shape == (0,)

    def test_one_dimensional_toy(self):
        k = KktSystem.from_blocks(
            np.array([[2.0]]), np.array([4.0]), np.array([[1.0]]), np.array([3.0])
        )
        theta, lam = solve_kkt(k)
        assert np.allclose(theta, [-3.0])
        assert np.allclose(lam, [2.0])

    def test_duplicated_constraint_row_fails(self):
        k = KktSystem.from_blocks(
            np.eye(2),
            np.zeros(2),
            np.array([[1.0, 0.0], [1.0, 0.0]]),
            np.array([1.0, 2.0]),
        )
        with pytest.raises(FactorizationFailed):
            solve_kkt(k)

    def test_feasibility_and_stationarity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            h = random_spd(rng, 8)
            g = rng.standard_normal(8)
            b_mat = rng.standard_normal((3, 8))
            b_vec = rng.standard_normal(3)
            k = KktSystem.from_blocks(h, g, b_mat, b_vec)
            theta, lam = solve_kkt(k)
            rhs_norm = max(1.0, np.linalg.norm(np.concatenate([g, b_vec])))
            assert np.linalg.norm(h @ theta + b_mat.T @ lam + g) < 1e-7 * rhs_norm
            assert np.linalg.norm(b_mat @ theta + b_vec) < 1e-7 * rhs_norm


    def test_stack_matches_single_solves(self):
        rng = np.random.default_rng(6)
        blocks = [
            (random_spd(rng, 8), rng.standard_normal(8), rng.standard_normal((3, 8)),
             rng.standard_normal(3))
            for _ in range(20)
        ]
        theta, lam = solve_kkt(KktSystem.from_blocks(*map(np.array, zip(*blocks))))
        assert theta.shape == (20, 8) and lam.shape == (20, 3)
        for i, system in enumerate(blocks):
            single_theta, single_lam = solve_kkt(KktSystem.from_blocks(*system))
            assert np.array_equal(theta[i], single_theta)
            assert np.array_equal(lam[i], single_lam)

    @pytest.mark.parametrize(
        "defect", ["duplicated_row", "singular", "non_finite_input", "overflow"]
    )
    def test_stack_names_first_failing_system(self, defect):
        h = np.array([np.eye(2)] * 4)
        g = np.zeros((4, 2))
        b_mat = np.array([[[1.0, 0.0], [0.0, 1.0]]] * 4)
        b_vec = np.ones((4, 2))
        if defect == "duplicated_row":
            b_mat[1, 1] = b_mat[1, 0]
        elif defect == "singular":
            b_mat[1] = 0.0
            h[1] = 0.0
        elif defect == "non_finite_input":
            g[1, 0] = np.nan
        else:
            # Factors fine, but the solution overflows.
            b_mat[1] = 0.0
            h[1] = np.diag([1e-310, 1.0])
            g[1] = 1.0
        # A later defective system is not the one named.
        b_mat[3] = 0.0
        h[3] = 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FactorizationFailed) as info:
                solve_kkt(KktSystem.from_blocks(h, g, b_mat, b_vec))
        assert info.value.system == 1
        assert not caught
        with pytest.raises(FactorizationFailed) as info:
            solve_kkt(KktSystem.from_blocks(h[1], g[1], b_mat[1], b_vec[1]))
        assert info.value.system is None


class TestFreeBodySparseKkt:
    """The free-body system, stored as the size rule says, against the dense
    selection-Jacobian one."""

    @staticmethod
    def check(s, energies, mode):
        reg = Regularization()
        k = assemble(s, energies, mode, reg)
        dim = k.g_k.shape[0] + k.b_vec.shape[0]
        sparse = scipy.sparse.issparse(k.matrix)
        nnz = k.matrix.nnz if sparse else np.count_nonzero(k.matrix)
        assert sparse == (dim > DENSE_MAX_DIM and nnz < DENSE_MIN_FILL * dim * dim)
        theta, lam = solve_kkt(k)
        constraints = s.constraints if mode is SolverMode.CONSTRAINED else []
        reference = selection_kkt(
            s, energies, constraints, [reg.lambda_r] * 3 + [reg.lambda_t] * 3
        )
        theta_ref, lam_ref = solve_dense_kkt(*reference)
        assert relative_error(theta, theta_ref) < 1e-10
        assert lam.shape == lam_ref.shape
        if lam_ref.size:
            assert relative_error(lam, lam_ref) < 1e-10

    @pytest.mark.parametrize("mode", [SolverMode.INDEPENDENT, SolverMode.CONSTRAINED])
    def test_random_tree_matches_dense_reference(self, mode):
        rng = np.random.default_rng(11)
        for _ in range(5):
            s = constrained_tree(rng)
            self.check(s, random_energies(rng, len(s.bodies)), mode)

    @pytest.mark.parametrize("n_bodies", [2, 5, 64])
    @pytest.mark.parametrize("mode", [SolverMode.INDEPENDENT, SolverMode.CONSTRAINED])
    def test_serial_chain_matches_dense_reference(self, mode, n_bodies):
        rng = np.random.default_rng(n_bodies)
        s = build_serial_chain(n_bodies)
        self.check(s, random_energies(rng, n_bodies), mode)

    def test_duplicated_chain_constraints_fail_without_warning(self):
        s = build_serial_chain(5)
        s.constraints = s.constraints + s.constraints
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FactorizationFailed) as info:
                step(s, zero_energy, SolverConfig(mode=SolverMode.CONSTRAINED))
        # The copies are named, not their originals.
        copies = ", ".join(
            f"{i + 4} (bodies {i} 'body{i}', {i + 1} 'body{i + 1}')" for i in range(4)
        )
        assert str(info.value).endswith(f"constraints {copies}")


class TestFailureDiagnosis:
    @pytest.mark.parametrize("n_bodies", [4, 10])
    def test_combined_chain_names_size_and_dependent_constraints(self, n_bodies):
        # The mirrored joint constraints are noise-level rows in joint
        # coordinates, so every one of them is dependent.
        s = build_serial_chain(n_bodies)
        with pytest.raises(FactorizationFailed) as info:
            step(s, zero_energy, SolverConfig(mode=SolverMode.COMBINED))
        message = str(info.value)
        assert "slice" not in message
        assert f"{5 + n_bodies} coordinates and {5 * (n_bodies - 1)} constraint rows" in message
        named = ", ".join(
            f"{i} (bodies {i} 'body{i}', {i + 1} 'body{i + 1}')" for i in range(n_bodies - 1)
        )
        assert message.endswith(f"of rank 0; numerically dependent rows in constraints {named}")


class TestStep:
    def test_fixed_point_at_zero_gradient(self):
        rng = np.random.default_rng(6)
        s = random_tree(rng, 3)
        report = step(s, zero_energy, SolverConfig(mode=SolverMode.PROJECTED))
        assert report.theta_norm <= 1e-10

    def test_full_pose_constraint_converges(self):
        # Two free bodies with a full 6-DoF constraint: rotation and
        # translation rows couple, so a single iteration is not exact, but
        # the iteration contracts quickly to the constraint manifold.
        rng = np.random.default_rng(7)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        pose_a = Pose.identity()
        pose_b = Pose.from_rotvec(2.1 * axis, 0.6 * rng.standard_normal(3))
        s = KinematicStructure(
            [
                Body("a", Joint(free_axes=np.ones(6, dtype=bool)), pose=pose_a),
                Body("b", Joint(free_axes=np.ones(6, dtype=bool)), pose=pose_b),
            ],
            [Constraint(0, 1)],
        )
        cfg = SolverConfig(mode=SolverMode.CONSTRAINED)
        reports = run(s, zero_energy, SolverConfig(mode=cfg.mode, iterations=10))
        assert reports[-1].residuals_after[0] <= 1e-8
        assert reports[0].residuals_after[0] < reports[0].residuals_before[0]

    def test_energy_non_increasing_on_chain(self):
        rng = np.random.default_rng(8)
        s = random_tree(rng, 3)
        targets = []
        for body in s.bodies:
            offset = np.concatenate([random_rotvec(rng, 0.3), 0.1 * rng.standard_normal(3)])
            from multibody.se3 import pose_with_variation

            targets.append(pose_with_variation(body.pose, offset))
        provider = lambda i, pose: quadratic_pose_target(targets[i])(i, pose)  # noqa: E731

        def total_energy():
            return sum(
                evaluate_quadratic_target(b.pose, targets[i])
                for i, b in enumerate(s.bodies)
            )

        cfg = SolverConfig(mode=SolverMode.PROJECTED, iterations=1)
        previous = total_energy()
        for _ in range(10):
            step(s, provider, cfg)
            current = total_energy()
            assert current <= previous + 1e-12
            previous = current

    def test_mode_equivalence_on_tree(self):
        rng = np.random.default_rng(9)
        s = random_tree(rng, 4)
        energies = [
            BodyEnergy(rng.standard_normal(6), random_spd(rng)) for _ in s.bodies
        ]
        k_proj = assemble(copy.deepcopy(s), energies, SolverMode.PROJECTED, Regularization())
        k_comb = assemble(copy.deepcopy(s), energies, SolverMode.COMBINED, Regularization())
        theta_proj, _ = solve_kkt(k_proj)
        theta_comb, _ = solve_kkt(k_comb)
        assert np.array_equal(theta_proj, theta_comb)

    def test_regularization_monotonicity(self):
        rng = np.random.default_rng(10)
        s = KinematicStructure([Body("a", Joint(free_axes=np.ones(6, dtype=bool)))])
        for _ in range(20):
            e = BodyEnergy(rng.standard_normal(6), random_spd(rng))
            norms = []
            for scale in (1.0, 10.0, 100.0, 1000.0):
                k = assemble(s, [e], SolverMode.PROJECTED, Regularization(scale, 10 * scale))
                theta, _ = solve_kkt(k)
                norms.append(np.linalg.norm(theta))
            assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_factorization_failure_propagates(self):
        pose = Pose.identity()
        s = KinematicStructure(
            [
                Body("a", Joint(free_axes=np.ones(6, dtype=bool)), pose=pose),
                Body("b", Joint(free_axes=np.ones(6, dtype=bool)), pose=pose),
            ],
            [Constraint(0, 1), Constraint(0, 1)],  # duplicated rows
        )
        for mode in (SolverMode.CONSTRAINED, SolverMode.COMBINED):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FactorizationFailed):
                    step(copy.deepcopy(s), zero_energy, SolverConfig(mode=mode))

    @pytest.mark.parametrize("mode", [SolverMode.CONSTRAINED, SolverMode.COMBINED])
    def test_residuals_before_match_fresh_evaluation(self, mode):
        s = constrained_tree(np.random.default_rng(12))
        expected = [float(np.linalg.norm(c.residual(s))) for c in s.constraints]
        report = step(s, zero_energy, SolverConfig(mode=mode))
        assert report.residuals_before == expected

    def test_projected_chain_stays_orthonormal(self):
        # Re-inferred joint transforms are re-orthonormalized; without that
        # the rotation error of this chain grows about 30x per step.
        n_bodies = 64
        s = build_serial_chain(n_bodies)
        rng = np.random.default_rng(13)
        amplitude = rng.uniform(0.02, 0.1, n_bodies - 1)
        phase = rng.uniform(0.0, 2.0 * np.pi, n_bodies - 1)
        link = Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        cfg = SolverConfig(mode=SolverMode.PROJECTED)
        for frame in range(300):
            angles = amplitude * (np.sin(2.0 * np.pi * frame / 240 + phase) - np.sin(phase))
            targets = [Pose.identity()]
            for q in angles:
                targets.append(targets[-1] @ link @ Pose.from_rotvec([0.0, 0.0, q]))
            providers = {
                i: quadratic_pose_target(target, 100.0, 100.0)
                for i, target in enumerate(targets)
            }
            step(s, per_body(providers), cfg)
            worst = max(np.max(np.abs(b.pose.r.T @ b.pose.r - np.eye(3))) for b in s.bodies)
            assert worst <= 1e-9, f"frame {frame}: orthonormality error {worst:.1e}"


class TestStepReport:
    @pytest.mark.parametrize("mode", [SolverMode.CONSTRAINED, SolverMode.COMBINED])
    def test_multipliers_match_dense_oracle(self, mode):
        rng = np.random.default_rng(14)
        s = constrained_tree(rng, min_dof=6)
        energies = random_energies(rng, len(s.bodies))
        reg = Regularization()
        _, lam_ref = solve_dense_kkt(*scalar_kkt(s, energies, mode, reg))
        n = 6 * len(s.bodies) if mode is SolverMode.CONSTRAINED else s.n_dof
        report = step(s, fixed_energies(energies), SolverConfig(mode=mode))
        assert [m.shape[0] for m in report.multipliers] == [n_rows(c) for c in s.constraints]
        assert relative_error(np.concatenate(report.multipliers), lam_ref) < 1e-10
        assert report.kkt_dim == n + lam_ref.shape[0]

    @pytest.mark.parametrize("mode", [SolverMode.INDEPENDENT, SolverMode.PROJECTED])
    def test_no_multipliers_without_constraint_rows(self, mode):
        s = constrained_tree(np.random.default_rng(15))
        report = step(s, zero_energy, SolverConfig(mode=mode))
        assert report.multipliers == []
        assert report.kkt_dim == (6 * len(s.bodies) if mode is SolverMode.INDEPENDENT else s.n_dof)


class TestNonFiniteEnergy:
    @pytest.mark.parametrize("mode", list(SolverMode))
    @pytest.mark.parametrize("part", ["g", "h"])
    def test_named_before_the_solve(self, mode, part):
        s = constrained_tree(np.random.default_rng(16))
        energies = random_energies(np.random.default_rng(17), len(s.bodies))
        getattr(energies[2], part)[0] = np.nan
        before = [(b.pose.r.copy(), b.pose.t.copy()) for b in s.bodies]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FactorizationFailed, match="body 2"):
                step(s, fixed_energies(energies), SolverConfig(mode=mode))
        for (r, t), body in zip(before, s.bodies):
            assert np.array_equal(body.pose.r, r) and np.array_equal(body.pose.t, t)
