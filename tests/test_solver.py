"""KKT assembly, solve, and the four solver configurations."""

import copy
import dataclasses
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from builders import random_pose, random_tree, random_trees, rebuilt, stacks
from multibody.constraints import Constraint, OrthogonalityConstraint, evaluate_constraints
from multibody.energy import (
    BodyEnergy,
    evaluate,
    per_body,
    quadratic_pose_target,
    zero_energy,
)
from multibody.experiments import build_serial_chain
from multibody.kinematics import Body, Joint, KinematicStructure, axes_mask
from multibody import constraints, kinematics, se3, solver
from multibody.se3 import Pose, exp_rotvec
from multibody.solver import (
    DENSE_MAX_DIM,
    DENSE_MIN_FILL,
    STEP_LAYERS,
    BandMatrix,
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
    assemble_by_products,
    band_product_by_diagonals,
    body_jacobians,
    evaluate_quadratic_target,
    n_rows,
    numeric_hessian,
    pose_with_variation,
    random_rotvec,
    scalar_kkt,
    scipy_symmetric_solve,
    selection_kkt,
    solve_dense_kkt,
    stacked_energies,
    zero_body_energy,
)


# Adds exact zeros: the energies alone.
NO_REGULARIZATION = Regularization(0.0, 0.0)


def random_spd(rng, n=6):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.5 * np.eye(n)


def dense_matrix(k):
    """The KKT matrix of an assembled system as a dense array."""
    return k.matrix.toarray() if isinstance(k.matrix, BandMatrix) else k.matrix


def dense_blocks(k):
    """H and B of an assembled system as dense arrays."""
    kkt = dense_matrix(k)
    n = k.g_k.shape[0]
    return kkt[:n, :n], kkt[n:, :n]


def constrained_tree(rng, n_bodies=5, min_dof=1):
    """Random tree with violated constraints of both kinds between its
    bodies, one of them masked.  With fewer than 6 DoF per joint, the
    constraint rows in joint coordinates are usually rank deficient."""
    # The frames are drawn after the tree, so that a seed keeps its inputs.
    s = random_tree(rng, n_bodies, min_dof)
    return rebuilt(s, constraints=[
        Constraint(0, 3, random_pose(rng), random_pose(rng)),
        OrthogonalityConstraint(1, 4, random_pose(rng), random_pose(rng)),
        Constraint(4, 2, random_pose(rng), random_pose(rng),
                   np.array([True, False, True, False, True, True])),
    ])


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
        k = assemble(s, *stacked_energies([e]), SolverMode.PROJECTED, NO_REGULARIZATION)
        assert np.allclose(dense_blocks(k)[0], e.h)
        assert np.allclose(k.g_k, e.g)

    def test_child_contribution_projected(self):
        rng = np.random.default_rng(1)
        s = random_tree(rng, 2)
        j1 = body_jacobians(s)[1]
        e0 = zero_body_energy()
        e1 = BodyEnergy(rng.standard_normal(6), random_spd(rng))
        k = assemble(s, *stacked_energies([e0, e1]), SolverMode.PROJECTED, NO_REGULARIZATION)
        assert np.allclose(dense_blocks(k)[0], j1.T @ e1.h @ j1, atol=1e-12)
        assert np.allclose(k.g_k, j1.T @ e1.g, atol=1e-12)

    def test_matches_numeric_hessian_of_composed_energy(self):
        # Quadratic targets at the current poses: zero residual, so the
        # Gauss-Newton assembly equals the true Hessian of the composed
        # scalar energy.
        rng = np.random.default_rng(2)
        s = random_tree(rng, 3)
        targets = [b.pose for b in s.bodies]
        provider = per_body({i: quadratic_pose_target(target) for i, target in enumerate(targets)})
        k = assemble(s, *evaluate(provider, s.poses()), SolverMode.PROJECTED, NO_REGULARIZATION)

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
        g, h = stacked_energies([zero_body_energy()])
        k = assemble(s, g, h, SolverMode.PROJECTED, Regularization(7.0, 9.0))
        assert np.allclose(np.diag(dense_blocks(k)[0]), [7, 7, 7, 9, 9, 9])

    def test_energy_count_mismatch(self):
        rng = np.random.default_rng(3)
        s = random_tree(rng, 2)
        with pytest.raises(ValueError):
            assemble(
                s, *stacked_energies([zero_body_energy()]), SolverMode.PROJECTED, NO_REGULARIZATION
            )

    def test_free_body_modes_match_selection_formula(self):
        rng = np.random.default_rng(4)
        s = constrained_tree(rng)
        energies = random_energies(rng, len(s.bodies))
        for mode, constraints in (
            (SolverMode.INDEPENDENT, []),
            (SolverMode.CONSTRAINED, s.constraints),
        ):
            k = assemble(s, *stacked_energies(energies), mode, Regularization(7.0, 9.0))
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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_small_stack_matches_single_solves(self, dim):
        """Fails if a lone 1 x 1 system is divided while its copy in a
        stack is factored: they differ in the last bit for about a quarter
        of all draws.  A lone system is a stack of one, at every size."""
        rng = np.random.default_rng(22)
        for _ in range(20):
            k = self.random_kkt(rng, dim, (2,))
            theta, lam = solve_kkt(k)
            for i in range(2):
                single_theta, single_lam = solve_kkt(KktSystem(k.matrix[i], k.g_k[i], k.b_vec[i]))
                assert np.array_equal(theta[i], single_theta)
                assert np.array_equal(lam[i], single_lam)

    @staticmethod
    def random_kkt(rng, dim, batch=()):
        """A random symmetric indefinite KKT system (or stack) of this size,
        with up to half of it constraint rows."""
        m = int(rng.integers(0, dim // 2 + 1))
        n = dim - m
        a = rng.standard_normal(batch + (n, n))
        return KktSystem.from_blocks(
            a + a.swapaxes(-1, -2),
            rng.standard_normal(batch + (n,)),
            rng.standard_normal(batch + (m, n)),
            rng.standard_normal(batch + (m,)),
        )

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_dense_solve_matches_scipy_bit_for_bit(self, batch):
        # Sizes 60-210 take LAPACK's blocked factorization; the oracle
        # solves a lone 1 x 1 system stacked twice, which scipy factors
        # rather than divides.
        rng = np.random.default_rng(12)
        for dim in [*range(1, 41)] * 3 + [*range(60, 211)]:
            k = self.random_kkt(rng, dim, batch)
            expected = scipy_symmetric_solve(k.matrix, -np.concatenate([k.g_k, k.b_vec], axis=-1))
            theta, lam = solve_kkt(k)
            assert np.array_equal(np.concatenate([theta, lam], axis=-1), expected), dim

    @pytest.mark.parametrize("dim", [0, 1, 9])
    @pytest.mark.parametrize("batch", [(), (4,), (2, 3)])
    def test_dense_solve_leaves_its_inputs_and_solves_each_system_alone(self, dim, batch):
        """_dense_solve factors and solves in place, on its own copies:
        ``kkt`` and ``rhs`` keep every bit, whatever their layout, each
        solution satisfies its system to rounding, and each system of a
        stack, 0 x 0 and 1 x 1 ones too, equals its lone solve bit for bit."""
        rng = np.random.default_rng(40 + dim)
        a = rng.standard_normal(batch + (dim, dim))
        rhs = rng.standard_normal(batch + (dim,))
        for kkt in (a + a.swapaxes(-1, -2), (a + a.swapaxes(-1, -2)).swapaxes(-1, -2)):
            before = kkt.copy(), rhs.copy()
            x, residual = solver._dense_solve(kkt, rhs)
            assert np.array_equal(kkt, before[0]) and np.array_equal(rhs, before[1])
            assert x.shape == residual.shape == rhs.shape
            # Solved, not merely copied: kkt x - rhs, recomputed here, is at
            # rounding level and is the residual returned.
            recomputed = (kkt @ x[..., None])[..., 0] - rhs
            scale = np.abs(kkt).sum(axis=-1).max(initial=0) * np.abs(x).max(initial=0) + 1.0
            assert np.abs(recomputed).max(initial=0) < 1e-12 * scale
            assert np.allclose(residual, recomputed, rtol=0, atol=1e-12 * scale)
            for index in np.ndindex(*batch):
                lone_x, lone_residual = solver._dense_solve(kkt[index], rhs[index])
                assert np.array_equal(x[index], lone_x), index
                assert np.array_equal(residual[index], lone_residual), index

    def test_dense_solve_factors_each_system_once(self, monkeypatch):
        calls = {"solve": 0, "sytrf": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(scipy.linalg, "solve", counted("solve", scipy.linalg.solve))
        monkeypatch.setattr(solver, "dsytrf", counted("sytrf", solver.dsytrf))
        rng = np.random.default_rng(13)
        solve_kkt(self.random_kkt(rng, 12, (5,)))
        assert calls == {"solve": 0, "sytrf": 5}
        solve_kkt(self.random_kkt(rng, 12))
        assert calls == {"solve": 0, "sytrf": 6}

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

    @staticmethod
    def counted(monkeypatch, name):
        """Patches solver.<name> to count its calls in the returned list."""
        calls, function = [], getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda *a, **kw: calls.append(1) or function(*a, **kw))
        return calls

    def test_bad_input_is_named_before_any_factorization(self, monkeypatch):
        """Fails if the singular system 1 is factored and named before the
        NaN in system 3 is seen: every input check comes first."""
        h = np.array([np.eye(2)] * 4)
        g = np.zeros((4, 2))
        b_mat = np.array([[[1.0, 0.0], [0.0, 1.0]]] * 4)
        h[1], b_mat[1] = 0.0, 0.0
        g[3, 0] = np.nan
        calls = self.counted(monkeypatch, "dsytrf")
        with pytest.raises(FactorizationFailed, match="non-finite KKT matrix") as info:
            solve_kkt(KktSystem.from_blocks(h, g, b_mat, np.ones((4, 2))))
        assert info.value.system == 3
        assert not calls

    def test_bad_band_input_is_named_before_its_factorization(self, monkeypatch):
        s = build_serial_chain(64)
        k = assemble(s, *stacked_energies([zero_body_energy()] * 64), SolverMode.CONSTRAINED,
                     Regularization())
        assert isinstance(k.matrix, BandMatrix)
        k.b_vec[5] = np.nan
        calls = self.counted(monkeypatch, "dgbtrf")
        with pytest.raises(FactorizationFailed, match="non-finite KKT matrix") as info:
            solve_kkt(k)
        assert info.value.system is None
        assert not calls

    def test_more_rows_than_coordinates_fail_in_every_system(self):
        rng = np.random.default_rng(21)
        h = np.array([random_spd(rng, 2) for _ in range(3)])
        b_mat = rng.standard_normal((3, 3, 2))
        k = KktSystem.from_blocks(h, np.ones((3, 2)), b_mat, np.ones((3, 3)))
        for system, single in ((0, k), (None, KktSystem(k.matrix[2], k.g_k[2], k.b_vec[2]))):
            with pytest.raises(FactorizationFailed, match="more constraint rows") as info:
                solve_kkt(single)
            assert info.value.system == system

    @pytest.mark.parametrize(
        "defect, message", [("singular", "singular KKT matrix"), ("non_finite", "non-finite KKT")]
    )
    def test_a_stack_with_two_leading_axes_names_its_system_by_flat_index(self, defect, message):
        """A (2, 2) stack with system (0, 1) singular, or a NaN in system
        (1, 0): the failure names flat index 1 or 2, as for a flat stack of
        four.  Fails if the singular system is named by its index tuple,
        which FactorizationFailed took as extra arguments (a TypeError)."""
        h = np.array([np.eye(2)] * 4)
        g, b_mat = np.zeros((4, 2)), np.array([np.eye(2)] * 4)
        if defect == "singular":
            h[1], b_mat[1] = 0.0, 0.0
        else:
            g[2, 0] = np.nan
        flat = KktSystem.from_blocks(h, g, b_mat, np.ones((4, 2)))
        square = KktSystem(
            flat.matrix.reshape(2, 2, 4, 4), flat.g_k.reshape(2, 2, 2), flat.b_vec.reshape(2, 2, 2)
        )
        for stack in (flat, square):
            with pytest.raises(FactorizationFailed, match=message) as info:
                solve_kkt(stack)
            assert info.value.system == (1 if defect == "singular" else 2)


class TestFreeBodySparseKkt:
    """The free-body system, stored as the size rule says, against the dense
    selection-Jacobian one."""

    @staticmethod
    def check(s, energies, mode, band):
        reg = Regularization()
        k = assemble(s, *stacked_energies(energies), mode, reg)
        dim = k.g_k.shape[0] + k.b_vec.shape[0]
        assert isinstance(k.matrix, BandMatrix) == band
        if band:
            # Neither small nor dense, and narrow enough for the band.
            fill = DENSE_MIN_FILL * dim * dim
            assert dim > DENSE_MAX_DIM and np.count_nonzero(k.matrix.toarray()) < fill
            assert (2 * k.matrix.width + 1) * dim < fill
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
            # INDEPENDENT has 30 unknowns; CONSTRAINED 43, in a band of
            # half-width 11 that holds more than half of the 43 x 43 matrix.
            self.check(s, random_energies(rng, len(s.bodies)), mode, band=False)

    @pytest.mark.parametrize("n_bodies", [2, 5, 64])
    @pytest.mark.parametrize("mode", [SolverMode.INDEPENDENT, SolverMode.CONSTRAINED])
    def test_serial_chain_matches_dense_reference(self, mode, n_bodies):
        rng = np.random.default_rng(n_bodies)
        s = build_serial_chain(n_bodies)
        dim = 6 * n_bodies + (5 * (n_bodies - 1) if mode is SolverMode.CONSTRAINED else 0)
        # A chain's band is at most 21 wide (TestBandOrder), so only the
        # small systems are dense.
        self.check(s, random_energies(rng, n_bodies), mode, band=dim > DENSE_MAX_DIM)

    def test_duplicated_chain_constraints_fail_without_warning(self):
        s = build_serial_chain(5)
        s = rebuilt(s, constraints=s.constraints + s.constraints)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FactorizationFailed) as info:
                step(s, zero_energy, SolverConfig(mode=SolverMode.CONSTRAINED))
        # The copies are named, not their originals.
        copies = ", ".join(
            f"{i + 4} (bodies {i} 'body{i}', {i + 1} 'body{i + 1}')" for i in range(4)
        )
        assert str(info.value).endswith(f"constraints {copies}")


class TestBandOrder:
    """Large sparse systems in band storage, in reverse Cuthill-McKee order
    of blocks: a body's coordinates, the rows on one pair of bodies."""

    @pytest.mark.parametrize("n_bodies", [7, 64, 200])
    @pytest.mark.parametrize(
        "mode, width", [(SolverMode.CONSTRAINED, 10), (SolverMode.INDEPENDENT, 5)]
    )
    def test_chain_half_bandwidth_is_constant(self, mode, width, n_bodies):
        """Along a chain, body, joint rows, body: 6 + 5 - 1 apart at most.
        Alone, a body's 6 coordinates are 5 apart."""
        s = build_serial_chain(n_bodies)
        k = assemble(s, *stacked_energies([zero_body_energy()] * n_bodies), mode, NO_REGULARIZATION)
        assert isinstance(k.matrix, BandMatrix)
        assert k.matrix.width == width
        assert k.matrix.band.shape == (3 * width + 1, k.g_k.shape[0] + k.b_vec.shape[0])
        assert k.matrix.band.flags.f_contiguous

    @pytest.mark.parametrize("mode", [SolverMode.INDEPENDENT, SolverMode.CONSTRAINED])
    def test_constrained_tree_matches_dense_solve(self, mode):
        rng = np.random.default_rng(20)
        for _ in range(5):
            s = constrained_tree(rng, n_bodies=12)
            energies = random_energies(rng, len(s.bodies))
            k = assemble(s, *stacked_energies(energies), mode, Regularization())
            assert isinstance(k.matrix, BandMatrix)
            kkt = k.matrix.toarray()
            assert np.array_equal(kkt, kkt.T)
            theta, lam = solve_kkt(k)
            expected = np.linalg.solve(kkt, -np.concatenate([k.g_k, k.b_vec]))
            assert relative_error(np.concatenate([theta, lam]), expected) < 1e-10
            assert k.backward_error < 1e-14


class TestGatheredForestAssembly:
    """In the forest view every body Jacobian is the identity, so that
    assemble gathers g's, H's and B's entries instead of multiplying by the
    Jacobians' factors.  The gathered system must equal the product path it
    replaced (oracles.assemble_by_products), and the band product the
    per-diagonal loop, by np.array_equal: only the sign of an exact zero
    may differ."""

    @staticmethod
    def structures(rng):
        """Trees without constraints, trees with pose constraints, an
        orthogonality constraint and an axis mask, and with small joints;
        then chains of 3 and 64 bodies, whose constrained system is banded."""
        yield random_tree(rng, 5)
        yield constrained_tree(rng, min_dof=6)
        yield constrained_tree(rng, n_bodies=12)
        yield build_serial_chain(3)
        yield build_serial_chain(64)

    @staticmethod
    def assert_equal_systems(k, expected):
        assert type(k.matrix) is type(expected.matrix)
        if isinstance(k.matrix, BandMatrix):
            assert k.matrix.width == expected.matrix.width
            assert np.array_equal(k.matrix.order, expected.matrix.order)
            assert np.array_equal(k.matrix.band, expected.matrix.band)
        else:
            assert np.array_equal(k.matrix, expected.matrix)
        assert np.array_equal(k.g_k, expected.g_k)
        assert np.array_equal(k.b_vec, expected.b_vec)

    @pytest.mark.parametrize("mode", list(SolverMode))
    def test_equals_the_product_path(self, mode):
        rng = np.random.default_rng(35)
        for s in self.structures(rng):
            for _ in range(2):
                n = len(s.bodies)
                # Unsymmetric Hessians, so that the symmetrization counts too.
                g, h = rng.standard_normal((n, 6)), rng.standard_normal((n, 6, 6))
                reg = Regularization(rng.uniform(0, 10), rng.uniform(0, 10))
                expected = assemble_by_products(s, g, h, mode, reg)
                self.assert_equal_systems(assemble(s, g, h, mode, reg), expected)
                s.update_poses(0.1 * rng.standard_normal(s.forest.n_dof), forest=True)

    @pytest.mark.parametrize("w", range(13))
    def test_band_product_equals_the_per_diagonal_loop(self, w):
        rng = np.random.default_rng(36 + w)
        for dim in (1, w, w + 1, 2 * w + 1, 3 * w + 7, 40):
            band = rng.standard_normal((3 * w + 1, dim))
            band[rng.random(band.shape) < 0.2] = 0.0
            y = rng.standard_normal(dim)
            expected = band_product_by_diagonals(band, w, y)
            assert np.array_equal(solver._band_product(np.asfortranarray(band), w, y), expected)

    def test_band_residual_of_the_chain_equals_the_per_diagonal_loop(self):
        rng = np.random.default_rng(37)
        s = build_serial_chain(64)
        g, h = stacked_energies(random_energies(rng, 64))
        k = assemble(s, g, h, SolverMode.CONSTRAINED, Regularization())
        a = k.matrix
        assert isinstance(a, BandMatrix) and a.width == 10
        rhs = -np.concatenate([k.g_k, k.b_vec])
        x, residual = solver._band_solve(a, rhs)
        expected = band_product_by_diagonals(a.band, a.width, x[a.order]) - rhs[a.order]
        assert np.array_equal(residual, expected)


class TestMultiRootTrees:
    """A structure of several trees steps in every mode, the tree view's
    entries of all trees coming from one product of the motion columns,
    and each step equals one through the product oracle
    (oracles.assemble_by_products) to the bit.  A per-tree layout as wide
    as the widest tree once failed with numpy's "cannot reshape" in the
    tree view whenever a later tree was narrower."""

    @staticmethod
    def assert_steps_as_the_oracle(s, rng, steps=3):
        for mode in SolverMode:
            kept = copy.deepcopy(s)
            for _ in range(steps):
                provider = per_body(
                    {i: quadratic_pose_target(random_pose(rng), 50.0, 80.0)
                     for i in range(len(s.bodies))}
                )
                twin = copy.deepcopy(kept)
                g, h = evaluate(provider, twin.poses())
                k = assemble_by_products(twin, g, h, mode, Regularization())
                theta, _ = solve_kkt(k)
                tree = mode in (SolverMode.PROJECTED, SolverMode.COMBINED)
                twin.update_poses(theta, forest=not tree)
                report = step(kept, provider, SolverConfig(mode=mode))
                assert report.theta_norm == float(np.sqrt(theta.dot(theta))) > 0, mode
                assert report.kkt_dim == k.g_k.shape[0] + k.b_vec.shape[0]
                for actual, expected in zip(stacks(kept).values(), stacks(twin).values()):
                    assert np.array_equal(actual.r, expected.r), mode
                    assert np.array_equal(actual.t, expected.t), mode

    def test_six_and_one_coordinates(self):
        s = KinematicStructure(
            [Body("a", Joint(np.ones(6, bool))), Body("b", Joint(axes_mask(["rot_z"])))]
        )
        self.assert_steps_as_the_oracle(s, np.random.default_rng(38))

    def test_random_trees_the_first_longer_than_the_last(self):
        """2-3 trees of 1-3 bodies, with a one-axis pose constraint between
        the first and the last body."""
        rng = np.random.default_rng(39)
        tested = 0
        while tested < 6:
            s = random_trees(rng, rng.integers(1, 4, rng.integers(2, 4)).tolist())
            view = s.tree
            coordinates = np.bincount(view.root[view.body], minlength=len(s.bodies))
            if coordinates[0] <= coordinates[view.root[-1]]:
                continue
            mask = np.eye(6, dtype=bool)[rng.integers(6)]
            last = len(s.bodies) - 1
            s = rebuilt(s, [Constraint(0, last, random_pose(rng), random_pose(rng), mask)])
            self.assert_steps_as_the_oracle(s, rng)
            tested += 1


class TestFailureDiagnosis:
    def test_more_rows_than_coordinates_fail_before_any_factorization(self, capfd):
        """69 joint coordinates and 315 constraint rows: K is singular for
        any values.  A dense solve returns |lam| near 1e37 with a tiny
        backward error, so the size alone must reject it, and nothing may
        write to the process's stderr on the way."""
        s = build_serial_chain(64)
        targets = [b.pose for b in s.bodies]
        s.update_poses(0.05 * np.random.default_rng(0).standard_normal(s.n_dof))
        provider = per_body(
            {i: quadratic_pose_target(t, 100.0, 100.0) for i, t in enumerate(targets)}
        )
        capfd.readouterr()
        with pytest.raises(FactorizationFailed) as info:
            step(s, provider, SolverConfig(mode=SolverMode.COMBINED))
        message = str(info.value)
        assert message.startswith(
            "more constraint rows than coordinates; "
            "KKT system of 69 coordinates and 315 constraint rows"
        )
        named = ", ".join(
            f"{i} (bodies {i} 'body{i}', {i + 1} 'body{i + 1}')" for i in range(63)
        )
        assert message.endswith(f"numerically dependent rows in constraints {named}")
        assert capfd.readouterr().err == ""

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


    @pytest.mark.parametrize("mode", [SolverMode.CONSTRAINED, SolverMode.COMBINED])
    def test_non_finite_pose_names_its_constraints(self, mode):
        s = rebuilt(build_serial_chain(4), pose={2: Pose(np.eye(3), np.array([np.nan, 0.0, 0.0]))})
        with pytest.raises(FactorizationFailed) as info:
            step(s, zero_energy, SolverConfig(mode=mode))
        assert str(info.value).endswith(
            "not finite; non-finite rows in constraints "
            "1 (bodies 1 'body1', 2 'body2'), 2 (bodies 2 'body2', 3 'body3')"
        )


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["lambda_r", "lambda_t"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_regularization_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ValueError, match=field):
            Regularization(**{field: value})

    @pytest.mark.parametrize("field", ["lambda_r", "lambda_t"])
    @pytest.mark.parametrize("value", [True, np.bool_(False), "1", None])
    def test_regularization_must_be_a_number(self, field, value):
        """``Regularization(True, 1)`` stored ``lambda_r=True``, and
        ``Regularization("1", 1)`` raised numpy's unnamed ``isfinite``
        TypeError.  Fails if a bool or a non-number is taken, or if the
        error stops naming the field; numpy numbers stay valid."""
        with pytest.raises(TypeError, match=f"^{field} must be a number, got "):
            Regularization(**{field: value})
        assert Regularization(np.float32(2.0), np.int64(3)) == Regularization(2.0, 3.0)

    @pytest.mark.parametrize("iterations", [2.5, 2.0, True, "3"])
    def test_iterations_must_be_an_integer(self, iterations):
        with pytest.raises(TypeError, match="iterations"):
            SolverConfig(iterations=iterations)

    def test_integer_iterations(self):
        assert SolverConfig(iterations=np.int64(2)).iterations == 2
        with pytest.raises(ValueError, match="iterations"):
            SolverConfig(iterations=0)

    @pytest.mark.parametrize(
        "field, value",
        [("mode", None), ("mode", 2), ("regularization", None), ("regularization", (1.0, 1.0))],
    )
    def test_mode_and_regularization_types(self, field, value):
        """A mode that is not a SolverMode (or its value) ran as INDEPENDENT,
        and a missing regularization was dropped: both are refused at
        construction, and a config cannot be changed afterwards, also in a
        copy."""
        assert SolverConfig(mode="combined").mode is SolverMode.COMBINED
        with pytest.raises(TypeError, match=f"^{field} must be a "):
            SolverConfig(**{field: value})
        cfg = copy.deepcopy(SolverConfig())
        with pytest.raises(TypeError, match=f"^{field} must be a "):
            dataclasses.replace(cfg, **{field: value})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.regularization.lambda_r = 0.0
        assert step(build_serial_chain(3), zero_energy, cfg).kkt_dim == 8


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
        pose_b = Pose(exp_rotvec(2.1 * axis), 0.6 * rng.standard_normal(3))
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
            targets.append(pose_with_variation(body.pose, offset))
        provider = per_body({i: quadratic_pose_target(target) for i, target in enumerate(targets)})

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
        g, h = stacked_energies(energies)
        k_proj = assemble(copy.deepcopy(s), g, h, SolverMode.PROJECTED, Regularization())
        k_comb = assemble(copy.deepcopy(s), g, h, SolverMode.COMBINED, Regularization())
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
                g, h = stacked_energies([e])
                k = assemble(s, g, h, SolverMode.PROJECTED, Regularization(scale, 10 * scale))
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
                targets.append(targets[-1] @ link @ Pose(exp_rotvec([0.0, 0.0, q]), np.zeros(3)))
            providers = {
                i: quadratic_pose_target(target, 100.0, 100.0)
                for i, target in enumerate(targets)
            }
            step(s, per_body(providers), cfg)
            worst = max(np.max(np.abs(b.pose.r.T @ b.pose.r - np.eye(3))) for b in s.bodies)
            assert worst <= 1e-9, f"frame {frame}: orthonormality error {worst:.1e}"

    def test_step_gathers_no_pose_stack(self, monkeypatch):
        """The structure owns its body and joint pose stacks: a step in any
        mode reads them and gathers no Pose objects into a stack."""
        s = constrained_tree(np.random.default_rng(17), min_dof=6)
        calls = []
        original = se3.Pose.stack

        def spy(poses, *name):
            calls.append(1)
            return original(poses, *name)

        monkeypatch.setattr(se3.Pose, "stack", staticmethod(spy))
        for mode in SolverMode:
            step(s, zero_energy, SolverConfig(mode=mode))
        assert calls == []


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

    @pytest.mark.parametrize("mode", list(SolverMode))
    def test_timings_of_every_layer_within_the_wall_time(self, mode):
        rng = np.random.default_rng(16)
        s = constrained_tree(rng, min_dof=6)
        provider = fixed_energies(random_energies(rng, len(s.bodies)))
        start = time.perf_counter()
        report = step(s, provider, SolverConfig(mode=mode))
        wall = time.perf_counter() - start
        assert list(report.timings) == list(STEP_LAYERS)
        assert all(t >= 0.0 for t in report.timings.values())
        assert sum(report.timings.values()) <= wall


class TestBackwardError:
    @pytest.mark.parametrize(
        "n_bodies, mode",
        [(3, SolverMode.PROJECTED), (3, SolverMode.CONSTRAINED), (64, SolverMode.CONSTRAINED)],
    )
    def test_well_posed_step_reports_rounding_level(self, n_bodies, mode):
        s = build_serial_chain(n_bodies)
        rng = np.random.default_rng(n_bodies)
        report = step(s, fixed_energies(random_energies(rng, n_bodies)), SolverConfig(mode=mode))
        assert 0.0 <= report.backward_error < 1e-14

    def test_matches_the_residual_of_the_returned_solution(self):
        rng = np.random.default_rng(18)
        for band in (False, True):
            s = build_serial_chain(64 if band else 3)
            energies = random_energies(rng, len(s.bodies))
            k = assemble(s, *stacked_energies(energies), SolverMode.CONSTRAINED, Regularization())
            assert isinstance(k.matrix, BandMatrix) == band
            theta, lam = solve_kkt(k)
            kkt = dense_matrix(k)
            x = np.concatenate([theta, lam])
            rhs = -np.concatenate([k.g_k, k.b_vec])
            expected = np.linalg.norm(kkt @ x - rhs) / (
                np.linalg.norm(kkt) * np.linalg.norm(x) + np.linalg.norm(rhs)
            )
            assert k.backward_error == pytest.approx(expected, rel=0.5, abs=1e-17)

    def test_one_per_system_of_a_stack(self):
        rng = np.random.default_rng(19)
        blocks = [
            (random_spd(rng, 4), rng.standard_normal(4), rng.standard_normal((2, 4)),
             rng.standard_normal(2))
            for _ in range(5)
        ]
        k = KktSystem.from_blocks(*map(np.array, zip(*blocks)))
        solve_kkt(k)
        assert k.backward_error.shape == (5,)
        assert np.all(k.backward_error < 1e-14)


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


class TestStoredConstraintRows:
    """The structure keeps its constraints evaluated at its body poses, so
    that each pose is evaluated at most once: a step starts from the rows
    the previous one left.  A step without constraint rows evaluates none;
    its residuals are evaluated when read.  Calls are counted, not timed."""

    @staticmethod
    def spy(monkeypatch):
        """The `blocks` argument of every evaluate_constraints call, from any
        module that looks the function up."""
        calls = []
        original = constraints.evaluate_constraints

        def spy(stack, poses, blocks=True):
            calls.append(blocks)
            return original(stack, poses, blocks)

        for module in (constraints, kinematics, solver):
            if hasattr(module, "evaluate_constraints"):
                monkeypatch.setattr(module, "evaluate_constraints", spy)
        return calls

    @staticmethod
    def fresh_norms(s):
        return evaluate_constraints(s.constraint_stack, s.poses(), blocks=False).norms()

    @staticmethod
    def pulled(s, rng):
        """Pose targets a little away from every body's pose."""
        return per_body(
            {
                i: quadratic_pose_target(b.pose @ random_pose(rng, 0.05, 0.05), 100.0, 100.0)
                for i, b in enumerate(s.bodies)
            }
        )

    @pytest.mark.parametrize("mode", list(SolverMode))
    def test_run_evaluates_each_pose_once(self, mode, monkeypatch):
        """A constraint mode evaluates each pose it sees, with blocks, as it
        steps; the other modes evaluate none, and reading every residual of
        their reports then evaluates each pose once, without blocks."""
        rng = np.random.default_rng(30)
        s = constrained_tree(rng, min_dof=6)
        calls = self.spy(monkeypatch)
        with_rows = mode in (SolverMode.CONSTRAINED, SolverMode.COMBINED)
        provider = self.pulled(s, rng)
        reports = run(s, provider, SolverConfig(mode=mode, iterations=3))
        assert calls == ([True] * 4 if with_rows else [])
        for _ in range(2):
            norms = [(r.residuals_before, r.residuals_after) for r in reports]
            assert calls == [with_rows] * 4
        assert [after for _, after in norms[:-1]] == [before for before, _ in norms[1:]]
        # At unchanged poses a second run starts from the rows the first left.
        del calls[:]
        expected = self.fresh_norms(s)
        reports = run(s, provider, SolverConfig(mode=mode, iterations=2))
        assert reports[0].residuals_before == expected
        assert calls == ([True] * 2 if with_rows else [])

    def test_changes_force_a_new_evaluation(self, monkeypatch):
        rng = np.random.default_rng(31)
        s = constrained_tree(rng, min_dof=6)
        projected = SolverConfig(mode=SolverMode.PROJECTED)
        combined = SolverConfig(mode=SolverMode.COMBINED)
        step(s, self.pulled(s, rng), projected)
        calls = self.spy(monkeypatch)

        def move_poses():
            s.update_poses(0.1 * rng.standard_normal(s.n_dof))

        def rebuild_with_fewer_constraints():
            # A new structure evaluates its rows when first asked for them.
            nonlocal s
            s = rebuilt(s, constraints=s.constraints[:2])

        # The calls of the step, then those of reading both residuals.
        changes = [
            ("poses", move_poses, projected, [], [False, False]),
            ("rebuilt", rebuild_with_fewer_constraints, projected, [], [False, False]),
            # Rows without blocks do not serve a constraint mode.
            ("blocks", lambda: None, combined, [True, True], []),
            # Rows with blocks serve a mode without constraint rows.
            ("reuse", lambda: None, projected, [], [False]),
        ]
        for name, change, cfg, step_calls, read_calls in changes:
            change()
            expected = self.fresh_norms(s)
            del calls[:]
            report = step(s, self.pulled(s, rng), cfg)
            assert calls == step_calls, name
            del calls[:]
            assert report.residuals_before == expected, name
            assert report.residuals_after == self.fresh_norms(s), name
            assert calls == read_calls, name

    @pytest.mark.parametrize("mode", [SolverMode.INDEPENDENT, SolverMode.PROJECTED])
    def test_residuals_read_later_are_those_of_the_steps_poses(self, mode):
        """A report read after later steps still gives the residuals at the
        poses its own step started from and left."""
        rng = np.random.default_rng(34)
        s = constrained_tree(rng, min_dof=6)
        provider = self.pulled(s, rng)
        expected, reports = [self.fresh_norms(s)], []
        for _ in range(3):
            reports.append(step(s, provider, SolverConfig(mode=mode)))
            expected.append(self.fresh_norms(s))
        assert max(expected[1]) > 0.0 and expected[1] != expected[2]
        assert [r.residuals_after for r in reports] == expected[1:]
        assert [r.residuals_before for r in reports] == expected[:-1]

    def test_deep_copy_steps_independently(self):
        rng = np.random.default_rng(32)
        s = constrained_tree(rng, min_dof=6)
        cfg = SolverConfig(mode=SolverMode.COMBINED)
        provider = self.pulled(s, rng)
        step(s, provider, cfg)
        twin = copy.deepcopy(s)
        expected = self.fresh_norms(s)
        twin_reports = run(twin, provider, SolverConfig(mode=cfg.mode, iterations=2))
        report = step(s, provider, cfg)
        assert report.residuals_before == expected == twin_reports[0].residuals_before
        assert report.residuals_after == twin_reports[0].residuals_after
        assert np.array_equal(
            np.concatenate(report.multipliers), np.concatenate(twin_reports[0].multipliers)
        )
        assert twin_reports[1].residuals_before == twin_reports[0].residuals_after

    @pytest.mark.parametrize("mode", list(SolverMode))
    def test_bit_identical_to_steps_from_fresh_rows(self, mode):
        """Poses, multipliers, residuals and backward errors of steps that
        reuse the stored rows against steps on a structure rebuilt at the
        same state, which has none."""
        rng = np.random.default_rng(33)
        s = random_tree(rng, 6, min_dof=6)
        s = rebuilt(s, constraints=[
            Constraint(0, 3, random_pose(rng), random_pose(rng),
                       np.array([True, False, True, False, True, True])),
            OrthogonalityConstraint(1, 4, random_pose(rng), random_pose(rng)),
        ])
        fresh = copy.deepcopy(s)
        cfg = SolverConfig(mode=mode)
        for _ in range(5):
            provider = self.pulled(s, rng)
            fresh = rebuilt(fresh)
            expected = step(fresh, provider, cfg)
            report = step(s, provider, cfg)
            for name in ("theta_norm", "residuals_before", "residuals_after", "kkt_dim",
                         "backward_error"):
                assert getattr(report, name) == getattr(expected, name), name
            assert len(report.multipliers) == len(expected.multipliers)
            for lam, lam_expected in zip(report.multipliers, expected.multipliers):
                assert np.array_equal(lam, lam_expected)
            for name in ("r", "t"):
                assert np.array_equal(getattr(s.poses(), name), getattr(fresh.poses(), name))
