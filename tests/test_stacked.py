"""The stacked constraint kernel and tree layer against the per-object oracles
they replaced (one constraint, one body, one Pose at a time)."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from builders import random_pose, random_tree, rebuilt
from multibody import se3
from multibody.constraints import (
    Constraint,
    ConstraintStack,
    OrthogonalityConstraint,
    evaluate_constraints,
)
from multibody.energy import BodyEnergy, per_body, quadratic_pose_target
from multibody.experiments import build_serial_chain
from multibody.kinematics import KinematicStructure
from multibody.se3 import Pose
from multibody.solver import (
    BandMatrix,
    Regularization,
    SolverConfig,
    SolverMode,
    assemble,
    solve_kkt,
    step,
)
from oracles import (
    constraint_residual,
    constraint_variation_blocks,
    n_rows,
    random_rotvec,
    scalar_kkt,
    scalar_step,
    solve_dense_kkt,
    stacked_energies,
)

# Relative rotation angles at the branch points of log_rotation and the
# variation matrix; None draws a random relative pose.
ANGLES = [
    None,
    0.0,
    1e-4 * (1 - 1e-9),
    1e-4 * (1 + 1e-9),
    np.pi / 2 - 1e-9,
    np.pi / 2 + 1e-9,
    np.pi - 1e-4 - 1e-9,
    np.pi - 1e-4 + 1e-9,
    np.pi,
]


def constraint_at(rng, s, kind, angle, bodies=None):
    """A constraint between two bodies of s, random unless given, whose
    relative rotation has the given angle (random when None)."""
    a, b = bodies or (int(i) for i in rng.choice(len(s.bodies), size=2, replace=False))
    frame_a = random_pose(rng)
    frame_b = random_pose(rng)
    if angle is not None:
        axis = random_rotvec(rng)
        wanted = Pose.from_rotvec(angle * axis / np.linalg.norm(axis), rng.uniform(-1, 1, 3))
        # frame_a o pose_a^-1 o pose_b o frame_b^-1 == wanted
        frame_b = wanted.inverse() @ frame_a @ s.bodies[a].pose.inverse() @ s.bodies[b].pose
    if kind is OrthogonalityConstraint:
        return OrthogonalityConstraint(a, b, frame_a, frame_b)
    mask = np.zeros(6, dtype=bool)
    while not mask.any():
        mask = rng.random(6) < 0.6
    return Constraint(a, b, frame_a, frame_b, mask)


def relative_error(actual, expected):
    return np.linalg.norm(actual - expected) / max(np.linalg.norm(expected), 1e-300)


class TestKernelMatchesPerConstraintOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_constraints_on_random_trees(self, seed):
        rng = np.random.default_rng(seed)
        s = random_tree(rng, 6)
        constraints = [
            constraint_at(rng, s, kind, angle)
            for angle in ANGLES
            for kind in (Constraint, OrthogonalityConstraint)
        ]
        order = rng.permutation(len(constraints))
        s = rebuilt(s, constraints=[constraints[k] for k in order])
        rows = evaluate_constraints(s.constraint_stack, s.poses())
        blocks = [constraint_variation_blocks(c, s) for c in s.constraints]
        residual = np.concatenate([constraint_residual(c, s) for c in s.constraints])
        assert np.array_equal(rows.residual, residual)
        assert np.array_equal(rows.d_a, np.vstack([da for da, _ in blocks]))
        assert np.array_equal(rows.d_b, np.vstack([db for _, db in blocks]))
        assert rows.stack.counts.tolist() == [n_rows(c) for c in s.constraints]
        assert rows.norms() == [float(np.linalg.norm(constraint_residual(c, s))) for c in s.constraints]
        # Without blocks, the same residuals.
        without = evaluate_constraints(s.constraint_stack, s.poses(), blocks=False)
        assert np.array_equal(without.residual, residual)

    def test_no_constraints(self):
        s = random_tree(np.random.default_rng(7), 3)
        rows = evaluate_constraints(ConstraintStack([]), s.poses())
        assert rows.residual.shape == (0,) and rows.d_a.shape == (0, 6)
        assert rows.norms() == []


class TestSolutionMatchesScalarOracle:
    """theta and lambda of the stacked assembly against the per-body,
    per-constraint assembly of the same system, both solved densely."""

    @pytest.mark.parametrize("mode", list(SolverMode))
    def test_random_trees(self, mode):
        worst = 0.0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            # Joint-coordinate constraint rows are rank deficient unless
            # every joint has 6 DoF.
            s = random_tree(rng, 5, min_dof=6 if mode is SolverMode.COMBINED else 1)
            if seed % 2:
                # Cut at body 2: two trees whose bodies interleave.
                s = KinematicStructure(
                    [replace(b, parent=None) if i == 2 else b for i, b in enumerate(s.bodies)]
                )
            # Distinct body pairs, so that the rows are independent.
            s = rebuilt(s, constraints=[
                constraint_at(rng, s, Constraint, None, (0, 3)),
                constraint_at(rng, s, OrthogonalityConstraint, None, (1, 4)),
                constraint_at(rng, s, Constraint, None, (4, 2)),
            ])
            energies = [
                BodyEnergy(rng.standard_normal(6), a @ a.T + 0.5 * np.eye(6))
                for a in rng.standard_normal((len(s.bodies), 6, 6))
            ]
            reg = Regularization()
            k = assemble(s, *stacked_energies(energies), mode, reg)
            kkt = k.matrix.toarray() if isinstance(k.matrix, BandMatrix) else k.matrix
            n = k.g_k.shape[0]
            theta, lam = solve_dense_kkt(kkt[:n, :n], k.g_k, kkt[n:, :n], k.b_vec)
            theta_ref, lam_ref = solve_dense_kkt(*scalar_kkt(s, energies, mode, reg))
            worst = max(worst, relative_error(theta, theta_ref))
            if lam_ref.size:
                worst = max(worst, relative_error(lam, lam_ref))
            # The library's own factorization agrees as well.
            theta_lib, _ = solve_kkt(k)
            assert relative_error(theta_lib, theta_ref) < 1e-10
        assert worst < 1e-12, worst


class TestStepMatchesScalarOracle:
    def test_constrained_chain_20_steps(self):
        """The 64-body constrained chain pulled toward moving pose targets:
        poses after 20 steps against scalar_step (dense selection-Jacobian
        KKT, one body at a time).  The two paths factor differently (banded
        LU vs dense), so they agree to rounding, not bit for bit."""
        n_bodies = 64
        s = build_serial_chain(n_bodies)
        oracle = copy.deepcopy(s)
        rng = np.random.default_rng(19)
        amplitude = rng.uniform(0.02, 0.1, n_bodies - 1)
        phase = rng.uniform(0.0, 2.0 * np.pi, n_bodies - 1)
        link = Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        cfg = SolverConfig(mode=SolverMode.CONSTRAINED)
        worst = 0.0
        for frame in range(1, 21):
            w = 2.0 * np.pi * frame / 240
            targets = [Pose.from_rotvec(0.1 * np.sin(w) * np.ones(3), 0.1 * np.sin(w) * np.ones(3))]
            for q in amplitude * (np.sin(w + phase) - np.sin(phase)):
                targets.append(targets[-1] @ link @ Pose.from_rotvec([0.0, 0.0, q]))
            provider = per_body(
                {i: quadratic_pose_target(t, 100.0, 100.0) for i, t in enumerate(targets)}
            )
            step(s, provider, cfg)
            oracle = scalar_step(oracle, provider, cfg.mode)[0]
            for body, ref in zip(s.bodies, oracle.bodies):
                worst = max(
                    worst,
                    np.max(np.abs(body.pose.r - ref.pose.r)),
                    np.max(np.abs(body.pose.t - ref.pose.t)),
                )
        print(f"64-body constrained chain, 20 steps: max |pose diff| {worst:.1e}")
        assert worst < 1e-12


class TestOnePoseStackPerStep:
    """A step reads the one body pose stack and the joint stacks its
    structure owns, and the constraint frames from the stack built with the
    structure: the claimed speed of a step rests on it.
    Calls are counted, not timed, so the result does not depend on machine
    load."""

    def test_step_stacks_only_the_targets_of_per_body(self, monkeypatch):
        rng = np.random.default_rng(21)
        s = random_tree(rng, 6, min_dof=6)
        s = rebuilt(s, constraints=[
            constraint_at(rng, s, Constraint, None, (0, 3)),
            constraint_at(rng, s, OrthogonalityConstraint, None, (1, 4)),
        ])
        stacked = []
        original = se3.Pose.stack

        def spy(poses, *name):
            poses = list(poses)
            stacked.append(poses)
            return original(poses, *name)

        monkeypatch.setattr(se3.Pose, "stack", staticmethod(spy))
        nudge = Pose.from_rotvec([0.02, -0.01, 0.03], [0.01, 0.0, -0.02])
        for mode in SolverMode:
            providers = {
                i: quadratic_pose_target(b.pose @ nudge, 100.0) for i, b in enumerate(s.bodies)
            }
            targets = {id(p.target) for p in providers.values()}
            del stacked[:]
            before = [b.pose for b in s.bodies]
            step(s, per_body(providers), SolverConfig(mode=mode))
            assert any(not np.array_equal(b.pose.t, p.t) for b, p in zip(s.bodies, before))
            # per_body stacks its targets once; the step stacks nothing.
            assert len(stacked) == 1, (mode, [len(poses) for poses in stacked])
            assert all(id(p) in targets for p in stacked[0])
