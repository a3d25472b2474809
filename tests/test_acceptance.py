"""Acceptance suite: one test per criterion, one pass/fail line each.

Each test prints a single "CRITERION n: PASS/FAIL" line (visible with -v
through the test outcome as well) and then asserts at the stated tolerance.
Criterion 1 is asserted exactly as stated; see the repository notes if it
does not hold on your build.
"""

import copy
import time

import numpy as np
import pytest

from builders import random_pose, random_tree
from multibody.constraints import Constraint
from multibody.energy import BodyEnergy
from multibody.experiments import (
    build_serial_chain,
    run_convergence_study,
    run_scaling_study,
    run_synthetic_tracking,
)
from multibody.kinematics import Body, Joint, KinematicStructure
from multibody.metrics import Mesh, add_error, add_s_error, auc_score
from multibody.se3 import adjoint, exp_rotvec, variation_matrix
from multibody.solver import (
    Regularization,
    SolverMode,
    assemble,
    solve_kkt,
)
from oracles import (
    body_jacobians,
    brute_force_add,
    brute_force_add_s,
    kkt_dimension,
    numeric_jacobian,
    pose_matrix,
    random_rotvec,
    relative_variation,
    stacked_energies,
)
from test_constraints import (
    constraint_jacobian,
    fd_constraint_jacobian,
    random_violated_structure,
    variation_blocks,
)

DEMO_CONFIG = __file__.rsplit("/", 2)[0] + "/demos/fourbar.json"


def report(n, ok, detail=""):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)


def test_criterion_1_one_iteration_convergence_exact_case():
    """Constraint frames = model frames, random SPD Hessians and gradients:
    residuals <= 1e-8 after one iteration, in 100% of 1000 trials, < 5 s."""
    start = time.perf_counter()
    rot = run_convergence_study(
        1000, 1, "rotvec", seed=11, equal_frames=True, random_energy=True
    )
    trans = run_convergence_study(
        1000, 1, "trans", seed=11, equal_frames=True, random_energy=True
    )
    elapsed = time.perf_counter() - start
    worst_rot = float(np.max(rot.rot_errors[:, 1]))
    worst_trans = float(np.max(trans.trans_errors[:, 1]))
    ok = worst_rot <= 1e-8 and worst_trans <= 1e-8 and elapsed < 5.0
    report(
        1,
        ok,
        f"worst rot {worst_rot:.2e}, worst trans {worst_trans:.2e}, {elapsed:.1f}s",
    )
    assert elapsed < 5.0
    assert worst_trans <= 1e-8
    assert worst_rot <= 1e-8


def test_criterion_2_one_iteration_convergence_general_case():
    """Random constraint frames, 99th percentile at iteration 1 <= 1e-8 over
    10,000 trials, < 30 s."""
    start = time.perf_counter()
    rot = run_convergence_study(10_000, 1, "rotvec", seed=12)
    trans = run_convergence_study(10_000, 1, "trans", seed=12)
    elapsed = time.perf_counter() - start
    rot_p99 = float(np.percentile(rot.rot_errors[:, 1], 99))
    trans_p99 = float(np.percentile(trans.trans_errors[:, 1], 99))
    ok = rot_p99 <= 1e-8 and trans_p99 <= 1e-8 and elapsed < 30.0
    report(2, ok, f"rot p99 {rot_p99:.2e}, trans p99 {trans_p99:.2e}, {elapsed:.1f}s")
    assert elapsed < 30.0
    assert rot_p99 <= 1e-8
    assert trans_p99 <= 1e-8


def test_criterion_3_orthogonality_baseline():
    """Median error > 1e-6 after one iteration; some trials end within 1e-3
    of rotational error pi or 2*pi/3 at iteration 4."""
    study = run_convergence_study(10_000, 4, "ortho", seed=13)
    median_after_one = float(np.median(study.rot_errors[:, 1]))
    final = study.rot_errors[:, 4]
    spurious = int(
        np.sum((np.abs(final - np.pi) < 1e-3) | (np.abs(final - 2 * np.pi / 3) < 1e-3))
    )
    ok = median_after_one > 1e-6 and spurious > 0
    report(3, ok, f"median after 1 it {median_after_one:.2e}, spurious {spurious}")
    assert median_after_one > 1e-6
    assert spurious > 0


def test_criterion_4_variation_matrix_identities():
    """R = C^T C^-1 = C^-1 C^T, R C = C^T = C R, C r = r, C^T r = r,
    C C^T = C^T C, each within 1e-8 over 1000 random rotations."""
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(1000):
        v = random_rotvec(rng)
        r = exp_rotvec(v)
        c = variation_matrix(v)
        c_inv = np.linalg.inv(c)
        worst = max(
            worst,
            np.max(np.abs(c.T @ c_inv - r)),
            np.max(np.abs(c_inv @ c.T - r)),
            np.max(np.abs(r @ c - c.T)),
            np.max(np.abs(c @ r - c.T)),
            np.max(np.abs(c @ v - v)),
            np.max(np.abs(c.T @ v - v)),
            np.max(np.abs(c @ c.T - c.T @ c)),
        )
    ok = worst <= 1e-8
    report(4, ok, f"worst deviation {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_5_adjoint_equivalence():
    """At zero residual the derivative blocks are -Ad(frame_a), +Ad(frame_b)
    within 1e-9 over 100 random frame placements."""
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(100):
        pose_a = random_pose(rng)
        frame_a = random_pose(rng)
        frame_b = random_pose(rng)
        pose_b = pose_a @ frame_a.inverse() @ frame_b
        s = KinematicStructure(
            [
                Body("a", Joint(free_axes=np.ones(6, dtype=bool)), pose=pose_a),
                Body("b", Joint(free_axes=np.ones(6, dtype=bool)), pose=pose_b),
            ]
        )
        da, db = variation_blocks(Constraint(0, 1, frame_a, frame_b), s)
        worst = max(
            worst,
            np.max(np.abs(da + adjoint(frame_a))),
            np.max(np.abs(db - adjoint(frame_b))),
        )
    ok = worst <= 1e-9
    report(5, ok, f"worst deviation {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_6_jacobian_exactness():
    """Body and constraint Jacobians match central finite differences within
    1e-5 over 100 random structures of 2-6 bodies."""
    rng = np.random.default_rng(16)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 7))
        s, c = random_violated_structure(rng, n)
        jacobians = body_jacobians(s)
        # Body Jacobians.
        eps = 1e-6
        for i in range(len(s.bodies)):
            for k in range(s.n_dof):
                theta = np.zeros(s.n_dof)
                theta[k] = eps
                plus = copy.deepcopy(s)
                plus.update_poses(theta)
                minus = copy.deepcopy(s)
                minus.update_poses(-theta)
                col = (
                    relative_variation(s.bodies[i].pose, plus.bodies[i].pose)
                    - relative_variation(s.bodies[i].pose, minus.bodies[i].pose)
                ) / (2 * eps)
                worst = max(worst, np.max(np.abs(col - jacobians[i][:, k])))
        # Constraint Jacobians.
        worst = max(worst, np.max(np.abs(constraint_jacobian(c, s) - fd_constraint_jacobian(c, s))))
    ok = worst <= 1e-5
    report(6, ok, f"worst deviation {worst:.2e}")
    assert worst <= 1e-5


def test_criterion_7_scaling_study():
    """KKT dimensions 6+(n-1) vs 11n-5 exact for n = 1..50; constrained
    slower than projected for every n >= 10 (ordering only)."""
    samples = run_scaling_study(50, repetitions=5)
    by_mode = {}
    dims_ok = True
    for sample in samples:
        assert sample.kkt_dim == kkt_dimension(sample.mode, sample.n_bodies)
        # Cross-check against the actually assembled system size.
        s = build_serial_chain(sample.n_bodies)
        energies = [BodyEnergy.zero() for _ in s.bodies]
        k = assemble(s, *stacked_energies(energies), sample.mode, Regularization())
        assembled_dim = k.g_k.shape[0] + k.b_vec.shape[0]
        dims_ok &= assembled_dim == sample.kkt_dim
        by_mode[(sample.mode, sample.n_bodies)] = sample.seconds_per_iter
    ordering_ok = all(
        by_mode[(SolverMode.CONSTRAINED, n)] > by_mode[(SolverMode.PROJECTED, n)]
        for n in range(10, 51)
    )
    ok = dims_ok and ordering_ok
    # The margin of the ordering: its smallest constrained/projected ratio.
    ratios = {
        n: by_mode[(SolverMode.CONSTRAINED, n)] / by_mode[(SolverMode.PROJECTED, n)]
        for n in range(10, 51)
    }
    tightest = min(ratios, key=ratios.get)
    report(7, ok, f"dimensions {'exact' if dims_ok else 'WRONG'}, "
                  f"ordering {'holds' if ordering_ok else 'violated'} for n>=10, "
                  f"min constrained/projected {ratios[tightest]:.2f} at n = {tightest}")
    assert dims_ok
    assert ordering_ok


def test_criterion_8_mode_equivalence():
    """Projected and Combined identical on a constraint-free tree; on the
    closed 4-bar linkage Combined keeps residuals <= 1e-6 per step and its
    mean ADD does not exceed Projected's over 100 steps."""
    rng = np.random.default_rng(18)
    identical = True
    for _ in range(10):
        s = random_tree(rng, 4)
        energies = []
        for _ in s.bodies:
            a = rng.standard_normal((6, 6))
            energies.append(BodyEnergy(rng.standard_normal(6), a @ a.T + np.eye(6)))
        g, h = stacked_energies(energies)
        k1 = assemble(copy.deepcopy(s), g, h, SolverMode.PROJECTED, Regularization())
        k2 = assemble(copy.deepcopy(s), g, h, SolverMode.COMBINED, Regularization())
        t1, _ = solve_kkt(k1)
        t2, _ = solve_kkt(k2)
        identical &= bool(np.array_equal(t1, t2))

    combined = run_synthetic_tracking(DEMO_CONFIG, "combined", steps=100, seed=18)
    projected = run_synthetic_tracking(DEMO_CONFIG, "projected", steps=100, seed=18)
    max_residual = max(max(r) for r in combined.residuals)
    residual_ok = max_residual <= 1e-6
    add_ok = combined.mean_add() <= projected.mean_add()
    ok = identical and residual_ok and add_ok
    report(
        8,
        ok,
        f"identical theta {identical}, combined residual {max_residual:.2e}, "
        f"mean ADD {combined.mean_add():.4f} vs {projected.mean_add():.4f}",
    )
    assert identical
    assert residual_ok
    assert add_ok


def test_criterion_9_metrics_against_oracles():
    """ADD/ADD-S equal the brute-force oracles (up to summation round-off,
    1e-15) on 100 random 10-vertex meshes; AUC edge values exact."""
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(100):
        mesh = Mesh(rng.uniform(-1, 1, (10, 3)))
        rel = random_pose(rng)
        worst = max(
            worst,
            abs(add_error(mesh, rel) - brute_force_add(mesh.vertices, pose_matrix(rel))),
            abs(add_s_error(mesh, rel) - brute_force_add_s(mesh.vertices, pose_matrix(rel))),
        )
    edges_ok = (
        auc_score(np.zeros((3, 4)), 0.05) == 1.0
        and auc_score(np.full((2, 6), 1.0), 0.05) == 0.0
    )
    ok = worst <= 1e-15 and edges_ok
    report(9, ok, f"worst metric deviation {worst:.2e}, edge values {'ok' if edges_ok else 'WRONG'}")
    assert worst <= 1e-15
    assert edges_ok
