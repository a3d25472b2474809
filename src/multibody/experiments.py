"""Desk-scale studies: constraint convergence, runtime scaling, tracking.

A study that draws seeds one numpy Generator with its seed.  The convergence
study draws one block of uniforms, a row per trial, so its results for a
seed are bit-identical however many trials are drawn.
"""

from __future__ import annotations

import copy
import csv
import gc
import time
from dataclasses import dataclass, field

import numpy as np

from .config import TrackingConfig, load_config
from .constraints import (
    Constraint,
    orthogonality_blocks,
    orthogonality_residual,
    relative_poses,
    rotation_blocks,
    translation_blocks,
)
from .energy import per_body, quadratic_pose_target, zero_energy
from .kinematics import Body, Joint, KinematicStructure, axes_mask
from .metrics import add_error, add_s_error, auc_score
from .se3 import Pose, exp_rotvec, log_rotation, row_norms
from .solver import (
    FactorizationFailed,
    KktSystem,
    Regularization,
    SolverConfig,
    SolverMode,
    run,
    solve_kkt,
    step,
)

PERCENTILE_LEVELS = (1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 99)

CONVERGENCE_KINDS = ("rotvec", "trans", "full", "ortho")


def random_spd(normals: np.ndarray) -> np.ndarray:
    """100 (a a^T / 6 + 0.1 I) for each of a stack of standard normal 6 x 6 a."""
    return 100.0 * (normals @ normals.swapaxes(-1, -2) / 6 + 0.1 * np.eye(6))


@dataclass
class ConvergenceRow:
    kind: str
    iteration: int
    percentile: int
    rot_err: float
    trans_err: float


@dataclass
class ConvergenceStudy:
    kind: str
    n_trials: int
    n_iterations: int
    rot_errors: np.ndarray  # (n_trials, n_iterations + 1)
    trans_errors: np.ndarray

    def percentile_rows(self) -> list[ConvergenceRow]:
        rows = []
        for it in range(self.n_iterations + 1):
            rot = np.percentile(self.rot_errors[:, it], PERCENTILE_LEVELS)
            trans = np.percentile(self.trans_errors[:, it], PERCENTILE_LEVELS)
            for level, r, t in zip(PERCENTILE_LEVELS, rot, trans):
                rows.append(ConvergenceRow(self.kind, it, int(level), float(r), float(t)))
        return rows


# Free axes of both bodies per kind, a run of the six [rot | trans] axes,
# which are also the rows the pose constraint pins (the three orthogonality
# rows for ``ortho``).  Restricting each body to the DoF the study exercises
# keeps a free rotational DoF from being recruited (nonlinearly) to satisfy
# translation rows, which would destroy the single-iteration behavior of the
# pure cases.
_STUDY_AXES = {
    "rotvec": slice(0, 3),
    "trans": slice(3, 6),
    "full": slice(0, 6),
    "ortho": slice(0, 3),
}


TRIAL_UNIFORMS = 24 + 84  # per trial: the poses' vectors, the energies' normals


def sample_trials(kind, n_trials, seed, equal_frames=False, random_energy=False):
    """Inputs of the convergence study's trials, stacked.

    One Generator seeded with ``seed`` draws an (n_trials, TRIAL_UNIFORMS)
    block of uniforms on [0, 1) row by row, and trial t is built from row t
    alone, so a trial's inputs do not depend on how many trials are drawn.
    Whatever the kind and flags, a row holds frame_a, frame_b, the initial
    relative constraint pose ``diff`` and pose_a, each as its rotation
    vector and then its translation, each vector as three uniforms: its
    signed length, uniform on [-pi, pi] rad or [-1, 1] m (the magnitude
    uniform on [0, pi] or [0, 1]), and its direction, uniform on the sphere
    (z = 1 - 2u, phi = 2 pi u').  A vector the kind does not use, and both
    frames with ``equal_frames``, have length zero.  The rest of the row is
    42 Box-Muller pairs (r = sqrt(-2 log(1 - u)), angle 2 pi u'), 84
    standard normals: with ``random_energy`` each body's gradient, then
    each body's random_spd Hessian; otherwise both are zero.

    Returns frame_a, frame_b, pose_a, pose_b as stacked Poses, the
    gradients (N, 2, 6) and the Hessians (N, 2, 6, 6).
    """
    block = np.random.default_rng(seed).random((n_trials, TRIAL_UNIFORMS))
    u = block[:, :24].reshape(n_trials, 4, 2, 3)
    axes = _STUDY_AXES[kind]
    # [pose, rotation | translation], zero for a vector not drawn.
    drawn = [np.pi * (axes.start < 3), float(axes.stop > 3)]
    bounds = np.array([[0.0, 0.0] if equal_frames else drawn] * 2 + [drawn] * 2)
    z, phi = 1.0 - 2.0 * u[..., 1, None], 2.0 * np.pi * u[..., 2, None]
    sin_polar = np.sqrt(1.0 - z * z)
    directions = np.concatenate([sin_polar * np.cos(phi), sin_polar * np.sin(phi), z], axis=-1)
    vectors = (bounds * (2.0 * u[..., 0] - 1.0))[..., None] * directions
    rotations = exp_rotvec(vectors[:, :, 0])
    frame_a, frame_b, diff, pose_a = (Pose(rotations[:, i], vectors[:, i, 1]) for i in range(4))
    # pose_b such that the initial relative pose equals the sampled diff:
    # diff = frame_a o pose_a^-1 o pose_b o frame_b^-1.
    pose_b = pose_a @ frame_a.inverse() @ diff @ frame_b
    gradients, hessians = np.zeros((n_trials, 2, 6)), np.zeros((n_trials, 2, 6, 6))
    if random_energy:
        # Pair j, (u_24+2j, u_25+2j), gives normals 2j and 2j + 1.
        radius, angle = np.sqrt(-2.0 * np.log1p(-block[:, 24::2])), 2.0 * np.pi * block[:, 25::2]
        normals = np.stack([radius * np.cos(angle), radius * np.sin(angle)], -1).reshape(-1, 84)
        gradients = normals[:, :12].reshape(n_trials, 2, 6)
        hessians = random_spd(normals[:, 12:].reshape(n_trials, 2, 6, 6))
    return frame_a, frame_b, pose_a, pose_b, gradients, hessians


def run_convergence_study(
    n_trials: int,
    n_iterations: int,
    kind: str = "rotvec",
    seed: int = 0,
    random_energy: bool = False,
    equal_frames: bool = False,
) -> ConvergenceStudy:
    """Newton iterations on a two-body constraint from random initial errors.

    Each trial has two free bodies, restricted to the kind's axes, and one
    constraint between random frames on them: a pose constraint on those
    axes, or for ``ortho`` the orthogonality baseline.  With
    ``random_energy`` each body additionally gets a random positive definite
    Hessian and random gradient instead of the zero energy, which exercises
    the general problem, not only the solver's default Regularization().

    All trials advance together: each iteration assembles the reduced KKT
    system of every trial, as the combined-mode solver step does for one,
    and solves the stack at once.  The stack is built once, its H block
    fixed, and each iteration writes B, B^T and b; both bodies of every
    trial are one (n_trials, 2) pose stack, moved by one variation.  Raises
    FactorizationFailed naming the first trial whose system fails, and
    ValueError for an unknown kind, no trial, a negative number of
    iterations or a negative seed.
    """
    if kind not in CONVERGENCE_KINDS:
        raise ValueError(f"unknown convergence kind {kind!r}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if n_iterations < 0:
        raise ValueError(f"n_iterations must be >= 0, got {n_iterations}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    frame_a, frame_b, pose_a, pose_b, gradients, hessians = sample_trials(
        kind, n_trials, seed, equal_frames, random_energy
    )

    # Reduced coordinates: the free axes of body a, then those of body b;
    # a trial's k rows are its pose constraint's on the free axes, or the
    # three orthogonality rows, whose blocks have those rows only.
    axes = _STUDY_AXES[kind]
    k = axes.stop - axes.start
    n = 2 * k
    h_k = np.zeros((n_trials, n, n))
    h_k[:, :k, :k], h_k[:, k:, k:] = hessians[:, 0, axes, axes], hessians[:, 1, axes, axes]
    h_k.reshape(n_trials, -1)[:, :: n + 1] += np.tile(Regularization().per_axis[axes], 2)
    # The study's one KKT stack: H, symmetrized, is fixed, and each
    # iteration writes B, B^T and b.
    g_k = gradients[:, :, axes].reshape(n_trials, n)
    system = KktSystem.from_blocks(h_k, g_k, np.zeros((n_trials, k, n)), np.zeros((n_trials, k)))
    # B, and its columns of body a and of body b as one (2, n_trials, k, k)
    # view (splitting B's last axis copies nothing): a row half's blocks of
    # both bodies go in with one write.
    b_mat = system.matrix[:, n:, :n]
    sides = b_mat.reshape(n_trials, k, 2, k).transpose(2, 0, 1, 3)
    # Both bodies of each trial as one (n_trials, 2) stack: one variation
    # per iteration moves them all.
    poses = Pose(np.concatenate([pose_a.r[:, None], pose_b.r[:, None]], 1),
                 np.concatenate([pose_a.t[:, None], pose_b.t[:, None]], 1))
    # errors[0] holds each trial's rotational error per iteration, errors[1] its translational.
    variation, errors = np.zeros((n_trials, 2, 6)), np.zeros((2, n_trials, n_iterations + 1))
    inverse_a, inverse_b = frame_a.inverse(), frame_b.inverse()
    for it in range(n_iterations + 1):
        a_t_mb, a_t_b = relative_poses(frame_a, inverse_b, poses[:, 0], poses[:, 1])
        rotvec = log_rotation(a_t_b.r)
        extended = np.concatenate([rotvec, a_t_b.t], axis=-1)
        errors[:, :, it] = row_norms(extended.reshape(n_trials, 2, 3)).T
        if it == n_iterations:
            break
        # B's rows: the 3x6 blocks of each row half the kind selects, on
        # its free axes, the rotation half first.
        if kind == "ortho":
            system.b_vec = orthogonality_residual(a_t_b)
            sides[:, :, :3] = orthogonality_blocks(frame_a, a_t_mb, a_t_b)[..., axes]
        else:
            system.b_vec = extended[:, axes]
            if axes.start < 3:
                sides[:, :, :3] = rotation_blocks(frame_a, a_t_mb, rotvec)[..., axes]
            if axes.stop > 3:
                translation = translation_blocks(frame_a, inverse_a, inverse_b, a_t_mb, a_t_b)
                sides[:, :, k - 3 :] = translation[..., axes]
        system.matrix[:, :n, n:] = b_mat.swapaxes(-1, -2)
        try:
            theta, _ = solve_kkt(system)
        except FactorizationFailed as exc:
            raise FactorizationFailed(
                f"{kind} convergence trial {exc.system}: {exc}", exc.system
            ) from exc
        # poses o T(theta) per trial, theta scattered onto the free axes.
        variation[:, :, axes] = theta.reshape(n_trials, 2, k)
        poses = poses.with_variation(variation)
    return ConvergenceStudy(kind, n_trials, n_iterations, *errors)


def _write_csv(path, header, values):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(values)


def write_convergence_csv(study: ConvergenceStudy, path):
    rows = study.percentile_rows()
    values = ([r.kind, r.iteration, r.percentile, repr(r.rot_err), repr(r.trans_err)] for r in rows)
    _write_csv(path, ["kind", "iteration", "percentile", "rot_err", "trans_err"], values)


@dataclass
class ScalingSample:
    n_bodies: int
    mode: SolverMode
    seconds_per_iter: float
    kkt_dim: int


def build_serial_chain(n_bodies: int) -> KinematicStructure:
    """Root with a 6-DoF joint plus rotational links, each offset 0.1 along x.

    Constraints mirroring the joints (all axes but rot_z locked between
    consecutive bodies) are attached so that the same structure serves both
    the projected and the constrained configuration, with exact joints.
    """
    if n_bodies < 1:
        raise ValueError("need at least one body")
    bodies = [Body(name="body0", joint=Joint(free_axes=np.ones(6, dtype=bool)))]
    constraints = []
    offset = Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
    for i in range(1, n_bodies):
        bodies.append(
            Body(
                name=f"body{i}",
                joint=Joint(free_axes=axes_mask(["rot_z"])),
                # Consistent initial poses along the chain.
                pose=bodies[-1].pose @ offset,
                parent=i - 1,
            )
        )
        constraints.append(
            Constraint(
                body_a=i - 1,
                body_b=i,
                frame_a=offset.inverse(),
                frame_b=Pose.identity(),
                constrained_axes=axes_mask(
                    ["rot_x", "rot_y", "trans_x", "trans_y", "trans_z"]
                ),
            )
        )
    return KinematicStructure(bodies, constraints)


# Timing rounds of the scaling study: at least `repetitions`, then more, up to
# the cap, until each mode has this much sampled time.
SCALING_MIN_SAMPLED_S = 0.1
SCALING_MAX_ROUNDS = 50


def run_scaling_study(max_bodies: int, repetitions: int = 5) -> list[ScalingSample]:
    """Per-iteration wall-clock time of projected vs constrained solves on
    serial chains of growing length.

    After one warm-up step per mode, each round times one step of each mode
    back to back, with garbage collection paused.  The host's speed changes
    (up to 2x, from one step to the next) hit both steps of a round alike,
    so a mode's time is its median share of the round times the median
    round time.  A per-mode minimum or median instead compares steps taken
    at different speeds.  Raises ValueError for fewer than two bodies or
    one repetition.
    """
    if max_bodies < 2:
        raise ValueError("max_bodies must be >= 2")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    modes = (SolverMode.PROJECTED, SolverMode.CONSTRAINED)
    samples = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for n in range(1, max_bodies + 1):
            chains = {mode: build_serial_chain(n) for mode in modes}
            cfgs = {mode: SolverConfig(mode=mode) for mode in modes}
            # Warm-up step; it reports the KKT size.
            kkt_dims = {mode: step(chains[mode], zero_energy, cfgs[mode]).kkt_dim for mode in modes}
            times = {mode: [] for mode in modes}
            rounds = 0
            while rounds < repetitions or (
                rounds < SCALING_MAX_ROUNDS
                and min(sum(t) for t in times.values()) < SCALING_MIN_SAMPLED_S
            ):
                for mode in modes:
                    start = time.perf_counter()
                    step(chains[mode], zero_energy, cfgs[mode])
                    times[mode].append(time.perf_counter() - start)
                rounds += 1
            round_s = np.sum([times[mode] for mode in modes], axis=0)
            samples.extend(
                ScalingSample(
                    n_bodies=n,
                    mode=mode,
                    seconds_per_iter=float(
                        np.median(np.array(times[mode]) / round_s) * np.median(round_s)
                    ),
                    kkt_dim=kkt_dims[mode],
                )
                for mode in modes
            )
    finally:
        if gc_was_enabled:
            gc.enable()
    return samples


def write_scaling_csv(samples: list[ScalingSample], path):
    values = ([x.mode.value, x.n_bodies, repr(x.seconds_per_iter)] for x in samples)
    _write_csv(path, ["mode", "n_bodies", "seconds_per_iter"], values)


@dataclass
class TrackingRow:
    stp: int
    body: str
    add: float
    add_s: float


@dataclass
class TrackingReport:
    rows: list[TrackingRow] = field(default_factory=list)
    residuals: list[list[float]] = field(default_factory=list)  # per step
    auc: float = 0.0

    def mean_add(self) -> float:
        """Mean ADD over the rows; 0.0 without rows, as ``auc`` is then 1.0."""
        return float(np.mean([row.add for row in self.rows])) if self.rows else 0.0


_TRACKING_JITTER = 0.01


def run_synthetic_tracking(config, mode: SolverMode, steps: int, seed: int = 0) -> TrackingReport:
    """Track a scripted joint trajectory with per-body pose-target energies.

    The ground truth follows the configured joint programs; the estimate
    starts from a slightly perturbed state (normal joint variations of
    scale _TRACKING_JITTER) and is pulled toward the ground truth poses
    each step, weighted per body (weight 0 leaves a body unobserved).
    Errors are reported against the ground truth poses.  Estimate and truth
    are copies of the config's structure, which stays as it was given, and
    every pose is read from their pose stacks.  Raises ValueError for a
    negative number of steps or a negative seed.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not isinstance(config, TrackingConfig):
        config = load_config(config)
    estimate, truth = copy.deepcopy(config.structure), copy.deepcopy(config.structure)

    rng = np.random.default_rng(seed)
    if estimate.n_dof and _TRACKING_JITTER > 0:
        estimate.update_poses(_TRACKING_JITTER * rng.standard_normal(estimate.n_dof))

    solver_cfg = SolverConfig(mode=mode, iterations=config.iterations)
    report = TrackingReport()
    prev = {i: program.values(0) for i, program in config.trajectory.items()}
    for stp in range(1, steps + 1):
        delta = np.zeros(truth.n_dof)
        for i, program in config.trajectory.items():
            values = program.values(stp)
            off = truth.dof_offsets[i]
            delta[off : off + values.shape[0]] = values - prev[i]
            prev[i] = values
        truth.update_poses(delta)

        providers = {}
        for i, (w_r, w_t) in config.weights.items():
            if w_r > 0 or w_t > 0:
                providers[i] = quadratic_pose_target(truth.poses()[i], w_r, w_t)
        report.residuals.append(run(estimate, per_body(providers), solver_cfg)[-1].residuals_after)
        for i, mesh in config.meshes.items():
            rel = estimate.poses()[i].inverse() @ truth.poses()[i]
            name = estimate.bodies[i].name
            report.rows.append(TrackingRow(stp, name, add_error(mesh, rel), add_s_error(mesh, rel)))
    report.auc = auc_score([row.add for row in report.rows], config.e_t)
    return report


def write_tracking_csv(report: TrackingReport, path):
    values = ([r.stp, r.body, repr(r.add), repr(r.add_s)] for r in report.rows)
    _write_csv(path, ["step", "body", "add", "add_s"], values)
