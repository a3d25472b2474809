"""Desk-scale studies: constraint convergence, runtime scaling, tracking.

All randomness flows through numpy Generators seeded as [master_seed,
trial_index], so results are bit-identical for a fixed seed regardless of
how trials are batched.
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
    OrthogonalityConstraint,
    relative_constraint_pose,
)
from .energy import BodyEnergy, per_body, quadratic_pose_target, zero_energy
from .kinematics import Body, Joint, KinematicStructure, axes_mask
from .metrics import add_error, add_s_error, auc_score
from .se3 import Pose, log_rotation
from .solver import Regularization, SolverConfig, SolverMode, run, step

PERCENTILE_LEVELS = (1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 99)

CONVERGENCE_KINDS = ("rotvec", "trans", "full", "ortho")


def random_unit_vector(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def sample_rotvec(rng) -> np.ndarray:
    """Axis uniform on the sphere, signed length uniform on [-pi, pi].

    A negative length flips the axis, so the magnitude ends up uniform on
    [0, pi]; the sampling is kept in this literal signed form.
    """
    return rng.uniform(-np.pi, np.pi) * random_unit_vector(rng)


def sample_translation(rng) -> np.ndarray:
    """Axis uniform on the sphere, signed length uniform on [-1, 1] meters."""
    return rng.uniform(-1.0, 1.0) * random_unit_vector(rng)


def random_spd(rng, n: int = 6, scale: float = 100.0) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T / n + 0.1 * np.eye(n))


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
    percentiles: tuple = PERCENTILE_LEVELS

    def percentile_rows(self) -> list[ConvergenceRow]:
        rows = []
        for it in range(self.n_iterations + 1):
            rot = np.percentile(self.rot_errors[:, it], self.percentiles)
            trans = np.percentile(self.trans_errors[:, it], self.percentiles)
            for level, r, t in zip(self.percentiles, rot, trans):
                rows.append(ConvergenceRow(self.kind, it, int(level), float(r), float(t)))
        return rows


def _two_body_structure(kind: str, rng, equal_frames: bool):
    """Two unconnected free bodies with the requested constraint between
    random frames, starting from a sampled initial pose difference."""
    if kind in ("rotvec", "ortho"):
        # Rotation-only study: frames and poses are pure rotations, so the
        # translational part of the relative pose stays identically zero.
        frame_a = Pose.identity() if equal_frames else Pose.from_rotvec(sample_rotvec(rng))
        frame_b = Pose.identity() if equal_frames else Pose.from_rotvec(sample_rotvec(rng))
        diff = Pose.from_rotvec(sample_rotvec(rng))
        pose_a = Pose.from_rotvec(sample_rotvec(rng))
    elif kind == "trans":
        frame_a = Pose(np.eye(3), np.zeros(3) if equal_frames else sample_translation(rng))
        frame_b = Pose(np.eye(3), np.zeros(3) if equal_frames else sample_translation(rng))
        diff = Pose(np.eye(3), sample_translation(rng))
        pose_a = Pose(np.eye(3), sample_translation(rng))
    elif kind == "full":
        frame_a = (
            Pose.identity()
            if equal_frames
            else Pose.from_rotvec(sample_rotvec(rng), sample_translation(rng))
        )
        frame_b = (
            Pose.identity()
            if equal_frames
            else Pose.from_rotvec(sample_rotvec(rng), sample_translation(rng))
        )
        diff = Pose.from_rotvec(sample_rotvec(rng), sample_translation(rng))
        pose_a = Pose.from_rotvec(sample_rotvec(rng), sample_translation(rng))
    else:
        raise ValueError(f"unknown convergence kind {kind!r}")

    # Solve pose_b so that the initial relative pose equals the sampled diff:
    # diff = frame_a o pose_a^-1 o pose_b o frame_b^-1.
    pose_b = pose_a @ frame_a.inverse() @ diff @ frame_b

    if kind == "ortho":
        constraint = OrthogonalityConstraint(0, 1, frame_a, frame_b)
    elif kind == "rotvec":
        constraint = Constraint(0, 1, frame_a, frame_b, axes_mask(["rot_x", "rot_y", "rot_z"]))
    elif kind == "trans":
        constraint = Constraint(
            0, 1, frame_a, frame_b, axes_mask(["trans_x", "trans_y", "trans_z"])
        )
    else:
        constraint = Constraint(0, 1, frame_a, frame_b, np.ones(6, dtype=bool))

    # Restrict each body to the DoF the study exercises: a free rotational
    # DoF could otherwise be recruited (nonlinearly) to satisfy translation
    # rows, destroying the single-iteration behavior of the pure cases.
    if kind in ("rotvec", "ortho"):
        axes = axes_mask(["rot_x", "rot_y", "rot_z"])
    elif kind == "trans":
        axes = axes_mask(["trans_x", "trans_y", "trans_z"])
    else:
        axes = np.ones(6, dtype=bool)
    bodies = [
        Body(name="a", joint=Joint(free_axes=axes.copy()), pose=pose_a),
        Body(name="b", joint=Joint(free_axes=axes.copy()), pose=pose_b),
    ]
    return KinematicStructure(bodies, [constraint]), constraint


def _pose_difference(constraint, s):
    rel = relative_constraint_pose(constraint, s)
    return float(np.linalg.norm(log_rotation(rel.r))), float(np.linalg.norm(rel.t))


def run_convergence_study(
    n_trials: int,
    n_iterations: int,
    kind: str = "rotvec",
    seed: int = 0,
    random_energy: bool = False,
    equal_frames: bool = False,
    regularization: Regularization | None = None,
) -> ConvergenceStudy:
    """Newton iterations on a two-body constraint from random initial errors.

    With ``random_energy`` each body additionally gets a random positive
    definite Hessian and random gradient instead of the zero energy, which
    exercises the general (not just regularization-shaped) problem.
    """
    if kind not in CONVERGENCE_KINDS:
        raise ValueError(f"unknown convergence kind {kind!r}")
    if regularization is None:
        regularization = Regularization()
    cfg = SolverConfig(mode=SolverMode.COMBINED, regularization=regularization)

    rot_errors = np.zeros((n_trials, n_iterations + 1))
    trans_errors = np.zeros((n_trials, n_iterations + 1))
    for trial in range(n_trials):
        rng = np.random.default_rng([seed, trial])
        s, constraint = _two_body_structure(kind, rng, equal_frames)
        if random_energy:
            energies = [
                BodyEnergy(rng.standard_normal(6), random_spd(rng))
                for _ in s.bodies
            ]
            provider = lambda i, pose: energies[i]  # noqa: E731
        else:
            provider = zero_energy
        rot_errors[trial, 0], trans_errors[trial, 0] = _pose_difference(constraint, s)
        for it in range(1, n_iterations + 1):
            step(s, provider, cfg)
            rot_errors[trial, it], trans_errors[trial, it] = _pose_difference(
                constraint, s
            )
    return ConvergenceStudy(kind, n_trials, n_iterations, rot_errors, trans_errors)


def write_convergence_csv(study: ConvergenceStudy, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["kind", "iteration", "percentile", "rot_err", "trans_err"])
        for row in study.percentile_rows():
            writer.writerow(
                [row.kind, row.iteration, row.percentile,
                 repr(row.rot_err), repr(row.trans_err)]
            )


@dataclass
class ScalingSample:
    n_bodies: int
    mode: SolverMode
    seconds_per_iter: float
    kkt_dim: int


def build_serial_chain(n_bodies: int, link_length: float = 0.1) -> KinematicStructure:
    """Root with a 6-DoF joint plus rotational links, each offset along x.

    Constraints mirroring the joints (all axes but rot_z locked between
    consecutive bodies) are attached so that the same structure serves both
    the projected and the constrained configuration.
    """
    if n_bodies < 1:
        raise ValueError("need at least one body")
    bodies = [Body(name="body0", joint=Joint(free_axes=np.ones(6, dtype=bool)))]
    constraints = []
    offset = Pose(np.eye(3), np.array([link_length, 0.0, 0.0]))
    for i in range(1, n_bodies):
        bodies.append(
            Body(
                name=f"body{i}",
                joint=Joint(free_axes=axes_mask(["rot_z"]), parent_to_joint=offset),
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
    s = KinematicStructure(bodies, constraints)
    # Consistent initial poses along the chain.
    for i, body in enumerate(s.bodies):
        if body.parent is not None:
            body.pose = s.bodies[body.parent].pose @ offset
    s.refresh_joint_transforms()
    return s


def kkt_dimension(mode: SolverMode, n_bodies: int) -> int:
    """Size of the assembled saddle-point system for a serial chain."""
    if mode is SolverMode.PROJECTED:
        return 6 + (n_bodies - 1)
    if mode is SolverMode.CONSTRAINED:
        return 6 * n_bodies + 5 * (n_bodies - 1)
    raise ValueError(f"scaling study covers projected/constrained, not {mode}")


# Timing rounds of the scaling study: at least `repetitions`, then more, up to
# the cap, until each mode has this much sampled time.
SCALING_MIN_SAMPLED_S = 0.1
SCALING_MAX_ROUNDS = 50


def run_scaling_study(
    max_bodies: int, repetitions: int = 5, seed: int = 0
) -> list[ScalingSample]:
    """Per-iteration wall-clock time of projected vs constrained solves on
    serial chains of growing length.

    After one warm-up step per mode, each round times one step of each mode
    back to back, with garbage collection paused.  The host's speed changes
    (up to 2x, from one step to the next) hit both steps of a round alike,
    so a mode's time is its median share of the round times the median
    round time.  A per-mode minimum or median instead compares steps taken
    at different speeds.
    """
    if max_bodies < 2:
        raise ValueError("max_bodies must be >= 2")
    modes = (SolverMode.PROJECTED, SolverMode.CONSTRAINED)
    samples = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for n in range(1, max_bodies + 1):
            chains = {mode: build_serial_chain(n) for mode in modes}
            cfgs = {mode: SolverConfig(mode=mode) for mode in modes}
            for mode in modes:
                step(chains[mode], zero_energy, cfgs[mode])  # warm-up
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
                    kkt_dim=kkt_dimension(mode, n),
                )
                for mode in modes
            )
    finally:
        if gc_was_enabled:
            gc.enable()
    return samples


def write_scaling_csv(samples: list[ScalingSample], path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["mode", "n_bodies", "seconds_per_iter"])
        for sample in samples:
            writer.writerow(
                [sample.mode.value, sample.n_bodies, repr(sample.seconds_per_iter)]
            )


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
        return float(np.mean([row.add for row in self.rows]))


def run_synthetic_tracking(
    config, mode: SolverMode, steps: int, seed: int = 0, jitter: float = 0.01
) -> TrackingReport:
    """Track a scripted joint trajectory with per-body pose-target energies.

    The ground truth follows the configured joint programs; the estimate
    starts from a slightly perturbed state and is pulled toward the ground
    truth poses each step, weighted per body (weight 0 leaves a body
    unobserved).  Errors are reported against the ground truth poses.
    """
    if not isinstance(config, TrackingConfig):
        config = load_config(config)
    if isinstance(mode, str):
        mode = SolverMode(mode)
    estimate = config.structure
    truth = copy.deepcopy(estimate)

    rng = np.random.default_rng(seed)
    if estimate.n_dof and jitter > 0:
        estimate.update_poses(jitter * rng.standard_normal(estimate.n_dof))

    solver_cfg = SolverConfig(mode=mode, iterations=config.iterations)
    report = TrackingReport()
    errors = []
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
                providers[i] = quadratic_pose_target(truth.bodies[i].pose, w_r, w_t)
        run(estimate, per_body(providers), solver_cfg)

        report.residuals.append(
            [float(np.linalg.norm(c.residual(estimate))) for c in estimate.constraints]
        )
        for i, mesh in config.meshes.items():
            rel = estimate.bodies[i].pose.inverse() @ truth.bodies[i].pose
            add = add_error(mesh, rel)
            report.rows.append(
                TrackingRow(stp, estimate.bodies[i].name, add, add_s_error(mesh, rel))
            )
            errors.append(add)
    report.auc = auc_score(errors, config.e_t) if errors else 1.0
    return report


def write_tracking_csv(report: TrackingReport, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "body", "add", "add_s"])
        for row in report.rows:
            writer.writerow([row.stp, row.body, repr(row.add), repr(row.add_s)])
