"""The benchmark's three workloads.

Each workload builds its inputs from a seed before timing starts.  Per op the
runner calls `prepare` (untimed), `op` (timed) and `check` (untimed, returns
the number of failed work units), and calls `reset` (untimed) after a failed
op.  `cross_check` runs once per run and compares the workload's driver code
with the library's own entry point.  Every call into the library goes
through a module attribute, so the tracer's wrappers see it.
"""

from __future__ import annotations

import copy

import numpy as np

ORTHONORMAL_TOL = 1e-9
# Criterion 8: the closed four-bar stays assembled to 1e-6 in combined mode.
FOURBAR_RESIDUAL_TOL = 1e-6
# Serial chains stay assembled to 1e-3 m/rad; the constrained chain's
# one-step linearization error is a few 1e-5 at seed.
CHAIN_RESIDUAL_TOL = 1e-3
# Criterion 2: the 99th percentile of rotvec and trans trials is within
# 1e-8 after one iteration.
ONE_STEP_TOL = 1e-8


def structure_ok(s, residual_tol: float) -> bool:
    """Finite poses, orthonormal rotations and constraint residuals within
    `residual_tol`."""
    rots = np.array([body.pose.r for body in s.bodies])
    trans = np.array([body.pose.t for body in s.bodies])
    if not (np.isfinite(rots).all() and np.isfinite(trans).all()):
        return False
    gram = np.einsum("nji,njk->nik", rots, rots)
    if np.abs(gram - np.eye(3)).max() > ORTHONORMAL_TOL:
        return False
    return all(np.linalg.norm(c.residual(s)) <= residual_tol for c in s.constraints)


class ConvergeWorkload:
    """One op is one two-body convergence study of `batch` trials, 4 Newton
    iterations, random constraint frames; ops cycle through the four kinds.
    The work unit is a trial."""

    iterations = 4

    def __init__(self, mb, seed: int, batch: int = 25):
        self.mb = mb
        self.kinds = mb.experiments.CONVERGENCE_KINDS
        self.cycle = len(self.kinds)
        self.batch = batch
        self.units_per_op = batch
        rng = np.random.default_rng([seed, 1])
        self.op_seeds = [int(x) for x in rng.integers(0, 2**31, size=4096)]
        self.one_step_errors: list[float] = []

    def _args(self, i):
        return self.kinds[i % self.cycle], self.op_seeds[i % len(self.op_seeds)]

    def prepare(self, i):
        pass

    def op(self, i):
        kind, op_seed = self._args(i)
        return self.mb.experiments.run_convergence_study(
            self.batch, self.iterations, kind, seed=op_seed
        )

    def check(self, i, study) -> int:
        """Failed trials: non-finite errors, or a rotvec/trans trial not
        converged to ONE_STEP_TOL by the last iteration.  The errors after
        one iteration are kept for the run-level criterion 2 check."""
        kind, _ = self._args(i)
        rot, trans = study.rot_errors, study.trans_errors
        bad = ~(np.isfinite(rot).all(axis=1) & np.isfinite(trans).all(axis=1))
        if kind in ("rotvec", "trans"):
            err = rot if kind == "rotvec" else trans
            self.one_step_errors.extend(err[:, 1])
            bad |= ~(err[:, -1] <= ONE_STEP_TOL)
        return int(bad.sum())

    def reset(self):
        pass

    def cross_check(self) -> bool:
        """Criterion 2 over the run: the 99th percentile of the rotvec and
        trans errors after one iteration is within ONE_STEP_TOL.  And, from
        per-trial seeding, trial 0 of a batch equals a batch of one."""
        if not self.one_step_errors:
            return False
        one_step_p99 = float(np.percentile(self.one_step_errors, 99))
        kind, op_seed = self._args(0)
        run = self.mb.experiments.run_convergence_study
        batch = run(self.batch, self.iterations, kind, seed=op_seed)
        single = run(1, self.iterations, kind, seed=op_seed)
        return bool(
            one_step_p99 <= ONE_STEP_TOL
            and np.array_equal(batch.rot_errors[:1], single.rot_errors)
            and np.array_equal(batch.trans_errors[:1], single.trans_errors)
        )


class FourbarWorkload:
    """Closed-loop tracking of demos/fourbar.json in combined mode.  One op is
    one frame: pose-target providers from the ground truth, the configured
    Newton iterations, then ADD and ADD-S for each mesh.  The ground truth
    advances in `prepare`, outside the timing.  The work unit is a frame."""

    units_per_op = 1
    cycle = 1
    jitter = 0.01  # experiments.run_synthetic_tracking's default

    def __init__(self, mb, seed: int, config_path):
        self.mb = mb
        self.seed = seed
        self.config_path = config_path
        self.config = mb.config.load_config(config_path)
        self.solver_cfg = mb.SolverConfig(
            mode=mb.SolverMode.COMBINED, iterations=self.config.iterations
        )
        # Same initial state as run_synthetic_tracking with this seed.
        self.truth0 = copy.deepcopy(self.config.structure)
        self.estimate0 = copy.deepcopy(self.config.structure)
        rng = np.random.default_rng(seed)
        if self.estimate0.n_dof:
            self.estimate0.update_poses(self.jitter * rng.standard_normal(self.estimate0.n_dof))
        self.reset()

    def reset(self):
        self.estimate = copy.deepcopy(self.estimate0)
        self.truth = copy.deepcopy(self.truth0)
        self.prev = {i: p.values(0) for i, p in self.config.trajectory.items()}
        self.frame = 0

    def prepare(self, i):
        self.frame += 1
        delta = np.zeros(self.truth.n_dof)
        for body, program in self.config.trajectory.items():
            values = program.values(self.frame)
            off = self.truth.dof_offsets[body]
            delta[off : off + values.shape[0]] = values - self.prev[body]
            self.prev[body] = values
        self.truth.update_poses(delta)

    def op(self, i):
        mb = self.mb
        truth = self.truth.bodies
        providers = {
            body: mb.quadratic_pose_target(truth[body].pose, w_r, w_t)
            for body, (w_r, w_t) in self.config.weights.items()
            if w_r > 0 or w_t > 0
        }
        mb.solver.run(self.estimate, mb.per_body(providers), self.solver_cfg)
        rows = []
        for body, mesh in self.config.meshes.items():
            rel = self.estimate.bodies[body].pose.inverse() @ truth[body].pose
            rows.append((mb.add_error(mesh, rel), mb.add_s_error(mesh, rel)))
        return rows

    def check(self, i, rows) -> int:
        ok = np.isfinite(rows).all() and structure_ok(self.estimate, FOURBAR_RESIDUAL_TOL)
        return 0 if ok else 1

    def cross_check(self, frames: int = 10) -> bool:
        """ADD rows of this driver equal run_synthetic_tracking's to 1e-12."""
        fresh = FourbarWorkload(self.mb, self.seed, self.config_path)
        ours = []
        for i in range(frames):
            fresh.prepare(i)
            ours.extend(fresh.op(i))
        report = self.mb.experiments.run_synthetic_tracking(
            self.config_path, self.mb.SolverMode.COMBINED, steps=frames, seed=self.seed
        )
        theirs = [(row.add, row.add_s) for row in report.rows]
        return len(ours) == len(theirs) and np.allclose(ours, theirs, rtol=0.0, atol=1e-12)


def _rodrigues(v):
    angle = np.linalg.norm(v)
    if angle < 1e-12:
        return np.eye(3)
    k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]) / angle
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _rot_z(q):
    c, s = np.cos(q), np.sin(q)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def chain_forward_kinematics(root_r, root_t, joint_angles, link_length):
    """Body poses (R, t) of experiments.build_serial_chain's chain: each link
    offset by `link_length` along its parent's x axis, then turned about z."""
    r, t = root_r, root_t
    poses = [(r, t)]
    offset = np.array([link_length, 0.0, 0.0])
    for q in joint_angles:
        t = t + r @ offset
        r = r @ _rot_z(q)
        poses.append((r, t))
    return poses


def chain_trajectory(seed: int, n_bodies: int, frames: int, link_length: float):
    """Seeded periodic targets that start at the chain's rest pose: a swaying
    root and sinusoidal joint angles of up to 0.1 rad."""
    rng = np.random.default_rng([seed, 2])
    amp = rng.uniform(0.02, 0.1, n_bodies - 1)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_bodies - 1)
    root_rot = rng.uniform(-0.1, 0.1, 3)
    root_trans = rng.uniform(-0.1, 0.1, 3)
    out = []
    for f in range(frames):
        w = 2.0 * np.pi * f / frames
        out.append(
            chain_forward_kinematics(
                _rodrigues(root_rot * np.sin(w)),
                root_trans * np.sin(w),
                amp * (np.sin(w + phase) - np.sin(phase)),
                link_length,
            )
        )
    return out


class ChainWorkload:
    """experiments.build_serial_chain(n_bodies) pulled toward a pose target
    on every body; one op is one solver.step in the given mode.  The target
    trajectory restarts from the rest pose whenever the chain does.  The work
    unit is a step."""

    units_per_op = 1
    cycle = 1
    link_length = 0.1  # build_serial_chain's default
    weight = 100.0
    frames = 240

    def __init__(self, mb, seed: int, mode: str, n_bodies: int = 64):
        self.mb = mb
        self.cfg = mb.SolverConfig(mode=mb.SolverMode(mode))
        self.pristine = mb.experiments.build_serial_chain(n_bodies)
        self.n_bodies = n_bodies
        self.targets = [
            [mb.Pose(r, t) for r, t in frame]
            for frame in chain_trajectory(seed, n_bodies, self.frames, self.link_length)
        ]
        self.reset()

    def reset(self):
        self.s = copy.deepcopy(self.pristine)
        self.frame = -1

    def prepare(self, i):
        self.frame += 1

    def op(self, i):
        mb = self.mb
        providers = {
            body: mb.quadratic_pose_target(target, self.weight, self.weight)
            for body, target in enumerate(self.targets[self.frame % self.frames])
        }
        return mb.step(self.s, mb.per_body(providers), self.cfg)

    def check(self, i, report) -> int:
        return 0 if structure_ok(self.s, CHAIN_RESIDUAL_TOL) else 1

    def cross_check(self) -> bool:
        """The built chain is the benchmark's forward kinematics at rest."""
        rest = chain_forward_kinematics(
            np.eye(3), np.zeros(3), np.zeros(self.n_bodies - 1), self.link_length
        )
        return all(
            np.allclose(body.pose.r, r, rtol=0.0, atol=1e-12)
            and np.allclose(body.pose.t, t, rtol=0.0, atol=1e-12)
            for body, (r, t) in zip(self.pristine.bodies, rest)
        )


def build(name: str, mb, seed: int, root, tiny: bool = False):
    """Workload `name` with inputs from `seed`; `tiny` shrinks it for tests."""
    if name == "converge":
        return ConvergeWorkload(mb, seed, batch=1 if tiny else 25)
    if name == "fourbar-track":
        return FourbarWorkload(mb, seed, root / "demos" / "fourbar.json")
    if name == "chain-constrained":
        return ChainWorkload(mb, seed, "constrained", n_bodies=4 if tiny else 64)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("converge", "fourbar-track", "chain-constrained")
