"""Pose recovery from point correspondences on a free 6-DoF body.

A point cloud is displaced by a known rigid transform; the Gauss-Newton
registration energy drives a single free body onto it in a handful of
Newton iterations.

Run from the repository root:  python3 demos/point_registration.py
"""

import numpy as np

from multibody.energy import point_registration_energy
from multibody.kinematics import Body, Joint, KinematicStructure
from multibody.se3 import Pose, exp_rotvec, log_rotation
from multibody.solver import Regularization, SolverConfig, SolverMode, step

rng = np.random.default_rng(0)
model = rng.uniform(-0.2, 0.2, (30, 3))
true_pose = Pose(exp_rotvec([0.3, -0.2, 0.5]), np.array([0.1, 0.05, -0.2]))
observed = true_pose.apply(model)

s = KinematicStructure([Body("object", Joint(free_axes=np.ones(6, dtype=bool)))])
provider = point_registration_energy(model, observed)
cfg = SolverConfig(mode=SolverMode.PROJECTED, regularization=Regularization(0, 0))

print("iter   rotation error [rad]   translation error [m]")
for it in range(6):
    pose = s.poses()[0]
    rot_err = np.linalg.norm(log_rotation(true_pose.r.T @ pose.r))
    trans_err = np.linalg.norm(pose.t - true_pose.t)
    print(f"{it:4d}   {rot_err:.3e}              {trans_err:.3e}")
    step(s, provider, cfg)
