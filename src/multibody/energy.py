"""Per-body energy abstraction: gradient and Hessian of a 6-DoF energy.

An energy provider is any callable ``provider(body_index, pose) -> BodyEnergy``
evaluated at zero variation of the given pose.  Gradients and Hessians are
expressed in the body's own variation coordinates, i.e. they differentiate
the energy along ``pose_with_variation(pose, theta)`` at theta = 0, the same
map the constraint derivatives use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .se3 import Pose, log_rotation, skew, variation_matrix


@dataclass
class BodyEnergy:
    """Gradient (6) and Hessian (6x6) of one body's energy at zero variation."""

    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float).reshape(6)
        self.h = np.asarray(self.h, dtype=float).reshape(6, 6)

    @staticmethod
    def zero() -> "BodyEnergy":
        return BodyEnergy(np.zeros(6), np.zeros((6, 6)))


def zero_energy(body_index: int, pose: Pose) -> BodyEnergy:
    """Provider with no measurement; regularization alone shapes the step."""
    return BodyEnergy.zero()


_TRANS_DIAGONAL = ((3, 4, 5), (3, 4, 5))


def quadratic_pose_target(target: Pose, weight_r: float = 1.0, weight_t: float = 1.0):
    """Provider for E = w_r * |log(R_t^T R)|^2 + w_t * |t - t_target|^2.

    Gradient and Gauss-Newton Hessian are exact for this quadratic form:
    the rotation-vector residual r0 = log(R_target^T R) is an eigenvector of
    its variation matrix, which collapses the chain rule to g_rot = 2 w_r r0.
    """
    if weight_r < 0 or weight_t < 0:
        raise ValueError("weights must be non-negative")

    scale_r = 2.0 * weight_r
    scale_t = 2.0 * weight_t

    def provider(body_index: int, pose: Pose) -> BodyEnergy:
        g = np.zeros(6)
        h = np.zeros((6, 6))
        r0 = log_rotation(target.r.T @ pose.r)
        cmat = variation_matrix(r0)
        g[:3] = scale_r * r0
        h[:3, :3] = scale_r * (cmat @ cmat.T)
        g[3:] = scale_t * (pose.r.T @ (pose.t - target.t))
        h[_TRANS_DIAGONAL] = scale_t
        return BodyEnergy(g, h)

    return provider


def point_registration_energy(model_points, observed_points):
    """Provider for the sum of squared distances between transformed model
    points and fixed observed points (Gauss-Newton gradient and Hessian)."""
    model_points = np.asarray(model_points, dtype=float).reshape(-1, 3)
    observed_points = np.asarray(observed_points, dtype=float).reshape(-1, 3)
    if model_points.shape != observed_points.shape:
        raise ValueError("model and observed point lists must have equal length")
    if model_points.shape[0] < 3:
        raise ValueError("at least 3 point correspondences are required")

    def provider(body_index: int, pose: Pose) -> BodyEnergy:
        g = np.zeros(6)
        h = np.zeros((6, 6))
        for x, y in zip(model_points, observed_points):
            residual = pose.apply(x) - y
            jac = np.hstack([-pose.r @ skew(x), pose.r])
            g += 2.0 * jac.T @ residual
            h += 2.0 * jac.T @ jac
        return BodyEnergy(g, h)

    return provider


def per_body(providers: dict, default=zero_energy):
    """Dispatch provider: body index -> provider, falling back to ``default``."""

    def provider(body_index: int, pose: Pose) -> BodyEnergy:
        return providers.get(body_index, default)(body_index, pose)

    return provider

