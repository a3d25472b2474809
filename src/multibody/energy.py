"""Per-body energy abstraction: gradient and Hessian of a 6-DoF energy.

A provider is a per-body callable ``provider(body_index, pose) -> BodyEnergy``,
a pose target (``quadratic_pose_target``), or a ``per_body`` map of them.
Gradients and Hessians are expressed in the body's own variation
coordinates, i.e. they differentiate the energy along
``pose.with_variation(theta)`` at theta = 0, the same map the constraint
derivatives use; a callable returns them at zero variation of the given pose.

``evaluate`` is the one place where energies are evaluated, for all bodies
at a stacked Pose, and has one path: a ``per_body`` map evaluates itself,
and any other provider is the map that gives it to every body.  A map
evaluates its pose targets in one kernel call and calls each other provider
for the one body it is given for (``zero_energy`` is the empty map).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import _checked_index
from .se3 import Pose, log_rotation, skew, variation_matrix


@dataclass
class BodyEnergy:
    """Gradient (6) and Hessian (6x6) of one body's energy at zero variation."""

    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float).reshape(6)
        self.h = np.asarray(self.h, dtype=float).reshape(6, 6)


def evaluate(provider, poses: Pose):
    """Gradients (n, 6) and Hessians (n, 6, 6) of every body's energy at a
    stacked pose of the n bodies: a provider that is not a ``per_body`` map
    is given to every body."""
    if not isinstance(provider, PerBody):
        provider = per_body(dict.fromkeys(range(poses.t.shape[0]), provider))
    return provider.evaluate_stack(poses)


def pose_target_stack(targets: Pose, scales, poses: Pose):
    """Gradient (n, 6) and Gauss-Newton Hessian (n, 6, 6) of
    E = w_r |log(R_t^T R)|^2 + w_t |t - t_target|^2 for each row of a
    stacked pose, with a target and ``scales``, 2 w_r and 2 w_t, per row:
    (n, 2).

    The rotation-vector residual r0 = log(R_target^T R) is an eigenvector
    of its variation matrix C, which collapses the chain rule to
    g_rot = 2 w_r r0; the Hessian's rotation block is 2 w_r C C^T.
    """
    rt = poses.r.swapaxes(-1, -2)
    r0 = log_rotation(targets.r.swapaxes(-1, -2) @ poses.r)
    cmat = variation_matrix(r0)
    scale_r, scale_t = scales[..., 0, None], scales[..., 1, None]
    g = np.empty((r0.shape[0], 6))
    h = np.zeros((r0.shape[0], 6, 6))
    g[:, :3] = scale_r * r0
    g[:, 3:] = scale_t * (rt @ (poses.t - targets.t)[:, :, None])[:, :, 0]
    h[:, :3, :3] = scale_r[..., None] * (cmat @ cmat.swapaxes(-1, -2))
    h.reshape(-1, 36)[:, 21::7] = scale_t  # entries (3, 3), (4, 4) and (5, 5)
    return g, h


class PoseTarget:
    """Provider for E = w_r * |log(R_t^T R)|^2 + w_t * |t - t_target|^2, as
    data only: the target pose and the scales 2 w_r and 2 w_t, which
    ``per_body`` stacks with its other targets, refusing a stacked target
    and naming its body.  Given as the provider of every body, it pulls
    them all toward the one target.  A frozen record of slots: no field
    can be assigned, and a copy or pickle is built again from the fields."""

    __slots__ = ("target", "scale_r", "scale_t")

    def __init__(self, target: Pose, scale_r: float, scale_t: float):
        _set_target(self, target)
        _set_scale_r(self, scale_r)
        _set_scale_t(self, scale_t)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{name!r} is read-only: a PoseTarget is frozen")

    __delattr__ = __setattr__

    def __reduce__(self):
        return PoseTarget, (self.target, self.scale_r, self.scale_t)


_set_target, _set_scale_r, _set_scale_t = (
    getattr(PoseTarget, name).__set__ for name in PoseTarget.__slots__
)


def quadratic_pose_target(target: Pose, weight_r: float = 1.0, weight_t: float = 1.0) -> PoseTarget:
    """Provider for E = w_r * |log(R_t^T R)|^2 + w_t * |t - t_target|^2.

    Gradient and Gauss-Newton Hessian are exact for this quadratic form
    (pose_target_stack).
    """
    if not (math.isfinite(weight_r) and math.isfinite(weight_t)) or weight_r < 0 or weight_t < 0:
        raise ValueError(f"weights must be finite and non-negative, got {weight_r!r}, {weight_t!r}")
    return PoseTarget(target, 2.0 * weight_r, 2.0 * weight_t)


def point_registration_energy(model_points, observed_points):
    """Provider for the sum of squared distances between transformed model
    points and fixed observed points (Gauss-Newton gradient and Hessian)."""
    model_points = np.asarray(model_points, dtype=float).reshape(-1, 3)
    observed_points = np.asarray(observed_points, dtype=float).reshape(-1, 3)
    if model_points.shape != observed_points.shape:
        raise ValueError("model and observed point lists must have equal length")
    if model_points.shape[0] < 3:
        raise ValueError("at least 3 point correspondences are required")

    # d(R x + t)/d theta = [-R [x]x, R] for each point: (k, 3, 6).
    cross = skew(model_points)

    def provider(body_index: int, pose: Pose) -> BodyEnergy:
        residuals = pose.apply(model_points) - observed_points
        jac = np.concatenate([-pose.r @ cross, np.broadcast_to(pose.r, cross.shape)], axis=2)
        g = 2.0 * np.einsum("kij,ki->j", jac, residuals)
        h = 2.0 * np.einsum("kij,kil->jl", jac, jac)
        return BodyEnergy(g, h)

    return provider


class PerBody:
    """Provider dispatching body index -> provider, a pose target or a
    per-body callable; a body without one has zero energy.  The pose targets among the providers are stacked once,
    here, and evaluated together in one kernel call."""

    def __init__(self, providers: dict):
        self.providers = dict(providers)
        bodies, targets, scales, others = [], [], [], []
        for i, p in self.providers.items():
            if _checked_index(i, "per_body: a key") < 0:
                raise ValueError(f"per_body: body index {i} is negative")
            if isinstance(p, PoseTarget):
                bodies.append(i)
                targets.append(p.target)
                scales += (p.scale_r, p.scale_t)
            elif callable(p):
                others.append(i)
            else:
                raise TypeError(f"per_body: body {i}: {p!r} is neither a pose target nor callable")
        self.target_bodies = np.array(bodies, dtype=int)
        # Targets on bodies 0..k-1 in order take the poses of k bodies as they are.
        self.in_order = bodies == list(range(len(bodies)))
        name = lambda k: f"per_body: body {bodies[k]} target"  # noqa: E731
        self.targets = Pose.stack(targets, name)
        self.scales = np.array(scales, dtype=float).reshape(-1, 2)
        self.others = sorted(others)
        self.last = max(self.providers, default=-1)

    def evaluate_stack(self, poses: Pose):
        n = poses.t.shape[0]
        if self.last >= n:
            raise ValueError(f"per_body: body index {self.last} is out of range for {n} bodies")
        targets = self.target_bodies
        if self.in_order and targets.shape[0] == n:
            return pose_target_stack(self.targets, self.scales, poses)
        g, h = np.zeros((n, 6)), np.zeros((n, 6, 6))
        if targets.shape[0]:
            g[targets], h[targets] = pose_target_stack(self.targets, self.scales, poses[targets])
        for i in self.others:
            e = self.providers[i](i, poses[i])
            g[i], h[i] = e.g, e.h
        return g, h


def per_body(providers: dict) -> PerBody:
    """Dispatch provider: body index -> provider, zero energy for the other bodies."""
    return PerBody(providers)


zero_energy = per_body({})
