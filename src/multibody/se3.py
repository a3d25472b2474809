"""Rigid-transform algebra on rotation matrices and axis-angle vectors.

Conventions used throughout the package:

* A pose stores a rotation matrix ``r`` and a translation ``t`` and maps
  points from its "child" frame into its "parent" frame.
* A 6-vector variation is ordered ``[rot | trans]``: indices 0-2 hold an
  axis-angle rotation (radians), indices 3-5 a translation (meters).
* The variation transform keeps translation additive: rotation goes through
  the exponential map, translation is applied as-is in the local frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this angle, closed-form coefficients switch to series expansions.
SMALL_ANGLE = 1e-4
# From this angle on, log_rotation recovers the axis from the symmetric part.
NEAR_PI = np.pi - 1e-4

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]x such that skew(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def exp_rotvec(v: np.ndarray) -> np.ndarray:
    """Rotation matrix for an axis-angle vector (Rodrigues formula).

    Continuous at the identity through series expansions of sin(a)/a and
    (1 - cos(a))/a^2.
    """
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v)
    if angle < SMALL_ANGLE:
        a2 = angle * angle
        s = 1.0 - a2 / 6.0          # sin(a)/a
        c = 0.5 * (1.0 - a2 / 12.0)  # (1 - cos(a))/a^2
    else:
        s = np.sin(angle) / angle
        c = (1.0 - np.cos(angle)) / (angle * angle)
    k = skew(v)
    return _EYE3 + s * k + c * (k @ k)


def log_rotation(r: np.ndarray) -> np.ndarray:
    """Principal rotation vector of a rotation matrix, norm in [0, pi].

    Near pi the axis is recovered from the symmetric part of the matrix;
    the usual asin-based formula loses the axis there.  At exactly pi the
    axis sign is ambiguous and the representative whose first nonzero
    component is positive is returned.
    """
    r = np.asarray(r, dtype=float)
    cos_a = min(max((np.trace(r) - 1.0) / 2.0, -1.0), 1.0)
    angle = np.arccos(cos_a)
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])

    if angle < SMALL_ANGLE:
        # w = 2 sin(a) e; sin(a)/a ~ 1 - a^2/6
        return 0.5 * w * (1.0 + angle * angle / 6.0)

    if angle < NEAR_PI:
        return (angle / (2.0 * np.sin(angle))) * w

    # Near pi: e e^T = (S - cos(a) I) / (1 - cos(a)) with S the symmetric part.
    s = 0.5 * (r + r.T)
    ee = (s - cos_a * np.eye(3)) / (1.0 - cos_a)
    axis = np.sqrt(np.clip(np.diag(ee), 0.0, None))
    # Relative signs from the off-diagonal products e_i e_j.
    i = int(np.argmax(axis))
    for j in range(3):
        if j != i and ee[i, j] < 0.0:
            axis[j] = -axis[j]
    axis /= np.linalg.norm(axis)
    # Overall sign from the skew part if it still carries information.
    if np.linalg.norm(w) > 1e-9:
        if np.dot(axis, w) < 0.0:
            axis = -axis
    else:
        for component in axis:
            if component != 0.0:
                if component < 0.0:
                    axis = -axis
                break
    return angle * axis


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation matrix ``r`` plus translation ``t``."""

    r: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    @staticmethod
    def from_rotvec(v, t=(0.0, 0.0, 0.0)) -> "Pose":
        return Pose(exp_rotvec(np.asarray(v, dtype=float)), np.asarray(t, dtype=float))

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.r @ other.r, self.r @ other.t + self.t)

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        rt = self.r.T
        return Pose(rt, -rt @ self.t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or a stack of points (n, 3)."""
        points = np.asarray(points, dtype=float)
        return points @ self.r.T + self.t

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.r
        m[:3, 3] = self.t
        return m


def adjoint(p) -> np.ndarray:
    """6x6 adjoint projecting a variation between reference frames, of a
    Pose or of each row of a stacked pose (..., 6, 6).

    Block layout matches the [rot | trans] vector ordering:
    [[R, 0], [[t]x R, R]].
    """
    r, t = (p.r, p.t) if isinstance(p, Pose) else p
    ad = np.zeros(r.shape[:-2] + (6, 6))
    ad[..., :3, :3] = r
    ad[..., 3:, :3] = skew_stack(t) @ r
    ad[..., 3:, 3:] = r
    return ad


def _half_angle_cot(angle: float) -> float:
    """(a/2) * cot(a/2) with the series limit 1 - a^2/12 at small angles."""
    if angle < SMALL_ANGLE:
        return 1.0 - angle * angle / 12.0
    return (angle / 2.0) / np.tan(angle / 2.0)


def variation_matrix(v: np.ndarray) -> np.ndarray:
    """First-order change of a rotation vector under a subsequent rotation.

    For r = a*e the matrix is
    (a/2)cot(a/2) I - (a/2)[e]x + (1 - (a/2)cot(a/2)) e e^T,
    reducing to the identity at a = 0.  Its transpose plays the same role
    for a preceding infinitesimal rotation.
    """
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v)
    if angle < SMALL_ANGLE:
        return _half_angle_cot(angle) * _EYE3 - 0.5 * skew(v)
    e = v / angle
    h = _half_angle_cot(angle)
    return h * _EYE3 - (angle / 2.0) * skew(e) + (1.0 - h) * (e[:, None] * e)


def pose_with_variation(pose: Pose, theta: np.ndarray) -> Pose:
    """Pose after applying a variation in its own model frame, pose o T(theta)
    with T(theta) the exponential rotation and the additive translation.

    Energies, constraints and updates all differentiate this map.
    """
    theta = np.asarray(theta, dtype=float)
    return pose @ Pose(exp_rotvec(theta[:3]), theta[3:].copy())


# Stacked kernels: skew, exp_rotvec, log_rotation, variation_matrix and pose
# algebra over the leading axes of their input, for callers that run many
# independent problems at once.  Branches are chosen per row by masks; each
# row matches the scalar function to rounding.  One stacked call costs
# several scalar calls, so single poses keep the scalar functions.
#
# A stacked pose is an (r, t) pair of shapes (..., 3, 3) and (..., 3);
# compose_stack and inverse_stack mirror Pose.compose and Pose.inverse row
# by row, and adjoint takes one as well.


def stack_poses(poses):
    """One stacked pose from Pose objects."""
    poses = list(poses)
    return (
        np.array([p.r for p in poses]).reshape(-1, 3, 3),
        np.array([p.t for p in poses]).reshape(-1, 3),
    )


def _rotate(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """r @ t for each row: (..., 3, 3), (..., 3) -> (..., 3)."""
    return (r @ t[..., None])[..., 0]


def compose_stack(p, q):
    return p[0] @ q[0], _rotate(p[0], q[1]) + p[1]


def inverse_stack(p):
    rt = np.swapaxes(p[0], -1, -2)
    return rt, _rotate(-rt, p[1])


def pose_with_variation_stack(p, theta: np.ndarray):
    """pose_with_variation of each row: theta (..., 6)."""
    return compose_stack(p, (exp_rotvec_stack(theta[..., :3]), theta[..., 3:]))


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: (..., k) -> (...).

    Bit for bit np.linalg.norm of the row: both take one BLAS dot product.
    """
    v = np.asarray(v, dtype=float)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def skew_stack(v: np.ndarray) -> np.ndarray:
    """skew of each row: (..., 3) -> (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def exp_rotvec_stack(v: np.ndarray) -> np.ndarray:
    """exp_rotvec of each row: (..., 3) -> (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    angle = row_norms(v)
    small = angle < SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    a2 = angle * angle
    s = np.where(small, 1.0 - a2 / 6.0, np.sin(safe) / safe)
    c = np.where(small, 0.5 * (1.0 - a2 / 12.0), (1.0 - np.cos(safe)) / (safe * safe))
    k = skew_stack(v)
    return _EYE3 + s[..., None, None] * k + c[..., None, None] * (k @ k)


def log_rotation_stack(r: np.ndarray) -> np.ndarray:
    """log_rotation of each matrix: (..., 3, 3) -> (..., 3).

    Rows at NEAR_PI or beyond, which are rare, go to log_rotation itself
    for its axis and sign recovery.
    """
    r = np.asarray(r, dtype=float)
    cos_a = np.minimum(np.maximum((np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0), 1.0)
    angle = np.arccos(cos_a)
    # [r21 - r12, r02 - r20, r10 - r01]
    w = r[..., (2, 0, 1), (1, 2, 0)] - r[..., (1, 2, 0), (2, 0, 1)]
    small = angle < SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    out = np.where(
        small[..., None],
        0.5 * w * (1.0 + angle * angle / 6.0)[..., None],
        (safe / (2.0 * np.sin(safe)))[..., None] * w,
    )
    near_pi = angle >= NEAR_PI
    if near_pi.any():
        for index in zip(*np.nonzero(near_pi)):
            out[index] = log_rotation(r[index])
    return out


def variation_matrix_stack(v: np.ndarray) -> np.ndarray:
    """variation_matrix of each row: (..., 3) -> (..., 3, 3).

    Small rows take the scalar form's series branch as the general formula
    with e = v, a/2 = 1/2 and a zero e e^T coefficient.
    """
    v = np.asarray(v, dtype=float)
    angle = row_norms(v)
    small = angle < SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    h = np.where(small, 1.0 - angle * angle / 12.0, (safe / 2.0) / np.tan(safe / 2.0))
    e = np.where(small[..., None], v, v / safe[..., None])
    half = np.where(small, 0.5, angle / 2.0)
    tail = np.where(small, 0.0, 1.0 - h)
    return (
        h[..., None, None] * _EYE3
        - half[..., None, None] * skew_stack(e)
        + tail[..., None, None] * (e[..., :, None] * e[..., None, :])
    )
