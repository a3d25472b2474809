"""Rigid-transform algebra on rotation matrices and axis-angle vectors.

Conventions used throughout the package:

* A pose stores a rotation matrix ``r`` and a translation ``t`` and maps
  points from its "child" frame into its "parent" frame.
* A 6-vector variation is ordered ``[rot | trans]``: indices 0-2 hold an
  axis-angle rotation (radians), indices 3-5 a translation (meters).
* The variation transform keeps translation additive: rotation goes through
  the exponential map, translation is applied as-is in the local frame.

Each formula (skew, exp_rotvec, log_rotation, variation_matrix) has one
kernel, over any leading axes of its input: a single (3,) or (3, 3) input
gives the single result.  Each is one closed form, divided by the angle, or
by 1 where it is 0, and taking its exact limit there; no division is masked,
and log_rotation has one masked branch, for the rows above pi/2.
"""

from __future__ import annotations

import numpy as np

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False

# Row k is skew(e_k), flattened, with the signed zeros of the entry-wise
# formula [[0, -z, y], [z, 0, -x], [-y, x, 0]].
_SKEW_BASIS = np.array([[[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]] for x, y, z in _EYE3]).reshape(3, 9)

# Row k of 4 q q^T, q = [q_w | q_v] a unit quaternion, as indices into its
# ten distinct entries [1 + tr, w (3), 1 + 2 R_ii - tr (3), R_ij + R_ji (3)]
# of a rotation R, with w its skew part [R21 - R12, R02 - R20, R10 - R01].
_QUATERNION_ROWS = np.array([[0, 1, 2, 3], [1, 4, 7, 8], [2, 7, 5, 9], [3, 8, 9, 6]])
_SKEW_PART = np.array([[7, 2, 3], [5, 6, 1]])
# The flat entries R_ii, then R_ij and R_ji (i < j), of a rotation R.
_SHEPPERD_GATHER = np.array([0, 4, 8, 1, 2, 5, 3, 6, 7])


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: (..., k) -> (...).

    Bit for bit np.linalg.norm of the row: both take one BLAS dot product.
    """
    v = np.asarray(v, dtype=float)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]x, skew(v) @ w == cross(v, w), of each row:
    (..., 3) -> (..., 3, 3).  Each entry is exactly one component, its
    negation or zero."""
    v = np.asarray(v, dtype=float)
    return (v @ _SKEW_BASIS).reshape(v.shape + (3,))


def exp_rotvec(v: np.ndarray) -> np.ndarray:
    """Rotation matrix of each axis-angle row (Rodrigues formula):
    (..., 3) -> (..., 3, 3).  sin(a)/a and (1 - cos(a))/a^2 divide by 1 where
    the angle a is 0, and are 0 there: the rotation is the identity exactly.
    """
    v = np.asarray(v, dtype=float)
    angle = row_norms(v)
    safe = np.where(angle > 0.0, angle, 1.0)
    s = np.sin(angle) / safe
    c = (1.0 - np.cos(angle)) / (safe * safe)
    k = skew(v)
    return _EYE3 + s[..., None, None] * k + c[..., None, None] * (k @ k)


def log_rotation(r: np.ndarray) -> np.ndarray:
    """Principal rotation vector of each rotation matrix, norm in [0, pi]:
    (..., 3, 3) -> (..., 3).

    Up to pi/2 (trace >= 1) it is a / (2 sin(a)) times the skew part
    w = 2 sin(a) e, and w / 2 where the arccos'd angle a is 0.  Above pi/2,
    where that division loses the axis, Shepperd's method (J. Guidance and
    Control 1(3), 1978) takes the row of 4 q q^T with the largest diagonal
    entry, q = [q_w | q_v] the quaternion of r, with q_w >= 0, and returns
    2 atan2(|q_v|, q_w) q_v / |q_v|.  Where |w| <= 1e-9 the axis sign is
    ambiguous, and the representative whose first nonzero component is
    positive is returned.
    """
    r = np.asarray(r, dtype=float)
    # The trace, and w = [r21 - r12, r02 - r20, r10 - r01] (_SKEW_PART), from the flat entries.
    flat = r.reshape(r.shape[:-2] + (9,))
    trace = flat[..., 0] + flat[..., 4] + flat[..., 8]
    angle = np.arccos(np.minimum(np.maximum((trace - 1.0) / 2.0, -1.0), 1.0))
    w = flat.take(_SKEW_PART[0], axis=-1) - flat.take(_SKEW_PART[1], axis=-1)
    nonzero = angle > 0.0
    half_cosec = np.where(nonzero, angle, 1.0) / np.where(nonzero, 2.0 * np.sin(angle), 2.0)
    out = half_cosec[..., None] * w
    wide = trace < 1.0
    if not np.count_nonzero(wide):
        return out
    m, tr, w = flat[wide], np.asarray(trace)[wide, None], w[wide]
    g = m.take(_SHEPPERD_GATHER, axis=1)
    entries = np.concatenate([1.0 + tr, w, 1.0 + 2.0 * g[:, :3] - tr, g[:, 3:6] + g[:, 6:]], axis=1)
    rows = np.arange(tr.shape[0])
    q = entries[rows[:, None], _QUATERNION_ROWS[entries[:, _QUATERNION_ROWS.diagonal()].argmax(1)]]
    qv, norm = q[:, 1:], row_norms(q[:, 1:])
    # The sign of q_w, or, where |w| <= 1e-9, of the first nonzero q_v entry.
    first = qv[rows, (qv != 0.0).argmax(1)]
    sign = np.where(row_norms(w) > 1e-9, q[:, 0], first)
    scale = np.copysign(2.0 * np.arctan2(norm, np.abs(q[:, 0])) / norm, sign)
    out[wide] = scale[:, None] * qv
    return out


class Pose:
    """Rigid transform, or a stack of them: rotations ``r`` (..., 3, 3) and
    translations ``t`` (..., 3), on which ``@``, ``inverse``, ``with_variation``
    and ``pose[index]`` act row by row.  Immutable, and not a pair to unpack."""

    __slots__ = ("r", "t")
    __iter__ = None

    def __init__(self, r, t):
        _set_r(self, np.asarray(r, dtype=float))
        _set_t(self, np.asarray(t, dtype=float))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{name!r} is read-only: a Pose is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # Pickle stores an array in C or Fortran order, and the rounding of a
        # product depends on the layout: a stack of transposed rotations
        # (inverse) travels as its transposes, so that a copy computes the same bits.
        if not self.r.flags.c_contiguous and self.r.swapaxes(-1, -2).flags.c_contiguous:
            return _transposed, (self.r.swapaxes(-1, -2), self.t)
        return Pose, (self.r, self.t)

    @staticmethod
    def identity() -> "Pose":
        return _pose(np.eye(3), np.zeros(3))

    @staticmethod
    def from_rotvec(v, t=(0.0, 0.0, 0.0)) -> "Pose":
        return Pose(exp_rotvec(v), t)

    @staticmethod
    def stack(poses, name="row {}:".format) -> "Pose":
        """(n, 3, 3) and (n, 3) stack of n single poses; ValueError naming the
        first row that is not one, as name(its index)."""
        rows = list(poses)
        try:
            r, t = np.array([p.r for p in rows]), np.array([p.t for p in rows])
            if rows and (r.shape[1:] != (3, 3) or t.shape[1:] != (3,)):
                raise ValueError("rows are not single poses")
        except ValueError:
            for i, p in enumerate(rows):
                single(p, name(i))
            raise
        return _pose(r.reshape(-1, 3, 3), t.reshape(-1, 3))

    def compose(self, other: "Pose") -> "Pose":
        return _pose(self.r @ other.r, (self.r @ other.t[..., None])[..., 0] + self.t)

    __matmul__ = compose

    def inverse(self) -> "Pose":
        rt = self.r.swapaxes(-1, -2)
        return _pose(rt, (-rt @ self.t[..., None])[..., 0])

    def with_variation(self, theta) -> "Pose":
        """self o T(theta), theta (..., 6), with T(theta) the exponential rotation
        and the additive translation: energies, constraints and updates differentiate it."""
        theta = np.asarray(theta, dtype=float)
        return self @ _pose(exp_rotvec(theta[..., :3]), theta[..., 3:])

    def __getitem__(self, index) -> "Pose":
        if self.t.ndim < 2:
            raise TypeError("a single pose has no rows")
        return _pose(self.r[index], self.t[index])

    def apply(self, points: np.ndarray) -> np.ndarray:
        """One point (3,) or points (n, 3) moved by a single pose."""
        single(self, "Pose.apply:")
        points = np.asarray(points, dtype=float)
        return points @ self.r.T + self.t


_set_r, _set_t = Pose.r.__set__, Pose.t.__set__


def _pose(r: np.ndarray, t: np.ndarray) -> Pose:
    """Pose of float arrays as they are, without Pose.__init__'s conversion."""
    p = object.__new__(Pose)
    _set_r(p, r)
    _set_t(p, t)
    return p


def _transposed(r: np.ndarray, t: np.ndarray) -> Pose:
    """Pose of the transposes of the rotations r (Pose.__reduce__)."""
    return Pose(np.swapaxes(r, -1, -2), t)


def single(pose: Pose, what: str) -> Pose:
    """``pose`` if it is one transform, else ValueError naming ``what``; values are not checked."""
    if pose.r.shape != (3, 3) or pose.t.shape != (3,):
        for part, value, shape in (("rotation", pose.r, (3, 3)), ("translation", pose.t, (3,))):
            if value.shape != shape:
                raise ValueError(f"{what} {part} has shape {value.shape}, not {shape}")
    return pose


def adjoint(p: Pose) -> np.ndarray:
    """6x6 adjoint projecting a variation between reference frames, of each
    row of a pose: (..., 6, 6).

    Block layout matches the [rot | trans] vector ordering:
    [[R, 0], [[t]x R, R]].
    """
    r, t = p.r, p.t
    ad = np.zeros(r.shape[:-2] + (6, 6))
    ad[..., :3, :3] = r
    ad[..., 3:, :3] = skew(t) @ r
    ad[..., 3:, 3:] = r
    return ad


def variation_matrix(v: np.ndarray) -> np.ndarray:
    """First-order change of a rotation vector under a subsequent rotation,
    for each row: (..., 3) -> (..., 3, 3).

    For r = a*e the matrix is
    (a/2)cot(a/2) I - (a/2)[e]x + (1 - (a/2)cot(a/2)) e e^T,
    reducing to the identity at a = 0.  Its transpose plays the same role
    for a preceding infinitesimal rotation.  Where a is 0, e = r/1 and
    (a/2)cot(a/2) is taken as 1: the identity, exactly.
    """
    v = np.asarray(v, dtype=float)
    angle = row_norms(v)
    nonzero = angle > 0.0
    safe = np.where(nonzero, angle, 1.0)
    half = angle / 2.0
    h = np.where(nonzero, half / np.tan(safe / 2.0), 1.0)
    e = v / safe[..., None]
    return (
        h[..., None, None] * _EYE3
        - half[..., None, None] * skew(e)
        + (1.0 - h)[..., None, None] * (e[..., :, None] * e[..., None, :])
    )
