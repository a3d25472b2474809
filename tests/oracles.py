"""Independent reference implementations used to check the library.

Rotations are cross-checked through quaternions, derivatives through central
finite differences, registration through the closed-form Kabsch fit, and the
sparse free-body KKT system through a dense one built from selection
Jacobians.
"""

import numpy as np


def quat_from_rotvec(v):
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v)
    if angle < 1e-300:
        return np.array([1.0, 0.0, 0.0, 0.0])
    axis = v / angle
    return np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis])


def quat_mul(q1, q2):
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def rotmat_from_quat(q):
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotvec_from_quat(q):
    q = q / np.linalg.norm(q)
    if q[0] < 0:
        q = -q
    sin_half = np.linalg.norm(q[1:])
    if sin_half < 1e-300:
        return np.zeros(3)
    angle = 2.0 * np.arctan2(sin_half, q[0])
    return angle * q[1:] / sin_half


def compose_rotvecs_quat(a, b):
    """Principal-branch rotation vector of exp(a) exp(b) through quaternions."""
    return rotvec_from_quat(quat_mul(quat_from_rotvec(a), quat_from_rotvec(b)))


def random_rotvec(rng, max_angle=np.pi):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return rng.uniform(0.0, max_angle) * axis


def numeric_jacobian(f, x, eps=1e-6):
    """Central finite differences of a vector function of a vector."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(f(x))
    jac = np.zeros((f0.shape[0], x.shape[0]))
    for k in range(x.shape[0]):
        dx = np.zeros_like(x)
        dx[k] = eps
        jac[:, k] = (np.atleast_1d(f(x + dx)) - np.atleast_1d(f(x - dx))) / (2 * eps)
    return jac


def numeric_hessian(f, x, eps=1e-4):
    """Central finite-difference Hessian of a scalar function."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            dxi = np.zeros(n)
            dxj = np.zeros(n)
            dxi[i] = eps
            dxj[j] = eps
            h[i, j] = (
                f(x + dxi + dxj) - f(x + dxi - dxj) - f(x - dxi + dxj) + f(x - dxi - dxj)
            ) / (4 * eps * eps)
    return 0.5 * (h + h.T)


def kabsch(p, q):
    """Rotation and translation minimizing |R p_i + t - q_i|^2."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pc = p - p.mean(axis=0)
    qc = q - q.mean(axis=0)
    u, _, vt = np.linalg.svd(pc.T @ qc)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = q.mean(axis=0) - r @ p.mean(axis=0)
    return r, t


def brute_force_add(vertices, rel_matrix):
    total = 0.0
    for v in vertices:
        moved = rel_matrix[:3, :3] @ v + rel_matrix[:3, 3]
        total += np.linalg.norm(moved - v)
    return total / len(vertices)


def brute_force_add_s(vertices, rel_matrix):
    moved = [rel_matrix[:3, :3] @ v + rel_matrix[:3, 3] for v in vertices]
    total = 0.0
    for v in vertices:
        total += min(np.linalg.norm(m - v) for m in moved)
    return total / len(vertices)


def selection_kkt(s, energies, constraints, reg_diag):
    """Dense free-body KKT blocks (H, g, B, b) from 6 x 6n selection
    Jacobians S_i: H = sum S_i^T H_i S_i + diag, g = sum S_i^T g_i and
    B = da S_a + db S_b per constraint, over the constraints' own 6-DoF
    variation blocks and residuals."""
    n = 6 * len(s.bodies)
    sel = [np.eye(6, n, 6 * i) for i in range(len(s.bodies))]
    h = sum(j.T @ e.h @ j for j, e in zip(sel, energies))
    h = h + np.diag(np.tile(reg_diag, len(s.bodies)))
    g = sum(j.T @ e.g for j, e in zip(sel, energies))
    b_mat = np.zeros((0, n))
    b_vec = np.zeros(0)
    for c in constraints:
        da, db = c.variation_blocks(s)
        b_mat = np.vstack([b_mat, da @ sel[c.body_a] + db @ sel[c.body_b]])
        b_vec = np.concatenate([b_vec, c.residual(s)])
    return h, g, b_mat, b_vec


def solve_dense_kkt(h, g, b_mat, b_vec):
    """theta, lambda of [[H, B^T], [B, 0]] [theta; lambda] = -[g; b]."""
    n = g.shape[0]
    m = b_vec.shape[0]
    kkt = np.block([[0.5 * (h + h.T), b_mat.T], [b_mat, np.zeros((m, m))]])
    x = np.linalg.solve(kkt, -np.concatenate([g, b_vec]))
    return x[:n], x[n:]
