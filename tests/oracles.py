"""Independent reference implementations used to check the library.

Rotations are cross-checked through quaternions, derivatives through central
finite differences, the tree Jacobians through a recursion over 6 x n_dof
joint selection matrices, registration through the closed-form Kabsch fit, the
sparse free-body KKT system through a dense one built from selection
Jacobians, the dense KKT solve through scipy.linalg.solve, the batched
convergence study through a trial-by-trial run of the scalar solver, and its
trial draws through a trial-by-trial build from each trial's own row of the
study's uniforms.  The stacked constraint kernel, the stacked tree layer
and the point-registration energy are checked against the per-object
formulas they replaced: one constraint, one body, one Pose,
one point at a time (`scalar_kkt`, `scalar_update`, `scalar_step`,
`point_registration_loop`).  The forest view's gathered assembly and the
band product are checked against the product path and the per-diagonal
loop they replaced (`assemble_by_products`, `band_product_by_diagonals`).  The SE(3) kernels must equal the scalar
formulas kept here (`skew`, `exp_rotvec`, `log_rotation`,
`variation_matrix`, `pose_with_variation`) bit for bit, and every
per-object oracle builds on these, not on the kernels under test.  These
scalar formulas are the kernels' formulas, one rotation at a time, so they
check the stacking, not the accuracy: that is checked against long double
references (`test_se3.py::TestAccuracy`), whose `log_rotation` shares no
formula with the kernel.
"""

import warnings

import numpy as np
import scipy.linalg

from multibody.constraints import Constraint, OrthogonalityConstraint
from multibody.energy import BodyEnergy, zero_energy
from multibody.experiments import TRIAL_UNIFORMS, random_spd
from multibody.kinematics import Body, Joint, KinematicStructure, axes_mask
from multibody.se3 import Pose, adjoint, row_norms
from multibody import solver
from multibody.solver import KktSystem, Regularization, SolverMode, solve_kkt


# The SE(3) formulas, one rotation at a time.  The library kernels must equal
# them bit for bit, and the per-object oracles below build on them, not on
# the kernels.

_EYE3 = np.eye(3)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]x such that skew(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def exp_rotvec(v: np.ndarray) -> np.ndarray:
    """Rotation matrix for an axis-angle vector (Rodrigues formula); the
    identity where the angle is 0."""
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v)
    s, c = 0.0, 0.0
    if angle > 0.0:
        s = np.sin(angle) / angle
        c = (1.0 - np.cos(angle)) / (angle * angle)
    k = skew(v)
    return _EYE3 + s * k + c * (k @ k)


def log_rotation(r: np.ndarray) -> np.ndarray:
    """Principal rotation vector of a rotation matrix, norm in [0, pi].

    Up to pi/2 (trace >= 1), a / (2 sin(a)) times the skew part w, or w / 2
    where the angle is 0.  Above, Shepperd's method: the row of 4 q q^T, q
    the quaternion, with the largest diagonal entry.  Where |w| <= 1e-9 the
    first nonzero component is made positive.
    """
    r = np.asarray(r, dtype=float)
    trace = np.trace(r)
    angle = np.arccos(min(max((trace - 1.0) / 2.0, -1.0), 1.0))
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if trace >= 1.0:
        return (angle / (2.0 * np.sin(angle)) if angle > 0.0 else 0.5) * w
    d = [1.0 + trace] + [1.0 + 2.0 * r[k, k] - trace for k in range(3)]
    qq = np.array(
        [
            [d[0], w[0], w[1], w[2]],
            [w[0], d[1], r[0, 1] + r[1, 0], r[0, 2] + r[2, 0]],
            [w[1], r[0, 1] + r[1, 0], d[2], r[1, 2] + r[2, 1]],
            [w[2], r[0, 2] + r[2, 0], r[1, 2] + r[2, 1], d[3]],
        ]
    )
    q = qq[int(np.argmax(d))]
    qv = q[1:]
    norm = np.linalg.norm(qv)
    # Signed as q_w, or, where |w| <= 1e-9, as the first nonzero q_v entry.
    sign = q[0] if np.linalg.norm(w) > 1e-9 else next(c for c in qv if c != 0.0)
    return np.copysign(2.0 * np.arctan2(norm, abs(q[0])) / norm, sign) * qv


def variation_matrix(v: np.ndarray) -> np.ndarray:
    """First-order change of a rotation vector under a subsequent rotation.

    For r = a*e the matrix is
    (a/2)cot(a/2) I - (a/2)[e]x + (1 - (a/2)cot(a/2)) e e^T,
    reducing to the identity at a = 0.  Its transpose plays the same role
    for a preceding infinitesimal rotation.
    """
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v)
    half = angle / 2.0
    h, e = 1.0, np.zeros(3)
    if angle > 0.0:
        h, e = half / np.tan(half), v / angle
    return h * _EYE3 - half * skew(e) + (1.0 - h) * (e[:, None] * e)


def pose_with_variation(pose: Pose, theta: np.ndarray) -> Pose:
    """Pose after applying a variation in its own model frame, pose o T(theta)
    with T(theta) the exponential rotation and the additive translation.

    Energies, constraints and updates all differentiate this map.
    """
    theta = np.asarray(theta, dtype=float)
    return pose @ Pose(exp_rotvec(theta[:3]), theta[3:].copy())


def quat_from_rotvec(v):
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v)
    if angle < 1e-300:
        return np.array([1.0, 0.0, 0.0, 0.0])
    axis = v / angle
    return np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis])


def rotmat_from_quat(q):
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


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


def pose_matrix(pose):
    """4 x 4 homogeneous matrix of a Pose."""
    m = np.eye(4)
    m[:3, :3] = pose.r
    m[:3, 3] = pose.t
    return m


def jacobian_factors(s, view):
    """The factors of a view's body Jacobians: the library's for the tree
    view (KinematicStructure.jacobian_factors), and for the forest view,
    which has none, those of identity Jacobians: no adjoint, since no body
    has a parent, and each coordinate's axis as its motion column."""
    if view is s.tree:
        return s.jacobian_factors()
    return np.zeros((0, 6, 6)), np.eye(6)[:, view.axis]


def body_jacobians(s, view=None):
    """Each body's 6 x n_dof Jacobian in the coordinates of a view (the
    tree view by default), (n, 6, n_dof), from the factors
    (jacobian_factors): the motion columns of the coordinates that move
    body i, moved into its model frame."""
    view = view or s.tree
    ad_inv = np.array([np.eye(6)] * len(s.bodies))
    ad_inv[view.children], motion = jacobian_factors(s, view)
    moves = np.zeros((len(s.bodies), view.n_dof), dtype=bool)
    moves[view.moving(np.arange(len(s.bodies)))] = True
    return (ad_inv @ motion) * moves[:, None, :]


def assemble_by_products(s, g, h, mode, regularization):
    """solver.assemble through the factors of the body Jacobians
    (jacobian_factors) in every view: adjoints, composite sums, motion
    columns and one product of every pair of coordinates, as the library
    assembled the forest view too before it gathered that view's entries."""
    g = np.array(g, dtype=float)
    with_rows = mode in (SolverMode.CONSTRAINED, SolverMode.COMBINED)
    rows = s.rows_at_poses()() if with_rows else solver._NO_ROWS
    view = s.tree if mode in (SolverMode.PROJECTED, SolverMode.COMBINED) else s.forest
    ad_inv, motion = jacobian_factors(s, view)
    inner = view.children
    h = 0.5 * (h + h.swapaxes(1, 2))
    g[inner] = (g[inner, None, :] @ ad_inv)[:, 0]
    h[inner] = ad_inv.swapaxes(1, 2) @ h[inner] @ ad_inv
    if view.links:
        g_c = view.subtree @ g
        h_c = (view.subtree @ h.reshape(-1, 36)).reshape(-1, 6, 6)
    else:
        g_c, h_c = g, h
    columns = motion.T
    g_k = np.einsum("ij,ij->i", g_c.take(view.body, axis=0), columns)
    hs = np.einsum("qij,qj->qi", h_c.take(view.body, axis=0), columns)
    p, q = view.pairs
    h_values = (columns @ hs.T).take(p * view.n_dof + q)
    reg = regularization
    h_values[view.diagonal] += np.where(view.axis < 3, reg.lambda_r, reg.lambda_t)
    pattern = solver._pattern(s, mode)
    derivatives = np.concatenate([rows.d_a, rows.d_b])
    moved = pattern.moved
    derivatives[moved] = (derivatives[moved, None, :] @ ad_inv[pattern.moved_rank])[:, 0]
    b_values = np.einsum(
        "ij,ij->i", derivatives.take(pattern.sides, axis=0), columns.take(pattern.coords, axis=0)
    )
    values = np.concatenate([h_values, h_values[view.mirrored], b_values, b_values])
    return KktSystem(pattern.matrix(values), g_k, rows.residual)


def band_product_by_diagonals(band, w, y):
    """A y for a band matrix in LAPACK band storage, half-bandwidth w: one
    diagonal d = -w .. w at a time, A[i, i + d] being band[2 w - d, i + d]."""
    dim = y.shape[0]
    product = np.zeros(dim)
    for d in range(-w, w + 1):
        rows = slice(max(0, -d), min(dim, dim - d))
        cols = slice(rows.start + d, rows.stop + d)
        product[rows] += band[2 * w - d, cols] * y[cols]
    return product


def rows_jacobian(rows, jacobians):
    """Constraint rows w.r.t. the joint coordinates, chained through the
    (n, 6, n_dof) body Jacobians: d_a J_a + d_b J_b."""
    m = rows.d_a.shape[0]
    return (
        rows.d_a[:, None, :] @ jacobians[rows.stack.sides[:m]]
        + rows.d_b[:, None, :] @ jacobians[rows.stack.sides[m:]]
    )[:, 0]


def expand_joint_variation(joint, theta_j):
    """Extended 6-vector with joint values on free axes, zeros on fixed ones."""
    theta_j = np.atleast_1d(np.asarray(theta_j, dtype=float))
    n_dof = np.count_nonzero(joint.free_axes)
    if theta_j.shape != (n_dof,):
        raise ValueError(f"joint variation has length {theta_j.shape[0]}, expected {n_dof}")
    extended = np.zeros(6)
    extended[joint.free_axes] = theta_j
    return extended


def variation_transform(theta):
    """T(theta): exponential rotation, additive translation."""
    theta = np.asarray(theta, dtype=float)
    return Pose(exp_rotvec(theta[:3]), theta[3:].copy())


def relative_variation(reference, varied):
    """Variation theta with varied == reference o T(theta) (exact inverse)."""
    rel = reference.inverse() @ varied
    return np.concatenate([log_rotation(rel.r), rel.t])


def pose_target_energy(target, weight_r, weight_t, pose):
    """Gradient and Gauss-Newton Hessian of quadratic_pose_target at one
    pose, by the scalar formula the stacked kernel replaced."""
    scale_r = 2.0 * weight_r
    scale_t = 2.0 * weight_t
    g = np.zeros(6)
    h = np.zeros((6, 6))
    r0 = log_rotation(target.r.T @ pose.r)
    cmat = variation_matrix(r0)
    g[:3] = scale_r * r0
    h[:3, :3] = scale_r * (cmat @ cmat.T)
    g[3:] = scale_t * (pose.r.T @ (pose.t - target.t))
    h[(3, 4, 5), (3, 4, 5)] = scale_t
    return BodyEnergy(g, h)


def point_registration_loop(model_points, observed_points, pose):
    """Gradient and Gauss-Newton Hessian of point_registration_energy at one
    pose, one point at a time, as the library computed them before it
    stacked the points."""
    g = np.zeros(6)
    h = np.zeros((6, 6))
    for x, y in zip(model_points, observed_points):
        residual = pose.apply(x) - y
        jac = np.hstack([-pose.r @ skew(x), pose.r])
        g += 2.0 * jac.T @ residual
        h += 2.0 * jac.T @ jac
    return BodyEnergy(g, h)


def stacked_energies(energies):
    """The (n, 6) gradients and (n, 6, 6) Hessians of a list of BodyEnergy,
    as assemble takes them."""
    return (
        np.array([e.g for e in energies]).reshape(-1, 6),
        np.array([e.h for e in energies]).reshape(-1, 6, 6),
    )


def evaluate_quadratic_target(pose, target, weight_r=1.0, weight_t=1.0):
    """Scalar energy matching quadratic_pose_target; handy for decrease checks."""
    r0 = log_rotation(target.r.T @ pose.r)
    return weight_r * float(r0 @ r0) + weight_t * float(
        (pose.t - target.t) @ (pose.t - target.t)
    )


def n_vertices(mesh):
    return mesh.vertices.shape[0]


def relative_constraint_pose(c, s):
    """Transform from frame B into frame A given current body poses."""
    pose_a = s.bodies[c.body_a].pose
    pose_b = s.bodies[c.body_b].pose
    return c.frame_a @ pose_a.inverse() @ pose_b @ c.frame_b.inverse()


def constraint_residual(c, s):
    """Residual of one constraint of either type, one Pose at a time."""
    a_t_b = relative_constraint_pose(c, s)
    if isinstance(c, OrthogonalityConstraint):
        return np.array([a_t_b.r[0, 1], a_t_b.r[1, 2], a_t_b.r[2, 0]])
    extended = np.concatenate([log_rotation(a_t_b.r), a_t_b.t])
    return extended[c.constrained_axes]


def n_rows(c):
    """Number of residual rows of a constraint."""
    if isinstance(c, OrthogonalityConstraint):
        return 3
    return int(np.count_nonzero(c.constrained_axes))


def constraint_variation_blocks(c, s):
    """Residual-row derivatives of one constraint w.r.t. the 6-DoF
    variations of body_a and body_b (in their own model frames), each
    n_rows x 6, one Pose at a time."""
    pose_a = s.bodies[c.body_a].pose
    pose_b = s.bodies[c.body_b].pose
    a_t_b = relative_constraint_pose(c, s)
    r_a_ma = c.frame_a.r
    r_a_mb = (c.frame_a @ pose_a.inverse() @ pose_b).r
    if isinstance(c, OrthogonalityConstraint):
        da = np.zeros((3, 6))
        db = np.zeros((3, 6))
        for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
            cross = skew(a_t_b.r @ np.eye(3)[j])
            da[k, :3] = np.eye(3)[i] @ cross @ r_a_ma
            db[k, :3] = -np.eye(3)[i] @ cross @ r_a_mb
        return da, db
    cmat = variation_matrix(log_rotation(a_t_b.r))
    ma_t_b = c.frame_a.inverse() @ a_t_b
    mb_t_b = c.frame_b.inverse()

    da = np.zeros((6, 6))
    da[:3, :3] = -cmat @ r_a_ma
    da[3:, :3] = r_a_ma @ skew(ma_t_b.t)
    da[3:, 3:] = -r_a_ma

    db = np.zeros((6, 6))
    db[:3, :3] = cmat @ r_a_mb
    db[3:, :3] = -r_a_mb @ skew(mb_t_b.t)
    db[3:, 3:] = r_a_mb
    return da[c.constrained_axes], db[c.constrained_axes]


def constraint_jacobian(c, s):
    """Rows of one constraint w.r.t. the joint coordinates, chained through
    the recursive body Jacobians."""
    jacobians = selection_body_jacobians(s)
    da, db = constraint_variation_blocks(c, s)
    return da @ jacobians[c.body_a] + db @ jacobians[c.body_b]


def selection_body_jacobians(s):
    """Body Jacobians by the tree recursion with each joint's motion
    subspace as a 6 x n_dof selection matrix E:
    J = Ad(M_T_P) J_parent + Ad(M_T_J) E at the body's offset, with J_T_M
    read from the structure's store."""
    jacobians, joint_to_model = [], s.rows_at_poses().frames()["joint_to_model"]
    for i, (body, off) in enumerate(zip(s.bodies, s.dof_offsets)):
        n_dof = np.count_nonzero(body.joint.free_axes)
        expansion = np.zeros((6, n_dof))
        expansion[np.flatnonzero(body.joint.free_axes), np.arange(n_dof)] = 1.0
        jac = np.zeros((6, s.n_dof))
        if body.parent is not None:
            m_t_p = body.pose.inverse() @ s.bodies[body.parent].pose
            jac += adjoint(m_t_p) @ jacobians[body.parent]
        if n_dof > 0:
            ad_m_t_j = adjoint(joint_to_model[i].inverse())
            jac[:, off : off + n_dof] += ad_m_t_j @ expansion
        jacobians.append(jac)
    return jacobians


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
        da, db = constraint_variation_blocks(c, s)
        b_mat = np.vstack([b_mat, da @ sel[c.body_a] + db @ sel[c.body_b]])
        b_vec = np.concatenate([b_vec, constraint_residual(c, s)])
    return h, g, b_mat, b_vec


def scalar_kkt(s, energies, mode, regularization):
    """Dense (H, g, B, b) of any mode, one body and one constraint at a
    time: selection Jacobians in the free-body modes, the recursive tree
    Jacobians in the tree modes."""
    constraints = s.constraints if mode in (SolverMode.CONSTRAINED, SolverMode.COMBINED) else []
    reg = [regularization.lambda_r] * 3 + [regularization.lambda_t] * 3
    if mode in (SolverMode.INDEPENDENT, SolverMode.CONSTRAINED):
        return selection_kkt(s, energies, constraints, reg)
    jacobians = selection_body_jacobians(s)
    h = sum(j.T @ e.h @ j for j, e in zip(jacobians, energies))
    h = h + np.diag([reg[a] for b in s.bodies for a in np.flatnonzero(b.joint.free_axes)])
    g = sum(j.T @ e.g for j, e in zip(jacobians, energies))
    b_mat = np.zeros((0, s.n_dof))
    b_vec = np.zeros(0)
    for c in constraints:
        b_mat = np.vstack([b_mat, constraint_jacobian(c, s)])
        b_vec = np.concatenate([b_vec, constraint_residual(c, s)])
    return h, g, b_mat, b_vec


def _orthonormalized(pose):
    r = pose.r
    return Pose(r @ (3.0 * np.eye(3) - r.T @ r) * 0.5, pose.t)


def detached(s, **rows):
    """Copies of the bodies of s that no structure has adopted, with the
    same state but for ``rows``: pose={i: pose} puts pose in row i of the
    pose stack, and joint_to_model={i: p} or parent_to_joint={i: p} gives
    body i a joint with the same free axes that fixes that transform, p.
    The other bodies keep their joints, frozen records."""
    def joint(i, old):
        sides = ("joint_to_model", "parent_to_joint")
        given = {side: rows[side][i] for side in sides if i in rows.get(side, {})}
        return Joint(old.free_axes, **given) if given else old

    return [
        Body(b.name, joint(i, b.joint), rows.get("pose", {}).get(i, b.pose), b.parent)
        for i, b in enumerate(s.bodies)
    ]


def joint_transforms(bodies):
    """Each body's (P_T_J, J_T_M), one joint at a time, from un-adopted
    bodies: the transform its joint fixes, and the other from the body's
    pose relative to its parent, rel = parent^-1 o pose, one polar step
    from orthonormal.  A root's is (I, J_T_M)."""
    transforms = []
    for body in bodies:
        joint = body.joint
        if body.parent is None:
            transforms.append((Pose.identity(), joint.joint_to_model))
            continue
        rel = bodies[body.parent].pose.inverse() @ body.pose
        if joint.parent_to_joint is None:
            parent_to_joint = _orthonormalized(rel @ joint.joint_to_model.inverse())
            transforms.append((parent_to_joint, joint.joint_to_model))
        else:
            joint_to_model = _orthonormalized(joint.parent_to_joint.inverse() @ rel)
            transforms.append((joint.parent_to_joint, joint_to_model))
    return transforms


def scalar_update(s, theta, mode):
    """Pose update one body at a time: pose o T(theta_i) in the free-body
    modes, the recursion over parents in the tree modes.  It works on
    detached copies of the bodies of s and returns a new structure with the
    updated state and the constraints of s."""
    bodies = detached(s)
    if mode in (SolverMode.INDEPENDENT, SolverMode.CONSTRAINED):
        for i, body in enumerate(bodies):
            body.pose = pose_with_variation(body.pose, theta[6 * i : 6 * i + 6])
    else:
        transforms = joint_transforms(bodies)
        for body, off, (p_t_j, j_t_m) in zip(bodies, s.dof_offsets, transforms):
            n_dof = np.count_nonzero(body.joint.free_axes)
            extended = expand_joint_variation(body.joint, theta[off : off + n_dof])
            motion = pose_with_variation(j_t_m.inverse(), extended) @ j_t_m
            if body.parent is None:
                body.pose = body.pose @ motion
            else:
                body.pose = bodies[body.parent].pose @ p_t_j @ j_t_m @ motion
    return KinematicStructure(bodies, s.constraints)


def scalar_step(s, provider, mode, regularization=None):
    """One Newton step through scalar_kkt, the library's dense solve and
    scalar_update; returns the stepped structure, theta and lambda."""
    regularization = regularization or Regularization()
    energies = [provider(i, body.pose) for i, body in enumerate(s.bodies)]
    theta, lam = solve_kkt(
        KktSystem.from_blocks(*scalar_kkt(s, energies, mode, regularization))
    )
    return scalar_update(s, theta, mode), theta, lam


def kkt_dimension(mode, n_bodies):
    """Size of the saddle-point system of build_serial_chain(n_bodies)."""
    if mode is SolverMode.PROJECTED:
        return 6 + (n_bodies - 1)
    if mode is SolverMode.CONSTRAINED:
        return 6 * n_bodies + 5 * (n_bodies - 1)
    raise ValueError(f"scaling study covers projected/constrained, not {mode}")


def solve_dense_kkt(h, g, b_mat, b_vec):
    """theta, lambda of [[H, B^T], [B, 0]] [theta; lambda] = -[g; b]."""
    n = g.shape[0]
    m = b_vec.shape[0]
    kkt = np.block([[0.5 * (h + h.T), b_mat.T], [b_mat, np.zeros((m, m))]])
    x = np.linalg.solve(kkt, -np.concatenate([g, b_vec]))
    return x[:n], x[n:]


def scipy_symmetric_solve(kkt, rhs):
    """x of kkt x = rhs, alone or stacked, by scipy.linalg.solve with
    assume_a="sym": the dense solve that solver._dense_solve calls LAPACK
    for directly.  scipy divides whenever its input has exactly one entry,
    a stack of one 1 x 1 system included, where the solver factors and
    solves every system: so a lone 1 x 1 system is solved stacked twice,
    and row 0 taken.  Its condition-number warning is dropped."""
    if kkt.size == 1:
        return scipy_symmetric_solve(np.stack([kkt, kkt]), np.stack([rhs, rhs]))[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return scipy.linalg.solve(kkt, rhs[..., None], assume_a="sym")[..., 0]


def random_unit_vector(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def study_block(n_trials, seed):
    """The convergence study's uniforms: row t is trial t's."""
    return np.random.default_rng(seed).random((n_trials, TRIAL_UNIFORMS))


def row_vector(row, pose, part, bound):
    """Vector ``part`` (0 rotation, 1 translation) of pose ``pose`` of a
    (1, TRIAL_UNIFORMS) row, as a one-row stack: its three uniforms at
    6 pose + 3 part give the signed length on [-bound, bound] and the
    direction z = 1 - 2u, phi = 2 pi u'."""
    length, z, phi = (row[:, 6 * pose + 3 * part + i] for i in range(3))
    z, phi = 1.0 - 2.0 * z, 2.0 * np.pi * phi
    sin_polar = np.sqrt(1.0 - z * z)
    direction = np.stack([sin_polar * np.cos(phi), sin_polar * np.sin(phi), z], axis=-1)
    return (bound * (2.0 * length - 1.0))[:, None] * direction


def row_poses(row, kind, equal_frames):
    """frame_a, frame_b, pose_a and pose_b of one row as one-row Pose
    stacks: poses p = 0-3, frame_a, frame_b, diff and pose_a, each from its
    rotation vector and translation where the kind uses them and, for the
    frames, without ``equal_frames``; pose_b from them."""
    rotation = kind != "trans"
    translation = kind in ("trans", "full")
    poses = []
    for pose in range(4):
        sampled = pose >= 2 or not equal_frames
        rotvec = row_vector(row, pose, 0, np.pi) if sampled and rotation else np.zeros((1, 3))
        t = row_vector(row, pose, 1, 1.0) if sampled and translation else np.zeros((1, 3))
        poses.append(Pose(exp_rotvec(rotvec[0])[None], t))
    frame_a, frame_b, diff, pose_a = poses
    # diff = frame_a o pose_a^-1 o pose_b o frame_b^-1, solved for pose_b.
    return frame_a, frame_b, pose_a, pose_a @ frame_a.inverse() @ diff @ frame_b


def row_energies(row):
    """Gradients (1, 2, 6) and SPD Hessians (1, 2, 6, 6) of one row: the
    Box-Muller pairs j at 24 + 2j and 25 + 2j give normals 2j and 2j + 1;
    normals 0-11 are the gradients, the rest the two matrices a of
    random_spd, body by body."""
    normals = []
    for j in range(42):
        u, v = row[:, 24 + 2 * j], row[:, 25 + 2 * j]
        radius, angle = np.sqrt(-2.0 * np.log1p(-u)), 2.0 * np.pi * v
        normals += [radius * np.cos(angle), radius * np.sin(angle)]
    normals = np.stack(normals, axis=-1)
    gradients = normals[:, :12].reshape(1, 2, 6)
    matrices = normals[:, 12:].reshape(1, 2, 6, 6)
    hessians = [random_spd(matrices[:, body]) for body in range(2)]
    return gradients, np.stack(hessians, axis=1)


def sample_trials_by_row(kind, n_trials, seed, equal_frames=False, random_energy=False):
    """experiments.sample_trials trial by trial: each trial built from its
    row of study_block through one-row stacks, then stacked."""
    trials = []
    block = study_block(n_trials, seed)
    for trial in range(n_trials):
        row = block[[trial]]
        energies = (np.zeros((1, 2, 6)), np.zeros((1, 2, 6, 6)))
        if random_energy:
            energies = row_energies(row)
        trials.append(row_poses(row, kind, equal_frames) + energies)
    poses = [
        Pose(np.concatenate([t[i].r for t in trials]), np.concatenate([t[i].t for t in trials]))
        for i in range(4)
    ]
    return (*poses, *(np.concatenate([t[i] for t in trials]) for i in (4, 5)))


def two_body_structure(kind, row, equal_frames):
    """Two unconnected free bodies, restricted to the kind's axes, with the
    requested constraint between the row's frames, starting from its
    initial pose difference."""
    frame_a, frame_b, pose_a, pose_b = (pose[0] for pose in row_poses(row, kind, equal_frames))
    if kind in ("rotvec", "ortho"):
        axes = axes_mask(["rot_x", "rot_y", "rot_z"])
    elif kind == "trans":
        axes = axes_mask(["trans_x", "trans_y", "trans_z"])
    else:
        axes = np.ones(6, dtype=bool)
    if kind == "ortho":
        constraint = OrthogonalityConstraint(0, 1, frame_a, frame_b)
    else:
        constraint = Constraint(0, 1, frame_a, frame_b, axes.copy())
    bodies = [
        Body(name="a", joint=Joint(free_axes=axes.copy()), pose=pose_a),
        Body(name="b", joint=Joint(free_axes=axes.copy()), pose=pose_b),
    ]
    return KinematicStructure(bodies, [constraint]), constraint


def pose_difference(constraint, s):
    rel = relative_constraint_pose(constraint, s)
    return float(np.linalg.norm(log_rotation(rel.r))), float(np.linalg.norm(rel.t))


def scalar_convergence_errors(
    n_trials, n_iterations, kind, seed=0, random_energy=False, equal_frames=False
):
    """Rotation and translation errors (n_trials, n_iterations + 1) of the
    convergence study, one trial at a time through combined-mode
    scalar_step calls on a KinematicStructure."""
    rot_errors = np.zeros((n_trials, n_iterations + 1))
    trans_errors = np.zeros((n_trials, n_iterations + 1))
    block = study_block(n_trials, seed)
    for trial in range(n_trials):
        s, constraint = two_body_structure(kind, block[[trial]], equal_frames)
        if random_energy:
            gradients, hessians = row_energies(block[[trial]])
            energies = [BodyEnergy(gradients[0, i], hessians[0, i]) for i in range(2)]
            provider = lambda i, pose: energies[i]  # noqa: E731
        else:
            provider = zero_energy
        rot_errors[trial, 0], trans_errors[trial, 0] = pose_difference(constraint, s)
        for it in range(1, n_iterations + 1):
            s = scalar_step(s, provider, SolverMode.COMBINED)[0]
            rot_errors[trial, it], trans_errors[trial, it] = pose_difference(
                constraint, s
            )
    return rot_errors, trans_errors
