"""Independent reference implementations used to check the library.

Rotations are cross-checked through quaternions, derivatives through central
finite differences, the tree Jacobians through a recursion over 6 x n_dof
joint selection matrices, registration through the closed-form Kabsch fit, the
sparse free-body KKT system through a dense one built from selection
Jacobians, and the batched convergence study through a trial-by-trial run of
the scalar solver.  The stacked constraint kernel and the stacked tree layer
are checked against the per-object formulas they replaced: one constraint,
one body, one Pose at a time (`scalar_kkt`, `scalar_update`, `scalar_step`).
"""

import numpy as np

from multibody.constraints import Constraint, OrthogonalityConstraint
from multibody.energy import BodyEnergy, zero_energy
from multibody.experiments import random_spd
from multibody.kinematics import Body, FixedSide, Joint, KinematicStructure, axes_mask
from multibody.se3 import (
    Pose,
    adjoint,
    exp_rotvec,
    log_rotation,
    pose_with_variation,
    skew,
    variation_matrix,
)
from multibody.solver import KktSystem, Regularization, SolverMode, solve_kkt


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


def body_jacobians(s, view=None):
    """Each body's 6 x n_dof Jacobian in the coordinates of a view (the
    tree view by default), (n, 6, n_dof), from the library's factors:
    the motion columns of the coordinates that move body i, moved into its
    model frame."""
    view = view or s.tree
    ad_inv = np.array([np.eye(6)] * len(s.bodies))
    ad_inv[view.children], motion = s.jacobian_factors(view)
    return (ad_inv @ motion) * view.moves[:, None, :]


def rows_jacobian(rows, jacobians):
    """Constraint rows w.r.t. the joint coordinates, chained through the
    (n, 6, n_dof) body Jacobians: d_a J_a + d_b J_b."""
    return (
        rows.d_a[:, None, :] @ jacobians[rows.body_a]
        + rows.d_b[:, None, :] @ jacobians[rows.body_b]
    )[:, 0]


def expand_joint_variation(joint, theta_j):
    """Extended 6-vector with joint values on free axes, zeros on fixed ones."""
    theta_j = np.atleast_1d(np.asarray(theta_j, dtype=float))
    if theta_j.shape != (joint.n_dof,):
        raise ValueError(
            f"joint variation has length {theta_j.shape[0]}, expected {joint.n_dof}"
        )
    extended = np.zeros(6)
    extended[joint.free] = theta_j
    return extended


def variation_transform(theta):
    """T(theta): exponential rotation, additive translation."""
    theta = np.asarray(theta, dtype=float)
    return Pose(exp_rotvec(theta[:3]), theta[3:].copy())


def relative_variation(reference, varied):
    """Variation theta with varied == reference o T(theta) (exact inverse)."""
    rel = reference.inverse() @ varied
    return np.concatenate([log_rotation(rel.r), rel.t])


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
    J = Ad(M_T_P) J_parent + Ad(M_T_J) E at the body's offset."""
    jacobians = []
    for body, off in zip(s.bodies, s.dof_offsets):
        n_dof = body.joint.n_dof
        expansion = np.zeros((6, n_dof))
        expansion[np.flatnonzero(body.joint.free_axes), np.arange(n_dof)] = 1.0
        jac = np.zeros((6, s.n_dof))
        if body.parent is not None:
            m_t_p = body.pose.inverse() @ s.bodies[body.parent].pose
            jac += adjoint(m_t_p) @ jacobians[body.parent]
        if n_dof > 0:
            ad_m_t_j = adjoint(body.joint.joint_to_model.inverse())
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
    h = h + np.diag([reg[a] for b in s.bodies for a in b.joint.free])
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


def scalar_refresh(s):
    """Re-infer the non-fixed joint transforms, one joint at a time."""
    for body in s.bodies:
        if body.parent is None:
            continue
        joint = body.joint
        parent_pose = s.bodies[body.parent].pose
        if joint.fixed_side is FixedSide.JOINT_TO_MODEL:
            joint.parent_to_joint = _orthonormalized(
                parent_pose.inverse() @ body.pose @ joint.joint_to_model.inverse()
            )
        else:
            joint.joint_to_model = _orthonormalized(
                joint.parent_to_joint.inverse() @ parent_pose.inverse() @ body.pose
            )


def scalar_update(s, theta, mode):
    """Pose update one body at a time: pose o T(theta_i) in the free-body
    modes, the recursion over parents in the tree modes."""
    if mode in (SolverMode.INDEPENDENT, SolverMode.CONSTRAINED):
        for i, body in enumerate(s.bodies):
            body.pose = pose_with_variation(body.pose, theta[6 * i : 6 * i + 6])
    else:
        for body, off in zip(s.bodies, s.dof_offsets):
            joint = body.joint
            extended = expand_joint_variation(joint, theta[off : off + joint.n_dof])
            j_t_m = joint.joint_to_model
            motion = pose_with_variation(j_t_m.inverse(), extended) @ j_t_m
            if body.parent is None:
                body.pose = body.pose @ motion
            else:
                parent_pose = s.bodies[body.parent].pose
                body.pose = parent_pose @ joint.parent_to_joint @ j_t_m @ motion
    scalar_refresh(s)


def scalar_step(s, provider, mode, regularization=None):
    """One Newton step through scalar_kkt, the library's dense solve and
    scalar_update; returns theta and lambda."""
    regularization = regularization or Regularization()
    energies = [provider(i, body.pose) for i, body in enumerate(s.bodies)]
    theta, lam = solve_kkt(
        KktSystem.from_blocks(*scalar_kkt(s, energies, mode, regularization))
    )
    scalar_update(s, theta, mode)
    return theta, lam


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


def random_unit_vector(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def sample_rotvec(rng):
    """Axis uniform on the sphere, signed length uniform on [-pi, pi]."""
    return rng.uniform(-np.pi, np.pi) * random_unit_vector(rng)


def sample_translation(rng):
    """Axis uniform on the sphere, signed length uniform on [-1, 1] meters."""
    return rng.uniform(-1.0, 1.0) * random_unit_vector(rng)


def two_body_structure(kind, rng, equal_frames):
    """Two unconnected free bodies, restricted to the kind's axes, with the
    requested constraint between random frames, starting from a sampled
    initial pose difference."""
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
    else:
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

    # diff = frame_a o pose_a^-1 o pose_b o frame_b^-1, solved for pose_b.
    pose_b = pose_a @ frame_a.inverse() @ diff @ frame_b

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
    for trial in range(n_trials):
        rng = np.random.default_rng([seed, trial])
        s, constraint = two_body_structure(kind, rng, equal_frames)
        if random_energy:
            energies = [
                BodyEnergy(rng.standard_normal(6), random_spd(rng))
                for _ in s.bodies
            ]
            provider = lambda i, pose: energies[i]  # noqa: E731
        else:
            provider = zero_energy
        rot_errors[trial, 0], trans_errors[trial, 0] = pose_difference(constraint, s)
        for it in range(1, n_iterations + 1):
            scalar_step(s, provider, SolverMode.COMBINED)
            rot_errors[trial, it], trans_errors[trial, it] = pose_difference(
                constraint, s
            )
    return rot_errors, trans_errors
