"""Regularized Newton / KKT solver over a kinematic structure.

Four configurations are supported:

* independent: every body is optimized as a free 6-DoF pose, joints and
  constraints ignored.
* projected: the tree Jacobians project all measurements into the reduced
  joint coordinates; no constraint rows.
* constrained: free 6-DoF bodies coupled only through Lagrange-multiplier
  constraint rows.
* combined: tree projection plus constraint rows (closed chains).

Each step evaluates all energies and all constraints once, on stacks.  The
free-body modes (independent, constrained) scatter 6x6 energy blocks and
each constraint's two 6-column blocks into a block-sparse KKT matrix that
SuperLU factors.  The tree modes (projected, combined) assemble a small
dense KKT matrix in joint coordinates by composite-body sums and factor it
densely.  Dense systems of one size can also be solved as a stack in one
batched call.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .constraints import ConstraintRows, evaluate_constraints
from .energy import BodyEnergy
from .kinematics import KinematicStructure
from .se3 import pose_with_variation_stack


class SolverMode(enum.Enum):
    INDEPENDENT = "independent"
    PROJECTED = "projected"
    CONSTRAINED = "constrained"
    COMBINED = "combined"


# Modes where each body keeps its own 6-DoF block instead of joint coordinates.
_FREE_BODY_MODES = (SolverMode.INDEPENDENT, SolverMode.CONSTRAINED)
# Modes where constraint rows enter the system.
_CONSTRAINED_MODES = (SolverMode.CONSTRAINED, SolverMode.COMBINED)


class FactorizationFailed(RuntimeError):
    """KKT system could not be solved reliably (contradictory or duplicate
    constraints, or an indefinite reduced Hessian).

    ``system`` is the index of the first failing system of a stack, or None
    for a single system.
    """

    def __init__(self, message: str, system: int | None = None):
        super().__init__(message)
        self.system = system


@dataclass
class Regularization:
    lambda_r: float = 100.0
    lambda_t: float = 1000.0

    def __post_init__(self):
        if self.lambda_r < 0 or self.lambda_t < 0:
            raise ValueError("regularization parameters must be non-negative")


@dataclass
class SolverConfig:
    mode: SolverMode = SolverMode.PROJECTED
    iterations: int = 1
    regularization: Regularization = field(default_factory=Regularization)

    def __post_init__(self):
        if isinstance(self.mode, str):
            self.mode = SolverMode(self.mode)
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass
class KktSystem:
    """Saddle-point system [[H, B^T], [B, 0]] [theta; lam] = -[g; b].

    ``matrix`` is the whole symmetric KKT matrix: a scipy CSC matrix in the
    free-body modes, a dense array in the tree modes.  A dense system may
    carry a leading batch axis on every field: a stack of independent
    systems of one size.
    """

    matrix: np.ndarray | scipy.sparse.csc_array
    g_k: np.ndarray
    b_vec: np.ndarray

    @classmethod
    def from_blocks(cls, h_k, g_k, b_mat, b_vec) -> "KktSystem":
        """Dense system, or stack of them, from H (symmetrized here), g, B
        and b."""
        n = g_k.shape[-1]
        m = b_vec.shape[-1]
        kkt = np.zeros(g_k.shape[:-1] + (n + m, n + m))
        kkt[..., :n, :n] = 0.5 * (h_k + h_k.swapaxes(-1, -2))
        kkt[..., :n, n:] = b_mat.swapaxes(-1, -2)
        kkt[..., n:, :n] = b_mat
        return cls(kkt, g_k, b_vec)


@dataclass
class StepReport:
    """What one Newton step did.  Per-constraint lists follow
    ``s.constraints``; ``multipliers`` holds each constraint's Lagrange
    multipliers (its constraint force) in the constraint modes and is empty
    otherwise.  ``kkt_dim`` is the size of the solved system."""

    theta_norm: float
    residuals_before: list
    residuals_after: list
    multipliers: list
    kkt_dim: int


def assemble(
    s: KinematicStructure,
    energies: list[BodyEnergy],
    mode: SolverMode,
    regularization: Regularization | None = None,
    rows: ConstraintRows | None = None,
) -> KktSystem:
    """Gradient/Hessian plus regularization, and constraint rows in the
    constraint modes.  ``rows`` may hold the structure's constraints
    already evaluated with blocks.  Raises FactorizationFailed naming the
    first body whose energy is not finite."""
    if len(energies) != len(s.bodies):
        raise ValueError(
            f"got {len(energies)} energies for {len(s.bodies)} bodies"
        )
    g = np.array([e.g for e in energies])
    h = np.array([e.h for e in energies])
    finite = np.isfinite(g).all(axis=1) & np.isfinite(h).all(axis=(1, 2))
    if not finite.all():
        i = int(np.argmin(finite))
        raise FactorizationFailed(
            f"non-finite energy gradient or Hessian for body {i} ({s.bodies[i].name!r})"
        )
    if mode not in _CONSTRAINED_MODES:
        rows = evaluate_constraints([], s.bodies)
    elif rows is None:
        rows = evaluate_constraints(s.constraints, s.bodies)
    if mode in _FREE_BODY_MODES:
        return _assemble_free_bodies(g, h, rows, regularization)
    return _assemble_tree(s, g, h, rows, regularization)


def _assemble_tree(s, g, h, rows, regularization) -> KktSystem:
    """Dense system in joint coordinates, H = sum J_i^T H_i J_i, by
    composite-body sums (Featherstone's composite rigid body algorithm).

    With J_i = Ad(pose_i^-1) (S o anc_i), body i's energy moved into the
    world frame acts on every joint coordinate above it.  Summing the world
    energies over each body's subtree gives H[p, q] = S_p^T Hc S_q, with
    Hc the sum over the subtree of the deeper of the two coordinates'
    bodies, and zero where neither body is above the other.  Constraint rows
    chain through the body Jacobians.
    """
    factors = ad_inv, motion = s.jacobian_factors()
    n = g.shape[0]
    g_c = s.subtree @ (g[:, None, :] @ ad_inv)[:, 0]
    h = 0.5 * (h + h.swapaxes(1, 2))
    h_c = (s.subtree @ (ad_inv.swapaxes(1, 2) @ h @ ad_inv).reshape(n, 36)).reshape(n, 6, 6)
    columns = motion.T
    g_k = (g_c[s.dof_body] * columns).sum(axis=1)
    p = columns @ (h_c[s.dof_body] @ columns[:, :, None])[:, :, 0].T
    h_k = np.where(s.dof_below, p, np.where(s.dof_below.T, p.T, 0.0))
    if regularization is not None:
        diag = np.where(s.dof_axis < 3, regularization.lambda_r, regularization.lambda_t)
        h_k[np.diag_indices(s.n_dof)] += diag
    b_mat = rows.jacobian(s.body_jacobians(factors)) if rows.residual.size else np.zeros((0, s.n_dof))
    return KktSystem.from_blocks(h_k, g_k, b_mat, rows.residual)


_BLOCK = np.arange(6)


def _assemble_free_bodies(g, h, rows, regularization) -> KktSystem:
    """Sparse system over one 6-DoF block per body.

    H is block diagonal, and each constraint row touches only the 12
    columns of its two bodies, so the blocks are scattered straight into
    one COO matrix, with B and B^T sharing index arrays and values.
    """
    n = g.size
    if regularization is not None:
        h = h + np.diag(np.repeat([regularization.lambda_r, regularization.lambda_t], 3))
    h = 0.5 * (h + h.transpose(0, 2, 1))
    start = 6 * np.arange(g.shape[0])[:, None, None]
    h_rows = np.broadcast_to(start + _BLOCK[:, None], h.shape).ravel()
    h_cols = np.broadcast_to(start + _BLOCK, h.shape).ravel()

    # One row of b_data per constraint row: [d/d body_a | d/d body_b].
    b_data = np.hstack([rows.d_a, rows.d_b])
    m = b_data.shape[0]
    first_cols = 6 * np.stack([rows.body_a, rows.body_b], axis=1)
    b_rows = np.repeat(n + np.arange(m), 12)
    b_cols = (first_cols[:, :, None] + _BLOCK).ravel()

    kkt = scipy.sparse.coo_array(
        (
            np.concatenate([h.ravel(), b_data.ravel(), b_data.ravel()]),
            (
                np.concatenate([h_rows, b_rows, b_cols]),
                np.concatenate([h_cols, b_cols, b_rows]),
            ),
        ),
        shape=(n + m, n + m),
    ).tocsc()
    return KktSystem(kkt, g.ravel(), rows.residual)


def solve_kkt(k: KktSystem):
    """Solve the saddle-point system for the variation and the multipliers.

    Sparse systems are factored by SuperLU, dense ones, alone or stacked,
    by a pivoted symmetric-indefinite factorization; every solution passes
    the same finite and backward-error checks.
    """
    rhs = -np.concatenate([k.g_k, k.b_vec], axis=-1)
    if scipy.sparse.issparse(k.matrix):
        # Imported on first use: it adds about 35 modules and 2 MB to
        # `import multibody`, and only the free-body modes need it.
        from scipy.sparse import linalg as sparse_linalg

        try:
            x = sparse_linalg.splu(k.matrix).solve(rhs)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise FactorizationFailed(str(exc)) from exc
        kkt_norm = sparse_linalg.norm(k.matrix)
    else:
        with warnings.catch_warnings():
            # Ill-conditioning is judged by the backward-error check below.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            try:
                x = _dense_solve(k.matrix, rhs)
            except (scipy.linalg.LinAlgError, ValueError) as exc:
                if k.matrix.ndim == 2:
                    raise FactorizationFailed(str(exc)) from exc
                # The batched solve's message does not identify the system.
                raise FactorizationFailed(
                    "singular or non-finite KKT matrix", _first_unsolvable(k.matrix, rhs)
                ) from exc
        kkt_norm = np.linalg.norm(k.matrix, axis=(-2, -1))
    _check_solution(k.matrix, kkt_norm, x, rhs)
    n = k.g_k.shape[-1]
    return x[..., :n], x[..., n:]


def _dense_solve(kkt: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return scipy.linalg.solve(kkt, rhs[..., None], assume_a="sym")[..., 0]


def _first_unsolvable(kkt: np.ndarray, rhs: np.ndarray) -> int | None:
    """Index of the first system of a stack that the dense solve rejects on
    its own."""
    for i in range(kkt.shape[0]):
        try:
            _dense_solve(kkt[i], rhs[i])
        except (scipy.linalg.LinAlgError, ValueError):
            return i
    return None


def _check_solution(kkt, kkt_norm, x: np.ndarray, rhs: np.ndarray):
    """Reject a solution that is not finite or that misses the system by
    more than the backward error of a stable factorization.  Each system of
    a stack is judged on its own norms, and the exception carries the index
    of the first one that fails."""
    _raise_for_first(~np.isfinite(x).all(axis=-1), "non-finite solution")
    residual = (kkt @ x[..., None])[..., 0] - rhs
    x_norm, rhs_norm, residual_norm = np.linalg.norm([x, rhs, residual], axis=-1)
    # Near-degenerate systems produce huge solutions whose residual scales
    # with |K| |x|.
    backward = 100.0 * x.shape[-1] * np.finfo(float).eps * kkt_norm * x_norm
    tolerance = 1e-7 * np.maximum(1.0, rhs_norm) + backward
    _raise_for_first(
        residual_norm > tolerance,
        "solution does not satisfy the KKT system; constraints are likely "
        "contradictory or duplicated",
    )


def _raise_for_first(failed: np.ndarray, message: str):
    if failed.ndim == 0:
        if failed:
            raise FactorizationFailed(message)
    elif failed.any():
        raise FactorizationFailed(message, int(np.argmax(failed)))


def apply_update(s: KinematicStructure, theta: np.ndarray, mode: SolverMode):
    """Write the solved variation back into the body poses: in the free-body
    modes each body moves to pose o T(theta_i), all at once."""
    if mode in _FREE_BODY_MODES:
        s.set_poses(pose_with_variation_stack(s.poses(), theta.reshape(-1, 6)))
    else:
        s.update_poses(theta)


def step(s: KinematicStructure, provider, cfg: SolverConfig) -> StepReport:
    """One full Newton iteration: energies, assembly, KKT solve, pose update.

    The constraints are evaluated twice, each time all at once: before the
    solve for the residuals and, in the constraint modes, the KKT rows; and
    after the update for the residuals.
    """
    energies = [provider(i, body.pose) for i, body in enumerate(s.bodies)]
    with_rows = cfg.mode in _CONSTRAINED_MODES
    before = evaluate_constraints(s.constraints, s.bodies, blocks=with_rows)
    kkt = assemble(s, energies, cfg.mode, cfg.regularization, before)
    theta, lam = solve_kkt(kkt)
    apply_update(s, theta, cfg.mode)
    after = evaluate_constraints(s.constraints, s.bodies, blocks=False)
    return StepReport(
        theta_norm=float(np.linalg.norm(theta)),
        residuals_before=before.norms(),
        residuals_after=after.norms(),
        multipliers=[lam[e - c : e] for c, e in zip(before.counts, np.cumsum(before.counts))]
        if with_rows else [],
        kkt_dim=kkt.g_k.shape[0] + kkt.b_vec.shape[0],
    )


def run(s: KinematicStructure, provider, cfg: SolverConfig) -> list[StepReport]:
    """cfg.iterations consecutive steps; no early exit."""
    return [step(s, provider, cfg) for _ in range(cfg.iterations)]
