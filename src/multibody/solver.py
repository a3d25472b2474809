"""Regularized Newton / KKT solver over a kinematic structure.

Four configurations are supported:

* independent: every body is optimized as a free 6-DoF pose, joints and
  constraints ignored.
* projected: the tree Jacobians project all measurements into the reduced
  joint coordinates; no constraint rows.
* constrained: free 6-DoF bodies coupled only through Lagrange-multiplier
  constraint rows.
* combined: tree projection plus constraint rows (closed chains).

The free-body modes (independent, constrained) scatter 6x6 energy blocks and
each constraint's two 6-column blocks into a block-sparse KKT matrix that
SuperLU factors.  The tree modes (projected, combined) assemble a small
dense KKT matrix in joint coordinates and factor it densely.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .energy import BodyEnergy
from .kinematics import KinematicStructure
from .se3 import pose_with_variation


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
    constraints, or an indefinite reduced Hessian)."""


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
    free-body modes, a dense array in the tree modes.
    """

    matrix: np.ndarray | scipy.sparse.csc_array
    g_k: np.ndarray
    b_vec: np.ndarray

    @classmethod
    def from_blocks(cls, h_k, g_k, b_mat, b_vec) -> "KktSystem":
        """Dense system from H (symmetrized here), g, B and b."""
        n = g_k.shape[0]
        m = b_vec.shape[0]
        kkt = np.zeros((n + m, n + m))
        kkt[:n, :n] = 0.5 * (h_k + h_k.T)
        kkt[:n, n:] = b_mat.T
        kkt[n:, :n] = b_mat
        return cls(kkt, g_k, b_vec)


@dataclass
class StepReport:
    theta_norm: float
    residuals_before: list
    residuals_after: list


def assemble(
    s: KinematicStructure,
    energies: list[BodyEnergy],
    mode: SolverMode,
    regularization: Regularization | None = None,
) -> KktSystem:
    """Gradient/Hessian plus regularization, and constraint rows in the
    constraint modes."""
    if len(energies) != len(s.bodies):
        raise ValueError(
            f"got {len(energies)} energies for {len(s.bodies)} bodies"
        )
    constraints = s.constraints if mode in _CONSTRAINED_MODES else []
    b_vec = (
        np.concatenate([c.residual(s) for c in constraints])
        if constraints
        else np.zeros(0)
    )
    if mode in _FREE_BODY_MODES:
        return _assemble_free_bodies(s, energies, constraints, b_vec, regularization)
    return _assemble_tree(s, energies, constraints, b_vec, regularization)


def _assemble_tree(s, energies, constraints, b_vec, regularization) -> KktSystem:
    """Dense system in joint coordinates: H = sum J^T H_i J over the tree
    Jacobians, constraint rows chained through them."""
    jacobians = s.body_jacobians()
    n = s.n_dof
    h_k = np.zeros((n, n))
    g_k = np.zeros(n)
    for jac, energy in zip(jacobians, energies):
        g_k += jac.T @ energy.g
        h_k += jac.T @ energy.h @ jac
    if regularization is not None:
        rot_mask = np.zeros(n, dtype=bool)
        for i, body in enumerate(s.bodies):
            off = s.dof_offsets[i]
            for k, axis in enumerate(np.flatnonzero(body.joint.free_axes)):
                rot_mask[off + k] = axis < 3
        diag = np.where(rot_mask, regularization.lambda_r, regularization.lambda_t)
        h_k[np.diag_indices(n)] += diag
    if constraints:
        b_mat = np.vstack([c.jacobian(s) for c in constraints])
    else:
        b_mat = np.zeros((0, n))
    return KktSystem.from_blocks(h_k, g_k, b_mat, b_vec)


_BLOCK = np.arange(6)


def _assemble_free_bodies(s, energies, constraints, b_vec, regularization) -> KktSystem:
    """Sparse system over one 6-DoF block per body.

    H is block diagonal, and each constraint row touches only the 12
    columns of its two bodies, so the blocks are scattered straight into
    one COO matrix, with B and B^T sharing index arrays and values.
    """
    n = 6 * len(s.bodies)
    h = np.array([e.h for e in energies])
    if regularization is not None:
        h = h + np.diag(np.repeat([regularization.lambda_r, regularization.lambda_t], 3))
    h = 0.5 * (h + h.transpose(0, 2, 1))
    start = 6 * np.arange(len(s.bodies))[:, None, None]
    h_rows = np.broadcast_to(start + _BLOCK[:, None], h.shape).ravel()
    h_cols = np.broadcast_to(start + _BLOCK, h.shape).ravel()

    # One row of b_data per constraint row: [d/d body_a | d/d body_b].
    blocks = [c.variation_blocks(s) for c in constraints]
    b_data = np.vstack([np.hstack(pair) for pair in blocks] or [np.zeros((0, 12))])
    m = b_data.shape[0]
    first_cols = np.repeat(
        np.array([(6 * c.body_a, 6 * c.body_b) for c in constraints], dtype=int).reshape(-1, 2),
        [da.shape[0] for da, _ in blocks],
        axis=0,
    )
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
    return KktSystem(kkt, np.concatenate([e.g for e in energies]), b_vec)


def solve_kkt(k: KktSystem):
    """Solve the saddle-point system for the variation and the multipliers.

    Sparse systems are factored by SuperLU, dense ones by a pivoted
    symmetric-indefinite factorization; both solutions pass the same
    finite and backward-error checks.
    """
    rhs = -np.concatenate([k.g_k, k.b_vec])
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
        try:
            with warnings.catch_warnings():
                # Ill-conditioning is judged by the backward-error check below.
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                x = scipy.linalg.solve(k.matrix, rhs, assume_a="sym")
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise FactorizationFailed(str(exc)) from exc
        kkt_norm = np.linalg.norm(k.matrix)
    _check_solution(k.matrix, kkt_norm, x, rhs)
    n = k.g_k.shape[0]
    return x[:n], x[n:]


def _check_solution(kkt, kkt_norm: float, x: np.ndarray, rhs: np.ndarray):
    """Reject a solution that is not finite or that misses the system by
    more than the backward error of a stable factorization."""
    if not np.all(np.isfinite(x)):
        raise FactorizationFailed("non-finite solution")
    residual = kkt @ x - rhs
    # Near-degenerate systems produce huge solutions whose residual scales
    # with |K| |x|.
    backward = 100.0 * x.shape[0] * np.finfo(float).eps * kkt_norm * np.linalg.norm(x)
    tolerance = 1e-7 * max(1.0, np.linalg.norm(rhs)) + backward
    if np.linalg.norm(residual) > tolerance:
        raise FactorizationFailed(
            "solution does not satisfy the KKT system; constraints are likely "
            "contradictory or duplicated"
        )


def apply_update(s: KinematicStructure, theta: np.ndarray, mode: SolverMode):
    """Write the solved variation back into the body poses."""
    if mode in _FREE_BODY_MODES:
        for i, body in enumerate(s.bodies):
            body.pose = pose_with_variation(body.pose, theta[6 * i : 6 * i + 6])
        s.refresh_joint_transforms()
        s.invalidate_jacobians()
    else:
        s.update_poses(theta)


def constraint_residual_norms(s: KinematicStructure) -> list:
    return [float(np.linalg.norm(c.residual(s))) for c in s.constraints]


def step(s: KinematicStructure, provider, cfg: SolverConfig) -> StepReport:
    """One full Newton iteration: energies, assembly, KKT solve, pose update."""
    energies = [provider(i, body.pose) for i, body in enumerate(s.bodies)]
    kkt = assemble(s, energies, cfg.mode, cfg.regularization)
    if cfg.mode in _CONSTRAINED_MODES:
        # The constraint rows of the right-hand side are the residuals.
        ends = np.cumsum([c.n_rows for c in s.constraints])
        residuals_before = [
            float(np.linalg.norm(kkt.b_vec[end - c.n_rows : end]))
            for c, end in zip(s.constraints, ends)
        ]
    else:
        residuals_before = constraint_residual_norms(s)
    theta, _ = solve_kkt(kkt)
    apply_update(s, theta, cfg.mode)
    return StepReport(
        theta_norm=float(np.linalg.norm(theta)),
        residuals_before=residuals_before,
        residuals_after=constraint_residual_norms(s),
    )


def run(s: KinematicStructure, provider, cfg: SolverConfig) -> list[StepReport]:
    """cfg.iterations consecutive steps; no early exit."""
    return [step(s, provider, cfg) for _ in range(cfg.iterations)]
