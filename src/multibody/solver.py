"""Regularized Newton / KKT solver over a kinematic structure.

Four configurations are supported:

* independent: every body is optimized as a free 6-DoF pose, joints and
  constraints ignored.
* projected: the tree Jacobians project all measurements into the reduced
  joint coordinates; no constraint rows.
* constrained: free 6-DoF bodies coupled only through Lagrange-multiplier
  constraint rows.
* combined: tree projection plus constraint rows (closed chains).

They are two switches over one code path.  Projection picks the
coordinates: the structure's tree view, or its forest view in which every
body is a free root, so that its Jacobian is the identity.  Constraint rows
are on or off.  Each step evaluates all energies and all constraints once,
on stacks, and assembles only the structurally nonzero entries of the KKT
matrix.  One size rule stores and factors it: small or dense systems
densely, large sparse ones in CSC format by SuperLU.  Dense systems of one
size can also be solved as a stack in one batched call.
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


class SolverMode(enum.Enum):
    INDEPENDENT = "independent"
    PROJECTED = "projected"
    CONSTRAINED = "constrained"
    COMBINED = "combined"


# The two switches: modes in the tree view's joint coordinates (the others
# use the forest view), and modes where constraint rows enter the system.
_TREE_MODES = (SolverMode.PROJECTED, SolverMode.COMBINED)
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


# The storage rule: a KKT matrix up to this dimension, or with at least this
# share of structurally nonzero entries, is stored and factored densely;
# any other goes to CSC and SuperLU.
DENSE_MAX_DIM = 32
DENSE_MIN_FILL = 0.5


@dataclass
class KktSystem:
    """Saddle-point system [[H, B^T], [B, 0]] [theta; lam] = -[g; b].

    ``matrix`` is the whole symmetric KKT matrix.  Every mode assembles it
    the same way, in the tree or the forest view, with or without
    constraint rows, and one size rule (DENSE_MAX_DIM, DENSE_MIN_FILL)
    stores it as a dense array or a scipy CSC matrix.  A dense system may
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
class _Pattern:
    """Where the structurally nonzero entries of one view's KKT matrix go,
    for constraint rows on given bodies, as the size rule stores it.

    The entries are H's pattern pairs (view.pairs), their mirror images,
    then B's and B^T's: for each side of each row (side k of row k mod m,
    on ``bodies[k]``) and each coordinate that moves that side's body.
    ``slots`` gives each entry's place in the flat dense matrix or in the
    CSC data; entries at one place add up.  ``moved`` holds the sides on
    non-root bodies, ``moved_rank`` their bodies' places in view.children.
    """

    key: bytes
    sides: np.ndarray
    coords: np.ndarray
    moved: np.ndarray
    moved_rank: np.ndarray
    dim: int
    slots: np.ndarray
    indices: np.ndarray | None = None
    indptr: np.ndarray | None = None

    @classmethod
    def build(cls, view, bodies: np.ndarray) -> "_Pattern":
        m = bodies.shape[0] // 2
        sides, coords = np.nonzero(view.moves[bodies])
        b_rows = view.n_dof + sides % max(m, 1)
        p, q = view.pairs
        rows = np.concatenate([p, q[view.mirrored], b_rows, coords])
        cols = np.concatenate([q, p[view.mirrored], coords, b_rows])
        moved = np.flatnonzero(np.isin(bodies, view.children))
        rank = np.searchsorted(view.children, bodies[moved])
        dim = view.n_dof + m
        fields = bodies.tobytes(), sides, coords, moved, rank, dim
        if dim <= DENSE_MAX_DIM or rows.shape[0] >= DENSE_MIN_FILL * dim * dim:
            return cls(*fields, rows * dim + cols)
        places, slots = np.unique(cols * dim + rows, return_inverse=True)
        return cls(*fields, slots, places % dim, np.searchsorted(places, dim * np.arange(dim + 1)))

    def matrix(self, values: np.ndarray):
        """The KKT matrix with these values at the pattern's entries."""
        if self.indices is None:
            return np.bincount(self.slots, values, self.dim**2).reshape(self.dim, self.dim)
        data = np.bincount(self.slots, values, self.indices.shape[0])
        return scipy.sparse.csc_array((data, self.indices, self.indptr), shape=(self.dim, self.dim))


def _pattern(view, bodies: np.ndarray) -> _Pattern:
    """The view's last pattern, rebuilt when the rows' bodies change.  Read
    once, so that concurrent assemblies at worst rebuild it."""
    pattern = view.kkt_pattern
    if pattern is None or pattern.key != bodies.tobytes():
        pattern = view.kkt_pattern = _Pattern.build(view, bodies)
    return pattern


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
    """Gradient/Hessian plus regularization in the mode's coordinates, and
    constraint rows in the constraint modes.  ``rows`` may hold the
    structure's constraints already evaluated with blocks.  Raises
    FactorizationFailed naming the first body whose energy is not finite.

    With J_i = Ad(rel_i^-1) (S o anc_i) (KinematicStructure.jacobian_factors),
    summing the energies moved into each tree's root frame over subtrees
    gives H[p, q] = S_p^T Hc S_q, with Hc the sum over the subtree of the
    deeper of the two coordinates' bodies (Featherstone's composite rigid
    body algorithm), zero unless one body is above the other.  A constraint
    row is d_a J_a + d_b J_b.  Only the pattern's entries are computed.
    """
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
    view = _coordinates(s, mode)
    ad_inv, motion = s.jacobian_factors(view)
    # A root is its tree's reference frame; the other bodies' energies and
    # constraint derivatives move into it.
    inner = view.children
    h = 0.5 * (h + h.swapaxes(1, 2))
    g[inner] = (g[inner, None, :] @ ad_inv)[:, 0]
    h[inner] = ad_inv.swapaxes(1, 2) @ h[inner] @ ad_inv
    g_c = view.subtree @ g
    h_c = (view.subtree @ h.reshape(-1, 36)).reshape(-1, 6, 6)
    columns = motion.T
    g_k = np.einsum("ij,ij->i", g_c.take(view.body, axis=0), columns)
    # S_p^T (Hc S_q) for every pair of coordinates of one tree.
    hs = np.einsum("qij,qj->qi", h_c.take(view.body, axis=0), columns)
    products = view.per_tree(columns) @ view.per_tree(hs).swapaxes(1, 2)
    h_values = products.take(view.pair_slots)
    if regularization is not None:
        reg = regularization
        h_values[view.diagonal] += np.where(view.rotational, reg.lambda_r, reg.lambda_t)
    # Each row's derivatives w.r.t. the variations of its two bodies against
    # each coordinate that moves that body.
    bodies = np.concatenate([rows.body_a, rows.body_b])
    pattern = _pattern(view, bodies)
    derivatives = np.concatenate([rows.d_a, rows.d_b])
    moved = pattern.moved
    derivatives[moved] = (derivatives[moved, None, :] @ ad_inv[pattern.moved_rank])[:, 0]
    b_values = np.einsum(
        "ij,ij->i", derivatives.take(pattern.sides, axis=0), columns.take(pattern.coords, axis=0)
    )
    values = np.concatenate([h_values, h_values[view.mirrored], b_values, b_values])
    return KktSystem(pattern.matrix(values), g_k, rows.residual)


def _coordinates(s: KinematicStructure, mode: SolverMode):
    return s.tree if mode in _TREE_MODES else s.forest


def solve_kkt(k: KktSystem):
    """Solve the saddle-point system for the variation and the multipliers.

    Sparse systems are factored by SuperLU, dense ones, alone or stacked,
    by a pivoted symmetric-indefinite factorization; every solution passes
    the same finite and backward-error checks.
    """
    rhs = -np.concatenate([k.g_k, k.b_vec], axis=-1)
    if scipy.sparse.issparse(k.matrix):
        # Imported on first use: it adds about 35 modules and 2 MB to
        # `import multibody`, and only large sparse systems need it.
        from scipy.sparse import linalg as sparse_linalg

        try:
            x = sparse_linalg.splu(k.matrix).solve(rhs)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise FactorizationFailed("singular KKT matrix") from exc
        kkt_norm = sparse_linalg.norm(k.matrix)
    else:
        with warnings.catch_warnings():
            # Ill-conditioning is judged by the backward-error check below.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            try:
                x = _dense_solve(k.matrix, rhs)
            except (scipy.linalg.LinAlgError, ValueError) as exc:
                # scipy words even a single system's failure for a batch.
                if k.matrix.ndim == 2:
                    raise FactorizationFailed("singular or non-finite KKT matrix") from exc
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
    try:
        theta, lam = solve_kkt(kkt)
    except FactorizationFailed as exc:
        raise FactorizationFailed(f"{exc}; {_diagnosis(s, kkt, before)}") from exc
    s.update_poses(theta, _coordinates(s, cfg.mode))
    after = evaluate_constraints(s.constraints, s.bodies, blocks=False)
    return StepReport(
        theta_norm=float(np.linalg.norm(theta)),
        residuals_before=before.norms(),
        residuals_after=after.norms(),
        multipliers=[lam[e - c : e] for c, e in zip(before.counts, np.cumsum(before.counts))]
        if with_rows else [],
        kkt_dim=kkt.g_k.shape[0] + kkt.b_vec.shape[0],
    )


def _diagnosis(s: KinematicStructure, k: KktSystem, rows: ConstraintRows) -> str:
    """The size of a KKT system that failed, and the constraints with a row
    of B that pivoted QR of B^T finds numerically dependent on the rows
    before it (Nocedal & Wright, Numerical Optimization, ch. 16).  A row
    counts as dependent when what it adds is below the rounding level of
    the whole KKT matrix."""
    n, m = k.g_k.shape[0], k.b_vec.shape[0]
    size = f"KKT system of {n} coordinates and {m} constraint rows"
    if not m:
        return size
    sparse = scipy.sparse.issparse(k.matrix)
    b_mat = k.matrix[n:, :n].toarray() if sparse else k.matrix[n:, :n]
    _, r, order = scipy.linalg.qr(b_mat.T, mode="economic", pivoting=True)
    kkt_norm = np.linalg.norm(k.matrix.data if sparse else k.matrix)
    tolerance = (n + m) * np.finfo(float).eps * kkt_norm
    rank = int(np.count_nonzero(np.abs(np.diag(r)) > tolerance))
    owner = np.repeat(np.arange(rows.counts.shape[0]), rows.counts)
    dependent = sorted(set(owner[order[rank:]].tolist()))
    if not dependent:
        return f"{size}; the constraint rows are independent"
    named = ", ".join(
        f"{i} (bodies {s.constraints[i].body_a} {s.bodies[s.constraints[i].body_a].name!r}, "
        f"{s.constraints[i].body_b} {s.bodies[s.constraints[i].body_b].name!r})"
        for i in dependent
    )
    return f"{size}, of rank {rank}; numerically dependent rows in constraints {named}"


def run(s: KinematicStructure, provider, cfg: SolverConfig) -> list[StepReport]:
    """cfg.iterations consecutive steps; no early exit."""
    return [step(s, provider, cfg) for _ in range(cfg.iterations)]
