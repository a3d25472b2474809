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
body is a free root, so that its Jacobian is the identity and its KKT
entries are gathered, not multiplied.  Constraint rows are on or off.  Each
step evaluates all energies (energy.evaluate) once, on stacks, takes the
constraints evaluated at its poses from the structure, which evaluates them
at most once per pose and only when asked for, and assembles only the
structurally nonzero entries of the KKT matrix, all at the pose stacks the
structure owns.
One size rule stores and factors it: small or dense systems densely, by
LAPACK's symmetric-indefinite dsytrf and dsytrs, each system of a stack of
one size, a lone system being a stack of one; large sparse ones in band
storage and reverse Cuthill-McKee order by LAPACK's banded LU dgbtrf and
dgbtrs, which makes a chain's system banded as in Baraff's linear-time
solver (SIGGRAPH 1996).  Every check on a system's input comes before any
factorization.
"""

from __future__ import annotations

import enum
import functools
import numbers
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgbtrf, dgbtrs, dsytrf, dsytrf_lwork, dsytrs

from .constraints import ConstraintRows, ConstraintStack, _frozen, _ReadOnly
from .energy import evaluate
from .kinematics import KinematicStructure, _PoseStore


class SolverMode(enum.Enum):
    INDEPENDENT = "independent"
    PROJECTED = "projected"
    CONSTRAINED = "constrained"
    COMBINED = "combined"


# The two switches: modes in the tree view's joint coordinates (the others
# use the forest view), and modes where constraint rows enter the system.
_TREE_MODES = (SolverMode.PROJECTED, SolverMode.COMBINED)
_CONSTRAINED_MODES = (SolverMode.CONSTRAINED, SolverMode.COMBINED)
# The rows of no constraint, at any pose.
_NO_ROWS = ConstraintRows(np.zeros((0, 6)), np.zeros((0, 6)), np.zeros((0, 6)), ConstraintStack(()))
# dsytrf's optimal workspace for an n x n matrix, asked once per n.
_dsytrf_lwork = functools.cache(lambda n: int(dsytrf_lwork(n)[0]))
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
_NON_FINITE = "non-finite KKT matrix or right-hand side"
STEP_LAYERS = ("energy", "constraints_before", "assemble", "solve", "update", "constraints_after")


class FactorizationFailed(RuntimeError):
    """KKT system could not be solved reliably (contradictory or duplicate
    constraints, or an indefinite reduced Hessian), or its input was refused
    before any factorization (solve_kkt).

    ``system`` is the flat index, over all its leading axes in C order, of
    the first failing system of a stack, or None for a lone system.
    """

    def __init__(self, message: str, system: int | None = None):
        super().__init__(message)
        self.system = system


@dataclass(frozen=True)
class Regularization(_ReadOnly):
    lambda_r: float = 100.0
    lambda_t: float = 1000.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        per_axis = _frozen(np.repeat(np.array([self.lambda_r, self.lambda_t], float), 3))
        object.__setattr__(self, "per_axis", per_axis)  # rot_x .. trans_z on the KKT diagonal


@dataclass(frozen=True)
class SolverConfig:
    mode: SolverMode = SolverMode.PROJECTED
    iterations: int = 1
    regularization: Regularization = field(default_factory=Regularization)

    def __post_init__(self):
        if not isinstance(self.mode, (SolverMode, str)):
            raise TypeError(f"mode must be a SolverMode or its value, got {self.mode!r}")
        object.__setattr__(self, "mode", SolverMode(self.mode))
        if not isinstance(self.regularization, Regularization):
            raise TypeError(f"regularization must be a Regularization, got {self.regularization!r}")
        if not isinstance(self.iterations, numbers.Integral) or isinstance(self.iterations, bool):
            raise TypeError(f"iterations must be an integer, got {self.iterations!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


# The storage rule: a KKT matrix up to this dimension, or with at least this
# share of structurally nonzero entries, or whose band in reverse
# Cuthill-McKee order holds at least this share, is stored and factored
# densely; any other as a band matrix.
DENSE_MAX_DIM = 32
DENSE_MIN_FILL = 0.5


@dataclass
class BandMatrix:
    """A square matrix A in LAPACK band storage, its unknowns reordered:
    A[order[i], order[j]] is band[2 w + i - j, j] for |i - j| <= w, the
    half-bandwidth ``width``, and zero elsewhere.  The top w rows of
    ``band``, (3 w + 1, dim) in Fortran order, are room for dgbtrf's
    fill-in."""

    band: np.ndarray
    width: int
    order: np.ndarray

    def toarray(self) -> np.ndarray:
        """A as a dense array, in the original order of its unknowns."""
        w, dim = self.width, self.band.shape[1]
        j = np.broadcast_to(np.arange(dim), (2 * w + 1, dim))
        i = j + np.arange(-w, w + 1)[:, None]
        inside = (i >= 0) & (i < dim)
        dense = np.zeros((dim, dim))
        dense[self.order[i[inside]], self.order[j[inside]]] = self.band[w:][inside]
        return dense


@dataclass
class KktSystem:
    """Saddle-point system [[H, B^T], [B, 0]] [theta; lam] = -[g; b].

    ``matrix`` is the whole symmetric KKT matrix.  Every mode assembles it
    the same way, in the tree or the forest view, with or without
    constraint rows, and one size rule (DENSE_MAX_DIM, DENSE_MIN_FILL)
    stores it as a dense array or a BandMatrix.  A dense system may
    carry a leading batch axis on every field: a stack of independent
    systems of one size, each solved as a lone system is, bit for bit.
    ``backward_error`` is set by solve_kkt: the normwise relative residual
    |K x - r| / (|K| |x| + |r|) of the solution it found, one per system
    of a stack.
    """

    matrix: np.ndarray | BandMatrix
    g_k: np.ndarray
    b_vec: np.ndarray
    backward_error: float | np.ndarray | None = None

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


@dataclass(frozen=True)
class _Pattern(_ReadOnly):
    """Where the structurally nonzero entries of one view's KKT matrix go in
    one mode (_pattern), rows on given bodies, as the size rule stores it.
    Built once per view and mode and kept in the view, which a structure's
    copies share: a frozen record whose arrays are read-only, also in a
    copy.

    The entries are H's pattern pairs (view.pairs), their mirror images,
    then B's and B^T's: for each side of each row (side k of row k mod m,
    on ``bodies[k]``) and each coordinate that moves that side's body.
    ``slots`` gives each entry's place in the flat dense matrix or, with
    ``order`` set, in the Fortran-order band of a BandMatrix of half-
    bandwidth ``width``; entries at one place add up.  ``moved`` holds the
    sides on non-root bodies, ``moved_rank`` their bodies' places in
    view.children.
    """

    sides: np.ndarray
    coords: np.ndarray
    moved: np.ndarray
    moved_rank: np.ndarray
    dim: int
    slots: np.ndarray
    width: int = 0
    order: np.ndarray | None = None

    def __post_init__(self):
        self._freeze()

    @classmethod
    def build(cls, view, bodies: np.ndarray) -> "_Pattern":
        m = bodies.shape[0] // 2
        sides, coords = view.moving(bodies)
        b_rows = view.n_dof + sides % max(m, 1)
        p, q = view.pairs
        rows = np.concatenate([p, q[view.mirrored], b_rows, coords])
        cols = np.concatenate([q, p[view.mirrored], coords, b_rows])
        moved = np.flatnonzero(np.isin(bodies, view.children))
        rank = np.searchsorted(view.children, bodies[moved])
        dim = view.n_dof + m
        fields = sides, coords, moved, rank, dim
        if dim > DENSE_MAX_DIM and rows.shape[0] < DENSE_MIN_FILL * dim * dim:
            # Unknowns with the same neighbours form one block: a body's
            # coordinates, and the rows on one pair of bodies.
            n = view.n_dofs.shape[0]
            _, block = np.unique(
                np.concatenate([view.body, n + bodies[:m] * n + bodies[m:]]), return_inverse=True
            )
            block_place = _reverse_cuthill_mckee(int(block.max()) + 1, block[rows], block[cols])
            order = np.argsort(block_place[block], kind="stable")
            place = np.argsort(order)
            i, j = place[rows], place[cols]
            w = int(np.abs(i - j).max())
            if (2 * w + 1) * dim < DENSE_MIN_FILL * dim * dim:
                return cls(*fields, 2 * w + i - j + (3 * w + 1) * j, w, order)
        return cls(*fields, rows * dim + cols)

    def matrix(self, values: np.ndarray):
        """The KKT matrix with these values at the pattern's entries."""
        if self.order is None:
            return np.bincount(self.slots, values, self.dim**2).reshape(self.dim, self.dim)
        ldab = 3 * self.width + 1
        band = np.bincount(self.slots, values, ldab * self.dim).reshape(self.dim, ldab).T
        return BandMatrix(band, self.width, self.order)


def _reverse_cuthill_mckee(nodes: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each node's place in the reverse Cuthill-McKee order of the graph of
    ``nodes`` nodes with edges (a, b) (George & Liu, Computer Solution of
    Large Sparse Positive Definite Systems, 1981, ch. 4).  Each connected
    part is searched breadth first from its node of least degree,
    neighbours by increasing degree; the order found is reversed."""
    edges = np.unique(a * nodes + b)
    a, b = np.divmod(edges[edges // nodes != edges % nodes], nodes)
    degree = np.bincount(a, minlength=nodes)
    by_degree = np.lexsort((b, degree[b], a))
    starts = np.searchsorted(a[by_degree], np.arange(1, nodes))
    neighbours = [x.tolist() for x in np.split(b[by_degree], starts)]
    seen = [False] * nodes
    visited, head = [], 0
    for start in np.argsort(degree, kind="stable").tolist():
        if seen[start]:
            continue
        seen[start] = True
        visited.append(start)
        while head < len(visited):
            for node in neighbours[visited[head]]:
                if not seen[node]:
                    seen[node] = True
                    visited.append(node)
            head += 1
    place = np.empty(nodes, dtype=int)
    place[visited[::-1]] = np.arange(nodes)
    return place


def _pattern(s: KinematicStructure, mode: SolverMode) -> _Pattern:
    """The mode's pattern: its view's, with the structure's constraint rows
    in the constraint modes, built when first used and kept in the view
    (kkt_patterns).  Concurrent assemblies may at worst build it twice."""
    view, with_rows = _coordinates(s, mode), mode in _CONSTRAINED_MODES
    pattern = view.kkt_patterns.get(with_rows)
    if pattern is None:
        sides = (s.constraint_stack if with_rows else _NO_ROWS.stack).sides
        pattern = view.kkt_patterns[with_rows] = _Pattern.build(view, sides)
    return pattern


@dataclass
class StepReport:
    """What one Newton step did.  Per-constraint lists follow
    ``s.constraints``; ``multipliers`` holds each constraint's Lagrange
    multipliers (its constraint force) in the constraint modes and is empty
    otherwise.  ``kkt_dim`` is the size of the solved system and
    ``backward_error`` the relative residual of its solution
    (KktSystem.backward_error).  ``timings`` holds the seconds spent in each
    layer of the step (STEP_LAYERS), by time.perf_counter;
    ``constraints_before`` reads about 0 when the step reused the rows the
    structure kept from the previous step, and ``constraints_after``
    includes the blocks a constraint mode evaluates for the next one.

    ``residuals_before`` and ``residuals_after`` are the constraints'
    residual norms at the pose stacks the step started from and left, from
    the stores of those stacks (``rows_before``, ``rows_after``;
    KinematicStructure.rows_at_poses), which stay bound to their poses and
    infer their joint frames from them when read.  In the modes without
    constraint rows the step evaluates no constraint, so that
    ``constraints_after`` reads about 0 there.  The rows are evaluated when first asked for, once per pose
    stack, unless the store holds them already; the norms are computed from
    them at each read."""

    theta_norm: float
    multipliers: list
    kkt_dim: int
    backward_error: float
    timings: dict
    rows_before: _PoseStore = field(repr=False)
    rows_after: _PoseStore = field(repr=False)

    @property
    def residuals_before(self) -> list:
        return self.rows_before(blocks=False).norms()

    @property
    def residuals_after(self) -> list:
        return self.rows_after(blocks=False).norms()


def assemble(
    s: KinematicStructure,
    g: np.ndarray,
    h: np.ndarray,
    mode: SolverMode,
    regularization: Regularization,
) -> KktSystem:
    """Gradient/Hessian plus regularization in the mode's coordinates, and
    constraint rows in the constraint modes.  ``g`` (n, 6) and ``h``
    (n, 6, 6) are the bodies' energies (energy.evaluate) at the structure's
    poses (s.poses()); the rows are the structure's constraints evaluated
    there with blocks, those it keeps (KinematicStructure.rows_at_poses).
    Raises FactorizationFailed naming the first body whose energy is not
    finite.

    With J_i = Ad(rel_i^-1) (S o anc_i) (KinematicStructure.jacobian_factors),
    summing the energies moved into each tree's root frame over subtrees
    gives H[p, q] = S_p^T Hc S_q, with Hc the sum over the subtree of the
    deeper of the two coordinates' bodies (Featherstone's composite rigid
    body algorithm), zero unless one body is above the other.  One product
    of the motion columns with the columns Hc S_q gives every S_p^T Hc S_q,
    of which H keeps its pattern's pairs; a constraint row is
    d_a J_a + d_b J_b, computed at the pattern's entries only.  In the
    forest view every J_i is the identity, so that they are gathered,
    not multiplied: H[p, q] is entry (axis_p, axis_q) of the Hessian of
    coordinate p's body, and g's and B's entries are picked alike.
    """
    n = len(s.bodies)
    if np.shape(g) != (n, 6) or np.shape(h) != (n, 6, 6):
        raise ValueError(f"got energies of shapes {np.shape(g)} and {np.shape(h)} for {n} bodies")
    g = np.array(g, dtype=float)
    if not (np.isfinite(g).all() and np.isfinite(h).all()):
        i = int(np.argmin(np.isfinite(g).all(axis=1) & np.isfinite(h).all(axis=(1, 2))))
        raise FactorizationFailed(
            f"non-finite energy gradient or Hessian for body {i} ({s.bodies[i].name!r})"
        )
    rows = s.rows_at_poses()() if mode in _CONSTRAINED_MODES else _NO_ROWS
    view, pattern = _coordinates(s, mode), _pattern(s, mode)
    h = 0.5 * (h + h.swapaxes(1, 2))
    # Each row's derivatives w.r.t. the variations of its two bodies.
    derivatives = np.concatenate([rows.d_a, rows.d_b])
    if mode not in _TREE_MODES:
        # Every J_i is the identity: each coordinate is one axis of its own
        # body's variation, and the entries are the energies' and rows'.
        body, axis = view.body, view.axis
        p, q = view.pairs
        g_k = g[body, axis]
        h_values = h[body[p], axis[p], axis[q]]
        b_values = derivatives[pattern.sides, axis[pattern.coords]]
    else:
        g_k, h_values, b_values = _projected(s, pattern, g, h, derivatives)
    h_values[view.diagonal] += regularization.per_axis[view.axis]
    values = np.concatenate([h_values, h_values[view.mirrored], b_values, b_values])
    return KktSystem(pattern.matrix(values), g_k, rows.residual)


def _projected(s: KinematicStructure, pattern: _Pattern, g, h, derivatives):
    """g, H's pattern pairs and B's entries in the tree view's joint
    coordinates, through the factors of its Jacobians (assemble)."""
    view = s.tree
    ad_inv, motion = s.jacobian_factors()
    # A root is its tree's reference frame; the other bodies' energies and
    # constraint derivatives move into it.
    inner = view.children
    g[inner] = (g[inner, None, :] @ ad_inv)[:, 0]
    h[inner] = ad_inv.swapaxes(1, 2) @ h[inner] @ ad_inv
    if view.links:
        g_c = view.subtree @ g
        h_c = (view.subtree @ h.reshape(-1, 36)).reshape(-1, 6, 6)
    else:
        # Lone roots: each body's composite sum is its own energy.
        g_c, h_c = g, h
    columns = motion.T
    g_k = np.einsum("ij,ij->i", g_c.take(view.body, axis=0), columns)
    # S_p^T (Hc S_q) for every pair of coordinates, of which the pattern's
    # pairs, one tree's each with q's body at or below p's, are kept.
    hs = np.einsum("qij,qj->qi", h_c.take(view.body, axis=0), columns)
    p, q = view.pairs
    h_values = (columns @ hs.T).take(p * view.n_dof + q)
    if not pattern.sides.shape[0]:
        return g_k, h_values, np.zeros(0)
    # Against each coordinate that moves the row's body.
    moved = pattern.moved
    derivatives[moved] = (derivatives[moved, None, :] @ ad_inv[pattern.moved_rank])[:, 0]
    b_values = np.einsum(
        "ij,ij->i", derivatives.take(pattern.sides, axis=0), columns.take(pattern.coords, axis=0)
    )
    return g_k, h_values, b_values


def _coordinates(s: KinematicStructure, mode: SolverMode):
    return s.tree if mode in _TREE_MODES else s.forest


def solve_kkt(k: KktSystem):
    """Solve the saddle-point system for the variation and the multipliers.

    Every check on the input comes before any factorization, for a band
    system as for a dense one or a stack of them.  More constraint rows
    than coordinates make K singular whatever its values (rank B <= n < m),
    and are rejected first; then a matrix or right-hand side that is not
    finite, which the sum of their norms shows.  A stack names the first
    bad system by its flat index.  Band systems are factored by banded LU
    (_band_solve), dense ones by Bunch-Kaufman (_dense_solve), and every
    solution passes the same finite and backward-error checks.
    """
    rhs = -np.concatenate([k.g_k, k.b_vec], axis=-1)
    n = k.g_k.shape[-1]
    if k.b_vec.shape[-1] > n:
        _raise_for_first(np.ones(rhs.shape[:-1], bool), "more constraint rows than coordinates")
    band = isinstance(k.matrix, BandMatrix)
    entries = k.matrix.band if band else k.matrix
    # A product or norm that overflows is inf, which _check_solution rejects.
    with np.errstate(over="ignore"):
        if band:
            # Not np.linalg.norm: its BLAS dot product of a large band, split
            # over threads, costs more than the band solve itself.
            kkt_norm = np.sqrt(np.einsum("ij,ij->", entries, entries))
        else:
            # The Frobenius norm, as np.linalg.norm computes it.
            kkt_norm = np.sqrt(np.add.reduce(entries * entries, axis=(-2, -1)))
        rhs_norm = _norm(rhs)
        if not np.isfinite(kkt_norm + rhs_norm).all():  # each norm is >= 0 or NaN
            # Not finite, or finite values whose norm overflows: which system?
            finite = np.isfinite(entries).all(axis=(-2, -1)) & np.isfinite(rhs).all(axis=-1)
            _raise_for_first(~finite, _NON_FINITE)
        x, residual = (_band_solve if band else _dense_solve)(k.matrix, rhs)
        k.backward_error = _check_solution(residual, kkt_norm, x, rhs_norm)
    return x[..., :n], x[..., n:]


def _band_solve(a: BandMatrix, rhs: np.ndarray):
    """x with A x = rhs, and A x - rhs in A's order of the unknowns, for a
    finite A and rhs: LAPACK dgbtrf factors the band (LU with partial
    pivoting) and dgbtrs solves; the product is taken with the unfactored
    band.  Raises FactorizationFailed if a pivot is zero."""
    w = a.width
    lu, pivots, info = dgbtrf(a.band, w, w)
    if info > 0:
        raise FactorizationFailed("singular KKT matrix")
    rhs = rhs[a.order]
    y = dgbtrs(lu, w, w, rhs, pivots)[0]
    x = np.empty_like(y)
    x[a.order] = y
    return x, _band_product(a.band, w, y) - rhs


def _band_product(band: np.ndarray, w: int, y: np.ndarray) -> np.ndarray:
    """A y for the band of A, half-bandwidth w, in its order of the unknowns:
    row k of ``terms`` holds A[i, i + d] y[i + d] = band[2 w - d, i + d]
    y[i + d] for d = k - w, zero past the ends, and the sum over k adds them
    in the order d = -w .. w.  Not BLAS dgbmv: OpenBLAS splits it over
    threads at any size, at many times the solve's cost."""
    dim, length = y.shape[0], y.shape[0] + 2 * w
    padded = np.zeros((2 * w + 1, length))
    np.multiply(band[w:][::-1], y, out=padded[:, w : w + dim])
    # terms[k, i] is padded[k, i + k]: rows of the flat array one step apart.
    terms = np.lib.stride_tricks.as_strided(
        padded, (2 * w + 1, dim), ((length + 1) * padded.itemsize, padded.itemsize), writeable=False
    )
    return np.add.reduce(terms, axis=0)


def _dense_solve(kkt: np.ndarray, rhs: np.ndarray):
    """x with kkt x = rhs, and kkt x - rhs, for each system of a stack, a
    lone system being a stack of one: the calls of
    scipy.linalg.solve(..., assume_a="sym") without its argument handling
    and condition estimate.  LAPACK dsytrf factors the upper triangle
    (Bunch-Kaufman LDL^T, optimal workspace) and dsytrs solves, 1 x 1
    systems too, over a flat (-1, d, d) view.  Raises FactorizationFailed
    naming the first with a zero pivot by its flat index (none if lone)."""
    d, x = rhs.shape[-1], np.empty_like(rhs)
    lwork = _dsytrf_lwork(d)
    # dsytrs refuses a 0 x 0 system, whose solution is empty.
    systems = zip(kkt.reshape(-1, d, d), rhs.reshape(-1, d), x.reshape(-1, d)) if rhs.size else ()
    for i, (a, b, out) in enumerate(systems):
        ldu, pivots, info = dsytrf(a, 0, lwork)
        if info > 0:
            raise FactorizationFailed("singular KKT matrix", i if rhs.ndim > 1 else None)
        out[:] = dsytrs(ldu, pivots, b)[0]
    return x, (kkt @ x[..., None])[..., 0] - rhs


def _norm(v: np.ndarray):
    """The norm of each vector of the last axis, as np.linalg.norm computes it."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _check_solution(residual: np.ndarray, kkt_norm, x: np.ndarray, rhs_norm):
    """Reject a solution that is not finite, whose norm or the system's
    overflows, or that misses the system by more than the backward error of
    a stable factorization.  Each system of a stack is judged on its own
    norms, and the exception carries the index of the first one that fails.
    Returns the normwise backward error of each system."""
    x_norm, residual_norm = _norm(x), _norm(residual)
    scale = kkt_norm * x_norm + rhs_norm
    if not np.isfinite(scale).all():
        _raise_for_first(~np.isfinite(x).all(axis=-1), "non-finite solution")
        _raise_for_first(~np.isfinite(scale), "norm of the solution or of the KKT system overflows")
    # Near-degenerate systems produce huge solutions whose residual scales
    # with |K| |x|.
    backward = 100.0 * x.shape[-1] * _EPS * kkt_norm * x_norm
    tolerance = 1e-7 * np.maximum(1.0, rhs_norm) + backward
    _raise_for_first(
        residual_norm > tolerance,
        "solution does not satisfy the KKT system; constraints are likely "
        "contradictory or duplicated",
    )
    return residual_norm / np.maximum(scale, _TINY)


def _raise_for_first(failed: np.ndarray, message: str):
    if np.count_nonzero(failed):
        raise FactorizationFailed(message, int(np.argmax(failed)) if failed.ndim else None)


def step(s: KinematicStructure, provider, cfg: SolverConfig) -> StepReport:
    """One full Newton iteration: energies, assembly, KKT solve, pose update.

    The energies (energy.evaluate), constraints and assembly all read the
    structure's own pose stacks; the update replaces them.  The constraints
    are evaluated at most once per pose, all at once, by the structure
    (KinematicStructure.rows_at_poses).  The constraint modes evaluate them
    with the KKT blocks after the update, and the next step or frame starts
    from those rows unless the poses have changed since.  The other modes
    evaluate none: their report's residuals are evaluated when read.
    """
    marks = [time.perf_counter()]
    g, h = evaluate(provider, s.poses())
    marks.append(time.perf_counter())
    with_rows = cfg.mode in _CONSTRAINED_MODES
    before = s.rows_at_poses()
    if with_rows:
        before(blocks=True)
    marks.append(time.perf_counter())
    kkt = assemble(s, g, h, cfg.mode, cfg.regularization)
    marks.append(time.perf_counter())
    try:
        theta, lam = solve_kkt(kkt)
    except FactorizationFailed as exc:
        raise FactorizationFailed(f"{exc}; {_diagnosis(s, kkt)}") from exc
    marks.append(time.perf_counter())
    s.update_poses(theta, cfg.mode not in _TREE_MODES)
    marks.append(time.perf_counter())
    after = s.rows_at_poses()
    if with_rows:
        after(blocks=True)
    marks.append(time.perf_counter())
    return StepReport(
        theta_norm=float(np.sqrt(theta.dot(theta))),
        multipliers=[lam[a:b] for a, b in s.constraint_stack.spans.tolist()] if with_rows else [],
        kkt_dim=kkt.g_k.shape[0] + kkt.b_vec.shape[0],
        backward_error=float(kkt.backward_error),
        timings={layer: b - a for layer, a, b in zip(STEP_LAYERS, marks, marks[1:])},
        rows_before=before,
        rows_after=after,
    )


def _diagnosis(s: KinematicStructure, k: KktSystem) -> str:
    """The size of a KKT system that failed, and the constraints to blame.
    If the matrix or the residuals are not finite, these are the constraints
    with non-finite rows.  Otherwise they have a row of B that pivoted QR of
    B^T finds numerically dependent on the rows before it (Nocedal & Wright,
    Numerical Optimization, ch. 16): what it adds is below the rounding
    level of the whole KKT matrix."""
    n, m = k.g_k.shape[0], k.b_vec.shape[0]
    size = f"KKT system of {n} coordinates and {m} constraint rows"
    if not m:
        return size
    kkt = k.matrix.toarray() if isinstance(k.matrix, BandMatrix) else k.matrix
    b_mat = kkt[n:, :n]
    finite_rows = np.isfinite(b_mat).all(axis=1) & np.isfinite(k.b_vec)
    if np.isfinite(kkt).all() and finite_rows.all():
        _, r, order = scipy.linalg.qr(b_mat.T, mode="economic", pivoting=True)
        tolerance = (n + m) * np.finfo(float).eps * np.linalg.norm(kkt)
        rank = int(np.count_nonzero(np.abs(np.diag(r)) > tolerance))
        size, blamed = f"{size}, of rank {rank}; numerically dependent", order[rank:]
    else:
        size, blamed = f"{size}, not finite; non-finite", np.flatnonzero(~finite_rows)
    counts = s.constraint_stack.counts
    owner = np.repeat(np.arange(counts.shape[0]), counts)
    named = ", ".join(
        f"{i} (bodies {s.constraints[i].body_a} {s.bodies[s.constraints[i].body_a].name!r}, "
        f"{s.constraints[i].body_b} {s.bodies[s.constraints[i].body_b].name!r})"
        for i in sorted(set(owner[blamed].tolist()))
    )
    return f"{size} rows in constraints {named}" if named else f"{size} rows in no constraint"


def run(s: KinematicStructure, provider, cfg: SolverConfig) -> list[StepReport]:
    """cfg.iterations consecutive steps; no early exit."""
    return [step(s, provider, cfg) for _ in range(cfg.iterations)]
