"""What a structure, its views and its constraint stack keep between steps.

Everything derived from the structure, a view or the constraint stack is
computed once and dropped where its source changes.  A step on a structure
that kept it must equal, bit for bit, the same step on a structure built
afresh from the same state.  Each test's docstring names a change to the
library that makes it fail.
"""

import numpy as np
import pytest

import oracles as scalar
from builders import random_pose, random_tree
from multibody import solver
from multibody.constraints import Constraint, OrthogonalityConstraint
from multibody.energy import per_body, quadratic_pose_target
from multibody.experiments import build_serial_chain
from multibody.kinematics import Body, FixedSide, Joint, KinematicStructure
from multibody.se3 import SMALL_ANGLE, exp_rotvec, log_rotation, variation_matrix
from multibody.solver import (
    FactorizationFailed, KktSystem, SolverConfig, SolverMode, solve_kkt, step
)

MODEL, PARENT = FixedSide.JOINT_TO_MODEL, FixedSide.PARENT_TO_JOINT
SIDES = {
    "parent_to_joint": [PARENT] * 6,
    "mixed": [MODEL, PARENT, MODEL, PARENT, PARENT, MODEL],
    "joint_to_model": [MODEL] * 6,
}


def rebuilt(s):
    """A new structure with the poses, joint transforms, fixed sides and
    constraints of s, which has kept nothing yet."""
    bodies = [
        Body(
            b.name,
            Joint(b.joint.free_axes, b.joint.joint_to_model, b.joint.parent_to_joint,
                  b.joint.fixed_side),
            b.pose,
            b.parent,
        )
        for b in s.bodies
    ]
    return KinematicStructure(bodies, s.constraints)


def state(s):
    """Every stack the structure owns, as bytes."""
    return [(a.r.tobytes(), a.t.tobytes()) for a in s._stacks.values()]


def outcome(s, provider, cfg):
    """The report of one step as comparable values, or the failure's message."""
    try:
        report = step(s, provider, cfg)
    except FactorizationFailed as exc:
        return str(exc)
    multipliers = [lam.tobytes() for lam in report.multipliers]
    return (report.theta_norm, report.residuals_before, report.residuals_after, multipliers,
            report.kkt_dim, report.backward_error)


def some_constraints(rng):
    return [
        Constraint(0, 3, random_pose(rng), random_pose(rng),
                   np.array([True, False, True, False, True, True])),
        OrthogonalityConstraint(1, 4, random_pose(rng), random_pose(rng)),
        Constraint(5, 2, random_pose(rng), random_pose(rng), np.array([0, 0, 0, 1, 1, 0], bool)),
    ]


class TestStepsOnAKeptStructure:
    @pytest.mark.parametrize("sides", list(SIDES))
    @pytest.mark.parametrize("mode", list(SolverMode))
    def test_equal_steps_on_a_rebuilt_structure(self, sides, mode):
        """Fails if ``KinematicStructure._write`` stops dropping the tree
        view's inverse frames (the joint transform written below), if
        ``refresh_joint_transforms`` stops dropping them after it re-infers
        joint_to_model (parent_to_joint and mixed sides), or if assigning the
        constraints keeps the old rows or stack."""
        rng = np.random.default_rng(40 + list(SIDES).index(sides))
        s = random_tree(rng, 6, min_dof=3, fixed_sides=SIDES[sides])
        s.constraints = some_constraints(rng)
        cfg = SolverConfig(mode=mode)
        for k in range(8):
            if k == 2:
                s.bodies[3].joint.joint_to_model = random_pose(rng, 0.3, 0.1)
                s.bodies[4].joint.parent_to_joint = random_pose(rng, 0.3, 0.1)
            if k == 4:
                s.constraints = s.constraints[::-1]
            if k == 6:
                s.constraints = s.constraints[1:]
            provider = per_body(
                {i: quadratic_pose_target(random_pose(rng), 50.0, 80.0) for i in (0, 2, 3, 5)}
            )
            fresh = rebuilt(s)
            assert state(fresh) == state(s)
            expected = outcome(fresh, provider, cfg)
            assert outcome(s, provider, cfg) == expected, k
            assert state(s) == state(fresh), k
            if isinstance(expected, str):
                break

    @pytest.mark.parametrize("sides", list(SIDES))
    def test_inverse_frames_follow_joint_to_model(self, sides):
        """Fails if ``_write`` or ``refresh_joint_transforms`` stops calling
        ``Coordinates.frames_written``."""
        rng = np.random.default_rng(50)
        s = random_tree(rng, 6, fixed_sides=SIDES[sides])

        def assert_current():
            inverse, expected = s.tree.inverse_frames, s.tree.frames.inverse()
            assert np.array_equal(inverse.r, expected.r) and np.array_equal(inverse.t, expected.t)

        assert_current()
        s.bodies[2].joint.joint_to_model = random_pose(rng, 0.5, 0.2)
        assert_current()
        s.update_poses(0.1 * rng.standard_normal(s.n_dof))
        assert_current()


class TestReadOnlyRows:
    def test_stored_rows_refuse_in_place_writes(self):
        """Fails if ``ConstraintRows.__post_init__`` leaves the arrays
        writeable: a write would leave the cached norms and the structure's
        stored rows stale."""
        s = build_serial_chain(3)
        rows = s.constraint_rows()
        for array in (rows.extended, rows.d_a, rows.d_b):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                array += 1.0
        assert s.constraint_rows(blocks=False) is rows

    def test_no_rows_refuse_in_place_writes(self):
        """Fails if ``_NO_ROWS``, shared by every step without constraint
        rows, is built with writeable arrays."""
        for array in (solver._NO_ROWS.extended, solver._NO_ROWS.d_a, solver._NO_ROWS.d_b):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 1.0

    def test_norms_are_computed_once_and_handed_out_as_copies(self, monkeypatch):
        """Fails if ``ConstraintRows.norms`` evaluates again on a second call,
        or hands out the list it keeps."""
        s = build_serial_chain(3)
        s.bodies[2].pose = s.bodies[2].pose @ random_pose(np.random.default_rng(51), 0.1, 0.1)
        rows = s.constraint_rows(blocks=False)
        first = rows.norms()
        calls = []
        monkeypatch.setattr(
            "multibody.constraints.row_norms", lambda v: calls.append(v) or np.zeros(0)
        )
        first.append(1.0)
        assert rows.norms() == first[:-1] and not calls
        per_constraint = np.split(rows.residual, np.cumsum(rows.stack.counts)[:-1])
        assert first[:-1] == [float(np.linalg.norm(r)) for r in per_constraint]


class TestWorkspaceQuery:
    def test_once_per_dimension(self, monkeypatch):
        """Fails if ``_dsytrf_lwork`` asks LAPACK for every solve."""
        calls = []
        original = solver.dsytrf_lwork
        monkeypatch.setattr(solver, "dsytrf_lwork", lambda n: calls.append(n) or original(n))
        solver._dsytrf_lwork.cache_clear()
        rng = np.random.default_rng(52)
        for dim in (7, 7, 9, 7, 9):
            a = rng.standard_normal((dim, dim))
            solve_kkt(KktSystem(a + a.T + dim * np.eye(dim), rng.standard_normal(dim), np.zeros(0)))
        assert calls == [7, 9]
        solver._dsytrf_lwork.cache_clear()


class TestOverflowingSolution:
    def test_named_failure_without_warning(self):
        """A solution whose norm overflows was accepted with backward error
        0.  Fails if ``_check_solution`` stops checking that its norms are
        finite, or computes them outside ``solve_kkt``'s errstate."""
        k = KktSystem(np.diag([1e-100, 1e-100]), np.array([-1e100, -1e100]), np.zeros(0))
        with pytest.raises(FactorizationFailed, match="norm of the solution .* overflows") as info:
            solve_kkt(k)
        assert info.value.system is None

    def test_names_the_system_of_a_stack(self):
        """Fails as the test above, or if the failure names the wrong system."""
        h = np.array([np.eye(2), np.diag([1e-100, 1e-100]), np.eye(2)])
        g = np.array([[1.0, 0.0], [-1e100, -1e100], [0.0, 1.0]])
        with pytest.raises(FactorizationFailed, match="overflows") as info:
            solve_kkt(KktSystem(h, g, np.zeros((3, 0))))
        assert info.value.system == 1


def rows_of(angles, rng):
    """Rotation vectors of the given angles about random axes."""
    axes = [scalar.random_unit_vector(rng) for _ in angles]
    return np.array([a * e for a, e in zip(angles, axes)])


SMALL = [0.0, 1e-12, 3e-7, 0.5 * SMALL_ANGLE, np.nextafter(SMALL_ANGLE, 0.0)]
ORDINARY = [SMALL_ANGLE, 2e-4, 0.3, 1.7, 3.0]
STACKS = {
    "no small row": ORDINARY,
    "all small rows": SMALL,
    "mixed": [SMALL[1], ORDINARY[2], SMALL[0], ORDINARY[4], SMALL[4], ORDINARY[0]],
}


class TestSeriesOnlyWhereARowNeedsIt:
    @pytest.mark.parametrize("stack", list(STACKS))
    def test_kernels_equal_the_scalar_formulas_row_by_row(self, stack):
        """The series branch runs only if some row is below SMALL_ANGLE;
        every row must still equal its scalar formula bit for bit.  Fails
        if ``_small`` reports no small row when there is one (all small,
        mixed), if ``variation_matrix`` drops its ``tail`` mask (all small,
        mixed), or if ``safe`` keeps a small row's own angle (division by
        zero at 0.0)."""
        v = rows_of(STACKS[stack], np.random.default_rng(53))
        for kernel, reference in (
            (exp_rotvec, scalar.exp_rotvec),
            (variation_matrix, scalar.variation_matrix),
        ):
            stacked = kernel(v)
            for i, row in enumerate(v):
                assert np.array_equal(stacked[i], reference(row)), (kernel.__name__, i)
        r = np.array([scalar.exp_rotvec(row) for row in v])
        stacked = log_rotation(r)
        for i, m in enumerate(r):
            assert np.array_equal(stacked[i], scalar.log_rotation(m)), ("log_rotation", i)
