"""What a structure, its views and its constraint stack keep between steps.

Everything derived from the structure, a view or the constraint stack is
computed once and replaced or dropped where its source changes.  A step on
a structure that kept it must equal, bit for bit, the same step on a
structure built afresh from the same state.  Only update_poses changes a
structure's state: every array it keeps is read-only, also in a copy.  Each
test's docstring names a change to the library that makes it fail.
"""

import copy
import dataclasses
import pickle
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import oracles as scalar
from builders import (
    MODEL, PARENT, counted_inferences, random_pose, random_tree, random_trees, rebuilt, stacks
)
from multibody import kinematics, solver
from multibody.config import load_config
from multibody.constraints import Constraint, OrthogonalityConstraint, evaluate_constraints
from multibody.energy import per_body, quadratic_pose_target
from multibody.experiments import build_serial_chain
from multibody.kinematics import Body, Joint
from multibody.se3 import Pose, exp_rotvec, log_rotation, variation_matrix
from multibody.solver import (
    FactorizationFailed, KktSystem, SolverConfig, SolverMode, solve_kkt, step
)

DEMO_CONFIG = Path(__file__).parent.parent / "demos" / "fourbar.json"
SIDES = {
    "parent_to_joint": [PARENT] * 6,
    "mixed": [MODEL, PARENT, MODEL, PARENT, PARENT, MODEL],
    "joint_to_model": [MODEL] * 6,
}


def state(s):
    """Every stack the structure owns, as bytes."""
    return [(a.r.tobytes(), a.t.tobytes()) for a in stacks(s).values()]


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
        """Fails if ``_PoseStore.frames`` stops replacing the structure's
        model_to_joint stack along with the joint_to_model it infers
        (parent_to_joint and mixed sides).  At step 2 the structure
        is rebuilt with new joint transforms, at steps 4 and 6 with its
        constraints reversed and then cut, and kept in between."""
        rng = np.random.default_rng(40 + list(SIDES).index(sides))
        s = random_tree(rng, 6, min_dof=3, fixed_sides=SIDES[sides])
        s = rebuilt(s, constraints=some_constraints(rng))
        cfg = SolverConfig(mode=mode)
        for k in range(8):
            if k == 2:
                s = rebuilt(s, joint_to_model={3: random_pose(rng, 0.3, 0.1)},
                            parent_to_joint={4: random_pose(rng, 0.3, 0.1)})
            if k == 4:
                s = rebuilt(s, constraints=s.constraints[::-1])
            if k == 6:
                s = rebuilt(s, constraints=s.constraints[1:])
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
        """Fails if ``_PoseStore.frames`` replaces joint_to_model but not
        its inverse, the structure's model_to_joint stack (parent_to_joint
        and mixed sides), after a tree step or a forest step."""
        rng = np.random.default_rng(50)
        s = random_tree(rng, 6, fixed_sides=SIDES[sides])

        def assert_current():
            inverse = stacks(s)["model_to_joint"]
            expected = stacks(s)["joint_to_model"].inverse()
            assert np.array_equal(inverse.r, expected.r) and np.array_equal(inverse.t, expected.t)

        assert_current()
        s = rebuilt(s, joint_to_model={2: random_pose(rng, 0.5, 0.2)})
        assert_current()
        s.update_poses(0.1 * rng.standard_normal(s.n_dof))
        assert_current()
        s.update_poses(0.1 * rng.standard_normal(s.forest.n_dof), forest=True)
        assert_current()


    def test_a_tree_step_builds_no_forest_view(self):
        """Fails if update_poses tells the views apart by reading
        ``self.forest``, a cached property, which builds the forest view on
        the first tree step of a structure and of each copy.  A PROJECTED
        step on the 4-body chain and on its copy leaves the view unbuilt,
        and θ and the poses equal those of the same step on a copy whose
        forest view was built."""
        s = build_serial_chain(4)
        plain, built = copy.deepcopy(s), copy.deepcopy(s)
        assert built.forest is not None
        provider = per_body({3: quadratic_pose_target(random_pose(np.random.default_rng(61)))})
        cfg = SolverConfig(mode=SolverMode.PROJECTED)
        expected = outcome(built, provider, cfg), state(built)
        for structure in (s, plain):
            assert (outcome(structure, provider, cfg), state(structure)) == expected
            assert "forest" not in vars(structure)


def assert_frames_follow_the_poses(s):
    """Every joint frame read through the store: the row of a joint that
    fixes joint_to_model is that transform bit for bit; that of a joint
    that fixes parent_to_joint is the J_T_M its body's pose implies
    (oracles.joint_transforms) to rounding, orthonormal to rounding, and
    composes the body's pose, parent o P_T_J o J_T_M, to rounding.
    model_to_joint is the inverse of the joint_to_model stack."""
    rows, transforms = stacks(s), scalar.joint_transforms(s.bodies)
    for i, body in enumerate(s.bodies):
        row, (parent_to_joint, joint_to_model) = rows["joint_to_model"][i], transforms[i]
        if body.joint.parent_to_joint is None:
            assert row.r.tobytes() == joint_to_model.r.tobytes(), body.name
            assert row.t.tobytes() == joint_to_model.t.tobytes(), body.name
            continue
        assert np.abs(row.r - joint_to_model.r).max() <= 1e-12, body.name
        assert np.abs(row.t - joint_to_model.t).max() <= 1e-12, body.name
        assert np.abs(row.r.T @ row.r - np.eye(3)).max() <= 1e-14, body.name
        composed = rows["pose"][body.parent] @ parent_to_joint @ row
        scale = max(1.0, np.abs(body.pose.t).max())
        assert np.abs(composed.r - body.pose.r).max() <= 1e-12, body.name
        assert np.abs(composed.t - body.pose.t).max() <= 1e-12 * scale, body.name
    inverse = rows["joint_to_model"].inverse()
    assert rows["model_to_joint"].r.tobytes() == inverse.r.tobytes()
    assert rows["model_to_joint"].t.tobytes() == inverse.t.tobytes()


def disagreeing_repro():
    """A locked root and a body free about rot_z below it whose given
    parent_to_joint, a translation (0, 0.1, 0), disagrees with its identity
    pose: the joint fixes it, and its joint_to_model is derived from the
    poses."""
    shifted = Pose(np.eye(3), [0.0, 0.1, 0.0])
    rot_z = np.array([False, False, True, False, False, False])
    return kinematics.KinematicStructure([
        Body("a", Joint(np.zeros(6, dtype=bool))),
        Body("b", Joint(rot_z, parent_to_joint=shifted), parent=0),
    ])


def disagreeing_trees(seed, sides):
    """Three random trees, one structure, each non-root body's pose moved
    away from parent o P_T_J o J_T_M, with the fixed sides SIDES[sides]."""
    rng = np.random.default_rng(seed)
    s = random_trees(rng, [3, 2, 3], min_dof=2, fixed_sides=SIDES[sides] + SIDES[sides][:2])
    moved = {i: b.pose @ random_pose(rng, 0.5, 0.3) for i, b in enumerate(s.bodies)
             if b.parent is not None}
    return rebuilt(s, pose=moved)


class TestJointsMoveWithTheirStep:
    """A structure's state is its poses: a tree-view update composes from
    them, and the joint transforms are inferred from them when first read,
    after any update.  Every joint read stays on its body's pose."""

    @pytest.mark.parametrize("sides", list(SIDES))
    def test_every_joint_read_composes_its_body_pose(self, sides):
        """Fails if an inference reads a non-fixed row, if a tree step
        composes from a joint transform that is not inferred from the poses,
        or if ``_PoseStore.frames`` drops the polar step (orthonormality).
        Random mixes of tree and forest updates on three trees, joints read
        after some of them."""
        rng = np.random.default_rng(54 + list(SIDES).index(sides))
        for _ in range(3):
            s = random_trees(rng, [3, 2, 3], min_dof=2, fixed_sides=SIDES[sides] + [MODEL, PARENT])
            for _ in range(12):
                forest = rng.random() < 0.5
                view = s.forest if forest else s.tree
                s.update_poses(0.3 * rng.standard_normal(view.n_dof), forest)
                if rng.random() >= 0.4:
                    assert_frames_follow_the_poses(s)

    @pytest.mark.parametrize(
        "seed, sides",
        [("repro", None)] + [(seed, sides) for seed in (70, 71, 72) for sides in SIDES],
    )
    def test_the_four_modes_leave_the_same_poses(self, seed, sides):
        """A zero-energy step moves nothing, in every mode, also where a
        given joint transform disagrees with the body poses: the poses are
        the state, and the moving side is derived from them.  On the repro
        and on seeded multi-root structures of each fixed side and of both,
        every mode leaves the given poses to 1e-12, and every joint read
        afterwards composes its body's pose.  Fails if a tree step composes
        from the given joint transforms: then the repro's PROJECTED and
        COMBINED steps moved body b to (0, 0.1, 0), and its INDEPENDENT and
        CONSTRAINED steps left it at 0."""
        given = disagreeing_repro() if seed == "repro" else disagreeing_trees(seed, sides)
        poses = given.poses()
        for mode in SolverMode:
            s = copy.deepcopy(given)
            step(s, per_body({}), SolverConfig(mode=mode))
            assert np.abs(s.poses().r - poses.r).max() <= 1e-12, mode
            assert np.abs(s.poses().t - poses.t).max() <= 1e-12, mode
            assert_frames_follow_the_poses(s)

    def test_an_inference_inverts_only_the_parents_poses(self, monkeypatch):
        """An inference's fixed factor, P_T_J^-1, is the structure's,
        computed at adoption: on a tree of both fixed sides it inverts the
        parents' poses of the joints that fix parent_to_joint once (rel),
        and then only the joint_to_model stack it publishes
        (model_to_joint).  Fails if ``_PoseStore.frames`` inverts the
        adopted parent_to_joint rows again, or infers a parent_to_joint."""
        rng = np.random.default_rng(59)
        s = random_tree(rng, 6, fixed_sides=SIDES["mixed"])
        s.update_poses(0.1 * rng.standard_normal(s.forest.n_dof), forest=True)
        store, inverted, inverse = s.rows_at_poses(), [], Pose.inverse
        monkeypatch.setattr(Pose, "inverse", lambda pose: inverted.append(pose) or inverse(pose))
        frames = store.frames()
        _, parents, _ = s._inference
        assert len(inverted) == 2
        assert inverted[0].r.tobytes() == store.poses[parents].r.tobytes()
        assert inverted[1].r.tobytes() == frames["joint_to_model"].r.tobytes()

    @pytest.mark.parametrize("copier", ["deepcopy", "pickle"])
    @pytest.mark.parametrize("last", ["forest", "tree", "read"])
    def test_copies_keep_their_joints_and_step_bit_for_bit(self, last, copier, monkeypatch):
        """A copy keeps the joint frames its original has inferred (read
        after a tree step), or has none (after a forest or a tree step) and
        infers them as the original does: on its next frames read, or on its
        next tree step on mixed sides if that comes first, and never twice.
        Fails if a copy drops the inferred frames, or re-infers them, which
        differ in the last bits, or keeps none where the original has
        them."""
        calls = counted_inferences(monkeypatch)
        independent = SolverConfig(mode=SolverMode.INDEPENDENT)
        # None reads every stack.
        for actions, inferring in (
            ([None, COMBINED, independent, COMBINED], [0, 0, 1]),
            ([COMBINED, independent, None, COMBINED], [0, 1, 0]),
        ):
            s, provider = pulled_tree()
            mode = SolverMode.CONSTRAINED if last == "forest" else SolverMode.PROJECTED
            step(s, provider, COMBINED)
            step(s, provider, SolverConfig(mode=mode))
            if last == "read":
                s.rows_at_poses().frames()
            twin = copy.deepcopy(s) if copier == "deepcopy" else pickle.loads(pickle.dumps(s))

            def history(x):
                counts, results = [], []
                for cfg in actions:
                    start = len(calls)
                    results.append(state(x) if cfg is None else outcome(x, provider, cfg))
                    counts.append(len(calls) - start)
                return counts, results + [state(x)]

            expected = history(s)
            assert expected[0] == [int(last != "read")] + inferring
            assert history(twin) == expected

    def test_concurrent_reads_see_whole_stacks(self):
        """Six threads, released together by a barrier and interleaved by
        a shortened switch interval, read the joints of one store that has
        none yet; each must see every stack inferred.  Fails (in most runs;
        the interleaving is not forced) if an inference publishes its
        stacks before they are all in place."""
        s, provider = pulled_tree()
        step(s, provider, SolverConfig(mode=SolverMode.INDEPENDENT))
        expected = state(copy.deepcopy(s))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                twin, seen, barrier = copy.deepcopy(s), [], threading.Barrier(6)

                def read():
                    barrier.wait(timeout=10.0)
                    seen.append(state(twin))

                threads = [threading.Thread(target=read) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                assert seen == [expected] * 6
        finally:
            sys.setswitchinterval(interval)


class TestReadOnlyRows:
    def test_stored_rows_refuse_in_place_writes(self):
        """Fails if ``ConstraintRows.__post_init__`` leaves the arrays
        writeable: a write would leave the structure's stored rows stale."""
        s = build_serial_chain(3)
        rows = s.rows_at_poses()()
        for array in (rows.extended, rows.d_a, rows.d_b):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                array += 1.0
        assert s.rows_at_poses()(blocks=False) is rows

    def test_no_rows_refuse_in_place_writes(self):
        """Fails if ``_NO_ROWS``, shared by every step without constraint
        rows, is built with writeable arrays."""
        for array in (solver._NO_ROWS.extended, solver._NO_ROWS.d_a, solver._NO_ROWS.d_b):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 1.0

    def test_norms_are_handed_out_as_fresh_lists(self):
        """Fails if ``ConstraintRows.norms`` hands out a list that a later
        call hands out again, so that a caller's edit shows there."""
        s = build_serial_chain(3)
        moved = s.bodies[2].pose @ random_pose(np.random.default_rng(51), 0.1, 0.1)
        s = rebuilt(s, pose={2: moved})
        rows = s.rows_at_poses()(blocks=False)
        first = rows.norms()
        first.append(1.0)
        again = rows.norms()
        assert again == first[:-1] and again is not first
        per_constraint = np.split(rows.residual, np.cumsum(rows.stack.counts)[:-1])
        assert again == [float(np.linalg.norm(r)) for r in per_constraint]


def kept_arrays(s):
    """Every array of the structure's stacks, its constraint stack and its
    joints, by name, and the arrays of its stored rows."""
    rows = s.rows_at_poses()()
    frames = {n: p for n, p in vars(s.constraint_stack).items() if isinstance(p, Pose)}
    poses = {
        "poses()": s.poses(),
        **{f"stacks(s)[{name!r}]": stack for name, stack in stacks(s).items()},
        **{f"constraint_stack.{name}": p for name, p in frames.items()},
    }
    arrays = {f"{name}.{part}": getattr(p, part) for name, p in poses.items() for part in "rt"}
    arrays.update({f"rows_at_poses()().{n}": getattr(rows, n) for n in ("extended", "d_a", "d_b")})
    arrays.update(
        {f"constraint_stack.{n}": a for n, a in vars(s.constraint_stack).items() if n not in frames}
    )
    arrays.update(
        {f"bodies[{i}].joint.free_axes": b.joint.free_axes for i, b in enumerate(s.bodies)}
    )
    return arrays


COMBINED = SolverConfig(mode=SolverMode.COMBINED)


def pulled_tree():
    """A random tree of mixed fixed sides with both kinds of constraint, and
    pose targets that pull it."""
    rng = np.random.default_rng(53)
    s = random_tree(rng, 6, min_dof=3, fixed_sides=SIDES["mixed"])
    s = rebuilt(s, constraints=some_constraints(rng))
    return s, per_body({i: quadratic_pose_target(random_pose(rng), 50.0, 80.0) for i in (0, 3)})


class TestOneWriter:
    """update_poses is the only writer of a structure's state: it replaces
    the read-only stacks, and nothing writes into them."""

    @pytest.mark.parametrize("copied", [False, True])
    @pytest.mark.parametrize("stack", ["pose", "constraint"])
    def test_a_write_behind_the_stored_rows_raises(self, stack, copied):
        """An in-place write to the pose stack or to the constraint stack
        would leave the stored rows stale: norms [0, 0] where a fresh
        evaluation gives [0, 0.866].  Fails if the structure's pose stack is
        writeable, or if ``ConstraintStack`` leaves an array writeable, also
        in a copy."""
        s = build_serial_chain(3)
        if copied:
            s = copy.deepcopy(s)
        rows = s.rows_at_poses()(blocks=False)
        with pytest.raises(ValueError, match="read-only"):
            if stack == "pose":
                s.poses().t[2] += 0.5
            else:
                s.constraint_stack.inverse_b.t[1] += 0.5
        fresh = [float(np.linalg.norm(scalar.constraint_residual(c, s))) for c in s.constraints]
        again = evaluate_constraints(s.constraint_stack, s.poses(), blocks=False).norms()
        assert rows.norms() == [0.0, 0.0] == fresh == again

    @pytest.mark.parametrize("which", ["original", "copy before a step", "copy after a step"])
    def test_kept_arrays_refuse_in_place_writes(self, which):
        """Fails if update_poses or ``_PoseStore.frames`` leaves a stack it
        makes writeable, or if the constraint stack or a joint's free
        axes are writeable; on a copy, if ``_ReadOnly.__setstate__`` stops
        freezing what a store, its rows or a joint holds, as numpy copies
        arrays writeable."""
        s, provider = pulled_tree()
        assert not s.forest.links  # built now, so that a copy copies it
        if which == "copy before a step":
            s = copy.deepcopy(s)
        step(s, provider, COMBINED)
        if which == "copy after a step":
            s = copy.deepcopy(s)
        for name, array in kept_arrays(s).items():
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0
            assert not array.flags.writeable, name

    @pytest.mark.parametrize("copier", ["deepcopy", "pickle"])
    @pytest.mark.parametrize("sides", ["parent_to_joint", "joint_to_model"])
    def test_a_copy_infers_read_only_stacks(self, sides, copier):
        """A copy taken after a forest step infers its joint frames in a
        copy of the joint_to_model stack the structure adopted where the
        joints fix parent_to_joint, and passes on the adopted frames whole
        where every J_T_M is fixed.  Fails if ``_ReadOnly._freeze`` stops
        freezing the Poses of a dict attribute, such as the structure's
        adopted frames."""
        rng = np.random.default_rng(58)
        s = random_tree(rng, 6, fixed_sides=SIDES[sides])
        s.update_poses(0.1 * rng.standard_normal(s.forest.n_dof), forest=True)
        twin = copy.deepcopy(s) if copier == "deepcopy" else pickle.loads(pickle.dumps(s))
        for name, stack in stacks(twin).items():
            assert not (stack.r.flags.writeable or stack.t.flags.writeable), name

    @pytest.mark.parametrize("copier", ["deepcopy", "pickle"])
    def test_copies_keep_their_rows_bit_for_bit(self, copier, monkeypatch):
        """A copy keeps the rows its store holds, read-only, and evaluates
        none: a deep copy shares the frozen record, pickle builds it again.
        Fails if a copy drops them, if a pickled ``ConstraintRows`` leaves
        its arrays writeable, or if the copy's rows or its next step differ
        from the original's by a bit."""
        s, provider = pulled_tree()
        step(s, provider, COMBINED)
        rows = s.rows_at_poses()()
        twin = copy.deepcopy(s) if copier == "deepcopy" else pickle.loads(pickle.dumps(s))
        calls = []
        original = kinematics.evaluate_constraints
        monkeypatch.setattr(
            kinematics, "evaluate_constraints", lambda *args: calls.append(1) or original(*args)
        )
        again = twin.rows_at_poses()()
        assert not calls and again.stack is twin.constraint_stack
        assert (again is rows) == (copier == "deepcopy")
        for name in ("extended", "d_a", "d_b"):
            assert not getattr(again, name).flags.writeable, name
            assert getattr(again, name).tobytes() == getattr(rows, name).tobytes(), name
        assert again.norms() == rows.norms()
        assert outcome(twin, provider, COMBINED) == outcome(s, provider, COMBINED)
        assert state(twin) == state(s)

    @pytest.mark.parametrize(
        "target",
        ["tree.axis", "forest.pairs", "kept pattern", "dof_offsets", "tree.links", "bodies"],
    )
    def test_what_construction_fixes_refuses_writes(self, target):
        """The views, their kept KKT patterns, the DoF offsets and the
        bodies are fixed at construction: an in-place write would change
        later steps (a writeable ``s.tree.axis`` took ``s.tree.axis[1] = 5``
        and the PROJECTED step's theta norm below from 0.07779 to
        0.07723).  Fails if
        ``Coordinates`` or ``_Pattern`` leaves an array writeable, or if
        ``links`` or ``bodies`` is a list, or if the next steps differ by a
        bit from those of a fresh structure."""
        s = build_serial_chain(3)
        step(s, per_body({}), SolverConfig(mode=SolverMode.CONSTRAINED))
        fresh = rebuilt(s)
        container, value = {
            "tree.axis": (s.tree.axis, 5),
            "forest.pairs": (s.forest.pairs[1], 0),
            "kept pattern": (s.forest.kkt_patterns[True].slots, 0),
            "dof_offsets": (s.dof_offsets, 0),
            "tree.links": (s.tree.links, (1, 1)),
            "bodies": (s.bodies, Body("other", Joint(np.ones(6, bool)))),
        }[target]
        with pytest.raises((TypeError, ValueError), match="read-only|does not support item"):
            container[1] = value
        provider = per_body({2: quadratic_pose_target(random_pose(np.random.default_rng(60)))})
        for mode in (SolverMode.PROJECTED, SolverMode.CONSTRAINED):
            cfg = SolverConfig(mode=mode)
            assert outcome(s, provider, cfg) == outcome(fresh, provider, cfg), mode
            assert state(s) == state(fresh), mode

    @pytest.mark.parametrize("copier", ["original", "deepcopy", "pickle"])
    def test_every_array_reachable_from_a_structure_is_read_only(self, copier):
        """After a step in each mode, every array reachable from a
        structure refuses in-place writes, also in a copy: its views and
        their four kept KKT patterns, its bodies' joints, its constraints
        and their stack, its adopted stacks and fixed factors, and its
        store's stacks and rows.  Fails if any of them keeps a writeable
        array, such as a view or a pattern that stops freezing itself."""
        s, provider = pulled_tree()
        for mode in SolverMode:
            step(s, provider, SolverConfig(mode=mode))
        if copier == "deepcopy":
            s = copy.deepcopy(s)
        elif copier == "pickle":
            s = pickle.loads(pickle.dumps(s))
        assert len(s.tree.kkt_patterns) == len(s.forest.kkt_patterns) == 2
        arrays = reachable_arrays(s)
        assert len(arrays) > 100
        for path, array in arrays.items():
            assert not array.flags.writeable, path

    @pytest.mark.parametrize("copied", [False, True])
    def test_assigning_a_field_after_adoption_raises(self, copied):
        """The structure reads a body's fields once, when it adopts it: an
        assigned pose row would be written behind its stacks, and an
        assigned parent or joint would have no effect.  A joint is a frozen
        record, adopted or not.  Fails if ``Body.__setattr__`` lets an
        adopted field be assigned, also in a copy, or if its error stops
        naming the body and the field, or if a joint's field can be
        assigned or its free axes or transform written."""
        body = Body("lone", Joint(np.ones(6, dtype=bool)))
        pose = Pose.from_rotvec([0.1, 0.0, 0.0], [0.0, 0.2, 0.0])
        body.pose, body.parent = pose, 3
        assert body.pose is pose and body.parent == 3
        s = build_serial_chain(3)
        if copied:
            s = copy.deepcopy(s)
        rows, saved, n_dof = s.rows_at_poses()(), state(s), s.n_dof
        joint = s.bodies[1].joint
        for obj, field, value, named in [
            (s.bodies[1], "pose", pose, "body 'body1': pose"),
            (s.bodies[1], "parent", 0, "body 'body1': parent"),
            (s.bodies[2], "joint", Joint(np.ones(6, dtype=bool)), "body 'body2': joint"),
        ]:
            with pytest.raises(AttributeError, match=f"^{named} is read-only"):
                setattr(obj, field, value)
        for obj in (joint, body.joint):
            for field, value in [
                ("joint_to_model", pose), ("parent_to_joint", pose), ("free_axes", np.ones(6, bool))
            ]:
                with pytest.raises(dataclasses.FrozenInstanceError, match=f"field '{field}'"):
                    setattr(obj, field, value)
            for array in (obj.free_axes, obj.joint_to_model.r, obj.joint_to_model.t):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0
        assert joint.parent_to_joint is None and s.bodies[1].parent == 0
        assert joint.free_axes.sum() == 1 and s.n_dof == n_dof == 8
        assert state(s) == saved and s.rows_at_poses()() is rows


COPIERS = {"copy": copy.copy, "deepcopy": copy.deepcopy}


class TestACopyIsANewState:
    """A copy of a structure, shallow or deep, shares everything its
    construction fixed, all of it read-only, and has a state of its own: a
    store on the same poses and the joint stacks and rows derived from them,
    and bodies bound to it, sharing the frozen joints."""

    @pytest.mark.parametrize("copier", COPIERS)
    def test_shares_what_construction_fixed(self, copier):
        """Fails if a copy duplicates a view, a KKT pattern, the
        constraints, their stack, the joints, the adopted stacks, the DoF
        offsets, the rows object or the joint stacks inferred before it was
        made; if it shares the original's store or bodies; or if any array
        reachable from it is writeable."""
        s, provider = pulled_tree()
        for mode in SolverMode:
            step(s, provider, SolverConfig(mode=mode))
        s.rows_at_poses().frames()
        twin = COPIERS[copier](s)
        shared = ("tree", "forest", "constraint_stack", "_constraints", "_adopted", "_inference",
                  "dof_offsets")
        for name in shared:
            assert getattr(twin, name) is getattr(s, name), name
        for mode in SolverMode:
            assert solver._pattern(twin, mode) is solver._pattern(s, mode), mode
        store, own = s.rows_at_poses(), twin.rows_at_poses()
        assert own is not store and own.s is twin and own.rows is store.rows
        assert own.poses is store.poses and own.frames() is store.frames()
        for name in ("extended", "d_a", "d_b", "stack"):
            assert getattr(own.rows, name) is getattr(store.rows, name), name
        for original, body in zip(s.bodies, twin.bodies):
            assert body is not original and body.joint is original.joint
            assert body._owner is twin
            assert (body.name, body.parent) == (original.name, original.parent)
        arrays = reachable_arrays(twin)
        assert len(arrays) > 100
        for path, array in arrays.items():
            assert not array.flags.writeable, path

    @pytest.mark.parametrize("copier", COPIERS)
    @pytest.mark.parametrize("mode", list(SolverMode))
    def test_a_step_on_one_leaves_the_other(self, mode, copier):
        """Stepping the copy leaves the original's poses, joint stacks and
        rows as they were, and the reverse, and the two, stepped alike, agree
        bit for bit.  Fails if the two share a store or a body, or if a step
        writes into what they share."""
        s, provider = pulled_tree()
        step(s, provider, COMBINED)
        twin = COPIERS[copier](s)

        def read(x):
            return [b.pose.t.tobytes() for b in x.bodies]

        for moved, kept in ((twin, s), (s, twin)):
            store, saved, bodies, start = kept.rows_at_poses(), state(kept), read(kept), state(moved)
            rows = store()
            step(moved, provider, SolverConfig(mode=mode))
            assert state(moved) != start
            assert kept.rows_at_poses() is store and store() is rows
            assert state(kept) == saved and read(kept) == bodies
        assert state(twin) == state(s) and read(twin) == read(s)

    @pytest.mark.parametrize("structure_first", [True, False])
    def test_a_deep_copy_of_a_tuple_keeps_bodies_and_joints_tied(self, structure_first):
        """A body and a joint deep-copied along with their structure, before
        or after it, are the copy's: the body reads its poses, and the joint
        is the one its body holds, the original if the structure came first
        (a copy shares its joints).  Fails if the copy hook ignores
        ``memo``, or replaces a body or joint copy that ``memo`` holds
        already."""
        s = build_serial_chain(3)
        items = (s, s.bodies[1], s.bodies[2].joint)
        copied = copy.deepcopy(items if structure_first else items[::-1])
        twin, body, joint = copied if structure_first else copied[::-1]
        assert twin.bodies[1] is body and twin.bodies[2].joint is joint
        assert body._owner is twin and (joint is s.bodies[2].joint) == structure_first
        twin.update_poses(np.full(twin.n_dof, 0.1))
        assert body.pose.t.tobytes() == twin.poses()[1].t.tobytes()
        assert s.bodies[1].pose.t.tolist() == [0.1, 0.0, 0.0]


def reachable_arrays(root, records=True) -> dict:
    """Every array reachable from ``root``, by the first path that reaches
    it: through Poses, the items of dicts, tuples and lists and, with
    ``records``, the attributes of the package's objects; without, only
    those of ``root`` itself (the arrays a record holds)."""
    arrays, seen, todo = {}, set(), [(name, value) for name, value in vars(root).items()]
    while todo:
        path, value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            arrays[path] = value
        elif isinstance(value, Pose):
            todo += [(f"{path}.r", value.r), (f"{path}.t", value.t)]
        elif isinstance(value, dict):
            todo += [(f"{path}[{key!r}]", item) for key, item in value.items()]
        elif isinstance(value, (tuple, list)):
            todo += [(f"{path}[{k}]", item) for k, item in enumerate(value)]
        elif records and type(value).__module__.startswith("multibody."):
            todo += [(f"{path}.{name}", item) for name, item in vars(value).items()]
    return arrays


def kept_pattern(s, mode, band):
    """The KKT pattern a step in ``mode`` keeps, stored as a band matrix or
    densely."""
    step(s, per_body({}), SolverConfig(mode=mode))
    pattern = solver._pattern(s, mode)
    assert (pattern.order is not None) == band
    return pattern


# By class name, then what the record is.
READ_ONLY_RECORDS = {
    "Joint": lambda s: s.bodies[1].joint,
    "Constraint": lambda s: s.constraints[0],
    "OrthogonalityConstraint": lambda s: s.constraints[1],
    "ConstraintStack": lambda s: s.constraint_stack,
    "ConstraintRows": lambda s: s.rows_at_poses()(),
    "_PoseStore": lambda s: s.rows_at_poses(),
    "KinematicStructure": lambda s: s,
    "Regularization": lambda s: COMBINED.regularization,
    "Coordinates (tree)": lambda s: s.tree,
    "Coordinates (forest)": lambda s: s.forest,
    "_Pattern (dense, four-bar)": lambda s: kept_pattern(
        load_config(DEMO_CONFIG).structure, SolverMode.COMBINED, band=False
    ),
    "_Pattern (band, 64-body chain)": lambda s: kept_pattern(
        build_serial_chain(64), SolverMode.CONSTRAINED, band=True
    ),
}


@pytest.mark.parametrize("copier", ["deepcopy", "pickle"])
@pytest.mark.parametrize("record", READ_ONLY_RECORDS)
def test_every_read_only_record_stays_read_only_in_a_copy(record, copier):
    """Each record whose arrays must not change, taken from a structure with
    an orthogonality constraint after a COMBINED step (a KKT pattern from
    the four-bar or the 64-body chain after a step) and copied on its own,
    holds only read-only arrays.  Fails if the record stops inheriting
    ``_ReadOnly``, or if ``_ReadOnly._freeze`` misses an array, a Pose's
    arrays or those a dict, tuple or list holds."""
    s, provider = pulled_tree()
    assert isinstance(s.constraints[1], OrthogonalityConstraint)
    step(s, provider, COMBINED)
    original = READ_ONLY_RECORDS[record](s)
    assert type(original).__name__ == record.split()[0]
    twin = copy.deepcopy(original) if copier == "deepcopy" else pickle.loads(pickle.dumps(original))
    arrays = reachable_arrays(twin, records=False)
    assert arrays.keys() == reachable_arrays(original, records=False).keys() and arrays
    for name, array in arrays.items():
        assert not array.flags.writeable, name


# The records a structure's copies share by identity, by class name.
SHARED_RECORDS = {
    "ConstraintRows": lambda s: s.rows_at_poses()(),
    "_Pattern": lambda s: solver._pattern(s, SolverMode.COMBINED),
}


@pytest.mark.parametrize("copier", ["original", *COPIERS, "record deepcopy", "record pickle"])
@pytest.mark.parametrize("record", SHARED_RECORDS)
def test_a_shared_record_refuses_assignment(record, copier):
    """A structure's copies share its stored rows record and its views'
    kept KKT patterns, whose arrays refuse writes; no field can be rebound
    either, in the original, in a copy of the structure, or in the record
    deep-copied or pickled on its own.  Fails if ``ConstraintRows`` or
    ``_Pattern`` stops being a frozen dataclass."""
    s, provider = pulled_tree()
    step(s, provider, COMBINED)
    if copier in COPIERS:
        s = COPIERS[copier](s)
    original = SHARED_RECORDS[record](s)
    assert type(original).__name__ == record
    kept = {
        "record deepcopy": copy.deepcopy,
        "record pickle": lambda r: pickle.loads(pickle.dumps(r)),
    }.get(copier, lambda r: r)(original)
    fields = dataclasses.fields(kept)
    assert len(fields) >= 4
    for field in fields:
        value = getattr(kept, field.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(kept, field.name, value)
        assert getattr(kept, field.name) is value, field.name


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


# The last three are the kernels' limit rows: an angle whose square is
# subnormal, one whose row norm underflows to 0 while the row is not zero,
# and the smallest subnormal.
SMALL = [0.0, 1e-12, 3e-7, 0.5 * 1e-4, np.nextafter(1e-4, 0.0), 1e-160, 1e-200, 5e-324]
ORDINARY = [1e-4, 2e-4, 0.3, 1.7, 3.0]
STACKS = {
    "no small row": ORDINARY,
    "all small rows": SMALL,
    "mixed": [SMALL[1], ORDINARY[2], SMALL[0], ORDINARY[4], SMALL[4], ORDINARY[0]],
}


class TestSmallAnglesInAStack:
    @pytest.mark.parametrize("stack", list(STACKS))
    def test_kernels_equal_the_scalar_formulas_row_by_row(self, stack):
        """Stacks with no small angle, only small angles (0.0 among them)
        and both mixed: every row must equal its scalar formula bit for bit.
        Fails if a kernel divides by a zero angle (a RuntimeWarning, an
        error here) or takes its limit on a row whose angle is not 0."""
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
