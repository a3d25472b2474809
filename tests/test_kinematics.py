"""Body Jacobians and the recursive pose update against FD and matrix oracles."""

import copy
import re
import warnings

import numpy as np
import pytest

from builders import MODEL, PARENT, random_pose, random_tree, rebuilt, stacks
from multibody.constraints import Constraint, ConstraintStack, OrthogonalityConstraint
from multibody.kinematics import (
    AXIS_NAMES,
    Body,
    Joint,
    KinematicStructure,
    axes_mask,
)
from multibody.se3 import Pose, adjoint, exp_rotvec
from multibody.solver import SolverConfig, SolverMode, step
from multibody.energy import per_body, quadratic_pose_target, zero_energy
from multibody.experiments import build_serial_chain
from oracles import (
    body_jacobians,
    detached,
    expand_joint_variation,
    joint_transforms,
    pose_matrix,
    relative_variation,
    scalar_update,
    selection_body_jacobians,
)


class TestExpandJointVariation:
    def test_single_axis_scatter(self):
        j = Joint(free_axes=axes_mask(["rot_z"]))
        assert np.allclose(expand_joint_variation(j, [0.3]), [0, 0, 0.3, 0, 0, 0])

    def test_all_free_is_identity(self):
        j = Joint(free_axes=np.ones(6, dtype=bool))
        v = np.arange(6.0)
        assert np.allclose(expand_joint_variation(j, v), v)

    def test_mixed_axes(self):
        j = Joint(free_axes=axes_mask(["rot_x", "trans_y"]))
        assert np.allclose(expand_joint_variation(j, [1.5, 2.5]), [1.5, 0, 0, 0, 2.5, 0])

    def test_length_mismatch(self):
        j = Joint(free_axes=axes_mask(["rot_z"]))
        with pytest.raises(ValueError):
            expand_joint_variation(j, [0.1, 0.2])


class TestCoordinates:
    def test_forest_view_holds_no_n_by_n_array(self):
        n = 50
        s = build_serial_chain(n)
        for mode in (SolverMode.CONSTRAINED, SolverMode.INDEPENDENT):
            step(s, zero_energy, SolverConfig(mode=mode))
        view = s.forest
        assert set(view.kkt_patterns) == {False, True}
        assert view.subtree is None and view.moves is None
        arrays = list(view.pairs)
        for holder in (view, *view.kkt_patterns.values()):
            arrays += [v for v in vars(holder).values() if isinstance(v, np.ndarray)]
        assert all(a.ndim == 1 for a in arrays)
        assert s.tree.subtree.shape == (n, n)

    @pytest.mark.parametrize("linked", [False, True])
    def test_moving_lists_the_coordinates_that_move_each_body(self, linked):
        rng = np.random.default_rng(30)
        s = random_tree(rng, 6)
        if not linked:
            s = KinematicStructure([Body(b.name, b.joint, b.pose) for b in s.bodies])
        view = s.tree
        # Coordinate q moves body i when q's body is i or one of its ancestors.
        lineage = [{i} for i in range(len(s.bodies))]
        for i, body in enumerate(s.bodies):
            if body.parent is not None:
                lineage[i] |= lineage[body.parent]
        bodies = rng.integers(0, len(s.bodies), 9)
        moves = np.array([[view.body[q] in lineage[i] for q in range(view.n_dof)] for i in bodies])
        sides, coords = view.moving(bodies)
        assert np.array_equal(sides, np.nonzero(moves)[0])
        assert np.array_equal(coords, np.nonzero(moves)[1])


class TestStructureValidation:
    def test_empty_structure_rejected(self):
        with pytest.raises(ValueError, match="at least one body"):
            KinematicStructure([])

    def test_duplicate_names_rejected(self):
        j = Joint(free_axes=np.ones(6, dtype=bool))
        bodies = [Body("a", copy.deepcopy(j)), Body("a", copy.deepcopy(j))]
        with pytest.raises(ValueError):
            KinematicStructure(bodies)

    def test_parent_must_precede_child(self):
        j = Joint(free_axes=np.ones(6, dtype=bool))
        bodies = [
            Body("a", copy.deepcopy(j), parent=1),
            Body("b", copy.deepcopy(j)),
        ]
        with pytest.raises(ValueError):
            KinematicStructure(bodies)

    @pytest.mark.parametrize("bad", [0.0, 0.5, False, np.bool_(True)])
    def test_a_parent_index_must_be_an_integer(self, bad):
        """``parent=0.0`` raised numpy's unnamed IndexError, and
        ``parent=False`` a broadcast ValueError.  Fails if a bool or a
        non-integral parent is taken, or if the error stops naming the body
        and its parent; a numpy integer stays valid."""
        def bodies(parent):
            j = Joint(free_axes=np.ones(6, dtype=bool))
            return [Body("a", copy.deepcopy(j)), Body("b", copy.deepcopy(j), parent=parent)]

        with pytest.raises(TypeError, match="^body 'b': parent must be an integer body index"):
            KinematicStructure(bodies(bad))
        assert KinematicStructure(bodies(np.int64(0))).tree.links == ((1, 0),)

    @pytest.mark.parametrize("bad", [[0, 1, 2, 3, 4, 5], [0.5, 0, 0, 0, 0, 0], np.ones(6), "rot_x"])
    def test_free_axes_must_be_a_boolean_mask(self, bad):
        """``free_axes=[0, 1, 2, 3, 4, 5]`` was cast to a mask that locked
        rot_x, and ``[0.5, 0, ...]`` freed rot_x.  Fails if a mask whose
        dtype is not bool is taken, or if the error stops naming the field;
        a list of bools stays valid."""
        with pytest.raises(TypeError, match="^free_axes must be a boolean mask, not "):
            Joint(free_axes=bad)
        assert Joint(free_axes=[True] * 5 + [False]).free_axes.tolist() == [True] * 5 + [False]

    @pytest.mark.parametrize("field", [MODEL, PARENT, "joint", "pose", "constraint"])
    def test_a_field_of_the_wrong_type_is_named(self, field):
        """A joint transform given as a 4 x 4 matrix raised numpy's "truth
        value of an array ... is ambiguous"; a body's joint None, a body's
        pose a matrix and a constraint that is no constraint record raised
        AttributeErrors from deep inside (no attribute 'parent_to_joint',
        'r', 'body_a').  Fails if such a field is taken, or if its
        TypeError stops naming the field and the body or constraint; a
        structure that refuses one adopts none of its bodies."""
        free = np.ones(6, dtype=bool)
        if field in (MODEL, PARENT):
            with pytest.raises(TypeError, match=f"^{field} must be a Pose, not ndarray$"):
                Joint(free, **{field: np.eye(4)})
            return
        a = Body("a", Joint(free))
        bodies, constraints, named = {
            "joint": ([a, Body("b", None, parent=0)], [], "body 'b': joint must be a Joint"),
            "pose": ([a, Body("b", Joint(free), np.eye(4))], [], "body 'b': pose must be a Pose"),
            "constraint": (
                [a, Body("b", Joint(free))],
                [Constraint(0, 1), {"body_a": 0, "body_b": 1}],
                "constraint 1 must be a Constraint or OrthogonalityConstraint",
            ),
        }[field]
        with pytest.raises(TypeError, match=f"^{named}, not (NoneType|ndarray|dict)$"):
            KinematicStructure(bodies, constraints)
        assert a._owner is None

    def test_dof_offsets_contiguous(self):
        rng = np.random.default_rng(0)
        s = random_tree(rng, 5)
        offset = 0
        for i, body in enumerate(s.bodies):
            assert s.dof_offsets[i] == offset
            offset += np.count_nonzero(body.joint.free_axes)
        assert s.n_dof == offset

    @pytest.mark.parametrize("kind", [Constraint, OrthogonalityConstraint])
    @pytest.mark.parametrize("bad", [5, -1])
    def test_constraint_body_index_out_of_range(self, kind, bad):
        j = Joint(free_axes=np.ones(6, dtype=bool))
        bodies = [Body("a", copy.deepcopy(j)), Body("b", copy.deepcopy(j))]
        ok = kind(0, 1)
        with pytest.raises(ValueError, match=f"constraint 1: body index {bad}"):
            KinematicStructure(bodies, [ok, kind(0, bad)])
        with pytest.raises(ValueError, match=f"constraint 0: body index {bad}"):
            KinematicStructure(bodies, [kind(bad, 1)])

    @pytest.mark.parametrize("kind", [Constraint, OrthogonalityConstraint])
    def test_constraints_are_given_at_construction_only(self, kind):
        j = Joint(free_axes=np.ones(6, dtype=bool))
        s = KinematicStructure([Body("a", copy.deepcopy(j)), Body("b", copy.deepcopy(j))])
        assert s.constraints == () and s.constraint_stack.counts.shape == (0,)
        s = rebuilt(s, constraints=[kind(0, 1)])
        # Neither assigned behind the stack and the stored rows, nor grown.
        for twin in (s, copy.deepcopy(s)):
            with pytest.raises(AttributeError):
                twin.constraints = []
            with pytest.raises(AttributeError):
                twin.constraints.append(kind(0, 99))
            assert len(twin.constraints) == 1 and twin.constraint_stack.counts.shape == (1,)

    def test_malformed_pose_rows_rejected(self):
        j = Joint(free_axes=np.ones(6, dtype=bool))
        flat = Pose(np.eye(3).reshape(9), np.zeros(3))
        with pytest.raises(
            ValueError, match=r"body 'a': pose rotation has shape \(9,\), not \(3, 3\)"
        ):
            KinematicStructure([Body("a", copy.deepcopy(j), pose=flat)])
        short = Pose(np.eye(3), np.zeros(2))
        a = Body("a", copy.deepcopy(j))
        first = KinematicStructure([a])
        free = detached(first)[0]
        b = Body("b", Joint(j.free_axes, parent_to_joint=short), parent=0)
        with pytest.raises(
            ValueError, match=r"joint of body 'b': parent_to_joint translation has shape \(2,\)"
        ):
            KinematicStructure([free, b])
        # A structure that fails to build adopts none of its bodies.
        assert KinematicStructure([free]).bodies[0] is free
        first.update_poses(np.full(6, 0.1))
        assert np.array_equal(first.poses().r[0], a.pose.r)
        s = build_serial_chain(3)
        saved = state(s)
        with pytest.raises(ValueError, match="body 'body1': pose rotation"):
            rebuilt(s, pose={1: flat})
        with pytest.raises(ValueError, match="joint of body 'body2': joint_to_model translation"):
            rebuilt(s, joint_to_model={2: short})
        assert same_state(state(s), saved)
        # Values are not checked: a step names what a NaN pose breaks.
        s = rebuilt(s, pose={1: Pose(np.eye(3), np.full(3, np.nan))})
        assert np.isnan(s.poses().t[1]).all()

    @pytest.mark.parametrize("kind", [Constraint, OrthogonalityConstraint])
    def test_malformed_constraint_frames_rejected(self, kind):
        flat = Pose(np.eye(3).reshape(9), np.zeros(3))
        s = build_serial_chain(3)
        with pytest.raises(
            ValueError, match=r"constraint 0: frame_a rotation has shape \(9,\), not \(3, 3\)"
        ):
            rebuilt(s, constraints=[kind(0, 2, frame_a=flat)])
        assert len(s.constraints) == 2
        short, bodies = Pose(np.eye(3), np.zeros(2)), detached(build_serial_chain(3))
        with pytest.raises(
            ValueError, match=r"constraint 1: frame_b translation has shape \(2,\), not \(3,\)"
        ):
            KinematicStructure(bodies, [kind(0, 1), kind(1, 2, frame_b=short)])
        # A stack built directly names the constraint as well.
        with pytest.raises(
            ValueError, match=r"constraint 2: frame_a rotation has shape \(9,\), not \(3, 3\)"
        ):
            ConstraintStack([kind(0, 1), kind(1, 2), kind(0, 2, frame_a=flat)])
        # Values are not checked: a step names what a NaN frame breaks.
        s = rebuilt(s, constraints=[kind(0, 2, frame_a=Pose(np.eye(3), np.full(3, np.nan)))])
        assert np.isnan(s.constraint_stack.frame_a.t).all()

    @pytest.mark.parametrize("side", [MODEL, PARENT])
    def test_bodies_sharing_a_joint_step_like_two_equal_joints(self, side):
        """A joint is a frozen record, so two bodies may share one.  Fails
        if a structure refuses it, or if steps in the four modes differ by a
        bit from those with an equal joint of its own for each body."""
        rng = np.random.default_rng(11)
        joint = Joint(axes_mask(["rot_z", "trans_x"]), **{side: random_pose(rng, 1.0, 0.3)})
        twin = Joint(joint.free_axes, **{side: getattr(joint, side)})
        poses = [random_pose(rng) for _ in range(3)]
        provider = per_body({i: quadratic_pose_target(random_pose(rng), 5.0, 8.0) for i in (1, 2)})

        def run(second):
            bodies = [Body("root", Joint(np.ones(6, dtype=bool)), pose=poses[0])]
            bodies += [Body(f"b{i}", j, poses[i], 0) for i, j in ((1, joint), (2, second))]
            s = KinematicStructure(bodies)
            norms = [step(s, provider, SolverConfig(mode=mode)).theta_norm for mode in SolverMode]
            return norms, state(s)

        shared, own = run(joint), run(twin)
        assert shared[0] == own[0] and same_state(shared[1], own[1])

    def test_a_joint_fixes_one_transform(self):
        """Fails if ``Joint`` takes both transforms, of which one would be
        replaced silently by the one the poses imply, or if its error stops
        naming them."""
        named = "^a joint fixes joint_to_model or parent_to_joint, not both$"
        with pytest.raises(ValueError, match=named):
            Joint(np.ones(6, dtype=bool), Pose.identity(), Pose.identity())

    def test_a_root_fixes_joint_to_model(self):
        """A root has no parent, so no computation reads a parent_to_joint
        given to its joint.  Fails if a structure takes one, or if its error
        stops naming the body."""
        shifted = Pose(np.eye(3), [0.0, 0.1, 0.0])
        j = Joint(np.ones(6, dtype=bool), parent_to_joint=shifted)
        with pytest.raises(ValueError, match="^body 'b': a root's joint fixes joint_to_model, not "
                                             "parent_to_joint$"):
            KinematicStructure([Body("a", Joint(np.ones(6, dtype=bool))), Body("b", j)])


def state(s):
    """Copies of every body pose and joint frame of s, read through its
    store, body by body: pose, joint_to_model, model_to_joint."""
    rows = stacks(s)
    return [
        (p.r.copy(), p.t.copy())
        for i in range(len(s.bodies))
        for p in (rows["pose"][i], rows["joint_to_model"][i], rows["model_to_joint"][i])
    ]


def same_state(a, b):
    return all(np.array_equal(x, y) for pa, pb in zip(a, b) for x, y in zip(pa, pb))


class TestOwnedState:
    """The structure owns the pose stacks; ``Body.pose`` is a row of them,
    and the joint stacks are read through the store."""

    def test_deepcopy_is_independent_of_its_original(self):
        s = random_tree(np.random.default_rng(31), 5)
        clone = copy.deepcopy(s)
        original = state(s)
        cfg = SolverConfig(mode=SolverMode.PROJECTED)
        step(clone, zero_energy, cfg)
        assert same_state(state(s), original)
        stepped = state(clone)
        assert not same_state(stepped, original)
        step(s, zero_energy, cfg)
        assert same_state(state(clone), stepped)
        # Stepped alike, the two agree bit for bit.
        assert same_state(state(s), stepped)

    def test_a_shallow_copy_s_bodies_read_its_poses(self):
        """A shallow copy has bodies of its own, bound to it, as a deep copy
        has, and shares the frozen joints.  Fails if it shares the
        original's bodies: after the update below, body2 of the copy read
        the original's [0.2, 0, 0] where the copy's poses read
        [0.297, 0.131, 0.082]."""
        s = build_serial_chain(3)
        twin = copy.copy(s)
        twin.update_poses(np.full(twin.n_dof, 0.1))
        joints = twin.rows_at_poses().frames()
        for i, body in enumerate(twin.bodies):
            assert body is not s.bodies[i] and body._owner is twin
            assert body.joint is s.bodies[i].joint
            assert body.pose.t.tobytes() == twin.poses()[i].t.tobytes()
            assert body.joint.joint_to_model.r.tobytes() == joints["joint_to_model"][i].r.tobytes()
        assert np.abs(twin.bodies[2].pose.t - [0.297, 0.131, 0.082]).max() < 1e-3
        assert s.bodies[2].pose.t.tolist() == [0.2, 0.0, 0.0]

    def test_a_body_belongs_to_one_structure(self):
        """A second structure refuses a body that a structure has adopted,
        naming it, before it stacks anything.  Fails if it takes the body:
        then, after one update of the second structure,
        ``s.bodies[2].pose`` read that structure's row, [0.297, 0.131,
        0.082], where ``s.poses()[2]`` is [0.2, 0, 0]."""
        s = build_serial_chain(3)
        for bodies in (s.bodies, copy.deepcopy(s).bodies[:1]):
            with pytest.raises(ValueError, match="^body 'body0' belongs to another structure"):
                KinematicStructure(bodies)
        twin = KinematicStructure(detached(s))
        twin.update_poses(np.full(twin.n_dof, 0.1))
        for i, body in enumerate(s.bodies):
            assert body._owner is s
            assert body.pose.t.tobytes() == s.poses()[i].t.tobytes()
        assert s.bodies[2].pose.t.tolist() == [0.2, 0.0, 0.0]

    def test_bodies_and_joints_compare_by_identity(self):
        """A body or a joint equals itself only, and can be put in a set.
        Fails if they compare field by field, as a dataclass does by
        default: a body and its copy's body then compare their joints'
        free axes and raise numpy's "truth value ... is ambiguous", and
        neither hashes.  A copy of a structure shares its joints."""
        s = build_serial_chain(3)
        twin = copy.deepcopy(s)
        for original, body in zip(s.bodies, twin.bodies):
            assert original == original and original != body
            assert original.joint == body.joint != copy.deepcopy(original.joint)
        assert len({*s.bodies, *twin.bodies, *(body.joint for body in s.bodies)}) == 9

    def test_poses_read_before_a_step_keep_their_values(self):
        s = random_tree(np.random.default_rng(32), 5)
        rows = stacks(s)
        names = ("pose", "joint_to_model", "model_to_joint")
        read = [rows[name][i] for i in range(5) for name in names]
        saved = state(s)
        step(s, zero_energy, SolverConfig(mode=SolverMode.PROJECTED))
        assert same_state([(p.r, p.t) for p in read], saved)
        # The bodies did move.
        assert not same_state(state(s)[0::3], saved[0::3])

    def test_updates_use_the_re_inferred_joint_to_model(self):
        """Joints with a fixed parent_to_joint get a new joint_to_model
        from each update; the next update and the Jacobians must use it."""
        rng = np.random.default_rng(33)
        s = random_tree(rng, 6, fixed_sides=[MODEL, PARENT] * 3)
        oracle = copy.deepcopy(s)
        for _ in range(3):
            theta = rng.uniform(-0.3, 0.3, s.n_dof)
            s.update_poses(theta)
            oracle = scalar_update(oracle, theta, SolverMode.PROJECTED)
        assert max(
            np.abs(a - b).max() for pa, pb in zip(state(s), state(oracle)) for a, b in zip(pa, pb)
        ) < 1e-12
        for jac, ref in zip(body_jacobians(s), selection_body_jacobians(s)):
            assert np.allclose(jac, ref, atol=1e-12)


class TestBodyJacobians:
    def test_free_root_with_identity_frames(self):
        s = KinematicStructure([Body("root", Joint(free_axes=np.ones(6, dtype=bool)))])
        assert np.allclose(body_jacobians(s)[0], np.eye(6))

    def test_single_revolute_child_column(self):
        rng = np.random.default_rng(1)
        joint_to_model, parent_to_joint = random_pose(rng, 1.0, 0.3), random_pose(rng, 1.0, 0.3)
        joint = Joint(free_axes=axes_mask(["rot_z"]), joint_to_model=joint_to_model)
        root = Body("root", Joint(free_axes=np.zeros(6, dtype=bool)))
        child = Body(
            "child",
            joint,
            pose=root.pose @ parent_to_joint @ joint.joint_to_model,
            parent=0,
        )
        s = KinematicStructure([root, child])
        jacobians = body_jacobians(s)
        expected = adjoint(joint.joint_to_model.inverse())[:, 2]
        assert np.allclose(jacobians[1][:, 0], expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_selection_matrix_recursion(self, seed):
        rng = np.random.default_rng(seed)
        s = random_tree(rng, 6)
        # The ancestor-mask form sums in another order than the recursion.
        for actual, expected in zip(body_jacobians(s), selection_body_jacobians(s)):
            assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_chain(self, seed):
        rng = np.random.default_rng(seed)
        s = random_tree(rng, 4)
        jacobians = body_jacobians(s)
        eps = 1e-6
        for i, jac in enumerate(jacobians):
            for k in range(s.n_dof):
                theta = np.zeros(s.n_dof)
                theta[k] = eps
                plus = copy.deepcopy(s)
                plus.update_poses(theta)
                minus = copy.deepcopy(s)
                minus.update_poses(-theta)
                col = (
                    relative_variation(s.bodies[i].pose, plus.bodies[i].pose)
                    - relative_variation(s.bodies[i].pose, minus.bodies[i].pose)
                ) / (2 * eps)
                assert np.max(np.abs(col - jac[:, k])) < 1e-5


class TestUpdatePoses:
    def test_zero_update_is_idempotent(self):
        rng = np.random.default_rng(2)
        s = random_tree(rng, 4)
        before = [(b.pose.r.copy(), b.pose.t.copy()) for b in s.bodies]
        s.update_poses(np.zeros(s.n_dof))
        for (r, t), body in zip(before, s.bodies):
            assert np.allclose(body.pose.r, r, atol=1e-12)
            assert np.allclose(body.pose.t, t, atol=1e-12)

    def test_revolute_joint_matches_matrix_chain(self):
        rng = np.random.default_rng(3)
        joint_to_model, parent_to_joint = random_pose(rng, 1.0, 0.3), random_pose(rng, 1.0, 0.3)
        joint = Joint(free_axes=axes_mask(["rot_z"]), joint_to_model=joint_to_model)
        root = Body("root", Joint(free_axes=np.zeros(6, dtype=bool)), pose=random_pose(rng))
        child = Body(
            "child",
            joint,
            pose=root.pose @ parent_to_joint @ joint.joint_to_model,
            parent=0,
        )
        s = KinematicStructure([root, child])
        s.update_poses(np.array([0.7]))
        rotation = Pose(exp_rotvec([0, 0, 0.7]), np.zeros(3))
        expected = (
            pose_matrix(root.pose)
            @ pose_matrix(parent_to_joint)
            @ pose_matrix(rotation)
            @ pose_matrix(joint.joint_to_model)
        )
        assert np.allclose(pose_matrix(s.bodies[1].pose), expected, atol=1e-12)

    def test_root_translation_acts_in_joint_frame(self):
        rng = np.random.default_rng(4)
        pose = random_pose(rng)
        s = KinematicStructure(
            [Body("root", Joint(free_axes=np.ones(6, dtype=bool)), pose=pose)]
        )
        d = np.array([0.1, -0.2, 0.05])
        s.update_poses(np.concatenate([np.zeros(3), d]))
        assert np.allclose(s.bodies[0].pose.t, pose.t + pose.r @ d, atol=1e-12)
        assert np.allclose(s.bodies[0].pose.r, pose.r, atol=1e-12)

    def test_first_order_projection_consistency(self):
        rng = np.random.default_rng(5)
        s = random_tree(rng, 5)
        jacobians = body_jacobians(s)
        theta = 1e-4 * rng.standard_normal(s.n_dof)
        moved = copy.deepcopy(s)
        moved.update_poses(theta)
        for i, body in enumerate(s.bodies):
            delta = relative_variation(body.pose, moved.bodies[i].pose)
            assert np.max(np.abs(delta - jacobians[i] @ theta)) < 1e-6

    def test_locked_axes_stay_locked(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = random_tree(rng, 4)
            reference = joint_transforms(s.bodies)
            s.update_poses(rng.uniform(-0.5, 0.5, s.n_dof))
            moved = joint_transforms(s.bodies)
            for i, body in enumerate(s.bodies):
                if body.parent is None:
                    continue
                rel = reference[i][0].inverse() @ moved[i][0]
                variation = relative_variation(Pose.identity(), rel)
                locked = ~body.joint.free_axes
                if locked.any():
                    assert np.max(np.abs(variation[locked])) < 1e-9

    @pytest.mark.parametrize("side", [MODEL, PARENT])
    def test_the_transform_given_is_the_fixed_side(self, side):
        """A joint fixes the transform it is given, a copy of it, and the
        structure derives the joint_to_model of a joint that fixes
        parent_to_joint from the poses, also where the body's pose disagrees
        with any value it might have been given.  Fails if the given
        transform changes by a bit, in the joint or in the store's
        joint_to_model frames, before or after a step, or if the frame with
        the parent_to_joint the poses imply (oracles.joint_transforms) stops
        composing the body's pose."""
        rng = np.random.default_rng(9)
        given = random_pose(rng, 1.0, 0.3)
        joint = Joint(free_axes=axes_mask(["rot_z"]), **{side: given})
        assert getattr(joint, side) is not given
        assert getattr(joint, PARENT if side == MODEL else MODEL) is None
        root = Body("root", Joint(free_axes=np.zeros(6, dtype=bool)), pose=random_pose(rng))
        s = KinematicStructure([root, Body("child", joint, pose=random_pose(rng), parent=0)])
        for theta in (None, np.array([0.4])):
            if theta is not None:
                s.update_poses(theta)
            rows, (parent_to_joint, _) = stacks(s), joint_transforms(s.bodies)[1]
            for fixed in [getattr(joint, side)] + [rows[MODEL][1]] * (side == MODEL):
                assert fixed.r.tobytes() == given.r.tobytes()
                assert fixed.t.tobytes() == given.t.tobytes()
            composed = rows["pose"][0] @ parent_to_joint @ rows[MODEL][1]
            assert np.allclose(pose_matrix(composed), pose_matrix(rows["pose"][1]), atol=1e-12)

    def test_parent_to_joint_fixed_side(self):
        rng = np.random.default_rng(7)
        joint_to_model, parent_to_joint = random_pose(rng, 1.0, 0.3), random_pose(rng, 1.0, 0.3)
        joint = Joint(free_axes=axes_mask(["rot_z"]), parent_to_joint=parent_to_joint)
        root = Body("root", Joint(free_axes=np.zeros(6, dtype=bool)), pose=random_pose(rng))
        child = Body(
            "child",
            joint,
            pose=root.pose @ joint.parent_to_joint @ joint_to_model,
            parent=0,
        )
        s = KinematicStructure([root, child])
        s.update_poses(np.array([0.4]))
        # The inferred side must keep the kinematic chain consistent.
        rebuilt = root.pose @ joint.parent_to_joint @ stacks(s)["joint_to_model"][1]
        assert np.allclose(pose_matrix(rebuilt), pose_matrix(s.bodies[1].pose), atol=1e-12)

    @pytest.mark.parametrize("forest", [False, True])
    @pytest.mark.parametrize("shape", [(), (2, 4), (8, 1), (5,)])
    def test_a_theta_of_another_shape_is_refused(self, shape, forest):
        """A scalar theta raised IndexError from the error message itself,
        and a (2, 4) one on the 8-DoF chain was called "length 2".  Fails if
        the update takes a theta whose shape is not (n_dof,), if its error
        stops naming the shape and the one expected, or if a stack is
        replaced before the check."""
        s = build_serial_chain(3)
        n_dof = (s.forest if forest else s.tree).n_dof
        store = s.rows_at_poses()
        named = rf"^theta has shape {re.escape(str(shape))}, expected \({n_dof},\)$"
        with pytest.raises(ValueError, match=named):
            s.update_poses(np.zeros(shape), forest=forest)
        assert s.rows_at_poses() is store

    @pytest.mark.parametrize("forest", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_theta_is_refused(self, bad, forest):
        """A NaN theta replaced every pose with NaN, and an infinite one
        leaked RuntimeWarnings from the compose.  Fails if the update takes
        a non-finite coordinate, if its error stops naming the first one,
        its axis and its body, if a stack is replaced before the check, or
        if a warning escapes."""
        s = build_serial_chain(3)
        view = s.forest if forest else s.tree
        store, poses = s.rows_at_poses(), s.poses()
        theta = np.zeros(view.n_dof)
        q = view.offsets[1]
        theta[q] = theta[-1] = bad
        named = rf"^theta\[{q}\] is {bad}, not finite: {AXIS_NAMES[view.axis[q]]} of body 'body1'$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=named):
                s.update_poses(theta, forest=forest)
        assert s.rows_at_poses() is store and s.poses() is poses
        assert np.isfinite(s.poses().r).all()

    def test_jacobians_invalidate_on_update(self):
        rng = np.random.default_rng(8)
        s = random_tree(rng, 3)
        first = [j.copy() for j in body_jacobians(s)]
        s.update_poses(rng.uniform(-0.3, 0.3, s.n_dof))
        second = [j.copy() for j in body_jacobians(s)]
        assert any(not np.allclose(a, b) for a, b in zip(first, second))
        # An update in the forest view moves each body on its own.
        s.update_poses(rng.uniform(-0.3, 0.3, 6 * len(s.bodies)), forest=True)
        third = body_jacobians(s)
        assert any(not np.allclose(a, b) for a, b in zip(second, third))
        for a, b in zip(third, selection_body_jacobians(s)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
