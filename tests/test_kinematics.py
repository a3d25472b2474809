"""Body Jacobians and the recursive pose update against FD and matrix oracles."""

import copy

import numpy as np
import pytest

from builders import random_pose, random_tree
from multibody.constraints import Constraint, OrthogonalityConstraint
from multibody.kinematics import (
    Body,
    FixedSide,
    Joint,
    KinematicStructure,
    axes_mask,
)
from multibody.se3 import Pose, adjoint, exp_rotvec
from multibody.solver import SolverMode, apply_update
from oracles import expand_joint_variation, relative_variation, selection_body_jacobians


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

    def test_dof_offsets_contiguous(self):
        rng = np.random.default_rng(0)
        s = random_tree(rng, 5)
        offset = 0
        for i, body in enumerate(s.bodies):
            assert s.dof_offsets[i] == offset
            offset += body.joint.n_dof
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
    def test_constraint_assignment_validated(self, kind):
        j = Joint(free_axes=np.ones(6, dtype=bool))
        s = KinematicStructure([Body("a", copy.deepcopy(j)), Body("b", copy.deepcopy(j))])
        with pytest.raises(ValueError, match="constraint 0: body index -1"):
            s.constraints = [kind(0, -1)]
        assert s.constraints == []
        s.constraints = [kind(0, 1)]
        assert len(s.constraints) == 1


class TestBodyJacobians:
    def test_free_root_with_identity_frames(self):
        s = KinematicStructure([Body("root", Joint(free_axes=np.ones(6, dtype=bool)))])
        assert np.allclose(s.body_jacobians()[0], np.eye(6))

    def test_single_revolute_child_column(self):
        rng = np.random.default_rng(1)
        joint = Joint(
            free_axes=axes_mask(["rot_z"]),
            joint_to_model=random_pose(rng, 1.0, 0.3),
            parent_to_joint=random_pose(rng, 1.0, 0.3),
        )
        root = Body("root", Joint(free_axes=np.zeros(6, dtype=bool)))
        child = Body(
            "child",
            joint,
            pose=root.pose @ joint.parent_to_joint @ joint.joint_to_model,
            parent=0,
        )
        s = KinematicStructure([root, child])
        jacobians = s.body_jacobians()
        expected = adjoint(joint.joint_to_model.inverse())[:, 2]
        assert np.allclose(jacobians[1][:, 0], expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_selection_matrix_recursion(self, seed):
        rng = np.random.default_rng(seed)
        s = random_tree(rng, 6)
        # The ancestor-mask form sums in another order than the recursion.
        for actual, expected in zip(s.body_jacobians(), selection_body_jacobians(s)):
            assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_chain(self, seed):
        rng = np.random.default_rng(seed)
        s = random_tree(rng, 4)
        jacobians = s.body_jacobians()
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
        joint = Joint(
            free_axes=axes_mask(["rot_z"]),
            joint_to_model=random_pose(rng, 1.0, 0.3),
            parent_to_joint=random_pose(rng, 1.0, 0.3),
        )
        root = Body("root", Joint(free_axes=np.zeros(6, dtype=bool)), pose=random_pose(rng))
        child = Body(
            "child",
            joint,
            pose=root.pose @ joint.parent_to_joint @ joint.joint_to_model,
            parent=0,
        )
        s = KinematicStructure([root, child])
        # parent_to_joint is re-inferred after the update; keep the original.
        parent_to_joint = copy.deepcopy(joint.parent_to_joint)
        s.update_poses(np.array([0.7]))
        rotation = Pose(exp_rotvec([0, 0, 0.7]), np.zeros(3))
        expected = (
            root.pose.matrix()
            @ parent_to_joint.matrix()
            @ rotation.matrix()
            @ joint.joint_to_model.matrix()
        )
        assert np.allclose(s.bodies[1].pose.matrix(), expected, atol=1e-12)

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
        jacobians = s.body_jacobians()
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
            reference = [copy.deepcopy(b.joint.parent_to_joint) for b in s.bodies]
            s.update_poses(rng.uniform(-0.5, 0.5, s.n_dof))
            for body, ref in zip(s.bodies, reference):
                if body.parent is None:
                    continue
                rel = ref.inverse() @ body.joint.parent_to_joint
                variation = relative_variation(Pose.identity(), rel)
                locked = ~body.joint.free_axes
                if locked.any():
                    assert np.max(np.abs(variation[locked])) < 1e-9

    def test_parent_to_joint_fixed_side(self):
        rng = np.random.default_rng(7)
        joint = Joint(
            free_axes=axes_mask(["rot_z"]),
            joint_to_model=random_pose(rng, 1.0, 0.3),
            parent_to_joint=random_pose(rng, 1.0, 0.3),
            fixed_side=FixedSide.PARENT_TO_JOINT,
        )
        root = Body("root", Joint(free_axes=np.zeros(6, dtype=bool)), pose=random_pose(rng))
        child = Body(
            "child",
            joint,
            pose=root.pose @ joint.parent_to_joint @ joint.joint_to_model,
            parent=0,
        )
        s = KinematicStructure([root, child])
        fixed_before = joint.parent_to_joint
        s.update_poses(np.array([0.4]))
        assert joint.parent_to_joint is fixed_before
        # The inferred side must keep the kinematic chain consistent.
        rebuilt = root.pose @ joint.parent_to_joint @ joint.joint_to_model
        assert np.allclose(rebuilt.matrix(), s.bodies[1].pose.matrix(), atol=1e-12)

    def test_jacobians_invalidate_on_update(self):
        rng = np.random.default_rng(8)
        s = random_tree(rng, 3)
        first = [j.copy() for j in s.body_jacobians()]
        s.update_poses(rng.uniform(-0.3, 0.3, s.n_dof))
        second = [j.copy() for j in s.body_jacobians()]
        assert any(not np.allclose(a, b) for a, b in zip(first, second))
        # The free-body update writes the poses directly.
        apply_update(s, rng.uniform(-0.3, 0.3, 6 * len(s.bodies)), SolverMode.INDEPENDENT)
        third = s.body_jacobians()
        assert any(not np.allclose(a, b) for a, b in zip(second, third))
        for a, b in zip(third, selection_body_jacobians(s)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
