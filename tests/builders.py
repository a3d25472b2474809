"""Random structure generators shared by the kinematics/constraint tests."""

import numpy as np

from multibody.kinematics import Body, FixedSide, Joint, KinematicStructure
from multibody.se3 import Pose, exp_rotvec
from oracles import detached, random_rotvec


def random_pose(rng, max_angle=np.pi, max_trans=1.0):
    return Pose(exp_rotvec(random_rotvec(rng, max_angle)), rng.uniform(-max_trans, max_trans, 3))


def random_joint(rng, min_dof=1, fixed_side=FixedSide.JOINT_TO_MODEL):
    mask = np.zeros(6, dtype=bool)
    while mask.sum() < min_dof:
        mask = rng.random(6) < 0.5
    return Joint(
        free_axes=mask,
        joint_to_model=random_pose(rng, max_angle=1.0, max_trans=0.3),
        parent_to_joint=random_pose(rng, max_angle=1.0, max_trans=0.3),
        fixed_side=fixed_side,
    )


def random_tree(rng, n_bodies, min_dof=1, fixed_sides=None):
    """Random tree with consistent initial poses derived from the joints;
    ``fixed_sides`` gives each joint's fixed side, JOINT_TO_MODEL by default."""
    return random_trees(rng, [n_bodies], min_dof, fixed_sides)


def random_trees(rng, sizes, min_dof=1, fixed_sides=None):
    """Random trees of sizes[k] bodies each, one root apiece, in that order,
    as one structure (random_tree)."""
    sides = fixed_sides or [FixedSide.JOINT_TO_MODEL] * sum(sizes)
    bodies = []
    for size in sizes:
        root = len(bodies)
        joint = random_joint(rng, min_dof, sides[root])
        bodies.append(Body(name=f"body{root}", joint=joint, pose=random_pose(rng)))
        for i in range(root + 1, root + size):
            parent = int(rng.integers(root, i))
            joint = random_joint(rng, min_dof, sides[i])
            pose = bodies[parent].pose @ joint.parent_to_joint @ joint.joint_to_model
            bodies.append(Body(name=f"body{i}", joint=joint, pose=pose, parent=parent))
    return KinematicStructure(bodies)


def rebuilt(s, constraints=None, **rows):
    """A new structure with the poses, joint transforms, fixed sides and
    constraints of s but for ``rows`` (oracles.detached) and, if given,
    ``constraints``, which has kept nothing yet: the way to give a structure
    a new state or other constraints."""
    constraints = s.constraints if constraints is None else constraints
    return KinematicStructure(detached(s, **rows), constraints)


def stacks(s):
    """Every stack the structure owns, by name, read through its store: the
    poses, and the joint stacks, inferred first if the store has none."""
    store = s.rows_at_poses()
    return {"pose": store.poses, **store.joints()}
