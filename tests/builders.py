"""Random structure generators shared by the kinematics/constraint tests,
and one body's energy through the library's one evaluation path."""

import numpy as np

from multibody import kinematics
from multibody.energy import BodyEnergy, evaluate
from multibody.kinematics import Body, Joint, KinematicStructure
from multibody.se3 import Pose, exp_rotvec
from oracles import detached, random_rotvec


def energy_at(provider, pose):
    """A provider's energy at one single pose, through energy.evaluate: its
    rows for the one body of a one-row stack."""
    g, h = evaluate(provider, Pose.stack([pose]))
    return BodyEnergy(g[0], h[0])


def random_pose(rng, max_angle=np.pi, max_trans=1.0):
    return Pose(exp_rotvec(random_rotvec(rng, max_angle)), rng.uniform(-max_trans, max_trans, 3))


# The two transforms a joint may fix.
MODEL, PARENT = "joint_to_model", "parent_to_joint"


def random_joint(rng, min_dof=1, fixed=MODEL):
    """A random joint that fixes the transform named ``fixed``, with both
    transforms drawn, joint_to_model first, whichever it fixes: the joint,
    parent_to_joint and joint_to_model."""
    mask = np.zeros(6, dtype=bool)
    while mask.sum() < min_dof:
        mask = rng.random(6) < 0.5
    transforms = {
        MODEL: random_pose(rng, max_angle=1.0, max_trans=0.3),
        PARENT: random_pose(rng, max_angle=1.0, max_trans=0.3),
    }
    return Joint(mask, **{fixed: transforms[fixed]}), transforms[PARENT], transforms[MODEL]


def random_tree(rng, n_bodies, min_dof=1, fixed_sides=None):
    """Random tree with consistent initial poses derived from the joints;
    ``fixed_sides`` names the transform each non-root joint fixes, MODEL by
    default (a root's joint fixes joint_to_model)."""
    return random_trees(rng, [n_bodies], min_dof, fixed_sides)


def random_trees(rng, sizes, min_dof=1, fixed_sides=None):
    """Random trees of sizes[k] bodies each, one root apiece, in that order,
    as one structure (random_tree)."""
    sides = fixed_sides or [MODEL] * sum(sizes)
    bodies = []
    for size in sizes:
        root = len(bodies)
        joint, _, _ = random_joint(rng, min_dof, MODEL)
        bodies.append(Body(name=f"body{root}", joint=joint, pose=random_pose(rng)))
        for i in range(root + 1, root + size):
            parent = int(rng.integers(root, i))
            joint, parent_to_joint, joint_to_model = random_joint(rng, min_dof, sides[i])
            pose = bodies[parent].pose @ parent_to_joint @ joint_to_model
            bodies.append(Body(name=f"body{i}", joint=joint, pose=pose, parent=parent))
    return KinematicStructure(bodies)


def rebuilt(s, constraints=None, **rows):
    """A new structure with the poses, joints and constraints of s but for
    ``rows`` (oracles.detached) and, if given, ``constraints``, which has
    kept nothing yet: the way to give a structure a new state or other
    constraints."""
    constraints = s.constraints if constraints is None else constraints
    return KinematicStructure(detached(s, **rows), constraints)


def stacks(s):
    """Every stack the structure owns, by name, read through its store: the
    poses, and the joint frames a step reads (joint_to_model and
    model_to_joint), inferred first if the store needs them and has none."""
    store = s.rows_at_poses()
    return {"pose": store.poses, **store.frames()}


def counted_inferences(monkeypatch) -> list:
    """A list that gets a store each time the store infers its joint frames
    (``_PoseStore.frames``), which it publishes by one assignment of
    ``_frames``: the assignments of a value are counted."""
    calls = []

    def assign(store, name, value):
        if name == "_frames" and value is not None:
            calls.append(store)
        object.__setattr__(store, name, value)

    monkeypatch.setattr(kinematics._PoseStore, "__setattr__", assign)
    return calls
