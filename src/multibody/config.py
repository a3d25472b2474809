"""JSON configuration loading for structures, constraints, and trajectories.

The file format is a plain JSON object:

* bodies: ordered list; each entry has name, parent (name or null), joint
  {axes, fixed_side, joint_to_model, parent_to_joint}, pose, optional
  mesh_path (relative to the config file) and weights {rot, trans}, finite
  and non-negative, default 1.
* constraints: list of {body_a, body_b, frame_a, frame_b, axes} with an
  optional type of "pose" (default) or "orthogonality".
* trajectory: per-body sinusoidal joint programs {amplitude, period, phase}.
* e_t: error threshold in meters for the area-under-curve score (> 0).
* iterations: solver iterations per tracking step (an integer >= 1).

Poses are written as {"rotvec": [x, y, z], "trans": [x, y, z]}; both keys
default to zero.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constraints import Constraint, OrthogonalityConstraint
from .kinematics import Body, FixedSide, Joint, KinematicStructure, axes_mask
from .metrics import Mesh, load_obj
from .se3 import Pose


class ConfigError(Exception):
    """Invalid or inconsistent configuration file."""


@dataclass
class JointProgram:
    """Sinusoidal joint values q(step) = amplitude * sin(2 pi step / period + phase)."""

    amplitude: np.ndarray
    period: float
    phase: float = 0.0

    def values(self, step: int) -> np.ndarray:
        return self.amplitude * np.sin(2.0 * np.pi * step / self.period + self.phase)


@dataclass
class TrackingConfig:
    structure: KinematicStructure
    meshes: dict = field(default_factory=dict)  # body index -> Mesh
    weights: dict = field(default_factory=dict)  # body index -> (w_rot, w_trans)
    trajectory: dict = field(default_factory=dict)  # body index -> JointProgram
    e_t: float = 0.1
    iterations: int = 3


def _expect(obj, key, where, default=None, required=False):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {obj!r}")
    if key not in obj:
        if required:
            raise ConfigError(f"{where}: missing required field {key!r}")
        return default
    return obj[key]


def _refuse_bool_or_str(value, where):
    """ConfigError for a bool or str, or a list holding one, where the format
    says number: float() and numpy would read them as numbers."""
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, list):
        for item in value:
            _refuse_bool_or_str(item, where)


def _parse_numbers(value, where) -> np.ndarray:
    _refuse_bool_or_str(value, where)
    try:
        vec = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected a list of numbers, got {value!r}") from exc
    if not np.isfinite(vec).all():
        raise ConfigError(f"{where}: expected finite numbers, got {value!r}")
    return vec


def _parse_vec3(value, where):
    vec = _parse_numbers(value, where)
    if vec.shape != (3,):
        raise ConfigError(f"{where}: expected exactly 3 numbers, got shape {vec.shape}")
    return vec


def _parse_finite(value, where) -> float:
    _refuse_bool_or_str(value, where)
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from exc
    if not np.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _parse_nonnegative(value, where) -> float:
    number = _parse_finite(value, where)
    if number < 0:
        raise ConfigError(f"{where}: expected a finite non-negative number, got {value!r}")
    return number


def _body_index(value, names, where) -> int:
    """Index of the body a name refers to, among the bodies named so far."""
    if not isinstance(value, str) or value not in names:
        raise ConfigError(f"{where}: {value!r} is not the name of an earlier body")
    return names[value]


def _parse_axes(value, where) -> np.ndarray:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of axis names, got {value!r}")
    try:
        return axes_mask(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_pose(value, where) -> Pose:
    if value is None:
        return Pose.identity()
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object with rotvec/trans")
    rotvec = _parse_vec3(value.get("rotvec", (0.0, 0.0, 0.0)), f"{where}.rotvec")
    trans = _parse_vec3(value.get("trans", (0.0, 0.0, 0.0)), f"{where}.trans")
    return Pose.from_rotvec(rotvec, trans)


def _parse_joint(value, where) -> Joint:
    if value is None:
        value = {}
    mask = _parse_axes(_expect(value, "axes", where, default=[]), f"{where}.axes")
    fixed_side = _expect(value, "fixed_side", where, default="joint_to_model")
    try:
        side = FixedSide(fixed_side)
    except ValueError as exc:
        raise ConfigError(
            f"{where}.fixed_side: {fixed_side!r} is not a valid choice"
        ) from exc
    return Joint(
        free_axes=mask,
        joint_to_model=_parse_pose(value.get("joint_to_model"), f"{where}.joint_to_model"),
        parent_to_joint=_parse_pose(value.get("parent_to_joint"), f"{where}.parent_to_joint"),
        fixed_side=side,
    )


def load_config(path) -> TrackingConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_config(raw, base_dir=path.parent)


def parse_config(raw: dict, base_dir=None) -> TrackingConfig:
    base_dir = Path(base_dir) if base_dir is not None else Path(".")
    body_entries = _expect(raw, "bodies", "config", required=True)
    if not isinstance(body_entries, list) or not body_entries:
        raise ConfigError("config.bodies: expected a non-empty list")

    bodies = []
    names = {}
    meshes = {}
    weights = {}
    for i, entry in enumerate(body_entries):
        where = f"bodies[{i}]"
        name = _expect(entry, "name", where, required=True)
        if not isinstance(name, str):
            raise ConfigError(f"{where}.name: expected a string, got {name!r}")
        if name in names:
            raise ConfigError(f"{where}: duplicate body name {name!r}")
        parent = _expect(entry, "parent", where)
        if parent is not None:
            parent = _body_index(parent, names, f"{where}.parent")
        joint = _parse_joint(entry.get("joint"), f"{where}.joint")
        pose = _parse_pose(entry.get("pose"), f"{where}.pose")
        bodies.append(Body(name=name, joint=joint, pose=pose, parent=parent))
        names[name] = i

        mesh_path = _expect(entry, "mesh_path", where)
        if mesh_path is not None:
            try:
                meshes[i] = load_obj(base_dir / mesh_path)
            except (OSError, TypeError, ValueError) as exc:
                raise ConfigError(f"{where}.mesh_path: {exc}") from exc
        weight_entry = entry.get("weights", {})
        if not isinstance(weight_entry, dict):
            raise ConfigError(f"{where}.weights: expected an object with rot/trans")
        weights[i] = tuple(
            _parse_nonnegative(weight_entry.get(key, 1.0), f"{where}.weights.{key}")
            for key in ("rot", "trans")
        )

    constraint_entries = raw.get("constraints", [])
    if not isinstance(constraint_entries, list):
        raise ConfigError("config.constraints: expected a list")
    constraints = []
    for i, entry in enumerate(constraint_entries):
        where = f"constraints[{i}]"
        kind = _expect(entry, "type", where, default="pose")
        body_a, body_b = (
            _body_index(_expect(entry, label, where, required=True), names, f"{where}.{label}")
            for label in ("body_a", "body_b")
        )
        frame_a = _parse_pose(entry.get("frame_a"), f"{where}.frame_a")
        frame_b = _parse_pose(entry.get("frame_b"), f"{where}.frame_b")
        if kind == "pose":
            mask = _parse_axes(_expect(entry, "axes", where, required=True), f"{where}.axes")
            make = functools.partial(Constraint, constrained_axes=mask)
        elif kind == "orthogonality":
            make = OrthogonalityConstraint
        else:
            raise ConfigError(f"{where}.type: unknown constraint type {kind!r}")
        try:
            constraints.append(make(body_a, body_b, frame_a, frame_b))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    try:
        structure = KinematicStructure(bodies, constraints)
    except ValueError as exc:
        raise ConfigError(f"config.bodies: {exc}") from exc

    trajectory_entries = raw.get("trajectory", {})
    if not isinstance(trajectory_entries, dict):
        raise ConfigError("config.trajectory: expected an object")
    trajectory = {}
    for name, entry in trajectory_entries.items():
        where = f"trajectory[{name!r}]"
        if name not in names:
            raise ConfigError(f"{where}: unknown body {name!r}")
        index = names[name]
        n_dof = structure.tree.n_dofs[index]
        amplitude = _parse_numbers(
            _expect(entry, "amplitude", where, required=True), f"{where}.amplitude"
        ).reshape(-1)
        if amplitude.shape != (n_dof,):
            raise ConfigError(
                f"{where}.amplitude: expected {n_dof} values for the joint's "
                f"free axes, got {amplitude.shape[0]}"
            )
        period = _parse_finite(_expect(entry, "period", where, required=True), f"{where}.period")
        if period <= 0:
            raise ConfigError(f"{where}.period: must be positive")
        trajectory[index] = JointProgram(
            amplitude=amplitude,
            period=period,
            phase=_parse_finite(entry.get("phase", 0.0), f"{where}.phase"),
        )

    e_t = _parse_nonnegative(raw.get("e_t", 0.1), "config.e_t")
    if e_t == 0:
        raise ConfigError(f"config.e_t: expected a positive number, got {e_t!r}")
    iterations = raw.get("iterations", 3)
    if type(iterations) is not int or iterations < 1:
        raise ConfigError(f"config.iterations: expected an integer >= 1, got {iterations!r}")

    return TrackingConfig(
        structure=structure,
        meshes=meshes,
        weights=weights,
        trajectory=trajectory,
        e_t=e_t,
        iterations=iterations,
    )
