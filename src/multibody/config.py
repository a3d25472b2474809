"""JSON configuration loading for structures, constraints, and trajectories.

The file format is a plain JSON object:

* bodies: ordered list; each entry has name, parent (name or null), joint
  {axes, fixed_side, joint_to_model, parent_to_joint}, pose, optional
  mesh_path (relative to the config file) and weights {rot, trans}, finite
  and non-negative, default 1.  The joint transform that fixed_side does
  not name, the moving side, is derived from the poses, replacing the
  value given (kinematics.Joint).
* constraints: list of {body_a, body_b, frame_a, frame_b, axes} with an
  optional type of "pose" (default) or "orthogonality"; axes belongs to
  pose constraints only.
* trajectory: per-body sinusoidal joint programs {amplitude, period, phase}.
* e_t: error threshold in meters for the area-under-curve score (> 0).
* iterations: solver iterations per tracking step (an integer >= 1).

Poses are written as {"rotvec": [x, y, z], "trans": [x, y, z]}; both keys
default to zero.  A key the format does not name, or a key given twice in
one object, is an error that names its place, like every other error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constraints import Constraint, OrthogonalityConstraint
from .kinematics import Body, FixedSide, Joint, KinematicStructure, axes_mask
from .metrics import load_obj
from .se3 import Pose, exp_rotvec


class ConfigError(Exception):
    """Invalid or inconsistent configuration file."""


@dataclass
class JointProgram:
    """Sinusoidal joint values q(step) = amplitude * sin(2 pi step / period + phase)."""

    amplitude: np.ndarray
    period: float
    phase: float

    def values(self, step: int) -> np.ndarray:
        return self.amplitude * np.sin(2.0 * np.pi * step / self.period + self.phase)


@dataclass
class TrackingConfig:
    """What a configuration file states; parse_config gives the defaults."""

    structure: KinematicStructure
    meshes: dict  # body index -> Mesh
    weights: dict  # body index -> (w_rot, w_trans)
    trajectory: dict  # body index -> JointProgram
    e_t: float
    iterations: int


def _fields(value, where, **defaults) -> list:
    """The values of the object ``value`` at the keys of ``defaults``, in
    their order, each the default where the key is absent; a default of
    ``...`` marks a required field.  A non-object, a missing required
    field or a key that ``defaults`` does not name is a ConfigError
    naming ``where``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    fields = {**defaults, **value}
    if len(fields) > len(defaults):
        key = next(key for key in value if key not in defaults)
        raise ConfigError(f"{where}: unknown field {key!r}; expected one of {', '.join(defaults)}")
    for key, field in fields.items():
        if field is ...:
            raise ConfigError(f"{where}: missing required field {key!r}")
    return list(fields.values())


def _numbers(value, where, shape=None):
    """Finite numbers read from ``value``: a float if ``shape`` is (), else
    an array, of ``shape`` if one is given.  A JSON boolean or string, also
    inside a list, is refused: float() and numpy would read it as a number."""
    items = [value]
    for item in items:
        if isinstance(item, (bool, str)):
            raise ConfigError(f"{where}: expected a number, got {item!r}")
        if isinstance(item, list):
            items.extend(item)
    try:
        numbers = float(value) if shape == () else np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        what = "a number" if shape == () else "a list of numbers"
        raise ConfigError(f"{where}: expected {what}, got {value!r}") from exc
    if not (math.isfinite(numbers) if shape == () else np.isfinite(numbers).all()):
        raise ConfigError(f"{where}: expected finite numbers, got {value!r}")
    if shape and numbers.shape != shape:
        raise ConfigError(f"{where}: expected shape {shape}, got shape {numbers.shape}")
    return numbers


def _body_index(value, names, where) -> int:
    """Index of the body a name refers to, among the bodies named so far."""
    if not isinstance(value, str) or value not in names:
        raise ConfigError(f"{where}: {value!r} is not the name of an earlier body")
    return names[value]


def _axes(value, where) -> np.ndarray:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of axis names, got {value!r}")
    try:
        return axes_mask(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _pose(value, where) -> Pose:
    if value is None:
        return Pose.identity()
    rotvec, trans = _fields(value, where, rotvec=None, trans=(0.0, 0.0, 0.0))
    # An absent rotvec is exp(0), which is the identity bit for bit; null is refused.
    r = exp_rotvec(_numbers(rotvec, f"{where}.rotvec", (3,))) if "rotvec" in value else np.eye(3)
    return Pose(r, _numbers(trans, f"{where}.trans", (3,)))


def _joint(value, where) -> Joint:
    axes, fixed_side, joint_to_model, parent_to_joint = _fields(
        {} if value is None else value, where,
        axes=[], fixed_side="joint_to_model", joint_to_model=None, parent_to_joint=None,
    )
    try:
        side = FixedSide(fixed_side)
    except ValueError as exc:
        raise ConfigError(
            f"{where}.fixed_side: {fixed_side!r} is not a valid choice"
        ) from exc
    return Joint(
        free_axes=_axes(axes, f"{where}.axes"),
        joint_to_model=_pose(joint_to_model, f"{where}.joint_to_model"),
        parent_to_joint=_pose(parent_to_joint, f"{where}.parent_to_joint"),
        fixed_side=side,
    )


def _unique_keys(pairs) -> dict:
    """A JSON object; json.loads would keep the last of a key given twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ConfigError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def load_config(path) -> TrackingConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_config(raw, base_dir=path.parent)


def parse_config(raw: dict, base_dir=None) -> TrackingConfig:
    base_dir = Path(base_dir) if base_dir is not None else Path(".")
    body_entries, constraint_entries, trajectory_entries, e_t, iterations = _fields(
        raw, "config", bodies=..., constraints=[], trajectory={}, e_t=0.1, iterations=3
    )
    if not isinstance(body_entries, list) or not body_entries:
        raise ConfigError("config.bodies: expected a non-empty list")

    bodies = []
    names = {}
    meshes = {}
    weights = {}
    for i, entry in enumerate(body_entries):
        where = f"bodies[{i}]"
        name, parent, joint, pose, mesh_path, weight_entry = _fields(
            entry, where, name=..., parent=None, joint=None, pose=None, mesh_path=None, weights={}
        )
        if not isinstance(name, str):
            raise ConfigError(f"{where}.name: expected a string, got {name!r}")
        if name in names:
            raise ConfigError(f"{where}: duplicate body name {name!r}")
        if parent is not None:
            parent = _body_index(parent, names, f"{where}.parent")
        joint, pose = _joint(joint, f"{where}.joint"), _pose(pose, f"{where}.pose")
        bodies.append(Body(name=name, joint=joint, pose=pose, parent=parent))
        names[name] = i

        if mesh_path is not None:
            try:
                meshes[i] = load_obj(base_dir / mesh_path)
            except (OSError, TypeError, ValueError) as exc:
                raise ConfigError(f"{where}.mesh_path: {exc}") from exc
        weights[i] = tuple(
            _numbers(value, f"{where}.weights.{key}", ())
            for key, value in zip(
                ("rot", "trans"), _fields(weight_entry, f"{where}.weights", rot=1.0, trans=1.0)
            )
        )
        for key, value in zip(("rot", "trans"), weights[i]):
            if value < 0:
                raise ConfigError(
                    f"{where}.weights.{key}: expected a non-negative number, got {value!r}"
                )

    if not isinstance(constraint_entries, list):
        raise ConfigError("config.constraints: expected a list")
    constraints = []
    for i, entry in enumerate(constraint_entries):
        where = f"constraints[{i}]"
        kind = entry.get("type", "pose") if isinstance(entry, dict) else "pose"
        if kind not in ("pose", "orthogonality"):
            raise ConfigError(f"{where}.type: unknown constraint type {kind!r}")
        _, body_a, body_b, frame_a, frame_b, *axes = _fields(
            entry, where, type=kind, body_a=..., body_b=..., frame_a=None, frame_b=None,
            **({"axes": ...} if kind == "pose" else {}),
        )
        body_a, body_b = (
            _body_index(body_a, names, f"{where}.body_a"),
            _body_index(body_b, names, f"{where}.body_b"),
        )
        frames = (_pose(frame_a, f"{where}.frame_a"), _pose(frame_b, f"{where}.frame_b"))
        try:
            constraints.append(
                Constraint(body_a, body_b, *frames, _axes(axes[0], f"{where}.axes"))
                if axes
                else OrthogonalityConstraint(body_a, body_b, *frames)
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    try:
        structure = KinematicStructure(bodies, constraints)
    except ValueError as exc:
        raise ConfigError(f"config.bodies: {exc}") from exc

    if not isinstance(trajectory_entries, dict):
        raise ConfigError("config.trajectory: expected an object")
    trajectory = {}
    for name, entry in trajectory_entries.items():
        where = f"trajectory[{name!r}]"
        if name not in names:
            raise ConfigError(f"{where}: unknown body {name!r}")
        n_dof = structure.tree.n_dofs[names[name]]
        amplitude, period, phase = _fields(entry, where, amplitude=..., period=..., phase=0.0)
        amplitude = _numbers(amplitude, f"{where}.amplitude").reshape(-1)
        if amplitude.shape != (n_dof,):
            raise ConfigError(
                f"{where}.amplitude: expected {n_dof} values for the joint's "
                f"free axes, got {amplitude.shape[0]}"
            )
        period = _numbers(period, f"{where}.period", ())
        if period <= 0:
            raise ConfigError(f"{where}.period: must be positive")
        phase = _numbers(phase, f"{where}.phase", ())
        trajectory[names[name]] = JointProgram(amplitude, period, phase)

    e_t = _numbers(e_t, "config.e_t", ())
    if e_t <= 0:
        raise ConfigError(f"config.e_t: expected a positive number, got {e_t!r}")
    if type(iterations) is not int or iterations < 1:
        raise ConfigError(f"config.iterations: expected an integer >= 1, got {iterations!r}")

    return TrackingConfig(structure, meshes, weights, trajectory, e_t, iterations)
