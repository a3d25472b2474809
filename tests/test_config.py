"""Configuration parsing and its diagnostics."""

import functools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from builders import stacks
from multibody.cli import main
from multibody.config import ConfigError, load_config, parse_config

DEMO_CONFIG = Path(__file__).parent.parent / "demos" / "fourbar.json"


def minimal_config():
    return {
        "bodies": [
            {"name": "root", "parent": None, "joint": {"axes": ["rot_z"]}},
        ]
    }


class TestLoadConfig:
    def test_demo_config_loads(self):
        cfg = load_config(DEMO_CONFIG)
        assert len(cfg.structure.bodies) == 4
        assert len(cfg.structure.constraints) == 1
        assert cfg.structure.n_dof == 3
        assert set(cfg.meshes) == {0, 1, 2, 3}
        assert cfg.weights[2] == (0.0, 0.0)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"bodies": [,]}')
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_a_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        """The decoding error used to reach the user without the file's name."""
        path = tmp_path / "latin1.json"
        path.write_bytes('{"bodies": [{"name": "grün"}]}'.encode("latin-1"))
        with pytest.raises(ConfigError, match=f"^cannot read {re.escape(str(path))}: .*codec"):
            load_config(path)
        assert main(["track", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot read {path}: " in err
        assert "Traceback" not in err


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config(minimal_config())
        assert cfg.structure.n_dof == 1
        assert cfg.e_t == 0.1

    def test_missing_bodies(self):
        with pytest.raises(ConfigError, match="bodies"):
            parse_config({})

    def test_unknown_parent(self):
        raw = minimal_config()
        raw["bodies"].append({"name": "child", "parent": "ghost", "joint": {"axes": []}})
        with pytest.raises(ConfigError, match="ghost"):
            parse_config(raw)

    def test_parent_must_come_earlier(self):
        raw = {
            "bodies": [
                {"name": "child", "parent": "root", "joint": {"axes": []}},
                {"name": "root", "parent": None, "joint": {"axes": []}},
            ]
        }
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_bad_axis_name(self):
        raw = minimal_config()
        raw["bodies"][0]["joint"]["axes"] = ["rot_w"]
        with pytest.raises(ConfigError, match="rot_w"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "weights", [{"trans": float("nan")}, {"trans": "-inf"}, {"trans": [1.0]}]
    )
    def test_bad_trans_weight(self, weights):
        raw = minimal_config()
        raw["bodies"][0]["weights"] = weights
        with pytest.raises(ConfigError, match=r"bodies\[0\]\.weights\.trans"):
            parse_config(raw)

    def test_weights_must_be_an_object(self):
        raw = minimal_config()
        raw["bodies"][0]["weights"] = [1.0, 1.0]
        with pytest.raises(ConfigError, match=r"bodies\[0\]\.weights"):
            parse_config(raw)

    def test_bad_fixed_side(self):
        raw = minimal_config()
        raw["bodies"][0]["joint"]["fixed_side"] = "both"
        with pytest.raises(ConfigError, match="fixed_side"):
            parse_config(raw)

    def test_unknown_constraint_body(self):
        raw = minimal_config()
        raw["constraints"] = [
            {"body_a": "root", "body_b": "ghost", "axes": ["trans_x"]}
        ]
        with pytest.raises(ConfigError, match="ghost"):
            parse_config(raw)

    def test_unknown_trajectory_body(self):
        raw = minimal_config()
        raw["trajectory"] = {"ghost": {"amplitude": [0.1], "period": 10}}
        with pytest.raises(ConfigError, match="ghost"):
            parse_config(raw)

    def test_amplitude_length_mismatch(self):
        raw = minimal_config()
        raw["trajectory"] = {"root": {"amplitude": [0.1, 0.2], "period": 10}}
        with pytest.raises(ConfigError, match="amplitude"):
            parse_config(raw)

    def test_nonpositive_threshold(self):
        raw = minimal_config()
        raw["e_t"] = 0.0
        with pytest.raises(ConfigError, match="e_t"):
            parse_config(raw)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "x", None])
    def test_non_finite_threshold(self, value):
        raw = minimal_config()
        raw["e_t"] = value
        with pytest.raises(ConfigError, match=r"config\.e_t"):
            parse_config(raw)

    @pytest.mark.parametrize("value", [2.7, 2.0, True, "x", 0])
    def test_iterations_must_be_a_positive_integer(self, value):
        raw = minimal_config()
        raw["iterations"] = value
        with pytest.raises(ConfigError, match=r"config\.iterations"):
            parse_config(raw)

    def test_non_finite_threshold_in_a_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(minimal_config(), e_t=float("nan"))))
        assert "NaN" in path.read_text()
        with pytest.raises(ConfigError, match=r"config\.e_t"):
            load_config(path)

    def test_pose_defaults_to_identity(self):
        cfg = parse_config(minimal_config())
        assert np.allclose(cfg.structure.bodies[0].pose.r, np.eye(3))
        assert np.allclose(cfg.structure.bodies[0].pose.t, np.zeros(3))

    def test_orthogonality_constraint_type(self):
        raw = minimal_config()
        raw["bodies"].append({"name": "b", "parent": None, "joint": {"axes": ["rot_x"]}})
        raw["constraints"] = [
            {"type": "orthogonality", "body_a": "root", "body_b": "b"}
        ]
        cfg = parse_config(raw)
        s = cfg.structure
        assert s.constraint_stack.counts.tolist() == [3]

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"axes": []}, r"^constraints\[0\]: constraint must select at least one axis$"),
            (
                {"body_b": "root", "axes": ["trans_x"]},
                r"^constraints\[0\]: constraint must reference two distinct bodies$",
            ),
            ({"type": "orthogonality", "body_b": "root"}, r"^constraints\[0\]: constraint must"),
        ],
        ids=["no axes", "one body", "one body, orthogonality"],
    )
    def test_constraint_errors_name_the_constraint(self, edit, message):
        raw = minimal_config()
        raw["bodies"].append({"name": "b", "parent": None, "joint": {"axes": ["rot_x"]}})
        raw["constraints"] = [{"body_a": "root", "body_b": "b", **edit}]
        with pytest.raises(ConfigError, match=message):
            parse_config(raw)

    def test_non_finite_mesh_vertex_names_the_body(self, tmp_path):
        (tmp_path / "bad.obj").write_text("v 0 0 0\nv nan 0 0\n")
        raw = minimal_config()
        raw["bodies"][0]["mesh_path"] = "bad.obj"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=r"^bodies\[0\]\.mesh_path: vertex 1 is not finite"):
            load_config(path)

    @pytest.mark.parametrize(
        "path, value, where",
        [
            (("e_t",), True, r"config\.e_t: expected a number, got True"),
            (("bodies", 0, "weights"), {"rot": "100"}, r"bodies\[0\]\.weights\.rot: .*'100'"),
            (("bodies", 0, "weights"), {"trans": True}, r"bodies\[0\]\.weights\.trans: .*True"),
            (("bodies", 0, "pose"), {"rotvec": [0, "1", 0]}, r"bodies\[0\]\.pose\.rotvec: .*'1'"),
            (("trajectory",), {"root": {"amplitude": [0.1], "period": True}},
             r"trajectory\['root'\]\.period: .*True"),
            (("trajectory",), {"root": {"amplitude": [True], "period": 10}},
             r"trajectory\['root'\]\.amplitude: .*True"),
            (("trajectory",), {"root": {"amplitude": "0.1", "period": 10, "phase": 0}},
             r"trajectory\['root'\]\.amplitude: .*'0\.1'"),
            (("trajectory",), {"root": {"amplitude": [0.1], "period": 10, "phase": "1"}},
             r"trajectory\['root'\]\.phase: .*'1'"),
        ],
        ids=["e_t true", "weight string", "weight true", "rotvec string", "period true",
             "amplitude true", "amplitude string", "phase string"],
    )
    def test_booleans_and_strings_are_not_numbers(self, path, value, where):
        """JSON true and number strings passed as numbers, since
        float(True) == 1.0 and numpy parses "1": a period of true made the
        trajectory static with exit code 0."""
        raw = minimal_config()
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ConfigError, match=f"^{where}$"):
            parse_config(raw)

    @pytest.mark.parametrize("line", ["v 1 2", "v a 0 0"])
    def test_malformed_mesh_vertex_names_the_line(self, tmp_path, line):
        """``v 1 2`` was skipped, so that ADD was computed on another mesh,
        and ``v a 0 0`` raised numpy's message with no line."""
        (tmp_path / "bad.obj").write_text(f"v 0 0 0\n{line}\nv 1 1 1\n")
        raw = minimal_config()
        raw["bodies"][0]["mesh_path"] = "bad.obj"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=r"^bodies\[0\]\.mesh_path: .*bad\.obj, line 2: "):
            load_config(path)

    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))
        cfg = load_config(path)
        assert cfg.structure.bodies[0].name == "root"


def object_paths(node, path=()):
    """The path of every object of the format in a config: each dict but the
    trajectory map, whose keys are body names."""
    if isinstance(node, dict):
        if path != ("trajectory",):
            yield path
        for key, value in node.items():
            yield from object_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from object_paths(value, path + (i,))


def place(path) -> str:
    """The place an error names for the value at ``path``, e.g.
    ``bodies[2].joint.parent_to_joint`` or ``trajectory['link_a']``."""
    if len(path) < 2:
        return ".".join(["config", *path])
    head, key, *rest = path
    return ".".join([f"{head}[{key!r}]" if head == "trajectory" else f"{head}[{key}]", *rest])


def demo_raw():
    return json.loads(DEMO_CONFIG.read_text())


def at(raw, path):
    return functools.reduce(lambda node, key: node[key], path, raw)


DEMO_OBJECTS = list(object_paths(demo_raw()))


class TestEveryKeyIsKnown:
    """A key the format does not name used to be ignored, so that a misspelt
    one ("weigths", "rotvek", "e_T") silently left its field at the default
    and ``track`` scored another configuration with exit code 0."""

    def test_the_demo_has_every_kind_of_object(self):
        # config, 4 bodies, 4 joints, 4 poses, 2 joint transforms, 4 weights,
        # the constraint, its 2 frames, 3 trajectory programs
        assert len(DEMO_OBJECTS) == 25
        assert {place(path).split(".")[-1] for path in DEMO_OBJECTS} >= {
            "config", "joint", "pose", "parent_to_joint", "weights", "frame_a", "frame_b",
        }

    @pytest.mark.parametrize("path", DEMO_OBJECTS, ids=map(place, DEMO_OBJECTS))
    def test_an_unknown_key_is_named_with_its_place(self, tmp_path, capsys, path):
        raw = demo_raw()
        at(raw, path)["misspelt"] = 1.0
        with pytest.raises(ConfigError) as info:
            parse_config(raw, base_dir=DEMO_CONFIG.parent)
        message = f"{place(path)}: unknown field 'misspelt'; expected one of "
        assert str(info.value).startswith(message)

        for body in raw["bodies"]:
            body.pop("mesh_path", None)
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(raw))
        code = main(
            ["track", "--config", str(config), "--steps", "2", "--out", str(tmp_path / "x.csv")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {message}" in err
        assert "Traceback" not in err

    def test_axes_belong_to_pose_constraints_only(self):
        """An orthogonality constraint ignored its axes."""
        raw = demo_raw()
        raw["constraints"][0]["type"] = "orthogonality"
        with pytest.raises(ConfigError, match=r"^constraints\[0\]: unknown field 'axes'"):
            parse_config(raw, base_dir=DEMO_CONFIG.parent)
        del raw["constraints"][0]["axes"]
        cfg = parse_config(raw, base_dir=DEMO_CONFIG.parent)
        assert cfg.structure.constraint_stack.counts.tolist() == [3]

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"e_t": 0.5, "e_t": 0.01, "bodies": [{"name": "root"}]}', "e_t"),
            ('{"bodies": [{"name": "root", "joint": {"axes": [], "axes": ["rot_z"]}}]}', "axes"),
        ],
        ids=["top level", "nested"],
    )
    def test_a_duplicate_key_is_named_with_its_file(self, tmp_path, capsys, text, key):
        """json.loads keeps the last of a key given twice: e_t read 0.01."""
        path = tmp_path / "dup.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: duplicate key '{key}'$"):
            load_config(path)
        assert main(["track", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        assert f"error: {path}: duplicate key '{key}'" in capsys.readouterr().err


def summary(cfg):
    """What a config holds, as values that compare exactly: names,
    parents, joints, every pose stack of the structure and its constraints,
    meshes, weights, trajectory and numbers."""
    s = cfg.structure
    poses = [*stacks(s).values(), s.constraint_stack.frame_a, s.constraint_stack.frame_b]
    return (
        [(b.name, b.parent, b.joint.fixed_side, b.joint.free_axes.tolist()) for b in s.bodies],
        [(p.r.tolist(), p.t.tolist()) for p in poses],
        sorted(cfg.meshes),
        cfg.weights,
        {i: (p.amplitude.tolist(), p.period, p.phase) for i, p in cfg.trajectory.items()},
        (cfg.e_t, cfg.iterations),
    )


class TestNull:
    """``null`` stays what it was: the absent value where the format gives
    one as optional, an error where it asks for a list, an object or a number."""

    @pytest.mark.parametrize(
        "path",
        [
            ("bodies", 0, "joint"),
            ("bodies", 2, "pose"),
            ("bodies", 2, "joint", "parent_to_joint"),
            ("bodies", 2, "joint", "joint_to_model"),
            ("constraints", 0, "frame_a"),
            ("constraints", 0, "frame_b"),
            ("bodies", 1, "parent"),
            ("bodies", 1, "mesh_path"),
        ],
        ids=place,
    )
    def test_null_is_the_absent_value(self, path):
        with_null, absent = demo_raw(), demo_raw()
        at(with_null, path[:-1])[path[-1]] = None
        at(absent, path[:-1]).pop(path[-1], None)
        a = parse_config(with_null, base_dir=DEMO_CONFIG.parent)
        b = parse_config(absent, base_dir=DEMO_CONFIG.parent)
        assert summary(a) == summary(b)

    @pytest.mark.parametrize(
        "path",
        [("bodies", 0, "weights"), ("constraints",), ("trajectory",), ("e_t",), ("iterations",)],
        ids=place,
    )
    def test_null_is_refused(self, path):
        raw = demo_raw()
        at(raw, path[:-1])[path[-1]] = None
        with pytest.raises(ConfigError, match=f"^{re.escape(place(path))}: "):
            parse_config(raw, base_dir=DEMO_CONFIG.parent)
