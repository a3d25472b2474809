"""Configuration parsing and its diagnostics."""

import json
from pathlib import Path

import numpy as np
import pytest

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
            ({"body_b": "root"}, r"^constraints\[0\]: constraint must reference two distinct bodies$"),
            ({"type": "orthogonality", "body_b": "root"}, r"^constraints\[0\]: constraint must"),
        ],
        ids=["no axes", "one body", "one body, orthogonality"],
    )
    def test_constraint_errors_name_the_constraint(self, edit, message):
        raw = minimal_config()
        raw["bodies"].append({"name": "b", "parent": None, "joint": {"axes": ["rot_x"]}})
        raw["constraints"] = [{"body_a": "root", "body_b": "b", "axes": ["trans_x"], **edit}]
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
