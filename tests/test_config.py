"""Configuration parsing and its diagnostics."""

import json
from pathlib import Path

import numpy as np
import pytest

from multibody.config import ConfigError, load_config, parse_config
from multibody.constraints import evaluate_constraints

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
        assert evaluate_constraints(s.constraints, s.bodies, blocks=False).counts.tolist() == [3]

    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))
        cfg = load_config(path)
        assert cfg.structure.bodies[0].name == "root"
