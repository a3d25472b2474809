"""Command-line interface: subcommands, outputs, exit codes."""

import functools
import json
from pathlib import Path

import pytest

from multibody import cli, experiments
from multibody.cli import main
from multibody.solver import Regularization

DEMO_CONFIG = Path(__file__).parent.parent / "demos" / "fourbar.json"


class TestConverge:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(
            ["converge", "--trials", "20", "--iters", "2", "--kind", "rotvec",
             "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,iteration,percentile,rot_err,trans_err"
        assert len(lines) == 1 + 3 * 11  # iterations 0..2, 11 percentile levels

    def test_random_energy_flag(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(
            ["converge", "--trials", "10", "--iters", "1", "--kind", "trans",
             "--random-energy", "--out", str(out)]
        )
        assert code == 0

    def test_singular_trial_exit_code(self, tmp_path, monkeypatch, capsys):
        # Without regularization the zero-energy trials are singular.
        monkeypatch.setattr(experiments, "Regularization", functools.partial(Regularization, 0, 0))
        code = main(
            ["converge", "--trials", "4", "--iters", "1", "--kind", "full",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "full convergence trial 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, name",
        [(["--trials", "0"], "n_trials"), (["--trials", "-3"], "n_trials"),
         (["--iters", "-1"], "n_iterations")],
    )
    def test_count_it_cannot_run_is_config_error(self, tmp_path, capsys, args, name):
        """No trial gave an IndexError traceback from np.percentile, a
        negative count numpy's "negative dimensions", and --iters -1 a
        header-only CSV with exit code 0."""
        out = tmp_path / "x.csv"
        code = main(["converge", *args, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {name} must be " in err and "Traceback" not in err
        assert not out.exists()

    def test_bad_kind_is_config_error(self, tmp_path):
        import pytest

        with pytest.raises(SystemExit) as info:
            main(["converge", "--kind", "spiral", "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 1


class TestSeed:
    @pytest.mark.parametrize("command", ["converge", "track"])
    def test_negative_seed_is_named(self, tmp_path, capsys, command):
        """--seed -1 exited 1 with numpy's bare "expected non-negative
        integer"."""
        out = tmp_path / "x.csv"
        args = ["--config", str(DEMO_CONFIG)] if command == "track" else []
        code = main([command, *args, "--seed", "-1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and not out.exists()
        assert captured.err == "error: seed must be >= 0, got -1\n"


class TestScaling:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "scaling.csv"
        code = main(["scaling", "--max-bodies", "3", "--reps", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mode,n_bodies,seconds_per_iter"
        assert len(lines) == 1 + 2 * 3

    def test_too_few_bodies_is_config_error(self, tmp_path):
        code = main(["scaling", "--max-bodies", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 1

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_count_it_cannot_run_is_config_error(self, tmp_path, capsys, reps):
        """--reps 0 and --reps -1 ran the time-based rounds alone and exited 0."""
        out = tmp_path / "x.csv"
        code = main(["scaling", "--max-bodies", "2", "--reps", reps, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: repetitions must be >= 1, got {reps}" in err and "Traceback" not in err
        assert not out.exists()


class TestTrack:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "track.csv"
        code = main(
            ["track", "--config", str(DEMO_CONFIG), "--mode", "combined",
             "--steps", "5", "--out", str(out)]
        )
        assert code == 0
        assert "auc" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == "step,body,add,add_s"

    def test_two_root_config_tracks_in_every_mode(self, tmp_path, capsys):
        """Two trees of 2 and 1 coordinates: the tree view's assembly once
        laid them out per tree and failed with numpy's "cannot reshape"."""
        raw = {
            "bodies": [
                {"name": "a", "parent": None, "joint": {"axes": ["rot_x", "rot_y"]}},
                {"name": "b", "parent": None, "joint": {"axes": ["rot_z"]},
                 "pose": {"trans": [0.5, 0.0, 0.0]}},
            ],
            "trajectory": {
                "a": {"amplitude": [0.3, -0.2], "period": 20.0},
                "b": {"amplitude": [0.4], "period": 30.0},
            },
        }
        config = tmp_path / "two_roots.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "x.csv"
        for mode in ("independent", "projected", "constrained", "combined"):
            code = main(
                ["track", "--config", str(config), "--mode", mode, "--steps", "5",
                 "--out", str(out)]
            )
            assert code == 0, (mode, capsys.readouterr().err)
            assert out.read_text().splitlines() == ["step,body,add,add_s"]

    def test_negative_steps_is_config_error(self, tmp_path, capsys):
        """--steps -2 wrote no rows, printed "auc: 1.0000" and exited 0."""
        out = tmp_path / "x.csv"
        code = main(["track", "--config", str(DEMO_CONFIG), "--steps", "-2", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: steps must be >= 0" in captured.err and "Traceback" not in captured.err
        assert "auc" not in captured.out and not out.exists()

    def test_missing_config_is_config_error(self, tmp_path):
        code = main(
            ["track", "--config", str(tmp_path / "none.json"), "--out",
             str(tmp_path / "x.csv")]
        )
        assert code == 1

    def test_contradictory_constraints_exit_code(self, tmp_path):
        raw = json.loads(DEMO_CONFIG.read_text())
        # Identical duplicate constraints make the KKT system singular.
        raw["constraints"].append(dict(raw["constraints"][0]))
        for body in raw["bodies"]:
            body.pop("mesh_path", None)
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(raw))
        code = main(
            ["track", "--config", str(path), "--mode", "combined", "--steps", "2",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


class TestWeights:
    @pytest.mark.parametrize("weight", ["nan", "inf", -1, "abc"])
    def test_bad_weight_is_config_error(self, tmp_path, capsys, weight):
        raw = json.loads(DEMO_CONFIG.read_text())
        raw["bodies"][1]["weights"]["rot"] = weight
        for body in raw["bodies"]:
            body.pop("mesh_path", None)
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(raw))
        code = main(
            ["track", "--config", str(path), "--steps", "2", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert f"bodies[1].weights.rot: expected a " in capsys.readouterr().err


class TestScalars:
    @pytest.mark.parametrize(
        "field, value", [("e_t", float("nan")), ("iterations", 2.7), ("iterations", True)]
    )
    def test_bad_scalar_is_config_error(self, tmp_path, capsys, field, value):
        raw = json.loads(DEMO_CONFIG.read_text())
        raw[field] = value
        for body in raw["bodies"]:
            body.pop("mesh_path", None)
        path = tmp_path / "scalars.json"
        path.write_text(json.dumps(raw))
        code = main(
            ["track", "--config", str(path), "--steps", "2", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert f"config.{field}: expected " in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


class TestMalformedConfig:
    # (path to the value in demos/fourbar.json, bad value, field the error names)
    CASES = [
        (("trajectory", "link_a", "period"), "x", "trajectory['link_a'].period"),
        (("trajectory", "link_a", "phase"), "x", "trajectory['link_a'].phase"),
        (("trajectory", "link_a", "amplitude"), "x", "trajectory['link_a'].amplitude"),
        (("trajectory", "link_a", "period"), NAN, "trajectory['link_a'].period"),
        (("trajectory", "link_a", "phase"), NAN, "trajectory['link_a'].phase"),
        (("trajectory", "link_a", "amplitude"), [NAN], "trajectory['link_a'].amplitude"),
        (("trajectory", "link_a", "period"), INF, "trajectory['link_a'].period"),
        (("trajectory", "link_a"), 5, "trajectory['link_a']"),
        (("trajectory",), [], "config.trajectory"),
        (("bodies", 3), 5, "bodies[3]"),
        (("bodies", 1, "joint"), "rot_z", "bodies[1].joint"),
        (("constraints", 0), 5, "constraints[0]"),
        (("constraints",), {}, "config.constraints"),
        (("bodies", 0, "name"), ["ground"], "bodies[0].name"),
        (("bodies", 1, "parent"), ["ground"], "bodies[1].parent"),
        (("constraints", 0, "body_a"), ["coupler"], "constraints[0].body_a"),
        (("bodies", 1, "joint", "axes"), "rot_z", "bodies[1].joint.axes"),
        (("constraints", 0, "axes"), "trans_x", "constraints[0].axes"),
        (("bodies", 1, "pose"), {"rotvec": [NAN, 0, 0]}, "bodies[1].pose.rotvec"),
        (("constraints", 0, "frame_a", "trans"), [INF, 0, 0], "constraints[0].frame_a.trans"),
        (
            ("bodies", 1, "joint", "joint_to_model"),
            {"rotvec": [0, NAN, 0]},
            "bodies[1].joint.joint_to_model.rotvec",
        ),
        (("bodies", 1, "mesh_path"), 5, "bodies[1].mesh_path"),
        (
            ("bodies", 2, "joint", "parent_to_joint"),
            {"trans": [0.0, 0.1, 0.0]},
            "bodies[2].joint: a joint fixes joint_to_model or parent_to_joint, not both",
        ),
        (
            ("bodies", 0, "joint", "parent_to_joint"),
            {},
            "config.bodies: body 'ground': a root's joint fixes joint_to_model",
        ),
        (
            ("bodies", 1, "joint", "fixed_side"),
            "joint_to_model",
            "bodies[1].joint: unknown field 'fixed_side'",
        ),
    ]

    @pytest.mark.parametrize("path, value, field", CASES, ids=[c[2] for c in CASES])
    def test_named_config_error(self, tmp_path, capsys, path, value, field):
        raw = json.loads(DEMO_CONFIG.read_text())
        for body in raw["bodies"]:
            body.pop("mesh_path", None)
        parent = functools.reduce(lambda node, key: node[key], path[:-1], raw)
        parent[path[-1]] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(raw))
        code = main(
            ["track", "--config", str(config), "--steps", "2", "--out", str(tmp_path / "x.csv")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {field}" in err
        assert "Traceback" not in err


class TestUsage:
    def test_unknown_subcommand_exits_one(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1
