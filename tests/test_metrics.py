"""ADD / ADD-S / AUC against brute-force oracles, plus OBJ loading."""

import numpy as np
import pytest

from builders import random_pose
from multibody.metrics import Mesh, add_error, add_s_error, auc_score, load_obj
from multibody.se3 import Pose, exp_rotvec
from oracles import n_vertices, pose_matrix


class TestAddError:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        mesh = Mesh(rng.uniform(-1, 1, (10, 3)))
        assert add_error(mesh, Pose.identity()) == 0.0

    def test_pure_translation(self):
        rng = np.random.default_rng(1)
        mesh = Mesh(rng.uniform(-1, 1, (7, 3)))
        rel = Pose(np.eye(3), np.array([0, 0, 0.05]))
        assert abs(add_error(mesh, rel) - 0.05) < 1e-12

    def test_cube_rotation_against_oracle(self):
        from oracles import brute_force_add

        corners = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        mesh = Mesh(0.5 * np.array(corners, dtype=float))
        rel = Pose(exp_rotvec([0, 0, np.pi / 2]), np.zeros(3))
        expected = brute_force_add(mesh.vertices, pose_matrix(rel))
        assert abs(add_error(mesh, rel) - expected) < 1e-12

    def test_invariance_to_common_rigid_transform(self):
        rng = np.random.default_rng(2)
        mesh = Mesh(rng.uniform(-1, 1, (10, 3)))
        estimated = random_pose(rng)
        truth = random_pose(rng)
        common = random_pose(rng)
        rel = estimated.inverse() @ truth
        rel_moved = (common @ estimated).inverse() @ (common @ truth)
        assert abs(add_error(mesh, rel) - add_error(mesh, rel_moved)) < 1e-9

    def test_empty_mesh_rejected(self):
        with pytest.raises(ValueError):
            Mesh(np.zeros((0, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_rejected(self, value):
        vertices = np.zeros((3, 3))
        vertices[2, 1] = value
        with pytest.raises(ValueError, match=r"^vertex 2 is not finite"):
            Mesh(vertices)


class TestAddSError:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(3)
        mesh = Mesh(rng.uniform(-1, 1, (10, 3)))
        assert add_s_error(mesh, Pose.identity()) == 0.0

    def test_symmetric_square_is_zero(self):
        mesh = Mesh(np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float))
        rel = Pose(exp_rotvec([0, 0, np.pi / 2]), np.zeros(3))
        assert add_s_error(mesh, rel) < 1e-12

    def test_matches_brute_force_oracle(self):
        from oracles import brute_force_add_s

        rng = np.random.default_rng(4)
        for _ in range(100):
            mesh = Mesh(rng.uniform(-1, 1, (10, 3)))
            rel = random_pose(rng)
            expected = brute_force_add_s(mesh.vertices, pose_matrix(rel))
            assert abs(add_s_error(mesh, rel) - expected) < 1e-12

    def test_equals_cdist_bit_for_bit(self):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(6)
        for _ in range(500):
            scale = 10.0 ** rng.uniform(-4, 2)
            mesh = Mesh(scale * rng.standard_normal((int(rng.integers(1, 81)), 3)))
            rel = Pose(exp_rotvec(rng.uniform(-1, 1, 3)), scale * rng.uniform(-1, 1, 3))
            expected = float(np.mean(cdist(mesh.vertices, rel.apply(mesh.vertices)).min(axis=1)))
            assert add_s_error(mesh, rel) == expected

    def test_never_exceeds_add(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            mesh = Mesh(rng.uniform(-1, 1, (8, 3)))
            rel = random_pose(rng)
            assert add_s_error(mesh, rel) <= add_error(mesh, rel) + 1e-12


class TestAucScore:
    def test_all_zero_errors(self):
        assert auc_score(np.zeros((3, 4)), 0.1) == 1.0

    def test_no_errors_score_one(self):
        """No error exceeds any threshold: the score of none is 1.0, as the
        tracking study reports for a run without rows, with no warning of
        numpy's mean of an empty array (an error under this suite)."""
        assert auc_score([], 0.1) == 1.0
        assert auc_score(np.zeros((0, 3)), 0.1) == 1.0

    def test_all_errors_beyond_threshold(self):
        assert auc_score(np.full((2, 5), 0.2), 0.1) == 0.0

    def test_direct_evaluation(self):
        assert abs(auc_score(np.array([[0.0, 0.05]]), 0.1) - 0.75) < 1e-12

    def test_monotone_in_each_error(self):
        rng = np.random.default_rng(6)
        errors = rng.uniform(0, 0.2, (3, 5))
        base = auc_score(errors, 0.1)
        bumped = errors.copy()
        bumped[1, 2] += 0.01
        assert auc_score(bumped, 0.1) <= base

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
    def test_invalid_threshold(self, bad):
        """A NaN e_t scored NaN silently, and an infinite one scored every
        error 1.0.  Fails if a threshold that is not positive and finite is
        taken, or if the error stops naming it."""
        named = f"^error threshold must be positive and finite, not {bad!r}$"
        with pytest.raises(ValueError, match=named):
            auc_score(np.array([0.01, 0.2]), bad)


class TestLoadObj:
    def test_reads_vertices_only(self, tmp_path):
        path = tmp_path / "tri.obj"
        path.write_text(
            "# comment\n"
            "v 0.0 0.0 0.0\n"
            "v 1.0 0 0\n"
            "vn 0 0 1\n"
            "v 0 1 0\n"
            "f 1 2 3\n"
        )
        mesh = load_obj(path)
        assert n_vertices(mesh) == 3
        assert np.allclose(mesh.vertices[1], [1, 0, 0])

    @pytest.mark.parametrize("line", ["v 1 2", "v a 0 0", "v"])
    def test_malformed_vertex_rejected_naming_its_line(self, tmp_path, line):
        """A vertex line without three numbers was skipped, or raised
        float()'s message with no line number."""
        path = tmp_path / "bad.obj"
        path.write_text(f"# comment\nv 0 0 0\n{line}\n")
        with pytest.raises(ValueError, match=f"^{path}, line 3: expected 3 numbers, got '{line}'$"):
            load_obj(path)

    def test_no_vertices_rejected(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            load_obj(path)
