"""Convergence, scaling, and tracking studies: determinism and behavior."""

import functools
import warnings

import numpy as np
import pytest
import scipy.linalg

from multibody import experiments
from multibody.experiments import (
    CONVERGENCE_KINDS,
    ConvergenceStudy,
    build_serial_chain,
    run_convergence_study,
    run_scaling_study,
    run_synthetic_tracking,
    sample_trials,
    write_convergence_csv,
    write_scaling_csv,
)
from multibody import (
    Body,
    BodyEnergy,
    Constraint,
    Joint,
    KinematicStructure,
    OrthogonalityConstraint,
    SolverConfig,
    axes_mask,
    step,
)
from multibody.constraints import relative_poses
from multibody.se3 import log_rotation, row_norms
from multibody.solver import FactorizationFailed, Regularization, SolverMode
from oracles import kkt_dimension, sample_trials_by_row, scalar_convergence_errors

from pathlib import Path

DEMO_CONFIG = Path(__file__).parent.parent / "demos" / "fourbar.json"


class TestSampling:
    def test_rotation_angle_mean_matches_uniform(self):
        # |angle| is uniform on [0, pi]: mean pi/2, std pi/sqrt(12).  Each
        # trial samples three rotations directly: frame_a, frame_b, pose_a.
        frame_a, frame_b, pose_a, *_ = sample_trials("rotvec", 30_000, seed=0)
        angles = np.concatenate(
            [row_norms(log_rotation(pose.r)) for pose in (frame_a, frame_b, pose_a)]
        )
        se = (np.pi / np.sqrt(12.0)) / np.sqrt(angles.size)
        assert abs(angles.mean() - np.pi / 2) < 3 * se
        assert angles.max() <= np.pi

    def test_box_muller_normals_are_standard(self):
        # 12 gradient normals per trial, half from each Box-Muller branch.
        normals = sample_trials("full", 10_000, seed=1, random_energy=True)[4].ravel()
        assert normals.size >= 100_000
        assert abs(normals.mean()) < 3 / np.sqrt(normals.size)
        assert abs(normals.var() - 1.0) < 3 * np.sqrt(2.0 / normals.size)

    def test_directions_are_uniform_on_the_sphere(self):
        # frame_a, frame_b and pose_a translate along a sampled direction
        # (flipped by a negative length, which keeps it uniform): each
        # component has mean 0 and second moment 1/3, variance 4/45.
        poses = sample_trials("trans", 40_000, seed=2)[:3]
        t = np.concatenate([pose.t for pose in poses])
        directions = t / row_norms(t)[:, None]
        n = directions.shape[0]
        assert np.all(np.abs(directions.mean(axis=0)) < 3 * np.sqrt(1 / 3 / n))
        assert np.all(np.abs((directions**2).mean(axis=0) - 1 / 3) < 3 * np.sqrt(4 / 45 / n))

    def test_translation_magnitudes_lie_in_the_unit_interval(self):
        for kind in ("trans", "full"):
            poses = sample_trials(kind, 20_000, seed=3)[:3]
            magnitudes = np.concatenate([row_norms(pose.t) for pose in poses])
            assert magnitudes.min() >= 0.0 and magnitudes.max() <= 1.0

    def test_hessians_are_symmetric_positive_definite(self):
        # 100 (a a^T / 6 + 0.1 I): every eigenvalue is at least 10.
        hessians = sample_trials("full", 2_000, seed=4, random_energy=True)[5]
        assert np.allclose(hessians, hessians.swapaxes(-1, -2), rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(hessians).min() >= 10.0 - 1e-9

    @pytest.mark.parametrize("kind", CONVERGENCE_KINDS)
    @pytest.mark.parametrize("equal_frames", [False, True])
    @pytest.mark.parametrize("random_energy", [False, True])
    def test_sampled_trials_independent_of_batch_size(self, kind, equal_frames, random_energy):
        big = sample_trials(kind, 40, 6, equal_frames, random_energy)
        for k in (1, 13):
            small = sample_trials(kind, k, 6, equal_frames, random_energy)
            for a, b in zip(small[:4], big[:4]):
                assert np.array_equal(a.r, b.r[:k]) and np.array_equal(a.t, b.t[:k])
            for a, b in zip(small[4:], big[4:]):
                assert np.array_equal(a, b[:k])

    @pytest.mark.parametrize("kind", CONVERGENCE_KINDS)
    @pytest.mark.parametrize("equal_frames", [False, True])
    @pytest.mark.parametrize("random_energy", [False, True])
    def test_each_trial_is_built_from_its_row_bit_for_bit(self, kind, equal_frames, random_energy):
        for seed in (0, 7):
            args = kind, 40, seed, equal_frames, random_energy
            actual, expected = sample_trials(*args), sample_trials_by_row(*args)
            # Four pose stacks, then the gradients and Hessians.
            for a, e in zip(actual[:4], expected[:4]):
                assert np.array_equal(a.r, e.r) and np.array_equal(a.t, e.t)
            for a, e in zip(actual[4:], expected[4:]):
                assert np.array_equal(a, e)


class TestConvergenceStudy:
    def test_exact_case_single_iteration(self):
        for kind in ("rotvec", "trans"):
            study = run_convergence_study(200, 1, kind, seed=1, equal_frames=True)
            assert np.max(study.rot_errors[:, 1]) <= 1e-8
            assert np.max(study.trans_errors[:, 1]) <= 1e-8

    def test_random_frames_single_iteration(self):
        study = run_convergence_study(200, 1, "rotvec", seed=2)
        assert np.percentile(study.rot_errors[:, 1], 99) <= 1e-8
        study = run_convergence_study(200, 1, "trans", seed=2)
        assert np.percentile(study.trans_errors[:, 1], 99) <= 1e-8

    def test_orthogonality_has_spurious_attractors(self):
        study = run_convergence_study(500, 4, "ortho", seed=3)
        final = study.rot_errors[:, 4]
        near_spurious = np.sum(
            (np.abs(final - np.pi) < 1e-3) | (np.abs(final - 2 * np.pi / 3) < 1e-3)
        )
        assert near_spurious > 0
        assert np.median(study.rot_errors[:, 1]) > 1e-6

    def test_percentile_monotonicity(self):
        study = run_convergence_study(200, 2, "full", seed=4)
        rows = study.percentile_rows()
        for it in range(3):
            values = [r.rot_err for r in rows if r.iteration == it]
            assert values == sorted(values)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_convergence_study(1, 1, "twist", seed=0)

    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_convergence_csv(run_convergence_study(50, 2, "full", seed=5), a)
        write_convergence_csv(run_convergence_study(50, 2, "full", seed=5), b)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "kind,iteration,percentile,rot_err,trans_err"


def ortho_statistics(rot_errors):
    """Criterion 3's statistics: median error after one iteration and the
    count of trials ending within 1e-3 of pi or 2 pi / 3."""
    final = rot_errors[:, -1]
    spurious = np.sum(
        (np.abs(final - np.pi) < 1e-3) | (np.abs(final - 2 * np.pi / 3) < 1e-3)
    )
    return float(np.median(rot_errors[:, 1])), int(spurious)


class TestBatchedStudy:
    """The batched study against the trial-by-trial scalar solver."""

    @pytest.mark.parametrize("equal_frames", [False, True])
    @pytest.mark.parametrize("random_energy", [False, True])
    @pytest.mark.parametrize("kind", CONVERGENCE_KINDS)
    def test_matches_scalar_oracle(self, kind, random_energy, equal_frames):
        args = (30, 4, kind)
        kwargs = dict(seed=21, random_energy=random_energy, equal_frames=equal_frames)
        study = run_convergence_study(*args, **kwargs)
        rot, trans = scalar_convergence_errors(*args, **kwargs)
        if kind == "ortho":
            # Its Newton iteration does not converge and wanders near pi,
            # where arccos amplifies rounding: compare the statistics.
            oracle = ConvergenceStudy(kind, *args[:2], rot, trans)
            for ours, theirs in zip(study.percentile_rows(), oracle.percentile_rows()):
                assert abs(ours.rot_err - theirs.rot_err) <= 1e-6
                assert abs(ours.trans_err - theirs.trans_err) <= 1e-6
            assert ortho_statistics(study.rot_errors) == ortho_statistics(rot)
        else:
            assert np.max(np.abs(study.rot_errors - rot)) <= 1e-12
            assert np.max(np.abs(study.trans_errors - trans)) <= 1e-12

    @pytest.mark.parametrize("equal_frames", [False, True])
    @pytest.mark.parametrize("random_energy", [False, True])
    @pytest.mark.parametrize("kind", CONVERGENCE_KINDS)
    def test_is_the_tracker_step_bit_for_bit(self, kind, random_energy, equal_frames):
        """Each trial replayed through solver.step: two bodies whose joints
        are free on the kind's axes, the trial's constraint, its energies
        as providers, a COMBINED step with the default regularization.  So
        criteria 1-3 measure the Newton step the tracker runs."""
        args = (kind, 40, 21, equal_frames, random_energy)
        frame_a, frame_b, pose_a, pose_b, gradients, hessians = sample_trials(*args)
        study = run_convergence_study(40, 4, kind, 21, random_energy, equal_frames)
        rotation = axes_mask(["rot_x", "rot_y", "rot_z"])
        free = {"rotvec": rotation, "ortho": rotation, "trans": ~rotation}.get(
            kind, np.ones(6, dtype=bool)
        )
        cfg = SolverConfig(mode=SolverMode.COMBINED)
        for trial in range(40):
            bodies = [
                Body(name, Joint(free.copy()), pose=pose[trial])
                for name, pose in (("a", pose_a), ("b", pose_b))
            ]
            frames = frame_a[trial], frame_b[trial]
            if kind == "ortho":
                constraint = OrthogonalityConstraint(0, 1, *frames)
            else:
                constraint = Constraint(0, 1, *frames, constrained_axes=free)
            s = KinematicStructure(bodies, [constraint])
            energies = [BodyEnergy(gradients[trial, i], hessians[trial, i]) for i in range(2)]
            provider = lambda i, pose: energies[i]  # noqa: E731
            rot, trans = np.zeros(5), np.zeros(5)
            for it in range(5):
                if it:
                    step(s, provider, cfg)
                stack, poses = s.constraint_stack, s.poses()
                _, a_t_b = relative_poses(stack.frame_a, stack.inverse_b, poses[[0]], poses[[1]])
                rot[it], trans[it] = row_norms(log_rotation(a_t_b.r))[0], row_norms(a_t_b.t)[0]
            assert np.array_equal(rot, study.rot_errors[trial]), trial
            assert np.array_equal(trans, study.trans_errors[trial]), trial

    def test_orthogonality_statistics_match_scalar_oracle(self):
        study = run_convergence_study(300, 4, "ortho", seed=3)
        rot, _ = scalar_convergence_errors(300, 4, "ortho", seed=3)
        median, spurious = ortho_statistics(study.rot_errors)
        assert (median, spurious) == ortho_statistics(rot)
        assert spurious > 0

    @pytest.mark.parametrize("random_energy", [False, True])
    @pytest.mark.parametrize("kind", CONVERGENCE_KINDS)
    def test_leading_trials_independent_of_batch_size(self, kind, random_energy):
        big = run_convergence_study(40, 3, kind, seed=8, random_energy=random_energy)
        for k in (1, 13):
            small = run_convergence_study(k, 3, kind, seed=8, random_energy=random_energy)
            assert np.array_equal(small.rot_errors, big.rot_errors[:k])
            assert np.array_equal(small.trans_errors, big.trans_errors[:k])

    @pytest.mark.parametrize("kind", CONVERGENCE_KINDS)
    def test_singular_trial_named(self, kind, monkeypatch):
        # Zero energy and zero regularization leave H = 0, so every trial's
        # KKT matrix is singular; the first one is named.
        monkeypatch.setattr(experiments, "Regularization", functools.partial(Regularization, 0, 0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FactorizationFailed, match=f"{kind} .*trial 0") as info:
                run_convergence_study(5, 1, kind)
        assert info.value.system == 0
        assert not [w for w in caught if issubclass(w.category, scipy.linalg.LinAlgWarning)]


class TestScalingStudy:
    def test_kkt_dimensions(self):
        for n in (1, 2, 5, 20):
            assert kkt_dimension(SolverMode.PROJECTED, n) == 6 + (n - 1)
            assert kkt_dimension(SolverMode.CONSTRAINED, n) == 11 * n - 5

    def test_chain_structure(self):
        s = build_serial_chain(5)
        assert s.n_dof == 6 + 4
        assert len(s.constraints) == 4
        # The chain starts on the constraint manifold.
        for c in s.constraints:
            assert np.max(np.abs(c.residual(s))) < 1e-12

    def test_samples_and_csv(self, tmp_path):
        samples = run_scaling_study(4, repetitions=2)
        assert len(samples) == 8
        assert all(s.seconds_per_iter > 0 for s in samples)
        out = tmp_path / "scaling.csv"
        write_scaling_csv(samples, out)
        assert out.read_text().splitlines()[0] == "mode,n_bodies,seconds_per_iter"


class TestSyntheticTracking:
    def test_stationary_at_ground_truth_gives_perfect_auc(self, tmp_path, monkeypatch):
        import json

        raw = json.loads(DEMO_CONFIG.read_text())
        raw.pop("trajectory")
        path = tmp_path / "static.json"
        path.write_text(json.dumps(raw))
        # Meshes are referenced relative to the config file.
        import shutil

        shutil.copytree(DEMO_CONFIG.parent / "meshes", tmp_path / "meshes")
        monkeypatch.setattr(experiments, "_TRACKING_JITTER", 0.0)
        report = run_synthetic_tracking(path, "combined", steps=5, seed=0)
        assert report.auc == 1.0

    def test_combined_mode_keeps_closure(self):
        report = run_synthetic_tracking(DEMO_CONFIG, "combined", steps=20, seed=0)
        assert max(max(r) for r in report.residuals) <= 1e-6

    def test_projected_without_closure_drifts(self):
        combined = run_synthetic_tracking(DEMO_CONFIG, "combined", steps=20, seed=0)
        projected = run_synthetic_tracking(DEMO_CONFIG, "projected", steps=20, seed=0)
        assert max(max(r) for r in projected.residuals) > 1e-3
        assert combined.mean_add() <= projected.mean_add()

    @pytest.mark.filterwarnings("error")
    def test_a_report_without_rows_has_zero_mean_add(self):
        """No step, no row: the mean ADD is 0.0, with no warning, as the
        AUC is 1.0, rather than numpy's mean of an empty list, nan."""
        report = run_synthetic_tracking(DEMO_CONFIG, "combined", steps=0, seed=0)
        assert report.rows == [] and report.auc == 1.0
        assert report.mean_add() == 0.0

    def test_report_rows_cover_all_meshed_bodies(self):
        report = run_synthetic_tracking(DEMO_CONFIG, "combined", steps=3, seed=0)
        assert len(report.rows) == 3 * 4
        assert 0.0 <= report.auc <= 1.0


class TestCriterion1Analysis:
    """Why criterion 1 (tests/test_acceptance.py) fails while its bound
    stands.  With equal frames, the rotational residual after one step is
    log(exp(-theta_a) exp(r) exp(theta_b)) for the residual r and the
    bodies' rotational updates.  With zero gradients and isotropic Hessians
    (the regularization alone) the KKT solution moves both bodies parallel
    to r, the exponentials commute and the linearized constraint is exact:
    one step closes it.  Random Hessians and gradients turn the updates off
    r; the exponentials then no longer commute, and one step leaves an error
    of second order in the non-parallel part."""

    def test_one_step_is_exact_only_when_the_update_is_parallel_to_the_residual(self):
        def worst(random_energy):
            study = run_convergence_study(
                1000, 1, "rotvec", seed=11, equal_frames=True, random_energy=random_energy
            )
            return float(np.max(study.rot_errors[:, 1]))

        assert worst(random_energy=False) <= 1e-8
        assert worst(random_energy=True) > 1e-8
