"""Guards on what importing the package costs, on its public names and on
the names the benchmark calls."""

import ast
import copy
import dataclasses
import importlib.util
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

import multibody
import multibody.config
import multibody.energy
import multibody.experiments
import multibody.metrics
import multibody.solver
from multibody import se3
import builders
import oracles

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def loaded_after(code: str, module: str = "scipy.sparse.linalg") -> str:
    """Whether ``module`` is loaded after running code in a fresh process
    that imports multibody."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, multibody\n{code}\n"
         f"print({module!r} in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_import_leaves_sparse_linalg_unloaded():
    """scipy.sparse.linalg adds about 35 modules and 2 MB to a fresh
    process; the solver needs none of it, since large sparse KKT systems
    are factored in band storage by LAPACK."""
    assert loaded_after("") == "False"


def test_import_leaves_scipy_spatial_and_sparse_unloaded():
    """ADD-S sums squared differences itself, so neither scipy.spatial nor
    the scipy.sparse it imports is loaded: about 90 modules and 9 MB of a
    fresh process."""
    for module in ("scipy.spatial", "scipy.sparse"):
        assert loaded_after("import multibody.experiments", module) == "False"


def test_band_solve_leaves_sparse_linalg_unloaded():
    step = (
        "from multibody.experiments import build_serial_chain\n"
        "report = multibody.step(build_serial_chain(64), multibody.zero_energy,\n"
        "    multibody.SolverConfig(mode='constrained'))\n"
        "assert report.kkt_dim == 699"
    )
    assert loaded_after(step) == "False"


def test_every_exported_name_resolves():
    for name in multibody.__all__:
        assert hasattr(multibody, name), name


def test_se3_keeps_one_kernel_per_formula():
    """No public function of se3 has a <name>_stack twin: each formula
    takes any leading axes itself, and Pose is the one pose type, for one
    transform or a stack, with no helpers for (r, t) pairs beside it."""
    names = {name for name, _ in inspect.getmembers(se3, inspect.isfunction)}
    assert not {name for name in names if f"{name}_stack" in names}
    pair_helpers = (
        "compose_stack", "inverse_stack", "rows_stack", "pose_with_variation_stack", "stack_poses"
    )
    assert not [name for name in pair_helpers if hasattr(se3, name)]


def test_each_se3_kernel_is_one_closed_form():
    """The kernels divide by the angle, or by 1 where it is 0, and
    log_rotation's one masked branch is the quaternion rows above pi/2: no
    threshold, series branch or near-pi branch is left, nor the oracle's
    series helper, so a second formula for the same rows cannot come back
    unnoticed."""
    for name in ("SMALL_ANGLE", "NEAR_PI", "_small"):
        assert not hasattr(se3, name), name
    assert not hasattr(oracles, "_half_angle_cot")


def test_a_small_step_pays_no_per_call_wrappers():
    """The fixed costs taken out of every Newton step stay out: the SE(3)
    kernels divide by a denominator set to 1 on zero rows, not through a
    masked np.divide with a fresh output array; the dense solve walks its
    systems over a flat view, not np.ndindex; ADD and ADD-S sum and divide
    instead of calling np.mean (auc_score, once per report, may)."""
    assert "where=" not in inspect.getsource(se3)
    assert "ndindex" not in inspect.getsource(multibody.solver)
    for metric in (multibody.metrics.add_error, multibody.metrics.add_s_error):
        tree = ast.parse(inspect.getsource(metric))
        names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
        assert "mean" not in names, metric.__name__


def test_a_structure_is_configured_once():
    """The options only tests set stay removed: ``assemble`` takes the
    rows its structure keeps and a regularization, ``per_body`` gives a
    body without a provider zero energy, a structure's constraints are
    given at construction, and the studies' constants are not parameters.
    What construction fixes is no state either: a store is built from its
    poses alone, with no joint stacks given or carried (no ``_with_rows``)
    and no ``pending`` flag, and a view keeps one KKT pattern per mode, with
    no single slot and no key to compare.  The rows have one reader, the
    store (``s.rows_at_poses()()``), norms are computed where they are
    read, and ``_ReadOnly`` is the one unpickling hook of the records that
    keep read-only arrays, with one helper, ``_frozen``, that freezes
    them.  A joint is a frozen record of its inputs, whose keyword names
    the side it fixes: no ``FixedSide``, and no binding to a structure
    (``_Adoptable``, ``_row_name``, ``_STACKED``).  A store derives only
    the joint frames a step reads (``frames()``): no ``joints()``, no
    ``_infer``, no derived parent_to_joint stack and no ``_joint_sides``;
    and a view keeps no ``roots``, which nothing read."""
    params = inspect.signature(multibody.solver.assemble).parameters
    assert list(params) == ["s", "g", "h", "mode", "regularization"]
    assert all(p.default is inspect.Parameter.empty for p in params.values())
    for provider in (multibody.energy.per_body, multibody.energy.PerBody):
        assert list(inspect.signature(provider).parameters) == ["providers"]
    assert not hasattr(multibody.energy, "ZeroEnergy")
    constraints = inspect.getattr_static(multibody.KinematicStructure, "constraints")
    assert isinstance(constraints, property) and constraints.fset is None
    for function, names in (
        (multibody.experiments.random_spd, ["normals"]),
        (multibody.experiments.build_serial_chain, ["n_bodies"]),
    ):
        assert list(inspect.signature(function).parameters) == names
    for function, name in (
        (multibody.experiments.run_convergence_study, "regularization"),
        (multibody.experiments.run_synthetic_tracking, "jitter"),
    ):
        assert name not in inspect.signature(function).parameters
    assert "key" not in {f.name for f in dataclasses.fields(multibody.solver._Pattern)}
    s = multibody.experiments.build_serial_chain(3)
    for mode in ("independent", "projected", "constrained"):
        store = s.rows_at_poses()
        multibody.step(s, multibody.zero_energy, multibody.SolverConfig(mode=mode))
        assert not hasattr(store, "pending")
    assert list(inspect.signature(multibody.kinematics._PoseStore).parameters) == ["s", "poses"]
    assert not hasattr(multibody.kinematics, "_with_rows")
    for view in (s.tree, s.forest):
        assert not hasattr(view, "kkt_pattern")
    assert not hasattr(multibody.KinematicStructure, "constraint_rows")
    rows = s.rows_at_poses()()
    rows.norms()
    assert not hasattr(rows, "_norms")
    assert "_norms" not in {f.name for f in dataclasses.fields(multibody.constraints.ConstraintRows)}
    kinematics, constraints = multibody.kinematics, multibody.constraints
    for cls in (kinematics.Joint, kinematics._PoseStore, kinematics.KinematicStructure):
        assert not {"__setstate__", "__getstate__"} & set(vars(cls)), cls.__name__
        assert issubclass(cls, constraints._ReadOnly), cls.__name__
    assert not hasattr(constraints, "_freeze_all")
    assert kinematics._frozen is constraints._frozen
    study = multibody.experiments.ConvergenceStudy
    assert "percentiles" not in {f.name for f in dataclasses.fields(study)}
    for name in ("FixedSide", "_Adoptable", "_row_name", "_STACKED"):
        assert not hasattr(kinematics, name), name
        assert not hasattr(multibody, name), name
    for name in ("joints", "_infer"):
        assert not hasattr(kinematics._PoseStore, name), name
    assert not hasattr(s, "_joint_sides") and not hasattr(s.tree, "roots")
    frames = {"joint_to_model", "model_to_joint"}
    assert set(s._adopted) == set(s.rows_at_poses().frames()) == frames
    joint = kinematics.Joint
    assert dataclasses.is_dataclass(joint) and joint.__dataclass_params__.frozen
    assert [f.name for f in dataclasses.fields(joint)] == [
        "free_axes", "joint_to_model", "parent_to_joint"
    ]


def test_a_config_field_is_stated_once():
    """Each object of the configuration format is read by one checked
    reader, ``_fields``, which states each field and its default once, and
    every number by ``_numbers``: the helpers they replaced stay removed, and
    the records a config is read into repeat no default."""
    config = multibody.config
    assert callable(config._fields) and callable(config._numbers)
    for name in (
        "_expect",
        "_refuse_bool_or_str",
        "_parse_numbers",
        "_parse_vec3",
        "_parse_finite",
        "_parse_nonnegative",
    ):
        assert not hasattr(config, name), name
    for record in (config.TrackingConfig, config.JointProgram):
        for f in dataclasses.fields(record):
            assert f.default is dataclasses.MISSING, (record.__name__, f.name)
            assert f.default_factory is dataclasses.MISSING, (record.__name__, f.name)


def test_each_mode_builds_its_kkt_pattern_once(monkeypatch):
    """A structure's constraint rows are fixed at construction, so that its
    view's KKT pattern without them and with them is built once each, however
    often the two modes of the view alternate: on the 64-body chain
    (forest view) and on the four-bar demo (tree view)."""
    built, build = [], multibody.solver._Pattern.build
    monkeypatch.setattr(
        multibody.solver._Pattern, "build", lambda view, bodies: built.append(build(view, bodies))
        or built[-1]
    )
    chain = multibody.experiments.build_serial_chain(64)
    fourbar = multibody.config.load_config(ROOT / "demos" / "fourbar.json").structure
    for s, modes in ((chain, ("independent", "constrained")), (fourbar, ("projected", "combined"))):
        for _ in range(3):
            for mode in modes:
                multibody.step(s, multibody.zero_energy, multibody.SolverConfig(mode=mode))
    kept = [*chain.forest.kkt_patterns.values(), *fourbar.tree.kkt_patterns.values()]
    assert len(built) == len(kept) == 4
    assert all(a is b for a, b in zip(built, kept))


def test_only_the_tree_view_has_jacobians():
    """A view is constant index data: no per-tree layout and no joint
    frames of its own, which the structure's stacks hold, and no copy hook
    of its own beside ``_ReadOnly``'s; jacobian_factors is the tree view's."""
    for name in ("frames", "inverse_frames", "per_tree", "pair_slots"):
        assert not hasattr(multibody.kinematics.Coordinates, name), name
    assert "__setstate__" not in vars(multibody.kinematics.Coordinates)
    s = multibody.experiments.build_serial_chain(3)
    for view in (s.tree, s.forest):
        assert not {"frames", "inverse_frames", "layout", "slots", "pair_slots"} & set(vars(view))
    factors = inspect.signature(multibody.KinematicStructure.jacobian_factors)
    assert list(factors.parameters) == ["self"]


def test_update_poses_switches_to_the_forest_view_by_a_flag():
    """update_poses takes a switch, not a view: a view of another
    structure was taken for the tree view, so that a deep copy updated in
    its original's forest view moved its bodies up to 0.088 m away from
    the same update in its own."""
    params = inspect.signature(multibody.KinematicStructure.update_poses).parameters
    assert list(params) == ["self", "theta_k", "forest"]
    assert params["forest"].default is False


def test_one_dense_solve_takes_no_finite_flag():
    """_dense_solve factors and solves, and raises only for a zero pivot:
    solve_kkt checks every input before it, so that no flag about the
    input is threaded into the solve."""
    params = inspect.signature(multibody.solver._dense_solve).parameters
    assert list(params) == ["kkt", "rhs"]


def test_a_deep_copy_freezes_no_shared_record_again(monkeypatch):
    """Calls are counted, not timed: a copy, deep or shallow, of a stepped
    four-bar shares what the structure's construction fixed and its frozen
    rows record, so that ``_ReadOnly.__setstate__`` runs for no record and
    no view, KKT pattern or rows record is built, while pickle builds every
    record again and freezes it.  The hook binds the bodies in the pass
    that copies them, and shares the joints: ``kinematics`` has no
    ``_bind`` and does not import ``copy``."""
    kinematics, constraints = multibody.kinematics, multibody.constraints
    assert not hasattr(kinematics.KinematicStructure, "_bind")
    assert not hasattr(kinematics, "copy")
    calls, built = [], []

    def counted(method, into):
        return lambda record, *args, **kwargs: (
            into.append(type(record).__name__) or method(record, *args, **kwargs)
        )

    readonly = constraints._ReadOnly
    monkeypatch.setattr(readonly, "__setstate__", counted(readonly.__setstate__, calls))
    for cls in (kinematics.Coordinates, multibody.solver._Pattern, constraints.ConstraintRows):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__, built))
    s = multibody.config.load_config(ROOT / "demos" / "fourbar.json").structure
    for mode in ("projected", "combined"):
        multibody.step(s, multibody.zero_energy, multibody.SolverConfig(mode=mode))
    assert s.rows_at_poses().rows is not None and s.tree.kkt_patterns
    records = {"KinematicStructure", "Coordinates", "_Pattern", "ConstraintStack", "ConstraintRows",
               "_PoseStore", "Joint"}
    records |= {type(c).__name__ for c in s.constraints}
    for copier in (copy.deepcopy, copy.copy):
        calls.clear(), built.clear()
        copier(s)
        assert not calls and not built, (copier.__name__, calls, built)
    pickle.loads(pickle.dumps(s))
    assert records <= set(calls) and not built


def test_every_read_only_record_is_checked_in_a_copy():
    """Each ``_ReadOnly`` subclass of the package, or a subclass of it, is
    a record of ``test_caches.READ_ONLY_RECORDS``, whose copies are checked
    to hold only read-only arrays: a new record cannot skip the rule."""
    from test_caches import READ_ONLY_RECORDS

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    records = {
        cls.__name__: cls for cls in subclasses(multibody.constraints._ReadOnly)
        if cls.__module__.startswith("multibody.")
    }
    listed = {name.split()[0] for name in READ_ONLY_RECORDS}
    assert listed <= records.keys()
    for name, cls in records.items():
        assert any(issubclass(records[record], cls) for record in listed), name


def perfbench_module(name: str):
    """perfbench/<name>.py, loaded from its file."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_workloads_run_traced_against_the_library():
    """Every workload of the benchmark, built, run and checked through its
    own code with the tracer's wrappers installed, as perfbench/run.py
    does: a renamed function, attribute or parameter that the benchmark
    calls fails here rather than as a failed benchmark run.

    A tracking frame evaluates the constraints once per Newton step, at the
    poses the step leaves: from its second frame on, each starts from the
    rows the previous frame left."""
    workloads, tracing = perfbench_module("workloads"), perfbench_module("tracer")
    groups = {**tracing.GROUPS, "evaluate": ("constraints", ("evaluate_constraints",))}
    tracer = tracing.Tracer(groups=groups)
    evaluations = tracer.groups["evaluate"]
    for name in workloads.NAMES:
        workload = workloads.build(name, multibody, 3, ROOT, tiny=True)
        per_op = []
        for i in range(4):
            workload.prepare(i)
            calls = evaluations.calls
            tracer.install()
            try:
                out = workload.op(i)
            finally:
                tracer.uninstall()
            per_op.append(evaluations.calls - calls)
            assert workload.check(i, out) == 0, (name, i)
        if name == "fourbar-track":
            assert workload.solver_cfg.iterations == 3 and per_op[1:] == [3, 3, 3], per_op
        workload.reset()
        assert workload.cross_check(), name
    assert tracer.observers["solver.solve_kkt"].calls > 0


def test_free_body_steps_multiply_by_no_jacobian_and_evaluate_only_what_is_read(monkeypatch):
    """Calls are counted, not timed.  A CONSTRAINED step on a 64-body chain
    gathers its KKT entries and moves each body by its own variation, so
    that it calls no jacobian_factors; a PROJECTED step evaluates no
    constraint until a residual of its report is read, and then once per
    pose stack."""
    counts = {"jacobian_factors": 0, "evaluate_constraints": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    kinematics = multibody.kinematics
    monkeypatch.setattr(
        kinematics.KinematicStructure, "jacobian_factors",
        counted("jacobian_factors", kinematics.KinematicStructure.jacobian_factors),
    )
    monkeypatch.setattr(
        kinematics, "evaluate_constraints",
        counted("evaluate_constraints", kinematics.evaluate_constraints),
    )
    s = multibody.experiments.build_serial_chain(64)
    cfg = multibody.SolverConfig
    constrained = multibody.step(s, multibody.zero_energy, cfg(mode="constrained"))
    assert constrained.kkt_dim == 699
    assert counts == {"jacobian_factors": 0, "evaluate_constraints": 2}
    projected = multibody.step(s, multibody.zero_energy, cfg(mode="projected"))
    assert counts == {"jacobian_factors": 1, "evaluate_constraints": 2}
    assert projected.residuals_before == constrained.residuals_after
    assert counts["evaluate_constraints"] == 2
    for _ in range(2):
        assert len(projected.residuals_after) == 63
    assert counts["evaluate_constraints"] == 3


def test_joints_are_inferred_only_when_read(monkeypatch):
    """Calls are counted, not timed.  Where every joint fixes
    joint_to_model, as on the chain, no step and no read infers a joint
    frame: each reads the adopted constants.  Where a joint fixes
    parent_to_joint, a forest step (CONSTRAINED) infers none, a tree step
    (PROJECTED) infers the frames of the store it starts from once, for its
    Jacobians and its update, and reads after a step infer them once."""
    calls = builders.counted_inferences(monkeypatch)
    chain = multibody.experiments.build_serial_chain(64)
    shifted = se3.Pose(np.eye(3), [0.1, 0.0, 0.0])
    bent = multibody.KinematicStructure(oracles.detached(chain, parent_to_joint={5: shifted}))
    cfg = multibody.SolverConfig
    for s, inferred in ((chain, 0), (bent, 1)):
        steps = [("constrained", 0), ("projected", inferred), ("projected", inferred)]
        for mode, expected in steps:
            calls.clear()
            multibody.step(s, multibody.zero_energy, cfg(mode=mode))
            assert len(calls) == expected, mode
        multibody.step(s, multibody.zero_energy, cfg(mode="independent"))
        calls.clear()
        first = s.rows_at_poses().frames()["joint_to_model"][5]
        assert len(calls) == inferred
        assert s.rows_at_poses().frames()["joint_to_model"][5].r.tobytes() == first.r.tobytes()
        assert len(calls) == inferred
    assert chain.rows_at_poses().frames() is chain._adopted


def test_a_convergence_study_seeds_one_generator(monkeypatch):
    """Calls are counted, not timed: a study of 25 trials seeds one
    Generator with its seed, whatever its kind, and draws every trial from
    that Generator's one block."""
    calls, default_rng = [], np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda *args: calls.append(args) or default_rng(*args)
    )
    for kind in multibody.experiments.CONVERGENCE_KINDS:
        for random_energy in (False, True):
            calls.clear()
            multibody.experiments.run_convergence_study(25, 4, kind, random_energy=random_energy)
            assert calls == [(0,)], (kind, random_energy)


def test_a_convergence_study_moves_both_bodies_by_one_variation(monkeypatch):
    """Calls are counted, not timed: a study keeps both bodies of its
    trials as one (n_trials, 2) pose stack, which one exp_rotvec call per
    iteration moves, not one per body, after the one call that samples the
    trials; and it builds its KKT stack once, writing only B, B^T and b in
    each iteration."""
    experiments, calls, built = multibody.experiments, [], []
    exp_rotvec, from_blocks = se3.exp_rotvec, multibody.solver.KktSystem.from_blocks.__func__
    counted = lambda v: calls.append(np.shape(v)) or exp_rotvec(v)  # noqa: E731
    monkeypatch.setattr(se3, "exp_rotvec", counted)
    monkeypatch.setattr(experiments, "exp_rotvec", counted)
    monkeypatch.setattr(
        multibody.solver.KktSystem, "from_blocks",
        classmethod(lambda cls, *blocks: built.append(1) or from_blocks(cls, *blocks)),
    )
    for kind in experiments.CONVERGENCE_KINDS:
        calls.clear(), built.clear()
        experiments.run_convergence_study(25, 4, kind)
        assert calls == [(25, 4, 3)] + [(25, 2, 3)] * 4, (kind, calls)
        assert built == [1], kind


def test_each_caller_evaluates_only_the_row_halves_it_selects(monkeypatch):
    """Calls are counted, not timed.  The four-bar's one constraint pins
    trans_x and trans_y, so that a COMBINED step calls log_rotation and
    variation_matrix only from its pose-target energy, once each; the
    convergence study's ``trans`` kind calls no variation_matrix, while
    its ``rotvec`` kind calls it once per iteration.  The 6x6 blocks of
    both halves at once (``pose_constraint_blocks``) stay removed."""
    assert not hasattr(multibody.constraints, "pose_constraint_blocks")
    calls = []
    for module in (multibody.energy, multibody.constraints, multibody.experiments):
        for name in ("log_rotation", "variation_matrix"):
            if hasattr(module, name):
                function, where = getattr(module, name), f"{module.__name__}.{name}"
                monkeypatch.setattr(
                    module, name, lambda v, f=function, w=where: calls.append(w) or f(v)
                )
    config = multibody.config.load_config(ROOT / "demos" / "fourbar.json")
    s = config.structure
    targets = s.poses().with_variation(np.full((len(s.bodies), 6), 0.01))
    provider = multibody.per_body(
        {i: multibody.quadratic_pose_target(targets[i], w_r, w_t)
         for i, (w_r, w_t) in config.weights.items() if w_r > 0 or w_t > 0}
    )
    assert s.constraint_stack.masks.tolist() == [[False, False, False, True, True, False]]
    for _ in range(2):
        calls.clear()
        report = multibody.step(s, provider, multibody.SolverConfig(mode="combined"))
        assert len(report.residuals_after) == 1
        assert calls == ["multibody.energy.log_rotation", "multibody.energy.variation_matrix"]
    for kind, expected in (("trans", 0), ("rotvec", 4)):
        calls.clear()
        multibody.experiments.run_convergence_study(25, 4, kind)
        assert calls.count("multibody.constraints.variation_matrix") == expected, kind
        assert calls.count("multibody.experiments.log_rotation") == 5, kind


def test_no_library_path_reads_an_adopted_bodys_pose(monkeypatch):
    """A body's pose descriptor (kinematics._PoseRow) is reached only once
    a structure has adopted the body; before that the body's own field
    shadows it.  With the descriptor refusing every body, the tracking
    study in each mode, the convergence study of each kind and the scaling
    study still run: they read poses from the structures' stacks."""
    read_row = multibody.kinematics._PoseRow.__get__

    def refuse(self, body, cls=None):
        if body is not None:
            raise AssertionError(f"read the pose of adopted body {body.name!r}")
        return read_row(self, body, cls)

    monkeypatch.setattr(multibody.kinematics._PoseRow, "__get__", refuse)
    experiments = multibody.experiments
    for mode in multibody.SolverMode:
        report = experiments.run_synthetic_tracking(ROOT / "demos" / "fourbar.json", mode, 2)
        assert len(report.rows) == 2 * 4, mode
    for kind in experiments.CONVERGENCE_KINDS:
        experiments.run_convergence_study(4, 2, kind)
    assert len(experiments.run_scaling_study(3, 1)) == 6


def output_digest():
    """tools/output_digest.py, loaded from its file."""
    path = ROOT / "tools" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The tiny sizes of the digest tests and the digests pinned at them.
PINNED = json.loads((ROOT / "tests" / "output_digests.json").read_text())


def test_output_digest_is_the_same_for_the_same_code():
    """tools/output_digest.py, at a tiny size, run twice in one process:
    each family's digest is a sha256 and reads the same both times, so that
    a digest that differs between two checkouts names an output change."""
    module = output_digest()
    first, second = module.digests(**PINNED["sizes"]), module.digests(**PINNED["sizes"])
    assert list(first) == ["converge", "track", "chain"]
    assert all(len(value) == 64 and int(value, 16) >= 0 for value in first.values())
    assert first == second


def test_outputs_match_their_pinned_digests():
    """Each output family's digest at the tiny sizes equals the one checked
    in (tests/output_digests.json, the same with one BLAS thread or more),
    so that an output that moves fails here.  A change that moves outputs
    on purpose updates the file, and says in CHANGES.md why, with the
    full-size digests (python3 tools/output_digest.py) before and after."""
    assert output_digest().digests(**PINNED["sizes"]) == PINNED["digests"]
