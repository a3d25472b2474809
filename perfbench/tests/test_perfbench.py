"""Tests of the benchmark itself: a tiny run of every workload in both modes
and the tracer's bookkeeping.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins the BLAS pool before numpy loads)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name, trace, **kwargs):
    return run.measure(
        name, seed=3, seconds=0.0, trace=trace, tiny=True, min_ops=8, setup_samples=1, **kwargs
    )


def test_spec_names_the_runner_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_checks_every_op_and_reports_every_metric(name, trace):
    result = tiny_run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 8
    assert result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_self_times_and_unattributed_time_add_up_to_the_traced_op_time():
    t = tracing.Tracer()
    tiny_run("fourbar-track", True, tracer=t)
    per_op = t.per_op()
    self_ms = [per_op[f"{layer}.self_ms_per_op"] for layer in tracing.LAYERS]
    assert t.ops >= 4
    assert sum(self_ms) + per_op["unattributed_ms_per_op"] == pytest.approx(
        per_op["op_ms"], rel=1e-9
    )
    assert min(self_ms) >= 0.0
    assert per_op["unattributed_ms_per_op"] >= 0.0
    assert per_op["se3.calls_per_op"] > 0
    assert per_op["solver.step.calls_per_op"] == 3  # demos/fourbar.json iterations


def test_a_group_whose_target_is_missing_reports_zero_calls():
    groups = dict(tracing.GROUPS)
    groups["se3.renamed"] = ("se3", ("function_that_does_not_exist",))
    groups["gone"] = ("module_that_does_not_exist", ("step",))
    t = tracing.Tracer(layers=tracing.LAYERS + ("module_that_does_not_exist",), groups=groups)
    tiny_run("chain-constrained", True, tracer=t)
    per_op = t.per_op()
    assert per_op["se3.renamed.calls_per_op"] == 0
    assert per_op["gone.calls_per_op"] == 0
    assert per_op["module_that_does_not_exist.calls_per_op"] == 0
    assert per_op["solver.step.calls_per_op"] == 1


def test_wrappers_sit_where_callers_look_names_up_and_come_off():
    mb = run.import_library()
    step, run_steps = mb.solver.step, mb.solver.run
    log_rotation, matmul = mb.se3.log_rotation, mb.Pose.__matmul__
    t = tracing.Tracer()
    t.install()
    try:
        # experiments imports step/run by name; se3 functions are imported
        # into each module that uses them.
        assert mb.experiments.step is mb.solver.step is mb.step
        assert mb.experiments.step.__wrapped__ is step
        assert mb.experiments.run.__wrapped__ is run_steps
        assert mb.constraints.log_rotation is mb.se3.log_rotation
        assert mb.energy.log_rotation.__wrapped__ is log_rotation
        assert mb.Pose.__matmul__.__wrapped__ is matmul
        mb.experiments.run_convergence_study(1, 2, "full", seed=0)
    finally:
        t.uninstall()
    assert mb.experiments.step is step and mb.step is step
    assert mb.constraints.log_rotation is log_rotation
    assert mb.Pose.__matmul__ is matmul
    assert t.groups["solver.step"].calls == 2
    assert t.layers["experiments"].calls > 0
    assert t.layers["se3"].calls > 0


def test_converge_checks_criterion_2_as_a_percentile_over_the_run():
    mb = run.import_library()
    wl = workloads.ConvergeWorkload(mb, seed=3, batch=2)
    assert wl.cross_check() is False  # no one-iteration errors seen yet
    wl.one_step_errors = [0.0] * 99 + [1e-7]
    assert wl.cross_check() is True
    wl.one_step_errors = [0.0] * 97 + [1e-7] * 3
    assert wl.cross_check() is False
