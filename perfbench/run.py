"""Benchmark of the multibody Newton/KKT pose solver.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of converge, fourbar-track, chain-constrained (see NOTES.md). The
run imports the library from ./src, builds the workload's inputs from the
seed, runs closed-loop ops for S seconds (at least MIN_OPS of them), checks
every op, and prints an environment line and then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics. --trace 0 reports
the end-to-end metrics; --trace 1 reports the per-layer metrics from a run in
which every other op (every other cycle of ops) is traced. Without the library
sources it exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: on a 2-core machine the default
# 2-thread pool made the constrained chain step 1.7x slower and its p90/p50
# ratio 1.47 instead of 1.17.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FOURBAR_CONFIG = ROOT / "demos" / "fourbar.json"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# At least this many ops per run, so that p90 has ten samples beyond it.
MIN_OPS = 100
# Fresh-process imports and input builds per run; set-up reports medians.
SETUP_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("throughput", "1/s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metric -> (unit, key in Tracer.per_op() or set-up measurement).
PER_LAYER = {
    "se3.calls_per_op": ("count", "se3.calls_per_op"),
    "se3.self_ms_per_op": ("ms", "se3.self_ms_per_op"),
    "kinematics.self_ms_per_op": ("ms", "kinematics.self_ms_per_op"),
    "kinematics.jacobian_calls_per_op": ("count", "kinematics.jacobian.calls_per_op"),
    "kinematics.jacobian_ms_per_op": ("ms", "kinematics.jacobian.ms_per_op"),
    "kinematics.update_calls_per_op": ("count", "kinematics.update.calls_per_op"),
    "kinematics.update_ms_per_op": ("ms", "kinematics.update.ms_per_op"),
    "constraints.self_ms_per_op": ("ms", "constraints.self_ms_per_op"),
    "constraints.residual_calls_per_op": ("count", "constraints.residual.calls_per_op"),
    "constraints.residual_ms_per_op": ("ms", "constraints.residual.ms_per_op"),
    "constraints.jacobian_calls_per_op": ("count", "constraints.jacobian.calls_per_op"),
    "constraints.jacobian_ms_per_op": ("ms", "constraints.jacobian.ms_per_op"),
    "solver.self_ms_per_op": ("ms", "solver.self_ms_per_op"),
    "solver.steps_per_op": ("count", "solver.step.calls_per_op"),
    "solver.kkt_dim": ("count", "solver.solve_kkt.mean"),
    "solver.assemble_ms_per_op": ("ms", "solver.assemble.ms_per_op"),
    "solver.solve_ms_per_op": ("ms", "solver.solve.ms_per_op"),
    "solver.update_ms_per_op": ("ms", "solver.update.ms_per_op"),
    "solver.failures_per_op": ("count", "solver.step.failures_per_op"),
    "energy.self_ms_per_op": ("ms", "energy.self_ms_per_op"),
    "energy.calls_per_op": ("count", "energy.calls_per_op"),
    "energy.ms_per_op": ("ms", "energy.ms_per_op"),
    "metrics.self_ms_per_op": ("ms", "metrics.self_ms_per_op"),
    "metrics.calls_per_op": ("count", "metrics.calls_per_op"),
    "metrics.ms_per_op": ("ms", "metrics.ms_per_op"),
    "experiments.self_ms_per_op": ("ms", "experiments.self_ms_per_op"),
    "config.load_ms": ("ms", "config.load_ms"),
    "setup.import_s": ("s", "setup.import_s"),
    "setup.build_s": ("s", "setup.build_s"),
    "trace.unattributed_ms_per_op": ("ms", "unattributed_ms_per_op"),
    "trace.overhead_ratio": ("ratio", "overhead_ratio"),
}

# Reference kernel: fixed work of the kind the library does, small numpy
# operations driven from Python plus a dense symmetric solve.  It runs between
# ops, and each op's time is scaled by REFERENCE_KERNEL_S over the mean kernel
# time just before and after it.  On the shared 2-core x86_64 host the
# benchmark was defined on, such code runs up to 2x slower in phases lasting
# seconds; the scaling cancels them (run-to-run spread of the median op time
# fell from 30-67% to 1-6% on every workload).
REFERENCE_KERNEL_S = 0.5e-3  # the kernel's time in a fast phase
_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_A = _KERNEL_RNG.standard_normal((120, 120))
_KERNEL_A = _KERNEL_A @ _KERNEL_A.T + 120.0 * np.eye(120)
_KERNEL_B = np.ones(120)


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    m = np.eye(3)
    v = np.ones(3)
    acc = 0.0
    for _ in range(40):
        acc += float(v @ (m @ m) @ v)
        x = np.zeros(6)
        x[:3] = v
        acc += float(np.linalg.norm(x))
    scipy.linalg.solve(_KERNEL_A, _KERNEL_B, assume_a="sym")
    return time.perf_counter() - start


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import multibody; "
    "print(time.perf_counter() - t); print(multibody.__file__)"
)


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs."""


def import_library():
    """`multibody` from this checkout's src/, never from anywhere else."""
    package_dir = SRC / "multibody"
    if not (package_dir / "__init__.py").is_file() or not FOURBAR_CONFIG.is_file():
        raise SetupError(f"library sources or demo config missing under {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import multibody
    import multibody.config  # noqa: F401
    import multibody.experiments  # noqa: F401

    if Path(multibody.__file__).resolve().parent != package_dir.resolve():
        raise SetupError(f"multibody imported from {multibody.__file__}, not {package_dir}")
    return multibody


def fresh_import_seconds() -> float:
    """`import multibody` timed inside a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, path = proc.stdout.split()
    if Path(path).resolve().parent != (SRC / "multibody").resolve():
        raise SetupError(f"fresh import loaded {path}")
    return float(seconds)


def median_seconds(fn, samples: int) -> tuple[float, object]:
    """Median wall time of `samples` calls of fn, and the last result."""
    times = []
    result = None
    for _ in range(samples):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def environment(mb) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "multibody").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except OSError:  # no git: the source digest still identifies the code
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "multibody": mb.__version__,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    min_ops: int = MIN_OPS,
    setup_samples: int = SETUP_SAMPLES,
    tracer=None,
) -> dict:
    """One run of workload `name`; returns the result object."""
    mb = import_library()
    setup = {
        "setup.import_s": statistics.median(
            fresh_import_seconds() for _ in range(setup_samples)
        ),
    }
    load_s, _ = median_seconds(lambda: mb.config.load_config(FOURBAR_CONFIG), setup_samples)
    setup["config.load_ms"] = 1e3 * load_s
    build_s, wl = median_seconds(
        lambda: workloads.build(name, mb, seed, ROOT, tiny=tiny), setup_samples
    )
    setup["setup.build_s"] = build_s

    if trace and tracer is None:
        tracer = tracing.Tracer()
    if tracer is not None:
        tracer.install()  # builds the wrappers once, outside the timing
        tracer.uninstall()

    # Warm-up: a whole cycle of ops, at least two, then back to the built state.
    for i in range(max(2, wl.cycle)):
        wl.prepare(i)
        wl.op(i)
        kernel_seconds()
    wl.reset()

    period = 2 * wl.cycle if tracer is not None else wl.cycle
    ops = []  # (seconds, traced, mean reference-kernel seconds around the op)
    attempted = failed = 0
    reported_error = False
    gc.collect()
    kernel_before = kernel_seconds()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or i % period or time.perf_counter() < deadline:
        traced = tracer is not None and (i // wl.cycle) % 2 == 0
        wl.prepare(i)
        if traced:
            tracer.install()
        error = None
        start = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception as exc:  # a failed op is counted, and the run goes on
            error = exc
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            tracer.record_op(elapsed)
        kernel_after = kernel_seconds()
        ops.append((elapsed, traced, 0.5 * (kernel_before + kernel_after)))
        kernel_before = kernel_after
        if error is None:
            try:
                bad = wl.check(i, out)
            except Exception as exc:
                error = exc
        if error is not None:
            bad = wl.units_per_op
            if not reported_error:
                reported_error = True
                traceback.print_exception(error, file=sys.stderr)
        attempted += wl.units_per_op
        failed += bad
        if bad:
            wl.reset()
        i += 1
    correct = wl.cross_check()

    seconds_, traced_, kernel_ = (np.array(column) for column in zip(*ops))
    scaled_ms = 1e3 * seconds_ * (REFERENCE_KERNEL_S / kernel_)
    print(
        json.dumps({"wall_ms_p50": 1e3 * float(np.median(seconds_)),
                    "kernel_ms_p50": 1e3 * float(np.median(kernel_))}),
        file=sys.stderr,
    )
    if tracer is None:
        good = attempted - failed
        values = {
            "setup_s": setup["setup.import_s"] + setup["setup.build_s"],
            "op_ms_p50": float(np.percentile(scaled_ms, 50)),
            "op_ms_p90": float(np.percentile(scaled_ms, 90)),
            "throughput": good / (1e-3 * float(np.sum(scaled_ms))),
            "success_ratio": good / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    else:
        # One factor for the whole traced share keeps the layer times additive.
        scale = REFERENCE_KERNEL_S / float(np.median(kernel_[traced_]))
        values = dict(setup)
        values.update(
            {k: v * scale if k.endswith("ms_per_op") else v for k, v in tracer.per_op().items()}
        )
        values["overhead_ratio"] = float(
            np.median(scaled_ms[traced_]) / np.median(scaled_ms[~traced_])
        )
        metrics = {
            key: {"value": float(values[source]), "unit": unit}
            for key, (unit, source) in PER_LAYER.items()
        }
    return {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        mb = import_library()
        print(json.dumps({"env": environment(mb)}), flush=True)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
