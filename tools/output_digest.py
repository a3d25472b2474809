"""One sha256 per output family of the library, so that "bit-identical
outputs" is one command run on two checkouts.

Run from the repository root of each checkout and compare the lines:

    python3 tools/output_digest.py

It imports the library from ./src and prints one line per family,
``<family> <sha256>``:

- converge: the CSVs of ``multibody converge`` for the four kinds, with and
  without --random-energy, seeds 0 and 3, each of 10000 trials;
- track: the CSVs of ``multibody track`` on demos/fourbar.json and the AUC
  it prints, for the four modes, seeds 0 and 3, each of 100 steps;
- chain: the poses, the multipliers and the backward error after each of
  200 CONSTRAINED steps of build_serial_chain(64), every body pulled
  toward its rest pose moved by a seeded variation, as in the benchmark's
  chain-constrained workload.

Run as a script, it sets one BLAS thread before numpy loads, as the
benchmark does.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import multibody  # noqa: E402
from multibody import cli  # noqa: E402
from multibody.experiments import CONVERGENCE_KINDS, build_serial_chain  # noqa: E402

SEEDS = (0, 3)
CHAIN_SEED = 7
CHAIN_WEIGHT = 100.0
CHAIN_SPREAD = 0.05  # scale of the targets' normal variations from rest


def _cli_digest(runs) -> str:
    """The sha256 of the CSV each ``multibody`` run writes, in order, and
    of what it prints."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for args in runs:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main([*args, "--out", str(out)])
            if code:
                raise RuntimeError(f"multibody {' '.join(args)} exited with {code}")
            digest.update(out.read_bytes())
            digest.update(printed.getvalue().encode())
    return digest.hexdigest()


def chain_digest(steps: int, bodies: int) -> str:
    """The sha256 of the poses, multipliers and backward error after each
    CONSTRAINED step of a chain pulled toward seeded targets."""
    s = build_serial_chain(bodies)
    rest = s.poses()
    rng = np.random.default_rng(CHAIN_SEED)
    cfg = multibody.SolverConfig(mode="constrained")
    digest = hashlib.sha256()
    for _ in range(steps):
        targets = rest.with_variation(CHAIN_SPREAD * rng.standard_normal((bodies, 6)))
        provider = multibody.per_body(
            {i: multibody.quadratic_pose_target(targets[i], CHAIN_WEIGHT, CHAIN_WEIGHT)
             for i in range(bodies)}
        )
        report = multibody.step(s, provider, cfg)
        poses = s.poses()
        for part in (poses.r, poses.t, *report.multipliers, np.float64(report.backward_error)):
            digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def digests(trials=10000, steps=100, chain_steps=200, bodies=64) -> dict:
    """The sha256 of each output family (module docstring), by name."""
    converge = (
        ["converge", "--trials", str(trials), "--kind", kind, "--seed", str(seed), *flag]
        for kind in CONVERGENCE_KINDS
        for flag in ([], ["--random-energy"])
        for seed in SEEDS
    )
    config = str(ROOT / "demos" / "fourbar.json")
    track = (
        ["track", "--config", config, "--mode", mode.value, "--steps", str(steps),
         "--seed", str(seed)]
        for mode in multibody.SolverMode
        for seed in SEEDS
    )
    return {
        "converge": _cli_digest(converge),
        "track": _cli_digest(track),
        "chain": chain_digest(chain_steps, bodies),
    }


def main() -> int:
    for family, value in digests().items():
        print(family, value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
