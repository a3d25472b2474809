"""Command-line entry point for the experiment studies.

Exit codes: 0 on success, 1 on configuration or usage errors, 2 on solver
failures.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError
from .experiments import (
    CONVERGENCE_KINDS,
    run_convergence_study,
    run_scaling_study,
    run_synthetic_tracking,
    write_convergence_csv,
    write_scaling_csv,
    write_tracking_csv,
)
from .solver import FactorizationFailed, SolverMode


class _Parser(argparse.ArgumentParser):
    # Usage problems count as configuration errors (exit code 1).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="multibody", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    converge = sub.add_parser(
        "converge", help="constraint-convergence percentile study"
    )
    converge.add_argument("--trials", type=int, default=10000)
    converge.add_argument("--iters", type=int, default=4)
    converge.add_argument("--kind", choices=CONVERGENCE_KINDS, default="rotvec")
    converge.add_argument("--seed", type=int, default=0)
    converge.add_argument("--out", required=True)
    converge.add_argument(
        "--random-energy",
        action="store_true",
        help="random positive definite Hessians and gradients instead of zero energies",
    )

    scaling = sub.add_parser(
        "scaling", help="projected vs constrained per-iteration timing"
    )
    scaling.add_argument("--max-bodies", type=int, default=50)
    scaling.add_argument("--reps", type=int, default=5)
    scaling.add_argument("--out", required=True)

    track = sub.add_parser("track", help="synthetic trajectory tracking")
    track.add_argument("--config", required=True)
    track.add_argument(
        "--mode", choices=[m.value for m in SolverMode], default="combined"
    )
    track.add_argument("--steps", type=int, default=100)
    track.add_argument("--seed", type=int, default=0)
    track.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "converge":
            study = run_convergence_study(
                n_trials=args.trials,
                n_iterations=args.iters,
                kind=args.kind,
                seed=args.seed,
                random_energy=args.random_energy,
            )
            write_convergence_csv(study, args.out)
        elif args.command == "scaling":
            samples = run_scaling_study(max_bodies=args.max_bodies, repetitions=args.reps)
            write_scaling_csv(samples, args.out)
        elif args.command == "track":
            report = run_synthetic_tracking(
                args.config, args.mode, steps=args.steps, seed=args.seed
            )
            write_tracking_csv(report, args.out)
            print(f"auc: {report.auc:.4f}")
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FactorizationFailed as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
