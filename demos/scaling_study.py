"""Optimization-time scaling: projected vs constrained configurations.

A serial chain with one rotational joint per link is solved either in
reduced joint coordinates (projected; one unknown per extra body) or with
free 6-DoF bodies coupled by 5-row constraints (constrained; 11 unknowns
per extra body).  The constrained system grows much faster and so does its
per-iteration time.

Run from the repository root:  python3 demos/scaling_study.py
"""

from multibody.experiments import run_scaling_study
from multibody.solver import SolverMode

samples = run_scaling_study(max_bodies=30, repetitions=5)
by_n = {}
for s in samples:
    by_n.setdefault(s.n_bodies, {})[s.mode] = s

print("bodies   projected dim/time      constrained dim/time")
for n in sorted(by_n):
    p = by_n[n][SolverMode.PROJECTED]
    c = by_n[n][SolverMode.CONSTRAINED]
    print(
        f"{n:6d}   {p.kkt_dim:4d}  {p.seconds_per_iter * 1e3:8.3f} ms"
        f"      {c.kkt_dim:4d}  {c.seconds_per_iter * 1e3:8.3f} ms"
    )
