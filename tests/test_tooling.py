"""Guards on what importing the package costs and on its public names."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import multibody
from multibody import se3

SRC = Path(__file__).resolve().parents[1] / "src"


def sparse_linalg_loaded_after(code: str) -> str:
    """Whether scipy.sparse.linalg is loaded after running code in a fresh
    process that imports multibody."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, multibody\n{code}\n"
         "print('scipy.sparse.linalg' in sys.modules)"],
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
    assert sparse_linalg_loaded_after("") == "False"


def test_band_solve_leaves_sparse_linalg_unloaded():
    step = (
        "from multibody.experiments import build_serial_chain\n"
        "report = multibody.step(build_serial_chain(64), multibody.zero_energy,\n"
        "    multibody.SolverConfig(mode='constrained'))\n"
        "assert report.kkt_dim == 699"
    )
    assert sparse_linalg_loaded_after(step) == "False"


def test_every_exported_name_resolves():
    for name in multibody.__all__:
        assert hasattr(multibody, name), name


def test_se3_keeps_one_kernel_per_formula():
    """No public function of se3 has a <name>_stack twin: each formula
    takes any leading axes itself."""
    names = {name for name, _ in inspect.getmembers(se3, inspect.isfunction)}
    assert not {name for name in names if f"{name}_stack" in names}
