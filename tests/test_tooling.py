"""Guards on what importing the package costs."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_sparse_linalg_unloaded():
    """scipy.sparse.linalg adds about 35 modules and 2 MB to a fresh
    process; solve_kkt imports it on the first sparse solve instead."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, multibody; print('scipy.sparse.linalg' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
