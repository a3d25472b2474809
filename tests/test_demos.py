"""The demo scripts import only names the package still defines, the
point-registration demo, which runs in about a second, converges, and the
README's quick example runs.

The other demos run for minutes, so a renamed or deleted public name would
break them silently; this reads their imports instead of running them.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def multibody_imports(path):
    """(module, name) for each `from multibody... import name` and (module,
    None) for each `import multibody...` in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "multibody":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "multibody":
                    yield alias.name, None


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    for module_name, name in multibody_imports(path):
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"{path.name}: {module_name}.{name} does not exist"


def test_point_registration_demo_converges():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "point_registration.py")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    rot_err = float(out.stdout.splitlines()[-1].split()[1])
    assert rot_err < 1e-9


def test_the_readme_example_runs(capsys):
    """The README's one ``python`` block runs against this checkout, so that
    the API it shows stays documented correctly.  Its arm's joint fixes
    parent_to_joint, and the joint_to_model derived from the poses after
    the steps composes the arm's pose, base o parent_to_joint o
    joint_to_model, to rounding."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    s, offset = namespace["s"], namespace["offset"]
    composed = s.poses()[0] @ offset @ s.rows_at_poses().frames()["joint_to_model"][1]
    assert np.abs(composed.r - s.poses().r[1]).max() < 1e-12
    assert np.abs(composed.t - s.poses().t[1]).max() < 1e-12
    assert capsys.readouterr().out
