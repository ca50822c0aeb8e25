"""Every script under ``demos/`` runs to completion against the package,
and the package root exports exactly what the README and the demos use."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import telework_impact

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: ``from telework_impact[.module] import a, b`` or ``import (a, b)``, as the
#: README's code and its ``python3 -c`` one-liners write them.
_README_IMPORT = re.compile(r"from (telework_impact(?:\.\w+)*) import (\([^)]*\)|[\w, ]+)")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def _documented_imports() -> set[tuple[str, str]]:
    """``(module, name)`` for each name the README and the demos import
    from the package."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    found = {
        (module, name.strip())
        for module, names in _README_IMPORT.findall(readme)
        for name in names.strip("()").split(",")
        if name.strip()
    }
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "telework_impact":
                found.update((node.module, alias.name) for alias in node.names)
    return found


def test_root_exports_exactly_the_documented_names():
    imports = _documented_imports()
    used = {name for module, name in imports if module == "telework_impact"}
    assert set(telework_impact.__all__) == used | {"__version__"}
    unresolved = [
        f"{module}.{name}"
        for module, name in sorted(imports)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not unresolved
