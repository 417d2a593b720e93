"""Every module under src/polarnet uses each name it imports, and
``import polarnet`` loads neither networkx nor scipy.optimize.

No linter runs on this package, so unused imports are caught here with
the standard-library ``ast`` module.  ``__init__.py`` is exempt: its
imports are the package's public re-exports.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import polarnet

MODULES = sorted(
    p for p in pathlib.Path(polarnet.__file__).parent.glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detects_unused_import():
    src = "import os\nimport json as js\nfrom math import pi, tau\nprint(js, tau)\n"
    assert unused_imports(src) == ["os (line 1)", "pi (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_import_leaves_out_networkx_and_scipy_optimize():
    # decoding_dag, a helper for tests and diagnostics, imports networkx
    # and regions.linprog imports scipy.optimize, each when first called
    src = str(pathlib.Path(polarnet.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, polarnet; "
            "print([m in sys.modules for m in ('networkx', 'scipy.optimize')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[False, False]"
