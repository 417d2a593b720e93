"""Every function, class and method under src/polarnet is used somewhere.

A definition counts as used when its name appears in ``src``, ``tests``
or ``bench`` outside its own body and outside ``__init__.py``, whose
imports are only the package's re-exports.  The name may appear as a
variable, an attribute or a string constant (``bench`` looks some
functions up by name).  Dunder methods are exempt: Python calls them.
Like ``tests/test_imports.py`` this uses only the standard-library
``ast`` module.
"""

import ast
import pathlib

import polarnet

PACKAGE = pathlib.Path(polarnet.__file__).parent
ROOT = PACKAGE.parent.parent
SOURCES = sorted(
    p for d in (PACKAGE, ROOT / "tests", ROOT / "bench") for p in d.rglob("*.py")
    if p.name != "__init__.py"
)


def definitions(tree):
    """(name, first line, last line) of top-level defs and their methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, kinds):
                    yield f"{node.name}.{sub.name}", sub.lineno, sub.end_lineno


def name_uses(tree):
    """(name, line) of every name, attribute and identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno


def dead_definitions(module_sources: dict, other_sources: dict) -> list[str]:
    """Definitions in ``module_sources`` that no source names elsewhere.

    Both map a file label to its source text; only the first are
    searched for definitions.
    """
    uses = {}
    for label, text in {**other_sources, **module_sources}.items():
        for name, line in name_uses(ast.parse(text)):
            uses.setdefault(name, []).append((label, line))
    dead = []
    for label, text in module_sources.items():
        for qual, first, last in definitions(ast.parse(text)):
            name = qual.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(f != label or not first <= line <= last
                       for f, line in uses.get(name, [])):
                dead.append(f"{label}: {qual} (line {first})")
    return sorted(dead)


def test_detects_dead_definitions():
    module = (
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Box:\n"
        "    def __len__(self):\n        return 0\n"
        "    def unused(self):\n        return used()\n"
        "    def looked_up(self):\n        return 2\n"
    )
    other = "from m import Box\ngetattr(Box(), 'looked_up')\n"
    assert dead_definitions({"m.py": module}, {"t.py": other}) == [
        "m.py: Box.unused (line 8)", "m.py: recursive (line 3)"]


def test_no_dead_definitions():
    texts = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    modules = {k: v for k, v in texts.items() if k.startswith("src")}
    others = {k: v for k, v in texts.items() if not k.startswith("src")}
    assert dead_definitions(modules, others) == []
