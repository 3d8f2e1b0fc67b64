"""Every name a btlrank module or a test file imports is used, exported, or marked as kept,
and every private helper of btlrank is used.

A stand-in for a linter's unused-import rule (F401), built on ``ast``: an
imported name must be read somewhere in its module, be listed in the
module's ``__all__``, or sit on a line marked ``# noqa: F401``. Likewise a
private module-level function or constant, or a private method, must be
read somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

import btlrank

MODULES = sorted(Path(btlrank.__file__).parent.glob("*.py"))
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and name not in exported:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


@pytest.mark.parametrize("path", MODULES + TEST_FILES,
                         ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_FILES])
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_the_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\n"
                      "__all__ = ['loads']\n")
    assert unused_imports(module) == ["m.py:1 os", "m.py:3 dumps"]


def unreferenced_private_names(paths: list[Path]) -> list[str]:
    """Private (one leading underscore) module-level functions and constants and private
    methods defined in ``paths`` whose name no module among them reads."""
    defined, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text())
        scopes = [(tree.body, "")] + [(node.body, f"{node.name}.") for node in tree.body
                                      if isinstance(node, ast.ClassDef)]
        for body, owner in scopes:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not owner:
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                defined += [(name, f"{path.name}:{node.lineno} {owner}{name}") for name in names
                            if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [label for name, label in defined if name not in read]


def test_every_private_helper_is_used():
    assert unreferenced_private_names(MODULES) == []


def test_the_scan_finds_an_unused_private_helper(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("_USED = 1\n_UNUSED: int = 2\n\n"
                      "def _helper():\n    return _USED\n\n"
                      "def _dead():\n    pass\n\n"
                      "class C:\n    def _method(self):\n        return self._other()\n\n"
                      "    def _other(self):\n        return _helper()\n\n"
                      "    def __len__(self):\n        return 0\n")
    other = tmp_path / "n.py"
    other.write_text("from m import _dead as gone\n")  # an import alone is no read
    assert unreferenced_private_names([module, other]) == [
        "m.py:2 _UNUSED", "m.py:7 _dead", "m.py:11 C._method"]
