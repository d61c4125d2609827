"""Every module of swarmpp reads each name it imports, and each private name
a module defines is read somewhere in swarmpp."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "swarmpp"


def _unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, `from __future__` aside."""
    tree, imported = ast.parse(source), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # `import a.b` binds a
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, os.path as p\nimport a.b\nfrom c import d, e as f\n"
    assert _unused_imports(source + "a.b.g(f)\n") == ["os", "p", "d"]
    assert _unused_imports(source + "os = 1\na, d, f, p\n") == ["os"]  # a binding is no read


# __init__.py imports to re-export
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_reads_every_name_it_imports(module):
    assert _unused_imports((SRC / module).read_text()) == [], module


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each private name (`_x`, not `__x`) that a module of
    `sources` (module -> source) defines at its top level, as a function, a
    class or an assignment target, and no module reads as a name, an
    attribute or an imported name."""
    trees, read = {module: ast.parse(source) for module, source in sources.items()}, set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                names = [n.id for target in filter(None, targets) for n in ast.walk(target) if isinstance(n, ast.Name)]
            unread += [f"{module}:{name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


def test_the_check_finds_an_unread_private_name():
    sources = {"a.py": "_f = 1\n_g: int = 2\n_h, (_i, j) = 3, (4, 5)\n__all__ = []\n"
                       "def _k(): pass\nclass _L: pass\nasync def _m(): pass\n_f = _f + 1\n",
               "b.py": "from .a import _g as g\nimport a\na._k(_h)\n_i = 0\n"}
    # _f is read by the module that defines it, _g imported, _h read and _k
    # an attribute; a binding, as of _i in b.py, is no read
    assert _unread_private_names(sources) == ["a.py:_i", "a.py:_L", "a.py:_m", "b.py:_i"]


def test_every_private_name_is_read():
    # what nothing calls is deleted, not kept
    assert _unread_private_names({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []
