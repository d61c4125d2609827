"""Every module of swarmpp reads each name it imports."""

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
