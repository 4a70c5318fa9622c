"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hpclease"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _is_type_checking_block(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
    )


def _imports(tree: ast.Module) -> list[tuple[str, int]]:
    """Names bound by imports, skipping __future__ and TYPE_CHECKING blocks."""
    found = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if _is_type_checking_block(node):
            continue
        if isinstance(node, ast.Import):
            found += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [(a.asname or a.name, node.lineno) for a in node.names]
        else:
            pending.extend(ast.iter_child_nodes(node))
    return found


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in _imports(tree) if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nfrom typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import sys\n"
    assert unused_imports(source) == ["os (line 1)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []
