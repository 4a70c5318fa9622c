"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "hpclease"
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


@pytest.mark.parametrize(
    "module",
    MODULES + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}",
)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes that no code of the other top-level
    statements (in any of ``sources``) names, by a bare name or an attribute;
    uses inside a definition's own body do not count."""
    defined, users = [], {}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (module, stmt.name)
                defined.append(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    users.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    users.setdefault(node.attr, set()).add(owner)
    return [
        f"{module}:{name}"
        for module, name in defined
        if not users.get(name, set()) - {(module, name)}
    ]


def test_checker_flags_an_unused_definition():
    sources = {
        "a.py": "def f(n):\n    return f(n - 1)\n\nclass C:\n    pass\n",
        "b.py": "import a\n\ndef g():\n    return a.C()\n\nh = g\n",
    }
    assert unused_definitions(sources) == ["a.py:f"]


def test_every_definition_is_used_by_the_package():
    # the package's own code must use each definition; __init__ re-exports
    # and tests do not count, so a test-only helper belongs under tests/
    sources = {module.name: module.read_text() for module in MODULES}
    assert unused_definitions(sources) == []


def unread_fields(sources: dict[str, str], cls: str) -> list[str]:
    """Annotated fields of class ``cls`` that no code in ``sources`` reads as
    an attribute, matched by name; passing a field by keyword, as the
    constructor call does, and storing to it are not reads."""
    fields, read = [], set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and node.name == cls:
                fields += [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [name for name in fields if name not in read]


def test_checker_flags_an_unread_field():
    sources = {
        "a.py": (
            "class M:\n    x: int\n    y: int\n    z: int\n\n"
            "    @property\n    def w(self):\n        return self.x\n"
        ),
        "b.py": "def f(m):\n    m.z = 1\n    return M(x=1, y=2, z=3)\n",
    }
    assert unread_fields(sources, "M") == ["y", "z"]


def test_every_run_metrics_field_is_read_by_the_package():
    # a field that only tests read belongs in a test helper, not in every run
    sources = {module.name: module.read_text() for module in MODULES}
    assert unread_fields(sources, "RunMetrics") == []
