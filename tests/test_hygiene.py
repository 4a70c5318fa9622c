"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import subprocess
import sys
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


def _members(cls: ast.ClassDef) -> list[ast.FunctionDef]:
    """The methods and properties of ``cls``, dunders aside."""
    return [
        m for m in cls.body
        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (m.name.startswith("__") and m.name.endswith("__"))
    ]


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes, and the methods and properties of
    those classes (dunders aside), that no code (in any of ``sources``)
    names by a bare name or an attribute, matched by name; uses inside a
    definition's own body do not count, and a class's body includes its
    members."""
    defined, users = [], {}

    def scan(node, owner):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                users.setdefault(sub.id, set()).add(owner)
            elif isinstance(sub, ast.Attribute):
                users.setdefault(sub.attr, set()).add(owner)

    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scan(stmt, (module, ""))
                continue
            defined.append((module, stmt.name))
            members = _members(stmt) if isinstance(stmt, ast.ClassDef) else []
            for member in members:
                defined.append((module, f"{stmt.name}.{member.name}"))
                scan(member, (module, f"{stmt.name}.{member.name}"))
            for node in ast.iter_child_nodes(stmt):
                if node not in members:
                    scan(node, (module, stmt.name))

    def outside(module, qualname, owner):
        return owner[0] != module or (
            owner[1] != qualname and not owner[1].startswith(qualname + ".")
        )

    return [
        f"{module}:{qualname}"
        for module, qualname in defined
        if not any(
            outside(module, qualname, owner)
            for owner in users.get(qualname.rpartition(".")[2], ())
        )
    ]


def test_checker_flags_an_unused_definition():
    sources = {
        "a.py": (
            "def f(n):\n    return f(n - 1)\n\n"
            "class C:\n    def __init__(self):\n        self.m()\n\n"
            "    def m(self):\n        return C\n\n"
            "    def r(self):\n        return self.r()\n\n"
            "    @property\n    def p(self):\n        return 1\n\n"
            "    def u(self):\n        return self.p\n"
        ),
        "b.py": "import a\n\ndef g():\n    return a.C().u()\n\nh = g\n",
    }
    assert unused_definitions(sources) == ["a.py:f", "a.py:C.r"]


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


@pytest.mark.parametrize("cls", ["RunMetrics", "OfflineInstance", "_ArrivalSums"])
def test_every_run_metrics_field_is_read_by_the_package(cls):
    # a field that only tests or errors read belongs in a test helper, not
    # in every run, every row block the oracle solves or every hand-off of
    # a batch's arrival sums
    sources = {module.name: module.read_text() for module in MODULES}
    assert unread_fields(sources, cls) == []


def unshared_exports(init_source: str, sources: dict[str, str]) -> list[str]:
    """Functions that ``__all__`` in ``init_source`` exports and that no
    module of ``sources`` but their own names, by a bare name or an
    attribute."""
    (exported,) = [
        ast.literal_eval(stmt.value)
        for stmt in ast.parse(init_source).body
        if isinstance(stmt, ast.Assign)
        and getattr(stmt.targets[0], "id", None) == "__all__"
    ]
    home, users = {}, {}
    for module, source in sources.items():
        tree = ast.parse(source)
        home.update(
            (stmt.name, module) for stmt in tree.body if isinstance(stmt, ast.FunctionDef)
        )
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            users.setdefault(name, set()).add(module)
    return [n for n in exported if n in home and not users.get(n, set()) - {home[n]}]


def test_checker_flags_an_export_only_its_own_module_names():
    sources = {
        "a.py": (
            "def f():\n    return g()\n\n"
            "def g():\n    return 1\n\n"
            "def h():\n    return f()\n"
        ),
        "b.py": "import a\n\nx = a.h()\n",
    }
    init = "from .a import f, g, h\n\n__all__ = ['C', 'f', 'g', 'h']\n"
    assert unshared_exports(init, sources) == ["f", "g"]


def test_every_exported_function_is_used_beyond_its_module():
    # a public function that only its own module and tests call is no API
    sources = {module.name: module.read_text() for module in MODULES}
    init = (PACKAGE / "__init__.py").read_text()
    assert unshared_exports(init, sources) == []


def test_a_failing_hypothesis_test_fails_without_aborting_the_session(tmp_path):
    # hypothesis imports libcst to report a failing example; under the
    # project's warning filters its DeprecationWarning once ended the whole
    # session with an INTERNALERROR (exit 3) before any later test ran
    (tmp_path / "test_example.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n    assert x < 0\n\n\n"
        "def test_after():\n    pass\n"
    )
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_example.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
