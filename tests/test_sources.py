import ast
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    # pyproject.toml promises Python >= 3.10; no newer grammar may slip in
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_compiles_without_warnings(path):
    # an invalid escape such as "\d" outside a raw string is a
    # DeprecationWarning on 3.10/3.11 and a SyntaxWarning on 3.12+
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_workflow_is_valid_yaml():
    # one unquoted ": " in a step name makes the whole workflow invalid,
    # and then no step of it runs
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text(encoding="utf-8"))
    assert workflow["jobs"]


def unused_imports(source):
    """(line, name) for each name an import binds that the module never
    reads, in source order.  ``from __future__`` imports and imports on a
    line marked ``# noqa: F401`` are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(a, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(a, a.asname or a.name) for a in node.names if a.name != "*"]
        else:
            continue
        for alias, name in bound:
            line = getattr(alias, "lineno", node.lineno)
            if name not in read and "# noqa: F401" not in lines[line - 1]:
                unused.append((line, name))
    return sorted(unused)


def test_unused_import_check():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,  # noqa: F401\n"
        ")\n"
        "from math import pi, tau\n"
        "print(os.path.sep, tau)\n"
    )
    assert unused_imports(source) == [(3, "regex"), (5, "dumps"), (8, "pi")]


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.name != "__init__.py"],  # __init__ imports re-export
    ids=lambda p: p.relative_to(ROOT).as_posix(),
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources):
    """(module, name) for each private name, one leading underscore and
    not a dunder, that a module binds at its top level and none of the
    modules reads, as a name or as an attribute; ``sources`` maps each
    module to its source text."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [
                (module, name)
                for name in bound
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return sorted(unread)


def test_unread_private_name_check():
    sources = {
        "a": (
            "__all__ = ['public']\n"
            "_FLIP = bytes(256)\n"
            "_TABLE: dict = {}\n"
            "_used, _pair = 1, 2\n"
            "class _Shape:\n"
            "    _size = 0\n"
            "def _helper():\n"
            "    _local = 1\n"
            "    return _local\n"
            "def public(x):\n"
            "    x._TABLE = _used\n"
            "    return _Shape\n"
        ),
        "b": "from a import _helper\nimport a\nprint(_helper(), a._pair)\n",
    }
    assert unread_private_names(sources) == [("a", "_FLIP"), ("a", "_TABLE")]


def test_no_unread_private_names():
    modules = sorted((ROOT / "src/pjsat").glob("*.py"))
    sources = {p.name: p.read_text(encoding="utf-8") for p in modules}
    assert unread_private_names(sources) == []
