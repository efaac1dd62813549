import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    # pyproject.toml promises Python >= 3.10; no newer grammar may slip in
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


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
