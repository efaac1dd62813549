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
