"""The tree parses as Python 3.10, the oldest version ``pyproject.toml`` allows.

This checks syntax only: ``ast.parse(..., feature_version=(3, 10))`` refuses
newer grammar such as ``except*`` and PEP 695 generics, but it does not see a
library API that 3.10 lacks (``tomllib``, ``datetime.UTC`` and the like).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_tree_parses_as_python_310():
    paths = sorted(p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py"))
    assert {p.relative_to(ROOT).parts[0] for p in paths} == {"src", "tests", "bench"}
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "def first[T](xs: list[T]) -> T:\n    return xs[0]\n",
], ids=["except_star", "pep695_generic"])
def test_newer_grammar_is_refused(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
