"""Python 3.10, the floor pyproject.toml declares, parses every source file.

The interpreter running the tests may be newer; ``ast.parse`` with
``feature_version=(3, 10)`` rejects the grammar that 3.10 lacks, such as
``except*``. Files under ``bench/`` are only read.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

FLOOR = (3, 10)
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for tree in ("src", "tests", "bench")
                 for path in (ROOT / tree).rglob("*.py"))


def test_the_floor_check_rejects_newer_grammar():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
