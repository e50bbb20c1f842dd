"""Every module of the package parses as the oldest Python that
pyproject.toml's requires-python accepts."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = tuple(int(x) for x in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups())


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "mscr").glob("*.py")),
                         ids=lambda path: path.name)
def test_module_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)


def test_newer_syntax_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
