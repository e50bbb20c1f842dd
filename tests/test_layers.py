"""The package's import layers, read from the source by ast.

Every module is engine, reference or accounting, and cli sits on top:
- the engine (field, code, repair, storage) imports only the engine;
- oracle, the four independent references, imports only what it checks
  against: the code's parameters, the any-k decoder and the range check;
- metrics, the closed forms and the transcript accounting, imports only the
  code's parameters.
So no oracle shares code with the repair engine it validates.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mscr"
ENGINE = {"field", "code", "repair", "storage"}
TOP = {"cli", "__init__", "__main__"}


def imports(module: str) -> set[tuple[str, str | None]]:
    """(module, name) for every `from .module import name` of the package in
    `module`, anywhere in it; (module, None) for `from . import module`."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update((alias.name, None) for alias in node.names)
            else:
                found.update((node.module, alias.name) for alias in node.names)
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == ENGINE | {"oracle", "metrics"} | TOP


def test_the_package_is_imported_relatively():
    # an absolute `import mscr...` would pass by the rules below unread
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(name.split(".")[0] == "mscr" for name in names), path.name
            if isinstance(node, ast.ImportFrom):
                assert node.level in (0, 1), path.name


@pytest.mark.parametrize("module", sorted(ENGINE))
def test_the_engine_imports_only_the_engine(module):
    assert {source for source, _ in imports(module)} <= ENGINE


def test_oracle_imports_only_what_it_checks_against():
    assert imports("oracle") == {("code", "CodeParams"), ("code", "erase_decode"),
                                 ("field", "check_below")}


def test_metrics_imports_only_the_parameters():
    assert imports("metrics") == {("code", "CodeParams")}
