"""Every module of the package parses as the oldest Python that
pyproject.toml's requires-python accepts, and uses every name it imports;
one function alone walks a file's blocks."""

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



def unused_imports(tree) -> set[str]:
    """The names a module's import statements bind (`from __future__`
    aside) that it neither reads nor lists in a module-level __all__."""
    bound, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["__all__"]:
            exported.update(elt.value for elt in node.value.elts)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used - exported


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "mscr").glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    # no linter is installed, so a name left imported after its last use is
    # found here
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == set()


def test_an_unused_import_is_found():
    assert unused_imports(ast.parse(
        "import os\nimport numpy as np\nfrom .code import encode, erase_decode\n"
        "__all__ = ['erase_decode']\nnp.zeros(encode)\n")) == {"os"}


def block_walkers(tree) -> set[str]:
    """The dotted names of the functions (or "<module>") of a module that
    call `blocks`, as `blocks(...)` or `storage.blocks(...)`."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call) and \
                    getattr(child.func, "id", getattr(child.func, "attr", None)) == "blocks":
                found.add(scope or "<module>")
            visit(child, inner)

    visit(tree, "")
    return found


def test_one_function_walks_the_blocks():
    # every stage walks a file through storage.walk, which alone decides
    # what a block that does not read means; a second loop over blocks
    # would decide it again
    walkers = {f"{path.stem}.{name}" for path in sorted((ROOT / "src" / "mscr").glob("*.py"))
               for name in block_walkers(ast.parse(path.read_text()))}
    assert walkers == {"storage.walk"}


def test_a_second_block_loop_is_found():
    assert block_walkers(ast.parse(
        "def walk():\n    blocks(p, 1)\n"
        "class C:\n    def run(self):\n        def inner():\n            storage.blocks(p, 2)\n"
        "[s for s in blocks(p, 3)]\n")) == {"walk", "C.run.inner", "<module>"}
