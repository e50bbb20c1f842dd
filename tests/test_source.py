"""Every module of the package parses as the oldest Python that
pyproject.toml's requires-python accepts, and uses every name it imports;
one function alone walks a file's blocks, and one calls the peel; only a
chunk body's codec packs bits; nothing seeks; and every top-level function
and class is read somewhere in the package or the benchmark."""

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


def callers(tree, *names) -> set[str]:
    """The dotted names of the functions (or "<module>") of a module that
    call one of `names`, as `name(...)` or `module.name(...)`."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call) and \
                    getattr(child.func, "id", getattr(child.func, "attr", None)) in names:
                found.add(scope or "<module>")
            visit(child, inner)

    visit(tree, "")
    return found


def package_callers(*names) -> set[str]:
    """callers of `names` in every module of the package, as "module.function"."""
    return {f"{path.stem}.{name}" for path in sorted((ROOT / "src" / "mscr").glob("*.py"))
            for name in callers(ast.parse(path.read_text()), *names)}


def test_one_function_walks_the_blocks():
    # every stage walks a file through storage.walk, which alone decides
    # what a block that does not read means; a second loop over blocks
    # would decide it again
    assert package_callers("blocks") == {"storage.walk"}


def test_one_way_into_the_peel():
    # the code is its parity checks alone: encode is erase_decode of the
    # parity columns, so one function calls the peel
    assert package_callers("solve_erased") == {"code.erase_decode"}


def test_a_second_block_loop_is_found():
    assert callers(ast.parse(
        "def walk():\n    blocks(p, 1)\n"
        "class C:\n    def run(self):\n        def inner():\n            storage.blocks(p, 2)\n"
        "[s for s in blocks(p, 3)]\n"), "blocks") == {"walk", "C.run.inner", "<module>"}


def test_one_bit_plane_codec():
    # bytes become symbols by one radix codec, group values and their digit
    # peel; only a chunk body's bit planes are packed bit by bit
    assert package_callers("packbits", "unpackbits") == {"storage.pack_body",
                                                         "storage.unpack_body"}


def test_no_seek():
    # a chunk is written in order, each block appended, and hashed from the
    # bytes written; reads are preads at an offset
    assert package_callers("seek") == set()


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# the independent references that tests compare the engine against
UNREAD_BY_DESIGN = {"oracle.parity_residual", "oracle.check_matrix", "oracle.naive_repair",
                    "oracle.access_set", "metrics.access_count"}


def unread_definitions(trees: dict) -> set[str]:
    """The top-level functions and classes, as "module.name", of the trees
    ({(package, module): tree}) in package "mscr" that no tree reads, as a
    loaded name or attribute, outside their own definition.  An import is
    not a read, so __init__'s re-export does not count."""
    reads = set()  # ((package, module, enclosing top-level definition), name)
    for (package, module), tree in trees.items():
        for top in tree.body:
            owner = top.name if isinstance(top, DEFINITIONS) else None
            for node in ast.walk(top):
                if isinstance(getattr(node, "ctx", None), ast.Load):
                    name = getattr(node, "id", getattr(node, "attr", None))
                    reads.add(((package, module, owner), name))
    unread = set()
    for (package, module), tree in trees.items():
        for top in tree.body if package == "mscr" else ():
            if isinstance(top, DEFINITIONS) and not any(
                    name == top.name and where != (package, module, top.name)
                    for where, name in reads):
                unread.add(f"{module}.{top.name}")
    return unread


def test_every_definition_is_read():
    # code that nothing uses except its own tests is a deletion candidate
    trees = {(path.parent.name, path.stem): ast.parse(path.read_text())
             for folder in (ROOT / "src" / "mscr", ROOT / "perfbench")
             for path in sorted(folder.glob("*.py"))}
    assert unread_definitions(trees) == UNREAD_BY_DESIGN


def test_an_unread_definition_is_found():
    trees = {("mscr", "code"): ast.parse(
                 "def used(): pass\ndef recursive(): recursive()\nclass Kept: pass\n"
                 "def only_stored(): pass\n"),
             ("mscr", "__init__"): ast.parse("from .code import recursive, only_stored\n"),
             ("perfbench", "run"): ast.parse("code.used()\nx = Kept\nonly_stored = 1\n")}
    assert unread_definitions(trees) == {"code.recursive", "code.only_stored"}
