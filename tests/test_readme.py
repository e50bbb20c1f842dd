import re
import shlex
from pathlib import Path

import numpy as np

from mscr import storage
from mscr.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_cli_walkthrough_runs(tmp_path, monkeypatch):
    # every `mscr ...` line of the walkthrough, in order, on a generated data.bin
    walkthrough = README.read_text().split("## CLI walkthrough", 1)[1]
    block = re.search(r"```\n(.*?)```", walkthrough, flags=re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("mscr ")]
    assert [argv[0] for argv in commands] == [
        "params-check", "encode", "fail", "repair", "verify", "decode", "table"]
    monkeypatch.chdir(tmp_path)
    data = np.random.default_rng(7).integers(0, 256, size=5000, dtype=np.uint8).tobytes()
    (tmp_path / "data.bin").write_bytes(data)
    for argv in commands:
        assert main(argv) == 0, argv
    assert (tmp_path / "roundtrip.bin").read_bytes() == data


def test_format_version_matches():
    # the README describes the chunk format that storage writes
    assert re.findall(r"This is chunk format (\d+)", README.read_text()) == [
        str(storage.FORMAT_VERSION)]



def modules_named():
    """The code spans outside parentheses in the README's sentence that
    starts "Modules:", up to its first full stop outside parentheses."""
    text = README.read_text().split("\nModules: ", 1)[1]
    names, depth = [], 0
    for i, part in enumerate(text.split("`")):
        if i % 2:  # a code span, whose brackets do not count
            if depth == 0:
                names.append(part)
            continue
        for ch in part:
            if ch == "." and depth == 0:
                return names
            depth += {"(": 1, ")": -1}.get(ch, 0)
    raise AssertionError("the Modules: sentence never ends")


def test_modules_paragraph_names_every_module():
    package = Path(storage.__file__).parent
    modules = [path.stem for path in package.glob("*.py")
               if path.stem not in ("__init__", "__main__")]
    names = modules_named()
    assert sorted(names) == sorted(modules) and len(set(names)) == len(names)
