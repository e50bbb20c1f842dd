"""Quick self-check of the benchmark harness at a tiny input size.

Run with:  python3 -m pytest -q perfbench

Not part of the repository's test suite (pyproject's testpaths is `tests`).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--workload", "narrow-h2", "--seed", "3", "--seconds", "1", "--input-bytes", "4096"]


def bench(*extra, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *TINY, *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, section):
    rc, lines, err = bench("--trace", trace)
    assert rc == 0, err + "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace == "1":
        assert result["metrics"]["repair.gamma_over_bound"]["value"] == 1
        assert result["metrics"]["repair.access_over_bound"]["value"] == 1


def test_wrong_decode_output_is_counted_and_fails_the_run():
    rc, lines, _ = bench("--trace", "0", "--corrupt-reference")
    assert rc != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] >= 2  # both decodes differ from the altered reference
    assert any("decode_sys: output differs" in line for line in lines)
    assert any("decode_parity: output differs" in line for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines, err = bench("--trace", "0", cwd=tmp_path)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)
    assert "no mscr sources" in err
