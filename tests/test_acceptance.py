"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines live.
"""

import functools
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from mscr import metrics
from mscr.cli import main as cli_main
from mscr.code import validate_params
from mscr.metrics import RepairMetrics, g_ratio
from mscr.oracle import access_set, naive_repair, recount
from mscr.repair import RepairJob, run_repair

from conftest import decode_stripe, make_codeword, per_edge_counts, vector_set

PARAM_SETS = [(4, 1, 2, 2), (5, 2, 3, 2), (6, 3, 4, 2), (6, 2, 3, 3)]


def criterion(number, description, limit_seconds):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            elapsed = time.monotonic() - start
            print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")
            assert elapsed < limit_seconds, (
                f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s"
            )
        return run
    return wrap


G_DISPLAYED = {
    (1, 2): 0.9167,
    (2, 2): 0.7778,
    (3, 2): 0.6625,
    (4, 2): 0.5733,
    (5, 2): 0.504,
    (1, 3): 0.96875,
    (2, 3): 0.8815,
    (3, 3): 0.7891,
    (4, 3): 0.7074,
    (5, 3): 0.6383,
}

G_EXACT = {
    (1, 2): Fraction(11, 12),
    (2, 2): Fraction(7, 9),
    (3, 2): Fraction(53, 80),
    (4, 2): Fraction(43, 75),
    (5, 2): Fraction(127, 252),
    (1, 3): Fraction(31, 32),
    (2, 3): Fraction(119, 135),
    (3, 3): Fraction(101, 128),
    (4, 3): Fraction(619, 875),
    (5, 3): Fraction(1103, 1728),
}


@criterion(1, "access-comparison table reproduces all ten rows", 1.0)
def test_criterion_1_table(capsys):
    table = metrics.comparison_table(metrics.DEFAULT_TABLE_ROWS)
    assert len(table) == 10
    for row in table:
        key = (row.d_minus_k, row.h)
        assert row.g == G_EXACT[key], key
        assert round(float(row.g), 4) == round(G_DISPLAYED[key], 4), key
    assert cli_main(["table"]) == 0
    out = capsys.readouterr().out
    for key in G_DISPLAYED:
        assert f"{round(G_DISPLAYED[key], 4):.4f}" in out


@criterion(2, "golden example: downloads 16, exchange 16, gamma 96, access 44/48", 1.0)
def test_criterion_2_golden_example():
    params = validate_params(4, 1, 2, 2, p=5)
    cw = make_codeword(params, seed=2024)
    job = RepairJob(params, (0, 1), (2, 3))
    repaired, transcript = run_repair(job, {u: cw[u] for u in (2, 3)})
    for i, col in repaired.items():
        assert np.array_equal(col, cw[i])
    edges = per_edge_counts(transcript)
    for u in (2, 3):
        for i in (0, 1):
            assert edges[("download", u, i)] == 16
    assert edges[("cooperative", 0, 1)] == 16
    assert edges[("cooperative", 1, 0)] == 16
    measured = RepairMetrics.from_run(job, transcript)
    assert measured.gamma == 96
    for u in (2, 3):
        assert measured.per_helper_access[u] == 44
        assert Fraction(measured.per_helper_access[u], params.N) == Fraction(11, 12)


@criterion(3, "MDS: every k-subset reconstructs, every <=r erasure decodes", 120.0)
def test_criterion_3_mds_exhaustive():
    for nkdh in PARAM_SETS:
        params = validate_params(*nkdh)
        for trial in range(20):
            cw = make_codeword(params, seed=3000 + trial)
            for subset in combinations(range(params.n), params.k):
                assert np.array_equal(decode_stripe(params, {i: cw[i] for i in subset}), cw)
            for size in range(1, params.r + 1):
                for erased in combinations(range(params.n), size):
                    available = {i: cw[i] for i in range(params.n) if i not in erased}
                    assert np.array_equal(decode_stripe(params, available), cw)


@pytest.fixture(scope="module")
def all_repair_runs():
    """Every (E, R) pair for every parameter set, two codewords each."""
    runs = []
    for nkdh in PARAM_SETS:
        params = validate_params(*nkdh)
        codewords = [make_codeword(params, seed=4000 + t) for t in range(2)]
        for failed in combinations(range(params.n), params.h):
            rest = [i for i in range(params.n) if i not in failed]
            for helpers in combinations(rest, params.d):
                job = RepairJob(params, failed, helpers)
                for cw in codewords:
                    repaired, transcript = run_repair(job, {u: cw[u] for u in helpers})
                    runs.append((params, job, cw, repaired, transcript))
    return runs


@criterion(4, "repair: bit-exact columns and cut-set-equal transcripts on every (E,R)", 300.0)
def test_criterion_4_repair_exhaustive(all_repair_runs):
    assert len(all_repair_runs) == 2 * (6 + 10 + 15 + 20)
    for params, job, cw, repaired, transcript in all_repair_runs:
        for i, col in repaired.items():
            assert np.array_equal(col, cw[i])
        planes = params.d - params.k + params.h
        beta = params.N // planes
        edges = per_edge_counts(transcript)
        assert len(edges) == params.d * params.h + params.h * (params.h - 1)
        assert set(edges.values()) == {beta}
        gamma = sum(edges.values())
        assert gamma * planes == params.h * (params.d + params.h - 1) * params.N


@criterion(5, "access identity: |access_set| = N*G exactly, below twice optimal", 300.0)
def test_criterion_5_access_identity(all_repair_runs):
    for params, job, cw, repaired, transcript in all_repair_runs:
        g = g_ratio(params.d - params.k, params.h)
        n_times_g = params.N * g
        optimal_per_helper = Fraction(params.h * params.N, params.d - params.k + params.h)
        assert n_times_g < 2 * optimal_per_helper
        for u in job.helpers:
            assert Fraction(transcript.access_logs[u].count()) == n_times_g
            assert vector_set(transcript.access_logs[u], params) == access_set(u, job)


@criterion(6, "oracle equivalence on 200 randomized instances", 120.0)
def test_criterion_6_oracle_equivalence():
    rng = random.Random(606)
    instances = 0
    while instances < 200:
        for nkdh in PARAM_SETS:
            params = validate_params(*nkdh)
            cw = make_codeword(params, seed=6000 + instances)
            failed = tuple(sorted(rng.sample(range(params.n), params.h)))
            rest = [i for i in range(params.n) if i not in failed]
            helpers = tuple(sorted(rng.sample(rest, params.d)))
            job = RepairJob(params, failed, helpers)
            repaired, transcript = run_repair(job, {u: cw[u] for u in helpers})
            naive = naive_repair(failed, {i: cw[i] for i in rest}, params).columns
            assert list(naive) == list(repaired)
            assert all(np.array_equal(repaired[i], naive[i]) for i in naive), (nkdh, failed)
            planes = params.d - params.k + params.h
            counted = recount(transcript.export_text())
            assert counted.gamma * planes == params.h * (params.d + params.h - 1) * params.N
            assert set(counted.per_edge.values()) == {params.N // planes}
            instances += 1


@criterion(7, "1 MiB file: encode, fail, repair, verify, decode byte-exact (two parameter sets)", 60.0)
def test_criterion_7_file_roundtrip(tmp_path):
    cases = [
        dict(n=6, k=3, d=4, h=2, p=257, fail="1,4", helpers="0,2,3,5", decode_nodes=None),
        dict(n=6, k=2, d=3, h=3, p=257, fail="0,2,5", helpers="1,3,4", decode_nodes="3,4"),
    ]
    for idx, case in enumerate(cases):
        store = tmp_path / f"store{idx}"
        assert cli_main([
            "encode", "--n", str(case["n"]), "--k", str(case["k"]),
            "--d", str(case["d"]), "--h", str(case["h"]), "--p", str(case["p"]),
            "--random-bytes", str(1 << 20), "--seed", str(idx), "--out", str(store),
        ]) == 0
        source = (store / "source.bin").read_bytes()
        assert len(source) == 1 << 20
        assert cli_main(["fail", "--dir", str(store), "--nodes", case["fail"]]) == 0
        assert cli_main(["repair", "--dir", str(store), "--helpers", case["helpers"]]) == 0
        assert cli_main(["verify", "--dir", str(store)]) == 0
        out = tmp_path / f"decoded{idx}.bin"
        argv = ["decode", "--dir", str(store), "--out", str(out)]
        if case["decode_nodes"]:
            argv += ["--nodes", case["decode_nodes"]]
        assert cli_main(argv) == 0
        assert out.read_bytes() == source
