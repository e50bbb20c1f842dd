import numpy as np
import pytest

from mscr.code import validate_params
from mscr.oracle import naive_repair, recount
from mscr.repair import RepairJob, run_repair

from conftest import PARAM_SETS, make_codeword, per_edge_counts, repair_stripe


class TestNaiveRepair:
    def test_matches_truth_small(self, example1, example1_codeword):
        cw = example1_codeword[:, None]  # a batch of one
        result = naive_repair((0, 1), {i: cw[i] for i in (2, 3)}, example1)
        assert list(result) == [0, 1]
        for i, col in result.items():
            assert np.array_equal(col, cw[i])

    def test_bandwidth_comparison_midsize(self):
        # naive repair moves h*kN symbols, k whole columns per failed node;
        # the cooperative engine moves h(d+h-1)N/(d-k+h), which is strictly
        # less once k > 1
        params = validate_params(6, 3, 4, 2)
        cw = make_codeword(params, seed=59)[:, None]  # a batch of one
        naive = naive_repair((0, 1), {i: cw[i] for i in range(2, 6)}, params)
        assert all(np.array_equal(naive[i], cw[i]) for i in (0, 1))
        job = RepairJob(params, (0, 1), (2, 3, 4, 5))
        _, transcript = run_repair(job, {u: cw[u] for u in (2, 3, 4, 5)})
        gamma = sum(per_edge_counts(transcript).values())
        assert gamma == 2 * 5 * params.N // 3
        assert gamma < params.h * params.k * params.N

    def test_zero_codeword(self, example1):
        zero = np.zeros((1, example1.planes, example1.s_pow_n), dtype=np.int64)
        result = naive_repair((0, 1), {2: zero, 3: zero}, example1)
        for col in result.values():
            assert not col.any()

    def test_too_few_survivors(self, example1):
        with pytest.raises(ValueError, match="at least k"):
            naive_repair((0, 1), {}, example1)

    def test_failed_among_survivors_rejected(self, example1, example1_codeword):
        with pytest.raises(ValueError, match="survivors"):
            naive_repair((0, 1), {1: example1_codeword[1][None]}, example1)


class TestCrossCheck:
    # the cooperative engine against naive repair, symbol by symbol
    def test_identical_match(self, example1, example1_codeword):
        cw = example1_codeword[:, None]  # a batch of one
        naive = naive_repair((0, 1), {i: cw[i] for i in (2, 3)}, example1)
        job = RepairJob(example1, (0, 1), (2, 3))
        coop, _ = run_repair(job, {u: cw[u] for u in (2, 3)})
        assert list(coop) == list(naive) == [0, 1]
        assert all(np.array_equal(coop[i], naive[i]) for i in coop)

    @pytest.mark.parametrize("nkdh", PARAM_SETS)
    def test_pipelines_agree_randomized(self, nkdh):
        import random

        rng = random.Random(61)
        params = validate_params(*nkdh)
        for trial in range(10):
            cw = make_codeword(params, seed=100 + trial)[:, None]  # a batch of one
            failed = tuple(sorted(rng.sample(range(params.n), params.h)))
            rest = [i for i in range(params.n) if i not in failed]
            helpers = tuple(sorted(rng.sample(rest, params.d)))
            job = RepairJob(params, failed, helpers)
            coop, _ = run_repair(job, {u: cw[u] for u in helpers})
            naive = naive_repair(failed, {i: cw[i] for i in rest}, params)
            assert list(naive) == list(coop)
            assert all(np.array_equal(coop[i], naive[i]) for i in naive), (trial, failed)


class TestRecount:
    def test_small_transcript(self, example1, example1_codeword):
        job = RepairJob(example1, (0, 1), (2, 3))
        _, transcript = repair_stripe(job, {u: example1_codeword[u] for u in (2, 3)})
        result = recount(transcript.export_text())
        assert result.gamma == 96
        assert result.per_edge == per_edge_counts(transcript)

    def test_empty_transcript(self):
        assert recount("").gamma == 0
        assert recount("\n\n").per_edge == {}

    def test_zero_count_line(self):
        result = recount("download 2 0 0\n")
        assert result.gamma == 0
        assert result.per_edge == {("download", 2, 0): 0}

    @pytest.mark.parametrize(
        "line",
        [
            "upload 2 0 1 0001",  # unknown phase
            "download x 0 1 0001",  # non-integer node
            "download 2 0 2 0001",  # count does not match blob
            "download 2 0 1 00xz",  # invalid hex
            "download 2 0",  # too few fields
            "download 2 0 -1 ",  # negative count
        ],
    )
    def test_malformed_rejected(self, line):
        with pytest.raises(ValueError):
            recount(line + "\n")

    def test_recount_accumulates_split_edges(self):
        text = "download 2 0 1 0001\ndownload 2 0 1 0002\n"
        result = recount(text)
        assert result.per_edge == {("download", 2, 0): 2}
        assert result.gamma == 2
