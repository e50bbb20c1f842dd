from itertools import combinations

import numpy as np
import pytest

from mscr.code import Codeword, encode, random_message, validate_params
from mscr.indexing import sub_index, v_indices
from mscr.repair import COOPERATIVE, DOWNLOAD, RepairJob, run_repair

from conftest import make_codeword


@pytest.fixture(scope="module")
def ex1():
    params = validate_params(4, 1, 2, 2, p=5)
    cw = encode(random_message(params, seed=23), params)
    job = RepairJob(params, (0, 1), (2, 3))
    return params, cw, job


class TestRepairJob:
    def test_valid_job_sorted(self, ex1):
        params, _, _ = ex1
        job = RepairJob(params, (1, 0), (3, 2))
        assert job.failed == (0, 1) and job.helpers == (2, 3)
        assert job.slot_of(0) == 1 and job.slot_of(1) == 2
        assert job.repair_plane(0) == 2 and job.repair_plane(1) == 3

    def test_wrong_failure_count(self, ex1):
        params, _, _ = ex1
        with pytest.raises(ValueError, match="exactly h"):
            RepairJob(params, (0,), (2, 3))

    def test_wrong_helper_count(self, ex1):
        params, _, _ = ex1
        with pytest.raises(ValueError, match="exactly d"):
            RepairJob(params, (0, 1), (2,))
        with pytest.raises(ValueError, match="duplicate"):
            RepairJob(params, (0, 1), (2, 2, 3))

    def test_overlap_rejected(self, ex1):
        params, _, _ = ex1
        with pytest.raises(ValueError, match="overlap"):
            RepairJob(params, (0, 1), (1, 2))

    def test_out_of_range(self, ex1):
        params, _, _ = ex1
        with pytest.raises(ValueError, match="out of range"):
            RepairJob(params, (0, 4), (2, 3))


class TestRunRepair:
    def test_exhaustive_small(self, ex1):
        params, cw, _ = ex1
        for failed in combinations(range(params.n), params.h):
            helpers = tuple(i for i in range(params.n) if i not in failed)
            job = RepairJob(params, failed, helpers)
            repaired, transcript = run_repair(job, {u: cw.column(u) for u in helpers})
            for col in repaired:
                assert np.array_equal(col.symbols, cw.column(col.index).symbols)
            counts = transcript.per_edge_counts()
            assert set(counts.values()) == {16}
            assert len(counts) == params.d * params.h + params.h * (params.h - 1)

    def test_bystander_nodes(self):
        # helpers are a strict subset of the survivors
        params = validate_params(6, 2, 3, 2)
        cw = make_codeword(params, seed=41)
        job = RepairJob(params, (1, 4), (0, 2, 5))
        repaired, _ = run_repair(job, {u: cw.column(u) for u in (0, 2, 5)})
        assert np.array_equal(repaired[0].symbols, cw.column(1).symbols)
        assert np.array_equal(repaired[1].symbols, cw.column(4).symbols)

    def test_three_failures(self):
        params = validate_params(6, 2, 3, 3)
        cw = make_codeword(params, seed=43)
        job = RepairJob(params, (0, 3, 5), (1, 2, 4))
        repaired, transcript = run_repair(job, {u: cw.column(u) for u in (1, 2, 4)})
        for col in repaired:
            assert np.array_equal(col.symbols, cw.column(col.index).symbols)
        counts = transcript.per_edge_counts()
        assert set(counts.values()) == {params.N // params.planes}
        coop_edges = [e for e in counts if e[0] == COOPERATIVE]
        assert len(coop_edges) == 6

    def test_single_failure_has_no_cooperative_phase(self):
        params = validate_params(5, 2, 4, 1)
        cw = make_codeword(params, seed=47)
        job = RepairJob(params, (3,), (0, 1, 2, 4))
        repaired, transcript = run_repair(job, {u: cw.column(u) for u in (0, 1, 2, 4)})
        assert np.array_equal(repaired[0].symbols, cw.column(3).symbols)
        assert all(m.phase == DOWNLOAD for m in transcript.messages)

    def test_extra_survivors_ignored(self, ex1):
        params, cw, job = ex1
        only_helpers, t1 = run_repair(job, {u: cw.column(u) for u in (2, 3)})
        with_extra, t2 = run_repair(job, {u: cw.column(u) for u in (2, 3)})
        for a, b in zip(only_helpers, with_extra):
            assert np.array_equal(a.symbols, b.symbols)
        assert t1.export_text() == t2.export_text()

    def test_missing_helper_column_rejected(self, ex1):
        params, cw, job = ex1
        with pytest.raises(ValueError, match="missing"):
            run_repair(job, {2: cw.column(2)})

    def test_zero_codeword_repairs_to_zero(self, ex1):
        params, _, job = ex1
        zero = Codeword.zero(params)
        repaired, _ = run_repair(job, {u: zero.column(u) for u in job.helpers})
        for col in repaired:
            assert not col.symbols.any()


class TestTranscript:
    def test_message_order_and_counts(self, ex1):
        params, cw, job = ex1
        _, transcript = run_repair(job, {u: cw.column(u) for u in (2, 3)})
        heads = [(m.phase, m.sender, m.receiver) for m in transcript.messages]
        assert heads == [
            (DOWNLOAD, 2, 0), (DOWNLOAD, 3, 0),
            (DOWNLOAD, 2, 1), (DOWNLOAD, 3, 1),
            (COOPERATIVE, 1, 0), (COOPERATIVE, 0, 1),
        ]
        assert transcript.total_symbols() == 96

    def test_export_format(self, ex1):
        params, cw, job = ex1
        _, transcript = run_repair(job, {u: cw.column(u) for u in (2, 3)})
        lines = transcript.export_text().strip().splitlines()
        assert len(lines) == 6
        for line in lines:
            phase, frm, to, count, blob = line.split()
            assert phase in (DOWNLOAD, COOPERATIVE)
            assert len(blob) == 4 * int(count)
            values = [int(blob[i : i + 4], 16) for i in range(0, len(blob), 4)]
            assert all(v < params.p for v in values)

    def test_access_logs_attached(self, ex1):
        params, cw, job = ex1
        _, transcript = run_repair(job, {u: cw.column(u) for u in (2, 3)})
        assert sorted(transcript.access_logs) == [2, 3]
        assert transcript.access_logs[2].count() == 44


class TestClosedForm:
    # Every message recomputed from the codeword by the paper's formulas.  For
    # failed node i with repair plane P_i and a in V_i, helper u sends
    # c[u,P_i,a] then c[u,b,a] + c[u,P_i,a(i,b)] for b = 1..d-k; failed node i
    # sends failed node t the same expressions of t's column.

    @pytest.mark.parametrize(
        "n,k,d,h,p", [(4, 1, 2, 2, 5), (6, 2, 3, 3, None), (6, 2, 4, 2, None)]
    )
    def test_every_message_matches_closed_form(self, n, k, d, h, p):
        params = validate_params(n, k, d, h, p=p)
        cw = make_codeword(params, seed=83)
        s = params.s

        def slices(node, i, plane):
            col = cw.column(node).symbols
            v = v_indices(i, n, s)
            out = [int(col[plane - 1, a]) for a in v]
            for b in range(1, d - k + 1):
                out += [int(col[b - 1, a] + col[plane - 1, sub_index(a, i, b, s)]) % params.p
                        for a in v]
            return out

        for failed in combinations(range(n), h):
            helpers = tuple(i for i in range(n) if i not in failed)[:d]
            job = RepairJob(params, failed, helpers)
            _, transcript = run_repair(job, {u: cw.column(u) for u in helpers})
            assert len(transcript.messages) == h * d + h * (h - 1)
            for m in transcript.messages:
                if m.phase == DOWNLOAD:
                    expect = slices(m.sender, m.receiver, job.repair_plane(m.receiver))
                else:
                    expect = slices(m.receiver, m.sender, job.repair_plane(m.sender))
                assert m.values.tolist() == expect, (failed, m.phase, m.sender, m.receiver)


class TestWiderAlphabet:
    # s = 3: two substitution digits per coordinate, two download slices,
    # three planes beyond the base d-k

    def test_repair_bit_exact_s3(self):
        params = validate_params(6, 2, 4, 2)
        assert params.s == 3 and params.planes == 4
        cw = make_codeword(params, seed=71)
        job = RepairJob(params, (2, 5), (0, 1, 3, 4))
        repaired, transcript = run_repair(job, {u: cw.column(u) for u in (0, 1, 3, 4)})
        for col in repaired:
            assert np.array_equal(col.symbols, cw.column(col.index).symbols)
        counts = transcript.per_edge_counts()
        assert set(counts.values()) == {params.N // params.planes}

    def test_access_identity_s3(self):
        from fractions import Fraction

        from mscr.metrics import access_set, g_ratio

        params = validate_params(6, 2, 4, 2)
        cw = make_codeword(params, seed=73)
        job = RepairJob(params, (0, 1), (2, 3, 4, 5))
        _, transcript = run_repair(job, {u: cw.column(u) for u in (2, 3, 4, 5)})
        for u in job.helpers:
            assert Fraction(transcript.access_logs[u].count()) == params.N * g_ratio(2, 2)
            assert transcript.access_logs[u].vector_set(params) == access_set(u, job)
