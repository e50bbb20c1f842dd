from itertools import combinations

import numpy as np
import pytest

from mscr.code import Codeword, encode, random_message, validate_params
from mscr.indexing import sub_index, v_indices
from mscr.repair import (
    COOPERATIVE,
    DOWNLOAD,
    FailedNodeState,
    HelperNode,
    RepairJob,
    helper_payload,
    recover_own_plane,
    recover_pairs,
    run_repair,
)

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


class TestHelperPayload:
    def test_symbol_count_small(self, ex1):
        params, cw, job = ex1
        payload = helper_payload(2, 1, job, cw.column(2))
        assert payload.size == 16 == params.N // params.planes

    def test_symbol_count_matches_formula(self):
        # (d-k+1) s^(n-1) = N/(d-k+h); for n=5,k=2,d=3,h=2 that is 2*16 = 32
        params = validate_params(5, 2, 3, 2)
        cw = make_codeword(params, seed=5)
        job = RepairJob(params, (0, 1), (2, 3, 4))
        payload = helper_payload(2, 1, job, cw.column(2))
        assert payload.size == 32 == (params.d - params.k + 1) * params.s ** (params.n - 1)
        assert payload.size == params.N // (params.d - params.k + params.h)

    def test_payload_values(self, ex1):
        params, cw, job = ex1
        got = helper_payload(3, 2, job, cw.column(3))  # slot 2 -> node 1, plane 3
        v1 = v_indices(1, params.n, params.s)
        col = cw.column(3).symbols
        d1 = [col[2, a] for a in v1]
        d2 = [(col[0, a] + col[2, sub_index(a, 1, 1, params.s)]) % params.p for a in v1]
        assert got.tolist() == d1 + d2

    def test_invalid_helper_or_slot(self, ex1):
        params, cw, job = ex1
        with pytest.raises(ValueError, match="not a helper"):
            helper_payload(0, 1, job, cw.column(0))
        with pytest.raises(ValueError, match="slot"):
            helper_payload(2, 3, job, cw.column(2))

    def test_zero_codeword_zero_payload(self, ex1):
        params, _, job = ex1
        zero = Codeword.zero(params)
        assert not helper_payload(2, 1, job, zero.column(2)).any()


class TestRecoveryRoutines:
    def test_recover_own_plane_truth(self):
        params = validate_params(5, 2, 3, 2)
        cw = make_codeword(params, seed=31)
        job = RepairJob(params, (0, 1), (2, 3, 4))
        vl = np.array(v_indices(0, params.n, params.s))
        for plane in range(1, params.planes + 1):
            d1 = {u: cw.column(u).symbols[plane - 1][vl] for u in job.helpers}
            own_full, on_v = recover_own_plane(job, 0, plane, d1)
            assert np.array_equal(own_full, cw.column(0).symbols[plane - 1])
            for w in range(params.n):
                assert np.array_equal(on_v[w], cw.column(w).symbols[plane - 1][vl])

    def test_recover_pairs_truth_all_combinations(self):
        params = validate_params(5, 2, 3, 2)
        cw = make_codeword(params, seed=37)
        job = RepairJob(params, (0, 1), (2, 3, 4))
        node = 1
        vl = np.array(v_indices(node, params.n, params.s))
        weight = params.s**node
        for b1 in range(1, params.planes + 1):
            for b2 in range(1, params.planes + 1):
                if b1 == b2:
                    continue
                for v in range(1, params.s):
                    sums = {
                        u: (
                            cw.column(u).symbols[b1 - 1][vl]
                            + cw.column(u).symbols[b2 - 1][vl + v * weight]
                        )
                        % params.p
                        for u in job.helpers
                    }
                    cross, own_b1 = recover_pairs(job, node, b1, b2, v, sums)
                    for w in range(params.n):
                        truth = (
                            cw.column(w).symbols[b1 - 1][vl]
                            + cw.column(w).symbols[b2 - 1][vl + v * weight]
                        ) % params.p
                        assert np.array_equal(cross[w], truth), (b1, b2, v, w)
                    for e in range(1, params.s):
                        truth = cw.column(node).symbols[b1 - 1][vl + e * weight]
                        assert np.array_equal(own_b1[e - 1], truth)

    def test_recover_pairs_zero_codeword(self, ex1):
        params, _, job = ex1
        vl = np.array(v_indices(0, params.n, params.s))
        zeros = {u: np.zeros(vl.size, dtype=np.int64) for u in job.helpers}
        cross, own = recover_pairs(job, 0, 1, 2, 1, zeros)
        assert not cross.any() and not own.any()

    def test_recover_pairs_validation(self, ex1):
        params, _, job = ex1
        vl = np.array(v_indices(0, params.n, params.s))
        zeros = {u: np.zeros(vl.size, dtype=np.int64) for u in job.helpers}
        with pytest.raises(ValueError, match="distinct planes"):
            recover_pairs(job, 0, 2, 2, 1, zeros)
        with pytest.raises(ValueError, match="0 < v < s"):
            recover_pairs(job, 0, 1, 2, 0, zeros)
        with pytest.raises(ValueError, match="missing"):
            recover_pairs(job, 0, 1, 2, 1, {2: zeros[2]})
        with pytest.raises(ValueError, match="not being repaired"):
            recover_pairs(job, 2, 1, 2, 1, zeros)


class TestStateMachine:
    def test_download_state_matches_recovered_data_sets(self, ex1):
        params, cw, job = ex1
        state = FailedNodeState(job, 0)
        for u in job.helpers:
            state.receive_download(u, helper_payload(u, 1, job, cw.column(u)))
        state.process_downloads()
        # planes 1..d-k and the repair plane, complete
        assert sorted(state.own_planes) == [1, 2]
        for b in (1, 2):
            assert np.array_equal(state.own_planes[b], cw.column(0).symbols[b - 1])
        # the peer's repair-plane slice on V, and the cross sums
        vl = np.array(v_indices(0, params.n, params.s))
        assert np.array_equal(state.peer_plane_on_v(1), cw.column(1).symbols[1][vl])
        sums = state.peer_cross_sums(1)
        truth = (cw.column(1).symbols[0][vl] + cw.column(1).symbols[1][vl + 1]) % params.p
        assert np.array_equal(sums[0], truth)

    def test_cooperative_before_download_rejected(self, ex1):
        _, _, job = ex1
        state = FailedNodeState(job, 0)
        with pytest.raises(ValueError, match="not processed"):
            state.cooperative_payload_for(1)

    def test_incomplete_download_rejected(self, ex1):
        params, cw, job = ex1
        state = FailedNodeState(job, 0)
        state.receive_download(2, helper_payload(2, 1, job, cw.column(2)))
        with pytest.raises(ValueError, match="incomplete"):
            state.process_downloads()

    def test_duplicate_download_rejected(self, ex1):
        params, cw, job = ex1
        state = FailedNodeState(job, 0)
        payload = helper_payload(2, 1, job, cw.column(2))
        state.receive_download(2, payload)
        with pytest.raises(ValueError, match="duplicate"):
            state.receive_download(2, payload)

    def test_finish_requires_all_planes(self, ex1):
        params, cw, job = ex1
        state = FailedNodeState(job, 0)
        for u in job.helpers:
            state.receive_download(u, helper_payload(u, 1, job, cw.column(u)))
        state.process_downloads()
        with pytest.raises(ValueError, match="missing planes \\[3\\]"):
            state.finish()


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


class TestHelperNode:
    def test_index_mismatch_rejected(self, ex1):
        params, cw, job = ex1
        with pytest.raises(ValueError, match="belongs to node"):
            HelperNode(2, cw.column(3), job)

    def test_access_log_grows_once_per_slot(self, ex1):
        params, cw, job = ex1
        node = HelperNode(2, cw.column(2), job)
        node.payload_for(1)
        assert node.access_log.count() == 24  # plane 2 in full + plane 1 on V_0
        node.payload_for(2)
        assert node.access_log.count() == 44  # plane 3 joins in full, plane 1 grows to V_0 u V_1


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
