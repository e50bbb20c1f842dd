import gc
import tracemalloc
import weakref
from itertools import combinations

import numpy as np
import pytest

from mscr.code import accumulator_dtype, encode, erase_decode, validate_params
from mscr.metrics import RepairMetrics
from mscr.oracle import naive_repair, recount, sub_index, union_v_indices
from mscr.repair import COOPERATIVE, DOWNLOAD, RepairJob, run_repair

from conftest import (PARAM_SETS, make_codeword, per_edge_counts, random_message, repair_stripe,
                      vector_set)


@pytest.fixture(scope="module")
def ex1():
    params = validate_params(4, 1, 2, 2, p=5)
    cw = make_codeword(params, seed=23)
    job = RepairJob(params, (0, 1), (2, 3))
    return params, cw, job


class TestRepairJob:
    def test_valid_job_sorted(self, ex1):
        params, _, _ = ex1
        job = RepairJob(params, (1, 0), (3, 2))
        assert job.failed == (0, 1) and job.helpers == (2, 3)
        # equal jobs compare and hash equal, each holding its own maps
        same = RepairJob(params, (0, 1), (2, 3))
        assert job == same and hash(job) == hash(same)
        assert job.context is not same.context

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

    def test_duplicate_failed_rejected(self, ex1):
        params, _, _ = ex1
        with pytest.raises(ValueError, match=r"duplicate failed nodes in \(0, 0\)"):
            RepairJob(params, (0, 0), (2, 3))


class TestRunRepair:
    def test_exhaustive_small(self, ex1):
        params, cw, _ = ex1
        for failed in combinations(range(params.n), params.h):
            helpers = tuple(i for i in range(params.n) if i not in failed)
            job = RepairJob(params, failed, helpers)
            repaired, transcript = repair_stripe(job, {u: cw[u] for u in helpers})
            for i, col in repaired.items():
                assert np.array_equal(col, cw[i])
            counts = per_edge_counts(transcript)
            assert set(counts.values()) == {16}
            assert len(counts) == params.d * params.h + params.h * (params.h - 1)

    def test_bystander_nodes(self):
        # helpers are a strict subset of the survivors
        params = validate_params(6, 2, 3, 2)
        cw = make_codeword(params, seed=41)
        job = RepairJob(params, (1, 4), (0, 2, 5))
        repaired, _ = repair_stripe(job, {u: cw[u] for u in (0, 2, 5)})
        assert np.array_equal(repaired[1], cw[1])
        assert np.array_equal(repaired[4], cw[4])

    def test_three_failures(self):
        params = validate_params(6, 2, 3, 3)
        cw = make_codeword(params, seed=43)
        job = RepairJob(params, (0, 3, 5), (1, 2, 4))
        repaired, transcript = repair_stripe(job, {u: cw[u] for u in (1, 2, 4)})
        for i, col in repaired.items():
            assert np.array_equal(col, cw[i])
        counts = per_edge_counts(transcript)
        assert set(counts.values()) == {params.N // params.planes}
        coop_edges = [e for e in counts if e[0] == COOPERATIVE]
        assert len(coop_edges) == 6

    def test_single_failure_has_no_cooperative_phase(self):
        params = validate_params(5, 2, 4, 1)
        cw = make_codeword(params, seed=47)
        job = RepairJob(params, (3,), (0, 1, 2, 4))
        repaired, transcript = repair_stripe(job, {u: cw[u] for u in (0, 1, 2, 4)})
        assert np.array_equal(repaired[3], cw[3])
        assert all(m.phase == DOWNLOAD for m in transcript.messages)

    def test_extra_survivors_ignored(self):
        # n-h = 4 > d = 3: node 3 is a bystander; the second call also passes
        # its column and the failed nodes' own columns
        params = validate_params(6, 2, 3, 2)
        cw = make_codeword(params, seed=37)
        job = RepairJob(params, (1, 4), (0, 2, 5))
        only_helpers, t1 = repair_stripe(job, {u: cw[u] for u in (0, 2, 5)})
        with_extra, t2 = repair_stripe(job, dict(enumerate(cw)))
        assert list(only_helpers) == list(with_extra) == [1, 4]
        for i in (1, 4):
            assert np.array_equal(only_helpers[i], with_extra[i])
        assert t1.export_text() == t2.export_text()

    def test_missing_helper_column_rejected(self, ex1):
        params, cw, job = ex1
        with pytest.raises(ValueError, match="missing"):
            repair_stripe(job, {2: cw[2]})

    @pytest.mark.parametrize("bad,match", [
        ("shape", "shape"), ("too_large", "lie in"), ("negative", "lie in"),
    ])
    def test_bad_last_helper_column_rejected(self, ex1, bad, match):
        # the block is checked as a whole, so a fault in the last helper counts
        params, cw, job = ex1
        # int64 copies: a uint16 column cannot hold the -1 written below
        surviving = {u: cw[u][None].astype(np.int64) for u in job.helpers}
        last = surviving[job.helpers[-1]]
        if bad == "shape":
            surviving[job.helpers[-1]] = last.reshape(-1)[:-1]
        else:
            last[0, -1, -1] = params.p if bad == "too_large" else -1
        with pytest.raises(ValueError, match=match):
            run_repair(job, surviving)

    @pytest.mark.parametrize("bad,need", [
        (5, "lie"), (-1, "lie"), (0.5, "be an integer array"),
    ])
    @pytest.mark.parametrize("position", [0, 1])
    def test_helper_outside_the_field_named(self, ex1, position, bad, need):
        # as erase_decode names the node: the first helper whose column is at fault
        params, cw, job = ex1
        helper = job.helpers[position]
        surviving = {u: cw[u][None].astype(type(bad) if u == helper else np.int64)
                     for u in job.helpers}
        surviving[helper][0, 1, 2] = bad
        with pytest.raises(ValueError, match=rf"^helper {helper}: column symbols must {need} "
                                             r"in \[0,5\)$"):
            run_repair(job, surviving)

    def test_mixed_integer_dtypes_accepted(self, ex1):
        # uint64 and int64 columns stack into float64; each is in the field,
        # and erase_decode decodes the same dict
        params, _, job = ex1
        arr = encode(params, random_message(params, seed=31))
        surviving = {2: arr[2].astype(np.uint64), 3: arr[3].astype(np.int64)}
        repaired, _ = run_repair(job, surviving)
        for i in job.failed:
            assert np.array_equal(repaired[i], arr[i])
        assert np.array_equal(erase_decode(params, surviving), arr)

    @pytest.mark.parametrize("stripes", [(1, 2), (2, 1)])
    def test_stripe_counts_must_agree(self, ex1, stripes):
        # the first helper's batch sets the stripe count; helper 3's differs
        params, cw, job = ex1
        surviving = {u: np.stack([cw[u]] * m) for u, m in zip(job.helpers, stripes)}
        with pytest.raises(ValueError, match=r"helper 3: .* shaped \(stripes, planes, s\^n\) = "
                                             r"\(stripes, 3, 16\), the same for all, "
                                             rf"got shape \({stripes[1]}, 3, 16\)"):
            run_repair(job, surviving)

    def test_flat_helper_column_rejected(self, ex1):
        # a one-stripe (planes, s^n) column, without the stripe axis, first or last
        params, cw, job = ex1
        for helper in job.helpers:
            surviving = {u: cw[u][None] for u in job.helpers}
            surviving[helper] = cw[helper]
            with pytest.raises(ValueError, match=rf"helper {helper}: .* shaped "
                                                 r"\(stripes, planes, s\^n\) .* got shape \(3, 16\)"):
                run_repair(job, surviving)

    def test_zero_codeword_repairs_to_zero(self, ex1):
        params, _, job = ex1
        zero = np.zeros((params.planes, params.s_pow_n), dtype=np.int64)
        repaired, _ = repair_stripe(job, {u: zero for u in job.helpers})
        for col in repaired.values():
            assert not col.any()


class TestBatch:
    @pytest.mark.parametrize("nkdh", PARAM_SETS)
    def test_batch_matches_one_stripe_calls(self, nkdh):
        # a batch in one call: the same columns as one call per stripe, each
        # edge's payload the one-stripe payloads stripe after stripe, and
        # every measured total the stripe count times one stripe's
        params = validate_params(*nkdh)
        stripes = 5
        cws = encode(params, np.concatenate([random_message(params, seed=31 + st)
                                             for st in range(stripes)]))
        job = RepairJob(params, tuple(range(params.h)), tuple(range(params.h, params.h + params.d)))
        batch, transcript = run_repair(job, {u: cws[u] for u in job.helpers})
        singles = [repair_stripe(job, {u: cws[u, st] for u in job.helpers}) for st in range(stripes)]
        assert list(batch) == list(job.failed)
        for i in job.failed:
            assert batch[i].shape == cws[i].shape
            assert np.array_equal(batch[i], np.stack([columns[i] for columns, _ in singles]))
            assert np.array_equal(batch[i], cws[i])
        for m, *ones in zip(transcript.messages, *(t.messages for _, t in singles)):
            assert {(o.phase, o.sender, o.receiver) for o in ones} == {(m.phase, m.sender, m.receiver)}
            assert m.values.tolist() == [v for o in ones for v in o.values.tolist()]
        total = RepairMetrics.from_run(job, transcript)
        one = RepairMetrics.from_run(job, singles[0][1])
        assert (total.beta1, total.beta2, total.gamma, total.gamma_A) == \
            tuple(stripes * x for x in (one.beta1, one.beta2, one.gamma, one.gamma_A))
        assert total.per_helper_access == {u: stripes * c for u, c in one.per_helper_access.items()}
        counted = recount(transcript.export_text())
        assert counted.gamma == total.gamma
        assert counted.per_edge == per_edge_counts(transcript)
        assert set(counted.per_edge.values()) == {total.beta1, total.beta2}

    @pytest.mark.parametrize("nkdh", PARAM_SETS)
    def test_batch_of_zero_stripes(self, nkdh):
        # like erase_decode and naive_repair: an empty batch in, an empty
        # batch out, and every measured total zero
        params = validate_params(*nkdh)
        job = RepairJob(params, tuple(range(params.h)), tuple(range(params.h, params.h + params.d)))
        empty = np.zeros((0, params.planes, params.s_pow_n), dtype=np.uint16)
        repaired, transcript = run_repair(job, {u: empty for u in job.helpers})
        naive = naive_repair(job.failed, {u: empty for u in range(params.h, params.n)}, params)
        assert list(repaired) == list(naive) == list(job.failed)
        assert all(repaired[i].shape == naive[i].shape == empty.shape for i in job.failed)
        total = RepairMetrics.from_run(job, transcript)
        assert (total.beta1, total.beta2, total.gamma, total.gamma_A) == (0, 0, 0, 0)
        assert total.per_helper_access == dict.fromkeys(job.helpers, 0)
        assert recount(transcript.export_text()).gamma == 0


class TestTranscript:
    def test_message_order_and_counts(self, ex1):
        params, cw, job = ex1
        _, transcript = repair_stripe(job, {u: cw[u] for u in (2, 3)})
        heads = [(m.phase, m.sender, m.receiver) for m in transcript.messages]
        assert heads == [
            (DOWNLOAD, 2, 0), (DOWNLOAD, 3, 0),
            (DOWNLOAD, 2, 1), (DOWNLOAD, 3, 1),
            (COOPERATIVE, 1, 0), (COOPERATIVE, 0, 1),
        ]
        assert sum(per_edge_counts(transcript).values()) == 96

    def test_export_format(self, ex1):
        params, cw, job = ex1
        _, transcript = repair_stripe(job, {u: cw[u] for u in (2, 3)})
        lines = transcript.export_text().strip().splitlines()
        assert len(lines) == 6
        for line in lines:
            phase, frm, to, count, blob = line.split()
            assert phase in (DOWNLOAD, COOPERATIVE)
            assert len(blob) == 4 * int(count)
            values = [int(blob[i : i + 4], 16) for i in range(0, len(blob), 4)]
            assert all(v < params.p for v in values)

    def test_transcripts_read_after_later_calls(self):
        # a transcript is built when first read; one read only after another
        # stripe's call must still describe its own stripe
        params = validate_params(6, 2, 3, 3)
        job = RepairJob(params, (0, 3, 5), (1, 2, 4))
        stripes = [make_codeword(params, seed=seed) for seed in (51, 52)]

        def contents(transcript):
            messages = [(m.phase, m.sender, m.receiver, m.values.tolist())
                        for m in transcript.messages]
            return messages, {u: vector_set(log, params) for u, log in transcript.access_logs.items()}

        eager = []
        for cw in stripes:
            _, transcript = repair_stripe(job, {u: cw[u] for u in job.helpers})
            eager.append(contents(transcript))
        lazy = [repair_stripe(job, {u: cw[u] for u in job.helpers})[1] for cw in stripes]
        assert eager[0][0] != eager[1][0]
        assert [contents(t) for t in lazy] == eager

    def test_access_logs_attached(self, ex1):
        params, cw, job = ex1
        _, transcript = repair_stripe(job, {u: cw[u] for u in (2, 3)})
        assert sorted(transcript.access_logs) == [2, 3]
        assert transcript.access_logs[2].count() == 44


class TestClosedForm:
    # Every message recomputed from the codeword by the paper's formulas.  For
    # failed node i with repair plane P_i and a in V_i, helper u sends
    # c[u,P_i,a] then c[u,b,a] + c[u,P_i,a(i,b)] for b = 1..d-k; failed node i
    # sends failed node t the same expressions of t's column.

    @pytest.mark.parametrize(
        "n,k,d,h,p",
        [(4, 1, 2, 2, 5), (6, 2, 3, 3, None), (6, 2, 4, 2, None), (6, 1, 3, 3, None)],
    )
    def test_every_message_matches_closed_form(self, n, k, d, h, p):
        params = validate_params(n, k, d, h, p=p)
        cw = make_codeword(params, seed=83)
        s = params.s

        def slices(node, i, plane):
            col = cw[node]
            v = union_v_indices({i}, n, s)
            out = [int(col[plane - 1, a]) for a in v]
            for b in range(1, d - k + 1):
                out += [int(col[b - 1, a] + col[plane - 1, sub_index(a, i, b, s)]) % params.p
                        for a in v]
            return out

        for failed in combinations(range(n), h):
            helpers = tuple(i for i in range(n) if i not in failed)[:d]
            job = RepairJob(params, failed, helpers)
            _, transcript = repair_stripe(job, {u: cw[u] for u in helpers})
            assert len(transcript.messages) == h * d + h * (h - 1)
            for m in transcript.messages:
                if m.phase == DOWNLOAD:
                    expect = slices(m.sender, m.receiver, d - k + 1 + job.failed.index(m.receiver))
                else:
                    expect = slices(m.receiver, m.sender, d - k + 1 + job.failed.index(m.sender))
                assert m.values.tolist() == expect, (failed, m.phase, m.sender, m.receiver)


class TestWiderAlphabet:
    # s = 3: two substitution digits per coordinate, two download slices,
    # three planes beyond the base d-k

    def test_repair_bit_exact_s3(self):
        params = validate_params(6, 2, 4, 2)
        assert params.s == 3 and params.planes == 4
        cw = make_codeword(params, seed=71)
        job = RepairJob(params, (2, 5), (0, 1, 3, 4))
        repaired, transcript = repair_stripe(job, {u: cw[u] for u in (0, 1, 3, 4)})
        for i, col in repaired.items():
            assert np.array_equal(col, cw[i])
        counts = per_edge_counts(transcript)
        assert set(counts.values()) == {params.N // params.planes}

    def test_access_identity_s3(self):
        from fractions import Fraction

        from mscr.metrics import g_ratio
        from mscr.oracle import access_set

        params = validate_params(6, 2, 4, 2)
        cw = make_codeword(params, seed=73)
        job = RepairJob(params, (0, 1), (2, 3, 4, 5))
        _, transcript = repair_stripe(job, {u: cw[u] for u in (2, 3, 4, 5)})
        for u in job.helpers:
            assert Fraction(transcript.access_logs[u].count()) == params.N * g_ratio(2, 2)
            assert vector_set(transcript.access_logs[u], params) == access_set(u, job)


class TestOverflowBound:
    """Repair at the largest symbols, helpers in uint16 as stored, on both
    sides of the int16/int32 and int32/int64 accumulator switches."""

    # (6,3,4,2): n s = 12, so int16 holds 12 (p-1)^2 < 2^15 up to p = 53
    # (12 * 52^2 = 32448; the next prime, 59, gives 40368), and int32 up to
    # p = 13378
    @pytest.mark.parametrize("p, dtype", [(53, np.int16), (59, np.int32), (13367, np.int32),
                                          (13399, np.int64), (65521, np.int64)])
    def test_repair_near_p(self, p, dtype):
        params = validate_params(6, 3, 4, 2, p=p)
        assert accumulator_dtype(params) == dtype
        # nodes 1, 3 and 4 hold p-1 everywhere; 0, 2 and 5 complete the codeword
        worst = np.full((1, params.planes, params.s_pow_n), p - 1, dtype=np.uint16)
        cw = erase_decode(params, {1: worst, 3: worst, 4: worst})  # a batch of one
        job = RepairJob(params, (0, 2), (1, 3, 4, 5))
        surviving = {u: cw[u] for u in job.helpers}
        repaired, transcript = run_repair(job, surviving)
        naive = naive_repair(job.failed, surviving, params)
        for i in job.failed:
            assert repaired[i].dtype == dtype
            assert np.array_equal(repaired[i], cw[i])
            assert np.array_equal(repaired[i], naive[i])
        assert all(0 <= m.values.min() and m.values.max() < p for m in transcript.messages)


class TestComposedMap:
    """The job's map from y = solve @ pay to the repaired columns."""

    @pytest.mark.parametrize("nkdh", [(6, 3, 4, 2), (6, 2, 3, 3), (7, 2, 4, 3), (4, 1, 2, 2)])
    def test_recovery_reads_only_received_payloads(self, nkdh):
        # y[row, j] comes from failed node j's downloads alone, and y[row, j]
        # for row = node t is full[j, t], j's cooperative payload to t; so
        # every term of t's columns must read t's own block, or row t of
        # another failed node's block
        params = validate_params(*nkdh)
        n, h, s = params.n, params.h, params.s
        block = params.s_pow_n  # y[row, j] holds s slices of s^(n-1) symbols
        for failed in list(combinations(range(n), h))[:4]:
            helpers = tuple(i for i in range(n) if i not in failed)[: params.d]
            ctx = RepairJob(params, failed, helpers).context
            assert ctx.gather.shape[0] == n + 2 <= n * s
            assert set(np.unique(ctx.coef)) <= {-1, 0, 1}
            for jt, t in enumerate(failed):
                terms = ctx.gather[:, jt][ctx.coef[:, jt] != 0]
                row, j = terms // (h * block), terms // block % h
                assert ((j == jt) | (row == t)).all(), (failed, t)
                assert (j != jt).any()  # the cooperative payloads are read

    def test_context_size(self):
        # the map holds F (int32 index, int8 coefficient) pairs per repaired
        # symbol; at the largest desk-scale code it stays under 25 MB
        params = validate_params(7, 1, 4, 3, p=13399)
        ctx = RepairJob(params, (0, 3, 5), (1, 2, 4, 6)).context
        arrays = [v for v in vars(ctx).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) < 25_000_000
        assert ctx.gather.shape[0] <= params.n * params.s

    def test_maps_freed_with_the_job(self):
        # a job holds its own maps: nothing outside it keeps them once it is
        # dropped, however many distinct jobs one process runs
        params = validate_params(7, 1, 4, 3, p=13399)
        job = RepairJob(params, (0, 3, 5), (1, 2, 4, 6))
        arrays = [v for v in vars(job.context).values() if isinstance(v, np.ndarray)]
        one_job = sum(a.nbytes for a in arrays)
        ref = weakref.ref(job.context)
        del job, arrays
        gc.collect()
        assert ref() is None

        zero = np.zeros((params.planes, params.s_pow_n), dtype=np.uint16)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for failed in [(0, 3, 5), (1, 2, 3), (4, 5, 6), (0, 1, 2)]:
                job = RepairJob(params, failed, tuple(sorted(set(range(7)) - set(failed)))[:4])
                _, transcript = repair_stripe(job, {u: zero for u in job.helpers})
                assert transcript.access_logs[job.helpers[0]].count() > 0
                del job, transcript
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < one_job
