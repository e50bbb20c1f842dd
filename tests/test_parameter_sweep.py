"""Exhaustive pipeline checks across every small valid parameter tuple.

Enumerates all (n, k, d, h) with n <= 6 that the validator accepts, skipping
only shapes with more than 4000 symbols per node (kept for the targeted
tests).  On one codeword of each it decodes every erased set of 1..r nodes,
and repairs every (failed, helpers) pair, checked against naive_repair, the
symbols on every edge and the closed-form access count of every helper.
test_any_evaluation_points draws the field and the evaluation points too.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mscr.code import encode, validate_params
from mscr.field import is_prime
from mscr.metrics import access_count
from mscr.oracle import naive_repair, parity_residual
from mscr.repair import RepairJob, run_repair

from conftest import decode_stripe, make_codeword, per_edge_counts, random_message


def small_param_tuples():
    out = []
    for n in range(4, 7):
        for k in range(1, n - 1):
            for d in range(k + 1, n):
                for h in range(1, n - d + 1):
                    if (d - k + h) * (d - k + 1) ** n > 4000:
                        continue
                    out.append((n, k, d, h))
    return out


SWEEP = small_param_tuples()


def test_sweep_is_nontrivial():
    assert len(SWEEP) >= 15
    assert (4, 1, 2, 2) in SWEEP and (6, 2, 3, 3) in SWEEP
    assert (6, 1, 3, 3) in SWEEP and (6, 2, 4, 2) in SWEEP  # r * s**r = 1215 and 324


@pytest.mark.parametrize("nkdh", SWEEP)
def test_full_cycle(nkdh):
    n, k, d, h = nkdh
    params = validate_params(n, k, d, h)
    msg = random_message(params, seed=1000 * n + 100 * k + 10 * d + h)
    cw = encode(params, msg)[:, 0]
    assert np.array_equal(cw[:k].reshape(-1), msg)

    for m in range(1, params.r + 1):
        for erased in combinations(range(n), m):
            available = {i: cw[i] for i in range(n) if i not in erased}
            assert np.array_equal(decode_stripe(params, available), cw), erased

    beta = params.N // params.planes
    for failed in combinations(range(n), h):
        rest = [i for i in range(n) if i not in failed]
        naive = naive_repair(failed, {i: cw[i] for i in rest}, params).columns
        assert list(naive) == list(failed)
        assert all(np.array_equal(naive[i], cw[i]) for i in failed)
        for helpers in combinations(rest, d):
            job = RepairJob(params, failed, helpers)
            repaired, transcript = run_repair(job, {u: cw[u] for u in helpers})
            assert list(repaired) == list(failed)
            assert all(np.array_equal(repaired[i], naive[i]) for i in failed), (failed, helpers)
            edges = per_edge_counts(transcript)
            assert len(edges) == d * h + h * (h - 1)
            assert set(edges.values()) == {beta}
            assert [log.count() for log in transcript.access_logs.values()] == \
                [access_count(job)] * d


def test_wide_r_with_three_failures():
    # r = 5, four planes, a bystander, and h = 3 cooperative exchange
    params = validate_params(6, 1, 2, 3)
    assert (params.r, params.s, params.planes) == (5, 2, 4)
    cw = make_codeword(params, seed=97)
    job = RepairJob(params, (0, 3, 5), (1, 4))
    repaired, transcript = run_repair(job, {u: cw[u] for u in (1, 4)})
    for i, col in repaired.items():
        assert np.array_equal(col, cw[i])
    assert set(per_edge_counts(transcript).values()) == {params.N // 4}
    # every 1-subset reconstructs (k = 1)
    for i in range(6):
        assert np.array_equal(decode_stripe(params, {i: cw[i]}), cw)


def test_custom_evaluation_points():
    # scrambled points over a larger prime; nothing may depend on the defaults
    params = validate_params(
        5, 2, 3, 2, p=31, lambdas=(7, 2, 19, 30, 11), mus=(23,)
    )
    cw = make_codeword(params, seed=89)
    for subset in combinations(range(5), 2):
        assert np.array_equal(decode_stripe(params, {i: cw[i] for i in subset}), cw)
    job = RepairJob(params, (1, 3), (0, 2, 4))
    repaired, _ = run_repair(job, {u: cw[u] for u in (0, 2, 4)})
    for i, col in repaired.items():
        assert np.array_equal(col, cw[i])


# small shapes: s = 2 and s = 3, h = 1 and h = 2
POINT_SHAPES = [(4, 1, 2, 2), (5, 2, 3, 2), (4, 1, 3, 1), (4, 2, 3, 1)]


@st.composite
def coded_draws(draw):
    """(params, seed, failed, helpers): a shape, a prime p from n+s-1 to 31,
    n+s-1 distinct evaluation points of F_p, and one repair of it."""
    n, k, d, h = draw(st.sampled_from(POINT_SHAPES))
    s = d - k + 1
    p = draw(st.sampled_from([q for q in range(n + s - 1, 32) if is_prime(q)]))
    points = draw(st.lists(st.integers(0, p - 1), min_size=n + s - 1, max_size=n + s - 1,
                           unique=True))
    params = validate_params(n, k, d, h, p=p, lambdas=points[:n], mus=points[n:])
    order = draw(st.permutations(range(n)))
    return params, draw(st.integers(0, 2**16)), order[:h], order[h:h + d]


@given(coded_draws())
def test_any_evaluation_points(draw):
    # every draw that validate_params accepts must encode, decode and repair
    # exactly: the peel's and the V-system's matrices are Vandermonde in
    # distinct points
    params, seed, failed, helpers = draw
    n, k = params.n, params.k
    cw = make_codeword(params, seed=seed)
    assert all(parity_residual(params, cw, t, b, a) == 0 for t in range(params.r)
               for b in range(1, params.planes + 1) for a in range(params.s_pow_n))
    for subset in combinations(range(n), k):
        assert np.array_equal(decode_stripe(params, {i: cw[i] for i in subset}), cw), subset
    rest = [i for i in range(n) if i not in failed]
    naive = naive_repair(failed, {i: cw[i] for i in rest}, params).columns
    job = RepairJob(params, failed, helpers)
    repaired, transcript = run_repair(job, {u: cw[u] for u in job.helpers})
    assert list(repaired) == list(job.failed)
    assert all(np.array_equal(repaired[i], naive[i]) for i in job.failed)
    edges = per_edge_counts(transcript)
    assert len(edges) == params.d * params.h + params.h * (params.h - 1)
    assert set(edges.values()) == {params.N // params.planes}
    assert [log.count() for log in transcript.access_logs.values()] == \
        [access_count(job)] * params.d
