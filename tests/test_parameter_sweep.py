"""Exhaustive pipeline checks across every small valid parameter tuple.

Enumerates all (n, k, d, h) with n <= 6 that the validator accepts, skipping
only shapes with more than 4000 symbols per node (kept for the targeted
tests).  On a batch of 41 codewords of each it decodes every erased set of
1..r nodes, and repairs every (failed, helpers) pair, and checks naive_repair
for every failed set, each as one call on the whole batch, checked against
encode's output, with the batch's symbols on every edge and the closed-form
access count of every helper.
test_every_message_by_the_unit_basis runs the same checks on the kN unit
messages of every shape with kN <= 576 (1458 under the long profile), a
proof for every message by linearity, with every check of the paper's
equation (oracle.check_matrix) vanishing; test_engine_check_map_is_the_papers
shows the engine's check map is that matrix.
test_any_evaluation_points draws the field and the evaluation points too.
"""

import os
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mscr.code import (_known_contrib, accumulator_dtype, encode, erase_decode, failing_checks,
                       is_prime, validate_params)
from mscr.metrics import access_count
from mscr.oracle import check_matrix, naive_repair, parity_residual
from mscr.repair import RepairJob, run_repair

from conftest import decode_stripe, make_codeword, per_edge_counts, repair_stripe


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
# HYPOTHESIS_PROFILE=long (conftest) searches further than tier-1: see
# test_every_message_by_the_unit_basis and DRAWN_SHAPES
LONG = os.environ.get("HYPOTHESIS_PROFILE") == "long"
# the shapes whose kN unit messages are proved one by one; the six with
# kN >= 2187 would take minutes
BASIS = [nkdh for nkdh in SWEEP
         if validate_params(*nkdh).message_length <= (1458 if LONG else 576)]


def test_sweep_is_nontrivial():
    assert len(SWEEP) >= 15
    assert (4, 1, 2, 2) in SWEEP and (6, 2, 3, 3) in SWEEP
    assert (6, 1, 3, 3) in SWEEP and (6, 2, 4, 2) in SWEEP  # r * s**r = 1215 and 324


@pytest.mark.parametrize("nkdh", SWEEP)
def test_full_cycle(nkdh):
    """Encode, erase_decode and run_repair are F_p-linear in the message, so
    a wrong map differs from the right one by a nonzero linear map A and
    agrees with it on a uniform random stripe with probability
    p^-rank(A) <= 1/p.  So this batch of 40 independent random stripes
    misses a wrong map with probability at most p^-40 <= 5^-40 < 10^-27 per
    shape.  The last stripe holds p-1 in every symbol, the accumulators'
    worst case, which a random stripe seldom reaches."""
    n, k, d, h = nkdh
    params = validate_params(n, k, d, h)
    rng = np.random.default_rng(1000 * n + 100 * k + 10 * d + h)
    kn = params.message_length
    msg = np.concatenate([rng.integers(0, params.p, size=40 * kn),
                          np.full(kn, params.p - 1)])
    cws = encode(params, msg)  # (n, 41, planes, s^n)
    assert np.array_equal(cws[:k].swapaxes(0, 1).reshape(-1), msg)

    for m in range(1, params.r + 1):
        for erased in combinations(range(n), m):
            available = {i: cws[i] for i in range(n) if i not in erased}
            assert np.array_equal(erase_decode(params, available), cws), erased

    stripes = cws.shape[1]
    beta = params.N // params.planes
    for failed in combinations(range(n), h):
        rest = [i for i in range(n) if i not in failed]
        naive = naive_repair(failed, {i: cws[i] for i in rest}, params)
        assert list(naive) == list(failed)
        assert all(np.array_equal(naive[i], cws[i]) for i in failed)
        for helpers in combinations(rest, d):
            job = RepairJob(params, failed, helpers)
            repaired, transcript = run_repair(job, {u: cws[u] for u in helpers})
            assert list(repaired) == list(failed)
            assert all(np.array_equal(repaired[i], cws[i]) for i in failed), (failed, helpers)
            edges = per_edge_counts(transcript)
            assert len(edges) == d * h + h * (h - 1)
            assert set(edges.values()) == {stripes * beta}
            assert [log.count() for log in transcript.access_logs.values()] == \
                [stripes * access_count(job)] * d


def violated_checks(params, H, cws) -> bool:
    """Whether a check of the matrix H (oracle.check_matrix's shape) is
    nonzero on some plane of the codewords cws, (n, stripes, planes, s^n).
    One float64 product per plane is exact: a row of H has at most n s
    entries below p, so every sum is below n s p^2 < 2^53."""
    assert params.n * params.s * params.p**2 < 2**53
    size = params.n * params.s_pow_n
    H = H.astype(np.float64)
    return any((H @ cws[:, :, b].transpose(0, 2, 1).reshape(size, -1) % params.p).any()
               for b in range(params.planes))


@pytest.mark.parametrize("nkdh", BASIS)
def test_every_message_by_the_unit_basis(nkdh):
    """A proof for every message of the shape, not a sample: encode,
    erase_decode, run_repair and naive_repair are F_p-linear in the message,
    each step a sum or a product by a constant, reduced mod p, and the kN
    unit messages span F_p^kN.  So a pipeline that returns encode's codeword
    of every unit message, and encode's systematic identity with every check
    of the paper's equation vanishing (oracle.check_matrix, not the engine's
    own map), returns the codeword of every message.  A check matrix with
    one entry changed is seen failing.  Overflow is not linear: a wrapped
    accumulator could spare every unit message.  So the batch also holds one
    stripe of p-1 in every symbol, the accumulators' worst case, and the
    dtype tests at p = 53 and 59 stay."""
    n, k, d, h = nkdh
    params = validate_params(n, k, d, h)
    kn = params.message_length
    unit = np.eye(kn, dtype=np.uint16)
    msg = np.concatenate([unit.reshape(-1), np.full(kn, params.p - 1)])
    cws = encode(params, msg)  # (n, kN + 1, planes, s^n)
    stripes = cws.shape[1]
    systematic = cws[:k].swapaxes(0, 1).reshape(stripes, kn)
    assert np.array_equal(systematic[:kn], unit) and (systematic[kn] == params.p - 1).all()
    assert not failing_checks(params, cws).any()
    H = check_matrix(params)
    assert not violated_checks(params, H, cws)
    wrong = H.copy()
    row, col = np.random.default_rng(kn).integers(0, wrong.shape)
    wrong[row, col] = (wrong[row, col] + 1) % params.p
    assert violated_checks(params, wrong, cws)

    for m in range(1, params.r + 1):
        for erased in combinations(range(n), m):
            available = {i: cws[i] for i in range(n) if i not in erased}
            assert np.array_equal(erase_decode(params, available), cws), erased

    beta = params.N // params.planes
    for failed in combinations(range(n), h):
        rest = [i for i in range(n) if i not in failed]
        naive = naive_repair(failed, {i: cws[i] for i in rest}, params)
        assert list(naive) == list(failed)
        assert all(np.array_equal(naive[i], cws[i]) for i in failed)
        for helpers in combinations(rest, d):
            job = RepairJob(params, failed, helpers)
            repaired, transcript = run_repair(job, {u: cws[u] for u in helpers})
            assert list(repaired) == list(failed)
            assert all(np.array_equal(repaired[i], cws[i]) for i in failed), (failed, helpers)
            edges = per_edge_counts(transcript)
            assert len(edges) == d * h + h * (h - 1)
            assert set(edges.values()) == {stripes * beta}
            assert [log.count() for log in transcript.access_logs.values()] == \
                [stripes * access_count(job)] * d


@pytest.mark.parametrize("nkdh", BASIS)
def test_engine_check_map_is_the_papers(nkdh):
    """code._known_contrib, the map behind the solve's right-hand side and
    failing_checks, is the paper's check matrix: on the n s^n unit columns,
    one per stripe, it returns oracle.check_matrix column by column.  (That
    a wrong check matrix is caught is shown on encode's codewords, in
    test_every_message_by_the_unit_basis.)"""
    params = validate_params(*nkdh)
    size = params.n * params.s_pow_n
    # stripe x holds the unit column of node x // s^n at index x % s^n
    unit = np.eye(size, dtype=np.uint16).reshape(size, params.n, 1, params.s_pow_n)
    engine = _known_contrib(params, unit.swapaxes(0, 1), range(params.n), params.r)
    assert engine.shape == (params.r, params.s_pow_n, 1, size)
    H = check_matrix(params)
    assert np.array_equal(engine.reshape(H.shape), H)


def test_wide_r_with_three_failures():
    # r = 5, four planes, a bystander, and h = 3 cooperative exchange
    params = validate_params(6, 1, 2, 3)
    assert (params.r, params.s, params.planes) == (5, 2, 4)
    cw = make_codeword(params, seed=97)
    job = RepairJob(params, (0, 3, 5), (1, 4))
    repaired, transcript = repair_stripe(job, {u: cw[u] for u in (1, 4)})
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
    repaired, _ = repair_stripe(job, {u: cw[u] for u in (0, 2, 4)})
    for i, col in repaired.items():
        assert np.array_equal(col, cw[i])


# small shapes: s = 2 and s = 3, h = 1 and h = 2
POINT_SHAPES = [(4, 1, 2, 2), (5, 2, 3, 2), (4, 1, 3, 1), (4, 2, 3, 1)]
# the long profile also draws the sweep's two larger shapes and primes past
# 31, where (5,2,3,2)'s accumulator turns from int16 to int32
DRAWN_SHAPES = POINT_SHAPES + ([(6, 2, 3, 3), (6, 3, 4, 2)] if LONG else [])
TOP_PRIME = 61 if LONG else 31


def test_long_primes_cross_the_accumulator_boundary():
    dtypes = {p: accumulator_dtype(validate_params(5, 2, 3, 2, p=p)) for p in (53, 59, 61)}
    assert dtypes == {53: np.int16, 59: np.int32, 61: np.int32}


@st.composite
def coded_draws(draw):
    """(params, seed, failed, helpers): a shape, a prime p from n+s-1 to
    TOP_PRIME, n+s-1 distinct evaluation points of F_p, and one repair of it."""
    n, k, d, h = draw(st.sampled_from(DRAWN_SHAPES))
    s = d - k + 1
    p = draw(st.sampled_from([q for q in range(n + s - 1, TOP_PRIME + 1) if is_prime(q)]))
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
    naive = naive_repair(failed, {i: cw[None, i] for i in rest}, params)  # a batch of one
    job = RepairJob(params, failed, helpers)
    repaired, transcript = run_repair(job, {u: cw[None, u] for u in job.helpers})
    assert list(repaired) == list(job.failed)
    assert all(np.array_equal(repaired[i], naive[i]) for i in job.failed)
    edges = per_edge_counts(transcript)
    assert len(edges) == params.d * params.h + params.h * (params.h - 1)
    assert set(edges.values()) == {params.N // params.planes}
    assert [log.count() for log in transcript.access_logs.values()] == \
        [access_count(job)] * params.d
