"""Randomized pipeline checks across every small valid parameter tuple.

Enumerates all (n, k, d, h) with n <= 6 that the validator accepts, skipping
only shapes with more than 4000 symbols per node (kept for the targeted
tests), and runs one full encode / erase / repair / cross-check cycle on
each with randomized failure and helper choices.
"""

import random
from itertools import combinations

import numpy as np
import pytest

from mscr.code import encode, erase_decode, random_message, validate_params
from mscr.oracle import cross_check, naive_repair
from mscr.repair import RepairJob, run_repair


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
    rng = random.Random(hash(nkdh) & 0xFFFF)
    msg = random_message(params, seed=rng.randrange(10**6))
    cw = encode(msg, params)
    assert np.array_equal(cw[:k].reshape(-1), msg)

    failed = tuple(sorted(rng.sample(range(n), h)))
    rest = [i for i in range(n) if i not in failed]
    helpers = tuple(sorted(rng.sample(rest, d)))
    job = RepairJob(params, failed, helpers)
    repaired, transcript = run_repair(job, {u: cw[u] for u in helpers})
    for i, col in repaired.items():
        assert np.array_equal(col, cw[i])
    beta = params.N // (d - k + h)
    assert set(transcript.per_edge_counts().values()) == {beta}

    naive = naive_repair(failed, {i: cw[i] for i in rest}, params)
    assert cross_check(repaired, naive, params).match

    erased = rng.sample(range(n), rng.randint(1, params.r))
    available = {i: cw[i] for i in range(n) if i not in erased}
    assert np.array_equal(erase_decode(available, params), cw)


def test_wide_r_with_three_failures():
    # r = 5, four planes, a bystander, and h = 3 cooperative exchange
    params = validate_params(6, 1, 2, 3)
    assert (params.r, params.s, params.planes) == (5, 2, 4)
    cw = encode(random_message(params, seed=97), params)
    job = RepairJob(params, (0, 3, 5), (1, 4))
    repaired, transcript = run_repair(job, {u: cw[u] for u in (1, 4)})
    for i, col in repaired.items():
        assert np.array_equal(col, cw[i])
    assert set(transcript.per_edge_counts().values()) == {params.N // 4}
    # every 1-subset reconstructs (k = 1)
    for i in range(6):
        assert np.array_equal(erase_decode({i: cw[i]}, params), cw)


def test_custom_evaluation_points():
    # scrambled points over a larger prime; nothing may depend on the defaults
    params = validate_params(
        5, 2, 3, 2, p=31, lambdas=(7, 2, 19, 30, 11), mus=(23,)
    )
    cw = encode(random_message(params, seed=89), params)
    for subset in combinations(range(5), 2):
        assert np.array_equal(erase_decode({i: cw[i] for i in subset}, params), cw)
    job = RepairJob(params, (1, 3), (0, 2, 4))
    repaired, _ = run_repair(job, {u: cw[u] for u in (0, 2, 4)})
    for i, col in repaired.items():
        assert np.array_equal(col, cw[i])
