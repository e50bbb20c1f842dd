from itertools import combinations

import numpy as np
import pytest

from mscr import code, repair
from mscr.code import (
    InconsistentCodewordError,
    _known_contrib,
    _peel_plan,
    accumulator_dtype,
    encode,
    erase_decode,
    failing_checks,
    solve_erased,
    validate_params,
)
from mscr.field import is_prime
from mscr.oracle import parity_residual, sub_index

from conftest import PARAM_SETS, decode_stripe, make_codeword, random_message


def residuals_array(params, arr):
    """Every parity residual of one codeword's columns (n, planes, s^n), shape (planes, r, s^n)."""
    return np.stack([_known_contrib(params, arr[:, b0], range(params.n), params.r)
                     for b0 in range(params.planes)])


def failing_planes(params, cw):
    """failing_checks of a single codeword, one flag per plane."""
    return failing_checks(params, cw[:, None])[0]


class TestValidateParams:
    def test_small_code(self):
        p = validate_params(4, 1, 2, 2, p=5)
        assert (p.r, p.s, p.planes, p.N) == (3, 2, 3, 48)
        assert p.lambdas == (0, 1, 2, 3) and p.mus == (4,)

    def test_d_range(self):
        with pytest.raises(ValueError, match="d <= n-1"):
            validate_params(4, 1, 4, 2)
        with pytest.raises(ValueError, match="k < d"):
            validate_params(4, 2, 2, 1)

    def test_larger_code_derived_values(self):
        p = validate_params(10, 6, 8, 2)
        assert p.s == 3 and p.N == 4 * 3**10

    def test_h_range(self):
        with pytest.raises(ValueError, match="h"):
            validate_params(5, 2, 3, 3)  # n-d = 2 < 3
        with pytest.raises(ValueError, match="positive"):
            validate_params(5, 2, 3, 0)

    def test_default_prime_is_smallest_valid(self):
        assert validate_params(4, 1, 2, 2).p == 5  # n+s-1 = 5
        assert validate_params(6, 3, 4, 2).p == 7  # n+s-1 = 7

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError, match="composite"):
            validate_params(4, 1, 2, 2, p=9)

    def test_too_small_p_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            validate_params(6, 3, 4, 2, p=5)

    def test_oversized_p_rejected(self):
        with pytest.raises(ValueError, match="16-bit"):
            validate_params(4, 1, 2, 2, p=65537)

    def test_point_overrides(self):
        p = validate_params(4, 1, 2, 2, p=7, lambdas=(1, 2, 3, 4), mus=(6,))
        assert p.lambdas == (1, 2, 3, 4) and p.mus == (6,)
        with pytest.raises(ValueError, match="distinct"):
            validate_params(4, 1, 2, 2, p=7, lambdas=(1, 2, 3, 4), mus=(4,))
        with pytest.raises(ValueError, match="lambda"):
            validate_params(4, 1, 2, 2, p=7, lambdas=(1, 2, 3))

    def test_mu_count_checked(self):
        # a manifest with one mu too many reaches this check through the CLI
        with pytest.raises(ValueError, match=r"^need s-1=1 mu points, got 2$"):
            validate_params(4, 1, 2, 2, p=7, mus=(4, 5))

    @pytest.mark.parametrize("points,named", [
        (dict(lambdas=(0, 1, 7, 3)), r"lambda_2=7 must lie"),
        (dict(mus=(-1,)), r"mu_1=-1 must lie"),
        (dict(lambdas=(0, True, 2, 3)), r"lambda_1=True must be an int"),
        (dict(lambdas=tuple(np.arange(4))), r"lambda_0=np\.int64\(0\) must be an int"),
    ], ids=["at-p", "negative", "bool", "numpy-scalar"])
    def test_point_outside_the_field_named(self, points, named):
        # a numpy scalar in CodeParams would not survive the manifest's json.dumps
        with pytest.raises(ValueError, match=rf"^evaluation point {named} in \[0,7\)$"):
            validate_params(4, 1, 2, 2, p=7, **points)


class TestEncode:
    def test_zero_message_gives_zero_codeword(self, example1):
        cw = encode(example1, np.zeros(example1.message_length, dtype=np.int64))
        assert not cw.any()

    def test_zero_codeword_residuals(self, example1):
        zero = np.zeros((example1.n, example1.planes, example1.s_pow_n), dtype=np.int64)
        assert not failing_planes(example1, zero).any()
        assert parity_residual(example1, zero, 2, 3, 15) == 0

    def test_all_residuals_zero_scalar_oracle(self, example1, example1_codeword):
        # every one of the 3*3*16 = 144 checks, via the scalar evaluator
        p = example1
        count = 0
        for t in range(p.r):
            for b in range(1, p.planes + 1):
                for a in range(p.s_pow_n):
                    assert parity_residual(p, example1_codeword, t, b, a) == 0
                    count += 1
        assert count == 144

    def test_vectorized_sweep_matches_scalar(self, example1, example1_codeword):
        p = example1
        res = residuals_array(p, example1_codeword)
        for t in range(p.r):
            for b in range(1, p.planes + 1):
                for a in range(p.s_pow_n):
                    assert res[b - 1, t, a] == parity_residual(p, example1_codeword, t, b, a)

    def test_systematic_roundtrip(self, example1):
        msg = random_message(example1, seed=3)
        cw = encode(example1, msg)
        assert cw.shape == (4, 1, 3, 16) and cw.dtype == np.uint16
        assert np.array_equal(cw[: example1.k].reshape(-1), msg)

    def test_batch_matches_each_stripe(self, example1):
        # stripes * kN symbols in file order: stripe st is message run st
        msgs = [random_message(example1, seed=sd) for sd in (4, 5, 6)]
        cw = encode(example1, np.concatenate(msgs))
        assert cw.shape == (4, 3, 3, 16)
        for st, msg in enumerate(msgs):
            assert np.array_equal(cw[:, st], encode(example1, msg)[:, 0])

    @pytest.mark.parametrize("t,b,a,message", [
        (3, 1, 0, r"power index t=3 out of range \[0,3\)"),
        (-1, 1, 0, r"power index t=-1 out of range \[0,3\)"),
        (0, 0, 0, r"plane 0 out of range \[1,3\]"),
        (0, 4, 0, r"plane 4 out of range \[1,3\]"),
        (0, 1, 16, r"index 16 out of range \[0,16\)"),
        (0, 1, -1, r"index -1 out of range \[0,16\)"),
        (0, 1, (0, 1, 0), r"index vector must have length n=4"),
    ], ids=["t-high", "t-negative", "plane-0", "plane-high", "index-high", "index-negative",
            "short-vector"])
    def test_residual_arguments_checked(self, example1, example1_codeword, t, b, a, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            parity_residual(example1, example1_codeword, t, b, a)

    def test_residual_accepts_vector_index(self, example1, example1_codeword):
        assert parity_residual(example1, example1_codeword, 0, 1, (0, 1, 0, 1)) == parity_residual(
            example1, example1_codeword, 0, 1, 10
        )

    def test_perturbation_breaks_some_check(self, example1, example1_codeword):
        cw = example1_codeword.copy()
        cw[2, 1, 7] = (cw[2, 1, 7] + 1) % 5
        assert failing_planes(example1, cw).any()

    def test_residual_localized_to_perturbed_plane(self, example1, example1_codeword):
        p = example1
        arr = example1_codeword.copy()
        arr[2, 1, 7] = (arr[2, 1, 7] + 3) % p.p
        res = residuals_array(p, arr)
        assert res[1].any()
        assert not res[0].any() and not res[2].any()
        assert failing_checks(p, arr[:, None]).tolist() == [[False, True, False]]

    def test_message_validation(self, example1):
        with pytest.raises(ValueError, match="k\\*N"):
            encode(example1, np.zeros(5, dtype=np.int64))
        bad = np.zeros(example1.message_length, dtype=np.int64)
        bad[0] = 5
        with pytest.raises(ValueError, match=r"^message symbols must lie in \[0,5\)$"):
            encode(example1, bad)


class TestReconstruct:
    # decoding from exactly k columns: r erasures, the full budget
    def test_systematic_subset_reproduces_codeword(self, example1, example1_codeword):
        got = decode_stripe(example1, {0: example1_codeword[0]})
        assert np.array_equal(got, example1_codeword)

    @pytest.mark.parametrize("nkdh", [(4, 1, 2, 2), (5, 2, 3, 2)])
    def test_every_k_subset(self, nkdh):
        params = validate_params(*nkdh)
        cw = make_codeword(params, seed=17)
        for subset in combinations(range(params.n), params.k):
            got = decode_stripe(params, {i: cw[i] for i in subset})
            assert np.array_equal(got, cw), subset


class TestEraseDecode:
    def test_zero_erasures_identity(self, example1, example1_codeword):
        got = decode_stripe(example1, dict(enumerate(example1_codeword)))
        assert np.array_equal(got, example1_codeword)

    @pytest.mark.parametrize("missing", [1, 2, 3])
    def test_recovery_up_to_r(self, example1, example1_codeword, missing):
        p = example1
        for erased in combinations(range(p.n), missing):
            avail = {i: example1_codeword[i] for i in range(p.n) if i not in erased}
            got = decode_stripe(p, avail)
            assert np.array_equal(got, example1_codeword), erased

    def test_too_many_erasures_rejected(self, example1):
        with pytest.raises(ValueError, match="erasures"):
            decode_stripe(example1, {})

    def test_corrupt_survivor_detected(self, example1, example1_codeword):
        p = example1
        cols = {i: example1_codeword[i].copy() for i in (0, 1, 3)}
        cols[1][0, 3] = (cols[1][0, 3] + 1) % p.p
        with pytest.raises(InconsistentCodewordError):
            decode_stripe(p, cols)

    def test_zero_erasures_rejects_noncodeword(self, example1, example1_codeword):
        p = example1
        cols = dict(enumerate(example1_codeword.copy()))
        cols[0][2, 5] = (cols[0][2, 5] + 2) % p.p
        with pytest.raises(InconsistentCodewordError):
            decode_stripe(p, cols)

    def test_plane_decoupling(self, example1, example1_codeword):
        # decoding with the full erasure budget solves each plane on its own:
        # replacing one plane of the survivors leaves the other planes' output
        # untouched
        p = example1
        base = decode_stripe(p, {2: example1_codeword[2]})
        tampered = example1_codeword[2].copy()
        tampered[2] = (tampered[2] + 1) % p.p
        other = decode_stripe(p, {2: tampered})
        for i in range(p.n):
            assert np.array_equal(other[i, :2], base[i, :2])
        assert not np.array_equal(other[0, 2], base[0, 2])


class TestContainers:
    # erase_decode's checks on each supplied (stripes, planes, s^n) column
    SHAPE = r"shaped \(stripes, planes, s\^n\) = \(stripes, 3, 16\)"

    def test_column_shape_enforced(self, example1):
        with pytest.raises(ValueError, match=self.SHAPE):
            erase_decode(example1, {0: np.zeros((1, 3, 15), dtype=np.int64)})

    def test_column_range_enforced(self, example1):
        bad = np.zeros((1, 3, 16), dtype=np.int64)
        bad[0, 0, 0] = 5
        with pytest.raises(ValueError, match=r"^node 0: column symbols must lie in \[0,5\)$"):
            erase_decode(example1, {0: bad})

    def test_unbatched_column_rejected(self, example1):
        with pytest.raises(ValueError, match=self.SHAPE + r", the same for all, got \(3, 16\)"):
            erase_decode(example1, {1: np.zeros((3, 16), dtype=np.uint16)})

    def test_stripe_counts_must_agree(self, example1):
        cols = {0: np.zeros((2, 3, 16), dtype=np.uint16), 1: np.zeros((1, 3, 16), dtype=np.uint16)}
        with pytest.raises(ValueError, match=r"node 1: .*got \(1, 3, 16\)"):
            erase_decode(example1, cols)

    def test_index_range(self, example1):
        with pytest.raises(ValueError, match="node index"):
            erase_decode(example1, {4: np.zeros((1, 3, 16), dtype=np.int64)})


def test_scalar_vs_vectorized_residuals_wider_alphabet():
    # s = 3 exercises both substitution digits in the delta terms
    params = validate_params(5, 2, 4, 1)
    assert params.s == 3
    cw = make_codeword(params, seed=79)
    res = residuals_array(params, cw)
    assert not res.any()
    rng = np.random.default_rng(83)
    arr = cw.copy()
    arr[4, 2, 100] = (arr[4, 2, 100] + 1) % params.p
    res = residuals_array(params, arr)
    for _ in range(60):
        t = int(rng.integers(0, params.r))
        b = int(rng.integers(1, params.planes + 1))
        a = int(rng.integers(0, params.s_pow_n))
        assert res[b - 1, t, a] == parity_residual(params, arr, t, b, a)
    assert res[2].any() and not res[0].any()


def test_residuals_reduced_once_at_the_largest_p():
    # _known_contrib reduces only at the end; every symbol p-1 at the largest
    # supported p is the largest unreduced sum it can see
    params = validate_params(5, 1, 4, 1, p=65521)
    arr = np.full((params.n, params.planes, params.s_pow_n), params.p - 1, dtype=np.int64)
    res = residuals_array(params, arr)
    rng = np.random.default_rng(89)
    for _ in range(40):
        t = int(rng.integers(0, params.r))
        b = int(rng.integers(1, params.planes + 1))
        a = int(rng.integers(0, params.s_pow_n))
        assert res[b - 1, t, a] == parity_residual(params, arr, t, b, a)


class TestOverflowBound:
    """The kernels at the largest symbols, p-1 everywhere, in uint16 as stored,
    on both sides of each accumulator switch (int16/int32 and int32/int64),
    against the scalar oracle parity_residual."""

    # (6,3,4,2): n s = 12, so int16 holds 12 (p-1)^2 < 2^15 while (p-1)^2 <=
    # 2730, that is up to p = 53 (12 * 52^2 = 32448), and the next prime, 59,
    # gives 12 * 58^2 = 40368; int32 holds it up to p = 13378
    CASES = [(53, np.int16), (59, np.int32), (13367, np.int32), (13399, np.int64),
             (65521, np.int64)]

    @staticmethod
    def every_residual(params, cw):
        return np.array([[[parity_residual(params, cw, t, b, a) for a in range(params.s_pow_n)]
                          for t in range(params.r)] for b in range(1, params.planes + 1)])

    @pytest.mark.parametrize("p, dtype", CASES)
    def test_failing_checks(self, p, dtype):
        params = validate_params(6, 3, 4, 2, p=p)
        assert accumulator_dtype(params) == dtype
        worst = np.full((params.n, params.planes, params.s_pow_n), p - 1, dtype=np.uint16)
        valid = make_codeword(params, seed=97).astype(np.uint16)
        expected = self.every_residual(params, worst)
        assert np.array_equal(residuals_array(params, worst), expected)
        bad = failing_checks(params, np.stack([worst, valid], axis=1))
        assert bad.tolist() == [expected.any(axis=(1, 2)).tolist(), [False] * params.planes]

    @pytest.mark.parametrize("p, dtype", CASES)
    def test_solve_erased(self, p, dtype):
        params = validate_params(6, 3, 4, 2, p=p)
        worst = np.full((2, params.planes, params.s_pow_n), p - 1, dtype=np.uint16)
        arr = erase_decode(params, {1: worst, 3: worst, 4: worst})
        assert arr.dtype == np.uint16 and (arr[[1, 3, 4]] == p - 1).all()
        assert np.array_equal(arr[:, 0], arr[:, 1])
        assert not self.every_residual(params, arr[:, 0]).any()


@pytest.mark.parametrize("nkdh", PARAM_SETS)
def test_default_field_takes_int16(nkdh):
    assert accumulator_dtype(validate_params(*nkdh)) == np.int16


@pytest.mark.parametrize("nkdh", [(6, 3, 4, 2), (6, 2, 3, 3), (5, 1, 4, 1)])
def test_int16_exactly_below_2_to_the_15(nkdh):
    params = validate_params(*nkdh)
    for p in range(params.n + params.s - 1, 300):
        if is_prime(p):
            bound = params.n * params.s * (p - 1) ** 2
            want = np.int16 if bound < 2**15 else np.int32
            assert accumulator_dtype(validate_params(*nkdh, p=p)) == want, p


def test_uint16_column_products_are_not_wrapped():
    # numpy 2 multiplies a uint16 array by a Python int in uint16, where
    # lambda_5 * 256 = 256 * 256 = 2^16 would wrap to 0
    params = validate_params(6, 3, 4, 2, p=257, lambdas=(0, 1, 2, 3, 4, 256))
    arr = np.zeros((params.n, params.planes, params.s_pow_n), dtype=np.uint16)
    arr[5] = 256
    assert np.array_equal(residuals_array(params, arr), TestOverflowBound.every_residual(params, arr))


class TestStripeBatch:
    """erase_decode / failing_checks over a stripe axis, against single stripes."""

    @staticmethod
    def stripes_of(params, seeds):
        cws = [make_codeword(params, seed=sd) for sd in seeds]
        return cws, np.stack(cws, axis=1)

    # (n, k, d, h[, p]): s = 3 gives several substitution terms per erased
    # coordinate, s = 4 at p = 257, and the largest supported p
    @pytest.mark.parametrize("nkdh", [(5, 2, 3, 2), (5, 2, 4, 1), (7, 2, 4, 3, 11),
                                      (5, 1, 4, 1, 257), (4, 1, 2, 2, 65521)])
    def test_every_erasure_set_matches_per_stripe(self, nkdh):
        params = validate_params(*nkdh)
        cws, arr = self.stripes_of(params, (1, 2, 3))
        for size in range(1, params.r + 1):
            for erased in combinations(range(params.n), size):
                got = erase_decode(params, {i: arr[i] for i in range(params.n) if i not in erased})
                assert np.array_equal(got, arr), erased

    def test_list_of_columns_accepted(self):
        params = validate_params(6, 3, 4, 2, p=257)
        _, arr = self.stripes_of(params, (4, 5))
        cols = [col.copy() for col in arr]
        for i in (0, 2, 5):
            cols[i][...] = 0
        solve_erased(params, cols, (0, 2, 5))
        assert np.array_equal(np.stack(cols), arr)

    def test_failing_checks_names_stripe_and_plane(self):
        params = validate_params(5, 2, 3, 2)
        _, arr = self.stripes_of(params, (6, 7, 8, 9))
        assert not failing_checks(params, arr).any()
        arr[3, 2, 1, 5] = (arr[3, 2, 1, 5] + 1) % params.p
        bad = failing_checks(params, arr)
        assert bad.shape == (4, params.planes)
        assert np.argwhere(bad).tolist() == [[2, 1]]

    @pytest.mark.parametrize("erased", [(), (4,), (0, 4)])
    def test_inconsistency_error_names_stripe_and_plane(self, erased):
        params = validate_params(5, 2, 3, 2)
        _, arr = self.stripes_of(params, (6, 7, 8))
        arr[1, 1, 2, 9] = (arr[1, 1, 2, 9] + 1) % params.p
        with pytest.raises(InconsistentCodewordError, match=r"stripe 1, plane 3"):
            erase_decode(params, {i: arr[i] for i in range(params.n) if i not in erased})


def test_parameters_beyond_a_dense_block_solve():
    # (7,1,5,1): N = 5 * 5^7 = 390625 symbols per node; one block of the
    # dense system would have 6 * 5^6 = 93750 unknowns
    params = validate_params(7, 1, 5, 1)
    assert (params.p, params.N, params.r, params.s) == (11, 390625, 6, 5)
    cw = make_codeword(params, seed=3)
    assert not failing_checks(params, cw[:, None]).any()
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = int(rng.integers(0, params.r))
        b = int(rng.integers(1, params.planes + 1))
        a = int(rng.integers(0, params.s_pow_n))
        assert parity_residual(params, cw, t, b, a) == 0
    assert np.array_equal(decode_stripe(params, {6: cw[6]}), cw)


class TestPeelPlan:
    """The two invariants the layer-by-layer peel rests on, for every erased
    set of every shape: the layers partition Z_s^n by z(a), and every
    substitution symbol a layer reads lies in the layer below."""

    @pytest.mark.parametrize("nkdh", PARAM_SETS)
    def test_layers_and_sources(self, nkdh):
        params = validate_params(*nkdh)
        n, s, size = params.n, params.s, params.s_pow_n
        for m in range(1, params.r + 1):
            for erased in combinations(range(n), m):
                _, _, order, position, layers = _peel_plan(params, erased)
                assert sorted(order) == list(range(size))
                assert np.array_equal(order[position], np.arange(size))
                z_of = [sum((a // s**i) % s == 0 for i in erased) for a in range(size)]
                start = 0
                for z, (span, sources) in enumerate(layers):
                    assert span.start == start
                    start = span.stop
                    members = order[span]
                    assert members.tolist() == [a for a in range(size) if z_of[a] == z]
                    assert sources.shape == (s - 1, z, len(members))
                    for e in range(1, s):
                        for x, a in enumerate(members):
                            got = [(int(f) // size, int(order[f % size])) for f in sources[e - 1, :, x]]
                            want = [(q, sub_index(int(a), i, e, s)) for q, i in enumerate(erased)
                                    if (a // s**i) % s == 0]
                            assert got == want, (erased, z, a, e)
                            assert all(z_of[b] == z - 1 for _, b in got)
                assert start == size


class TestAccumulatorDtypes:
    """Every kernel gives the same symbols in each accumulator dtype, and
    runs in the one it is given: a silent promotion to int64 would pass
    every value test."""

    @pytest.fixture()
    def forced(self, monkeypatch):
        """Calling the returned function makes the kernels use `dtype`, and
        records the dtype of every peel work array and einsum product."""
        seen = set()
        real_contrib, real_einsum = code._known_contrib, np.einsum

        def contrib(*args):
            out = real_contrib(*args)
            seen.add(out.dtype)
            return out

        def einsum(*args, **kwargs):
            out = real_einsum(*args, **kwargs)
            seen.add(out.dtype)
            return out

        def force(dtype):
            seen.clear()
            for module in (code, repair):
                monkeypatch.setattr(module, "accumulator_dtype", lambda params: dtype)
            monkeypatch.setattr(code, "_known_contrib", contrib)
            monkeypatch.setattr(np, "einsum", einsum)
            return seen

        yield force

    @staticmethod
    def every_output(params, seen, dtype):
        msg = random_message(params, seed=41)
        arr = encode(params, np.concatenate([msg, random_message(params, seed=42)]))
        out = [arr]
        for m in range(1, params.r + 1):
            for erased in combinations(range(params.n), m):
                out.append(erase_decode(params, {i: arr[i] for i in range(params.n)
                                                 if i not in erased}))
        bad = arr.copy()
        bad[2, 1, 0, 3] = (bad[2, 1, 0, 3] + 1) % params.p
        out += [failing_checks(params, arr), failing_checks(params, bad)]
        for failed in combinations(range(params.n), params.h):
            helpers = [u for u in range(params.n) if u not in failed][:params.d]
            job = repair.RepairJob(params, failed, helpers)
            repaired, transcript = repair.run_repair(job, {u: arr[u, 1] for u in helpers})
            assert {col.dtype for col in repaired.values()} == {np.dtype(dtype)}
            assert {m.values.dtype for m in transcript.messages} == {np.dtype(dtype)}
            out += [*repaired.values(), transcript.export_text()]
        assert seen == {np.dtype(dtype)}
        return out

    @pytest.mark.parametrize("nkdh", [(6, 2, 3, 3, 7), (6, 3, 4, 2, 53)])
    def test_same_outputs_in_every_dtype(self, forced, nkdh):
        params = validate_params(*nkdh)
        want = self.every_output(params, forced(np.int16), np.int16)
        for dtype in (np.int32, np.int64):
            got = self.every_output(params, forced(dtype), dtype)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                if isinstance(w, str):
                    assert g == w
                else:
                    assert g.shape == w.shape and np.array_equal(g, w)
                    if w.dtype in (np.uint16, np.bool_):
                        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
