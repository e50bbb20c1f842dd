from itertools import combinations

import pytest

from mscr.field import (
    FieldContext,
    SingularMatrixError,
    is_prime,
    matrix_inverse,
    smallest_prime_at_least,
    vandermonde_matrix,
)

PRIMES = [2, 3, 5, 7, 11, 13]


def test_scalar_examples():
    f5 = FieldContext(5)
    assert f5.mul(3, 4) == 2
    assert f5.inv(2) == 3
    f7 = FieldContext(7)
    assert f7.add(6, 1) == 0


def test_composite_modulus_rejected():
    with pytest.raises(ValueError, match="not prime"):
        FieldContext(6)
    with pytest.raises(ValueError):
        FieldContext(1)


def test_primality_helpers():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert smallest_prime_at_least(5) == 5
    assert smallest_prime_at_least(8) == 11
    assert smallest_prime_at_least(1) == 2


def test_unreduced_inputs_rejected():
    f5 = FieldContext(5)
    for bad in (5, -1, 7):
        with pytest.raises(ValueError, match="reduced"):
            f5.add(bad, 0)
        with pytest.raises(ValueError):
            f5.mul(1, bad)
    with pytest.raises(ValueError):
        f5.check(True)  # bools are not field elements


def test_inverse_of_zero_signals_singularity():
    with pytest.raises(ZeroDivisionError, match="singular"):
        FieldContext(7).inv(0)


@pytest.mark.parametrize("p", PRIMES)
def test_field_axioms_exhaustive(p):
    f = FieldContext(p)
    for a in range(p):
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in range(p):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
            for c in range(p):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_vandermonde_single_point():
    f = FieldContext(7)
    assert vandermonde_matrix(f, [3], 1) == [[1]]


def test_vandermonde_direct_powers():
    f = FieldContext(5)
    assert vandermonde_matrix(f, [1, 2, 3], 2) == [[1, 1, 1], [1, 2, 3]]


def test_vandermonde_zero_point_row0_is_one():
    f = FieldContext(5)
    assert vandermonde_matrix(f, [0, 2], 3) == [[1, 1], [0, 2], [0, 4]]


def test_vandermonde_duplicate_points_rejected():
    f = FieldContext(7)
    with pytest.raises(ValueError, match="distinct"):
        vandermonde_matrix(f, [1, 1, 2], 2)


@pytest.mark.parametrize("p", PRIMES)
def test_all_square_vandermonde_submatrices_invertible(p):
    f = FieldContext(p)
    for r in range(1, 5):
        if r > p:
            continue
        for points in combinations(range(p), r):
            vm = vandermonde_matrix(f, list(points), r)
            inv = matrix_inverse(f, vm)  # raises SingularMatrixError if not
            for i in range(r):
                for j in range(r):
                    entry = sum(inv[i][t] * vm[t][j] for t in range(r)) % p
                    assert entry == (1 if i == j else 0)


def test_singular_matrix_rejected():
    f = FieldContext(7)
    with pytest.raises(SingularMatrixError):
        matrix_inverse(f, [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        matrix_inverse(f, [[0, 0, 1], [0, 1, 0], [0, 3, 0]])
    with pytest.raises(ValueError, match="square"):
        matrix_inverse(f, [[1, 2, 3]])
