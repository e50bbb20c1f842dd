from itertools import combinations

import numpy as np
import pytest

from mscr.code import (
    check_below,
    is_prime,
    matrix_inverse,
    smallest_prime_at_least,
    validate_params,
    vandermonde_matrix,
)

PRIMES = [2, 3, 5, 7, 11, 13]


def test_scalar_examples():
    # the field is its prime: 1 x 1 matrices are scalars of F_p
    assert matrix_inverse(5, [[2]]) == [[3]]
    assert matrix_inverse(7, [[6]]) == [[6]]
    assert vandermonde_matrix(7, [3], 3) == [[1], [3], [2]]


def test_composite_modulus_rejected():
    assert not any(map(is_prime, (0, 1, 4, 6, 9, 15, 25, 49)))
    with pytest.raises(ValueError, match="composite"):
        validate_params(4, 1, 2, 2, p=6)


def test_primality_helpers():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert smallest_prime_at_least(5) == 5
    assert smallest_prime_at_least(8) == 11
    assert smallest_prime_at_least(1) == 2


def test_unreduced_inputs_rejected():
    for ok in (0, 4, np.array([0, 4]), np.array([[3]], dtype=np.uint16), np.array([], dtype=np.int8)):
        check_below(ok, 5, "x")
    for bad in (5, -1, 7, np.array([0, 5]), np.array([-1], dtype=np.int8)):
        with pytest.raises(ValueError, match=r"^x must lie in \[0,5\)$"):
            check_below(bad, 5, "x")
    for bad in (True, 2.0, "2", None, np.int64(2)):
        with pytest.raises(ValueError, match=r"^x must be an int in \[0,5\)$"):
            check_below(bad, 5, "x")
    for bad in (np.array([1.0]), np.array([], dtype=float), np.array([True])):
        with pytest.raises(ValueError, match=r"^x must be an integer array in \[0,5\)$"):
            check_below(bad, 5, "x")
    with pytest.raises(ValueError, match=r"vandermonde point 7 must lie in \[0,7\)"):
        vandermonde_matrix(7, [1, 7], 2)
    with pytest.raises(ValueError, match=r"matrix entry -1 must lie in \[0,5\)"):
        matrix_inverse(5, [[1, 0], [-1, 1]])


def test_inverse_of_zero_signals_singularity():
    with pytest.raises(ValueError, match="rank-deficient over F_7"):
        matrix_inverse(7, [[0]])


@pytest.mark.parametrize("p", PRIMES)
def test_field_axioms_exhaustive(p):
    # every nonzero element of F_p has an inverse, which the exact solve finds
    for a in range(1, p):
        (inv,), = matrix_inverse(p, [[a]])
        assert a * inv % p == 1
        check_below(a, p, "element")


def test_vandermonde_single_point():
    assert vandermonde_matrix(7, [3], 1) == [[1]]


def test_vandermonde_direct_powers():
    assert vandermonde_matrix(5, [1, 2, 3], 2) == [[1, 1, 1], [1, 2, 3]]


def test_vandermonde_zero_point_row0_is_one():
    assert vandermonde_matrix(5, [0, 2], 3) == [[1, 1], [0, 2], [0, 4]]


def test_vandermonde_without_rows_rejected():
    with pytest.raises(ValueError, match="rows >= 1"):
        vandermonde_matrix(7, [1, 2], 0)


def test_vandermonde_duplicate_points_rejected():
    with pytest.raises(ValueError, match="distinct"):
        vandermonde_matrix(7, [1, 1, 2], 2)


@pytest.mark.parametrize("p", PRIMES)
def test_all_square_vandermonde_submatrices_invertible(p):
    for r in range(1, 5):
        if r > p:
            continue
        for points in combinations(range(p), r):
            vm = vandermonde_matrix(p, list(points), r)
            inv = matrix_inverse(p, vm)  # raises ValueError if not
            for i in range(r):
                for j in range(r):
                    entry = sum(inv[i][t] * vm[t][j] for t in range(r)) % p
                    assert entry == (1 if i == j else 0)


def test_singular_matrix_rejected():
    with pytest.raises(ValueError, match="rank-deficient over F_7"):
        matrix_inverse(7, [[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="rank-deficient over F_7"):
        matrix_inverse(7, [[0, 0, 1], [0, 1, 0], [0, 3, 0]])
    with pytest.raises(ValueError, match="square"):
        matrix_inverse(7, [[1, 2, 3]])
