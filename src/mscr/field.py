"""The prime field F_p and the small exact matrices everything else builds on.

The field is its prime p: an element is a plain int in [0, p), and arithmetic
is Python's and numpy's with a reduction mod p.  Public routines reject
values outside [0, p) instead of reducing them silently, through the one
range check check_below, so a stray value is caught where it first appears.
Vandermonde matrices and their inverses are lists of lists of ints and stay
exact; the erasure solve and the repair convert the small r x r (or m x m)
inverses to numpy and apply them in batch.
"""

from __future__ import annotations

import numpy as np


class SingularMatrixError(ValueError):
    """Raised when a linear system has no unique solution over F_p."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def smallest_prime_at_least(m: int) -> int:
    p = max(2, m)
    while not is_prime(p):
        p += 1
    return p


def check_below(values, bound: int, what: str) -> None:
    """Reject anything but an int, or an integer array, with every value in
    [0, bound), by a ValueError naming `what` and the type required (for a
    bool, a float, a numpy scalar, any other type) or the range.  Callers
    check before a cast could wrap a value."""
    if isinstance(values, np.ndarray):
        typed, need = values.dtype.kind in "iu", "an integer array"
        ok = typed and (not values.size or (
            (values.dtype.kind == "u" or values.min() >= 0) and values.max() < bound))
    else:
        typed, need = isinstance(values, int) and not isinstance(values, bool), "an int"
        ok = typed and 0 <= values < bound
    if not ok:
        raise ValueError(f"{what} must {'lie' if typed else 'be ' + need} in [0,{bound})")


def vandermonde_matrix(p: int, points: list[int], rows: int) -> list[list[int]]:
    """Matrix over F_p with entry (t, j) = points[j]**t for t in [0, rows)."""
    if rows < 1:
        raise ValueError("vandermonde_matrix needs rows >= 1")
    for x in points:
        check_below(x, p, f"vandermonde point {x!r}")
    if len(set(points)) != len(points):
        raise ValueError(f"vandermonde points must be pairwise distinct, got {points}")
    return [[pow(x, t, p) for x in points] for t in range(rows)]


def matrix_inverse(p: int, matrix: list[list[int]]) -> list[list[int]]:
    """Inverse of a square matrix over F_p by Gauss-Jordan elimination.

    Raises SingularMatrixError when the matrix is not invertible.
    """
    m = len(matrix)
    if m < 1 or any(len(row) != m for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    for row in matrix:
        for x in row:
            check_below(x, p, f"matrix entry {x!r}")
    a = [list(row) for row in matrix]
    inv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError(f"matrix rank-deficient over F_{p} (column {col})")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = pow(a[col][col], p - 2, p)
        a[col] = [(v * scale) % p for v in a[col]]
        inv[col] = [(v * scale) % p for v in inv[col]]
        for r in range(m):
            f = a[r][col]
            if r != col and f:
                a[r] = [(v - f * w) % p for v, w in zip(a[r], a[col])]
                inv[r] = [(v - f * w) % p for v, w in zip(inv[r], inv[col])]
    return inv
