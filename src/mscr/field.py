"""Prime-field arithmetic and the small exact matrices everything else builds on.

Field elements are plain ints reduced into [0, p).  Public operations reject
unreduced inputs instead of normalizing silently, so a stray unreduced value
is caught where it first appears.  Vandermonde matrices and their inverses
are lists of lists of ints and stay exact; the erasure solve and the repair
convert the small r x r (or m x m) inverses to numpy and apply them in batch.
"""

from __future__ import annotations


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


class FieldContext:
    """Arithmetic in F_p for a fixed prime p.  Immutable and shareable."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"field modulus {p} is not prime")
        self.p = p

    def __repr__(self):
        return f"FieldContext(p={self.p})"

    def __eq__(self, other):
        return isinstance(other, FieldContext) and other.p == self.p

    def __hash__(self):
        return hash(("FieldContext", self.p))

    def check(self, a: int) -> int:
        """Reject values outside [0, p); returns the value unchanged."""
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.p:
            raise ValueError(f"{a!r} is not a reduced element of F_{self.p}")
        return a

    def add(self, a: int, b: int) -> int:
        return (self.check(a) + self.check(b)) % self.p

    def sub(self, a: int, b: int) -> int:
        return (self.check(a) - self.check(b)) % self.p

    def mul(self, a: int, b: int) -> int:
        return (self.check(a) * self.check(b)) % self.p

    def neg(self, a: int) -> int:
        return (-self.check(a)) % self.p

    def inv(self, a: int) -> int:
        if self.check(a) == 0:
            raise ZeroDivisionError(
                f"inverse of zero in F_{self.p}: singular computation"
            )
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, t: int) -> int:
        if t < 0:
            return self.inv(self.pow(a, -t))
        return pow(self.check(a), t, self.p)


def vandermonde_matrix(ctx: FieldContext, points: list[int], rows: int) -> list[list[int]]:
    """Matrix with entry (t, j) = points[j]**t for t in [0, rows)."""
    if rows < 1:
        raise ValueError("vandermonde_matrix needs rows >= 1")
    for x in points:
        ctx.check(x)
    if len(set(points)) != len(points):
        raise ValueError(f"vandermonde points must be pairwise distinct, got {points}")
    return [[ctx.pow(x, t) for x in points] for t in range(rows)]


def matrix_inverse(ctx: FieldContext, matrix: list[list[int]]) -> list[list[int]]:
    """Inverse of a square matrix over F_p by Gauss-Jordan elimination.

    Raises SingularMatrixError when the matrix is not invertible.
    """
    m = len(matrix)
    if m < 1 or any(len(row) != m for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    p = ctx.p
    a = [[ctx.check(x) for x in row] for row in matrix]
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
