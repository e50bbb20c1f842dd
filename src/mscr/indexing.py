"""Index algebra over the s-ary coordinate space Z_s^n.

An index vector a = (a_0, ..., a_{n-1}) is a tuple of digits, digit i in
[0, s), stored little-endian: digit i carries weight s**i, so the tuple is
in bijection with the integer sum(a_i * s**i).  All set-valued operations
return ascending integer order, which is the canonical order used by
transcripts, file layouts, and tests.
"""

from __future__ import annotations


def delta(x: int) -> int:
    """1 if x == 0 else 0."""
    return 1 if x == 0 else 0


def vec_to_int(digits: tuple[int, ...], s: int) -> int:
    value = 0
    for i, d in enumerate(digits):
        if not 0 <= d < s:
            raise ValueError(f"digit {d} at position {i} out of range [0,{s})")
        value += d * s**i
    return value


def int_to_vec(a: int, n: int, s: int) -> tuple[int, ...]:
    if not 0 <= a < s**n:
        raise ValueError(f"index {a} out of range [0,{s ** n})")
    return tuple((a // s**i) % s for i in range(n))


def sub_index(a: int, i: int, v: int, s: int) -> int:
    """Integer form of substitution: index of a(i, v) given the index of a."""
    return a + (v - (a // s**i) % s) * s**i


def union_v_indices(coords, n: int, s: int) -> list[int]:
    coords = sorted(set(coords))
    if not coords:
        raise ValueError("union over an empty coordinate set")
    for i in coords:
        if not 0 <= i < n:
            raise ValueError(f"coordinate {i} out of range [0,{n})")
    weights = [s**i for i in coords]
    return [a for a in range(s**n) if any((a // w) % s == 0 for w in weights)]


def union_v_size(n: int, s: int, m: int) -> int:
    """Closed form |V_{i_1} u ... u V_{i_m}| = s^(n-m) (s^m - (s-1)^m)."""
    return s ** (n - m) * (s**m - (s - 1) ** m)
