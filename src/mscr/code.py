"""The MDS array code: parameters, parity checks, encoding, and erasure decoding.

A codeword stores, per node i, symbols c[i, b, a] over planes b in [1, P]
(P = d-k+h) and index vectors a in Z_s^n.  Every (t, b, a) with t in [0, r)
imposes the check

    sum_i lambda_i^t c[i,b,a]  +  sum_i delta(a_i) sum_e mu_e^t c[i,b,a(i,e)] = 0.

The checks never mix planes, and substitutions a(i, e) only touch digit i, so
for an erased node set E the unknowns split into independent blocks: fix the
digits of a outside E and the |E|*s^|E| unknowns of that block close under
the coupling.  The block coefficient matrix depends only on E (not on the
plane, the frozen digits or the stripe), so it is row-reduced exactly once
and the resulting operator is applied to every block's right-hand side in
batch.

Files hold many independent codewords (stripes).  solve_erased and
failing_checks take every stripe of every node at once, as an
(n, stripes, planes, s^n) array or a list of n (stripes, planes, s^n)
columns.  Per plane they gather the right-hand sides of every block of every
stripe into the columns of one matrix, so a whole file costs one product per
plane.  encode and erase_decode are the one-stripe forms: a codeword is an
(n, planes, s^n) array, and a set of known columns is a dict from node index
to its (planes, s^n) column.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .field import (
    FieldContext,
    SingularMatrixError,
    is_prime,
    reduction_operator,
    smallest_prime_at_least,
)
from .indexing import delta, sub_index, vec_to_int


class InconsistentCodewordError(ValueError):
    """Supplied symbols do not lie on any codeword."""


@dataclass(frozen=True)
class CodeParams:
    """Validated parameter set; construct via validate_params."""

    n: int
    k: int
    d: int
    h: int
    r: int
    s: int
    planes: int  # d - k + h
    N: int  # (d - k + h) * s**n, symbols per node
    p: int
    lambdas: tuple[int, ...]
    mus: tuple[int, ...]
    field: FieldContext = dc_field(repr=False)

    @property
    def s_pow_n(self) -> int:
        return self.s**self.n

    @property
    def message_length(self) -> int:
        return self.k * self.N


def validate_params(
    n: int,
    k: int,
    d: int,
    h: int,
    p: int | None = None,
    lambdas: tuple[int, ...] | None = None,
    mus: tuple[int, ...] | None = None,
) -> CodeParams:
    """Check every structural constraint and fill in defaults.

    Default field: the smallest prime >= n+s-1.  Default evaluation points:
    lambda_i = i and mu_e = n-1+e, which are distinct whenever p >= n+s-1.
    """
    for name, v in (("n", n), ("k", k), ("d", d), ("h", h)):
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"parameter {name}={v!r} must be a positive integer")
    if not k < d <= n - 1:
        raise ValueError(f"need k < d <= n-1, got k={k}, d={d}, n={n}")
    if not 1 <= h <= n - d:
        raise ValueError(f"need 1 <= h <= n-d, got h={h}, n-d={n - d}")
    r = n - k
    s = d - k + 1
    planes = d - k + h
    if p is None:
        p = smallest_prime_at_least(n + s - 1)
    if not is_prime(p):
        raise ValueError(f"field modulus p={p} is composite")
    if p < n + s - 1:
        raise ValueError(f"field too small: p={p} < n+s-1 = {n + s - 1}")
    if p >= 2**16:
        raise ValueError(f"field modulus p={p} exceeds the supported 16-bit symbol width")
    ctx = FieldContext(p)
    if lambdas is None:
        lambdas = tuple(range(n))
    if mus is None:
        mus = tuple(n - 1 + e for e in range(1, s))
    lambdas = tuple(lambdas)
    mus = tuple(mus)
    if len(lambdas) != n:
        raise ValueError(f"need n={n} lambda points, got {len(lambdas)}")
    if len(mus) != s - 1:
        raise ValueError(f"need s-1={s - 1} mu points, got {len(mus)}")
    for x in lambdas + mus:
        ctx.check(x)
    points = lambdas + mus
    if len(set(points)) != len(points):
        raise ValueError(f"evaluation points must be pairwise distinct, got {points}")
    return CodeParams(
        n=n, k=k, d=d, h=h, r=r, s=s, planes=planes,
        N=planes * s**n, p=p, lambdas=lambdas, mus=mus, field=ctx,
    )


def _as_column_array(params: CodeParams, symbols) -> np.ndarray:
    """One node's column as int64 (planes, s^n), from that shape or N flat symbols."""
    arr = np.asarray(symbols, dtype=np.int64)
    if arr.shape == (params.N,):
        arr = arr.reshape(params.planes, params.s_pow_n)
    if arr.shape != (params.planes, params.s_pow_n):
        raise ValueError(
            f"column must hold {params.N} symbols shaped {(params.planes, params.s_pow_n)}, "
            f"got shape {arr.shape}"
        )
    if arr.min() < 0 or arr.max() >= params.p:
        raise ValueError(f"column symbols must be reduced into [0,{params.p})")
    return arr


def parity_residual(params: CodeParams, cw: np.ndarray, t: int, b: int, a) -> int:
    """Scalar evaluation of one parity check of the codeword cw, an
    (n, planes, s^n) array; zero on valid codewords.

    Deliberately independent of the vectorized solver path: plain field
    arithmetic over the definition, usable as an oracle against it.
    """
    ctx = params.field
    if not 0 <= t < params.r:
        raise ValueError(f"power index t={t} out of range [0,{params.r})")
    if not 1 <= b <= params.planes:
        raise ValueError(f"plane {b} out of range [1,{params.planes}]")
    if isinstance(a, int):
        if not 0 <= a < params.s_pow_n:
            raise ValueError(f"index {a} out of range [0,{params.s_pow_n})")
        a_int = a
        digits = tuple((a_int // params.s**i) % params.s for i in range(params.n))
    else:
        digits = tuple(a)
        if len(digits) != params.n:
            raise ValueError(f"index vector must have length n={params.n}")
        a_int = vec_to_int(digits, params.s)
    acc = 0
    for i in range(params.n):
        acc = ctx.add(acc, ctx.mul(ctx.pow(params.lambdas[i], t), int(cw[i, b - 1, a_int])))
        if delta(digits[i]):
            for e in range(1, params.s):
                a_sub = sub_index(a_int, i, e, params.s)
                acc = ctx.add(acc, ctx.mul(ctx.pow(params.mus[e - 1], t), int(cw[i, b - 1, a_sub])))
    return acc


# --- vectorized machinery -------------------------------------------------

@lru_cache(maxsize=None)
def _plane_geometry(params: CodeParams):
    """Per-coordinate zero-digit masks and substitution index maps.

    Returns (masks, subs): masks[i] is a bool array over Z_s^n marking a_i == 0,
    subs[i][e-1][a] is the integer index of a(i, e).
    """
    n, s = params.n, params.s
    size = params.s_pow_n
    idx = np.arange(size)
    masks = []
    subs = []
    for i in range(n):
        w = s**i
        digit = (idx // w) % s
        masks.append(digit == 0)
        subs.append([idx + (e - digit) * w for e in range(1, s)])
    return masks, subs


def _known_contrib(params: CodeParams, plane, known_nodes) -> np.ndarray:
    """K[t, ..., a] = sum over known nodes j of their check contributions at (t, a).

    plane[j] is node j's symbols on one plane, shape (..., s^n); the leading
    axes (the stripes) are carried through to the result.
    """
    masks, subs = _plane_geometry(params)
    p = params.p
    out = np.zeros((params.r,) + plane[known_nodes[0]].shape, dtype=np.int64)
    for j in known_nodes:
        col = plane[j]
        for t in range(params.r):
            out[t] += pow(params.lambdas[j], t, p) * col
        folded = [masks[j] * col[..., subs[j][e - 1]] for e in range(1, params.s)]
        for t in range(params.r):
            for e in range(1, params.s):
                out[t] += pow(params.mus[e - 1], t, p) * folded[e - 1]
        out %= p
    return out


@lru_cache(maxsize=None)
def _erasure_operator(params: CodeParams, erased: tuple[int, ...]):
    """Exact solve operator for the block system of an erased node set.

    Returns (solve_op, block_index).  solve_op is the negated top
    |erased| * s^|erased| rows of the row-operation matrix from
    field.reduction_operator, as int64, so that solve_op @ K gives the
    unknowns of every block whose known contributions are the columns of K.
    block_index[pat, f] is the full index of the vector whose
    erased-coordinate digits spell pat and whose remaining digits spell the
    frozen assignment f (both little-endian, ascending).
    """
    n, s, r, p = params.n, params.s, params.r, params.p
    me = len(erased)
    others = [w for w in range(n) if w not in erased]
    pat_count = s**me
    m = me * pat_count

    rows = []
    for t in range(r):
        for pat in range(pat_count):
            row = [0] * m
            for q, node in enumerate(erased):
                row[q * pat_count + pat] = (row[q * pat_count + pat] + pow(params.lambdas[node], t, p)) % p
                if (pat // s**q) % s == 0:
                    for e in range(1, s):
                        pat2 = pat + e * s**q
                        row[q * pat_count + pat2] = (
                            row[q * pat_count + pat2] + pow(params.mus[e - 1], t, p)
                        ) % p
            rows.append(row)
    solve_op = -np.array(reduction_operator(params.field, rows)[:m], dtype=np.int64) % p

    pat_offsets = np.zeros(pat_count, dtype=np.int64)
    for pat in range(pat_count):
        pat_offsets[pat] = sum(((pat // s**q) % s) * s ** erased[q] for q in range(me))
    frozen_count = s ** len(others)
    frozen_offsets = np.zeros(frozen_count, dtype=np.int64)
    for f in range(frozen_count):
        frozen_offsets[f] = sum(((f // s**q) % s) * s**w for q, w in enumerate(others))
    block_index = pat_offsets[:, None] + frozen_offsets[None, :]
    return solve_op, block_index


def solve_erased(params: CodeParams, cols, erased: tuple[int, ...], check: bool) -> None:
    """Fill the erased columns of a file's codewords in place.

    cols[j] is node j's column of every stripe, shape (stripes, planes, s^n);
    an (n, stripes, planes, s^n) array is such a sequence.  Every stripe is
    solved at once: per plane, one gather of the known contributions, one
    product with the cached operator and one scatter.  With check=True every
    parity check of every stripe must then vanish, else the supplied symbols
    lie on no codeword and InconsistentCodewordError names the first failing
    stripe and plane.
    """
    if erased:
        solve_op, block_index = _erasure_operator(params, erased)
        known = [j for j in range(params.n) if j not in erased]
        stripes = cols[0].shape[0]
        for b0 in range(params.planes):
            plane = [col[:, b0] for col in cols]  # views, (stripes, s^n) each
            kc = _known_contrib(params, plane, known).swapaxes(1, 2)
            # rows (t, pattern), columns (frozen digits, stripe)
            rhs = np.take(kc, block_index, axis=1).reshape(solve_op.shape[1], -1)
            del kc
            unknowns = solve_op @ rhs
            del rhs
            unknowns %= params.p
            unknowns = unknowns.reshape(len(erased), block_index.shape[0], -1, stripes)
            for q, node in enumerate(erased):
                plane[node].T[block_index] = unknowns[q]
    if check:
        bad = failing_checks(params, cols)
        if bad.any():
            st, b0 = np.argwhere(bad)[0]
            raise InconsistentCodewordError(
                f"symbols are not jointly on any codeword (stripe {st}, plane {b0 + 1})"
            )


def failing_checks(params: CodeParams, cols) -> np.ndarray:
    """Mask (stripes, planes): True where a parity check of that stripe and
    plane is nonzero.  cols is as for solve_erased."""
    return np.stack([
        _known_contrib(params, [col[:, b0] for col in cols], range(params.n)).any(axis=(0, 2))
        for b0 in range(params.planes)
    ], axis=1)


# --- public encode / decode ------------------------------------------------

def random_message(params: CodeParams, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, params.p, size=params.message_length, dtype=np.int64)


def encode(message, params: CodeParams) -> np.ndarray:
    """Systematic encode into an (n, planes, s^n) codeword: columns [0, k)
    store the message verbatim, in (node, plane, index) order."""
    msg = np.asarray(message, dtype=np.int64)
    if msg.shape != (params.message_length,):
        raise ValueError(f"message must hold k*N = {params.message_length} symbols, got {msg.shape}")
    if msg.size and (msg.min() < 0 or msg.max() >= params.p):
        raise ValueError(f"message symbols must be reduced into [0,{params.p})")
    arr = np.zeros((params.n, 1, params.planes, params.s_pow_n), dtype=np.int64)
    arr[: params.k, 0] = msg.reshape(params.k, params.planes, params.s_pow_n)
    erased = tuple(range(params.k, params.n))
    try:
        solve_erased(params, arr, erased, check=False)
    except SingularMatrixError as exc:  # impossible for validated params
        raise AssertionError(f"encoder solve failed for valid params: {exc}") from exc
    return arr[:, 0]


def erase_decode(available: dict, params: CodeParams) -> np.ndarray:
    """Recover up to r = n-k missing columns from the ones supplied.

    available maps node index to its column, shaped (planes, s^n) or N flat
    symbols.  Returns the (n, planes, s^n) codeword.  With fewer than r
    columns missing the system is overdetermined and the supplied symbols
    are rejected (InconsistentCodewordError) unless they lie on a codeword,
    matching the residual sweep exactly.
    """
    arr = np.zeros((params.n, 1, params.planes, params.s_pow_n), dtype=np.int64)
    for i, col in available.items():
        if not 0 <= i < params.n:
            raise ValueError(f"node index {i} out of range [0,{params.n})")
        arr[i, 0] = _as_column_array(params, col)
    erased = tuple(i for i in range(params.n) if i not in available)
    if len(erased) > params.r:
        raise ValueError(f"{len(erased)} columns missing but only r={params.r} erasures are correctable")
    solve_erased(params, arr, erased, check=True)
    return arr[:, 0]
