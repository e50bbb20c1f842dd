"""The MDS array code: parameters, parity checks, encoding, and erasure decoding.

A codeword stores, per node i, symbols c[i, b, a] over planes b in [1, P]
(P = d-k+h) and index vectors a in Z_s^n.  Every (t, b, a) with t in [0, r)
imposes the check

    sum_i lambda_i^t c[i,b,a]  +  sum_i delta(a_i) sum_e mu_e^t c[i,b,a(i,e)] = 0.

The field is its prime p (CodeParams.p): a symbol is a plain int in [0, p),
and encode and erase_decode reject any other input through field.check_below
before they cast or compute (so does the scalar oracle.parity_residual).

The checks never mix planes.  For an erased node set E with m = |E| <= r,
solve_erased peels the unknowns of a plane in layers, the structure of Ye and
Barg's cooperative MDS construction ("Cooperative repair: constructions of
optimal MDS codes for all admissible parameters", IEEE Trans. IT, 2019):

- Layer z holds the index vectors a with z(a) = z, the number of erased
  coordinates i with a_i = 0.
- A substitution term c[i, a(i,e)] of an erased i has a_i = 0 replaced by
  e != 0, so it lies in layer z(a) - 1.  In layer 0 there is none.
- So once layers below z are solved, the checks t < m at each a in layer z
  are an m x m Vandermonde system in the erased lambdas: the known nodes'
  contributions K (_known_contrib) plus the solved substitution terms S on
  the right, c[E, b, a] = -V^-1 (K + S).  V depends on E only, so each layer
  costs one product of -V^-1, built once per solve, with every (a, stripe)
  of the layer.

The checks t >= m are not used by the solve; erase_decode then runs the full
residual sweep (failing_checks), which rejects inputs that lie on no codeword
and would also catch a wrapped accumulator in the solve.

Integer bounds: stored symbols are uint16 in [0, p), p < 2^16, and the
kernels compute in accumulator_dtype(params): int16 when B = n s (p-1)^2 is
below 2^15, int32 when it is below 2^31, and int64 otherwise.  No
intermediate exceeds B, whatever the dtype:
- K is summed unreduced over the known nodes and reduced once; each node adds
  at most s(p-1)^2 to an entry (_known_contrib).
- S is added onto the reduced K once per e, as mu_e^t times the unreduced sum
  of at most m < n solved symbols, so an entry of K + S stays below
  p + (s-1)m(p-1)^2 <= ((s-1)(n-1) + 1)(p-1)^2 <= B (p >= 3), and is reduced
  once before the solve.
- Each entry of -V^-1 (K + S) is a sum of m < n products below (p-1)^2.
At the default fields of small codes B is a few hundred ((6,2,3,3) at p = 7
has B = 12 * 6^2 = 432), so they run in int16; at n s = 12 int16 holds every
p up to 53 (12 * 52^2 = 32448 < 2^15), and p = 59 takes int32.  Every code
whose s^n index vectors fit in memory has s < n < 64, so B < 2^44 and int64
cannot overflow.  _known_contrib copies each uint16 column into the
accumulator dtype before any product: numpy 2 computes a uint16 array times
a Python int in uint16, which would wrap.

Files hold many independent codewords (stripes), and every function here
takes a batch of them: a node's column is a (stripes, planes, s^n) array and
a batch of codewords an (n, stripes, planes, s^n) array, stored uint16.
encode and erase_decode are the one encoder and decoder: storage calls them
once per block of stripes, and a one-stripe caller passes a batch of one.
The peel depends only on the erased set, so solve_erased and failing_checks
fold the batch into (stripes * planes, s^n) rows, one pass for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import (
    check_below,
    is_prime,
    matrix_inverse,
    smallest_prime_at_least,
    vandermonde_matrix,
)


class InconsistentCodewordError(ValueError):
    """Supplied symbols do not lie on any codeword: a check of `stripe`
    (0-based) on `plane` (1-based) fails."""

    def __init__(self, stripe: int, plane: int):
        super().__init__(
            f"symbols are not jointly on any codeword (stripe {stripe}, plane {plane})")
        self.stripe, self.plane = stripe, plane


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
    for name, points, first in (("lambda", lambdas, 0), ("mu", mus, 1)):
        for i, x in enumerate(points, start=first):
            check_below(x, p, f"evaluation point {name}_{i}={x!r}")
    points = lambdas + mus
    if len(set(points)) != len(points):
        raise ValueError(f"evaluation points must be pairwise distinct, got {points}")
    return CodeParams(
        n=n, k=k, d=d, h=h, r=r, s=s, planes=planes,
        N=planes * s**n, p=p, lambdas=lambdas, mus=mus,
    )


# --- vectorized machinery -------------------------------------------------

def plane_geometry(params: CodeParams):
    """The engine's one index geometry, read by the peel and by repair:
    per-coordinate zero-digit masks and substitution index maps.

    Returns (masks, subs): masks[i] is a bool array over Z_s^n marking a_i == 0,
    subs[i][e-1][a] is the integer index of a(i, e).
    """
    n, s = params.n, params.s
    idx = np.arange(params.s_pow_n)
    masks = []
    subs = []
    for i in range(n):
        w = s**i
        digit = (idx // w) % s
        masks.append(digit == 0)
        subs.append([idx + (e - digit) * w for e in range(1, s)])
    return masks, subs


def accumulator_dtype(params: CodeParams) -> type:
    """The narrowest of int16, int32 and int64 that holds the kernels' bound
    n s (p-1)^2 (see the module docstring)."""
    bound = params.n * params.s * (params.p - 1) ** 2
    if bound < 2**15:
        return np.int16
    return np.int32 if bound < 2**31 else np.int64


def _add_multiple(acc: np.ndarray, x: np.ndarray, c: int, tmp: np.ndarray) -> None:
    """acc += c * x in place, through the scratch array tmp.  x must already
    be in acc's dtype: numpy 2 multiplies a uint16 x by a Python int in uint16,
    which wraps."""
    if c == 1:
        acc += x
    elif c:
        np.multiply(x, c, out=tmp)
        acc += tmp


def _known_contrib(params: CodeParams, rows_of, known_nodes, rows: int) -> np.ndarray:
    """K[t, a, ...] for t < rows: the sum over known nodes j of their check
    contributions at (t, a), reduced into [0, p), in accumulator_dtype(params).

    rows_of[j] is node j's symbols, shape (R, s^n) for R rows of (stripe,
    plane) pairs, or (s^n,); K has the index axis first and the row axis
    innermost, (rows, s^n, R) or (rows, s^n).  Each known column is copied
    once, transposed, into a buffer of K's dtype, so every product below runs
    in that dtype.  Node j's substitution terms are read through the digit-j
    view (s^(n-1-j), s, s^j, ...) of that buffer: check row t gains
    lambda_j^t col everywhere and sum_e mu_e^t col[:, e] on the zero-digit
    slice [:, 0].  Products go through one temporary and are added in
    place; the sum is reduced once, at the end (the module docstring bounds
    it).
    """
    p, n, s = params.p, params.n, params.s
    shape = rows_of[known_nodes[0]].T.shape
    dtype = accumulator_dtype(params)
    out = np.zeros((rows,) + shape, dtype=dtype)
    col = np.empty(shape, dtype=dtype)
    tmp = np.empty(shape, dtype=dtype)
    for j in known_nodes:
        col[...] = rows_of[j].T
        digits = (s ** (n - 1 - j), s, s**j) + shape[1:]
        col_digits = col.reshape(digits)
        tmp_zero = tmp.reshape(digits)[:, 0]
        for t in range(rows):
            _add_multiple(out[t], col, pow(params.lambdas[j], t, p), tmp)
            zero = out[t].reshape(digits)[:, 0]
            for e in range(1, s):
                _add_multiple(zero, col_digits[:, e], pow(params.mus[e - 1], t, p), tmp_zero)
    out %= p
    return out


def _peel_plan(params: CodeParams, erased: tuple[int, ...]):
    """Everything solve_erased needs for one erased set, shared by every
    plane and stripe.

    Returns (solve_op, mu_powers, order, position, layers).  solve_op is the
    negated inverse of the m x m Vandermonde matrix of the erased lambdas
    (rows t < m), in accumulator_dtype(params), so that solve_op @ (K + S)
    gives the erased symbols of an index vector.  mu_powers[t][e-1] is mu_e^t.
    order lists Z_s^n layer by layer, ascending within a layer: the peel
    holds index vector order[x] at position x, so each layer is one slice of
    positions, and position[a] is where a is held.  layers[z] is
    (span, sources): span is layer z's slice, and sources[e-1, f, x] is
    q s^n + position[a(i, e)] for the f-th of the z erased positions q, in
    ascending order, whose coordinate i = erased[q] is zero in the layer's
    x-th index vector a; every such position lies in layer z-1's span.
    """
    m = len(erased)
    p, dtype = params.p, accumulator_dtype(params)
    masks, subs = plane_geometry(params)
    zero_at = np.array([masks[i] for i in erased])  # (m, s^n)
    sub_at = np.array([subs[i] for i in erased])  # (m, s-1, s^n): a(erased[q], e)
    zeros = zero_at.sum(axis=0)  # z(a)
    vm = vandermonde_matrix(p, [params.lambdas[i] for i in erased], m)
    solve_op = -np.array(matrix_inverse(p, vm), dtype=dtype) % p
    mu_powers = [[pow(mu, t, p) for mu in params.mus] for t in range(m)]
    # flatnonzero, not argsort: a first argsort maps about 0.4 MB more of numpy
    members_of = [np.flatnonzero(zeros == z) for z in range(m + 1)]
    order = np.concatenate(members_of)
    position = np.empty_like(order)
    position[order] = np.arange(params.s_pow_n)
    e = np.arange(params.s - 1)[:, None, None]
    layers, start = [], 0
    for z, members in enumerate(members_of):
        span = slice(start, start + len(members))
        start = span.stop
        q = np.nonzero(zero_at[:, members].T)[1].reshape(len(members), z).T  # (z, |layer|)
        layers.append((span, q * params.s_pow_n + position[sub_at[q, e, members]]))
    return solve_op, mu_powers, order, position, layers


def _as_rows(params: CodeParams, cols) -> list[np.ndarray]:
    """Each node's (stripes, planes, s^n) column as (stripes * planes, s^n)
    rows: a view of a contiguous column, else a copy, which is only read."""
    return [np.reshape(col, (-1, params.s_pow_n)) for col in cols]


def solve_erased(params: CodeParams, cols, erased: tuple[int, ...]) -> None:
    """Fill the erased columns of a batch of codewords in place.

    cols[j] is node j's column of every stripe, shape (stripes, planes, s^n);
    an (n, stripes, planes, s^n) array is such a sequence.  Every plane of
    every stripe is solved at once, as one row of (stripes * planes, s^n),
    layer by layer (see the module docstring).

    The work array, in accumulator_dtype(params), is (m, s^n, rows) with the
    row axis innermost, and its index axis is put in the plan's layer order
    one check row at a time, so each layer is a slice of it, solved in place
    as a view.  Per layer and e, the solved substitution symbols are summed
    by whole-row gathers and added, times mu_e^t, to every check row; the
    product with the plan's m x m inverse is one einsum (numpy's integer
    matmul has no BLAS path, and is slower for so small a contraction),
    reduced back into the slice.  The work array is m times the batch's
    symbols per node, the permutation copies one check row, and a layer's
    temporaries are at most m + 3 times the layer's, so callers with a whole
    file solve it a block of stripes at a time.
    """
    if not erased:
        return
    solve_op, mu_powers, order, position, layers = _peel_plan(params, erased)
    p, m = params.p, len(erased)
    known = [j for j in range(params.n) if j not in erased]
    # work[t, x, row] starts as check row t's known contributions K at index
    # vector order[x]; once that layer is solved, work[q, x, row] is
    # erased[q]'s symbol there
    work = _known_contrib(params, _as_rows(params, cols), known, m)
    for t in range(m):  # into layer order, one check row at a time
        work[t] = work[t, order]
    flat = work.reshape(m * params.s_pow_n, -1)
    for span, sources in layers:
        rhs = work[:, span]  # (m, |layer|, rows), a view
        if sources.size:
            tmp = np.empty(rhs.shape[1:], dtype=work.dtype)
            for e, src in enumerate(sources):
                g = flat[src[0]]
                for f in src[1:]:
                    g += flat[f]
                for t in range(m):
                    _add_multiple(rhs[t], g, mu_powers[t][e], tmp)
            rhs %= p
        np.remainder(np.einsum("qt,t...->q...", solve_op, rhs), p, out=rhs)
    for q, node in enumerate(erased):
        # back to index order; splitting the row axis of the transpose copies nothing
        cols[node][...] = work[q, position].T.reshape(cols[node].shape)


def failing_checks(params: CodeParams, cols) -> np.ndarray:
    """Mask (stripes, planes): True where a parity check of that stripe and
    plane is nonzero.  cols is as for solve_erased, and the work array is r
    times the batch's symbols per node."""
    contrib = _known_contrib(params, _as_rows(params, cols), range(params.n), params.r)
    return contrib.any(axis=(0, 1)).reshape(-1, params.planes)


# --- public encode / decode ------------------------------------------------

def encode(params: CodeParams, message) -> np.ndarray:
    """Systematic encode of stripes * kN message symbols, in file order, into
    (n, stripes, planes, s^n) uint16 codewords: stripe st's columns [0, k)
    hold message symbols [st kN, (st+1) kN) verbatim, in (node, plane, index)
    order, and one solve fills every stripe's parity columns."""
    msg = np.asarray(message)
    kn = params.message_length
    if msg.ndim != 1 or not msg.size or msg.size % kn:
        raise ValueError(f"message must hold a positive multiple of k*N = {kn} symbols, "
                         f"got shape {msg.shape}")
    check_below(msg, params.p, "message symbols")
    arr = np.empty((params.n, msg.size // kn, params.planes, params.s_pow_n), dtype=np.uint16)
    arr[:params.k] = msg.reshape(-1, params.k, *arr.shape[2:]).swapaxes(0, 1)
    solve_erased(params, arr, tuple(range(params.k, params.n)))
    return arr


def erase_decode(params: CodeParams, available: dict) -> np.ndarray:
    """Recover up to r = n-k missing columns of a batch of codewords.

    available maps node index to its (stripes, planes, s^n) column, in any
    integer dtype, with the same stripes for every node.  Returns the
    (n, stripes, planes, s^n) uint16 codewords.  After the solve every parity
    check of every stripe must vanish, else InconsistentCodewordError names
    the first failing stripe and plane: with fewer than r columns missing the
    system is overdetermined, and this sweep is what rejects symbols that lie
    on no codeword.
    """
    for i in available:
        if not 0 <= i < params.n:
            raise ValueError(f"node index {i} out of range [0,{params.n})")
    erased = tuple(i for i in range(params.n) if i not in available)
    if len(erased) > params.r:
        raise ValueError(f"{len(erased)} columns missing but only r={params.r} erasures are correctable")
    cols = {i: np.asarray(col) for i, col in available.items()}
    shape = next(iter(cols.values())).shape[:1] + (params.planes, params.s_pow_n)
    arr = np.empty((params.n,) + shape, dtype=np.uint16)
    for i, col in cols.items():
        if col.shape != shape:  # so col has three axes
            raise ValueError(f"node {i}: column must be shaped (stripes, planes, s^n) = (stripes, "
                             f"{params.planes}, {params.s_pow_n}), the same for all, got {col.shape}")
        check_below(col, params.p, f"node {i}: column symbols")
        arr[i] = col
    solve_erased(params, arr, erased)
    bad = failing_checks(params, arr)
    if bad.any():
        st, b0 = np.argwhere(bad)[0]
        raise InconsistentCodewordError(int(st), int(b0) + 1)
    return arr
