"""Independent baselines for validating the engine: the five oracles.

parity_residual evaluates one parity check by its definition, check_matrix
writes a plane's checks as one matrix, naive_repair repairs by the any-k
decoder, recount recounts bandwidth from an exported transcript's text, and
access_set lists the symbols a helper reads.  So that an engine bug cannot
mask itself, this module imports from the package only code.CodeParams,
code.erase_decode and code.check_below, never repair, storage or metrics
(tests/test_layers.py checks it).  naive_repair takes a batch of stripes as
{node index: (stripes, planes, s^n) array}, as repair.run_repair does.

The oracles' scalar index algebra over Z_s^n is here too.  An index vector
a = (a_0, ..., a_{n-1}) is a tuple of digits, digit i in [0, s), stored
little-endian: digit i carries weight s**i, so the tuple is in bijection
with the integer sum(a_i * s**i).  All set-valued operations return
ascending integer order, which is the canonical order used by transcripts,
file layouts, and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import CodeParams, check_below, erase_decode

# --- index algebra over Z_s^n ----------------------------------------------

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


def parity_residual(params: CodeParams, cw: np.ndarray, t: int, b: int, a) -> int:
    """Scalar evaluation of one parity check of the codeword cw, an
    (n, planes, s^n) array; zero on valid codewords.

    Deliberately independent of the vectorized solver path: plain integer
    arithmetic over the definition, reduced mod p, usable as an oracle
    against it.
    """
    p = params.p
    check_below(np.asarray(cw), p, "codeword symbols")
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
        acc += pow(params.lambdas[i], t, p) * int(cw[i, b - 1, a_int])
        if delta(digits[i]):
            for e in range(1, params.s):
                a_sub = sub_index(a_int, i, e, params.s)
                acc += pow(params.mus[e - 1], t, p) * int(cw[i, b - 1, a_sub])
    return acc % p


def check_matrix(params: CodeParams) -> np.ndarray:
    """The paper's parity checks of one plane as an (r s^n) x (n s^n)
    matrix H over [0, p): row t s^n + a is check (t, a), column i s^n + a'
    is node i's symbol at index a', so H c = 0 (mod p) for every plane c of
    a codeword, its columns laid end to end.  Plain loops over the
    definition, as parity_residual evaluates one check."""
    p, n, s, size = params.p, params.n, params.s, params.s_pow_n
    H = np.zeros((params.r * size, n * size), dtype=np.int64)
    for t in range(params.r):
        for a in range(size):
            digits = int_to_vec(a, n, s)
            for i in range(n):
                H[t * size + a, i * size + a] += pow(params.lambdas[i], t, p)
                if delta(digits[i]):
                    for e in range(1, s):
                        H[t * size + a, i * size + sub_index(a, i, e, s)] += \
                            pow(params.mus[e - 1], t, p)
    return H % p


def naive_repair(failed, surviving: dict, params: CodeParams) -> dict[int, np.ndarray]:
    """Classical MDS repair: download k whole columns, decode, re-extract.

    Uses the k lowest-indexed survivors' (stripes, planes, s^n) columns and
    returns {failed node: (stripes, planes, s^n) column}, ascending.
    Bandwidth is kN per failed node and stripe.
    """
    failed = sorted(set(failed))
    if set(failed) & set(surviving):
        raise ValueError("failed nodes listed among the survivors")
    if len(surviving) < params.k:
        raise ValueError(f"need at least k={params.k} surviving columns, got {len(surviving)}")
    cw = erase_decode(params, {i: surviving[i] for i in sorted(surviving)[: params.k]})
    return {i: cw[i] for i in failed}


@dataclass
class Recount:
    gamma: int
    per_edge: dict[tuple[str, int, int], int]


def recount(transcript_text: str) -> Recount:
    """Recount bandwidth from an exported transcript, independently.

    Accepts the line format `phase from to count hexblob` (blob optional when
    count is 0).  Raises ValueError on any malformed line.
    """
    per_edge: dict[tuple[str, int, int], int] = {}
    gamma = 0
    for ln, line in enumerate(transcript_text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) not in (4, 5):
            raise ValueError(f"transcript line {ln}: expected 4 or 5 fields, got {len(parts)}")
        phase, frm, to = parts[0], parts[1], parts[2]
        if phase not in ("download", "cooperative"):
            raise ValueError(f"transcript line {ln}: unknown phase {phase!r}")
        try:
            frm_i, to_i, count = int(frm), int(to), int(parts[3])
        except ValueError as exc:
            raise ValueError(f"transcript line {ln}: non-integer field") from exc
        if count < 0:
            raise ValueError(f"transcript line {ln}: negative count")
        blob = parts[4] if len(parts) == 5 else ""
        if len(blob) != 4 * count:
            raise ValueError(
                f"transcript line {ln}: {count} symbols need {4 * count} hex chars, got {len(blob)}"
            )
        if blob:
            try:
                int(blob, 16)
            except ValueError as exc:
                raise ValueError(f"transcript line {ln}: invalid hex payload") from exc
        key = (phase, frm_i, to_i)
        per_edge[key] = per_edge.get(key, 0) + count
        gamma += count
    return Recount(gamma=gamma, per_edge=per_edge)


def access_set(u: int, job) -> set[tuple[int, tuple[int, ...]]]:
    """Exact index set a helper reads: the h repair planes in full, plus the
    first d-k planes on the union of the failed nodes' zero-digit sets.

    The shape is the same for every helper; u is validated against R.
    """
    params = job.params
    if u not in job.helpers:
        raise ValueError(f"node {u} is not a helper in {job.helpers}")
    n, s = params.n, params.s
    out: set[tuple[int, tuple[int, ...]]] = set()
    for b in range(params.d - params.k + 1, params.planes + 1):
        out.update((b, int_to_vec(a, n, s)) for a in range(params.s_pow_n))
    union = union_v_indices(job.failed, n, s)
    for b in range(1, params.d - params.k + 1):
        out.update((b, int_to_vec(a, n, s)) for a in union)
    return out
