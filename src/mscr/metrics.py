"""Bandwidth and disk-access accounting: closed forms, bounds, and tables.

Everything here is exact: ratios are fractions.Fraction, measured quantities
are integer symbol counts.  Decimal rendering happens only at the
presentation layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .code import CodeParams
from .indexing import int_to_vec, union_v_indices, union_v_size


class AccessLog:
    """The (plane, index) symbols one helper reads from disk, as a boolean
    (planes, s^n) mask: a helper reads each needed symbol once and serves
    every failed node from that one pass."""

    def __init__(self, helper: int, mask: np.ndarray):
        self.helper, self.mask = helper, mask

    def count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def vector_set(self, params: CodeParams) -> set[tuple[int, tuple[int, ...]]]:
        """The reads as (1-based plane, index vector) pairs, as access_set gives them."""
        return {(int(b0) + 1, int_to_vec(int(a), params.n, params.s))
                for b0, a in np.argwhere(self.mask)}


@dataclass
class RepairMetrics:
    """Measured accounting of one repair run, all in field symbols."""

    beta1: int
    beta2: int
    gamma: int
    gamma_A: int
    per_helper_access: dict[int, int]

    @classmethod
    def from_run(cls, job, transcript) -> "RepairMetrics":
        """Derive metrics from a transcript (with access logs) of run_repair."""
        params = job.params
        per_edge = transcript.per_edge_counts()
        down = {e: c for e, c in per_edge.items() if e[0] == "download"}
        coop = {e: c for e, c in per_edge.items() if e[0] == "cooperative"}
        beta1 = _uniform_count(down, expected_edges=params.d * params.h)
        beta2 = _uniform_count(coop, expected_edges=params.h * (params.h - 1))
        gamma = sum(per_edge.values())
        if gamma != params.h * (params.d * beta1 + (params.h - 1) * beta2):
            raise ValueError("transcript violates gamma = h(d*beta1 + (h-1)*beta2)")
        per_helper = {u: log.count() for u, log in transcript.access_logs.items()}
        return cls(
            beta1=beta1,
            beta2=beta2,
            gamma=gamma,
            gamma_A=sum(per_helper.values()),
            per_helper_access=per_helper,
        )


def _uniform_count(edges: dict, expected_edges: int) -> int:
    if expected_edges == 0:
        return 0
    if len(edges) != expected_edges:
        raise ValueError(f"expected {expected_edges} edges, transcript has {len(edges)}")
    counts = set(edges.values())
    if len(counts) != 1:
        raise ValueError(f"edge symbol counts are not uniform: {sorted(counts)}")
    return counts.pop()


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


def access_count(job) -> int:
    """|access_set(u)| without materializing it: h*s^n + (d-k)*|union V|."""
    params = job.params
    return params.h * params.s_pow_n + (params.d - params.k) * union_v_size(
        params.n, params.s, params.h
    )


def g_ratio(d_minus_k: int, h: int) -> Fraction:
    """Fraction of a helper column read by the repair scheme.

    G(d-k, h) = 1 - (d-k)/(d-k+h) * (1 - 1/(d-k+1))**h, exactly.
    """
    if d_minus_k < 1:
        raise ValueError(f"d-k must be positive, got {d_minus_k}")
    if h < 1:
        raise ValueError(f"h must be positive, got {h}")
    dk = Fraction(d_minus_k)
    return 1 - dk / (dk + h) * (1 - Fraction(1, d_minus_k + 1)) ** h


def access_envelope(d_minus_k: int, h: int) -> Fraction:
    """Strict upper bound on G: h/(d-k+h) * (2 - 1/(d-k+1))."""
    if d_minus_k < 1 or h < 1:
        raise ValueError("arguments must be positive")
    return Fraction(h, d_minus_k + h) * (2 - Fraction(1, d_minus_k + 1))


def optimal_access_ratio(d_minus_k: int, h: int) -> Fraction:
    """The optimal-access fraction h/(d-k+h)."""
    if d_minus_k < 1 or h < 1:
        raise ValueError("arguments must be positive")
    return Fraction(h, d_minus_k + h)


@dataclass(frozen=True)
class Bounds:
    """Cut-set reference values for one parameter set (symbols, exact)."""

    single: Fraction  # d N / (d-k+1), one failed node
    centralized: Fraction  # d h N / (d-k+h)
    cooperative: Fraction  # h (d+h-1) N / (d-k+h)
    access: Fraction  # d h N / (d-k+h)


def bounds(params: CodeParams) -> Bounds:
    d, k, h, N = params.d, params.k, params.h, params.N
    return Bounds(
        single=Fraction(d * N, d - k + 1),
        centralized=Fraction(d * h * N, d - k + h),
        cooperative=Fraction(h * (d + h - 1) * N, d - k + h),
        access=Fraction(d * h * N, d - k + h),
    )


# --- comparison table -------------------------------------------------------

DEFAULT_TABLE_ROWS: tuple[tuple[int, int], ...] = (
    (1, 2), (2, 2), (3, 2), (4, 2), (5, 2),
    (1, 3), (2, 3), (3, 3), (4, 3), (5, 3),
)


@dataclass(frozen=True)
class TableRow:
    d_minus_k: int
    h: int
    g: Fraction
    envelope: Fraction
    optimal: Fraction

    def rendered(self) -> tuple[str, str, str]:
        return (f"{float(self.g):.4f}", f"{float(self.envelope):.4f}", f"{float(self.optimal):.4f}")


def comparison_table(rows=None) -> list[TableRow]:
    if rows is None:
        rows = DEFAULT_TABLE_ROWS
    return [
        TableRow(dk, h, g_ratio(dk, h), access_envelope(dk, h), optimal_access_ratio(dk, h))
        for dk, h in rows
    ]


def render_table_text(table: list[TableRow]) -> str:
    header = f"{'(d-k,h)':>8}  {'G(d-k,h)':>18}  {'upper envelope':>18}  {'optimal h/(d-k+h)':>18}"
    lines = [header, "-" * len(header)]
    for row in table:
        g4, e4, o4 = row.rendered()
        lines.append(
            f"({row.d_minus_k},{row.h})".rjust(8)
            + f"  {g4} ={str(row.g):>9}"
            + f"  {e4} ={str(row.envelope):>9}"
            + f"  {o4} ={str(row.optimal):>9}"
        )
    return "\n".join(lines)


def render_table_csv(table: list[TableRow]) -> str:
    lines = ["d_minus_k,h,g,g_4dp,envelope,envelope_4dp,optimal,optimal_4dp"]
    for row in table:
        g4, e4, o4 = row.rendered()
        lines.append(
            f"{row.d_minus_k},{row.h},{row.g},{g4},{row.envelope},{e4},{row.optimal},{o4}"
        )
    return "\n".join(lines)

