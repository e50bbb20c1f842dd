"""Bandwidth and disk-access accounting: closed forms, bounds, tables, and
RepairMetrics, which sums a repair transcript's messages and counts its
helpers' access logs (repair.AccessLog).

Everything here is exact: ratios are fractions.Fraction, measured quantities
are integer symbol counts.  Decimal rendering happens only at the
presentation layer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .code import CodeParams


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
        per_edge = Counter()
        for m in transcript.messages:
            per_edge[m.phase, m.sender, m.receiver] += m.count
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


def access_count(job) -> int:
    """|access_set(u)| without materializing it: h*s^n + (d-k)*|union V|."""
    params = job.params
    return params.h * params.s_pow_n + (params.d - params.k) * union_v_size(
        params.n, params.s, params.h
    )


def union_v_size(n: int, s: int, m: int) -> int:
    """Closed form |V_{i_1} u ... u V_{i_m}| = s^(n-m) (s^m - (s-1)^m)."""
    return s ** (n - m) * (s**m - (s - 1) ** m)


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


def comparison_table(rows) -> list[TableRow]:
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

