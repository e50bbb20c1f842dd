"""Independent baselines for validating the repair pipeline.

Deliberately reuses only the any-k decoder (code.erase_decode), never the
repair engine, so a repair bug cannot mask itself.  Columns are passed as
{node index: (planes, s^n) array}, as for repair.run_repair.  Transcript
recounting parses the exported text format from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .code import CodeParams, erase_decode
from .indexing import int_to_vec


@dataclass
class NaiveRepairResult:
    """Repair-by-decoding output with its bandwidth cost."""

    columns: dict[int, np.ndarray]  # failed node -> repaired column, ascending
    per_node_bandwidth: int  # kN: one full decode per failed node
    total_bandwidth: int  # h * kN


@dataclass
class OracleReport:
    match: bool
    mismatches: list[tuple[int, int, tuple[int, ...]]] = field(default_factory=list)
    baseline_bandwidth: int = 0


def naive_repair(failed, surviving: dict, params: CodeParams) -> NaiveRepairResult:
    """Classical MDS repair: download k whole columns, decode, re-extract.

    Uses the k lowest-indexed survivors.  Bandwidth is kN per failed node.
    """
    failed = sorted(set(failed))
    if set(failed) & set(surviving):
        raise ValueError("failed nodes listed among the survivors")
    if len(surviving) < params.k:
        raise ValueError(f"need at least k={params.k} surviving columns, got {len(surviving)}")
    cw = erase_decode({i: surviving[i] for i in sorted(surviving)[: params.k]}, params)
    kn = params.k * params.N
    return NaiveRepairResult(columns={i: cw[i] for i in failed}, per_node_bandwidth=kn,
                             total_bandwidth=len(failed) * kn)


def cross_check(cooperative_columns: dict, naive: NaiveRepairResult, params: CodeParams) -> OracleReport:
    """Symbol-by-symbol comparison of the two repair pipelines' outputs."""
    coop, base = cooperative_columns, naive.columns
    if set(coop) != set(base):
        raise ValueError(f"pipelines repaired different nodes: {sorted(coop)} vs {sorted(base)}")
    mismatches = []
    for i in sorted(coop):
        diff = coop[i] != base[i]
        for b0, a in zip(*np.nonzero(diff)):
            mismatches.append((i, int(b0) + 1, int_to_vec(int(a), params.n, params.s)))
    return OracleReport(
        match=not mismatches,
        mismatches=mismatches,
        baseline_bandwidth=naive.per_node_bandwidth,
    )


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
