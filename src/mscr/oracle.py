"""Independent baselines for validating the repair pipeline.

Deliberately reuses only the any-k decoder (code.erase_decode), never the
repair engine, so a repair bug cannot mask itself.  Columns of one stripe
are passed as {node index: (planes, s^n) array}, as for repair.run_repair.
Transcript recounting parses the exported text format on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import CodeParams, erase_decode


@dataclass
class NaiveRepairResult:
    """Repair-by-decoding output with its bandwidth cost."""

    columns: dict[int, np.ndarray]  # failed node -> repaired column, ascending
    per_node_bandwidth: int  # kN: one full decode per failed node
    total_bandwidth: int  # h * kN


def naive_repair(failed, surviving: dict, params: CodeParams) -> NaiveRepairResult:
    """Classical MDS repair: download k whole columns, decode, re-extract.

    Uses the k lowest-indexed survivors.  Bandwidth is kN per failed node.
    """
    failed = sorted(set(failed))
    if set(failed) & set(surviving):
        raise ValueError("failed nodes listed among the survivors")
    if len(surviving) < params.k:
        raise ValueError(f"need at least k={params.k} surviving columns, got {len(surviving)}")
    # one stripe, passed to the decoder as a batch of one
    cw = erase_decode(params, {i: np.asarray(surviving[i])[None]
                               for i in sorted(surviving)[: params.k]})[:, 0]
    kn = params.k * params.N
    return NaiveRepairResult(columns={i: cw[i] for i in failed}, per_node_bandwidth=kn,
                             total_bandwidth=len(failed) * kn)


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
