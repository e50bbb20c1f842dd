"""Two-phase cooperative repair of exactly h failed nodes.

The engine is a deterministic in-process simulation.  Helpers serve payloads
computed from their own column only, and each failed node's recovery is a
function of the payloads it received only, never of the global codeword.
Every download payload is delivered and processed before any cooperative
payload is produced.

Per failed node i (sorted position j in the failed set, repair plane
P_j = d-k+j) the download phase carries, from every helper u,

    D1: c[u, P_j, a]                      for a in V_i,
    D2: c[u, b, a] + c[u, P_j, a(i,b)]    for b in 1..d-k, a in V_i,

(d-k+1)s^(n-1) = N/(d-k+h) symbols per edge.  Each of these d-k+1 slices
satisfies, per a in V_i, the same r x r Vandermonde system: its unknown
points are the lambdas outside the helper set plus the mus.  Node i solves
all slices with one product.  The extra unknowns Delta_e absorb the
substitution terms and are stripped afterwards against already-recovered
values, isolating node i's own symbols.  The solve also yields every other
node's value of each slice on V_i; in the cooperative phase node i forwards
those values to each other failed node t, which completes its plane P_j
from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .code import CodeParams, NodeVector, _as_column_array
from .field import matrix_inverse, vandermonde_matrix
from .indexing import v_indices
from .metrics import AccessLog


@dataclass(frozen=True)
class RepairJob:
    """A repair instance: which nodes failed, which helpers serve it."""

    params: CodeParams
    failed: tuple[int, ...]
    helpers: tuple[int, ...]

    def __post_init__(self):
        params = self.params
        object.__setattr__(self, "failed", tuple(sorted(self.failed)))
        object.__setattr__(self, "helpers", tuple(sorted(self.helpers)))
        if len(set(self.failed)) != len(self.failed):
            raise ValueError(f"duplicate failed nodes in {self.failed}")
        if len(set(self.helpers)) != len(self.helpers):
            raise ValueError(f"duplicate helpers in {self.helpers}")
        if len(self.failed) != params.h:
            raise ValueError(
                f"repair handles exactly h={params.h} failures, got {len(self.failed)}"
            )
        if len(self.helpers) != params.d:
            raise ValueError(f"need exactly d={params.d} helpers, got {len(self.helpers)}")
        everyone = self.failed + self.helpers
        if any(not 0 <= i < params.n for i in everyone):
            raise ValueError(f"node indices out of range [0,{params.n}): {everyone}")
        if set(self.failed) & set(self.helpers):
            raise ValueError(
                f"failed and helper sets overlap: {set(self.failed) & set(self.helpers)}"
            )

    def slot_of(self, node: int) -> int:
        """1-based position of a failed node in ascending order."""
        return self.failed.index(node) + 1

    def repair_plane(self, node: int) -> int:
        """Plane d-k+j assigned to failed node with slot j."""
        return self.params.d - self.params.k + self.slot_of(node)


class _Coordinate:
    """Geometry of one failed coordinate i: its V-set and substitution maps."""

    def __init__(self, params: CodeParams, i: int):
        n, s = params.n, params.s
        self.vidx = np.array(v_indices(i, n, s), dtype=np.int64)
        size = self.vidx.size
        # shifted[e-1, q]: index of vidx[q] with digit i set to e
        self.shifted = self.vidx + np.arange(1, s)[:, None] * s**i
        pos = np.full(params.s_pow_n, -1, dtype=np.int64)
        pos[self.vidx] = np.arange(size)
        # Given the (n, s, |V|) slice values `full` of a solve, Delta_e of slice t
        # at q carries the sum over w of masks[w, q] * full.flat[gather[w, e-1, t, q]]:
        # masks[w, q] is 1 when w != i and digit w of vidx[q] is zero, and gather
        # points at node w's slice t at vidx[q] with digit w set to e.
        self.masks = np.zeros((n, 1, 1, size), dtype=np.int64)
        subpos = np.zeros((n, s - 1, 1, size), dtype=np.int64)
        for w in range(n):
            if w == i:
                continue
            weight = s**w
            digit = (self.vidx // weight) % s
            self.masks[w, 0, 0] = digit == 0
            for e in range(1, s):
                subpos[w, e - 1, 0] = pos[self.vidx + (e - digit) * weight]
        rows = np.arange(n)[:, None, None, None] * s + np.arange(s)[None, None, :, None]
        self.gather = rows * size + subpos


class _JobContext:
    """Everything derivable from (params, E, R) alone, shared across stripes."""

    def __init__(self, job: RepairJob):
        params = job.params
        self.job = job
        self.unknown_nodes = tuple(i for i in range(params.n) if i not in job.helpers)
        points = [params.lambdas[w] for w in self.unknown_nodes] + list(params.mus)
        vm = vandermonde_matrix(params.field, points, params.r)
        self.solve_op = np.array(matrix_inverse(params.field, vm), dtype=np.int64)
        self.helper_powers = np.array(
            [[params.field.pow(params.lambdas[u], t) for u in job.helpers] for t in range(params.r)],
            dtype=np.int64,
        )
        self.coords = {i: _Coordinate(params, i) for i in job.failed}


@lru_cache(maxsize=None)
def _context(job: RepairJob) -> _JobContext:
    return _JobContext(job)


def _download_payload(ctx: _JobContext, node: int, col: np.ndarray, log: AccessLog) -> np.ndarray:
    """The (d-k+1, |V|) payload a helper with column `col` sends to `node`:
    D1, then the D2 sums for b = 1..d-k.  Every symbol read goes to `log`."""
    params = ctx.job.params
    geo = ctx.coords[node]
    plane = ctx.job.repair_plane(node)
    dk = params.d - params.k
    payload = np.empty((dk + 1, geo.vidx.size), dtype=np.int64)
    payload[0] = col[plane - 1, geo.vidx]
    payload[1:] = (col[:dk, geo.vidx] + col[plane - 1, geo.shifted]) % params.p
    log.add(plane, geo.vidx)
    for b in range(1, dk + 1):
        log.add(b, geo.vidx)
        log.add(plane, geo.shifted[b - 1])
    return payload


def _process_downloads(ctx: _JobContext, node: int, received: list[np.ndarray]):
    """Recover node's planes 1..d-k and its repair plane from its downloads.

    received[m] is the payload of the m-th helper (sorted order).  Returns
    (planes, full): planes is node's (planes, s^n) column with those rows
    filled, full is the (n, d-k+1, |V|) array of every node's slice values on
    V_node.  full[t] for another failed node t is the cooperative payload to t.
    """
    params = ctx.job.params
    p = params.p
    geo = ctx.coords[node]
    payloads = np.stack(received)
    d, slices, width = payloads.shape
    rhs = (-(ctx.helper_powers @ payloads.reshape(d, -1))) % p
    solved = ((ctx.solve_op @ rhs) % p).reshape(params.r, slices, width)
    n_unknown = len(ctx.unknown_nodes)
    full = np.empty((params.n, slices, width), dtype=np.int64)
    full[list(ctx.job.helpers)] = payloads
    full[list(ctx.unknown_nodes)] = solved[:n_unknown]
    # own[e-1, t, q]: slice t's plane of node at vidx[q] with digit node set to e
    corr = (geo.masks * full.reshape(-1)[geo.gather]).sum(axis=0)
    own = (solved[n_unknown:] - corr) % p

    dk = params.d - params.k
    plane = ctx.job.repair_plane(node)
    planes = np.zeros((params.planes, params.s_pow_n), dtype=np.int64)
    planes[plane - 1, geo.vidx] = full[node, 0]
    planes[plane - 1, geo.shifted] = own[:, 0]
    planes[:dk, geo.shifted] = own[:, 1:].swapaxes(0, 1)
    # on V, slice b holds c[node,b,a] + c[node,plane,a(node,b)]; the latter is known
    planes[:dk, geo.vidx] = (full[node, 1:] - planes[plane - 1, geo.shifted]) % p
    return planes, full


def _receive_cooperative(ctx: _JobContext, planes: np.ndarray, sender: int, payload: np.ndarray) -> None:
    """Complete the sender's repair plane in `planes` from its (d-k+1, |V_sender|)
    payload: the plane on V_sender, then the cross-sums with planes 1..d-k."""
    dk = ctx.job.params.d - ctx.job.params.k
    geo = ctx.coords[sender]
    row = planes[ctx.job.repair_plane(sender) - 1]
    row[geo.vidx] = payload[0]
    row[geo.shifted] = (payload[1:] - planes[:dk, geo.vidx]) % ctx.job.params.p


# --- transcript ----------------------------------------------------------------

DOWNLOAD = "download"
COOPERATIVE = "cooperative"


@dataclass(frozen=True)
class RepairMessage:
    phase: str  # DOWNLOAD or COOPERATIVE
    sender: int
    receiver: int
    values: np.ndarray

    @property
    def count(self) -> int:
        return int(self.values.size)


class RepairTranscript:
    """Every message of a repair run plus the helpers' disk-access logs."""

    def __init__(self, job: RepairJob):
        self.job = job
        self.messages: list[RepairMessage] = []
        self.access_logs: dict[int, AccessLog] = {}

    def append(self, message: RepairMessage) -> None:
        self.messages.append(message)

    def per_edge_counts(self) -> dict[tuple[str, int, int], int]:
        out: dict[tuple[str, int, int], int] = {}
        for m in self.messages:
            key = (m.phase, m.sender, m.receiver)
            out[key] = out.get(key, 0) + m.count
        return out

    def total_symbols(self) -> int:
        return sum(m.count for m in self.messages)

    def export_text(self) -> str:
        """One message per line: `phase from to count` then hex symbols."""
        lines = []
        for m in self.messages:
            blob = "".join(f"{int(v):04x}" for v in m.values)
            lines.append(f"{m.phase} {m.sender} {m.receiver} {m.count} {blob}")
        return "\n".join(lines) + ("\n" if lines else "")


def run_repair(job: RepairJob, surviving) -> tuple[list[NodeVector], RepairTranscript]:
    """Execute both phases; returns the h repaired columns (ascending) and
    the full transcript with per-helper access logs attached."""
    params = job.params
    ctx = _context(job)
    columns = _surviving_by_index(surviving)
    missing = [u for u in job.helpers if u not in columns]
    if missing:
        raise ValueError(f"surviving columns must cover every helper; missing {missing}")
    helper_cols = {u: _as_column_array(params, columns[u].symbols) for u in job.helpers}

    transcript = RepairTranscript(job)
    transcript.access_logs = {u: AccessLog(u) for u in job.helpers}
    planes, full = {}, {}
    for node in job.failed:
        received = []
        for u in job.helpers:
            payload = _download_payload(ctx, node, helper_cols[u], transcript.access_logs[u])
            transcript.append(RepairMessage(DOWNLOAD, u, node, payload.reshape(-1)))
            received.append(payload)
        planes[node], full[node] = _process_downloads(ctx, node, received)

    for receiver in job.failed:
        for sender in job.failed:
            if sender == receiver:
                continue
            payload = full[sender][receiver]
            transcript.append(RepairMessage(COOPERATIVE, sender, receiver, payload.reshape(-1)))
            _receive_cooperative(ctx, planes[receiver], sender, payload)

    repaired = [NodeVector(i, planes[i]) for i in job.failed]
    return repaired, transcript


def _surviving_by_index(surviving) -> dict[int, NodeVector]:
    if isinstance(surviving, dict):
        items = surviving.values()
    else:
        items = surviving
    out: dict[int, NodeVector] = {}
    for col in items:
        if not isinstance(col, NodeVector):
            raise TypeError("surviving columns must be NodeVector instances")
        if col.index in out:
            raise ValueError(f"duplicate surviving column for node {col.index}")
        out[col.index] = col
    return out

