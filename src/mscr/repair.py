"""Two-phase cooperative repair of exactly h failed nodes.

The engine is a deterministic in-process simulation.  Helpers serve payloads
computed from their own column only, and each failed node's recovery is a
function of the payloads it received only, never of the global codeword.
Every download payload is delivered and processed before any cooperative
payload is produced.  Columns are plain (planes, s^n) int64 arrays:
run_repair takes the survivors as {node index: column} and returns the
repaired columns the same way.

Per failed node i (sorted position j in the failed set, repair plane
P_j = d-k+j) the download phase carries, from every helper u,

    D1: c[u, P_j, a]                      for a in V_i,
    D2: c[u, b, a] + c[u, P_j, a(i,b)]    for b in 1..d-k, a in V_i,

(d-k+1)s^(n-1) = N/(d-k+h) symbols per edge.  Each of these d-k+1 slices
satisfies, per a in V_i, the same r x r Vandermonde system: its unknown
points are the lambdas outside the helper set plus the mus.  The solve
yields every node's value of each slice on V_i, and extra unknowns Delta_e
that absorb the substitution terms; stripping those against the solved
values isolates node i's own symbols.  In the cooperative phase node i
forwards the slice values of each other failed node t, which completes its
plane P_j from them.

One pass serves every failed node, helper and pair at once, through index
maps cached per (params, E, R) and stacked over the h failed nodes:

- pay = gathers of the stacked (d, planes*s^n) helper block; pay[:, j] is
  what the d helpers send node j.
- One product with the (n + d-k) x d operator [I; -V^-1 Lambda] turns
  pay[:, j] into full[j], every node's d-k+1 slice values on V_i, and node
  j's Deltas.  Column j of the product reads pay[:, j] only.
- The Delta correction is one masked gather over all nodes; one scatter
  writes each node's recovered planes.
- The cooperative payload j -> t is full[j, t], derived from j's downloads
  alone; one gather, one subtraction of t's recovered planes 1..d-k and one
  scatter complete all h(h-1) exchanges.

The helper block is checked once: each column's shape, then one range check
over all d columns.  The transcript keeps pay and full and builds its
messages and access logs on demand, the first time each is read, so a caller
that reads one stripe's transcript of many pays for that one only.

Integer bounds: symbols are int64 in [0, p) with p < 2^16, and every
intermediate is a sum of at most n + 2 terms below p^2, far inside 2^63.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .code import CodeParams, _as_column_block
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
        # hashed once: _context looks the job up on every run_repair call, and
        # hashing the fields walks all of CodeParams
        object.__setattr__(self, "_hash", hash((params, self.failed, self.helpers)))

    def __hash__(self) -> int:
        return self._hash

    def slot_of(self, node: int) -> int:
        """1-based position of a failed node in ascending order."""
        return self.failed.index(node) + 1

    def repair_plane(self, node: int) -> int:
        """Plane d-k+j assigned to failed node with slot j."""
        return self.params.d - self.params.k + self.slot_of(node)


class _JobContext:
    """Everything derivable from (params, E, R) alone, shared across stripes.

    Failed node j (slot j in sorted E, coordinate i) owns the positions
    cols_j[e] = V_i with digit i set to e, for e in 0..s-1, and its slice t
    lives in plane row rows_j[t]: its repair plane d-k+j for t = 0, plane t
    for t >= 1.  Every map below is stacked over j (and over the h(h-1)
    cooperative pairs); positions are flat, row * s^n + index.
    """

    def __init__(self, job: RepairJob):
        params = job.params
        n, s, h, p = params.n, params.s, params.h, params.p
        dk, width, size = params.d - params.k, params.s_pow_n, params.s_pow_n // params.s
        unknown = [i for i in range(n) if i not in job.helpers]
        points = [params.lambdas[w] for w in unknown] + list(params.mus)
        vm = vandermonde_matrix(params.field, points, params.r)
        inverse = np.array(matrix_inverse(params.field, vm), dtype=np.int64)
        powers = np.array(
            [[params.field.pow(params.lambdas[u], t) for u in job.helpers] for t in range(params.r)],
            dtype=np.int64,
        )
        # solve @ downloads: rows 0..n-1 are every node's slice values (identity
        # rows for helpers, -V^-1 Lambda rows for the others), rows n.. the Deltas
        self.solve = np.zeros((n + dk, params.d), dtype=np.int64)
        self.solve[list(job.helpers), range(params.d)] = 1
        self.solve[unknown + list(range(n, n + dk))] = (-(inverse @ powers)) % p

        # place[j, t, e, q]: node j's plane rows_j[t] at cols_j[e][q]
        place = np.empty((h, s, s, size), dtype=np.int64)
        # node j's Delta_e of slice t at q is the sum over w of
        # masks[w, j, 0, 0, q] * y.flat[delta_gather[w, j, t, e-1, q]]: masks is
        # 1 when w != i and digit w of V_i[q] is zero, and the gather points at
        # node w's slice t on V_i with digit w set to e
        self.masks = np.zeros((n, h, 1, 1, size), dtype=np.int64)
        self.delta_gather = np.zeros((n, h, s, dk, size), dtype=np.int64)
        for j, i in enumerate(job.failed):
            vidx = np.array(v_indices(i, n, s), dtype=np.int64)
            cols = vidx + np.arange(s)[:, None] * s**i
            rows = np.array([dk + j, *range(dk)])
            place[j] = rows[:, None, None] * width + cols
            pos = np.full(width, -1, dtype=np.int64)
            pos[vidx] = np.arange(size)
            for w in range(n):
                if w == i:
                    continue
                digit = (vidx // s**w) % s
                self.masks[w, j, 0, 0] = digit == 0
                slot = (w * h + j) * s + np.arange(s)[:, None]
                for e in range(1, s):
                    self.delta_gather[w, j, :, e - 1] = slot * size + pos[vidx + (e - digit) * s**w]

        # downloads: helper reads place[j, t, 0] for slice t, plus place[j, 0, t] for t >= 1
        self.download, self.cross = place[:, :, 0], place[:, 0, 1:]
        # every symbol a helper reads, as (1-based plane, indices) from the gathers
        self.reads = [(int(g[0]) // width + 1, g % width)
                      for g in np.concatenate([self.download, self.cross], axis=1).reshape(-1, size)]
        base = (np.arange(h) * params.planes * width)[:, None, None, None]
        self.failed = np.array(job.failed, dtype=np.int64)
        self.download_scatter = base + place
        # cooperative pair (receiver, sender), receiver-major as in the transcript
        pairs = [(jr, js) for jr in range(h) for js in range(h) if js != jr]
        recv, send = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        self.recv_nodes, self.send = self.failed[recv], send
        self.coop_known = base[recv, 0] + place[send, 1:, 0]
        self.coop_scatter = base[recv, 0] + place[send, 0]


@lru_cache(maxsize=None)
def _context(job: RepairJob) -> _JobContext:
    return _JobContext(job)


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
    """Every message of a repair run plus the helpers' disk-access logs.

    Holds the run's payload arrays and builds `messages` and `access_logs`
    from them the first time each is read, so a caller that reads neither
    pays for neither.
    """

    def __init__(self, job: RepairJob, pay: np.ndarray, full: np.ndarray):
        self.job = job
        self._pay = pay  # pay[m, j]: helper m's download payload to failed node j
        self._full = full  # full[j, t]: failed node j's cooperative payload to node t

    @cached_property
    def messages(self) -> list[RepairMessage]:
        """Downloads grouped by receiver, then cooperative messages by receiver."""
        job = self.job
        return [
            RepairMessage(DOWNLOAD, u, node, self._pay[m, j].reshape(-1))
            for j, node in enumerate(job.failed) for m, u in enumerate(job.helpers)
        ] + [
            RepairMessage(COOPERATIVE, sender, receiver, self._full[js, receiver].reshape(-1))
            for receiver in job.failed for js, sender in enumerate(job.failed) if sender != receiver
        ]

    @cached_property
    def access_logs(self) -> dict[int, AccessLog]:
        reads = _context(self.job).reads
        logs = {u: AccessLog(u) for u in self.job.helpers}
        for log in logs.values():
            for plane, idx in reads:
                log.add(plane, idx)
        return logs

    def per_edge_counts(self) -> dict[tuple[str, int, int], int]:
        out: dict[tuple[str, int, int], int] = {}
        for m in self.messages:
            key = (m.phase, m.sender, m.receiver)
            out[key] = out.get(key, 0) + m.count
        return out

    def export_text(self) -> str:
        """One message per line: `phase from to count` then hex symbols."""
        lines = []
        for m in self.messages:
            blob = "".join(f"{int(v):04x}" for v in m.values)
            lines.append(f"{m.phase} {m.sender} {m.receiver} {m.count} {blob}")
        return "\n".join(lines) + ("\n" if lines else "")


def run_repair(job: RepairJob, surviving: dict) -> tuple[dict[int, np.ndarray], RepairTranscript]:
    """Execute both phases.  surviving maps node index to its (planes, s^n)
    column (or N flat symbols) and must cover every helper; other entries are
    ignored.  Returns {failed node: repaired column}, ascending, and the
    transcript, whose messages and per-helper access logs are built when
    first read."""
    params = job.params
    ctx = _context(job)
    missing = [u for u in job.helpers if u not in surviving]
    if missing:
        raise ValueError(f"surviving columns must cover every helper; missing {missing}")
    p, n, h, s = params.p, params.n, params.h, params.s
    helpers = _as_column_block(params, [surviving[u] for u in job.helpers]).reshape(params.d, -1)

    # download phase: pay[m, j] is helper m's payload to failed node j
    pay = np.take(helpers, ctx.download, axis=1)
    pay[:, :, 1:] += np.take(helpers, ctx.cross, axis=1)
    pay %= p
    y = ((ctx.solve @ pay.reshape(params.d, -1)) % p).reshape(n + s - 1, h, s, -1)
    full = y[:n].swapaxes(0, 1)
    delta = (ctx.masks * y.reshape(-1)[ctx.delta_gather]).sum(axis=0)
    # own[j, t, e] fills node j's positions ctx.download_scatter[j, t, e]
    own = np.empty(ctx.download_scatter.shape, dtype=np.int64)
    own[:, :, 1:] = y[n:].transpose(1, 2, 0, 3) - delta
    own[:, :, 0] = full[np.arange(h), ctx.failed]
    # on V, slice t >= 1 holds c[node, t, a] + c[node, repair plane, a(i, t)]
    own[:, 1:, 0] -= own[:, 0, 1:]
    own %= p
    repaired = np.empty((h, params.planes, params.s_pow_n), dtype=np.int64)
    flat = repaired.reshape(-1)
    flat[ctx.download_scatter] = own

    # cooperative phase: sender j's payload to t is full[j, t]; t completes
    # j's repair plane from it and its own planes 1..d-k
    coop = full[ctx.send, ctx.recv_nodes]
    coop[:, 1:] -= flat[ctx.coop_known]
    flat[ctx.coop_scatter] = coop % p

    return dict(zip(job.failed, repaired)), RepairTranscript(job, pay, full)
