"""Two-phase cooperative repair of exactly h failed nodes.

The engine is a deterministic in-process simulation.  Helpers serve payloads
computed from their own column only; each failed node is an isolated state
machine fed exclusively by the messages it receives, never by the global
codeword.  Phases are separated by explicit barriers: all download payloads
are delivered and processed before any cooperative payload is produced.

Per failed node i (sorted position j in the failed set, repair plane
P_j = d-k+j) the download phase carries, from every helper u,

    D1: c[u, P_j, a]                      for a in V_i,
    D2: c[u, b, a] + c[u, P_j, a(i,b)]    for b in 1..d-k, a in V_i,

(d-k+1)s^(n-1) = N/(d-k+h) symbols per edge.  Node i then solves, per a in
V_i, an r x r Vandermonde system whose unknown points are the lambdas outside
the helper set plus the mus; the extra unknowns Delta_e absorb the
substitution terms and are stripped afterwards against already-recovered
values, isolating node i's own symbols.  The cooperative phase forwards the
cross-sums and repair-plane slices each node recovered on the others' behalf.
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
        self.i = i
        self.vidx = np.array(v_indices(i, n, s), dtype=np.int64)
        pos = np.full(params.s_pow_n, -1, dtype=np.int64)
        pos[self.vidx] = np.arange(self.vidx.size)
        self.pos = pos
        size = self.vidx.size
        # masks[w, q]: digit w of vidx[q] is zero; subpos[w, e-1, q]: position in
        # the V-set of vidx[q] with digit w set to e (valid for w != i).
        self.masks = np.zeros((n, size), dtype=np.int64)
        self.subpos = np.zeros((n, s - 1, size), dtype=np.int64)
        for w in range(n):
            weight = s**w
            digit = (self.vidx // weight) % s
            self.masks[w] = digit == 0
            if w == i:
                continue
            for e in range(1, s):
                self.subpos[w, e - 1] = pos[self.vidx + (e - digit) * weight]


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


def _solve_v_system(job: RepairJob, payload_matrix: np.ndarray):
    """Solve the per-index system for a stack of helper payloads.

    payload_matrix has one row per helper (sorted order), one column per
    V-set index.  Returns (full, deltas): full is an (n, |V|) matrix whose
    helper rows copy the payloads and whose remaining rows are the solved
    unknowns; deltas has shape (s-1, |V|).
    """
    params = job.params
    ctx = _context(job)
    p = params.p
    rhs = (-(ctx.helper_powers @ payload_matrix)) % p
    solved = (ctx.solve_op @ rhs) % p
    n_unknown = len(ctx.unknown_nodes)
    full = np.zeros((params.n, payload_matrix.shape[1]), dtype=np.int64)
    for pos, u in enumerate(job.helpers):
        full[u] = payload_matrix[pos]
    for q, w in enumerate(ctx.unknown_nodes):
        full[w] = solved[q]
    return full, solved[n_unknown:]


def _strip_deltas(job: RepairJob, node: int, full: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Remove the recovered-data combination from each Delta_e.

    Returns own[e-1, q] = value at index vidx[q] with digit `node` set to e;
    in the single-plane case these are node's own plane symbols off V, in the
    pair case the b1-plane symbols off V.
    """
    params = job.params
    geo = _context(job).coords[node]
    p = params.p
    own = np.empty_like(deltas)
    for e in range(1, params.s):
        corr = np.zeros(geo.vidx.size, dtype=np.int64)
        for w in range(params.n):
            if w == node:
                continue
            corr += geo.masks[w] * full[w][geo.subpos[w, e - 1]]
        own[e - 1] = (deltas[e - 1] - corr) % p
    return own


def recover_own_plane(job: RepairJob, node: int, plane: int, d1_by_helper: dict[int, np.ndarray]):
    """Single-plane recovery from direct downloads {c[u, plane, a]: a in V_node}.

    Returns (own_full, on_v): own_full is node's complete plane over Z_s^n,
    on_v is the (n, |V|) matrix of every node's plane symbols on V_node.
    """
    params = job.params
    if node not in job.failed:
        raise ValueError(f"node {node} is not being repaired")
    if not 1 <= plane <= params.planes:
        raise ValueError(f"plane {plane} out of range [1,{params.planes}]")
    geo = _context(job).coords[node]
    payload_matrix = _stack_payloads(job, d1_by_helper, geo.vidx.size)
    full, deltas = _solve_v_system(job, payload_matrix)
    own = _strip_deltas(job, node, full, deltas)
    own_full = np.zeros(params.s_pow_n, dtype=np.int64)
    own_full[geo.vidx] = full[node]
    weight = params.s**node
    for e in range(1, params.s):
        own_full[geo.vidx + e * weight] = own[e - 1]
    return own_full, full


def recover_pairs(
    job: RepairJob,
    node: int,
    b1: int,
    b2: int,
    v: int,
    sums_by_helper: dict[int, np.ndarray],
):
    """Pair recovery from downloaded sums c[u,b1,a] + c[u,b2,a(node,v)], a in V_node.

    Returns (cross, own_b1): cross is an (n, |V|) matrix of the sums
    c[j,b1,a] + c[j,b2,a(node,v)] for every node j (helpers echo their
    downloads, the rest are solved), own_b1[e-1] holds node's own symbols
    c[node, b1, a(node,e)] for a in V_node.
    """
    params = job.params
    if node not in job.failed:
        raise ValueError(f"node {node} is not being repaired")
    if b1 == b2 or not (1 <= b1 <= params.planes and 1 <= b2 <= params.planes):
        raise ValueError(f"need two distinct planes in [1,{params.planes}], got {b1},{b2}")
    if not 0 < v < params.s:
        raise ValueError(f"substituted digit v={v} must satisfy 0 < v < s={params.s}")
    geo = _context(job).coords[node]
    payload_matrix = _stack_payloads(job, sums_by_helper, geo.vidx.size)
    cross, deltas = _solve_v_system(job, payload_matrix)
    own_b1 = _strip_deltas(job, node, cross, deltas)
    return cross, own_b1


def _stack_payloads(job: RepairJob, by_helper: dict[int, np.ndarray], width: int) -> np.ndarray:
    missing = [u for u in job.helpers if u not in by_helper]
    if missing:
        raise ValueError(f"payloads missing from helpers {missing}")
    rows = []
    for u in job.helpers:
        arr = np.asarray(by_helper[u], dtype=np.int64)
        if arr.shape != (width,):
            raise ValueError(f"payload from helper {u} must hold {width} symbols")
        rows.append(arr)
    return np.stack(rows)


# --- helper side -------------------------------------------------------------

def helper_payload(u: int, j: int, job: RepairJob, column_u: NodeVector) -> np.ndarray:
    """The download-phase payload helper u sends to the j-th failed node.

    D1 first, then the D2 sums in (b, a) order; (d-k+1)s^(n-1) symbols total.
    """
    return _helper_payload_logged(u, j, job, column_u, log=None)


def _helper_payload_logged(u, j, job, column_u, log):
    params = job.params
    if u not in job.helpers:
        raise ValueError(f"node {u} is not a helper in {job.helpers}")
    if not 1 <= j <= params.h:
        raise ValueError(f"failed-slot index {j} out of range [1,{params.h}]")
    if isinstance(column_u, NodeVector):
        if column_u.index != u:
            raise ValueError(f"column belongs to node {column_u.index}, not {u}")
        column_u = column_u.symbols
    node = job.failed[j - 1]
    pj = params.d - params.k + j
    geo = _context(job).coords[node]
    col = _as_column_array(params, column_u)
    weight = params.s**node
    parts = [col[pj - 1][geo.vidx]]
    if log is not None:
        log.add(pj, geo.vidx)
    for b in range(1, params.d - params.k + 1):
        shifted = geo.vidx + b * weight
        parts.append((col[b - 1][geo.vidx] + col[pj - 1][shifted]) % params.p)
        if log is not None:
            log.add(b, geo.vidx)
            log.add(pj, shifted)
    return np.concatenate(parts)


class HelperNode:
    """A surviving node serving download payloads from its own column."""

    def __init__(self, u: int, column: NodeVector, job: RepairJob):
        if column.index != u:
            raise ValueError(f"column belongs to node {column.index}, not {u}")
        self.u = u
        self.job = job
        self.column = column
        self.access_log = AccessLog(u)

    def payload_for(self, j: int) -> np.ndarray:
        return _helper_payload_logged(self.u, j, self.job, self.column, self.access_log)


# --- failed-node state machine ------------------------------------------------

class FailedNodeState:
    """One failed node's view of the protocol: payloads in, column out."""

    def __init__(self, job: RepairJob, node: int):
        if node not in job.failed:
            raise ValueError(f"node {node} is not in the failed set {job.failed}")
        self.job = job
        self.node = node
        self.slot = job.slot_of(node)
        self.repair_plane = job.repair_plane(node)
        self._downloads: dict[int, np.ndarray] = {}
        self._processed = False
        self.own_planes: dict[int, np.ndarray] = {}
        self._plane_on_v: np.ndarray | None = None  # (n, |V|) at repair_plane
        self._cross: dict[int, np.ndarray] = {}  # b -> (n, |V|) pair sums

    def receive_download(self, u: int, payload: np.ndarray) -> None:
        if u not in self.job.helpers:
            raise ValueError(f"download payload from non-helper {u}")
        if u in self._downloads:
            raise ValueError(f"duplicate download payload from helper {u}")
        self._downloads[u] = np.asarray(payload, dtype=np.int64)

    def process_downloads(self) -> None:
        """Run both recovery routines once all d download payloads are in."""
        params = self.job.params
        if self._processed:
            return
        if len(self._downloads) != params.d:
            raise ValueError(
                f"download phase incomplete: {len(self._downloads)} of {params.d} payloads"
            )
        geo = _context(self.job).coords[self.node]
        width = geo.vidx.size
        dk = params.d - params.k
        split: dict[int, list[np.ndarray]] = {}
        for u, payload in self._downloads.items():
            if payload.shape != ((dk + 1) * width,):
                raise ValueError(f"payload from helper {u} has wrong length {payload.shape}")
            split[u] = [payload[t * width : (t + 1) * width] for t in range(dk + 1)]

        own_full, on_v = recover_own_plane(
            self.job, self.node, self.repair_plane, {u: parts[0] for u, parts in split.items()}
        )
        self.own_planes[self.repair_plane] = own_full
        self._plane_on_v = on_v

        weight = params.s**self.node
        for b in range(1, dk + 1):
            cross, own_b = recover_pairs(
                self.job, self.node, b, self.repair_plane, b,
                {u: parts[b] for u, parts in split.items()},
            )
            self._cross[b] = cross
            plane = np.zeros(params.s_pow_n, dtype=np.int64)
            # own symbols off V come from the stripped deltas; on V, subtract the
            # already-known repair-plane component from the recovered pair sum.
            for e in range(1, params.s):
                plane[geo.vidx + e * weight] = own_b[e - 1]
            plane[geo.vidx] = (
                cross[self.node] - own_full[geo.vidx + b * weight]
            ) % params.p
            self.own_planes[b] = plane
        self._processed = True

    # state inspection used by tests and by the cooperative phase
    def peer_plane_on_v(self, peer: int) -> np.ndarray:
        """c[peer, repair_plane, a] for a in V of this node."""
        self._require_processed()
        return self._plane_on_v[peer]

    def peer_cross_sums(self, peer: int) -> np.ndarray:
        """Rows b=1..d-k of c[peer,b,a] + c[peer,repair_plane,a(node,b)], a in V."""
        self._require_processed()
        dk = self.job.params.d - self.job.params.k
        return np.stack([self._cross[b][peer] for b in range(1, dk + 1)])

    def cooperative_payload_for(self, target: int) -> np.ndarray:
        """Repair-plane slice and cross-sums this node recovered for `target`."""
        self._require_processed()
        if target == self.node or target not in self.job.failed:
            raise ValueError(f"cooperative target {target} invalid")
        dk = self.job.params.d - self.job.params.k
        parts = [self._plane_on_v[target]]
        parts.extend(self._cross[b][target] for b in range(1, dk + 1))
        return np.concatenate(parts)

    def receive_cooperative(self, sender: int, payload: np.ndarray) -> None:
        """Complete plane d-k+slot(sender) from the sender's payload."""
        self._require_processed()
        params = self.job.params
        if sender == self.node or sender not in self.job.failed:
            raise ValueError(f"cooperative sender {sender} invalid")
        plane_idx = self.job.repair_plane(sender)
        if plane_idx in self.own_planes:
            raise ValueError(f"duplicate cooperative payload from {sender}")
        geo_s = _context(self.job).coords[sender]
        width = geo_s.vidx.size
        dk = params.d - params.k
        payload = np.asarray(payload, dtype=np.int64)
        if payload.shape != ((dk + 1) * width,):
            raise ValueError(f"cooperative payload has wrong length {payload.shape}")
        plane = np.zeros(params.s_pow_n, dtype=np.int64)
        plane[geo_s.vidx] = payload[:width]
        weight = params.s**sender
        for b in range(1, dk + 1):
            sums = payload[b * width : (b + 1) * width]
            plane[geo_s.vidx + b * weight] = (sums - self.own_planes[b][geo_s.vidx]) % params.p
        self.own_planes[plane_idx] = plane

    def finish(self) -> NodeVector:
        """Assemble the fully repaired column; every plane must be present."""
        params = self.job.params
        missing = [b for b in range(1, params.planes + 1) if b not in self.own_planes]
        if missing:
            raise ValueError(f"node {self.node} still missing planes {missing}")
        symbols = np.stack([self.own_planes[b] for b in range(1, params.planes + 1)])
        return NodeVector(self.node, symbols)

    def _require_processed(self):
        if not self._processed:
            raise ValueError("download phase not processed yet")


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
    columns = _surviving_by_index(surviving)
    missing = [u for u in job.helpers if u not in columns]
    if missing:
        raise ValueError(f"surviving columns must cover every helper; missing {missing}")

    helpers = {u: HelperNode(u, columns[u], job) for u in job.helpers}
    states = {i: FailedNodeState(job, i) for i in job.failed}
    transcript = RepairTranscript(job)
    transcript.access_logs = {u: helpers[u].access_log for u in job.helpers}

    for j in range(1, params.h + 1):
        node = job.failed[j - 1]
        for u in job.helpers:
            payload = helpers[u].payload_for(j)
            transcript.append(RepairMessage(DOWNLOAD, u, node, payload))
            states[node].receive_download(u, payload)
    for state in states.values():
        state.process_downloads()

    for receiver in job.failed:
        for sender in job.failed:
            if sender == receiver:
                continue
            payload = states[sender].cooperative_payload_for(receiver)
            transcript.append(RepairMessage(COOPERATIVE, sender, receiver, payload))
            states[receiver].receive_cooperative(sender, payload)

    repaired = [states[i].finish() for i in job.failed]
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

