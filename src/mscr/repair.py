"""Two-phase cooperative repair of exactly h failed nodes.

The engine is a deterministic in-process simulation.  Helpers serve payloads
computed from their own column only, and each failed node's recovery is a
function of the payloads it received only, never of the global codeword.
Every download payload is delivered and processed before any cooperative
payload is produced.  run_repair repairs a batch of stripes: it takes the
survivors as {node index: (stripes, planes, s^n) column}, in any integer
dtype, as code.erase_decode does, and returns the repaired columns the same
way, in accumulator_dtype(params), each stripe on its own.

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

One pass serves every stripe, failed node, helper and pair at once, through
maps built once per job (params, E, R), held by the job, and freed with it;
per stripe (the leading axis of every array below, dropped here):

- pay = two gathers of the stacked (d, planes*s^n) helper block, added and
  reduced; pay[:, j] is what the d helpers send node j.
- One product with the (n + d-k) x d operator [I; -V^-1 Lambda] turns
  pay[:, j] into y[:, j]: every node's d-k+1 slice values on V_i, and node
  j's Deltas.  Column j of the product reads pay[:, j] only, and the
  cooperative payload j -> t is y[t, j].
- Everything after the solve (the Delta strip, the assembly of each node's
  own planes, the cooperative completion) is linear in y with coefficients
  +-1, so it is one composed map, built once per job:
  repaired.flat[q] = sum over f < F of coef[f, q] * y.flat[gather[f, q]],
  one gather, one product, one sum and one reduction.  F = n + 2 is the
  largest fan-in: a cooperatively completed symbol is one payload value
  less a plane-t symbol, that is a slice value less a repair-plane symbol,
  which is a Delta less up to n-1 substitution terms.

The transcript keeps pay and y and builds its messages the first time
they are read, each edge's payload for every stripe, stripe after stripe;
every helper's access log is the job's one mask of reads, counted once per
stripe.

Integer bounds: the pass runs in accumulator_dtype(params), int16 when
B = n s (p-1)^2 < 2^15, int32 when B < 2^31 and int64 otherwise (see code),
and no intermediate exceeds B, whatever the dtype: pay is a sum of two
symbols, below 2p, and is reduced before the solve; each entry of y is a sum
of d < n products below (p-1)^2; the composed sum has F <= n s terms, each
of absolute value below p <= (p-1)^2.  So a small code repairs in int16 at
its default field, and at n s = 12 at every p up to 53.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .code import CodeParams, accumulator_dtype, check_below, matrix_inverse, plane_geometry


@dataclass(frozen=True)
class RepairJob:
    """A repair instance: which nodes failed, which helpers serve it, and its
    maps, `context`, built on first use, held by the job and freed with it."""

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

    @cached_property
    def context(self) -> _JobContext:
        # cached_property writes the instance __dict__, past the frozen __setattr__
        return _JobContext(self)


class _JobContext:
    """Everything derivable from (params, E, R) alone, shared across stripes.

    Failed node j (slot j in sorted E, coordinate i) owns the positions
    cols_j[e] = V_i with digit i set to e, for e in 0..s-1, and its slice t
    lives in plane row rows_j[t]: its repair plane d-k+j for t = 0, plane t
    for t >= 1.  Positions are flat, row * s^n + index.

    The repaired columns are a linear map of y = solve @ pay with
    coefficients +-1: repaired.flat[q] is the sum over f of
    coef[f, q] * y.flat[gather[f, q]].  The map is built by running the
    protocol's steps after the solve on linear forms, F slots of (y index,
    coefficient) per symbol, instead of on values; unused slots have
    coefficient 0.
    """

    def __init__(self, job: RepairJob):
        params = job.params
        n, s, h, p = params.n, params.s, params.h, params.p
        dk, width, size = params.d - params.k, params.s_pow_n, params.s_pow_n // params.s
        unknown = [i for i in range(n) if i not in job.helpers]
        inverse = matrix_inverse(p, [params.lambdas[w] for w in unknown] + list(params.mus))
        powers = np.array(
            [[pow(params.lambdas[u], t, p) for u in job.helpers] for t in range(params.r)],
            dtype=np.int64,
        )
        # solve @ downloads: rows 0..n-1 are every node's slice values (identity
        # rows for helpers, -V^-1 Lambda rows for the others), rows n.. the Deltas
        self.solve = np.zeros((n + dk, params.d), dtype=accumulator_dtype(params))
        self.solve[list(job.helpers), range(params.d)] = 1
        self.solve[unknown + list(range(n, n + dk))] = (-(inverse @ powers)) % p

        # place[j, t, e, q]: node j's plane rows_j[t] at cols_j[e][q]
        place = np.empty((h, s, s, size), dtype=np.int64)
        # y[row, j, t, q]: from node j's downloads, slice t at V_i[q] of node
        # row for row < n, of Delta_(row-n+1) for row >= n
        ypos = np.arange((n + dk) * h * s * size, dtype=np.int32).reshape(n + dk, h, s, size)
        fan = n + 2
        assert fan <= n * s
        # the forms of the repaired columns, (slot, failed node, flat position)
        gather = np.zeros((fan, h, params.planes * width), dtype=np.int32)
        coef = np.zeros(gather.shape, dtype=np.int8)
        masks, subs = plane_geometry(params)
        for j, i in enumerate(job.failed):
            vidx = np.flatnonzero(masks[i])
            cols = np.vstack([vidx, subs[i][:, vidx]])
            rows = np.array([dk + j, *range(dk)])
            place[j] = rows[:, None, None] * width + cols
            pos = np.cumsum(masks[i]) - 1  # pos[a]: a's rank in V_i, for a in V_i
            # own_*[f, t, e]: slot f of node j's symbols at place[j, t, e]
            own_y = np.zeros((fan, s, s, size), dtype=np.int32)
            own_c = np.zeros(own_y.shape, dtype=np.int8)
            own_y[0, :, 0], own_c[0, :, 0] = ypos[i, j], 1
            # e >= 1: Delta_e of slice t, less node w's slice t at V_i[q] with
            # digit w set to e, for every w != i whose digit w of V_i[q] is zero
            own_y[0, :, 1:], own_c[0, :, 1:] = ypos[n:, j].swapaxes(0, 1), 1
            for f, w in enumerate((w for w in range(n) if w != i), start=1):
                for e in range(1, s):
                    own_y[f, :, e] = ypos[w, j][:, pos[subs[w][e - 1][vidx]]]
                    own_c[f, :, e] = -1 * masks[w][vidx]
            # on V_i, slice t >= 1 holds c[node, t, a] + c[node, repair plane, a(i, t)]
            own_y[1:n + 1, 1:, 0] = own_y[:n, 0, 1:]
            own_c[1:n + 1, 1:, 0] = -own_c[:n, 0, 1:]
            gather[:, j, place[j]], coef[:, j, place[j]] = own_y, own_c

        # cooperative pair (receiver jr, sender js): js sends y[jr's node,
        # js], jr's slice values on js's V.  Slice 0 is jr's symbols in
        # js's repair plane there; slice t >= 1, less jr's own plane t, gives
        # them at the positions with js's digit set to t
        for jr, i in enumerate(job.failed):
            g, c = gather[:, jr], coef[:, jr]
            for js in range(h):
                if js != jr:
                    dst, known = place[js, 0], place[js, 1:, 0]
                    g[0, dst], c[0, dst] = ypos[i, js], 1
                    g[1:, dst[1:]], c[1:, dst[1:]] = g[:-1, known], -c[:-1, known]
        shape = (fan, h, params.planes, width)
        self.gather, self.coef = gather.reshape(shape), coef.reshape(shape)

        # downloads: helper reads place[j, t, 0] for slice t, plus place[j, 0, t] for t >= 1
        self.download, self.cross = place[:, :, 0], place[:, 0, 1:]
        # every symbol a helper reads, the same for every helper and stripe
        access = np.zeros(params.planes * width, dtype=bool)
        access[self.download] = access[self.cross] = True
        access.flags.writeable = False
        self.access = access.reshape(params.planes, width)


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


class AccessLog:
    """The (plane, index) symbols one helper reads from disk in each stripe,
    as a boolean (planes, s^n) mask: a helper reads each needed symbol once
    and serves every failed node from that one pass.  count() is over the
    whole batch."""

    def __init__(self, mask: np.ndarray, stripes: int):
        self.mask, self.stripes = mask, stripes

    def count(self) -> int:
        return self.stripes * int(np.count_nonzero(self.mask))


class RepairTranscript:
    """Every message of a repair run plus the helpers' disk-access logs,
    built from the run's payload arrays the first time each is read."""

    def __init__(self, job: RepairJob, pay: np.ndarray, y: np.ndarray):
        self.job = job
        self._pay = pay  # pay[st, m, j]: helper m's download payload to failed node j
        self._y = y  # y[st, t, j], t < n: failed node j's cooperative payload to node t

    @cached_property
    def messages(self) -> list[RepairMessage]:
        """Downloads grouped by receiver, then cooperative messages by
        receiver; each carries its edge's payload for every stripe, in order."""
        job = self.job
        return [
            RepairMessage(DOWNLOAD, u, node, self._pay[:, m, j].reshape(-1))
            for j, node in enumerate(job.failed) for m, u in enumerate(job.helpers)
        ] + [
            RepairMessage(COOPERATIVE, sender, receiver, self._y[:, receiver, js].reshape(-1))
            for receiver in job.failed for js, sender in enumerate(job.failed) if sender != receiver
        ]

    @cached_property
    def access_logs(self) -> dict[int, AccessLog]:
        access, stripes = self.job.context.access, len(self._pay)
        return {u: AccessLog(access, stripes) for u in self.job.helpers}

    def export_text(self) -> str:
        """One message per line: `phase from to count` then hex symbols."""
        lines = []
        for m in self.messages:
            blob = m.values.astype(">u2").tobytes().hex()  # every value is below p < 2^16
            lines.append(f"{m.phase} {m.sender} {m.receiver} {m.count} {blob}")
        return "\n".join(lines) + ("\n" if lines else "")


def run_repair(job: RepairJob, surviving: dict) -> tuple[dict[int, np.ndarray], RepairTranscript]:
    """Execute both phases on a batch of stripes.  surviving maps node index
    to its (stripes, planes, s^n) column, the same stripes for every node,
    and must cover every helper; other entries are ignored.  Returns
    {failed node: repaired (stripes, planes, s^n) column}, ascending, and the
    transcript, whose messages and per-helper access logs are built when
    first read and total the batch.  The repaired columns and the
    transcript's arrays are in accumulator_dtype(params)."""
    params = job.params
    ctx = job.context
    if missing := [u for u in job.helpers if u not in surviving]:
        raise ValueError(f"surviving columns must cover every helper; missing {missing}")
    columns = [surviving[u] for u in job.helpers]
    p, d = params.p, params.d
    shape = np.shape(columns[0])[:1] + (params.planes, params.s_pow_n)
    for u, col in zip(job.helpers, columns):
        if np.shape(col) != shape:  # so col has three axes
            raise ValueError(f"helper {u}: column must be shaped (stripes, planes, s^n) = "
                             f"(stripes, {params.planes}, {params.s_pow_n}), the same for all, "
                             f"got shape {np.shape(col)}")
    stripes, helpers = shape[0], np.concatenate(columns, axis=1)  # stripes outermost
    try:
        check_below(helpers, p, "helper column symbols")
    except ValueError:  # name the first helper at fault; mixed dtypes can stack into floats
        for u, col in zip(job.helpers, columns):
            check_below(col, p, f"helper {u}: column symbols")
        helpers = np.concatenate([np.asarray(col, dtype=np.int64) for col in columns], axis=1)
    # explicit sizes, so that a batch of zero stripes has a shape
    width, rows = params.planes * params.s_pow_n, len(ctx.solve)
    helpers = helpers.reshape(stripes, d, width).astype(ctx.solve.dtype)  # accumulator_dtype

    # download phase: pay[st, m, j] is helper m's payload to failed node j
    pay = helpers.take(ctx.download, axis=2)
    pay[:, :, :, 1:] += helpers.take(ctx.cross, axis=2)
    pay %= p
    y = ctx.solve @ pay.reshape(stripes, d, params.h * params.s_pow_n)
    y %= p
    # the Delta strip, each node's own planes and the cooperative phase: one map of y
    repaired = y.reshape(stripes, rows * params.h * params.s_pow_n).take(ctx.gather, axis=1)
    repaired *= ctx.coef
    repaired = repaired.sum(axis=1, dtype=y.dtype)
    repaired %= p
    y = y.reshape(stripes, rows, params.h, params.s_pow_n)
    return dict(zip(job.failed, repaired.swapaxes(0, 1))), RepairTranscript(job, pay, y)
