import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

from mscr import storage
from mscr.code import encode, erase_decode, validate_params
from mscr.oracle import int_to_vec
from mscr.repair import run_repair

# Hypothesis profiles: "bounded", the default, keeps every property test of
# the suite to about a second; HYPOTHESIS_PROFILE=long searches 20 times as
# far, for a run outside the tier-1 suite.  Neither has a deadline: a shared
# machine's pauses are not failures.
settings.register_profile("bounded", max_examples=100, deadline=None)
settings.register_profile("long", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "bounded"))

# (n, k, d, h) desk-scale parameter sets exercised throughout the suite
PARAM_SETS = [(4, 1, 2, 2), (5, 2, 3, 2), (6, 3, 4, 2), (6, 2, 3, 3)]


@pytest.fixture(scope="session")
def example1():
    """The (4,1,48) code over F_5: n=4, k=1, d=2, h=2, s=2, three planes."""
    return validate_params(4, 1, 2, 2, p=5)


@pytest.fixture(scope="session")
def example1_codeword(example1):
    return make_codeword(example1, seed=11)


def random_message(params, seed=0):
    """One stripe's kN message symbols, uniform over [0, p)."""
    return np.random.default_rng(seed).integers(0, params.p, size=params.message_length)


def make_codeword(params, seed=0):
    """One stripe's codeword of a random message, (n, planes, s^n) uint16."""
    return encode(params, random_message(params, seed=seed))[:, 0]


def decode_stripe(params, columns):
    """erase_decode of one stripe's {node: (planes, s^n) column}, passed as a
    batch of one; returns that stripe's (n, planes, s^n) codeword."""
    return erase_decode(params, {i: np.asarray(col)[None] for i, col in columns.items()})[:, 0]


def repair_stripe(job, columns):
    """run_repair of one stripe's {node: (planes, s^n) column}, passed as a
    batch of one; returns that stripe's {failed node: (planes, s^n) column}
    and the transcript."""
    repaired, transcript = run_repair(job, {u: np.asarray(col)[None]
                                            for u, col in columns.items()})
    return {i: col[0] for i, col in repaired.items()}, transcript


def per_edge_counts(transcript):
    """(phase, sender, receiver) -> symbols sent on that edge, over a
    repair transcript's messages."""
    counts = Counter()
    for m in transcript.messages:
        counts[m.phase, m.sender, m.receiver] += m.count
    return counts


def vector_set(log, params):
    """A helper's access log as (1-based plane, index vector) pairs, the
    form oracle.access_set gives."""
    return {(int(b0) + 1, int_to_vec(int(a), params.n, params.s))
            for b0, a in np.argwhere(log.mask)}


def chunk_bytes(params, node, symbols):
    """The whole chunk of node `node` holding `symbols`, as one bytes: the
    header storage.write_chunk writes, then the body of the node's group
    values, in segments of 8 stripes.  For tests that build or edit a
    chunk in memory."""
    c, width = storage.node_groups(params, node)
    values = storage.group_values(np.asarray(symbols), storage._symbol_bound(params, node),
                                  c, width)
    return (storage._header(params, node, np.asarray(symbols).size)
            + storage.pack_body(values, width, 8 * params.N // c))


@pytest.fixture()
def fail_halfway(monkeypatch):
    """Calling the returned function makes every later file write in
    mscr.storage write half its bytes and then fail with ENOSPC; every other
    file operation (read, seek, flush, ...) works as usual."""
    real_open = open

    class HalfWrite:
        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    def arm():
        monkeypatch.setattr(storage, "open", HalfWrite, raising=False)

    return arm
