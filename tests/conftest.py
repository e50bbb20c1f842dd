import numpy as np
import pytest

from mscr import storage
from mscr.code import encode, erase_decode, random_message, validate_params

# (n, k, d, h) desk-scale parameter sets exercised throughout the suite
PARAM_SETS = [(4, 1, 2, 2), (5, 2, 3, 2), (6, 3, 4, 2), (6, 2, 3, 3)]


@pytest.fixture(scope="session")
def example1():
    """The (4,1,48) code over F_5: n=4, k=1, d=2, h=2, s=2, three planes."""
    return validate_params(4, 1, 2, 2, p=5)


@pytest.fixture(scope="session")
def example1_codeword(example1):
    return make_codeword(example1, seed=11)


def make_codeword(params, seed=0):
    """One stripe's codeword of a random message, (n, planes, s^n) uint16."""
    return encode(params, random_message(params, seed=seed))[:, 0]


def decode_stripe(params, columns):
    """erase_decode of one stripe's {node: (planes, s^n) column}, passed as a
    batch of one; returns that stripe's (n, planes, s^n) codeword."""
    return erase_decode(params, {i: np.asarray(col)[None] for i, col in columns.items()})[:, 0]


@pytest.fixture()
def fail_halfway(monkeypatch):
    """Calling the returned function makes every later file write in
    mscr.storage write half its bytes and then fail with ENOSPC."""
    real_open = open

    class HalfWrite:
        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

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
