"""Fixed reference work that measures how fast the machine is running right now.

    python3 perfbench/calibrate.py

run.py starts this script as a fresh process before and after every timed
stage.  It does the same kinds of work as an mscr stage, in similar
proportions: interpreter start and the numpy import, a pure-Python loop of
small int64 matrix products mod p with dict and bytes glue, a SHA-256 and a
file write and read back.  It does not import mscr, so its cost does not change
with the program under test; a stage's time divided by the time of this script
run beside it is a measure of the program that a slow or fast phase of a
shared machine moves much less than the stage's wall time.

It prints one line, a digest of everything it computed, which is the same on
every run.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

P = 257
ROUNDS = 16000
FILE_BYTES = 1 << 20


def main() -> None:
    digest = hashlib.sha256()
    m = (np.arange(12 * 12, dtype=np.int64).reshape(12, 12) * 7 + 3) % P
    v = (np.arange(12 * 64, dtype=np.int64).reshape(12, 64) * 11 + 5) % P
    acc = 0
    for i in range(ROUNDS):
        w = (m @ v) % P
        acc += int(w[i % 12, i % 64])
        table = {j: j * i for j in range(20)}
        acc = (acc + sum(table.values())) & 0xFFFFFFFF
        acc ^= len(w[0].astype(np.uint16).tobytes())
        v[i % 12, i % 64] = acc % P
    digest.update(acc.to_bytes(4, "little"))
    digest.update(v.tobytes())
    block = hashlib.sha256(v.tobytes()).digest() * (FILE_BYTES // 32)
    with open("calibrate.bin", "wb") as f:
        f.write(block)
    with open("calibrate.bin", "rb") as f:
        digest.update(hashlib.sha256(f.read()).digest())
    os.unlink("calibrate.bin")
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
