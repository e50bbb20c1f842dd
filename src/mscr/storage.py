"""On-disk chunk format, directory manifest, and byte<->symbol packing.

Chunk layout (all integers little-endian):
    magic   4 bytes  b"MSCR"
    u32 x 9          version, n, k, d, h, p, node_index, payload_len, bits_per_symbol
    u32 x (n+s-1)    evaluation points: lambdas then mus
    u16 x payload_len  symbols

payload_len = stripe_count * N.  Files longer than one stripe are striped:
consecutive kN-symbol blocks are independent codewords and each node's chunk
concatenates its per-stripe columns in stripe order.  The n bodies of a file
are therefore one (n, stripes, planes, s^n) array, and encode and decode
solve every stripe in one code.solve_erased call.

Packing: one byte per symbol when p > 255; otherwise floor(log2 p) bits per
symbol, MSB-first within the bitstream.  Either way bits_per_symbol is
recorded in the header and the original byte length lives in the manifest.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .code import CodeParams, solve_erased, validate_params

MAGIC = b"MSCR"
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
QUARANTINE_SUFFIX = ".failed"


def chunk_name(node: int) -> str:
    return f"node{node}.mscr"


def bits_per_symbol(p: int) -> int:
    if p > 255:
        return 8
    return max(1, p.bit_length() - 1)  # floor(log2 p) for p >= 2


def pack_bytes(data: bytes, p: int) -> np.ndarray:
    """File bytes -> field symbols (< p), MSB-first for sub-byte widths."""
    m = bits_per_symbol(p)
    if m == 8:
        return np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    pad = (-bits.size) % m
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    weights = 1 << np.arange(m - 1, -1, -1)
    return (bits.reshape(-1, m) * weights).sum(axis=1).astype(np.int64)


def unpack_symbols(symbols: np.ndarray, p: int, original_length: int) -> bytes:
    """Inverse of pack_bytes, truncated to the recorded byte length."""
    m = bits_per_symbol(p)
    if m == 8:
        return symbols.astype(np.uint8).tobytes()[:original_length]
    vals = symbols.astype(np.int64)
    bits = (vals[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1
    flat = bits.reshape(-1).astype(np.uint8)
    usable = (flat.size // 8) * 8
    return np.packbits(flat[:usable]).tobytes()[:original_length]


def symbols_per_stripe(params: CodeParams) -> int:
    return params.k * params.N


@dataclass
class ChunkHeader:
    version: int
    n: int
    k: int
    d: int
    h: int
    p: int
    node_index: int
    payload_len: int
    bits_per_symbol: int
    lambdas: tuple[int, ...]
    mus: tuple[int, ...]

    def params(self) -> CodeParams:
        return validate_params(
            self.n, self.k, self.d, self.h, p=self.p, lambdas=self.lambdas, mus=self.mus
        )


def write_chunk(path: Path, header: ChunkHeader, symbols: np.ndarray) -> None:
    if symbols.shape != (header.payload_len,):
        raise ValueError(f"payload shape {symbols.shape} != ({header.payload_len},)")
    if symbols.size and (symbols.min() < 0 or symbols.max() >= header.p):
        raise ValueError("chunk symbols must be reduced into [0,p)")
    fixed = struct.pack(
        "<9I",
        header.version, header.n, header.k, header.d, header.h,
        header.p, header.node_index, header.payload_len, header.bits_per_symbol,
    )
    points = struct.pack(f"<{len(header.lambdas) + len(header.mus)}I", *header.lambdas, *header.mus)
    body = symbols.astype("<u2").tobytes()
    path.write_bytes(MAGIC + fixed + points + body)


class ChecksumMismatchError(ValueError):
    """A chunk file's bytes do not hash to the digest recorded for them."""


def read_chunk(path: Path, sha256: str) -> tuple[ChunkHeader, np.ndarray]:
    """Read a chunk file whose bytes must hash to `sha256`, then parse it.

    The digest is checked before any byte is parsed, so a damaged chunk is
    always reported as a ChecksumMismatchError.
    """
    raw = path.read_bytes()
    if hashlib.sha256(raw).hexdigest() != sha256:
        raise ChecksumMismatchError(f"{path}: checksum mismatch against the manifest")
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}, not a chunk file")
    try:
        fixed = struct.unpack_from("<9I", raw, 4)
        version, n, k, d, h, p, node_index, payload_len, bps = fixed
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        s = d - k + 1
        off = 4 + 9 * 4
        pts = struct.unpack_from(f"<{n + s - 1}I", raw, off)
        off += (n + s - 1) * 4
    except struct.error as exc:
        raise ValueError(f"{path}: truncated chunk header") from exc
    header = ChunkHeader(
        version, n, k, d, h, p, node_index, payload_len, bps,
        lambdas=tuple(pts[:n]), mus=tuple(pts[n:]),
    )
    body = raw[off:]
    if len(body) != 2 * payload_len:
        raise ValueError(f"{path}: body holds {len(body)} bytes, expected {2 * payload_len}")
    symbols = np.frombuffer(body, dtype="<u2").astype(np.int64)
    if symbols.size and symbols.max() >= p:
        raise ValueError(f"{path}: symbol out of field range")
    return header, symbols


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Manifest:
    format: int
    n: int
    k: int
    d: int
    h: int
    p: int
    lambdas: tuple[int, ...]
    mus: tuple[int, ...]
    bits_per_symbol: int
    original_length: int
    stripe_count: int
    chunks: dict[str, dict]  # node index (str) -> {"file": name, "sha256": hex}
    failed: list[int]

    def params(self) -> CodeParams:
        return validate_params(self.n, self.k, self.d, self.h, p=self.p,
                               lambdas=self.lambdas, mus=self.mus)

    def save(self, directory: Path) -> None:
        data = asdict(self)
        data["lambdas"] = list(self.lambdas)
        data["mus"] = list(self.mus)
        (directory / MANIFEST_NAME).write_text(json.dumps(data, indent=2) + "\n")

    @classmethod
    def load(cls, directory: Path) -> "Manifest":
        path = directory / MANIFEST_NAME
        if not path.exists():
            raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
        data = json.loads(path.read_text())
        data["lambdas"] = tuple(data["lambdas"])
        data["mus"] = tuple(data["mus"])
        return cls(**data)


# --- file-level striping -----------------------------------------------------

def encode_file(data: bytes, params: CodeParams):
    """Encode a byte string into n chunk bodies (one per node).

    Returns (bodies, original_length, stripe_count); bodies[i] is node i's
    concatenated per-stripe columns, stripe_count * N symbols.
    """
    symbols = pack_bytes(data, params.p)
    stripes = max(1, -(-symbols.size // symbols_per_stripe(params)))
    arr = np.zeros((params.n, stripes, params.planes, params.s_pow_n), dtype=np.int64)
    # stripe st's message is node 0..k-1's columns of stripe st, in order
    arr[: params.k].swapaxes(0, 1).flat[: symbols.size] = symbols
    del symbols
    solve_erased(params, arr, tuple(range(params.k, params.n)), check=False)
    return arr.reshape(params.n, -1), len(data), stripes


def decode_file(bodies: dict[int, np.ndarray], params: CodeParams,
                original_length: int, stripe_count: int) -> bytes:
    """Rebuild the original bytes from any >= k chunk bodies.

    Without every systematic body, the k lowest-indexed bodies are decoded
    and every parity check of every stripe is verified before any byte is
    returned (InconsistentCodewordError otherwise).
    """
    if len(bodies) < params.k:
        raise ValueError(f"need at least k={params.k} chunks to decode, got {len(bodies)}")
    for i, body in bodies.items():
        if body.shape != (stripe_count * params.N,):
            raise ValueError(f"chunk {i} holds {body.shape[0]} symbols, "
                             f"expected {stripe_count * params.N}")
    k = params.k
    shape = (stripe_count, params.planes, params.s_pow_n)
    if set(range(k)) <= set(bodies):
        message = np.stack([bodies[i].reshape(shape) for i in range(k)], axis=1)
    else:
        # columns 0..k-1 are views of the message buffer and are solved into it
        message = np.zeros((stripe_count, k) + shape[1:], dtype=np.int64)
        cols = list(message.swapaxes(0, 1)) + [np.zeros(shape, dtype=np.int64)
                                               for _ in range(k, params.n)]
        chosen = sorted(bodies)[:k]
        for i in chosen:
            if i < k:
                cols[i][...] = bodies[i].reshape(shape)
            else:
                cols[i] = bodies[i].reshape(shape)
        solve_erased(params, cols, tuple(i for i in range(params.n) if i not in chosen), check=True)
        del cols  # frees the solved parity columns before unpacking
    return unpack_symbols(message.reshape(-1), params.p, original_length)
