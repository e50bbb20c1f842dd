"""On-disk chunk format, directory manifest, and byte<->symbol packing.

Chunk layout (all integers little-endian):
    magic   4 bytes  b"MSCR"
    u32 x 9          version, n, k, d, h, p, node_index, payload_len, bits_per_symbol
    u32 x (n+s-1)    evaluation points: lambdas then mus
    body             payload_len symbols packed at w = ceil(log2 p) bits each

payload_len = stripe_count * N.  Files longer than one stripe are striped:
consecutive kN-symbol blocks are independent codewords and each node's chunk
concatenates its per-stripe columns in stripe order.  The n bodies of a file
are therefore one (n, stripes, planes, s^n) array, and encode and decode
solve every stripe in one code.solve_erased call.  File-level symbols are
uint16 from parsing to writing (pack_bytes, read_chunk, encode_file,
decode_file): p < 2^16, so every symbol fits, and the solver's wider
arithmetic lives only in its per-plane work arrays.

Two widths are involved.  Message packing (pack_bytes) maps the file's bytes
to symbols at bits_per_symbol(p) bits each: 8 when p > 255, otherwise
floor(log2 p), MSB-first within the bitstream, so every message symbol is < p.
The header records that width and the manifest the original byte length.
Chunk bodies store every symbol, parity included, at the field's full width
w = stored_width(p) = ceil(log2 p): first floor(w/8) byte planes, each holding
one byte of every symbol, low byte first; then w mod 8 bit planes, each the
np.packbits of one bit of every symbol, lowest remaining bit first.  So a
body is payload_len * floor(w/8) + (w mod 8) * ceil(payload_len/8) bytes
(body_length).

Only this module knows the format.  chunk_bytes derives the header from the
code's parameters and the node; read_chunk checks the whole header, every
field and evaluation point, against the one chunk_bytes would write.

Chunks and the manifest are written to a temporary file beside their
destination, synced, renamed over it, and the directory is synced after the
rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .code import CodeParams, solve_erased, validate_params

MAGIC = b"MSCR"
FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
QUARANTINE_SUFFIX = ".failed"


def chunk_name(node: int) -> str:
    return f"node{node}.mscr"


def bits_per_symbol(p: int) -> int:
    if p > 255:
        return 8
    return max(1, p.bit_length() - 1)  # floor(log2 p) for p >= 2


def pack_bytes(data: bytes, p: int) -> np.ndarray:
    """File bytes -> uint16 field symbols (< p), MSB-first for sub-byte widths."""
    m = bits_per_symbol(p)
    if m == 8:
        return np.frombuffer(data, dtype=np.uint8).astype(np.uint16)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    pad = (-bits.size) % m
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    rows = bits.reshape(-1, m)  # one symbol's bits per row, MSB first
    vals = rows[:, 0].copy()
    for i in range(1, m):
        vals <<= 1
        vals |= rows[:, i]
    return vals.astype(np.uint16)


def unpack_symbols(symbols: np.ndarray, p: int, original_length: int) -> bytes:
    """Inverse of pack_bytes, truncated to the recorded byte length."""
    m = bits_per_symbol(p)
    if m == 8:
        return symbols.astype(np.uint8).tobytes()[:original_length]
    vals = symbols.astype(np.uint8)
    bits = np.empty((vals.size, m), dtype=np.uint8)  # the low m bits, MSB first
    for i in range(m):
        np.right_shift(vals, m - 1 - i, out=bits[:, i])
        bits[:, i] &= 1
    flat = bits.reshape(-1)
    usable = (flat.size // 8) * 8
    return np.packbits(flat[:usable]).tobytes()[:original_length]


def symbols_per_stripe(params: CodeParams) -> int:
    return params.k * params.N


def stored_width(p: int) -> int:
    """Bits per stored symbol, ceil(log2 p); at most 16, as p < 2^16."""
    return (p - 1).bit_length()


def body_length(payload_len: int, p: int) -> int:
    """Bytes of a chunk body holding payload_len symbols."""
    w = stored_width(p)
    return payload_len * (w // 8) + (w % 8) * -(-payload_len // 8)


def pack_body(symbols: np.ndarray, p: int) -> bytes:
    """Symbols in [0, p) -> byte planes, then bit planes (see module docstring)."""
    w = stored_width(p)
    vals = symbols.astype(np.uint16, copy=False)
    planes = [(vals >> (8 * j)).astype(np.uint8) for j in range(w // 8)]
    planes += [np.packbits((vals >> b).astype(np.uint8) & 1) for b in range(w // 8 * 8, w)]
    return b"".join(plane.tobytes() for plane in planes)


def unpack_body(body: bytes, p: int, payload_len: int) -> np.ndarray:
    """Inverse of pack_body; `body` must be body_length(payload_len, p) bytes.

    Returns uint16: w <= 16, so every stored field fits without overflow.
    """
    w = stored_width(p)
    buf = np.frombuffer(body, dtype=np.uint8)
    vals = np.zeros(payload_len, dtype=np.uint16)
    for j in range(w // 8):
        vals |= np.left_shift(buf[j * payload_len:(j + 1) * payload_len], 8 * j, dtype=np.uint16)
    off, plane = w // 8 * payload_len, -(-payload_len // 8)
    for b in range(w // 8 * 8, w):
        bits = np.unpackbits(buf[off:off + plane], count=payload_len)
        vals |= np.left_shift(bits, b, dtype=np.uint16)
        off += plane
    return vals


def _header_fields(params: CodeParams, node: int, payload_len: int) -> tuple[int, ...]:
    """The u32 header fields of node `node`'s chunk of `params`, in file order."""
    return (FORMAT_VERSION, params.n, params.k, params.d, params.h, params.p, node,
            payload_len, bits_per_symbol(params.p), *params.lambdas, *params.mus)


def chunk_bytes(params: CodeParams, node: int, symbols: np.ndarray) -> bytes:
    """Serialize node `node`'s chunk of `params` holding `symbols`: magic,
    header fields, evaluation points, packed body."""
    if symbols.size and (symbols.min() < 0 or symbols.max() >= params.p):
        raise ValueError("chunk symbols must be reduced into [0,p)")
    header = _header_fields(params, node, symbols.size)
    return MAGIC + struct.pack(f"<{len(header)}I", *header) + pack_body(symbols, params.p)


def _write_replacing(path: Path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path`, sync it, rename it over
    `path` and sync the directory: a crash leaves the old file or the new one,
    never a partial one, and a completed call survives a power loss."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    # the rename is durable only once the directory entry itself is synced
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_chunk(path: Path, data: bytes) -> None:
    """Write serialized chunk bytes (chunk_bytes) to `path`, crash-safely."""
    _write_replacing(path, data)


class ChecksumMismatchError(ValueError):
    """A chunk file's bytes do not hash to the digest recorded for them."""


def read_chunk(path: Path, sha256: str, params: CodeParams, node: int,
               payload_len: int) -> np.ndarray:
    """Node `node`'s uint16 symbols, read from `path` and checked in order:
    the digest `sha256` before any byte is parsed (ChecksumMismatchError), so
    a damaged chunk is always reported as one; then the magic, the version and
    every header field against what chunk_bytes writes for (params, node,
    payload_len); then the body length and the symbol range (ValueError)."""
    raw = path.read_bytes()
    if hashlib.sha256(raw).hexdigest() != sha256:
        raise ChecksumMismatchError(f"node {node}: {path}: checksum mismatch against the manifest")
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}, not a chunk file")
    want = _header_fields(params, node, payload_len)
    try:
        got = struct.unpack_from(f"<{len(want)}I", raw, 4)
    except struct.error as exc:
        raise ValueError(f"{path}: truncated chunk header") from exc
    if got[0] != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {got[0]}")
    # fields 6 and 7 are node_index and payload_len; the rest fix the code
    if got[1:6] + got[8:] != want[1:6] + want[8:]:
        raise ValueError(f"chunk for node {node} was written with different parameters "
                         "or evaluation points")
    if got[6] != node:
        raise ValueError(f"chunk file for node {node} claims index {got[6]}")
    if got[7] != payload_len:
        raise ValueError(f"chunk for node {node} has wrong payload length")
    body = memoryview(raw)[4 + 4 * len(want):]
    expected = body_length(payload_len, params.p)
    if len(body) != expected:
        raise ValueError(f"{path}: body holds {len(body)} bytes, expected {expected}")
    symbols = unpack_body(body, params.p, payload_len)
    # a w-bit field holds values up to 2^w - 1 >= p
    if symbols.size and symbols.max() >= params.p:
        raise ValueError(f"{path}: symbol out of field range")
    return symbols


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

    @classmethod
    def new(cls, params: CodeParams, original_length: int, stripe_count: int,
            digests: list[str]) -> "Manifest":
        """The manifest of a fresh store whose node i chunk hashes to digests[i]."""
        chunks = {str(i): {"file": chunk_name(i), "sha256": h} for i, h in enumerate(digests)}
        return cls(FORMAT_VERSION, params.n, params.k, params.d, params.h, params.p,
                   params.lambdas, params.mus, bits_per_symbol(params.p), original_length,
                   stripe_count, chunks, failed=[])

    def save(self, directory: Path) -> None:
        data = asdict(self)
        data["lambdas"] = list(self.lambdas)
        data["mus"] = list(self.mus)
        _write_replacing(directory / MANIFEST_NAME, (json.dumps(data, indent=2) + "\n").encode())

    @classmethod
    def load(cls, directory: Path) -> "Manifest":
        path = directory / MANIFEST_NAME
        if not path.exists():
            raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            raise ValueError(f"{path}: manifest must hold a JSON object")
        if data.get("format") != FORMAT_VERSION:
            raise ValueError(
                f"{path}: store is in chunk format {data.get('format')}, but this version "
                f"reads format {FORMAT_VERSION} only; re-encode the original file"
            )
        names = [f.name for f in fields(cls)]
        for key in names:
            if key not in data:
                raise ValueError(f"{path}: manifest field {key!r} is missing")
        for key in data:
            if key not in names:
                raise ValueError(f"{path}: manifest field {key!r} is unknown")
        for key in ("n", "k", "d", "h", "p", "bits_per_symbol", "original_length", "stripe_count"):
            if not _is_count(data[key]):
                raise ValueError(f"{path}: manifest field {key!r} must be a non-negative "
                                 f"integer, got {data[key]!r}")
        for key in ("lambdas", "mus", "failed"):
            if not isinstance(data[key], list) or not all(map(_is_count, data[key])):
                raise ValueError(f"{path}: manifest field {key!r} must be a list of "
                                 "non-negative integers")
        if data["bits_per_symbol"] != (m := bits_per_symbol(data["p"])):
            raise ValueError(f"{path}: manifest field 'bits_per_symbol' must be {m} for "
                             f"p={data['p']}, got {data['bits_per_symbol']}")
        # a chunk's file is named by its node, so no entry can point outside the store
        chunks = data["chunks"]
        if not (isinstance(chunks, dict) and len(chunks) == data["n"] and all(
                isinstance(chunks.get(str(i)), dict) and chunks[str(i)].get("file") == chunk_name(i)
                and isinstance(chunks[str(i)].get("sha256"), str) for i in range(data["n"]))):
            raise ValueError(f"{path}: manifest field 'chunks' must map every node index i "
                             "to its file node<i>.mscr and its sha256")
        data["lambdas"] = tuple(data["lambdas"])
        data["mus"] = tuple(data["mus"])
        return cls(**data)


def _is_count(value) -> bool:
    """A JSON integer >= 0 (JSON true and false load as bool, an int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


# --- file-level striping -----------------------------------------------------

def encode_file(data: bytes, params: CodeParams):
    """Encode a byte string into n chunk bodies (one per node).

    Returns (bodies, original_length, stripe_count); bodies[i] is node i's
    concatenated per-stripe columns, stripe_count * N uint16 symbols.
    """
    symbols = pack_bytes(data, params.p)
    per_stripe = symbols_per_stripe(params)
    stripes = max(1, -(-symbols.size // per_stripe))
    arr = np.zeros((params.n, stripes, params.planes, params.s_pow_n), dtype=np.uint16)
    # stripe st's message is node 0..k-1's columns of stripe st, in order;
    # whole stripes are copied as blocks, the partial last one symbol by symbol
    message = arr[: params.k].swapaxes(0, 1)
    full = symbols.size // per_stripe
    message[:full] = symbols[: full * per_stripe].reshape(message[:full].shape)
    message[full:].flat[: symbols.size - full * per_stripe] = symbols[full * per_stripe:]
    del symbols, message
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
        message = np.zeros((stripe_count, k) + shape[1:], dtype=np.uint16)
        cols = list(message.swapaxes(0, 1)) + [np.zeros(shape, dtype=np.uint16)
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
