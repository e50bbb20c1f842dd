"""On-disk chunk format, directory manifest, and byte<->symbol packing.

Chunk layout (all integers little-endian):
    magic   4 bytes  b"MSCR"
    u32 x 9          version, n, k, d, h, p, node_index, payload_len, bits_per_symbol
    u32 x (n+s-1)    evaluation points: lambdas then mus
    body             payload_len symbols packed at w = ceil(log2 p) bits each

payload_len = stripe_count * N.  Files longer than one stripe are striped:
consecutive kN-symbol runs of the message are independent codewords and each
node's chunk concatenates its per-stripe columns in stripe order.  So
encode_file and decode_file walk a file in blocks of stripes (blocks), with
one code.encode or code.erase_decode call per block: encode holds its n
serialized chunks and one block, reading the input a block at a time, and
decode holds the chunks' symbols, the output bytes and one block.  A block
is a multiple of 8 stripes, so every block starts on a byte of each bit
plane of a body and of the message bitstream.  File-level symbols are uint16
from parsing to writing (pack_bytes, read_chunk, encode_file, decode_file):
p < 2^16, so every symbol fits, and the solver's wider arithmetic lives only
in its work arrays, of one block.

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

Every file the package writes (chunks, the manifest, and the CLI's outputs)
goes through write_replacing: a temporary file beside its destination,
synced, renamed over it, and the directory synced after the rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import code
from .code import CodeParams, InconsistentCodewordError, validate_params

MAGIC = b"MSCR"
FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
QUARANTINE_SUFFIX = ".failed"
# Symbols per node in one block of stripes (see blocks).  The solver's work
# arrays hold up to r int32 (or int64) entries per symbol of a block, so a
# block costs a few hundred KB whatever the file's size.
BLOCK_SYMBOLS = 1 << 15


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


def _pack_into(body, payload_len: int, offset: int, symbols: np.ndarray, p: int) -> None:
    """Write symbols[...] into the body buffer of payload_len symbols (see the
    module docstring) as its symbols offset, offset+1, ...; offset is a
    multiple of 8, so each bit plane's part starts on a byte."""
    w = stored_width(p)
    out = np.frombuffer(body, dtype=np.uint8)
    vals = symbols.reshape(-1)
    for j in range(w // 8):
        start = j * payload_len + offset
        out[start:start + vals.size] = (vals >> (8 * j)).astype(np.uint8)
    plane, start = -(-payload_len // 8), w // 8 * payload_len + offset // 8
    for b in range(w // 8 * 8, w):
        bits = np.packbits((vals >> b).astype(np.uint8) & 1)
        out[start:start + bits.size] = bits
        start += plane


def pack_body(symbols: np.ndarray, p: int) -> bytes:
    """Symbols in [0, p) -> byte planes, then bit planes (see module docstring)."""
    vals = symbols.astype(np.uint16, copy=False)
    body = bytearray(body_length(vals.size, p))
    _pack_into(body, vals.size, 0, vals, p)
    return bytes(body)


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


def _header(params: CodeParams, node: int, payload_len: int) -> bytes:
    """Magic, header fields and evaluation points of node `node`'s chunk."""
    fields_ = _header_fields(params, node, payload_len)
    return MAGIC + struct.pack(f"<{len(fields_)}I", *fields_)


def chunk_bytes(params: CodeParams, node: int, symbols: np.ndarray) -> bytes:
    """Serialize node `node`'s chunk of `params` holding `symbols`: magic,
    header fields, evaluation points, packed body."""
    code.check_reduced(params, symbols, "chunk")
    return _header(params, node, symbols.size) + pack_body(symbols, params.p)


def write_replacing(path: Path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path`, sync it, rename it over
    `path` and sync the directory: a crash leaves the old file or the new one,
    never a partial one, and a completed call survives a power loss.  A
    symbolic link is followed, not replaced; a device, pipe or directory
    would be replaced by the rename, so such a `path` is refused."""
    path = Path(os.path.realpath(path))
    if path.exists() and not path.is_file():
        raise ValueError(f"{path} exists and is not a regular file")
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
    write_replacing(path, data)


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
        """The code's parameters; the byte length must fill stripe_count stripes."""
        params = validate_params(self.n, self.k, self.d, self.h, p=self.p,
                                 lambdas=self.lambdas, mus=self.mus)
        if (want := stripes_for(self.original_length, params)) != self.stripe_count:
            raise ValueError(f"manifest field 'original_length' = {self.original_length} bytes "
                             f"fills {want} stripe(s), but 'stripe_count' is {self.stripe_count}")
        return params

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
        write_replacing(directory / MANIFEST_NAME, (json.dumps(data, indent=2) + "\n").encode())

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

def stripes_for(original_length: int, params: CodeParams) -> int:
    """Stripes of a file of original_length bytes: its message symbols,
    ceil(8 len / m), in stripes of kN, and at least one."""
    symbols = -(-8 * original_length // bits_per_symbol(params.p))
    return max(1, -(-symbols // symbols_per_stripe(params)))


def blocks(params: CodeParams, stripes: int) -> list[tuple[int, int]]:
    """The [start, stop) stripe ranges a file of `stripes` stripes is walked
    in: BLOCK_SYMBOLS symbols per node, rounded down to a multiple of 8
    stripes and at least 8, so every block but the last ends on a byte of
    each bit plane and of the message bitstream."""
    size = max(8, BLOCK_SYMBOLS // params.N // 8 * 8)
    return [(st, min(st + size, stripes)) for st in range(0, stripes, size)]


def _message_bytes(params: CodeParams, start: int, stop: int, original_length: int):
    """The file's byte range [first, last) held by stripes [start, stop)."""
    bits = symbols_per_stripe(params) * bits_per_symbol(params.p)
    return start * bits // 8, min(original_length, stop * bits // 8)


def encode_file(fh, length: int, params: CodeParams) -> tuple[list[bytearray], int]:
    """Encode `length` bytes read from the binary file `fh` into n chunks.

    Returns (chunks, stripe_count): chunks[i] is node i's serialized chunk,
    byte for byte what chunk_bytes writes for its symbols.  The input is read
    one block of stripes at a time (blocks); each block is packed, encoded
    by code.encode, and its byte and bit planes are written straight into
    the chunks.  A read that ends before `length` bytes or a byte past them
    is a ValueError, so a file that shrinks or grows while it is read is
    never encoded.
    """
    stripes = stripes_for(length, params)
    payload_len = stripes * params.N
    headers = [_header(params, i, payload_len) for i in range(params.n)]
    chunks = [bytearray(len(h) + body_length(payload_len, params.p)) for h in headers]
    for chunk, header in zip(chunks, headers):
        chunk[:len(header)] = header
    bodies = [memoryview(chunk)[len(header):] for chunk, header in zip(chunks, headers)]
    for start, stop in blocks(params, stripes):
        first, last = _message_bytes(params, start, stop, length)
        data = fh.read(last - first)
        if len(data) != last - first:
            raise ValueError(f"input ended after {first + len(data)} of {length} bytes")
        message = np.zeros((stop - start) * symbols_per_stripe(params), dtype=np.uint16)
        symbols = pack_bytes(data, params.p)
        message[:symbols.size] = symbols
        del data, symbols
        for body, col in zip(bodies, code.encode(params, message)):
            _pack_into(body, payload_len, start * params.N, col, params.p)
    if fh.read(1):
        raise ValueError(f"input holds more than the {length} bytes it had when encoding began")
    return chunks, stripes


def check_padding(params: CodeParams, last_stripe: np.ndarray, original_length: int,
                  stripe_count: int) -> None:
    """Encode pads the last stripe with zero bits, so a set bit of its
    message past original_length means the recorded length is wrong
    (ValueError).  last_stripe is that stripe's message: its k systematic
    (planes, s^n) columns."""
    m = bits_per_symbol(params.p)
    # the pad bits: the last m - r bits of symbol q, in which the file's last
    # byte ends r bits into the stripe's message, and every later symbol
    used = 8 * original_length - (stripe_count - 1) * symbols_per_stripe(params) * m
    q, r = divmod(used, m)
    pad = np.array(last_stripe, dtype=np.uint16).reshape(-1)[q:]
    if r:
        pad[0] &= (1 << (m - r)) - 1
    if pad.any():
        raise ValueError(f"the last stripe's message has set bits past original_length "
                         f"= {original_length} bytes, which encode pads with zeros")


def decode_file(bodies: dict[int, np.ndarray], params: CodeParams,
                original_length: int, stripe_count: int) -> bytearray:
    """Rebuild the original bytes from any >= k chunk bodies.

    The output is filled one block of stripes at a time (blocks).  Without
    every systematic body, each block is decoded from the k lowest-indexed
    bodies by code.erase_decode, whose parity sweep must pass before the
    block is unpacked (InconsistentCodewordError otherwise, naming the
    stripe in the file).  The last stripe's padding must be zero
    (check_padding).
    """
    if len(bodies) < params.k:
        raise ValueError(f"need at least k={params.k} chunks to decode, got {len(bodies)}")
    for i, body in bodies.items():
        if body.shape != (stripe_count * params.N,):
            raise ValueError(f"chunk {i} holds {body.shape[0]} symbols, "
                             f"expected {stripe_count * params.N}")
    if stripes_for(original_length, params) != stripe_count:
        raise ValueError(f"{original_length} bytes do not fill {stripe_count} stripe(s)")
    shape = (stripe_count, params.planes, params.s_pow_n)
    # the k lowest-indexed bodies: the systematic ones, when all are given
    cols = {i: bodies[i].reshape(shape) for i in sorted(bodies)[:params.k]}
    out = bytearray(original_length)
    for start, stop in blocks(params, stripe_count):
        block = {i: col[start:stop] for i, col in cols.items()}
        if list(cols) != list(range(params.k)):
            try:
                block = code.erase_decode(params, block)
            except InconsistentCodewordError as exc:
                raise InconsistentCodewordError(start + exc.stripe, exc.plane) from None
        # (stripes, k, planes, s^n): each stripe's message in file order
        message = np.stack([block[i] for i in range(params.k)], axis=1)
        if stop == stripe_count:
            check_padding(params, message[-1], original_length, stripe_count)
        first, last = _message_bytes(params, start, stop, original_length)
        out[first:last] = unpack_symbols(message.reshape(-1), params.p, last - first)
    return out
