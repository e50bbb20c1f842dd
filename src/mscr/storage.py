"""On-disk chunk format, directory manifest, and byte<->symbol packing.

Chunk layout (all integers little-endian):
    magic   4 bytes  b"MSCR"
    u32 x 9          version, n, k, d, h, p, node_index, payload_len, bits_per_symbol
    u32 x (n+s-1)    evaluation points: lambdas then mus
    body             payload_len symbols packed in groups (node_groups)

payload_len = stripe_count * N.  Files longer than one stripe are striped:
consecutive kN-symbol runs of the message are independent codewords and each
node's chunk concatenates its per-stripe columns in stripe order.  So every
stage walks a file in blocks of stripes (blocks) and holds one block per
node, whatever the file's size: read_chunk returns a ChunkReader whose
block(start, stop) reads one block of a chunk, write_chunk a ChunkWriter
that writes one, encode_file reads its input one block at a time, and
decode_file writes its output one block at a time.  A block is a multiple
of 8 stripes, so every block starts on a byte of each bit plane of a body
and of the message bitstream: its symbols lie in one contiguous byte range
per plane (_plane_spans), which laid end to end are the body pack_body
writes for them.  File-level symbols are uint16 from parsing to writing:
p < 2^16, so every symbol fits, and the solver's wider arithmetic lives only
in its work arrays, of one block.

Message packing (pack_bytes) maps the file's bytes to symbols at
m = bits_per_symbol(p) bits each: 8 when p > 255, otherwise floor(log2 p),
MSB-first within the bitstream, so every message symbol is below 2^m <= p.
The header records m and the manifest the original byte length and its
sha256.  Each symbol of node i's chunk is below its radix q
(_symbol_bound): the k systematic chunks hold message symbols, q = 2^m, and
the r parity chunks any field element, q = p.

A body stores its symbols in groups of c consecutive ones (node_groups):
each group is the base-q value v = sum_i sym_i q^i, held in
B = stored_width(q^c) bits, and c is the divisor of N that minimises B/c
with B <= 64, ties going to the smallest c.  At q = 2^m, B/c = m for every
c, so a systematic chunk has c = 1 and B = m; a parity chunk stores near
log2 p bits per symbol (8.167 at p = 257 and N = 192).  Horner's rule
builds v in value_dtype(B), uint16 for B <= 16 and uint64 otherwise: the
partial sum of the top i+1 digits is below q^(i+1) <= q^c <= 2^B <= 2^64,
and so is its product with q before the next digit is added; none wraps.  The
group values of a body are first floor(B/8) byte planes, each holding one
byte of every value, low byte first; then B mod 8 bit planes, each the
np.packbits of one bit of every value, lowest remaining bit first.  So a
body of G = payload_len / c values is G * floor(B/8) + (B mod 8) * ceil(G/8)
bytes (body_length), and at p > 255 a systematic body is node i's message
bytes, stripe after stripe.  A B-bit value can reach 2^B - 1 >= q^c, so a
read peels the digits by floor division and checks the top one against q
while it is still B bits wide.  A block of 8 stripes starts on a group, as
c divides N, and so on a byte of every plane.  This is chunk format 4;
format 3 stored each parity symbol alone at ceil(log2 p) bits, and its
systematic bodies are the same bytes as format 4's.

Only this module knows the format.  write_chunk derives the header from the
code's parameters and the node; read_chunk checks the whole header, every
field and evaluation point, against the one it writes.

Every file the package writes (chunks, the manifest, and the CLI's outputs)
goes through replacing: a temporary file beside its destination, synced,
renamed over it, and the directory synced after the rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import code
from .code import CodeParams, InconsistentCodewordError, validate_params
from .field import check_below

MAGIC = b"MSCR"
FORMAT_VERSION = 4
MANIFEST_NAME = "manifest.json"
QUARANTINE_SUFFIX = ".failed"
# Symbols per node in one block of stripes (see blocks).  The solver's work
# arrays hold up to r entries of code.accumulator_dtype per symbol of a
# block, so a block costs a few hundred KB whatever the file's size.
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


def unpack_symbols(symbols: np.ndarray, p: int) -> bytes:
    """Inverse of pack_bytes: the symbols' whole bitstream, its last byte
    filled with zero bits."""
    m = bits_per_symbol(p)
    if m == 8:
        return symbols.astype(np.uint8).tobytes()
    vals = symbols.astype(np.uint8)
    bits = np.empty((vals.size, m), dtype=np.uint8)  # the low m bits, MSB first
    for i in range(m):
        np.right_shift(vals, m - 1 - i, out=bits[:, i])
        bits[:, i] &= 1
    return np.packbits(bits.reshape(-1)).tobytes()


def stored_width(bound: int) -> int:
    """Bits that hold any value below `bound`, ceil(log2 bound)."""
    return (bound - 1).bit_length()


def _symbol_bound(params: CodeParams, node: int) -> int:
    """The radix of node `node`'s chunk: every symbol is below it.  2^m for
    a systematic chunk (m = bits_per_symbol(p), 2^m <= p), p for a parity
    one."""
    return 1 << bits_per_symbol(params.p) if node < params.k else params.p


def node_groups(params: CodeParams, node: int) -> tuple[int, int]:
    """(c, B): node `node`'s chunk stores its symbols c at a time, each group
    as one B-bit base-q value, q = _symbol_bound.  c is the divisor of N
    that minimises B/c, with B = stored_width(q^c) <= 64; the first such c
    on ties, so c = 1 and B = m for a systematic chunk."""
    q, shapes, c = _symbol_bound(params, node), [], 1
    while (width := stored_width(q**c)) <= 64:
        if params.N % c == 0:
            shapes.append((c, width))
        c += 1
    return min(shapes, key=lambda shape: Fraction(shape[1], shape[0]))


def value_dtype(width: int) -> type:
    """The unsigned dtype of `width`-bit group values: uint16 up to 16
    bits, which holds every symbol, else uint64."""
    return np.uint16 if width <= 16 else np.uint64


def body_length(values: int, width: int) -> int:
    """Bytes of a chunk body holding `values` group values of `width` bits."""
    return values * (width // 8) + (width % 8) * -(-values // 8)


def _plane_spans(values: int, width: int, first: int, last: int) -> list[tuple[int, int]]:
    """(offset, length) of the bytes of a body of `values` group values of
    `width` bits that hold its values [first, last), first a multiple of 8:
    one range per byte plane, then one per bit plane.  Laid end to end they
    are the body pack_body writes for those values."""
    if first % 8:
        raise ValueError(f"a block must start on a multiple of 8 groups, not {first}")
    bits_at, plane = width // 8 * values, -(-values // 8)
    return ([(j * values + first, last - first) for j in range(width // 8)]
            + [(bits_at + t * plane + first // 8, -(-last // 8) - first // 8)
               for t in range(width % 8)])


def group_values(symbols: np.ndarray, q: int, c: int, width: int) -> np.ndarray:
    """The base-q value sum_i sym_i q^i of each run of c consecutive
    symbols, all below q, by Horner's rule in value_dtype(width); q^c must
    be at most 2^width (see the module docstring for the bound)."""
    digits = symbols.reshape(-1, c).astype(value_dtype(width))
    values = digits[:, c - 1].copy()
    for i in range(c - 2, -1, -1):
        values *= q
        values += digits[:, i]
    return values


def pack_body(values: np.ndarray, width: int) -> bytes:
    """Values in [0, 2^width) -> byte planes, then bit planes (see module
    docstring).  Only the low `width` bits of each value are kept."""
    vals = values.astype(value_dtype(width), copy=False).reshape(-1)
    planes = [(vals >> (8 * j)).astype(np.uint8) for j in range(width // 8)]
    planes += [np.packbits((vals >> b).astype(np.uint8) & 1) for b in range(width // 8 * 8, width)]
    return b"".join(plane.tobytes() for plane in planes)


def unpack_body(body: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of pack_body: `count` values in value_dtype(width), which
    holds every width-bit value; `body` must be body_length(count, width)
    bytes."""
    dtype = value_dtype(width)
    buf = np.frombuffer(body, dtype=np.uint8)
    vals = np.zeros(count, dtype=dtype)
    for j in range(width // 8):
        vals |= np.left_shift(buf[j * count:(j + 1) * count], 8 * j, dtype=dtype)
    off, plane = width // 8 * count, -(-count // 8)
    for b in range(width // 8 * 8, width):
        bits = np.unpackbits(buf[off:off + plane], count=count)
        vals |= np.left_shift(bits, b, dtype=dtype)
        off += plane
    return vals


def _header_fields(params: CodeParams, node: int, payload_len: int) -> tuple[int, ...]:
    """The u32 header fields of node `node`'s chunk of `params`, in file order."""
    return (FORMAT_VERSION, params.n, params.k, params.d, params.h, params.p, node,
            payload_len, bits_per_symbol(params.p), *params.lambdas, *params.mus)


def _header(params: CodeParams, node: int, payload_len: int) -> bytes:
    """Magic, header fields and evaluation points of node `node`'s chunk.  A
    field past the format's u32 is a ValueError naming it, in practice
    payload_len, for 2^32 or more symbols per node; the fields after it are
    below p < 2^16."""
    fields_ = _header_fields(params, node, payload_len)
    for name, value in zip(("format", "n", "k", "d", "h", "p", "node", "payload_len"), fields_):
        if value >= 2**32:
            raise ValueError(f"chunk header field {name}={value} exceeds the chunk format's "
                             f"u32 limit of {2**32 - 1}")
    return MAGIC + struct.pack(f"<{len(fields_)}I", *fields_)


@contextmanager
def replacing(path: Path):
    """Yield a binary file, open for writing and reading, that replaces
    `path` when the block ends without an exception: it is a temporary file
    beside `path`, synced, renamed over it, and the directory is synced
    after the rename.  So a crash leaves the old file or the new one, never
    a partial one, and a completed block survives a power loss; on any error
    the temporary file is removed.  A symbolic link is followed, not
    replaced; a device, pipe or directory would be replaced by the rename,
    so such a `path` is refused."""
    path = Path(os.path.realpath(path))
    if path.exists() and not path.is_file():
        raise ValueError(f"{path} exists and is not a regular file")
    # a fresh name, created exclusively: two writes never share a temporary
    # file, and no output path named in advance can be one
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w+b") as fh:
            yield fh
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


def write_replacing(path: Path, data: bytes) -> None:
    """Write `data` to `path` through replacing."""
    with replacing(path) as fh:
        fh.write(data)


class ChunkWriter:
    """A chunk being written, one block of stripes at a time, into the
    temporary file of replacing (see write_chunk)."""

    def __init__(self, fh, params: CodeParams, node: int, payload_len: int):
        header = _header(params, node, payload_len)
        fh.write(header)
        self._fh, self._params, self._node, self._payload_len = fh, params, node, payload_len
        self._q, (self._c, self._width) = _symbol_bound(params, node), node_groups(params, node)
        self._body_at = len(header)
        self.written = 0  # symbols

    def write(self, start: int, symbols: np.ndarray) -> None:
        """Store `symbols`, the (stripes, planes, s^n) columns of stripes
        start, start+1, ..., at their place in every plane of the body.  A
        symbol outside [0, q) (_symbol_bound) is a ValueError naming the
        node: its group's value would otherwise hold other digits."""
        check_below(symbols, self._q, f"node {self._node}: chunk symbols")
        c, width = self._c, self._width
        first = start * self._params.N // c
        values = group_values(symbols, self._q, c, width)
        body = memoryview(pack_body(values, width))
        pos = 0
        for off, size in _plane_spans(self._payload_len // c, width,
                                      first, first + values.size):
            self._fh.seek(self._body_at + off)
            self._fh.write(body[pos:pos + size])
            pos += size
        self.written += symbols.size

    def sha256(self) -> str:
        """The hex digest of the chunk written so far, read back from the file."""
        self._fh.flush()
        self._fh.seek(0)
        return _sha256(self._fh)


@contextmanager
def write_chunk(path: Path, params: CodeParams, node: int, payload_len: int):
    """Yield a ChunkWriter for node `node`'s chunk of payload_len symbols at
    `path`; the chunk replaces `path` (replacing) when the block ends and
    every symbol has been written."""
    with replacing(path) as fh:
        chunk = ChunkWriter(fh, params, node, payload_len)
        yield chunk
        if chunk.written != payload_len:
            raise ValueError(f"chunk for node {node}: {chunk.written} of {payload_len} "
                             "symbols written")


def _sha256(fh) -> str:
    """The hex digest of the rest of the binary file `fh`, read into one
    fixed 256 KiB buffer, so hashing holds the same memory for any file."""
    digest, buf = hashlib.sha256(), bytearray(1 << 18)
    view = memoryview(buf)
    while size := fh.readinto(buf):
        digest.update(view[:size])
    return digest.hexdigest()


class ChecksumMismatchError(ValueError):
    """A chunk file's bytes do not hash to the digest recorded for them."""


class BadBlockError(ValueError):
    """A block of an open chunk does not read: the chunk changed since it
    was opened, or holds a symbol outside the field.  `node` is its node."""

    def __init__(self, node: int, message: str):
        super().__init__(message)
        self.node = node


class ChunkReader:
    """An open chunk whose digest and header have been checked (read_chunk);
    block(start, stop) reads stripes [start, stop).  Close it, or use it as
    a context manager."""

    def __init__(self, fh, path: Path, node: int, params: CodeParams, payload_len: int,
                 body_at: int, opened: tuple[int, int]):
        self._fh, self._path, self._node, self._params = fh, path, node, params
        self._payload_len, self._body_at, self._opened = payload_len, body_at, opened
        self._q, (self._c, self._width) = _symbol_bound(params, node), node_groups(params, node)

    def block(self, start: int, stop: int) -> np.ndarray:
        """The uint16 (stop - start, planes, s^n) columns of stripes
        [start, stop); start * N / c must be a multiple of 8.  A chunk whose
        size or modification time changed since it was opened, or whose
        group value is q^c or more (a top digit of q or more, q =
        _symbol_bound), is a BadBlockError naming the node."""
        params, fd = self._params, self._fh.fileno()
        first, last = start * params.N, stop * params.N
        if not 0 <= first <= last <= self._payload_len:
            raise ValueError(f"stripes [{start}, {stop}) are not in node {self._node}'s chunk")
        c, q = self._c, self._q
        body = b"".join(os.pread(fd, size, self._body_at + off) for off, size in
                        _plane_spans(self._payload_len // c, self._width, first // c, last // c))
        st = os.fstat(fd)
        if (st.st_size, st.st_mtime_ns) != self._opened:
            raise BadBlockError(self._node, f"node {self._node}: {self._path} changed while "
                                "it was read")
        values = unpack_body(body, self._width, (last - first) // c)
        symbols = np.empty((values.size, c), dtype=np.uint16)
        for i in range(c - 1):  # floor division by a scalar is about twice np.divmod's speed
            rest = values // q
            symbols[:, i] = values - rest * q
            values = rest
        # a B-bit value holds up to 2^B - 1 >= q^c: the top digit is checked
        # at the values' width, before it is narrowed to uint16
        if values.size and values.max() >= q:
            raise BadBlockError(self._node, f"node {self._node}: {self._path}: symbol out of "
                                "field range")
        symbols[:, c - 1] = values
        return symbols.reshape(stop - start, params.planes, params.s_pow_n)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "ChunkReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_chunk(path: Path, sha256: str, params: CodeParams, node: int,
               payload_len: int) -> ChunkReader:
    """Open node `node`'s chunk at `path` and check it, in order: the digest
    `sha256`, hashed in fixed-size sequential reads before any byte is parsed
    (ChecksumMismatchError), so a damaged chunk is always reported as one;
    then the magic, the version and every header field against what
    write_chunk writes for (params, node, payload_len); then the body length
    in group values (node_groups, ValueError).  Returns the open ChunkReader, whose
    blocks check the symbol range."""
    fh = open(path, "rb", buffering=0)
    try:
        st = os.fstat(fh.fileno())
        if _sha256(fh) != sha256:
            raise ChecksumMismatchError(f"node {node}: {path}: checksum mismatch against the manifest")
        want = _header_fields(params, node, payload_len)
        raw = os.pread(fh.fileno(), 4 + 4 * len(want), 0)
        if raw[:4] != MAGIC:
            raise ValueError(f"{path}: bad magic {raw[:4]!r}, not a chunk file")
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
        c, width = node_groups(params, node)
        expected = body_length(payload_len // c, width)
        if st.st_size - len(raw) != expected:
            raise ValueError(f"{path}: body holds {st.st_size - len(raw)} bytes, expected "
                             f"{expected} for {payload_len // c} groups of {c} symbols "
                             f"at {width} bits")
        return ChunkReader(fh, path, node, params, payload_len, len(raw),
                           (st.st_size, st.st_mtime_ns))
    except BaseException:
        fh.close()
        raise


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
    original_sha256: str
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
        distinct = set(self.failed) & set(range(params.n))
        if len(distinct) != len(self.failed) or len(distinct) not in (0, params.h):
            raise ValueError(f"manifest field 'failed' = {self.failed} must list none or "
                             f"h={params.h} distinct nodes of [0,{params.n}), as `fail` records")
        return params

    def check_decoded(self, sha256: str) -> None:
        """The decoded file, hashing to `sha256`, must be the one encoded."""
        if sha256 != self.original_sha256:
            raise ValueError(f"the decoded {self.original_length} bytes do not match manifest "
                             "field 'original_sha256'")

    @classmethod
    def new(cls, params: CodeParams, original_length: int, original_sha256: str,
            stripe_count: int, digests: list[str]) -> "Manifest":
        """The manifest of a fresh store whose node i chunk hashes to digests[i]."""
        chunks = {str(i): {"file": chunk_name(i), "sha256": h} for i, h in enumerate(digests)}
        return cls(FORMAT_VERSION, params.n, params.k, params.d, params.h, params.p,
                   params.lambdas, params.mus, bits_per_symbol(params.p), original_length,
                   original_sha256, stripe_count, chunks, failed=[])

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
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: not a JSON manifest: {exc}") from None
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
        if not isinstance(data["original_sha256"], str):
            raise ValueError(f"{path}: manifest field 'original_sha256' must be a string")
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
    return max(1, -(-symbols // params.message_length))


def blocks(params: CodeParams, stripes: int) -> list[tuple[int, int]]:
    """The [start, stop) stripe ranges a file of `stripes` stripes is walked
    in: BLOCK_SYMBOLS symbols per node, rounded down to a multiple of 8
    stripes and at least 8, so every block but the last ends on a byte of
    each bit plane and of the message bitstream."""
    size = max(8, BLOCK_SYMBOLS // params.N // 8 * 8)
    return [(st, min(st + size, stripes)) for st in range(0, stripes, size)]


def _byte_range(params: CodeParams, start: int, stop: int, original_length: int):
    """The file's byte range [first, last) held by stripes [start, stop)."""
    bits = params.message_length * bits_per_symbol(params.p)
    return start * bits // 8, min(original_length, stop * bits // 8)


def _read_message(fh, params: CodeParams, start: int, stop: int, length: int,
                  digest) -> np.ndarray:
    """The message symbols of stripes [start, stop) of a file of `length`
    bytes, whose bytes are read from `fh` and added to `digest`."""
    first, last = _byte_range(params, start, stop, length)
    data = fh.read(last - first)
    if len(data) != last - first:
        raise ValueError(f"input ended after {first + len(data)} of {length} bytes")
    digest.update(data)
    message = np.zeros((stop - start) * params.message_length, dtype=np.uint16)
    symbols = pack_bytes(data, params.p)
    message[:symbols.size] = symbols
    return message


def encode_file(fh, length: int, params: CodeParams, chunks: list[ChunkWriter]) -> str:
    """Encode `length` bytes read from the binary file `fh` into the n chunk
    writers (write_chunk, payload_len = stripes_for(length) * N); returns
    the sha256 hex digest of the bytes read.

    The input is read one block of stripes at a time (blocks); each block is
    packed, encoded by code.encode, and written to every chunk.  A read that
    ends before `length` bytes or a byte past them is a ValueError, so a
    file that shrinks or grows while it is read is never encoded.
    """
    digest = hashlib.sha256()
    for start, stop in blocks(params, stripes_for(length, params)):
        codewords = code.encode(params, _read_message(fh, params, start, stop, length, digest))
        for i, chunk in enumerate(chunks):
            chunk.write(start, codewords[i])
        del codewords  # freed before the next block is read: one block at a time
    if fh.read(1):
        raise ValueError(f"input holds more than the {length} bytes it had when encoding began")
    return digest.hexdigest()


def _file_bytes(params: CodeParams, message: list[np.ndarray], start: int, stop: int,
                original_length: int) -> bytes:
    """The file's bytes held by stripes [start, stop), from their k
    systematic (stop - start, planes, s^n) columns.  A block starts on a byte
    of the message bitstream, so the bytes it holds past the file's end are
    exactly its padding, which encode fills with zeros: a nonzero one is a
    ValueError naming original_length."""
    # (stripes, k, planes, s^n): each stripe's message in file order
    data = unpack_symbols(np.stack(message, axis=1).reshape(-1), params.p)
    first, last = _byte_range(params, start, stop, original_length)
    if any(data[last - first:]):
        raise ValueError(f"the last stripe's message has set bits past original_length "
                         f"= {original_length} bytes, which encode pads with zeros")
    return data[:last - first]


def decode_file(chunks: dict, params: CodeParams, original_length: int, stripe_count: int,
                out) -> str:
    """Rebuild the original bytes from any >= k chunks ({node: ChunkReader})
    into the binary file `out`; returns their sha256 hex digest.

    The output is written one block of stripes at a time (blocks).  Without
    every systematic chunk, each block is decoded from the k lowest-indexed
    chunks by code.erase_decode, whose parity sweep must pass before the
    block is unpacked (InconsistentCodewordError otherwise, naming the
    stripe in the file).  The last stripe's padding must be zero
    (_file_bytes).
    """
    if len(chunks) < params.k:
        raise ValueError(f"need at least k={params.k} chunks to decode, got {len(chunks)}")
    if stripes_for(original_length, params) != stripe_count:
        raise ValueError(f"{original_length} bytes do not fill {stripe_count} stripe(s)")
    # the k lowest-indexed chunks: the systematic ones, when all are given
    nodes = sorted(chunks)[:params.k]
    digest = hashlib.sha256()
    for start, stop in blocks(params, stripe_count):
        block = {i: chunks[i].block(start, stop) for i in nodes}
        if nodes != list(range(params.k)):
            try:
                block = code.erase_decode(params, block)
            except InconsistentCodewordError as exc:
                raise InconsistentCodewordError(start + exc.stripe, exc.plane) from None
        data = _file_bytes(params, [block[i] for i in range(params.k)], start, stop,
                           original_length)
        del block  # freed before the next block is read: one block at a time
        digest.update(data)
        out.write(data)
    return digest.hexdigest()
