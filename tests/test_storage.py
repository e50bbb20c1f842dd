import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import stat
import struct
import tempfile
import tracemalloc
from collections import Counter
from contextlib import ExitStack
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mscr import cli, code, storage
from mscr.code import encode, validate_params
from mscr.storage import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    Manifest,
    bits_per_symbol,
    chunk_name,
    decode_file,
    encode_file,
    node_groups,
    pack_body,
    pack_bytes,
    read_chunk,
    stored_width,
    stripes_for,
    unpack_body,
    unpack_symbols,
    write_chunk,
    write_replacing,
)

from conftest import chunk_bytes


def expected_radix(params, node):
    # written out from the format description, independently of storage:
    # systematic chunks hold m-bit message symbols, parity chunks field elements
    if node < params.k:
        return 2 ** (8 if params.p > 255 else math.floor(math.log2(params.p)))
    return params.p


def expected_groups(params, node):
    # (c, B), independently of storage.node_groups: over the divisors c of N
    # with q^c <= 2^64, the fewest bits per symbol, B/c, with B the bits of
    # q^c - 1; the smallest c on ties
    q, best = expected_radix(params, node), None
    for c in range(1, params.N + 1):
        bits = len(bin(q**c - 1)) - 2
        if bits > 64:
            break
        if params.N % c == 0 and (best is None or bits * best[0] < best[1] * c):
            best = (c, bits)
    return best


def expected_body_length(values, width):
    # written out from the format description, independently of storage.body_length
    return values * (width // 8) + (width % 8) * math.ceil(values / 8)


def reference_body(symbols, q, c, width, N):
    """A chunk body of `symbols` written out with Python integers,
    independently of storage: the base-q value of each run of c symbols;
    then, for each segment of 8 stripes, 8N/c values (the last segment
    holding what remains), its byte planes and its bit planes."""
    syms = [int(x) for x in np.asarray(symbols).reshape(-1)]
    values = [sum(d * q**i for i, d in enumerate(syms[g:g + c])) for g in range(0, len(syms), c)]
    out = bytearray()
    for at in range(0, len(values), 8 * N // c):
        segment = values[at:at + 8 * N // c]
        for j in range(width // 8):
            out += bytes((v >> (8 * j)) & 0xFF for v in segment)
        for b in range(width // 8 * 8, width):
            bits = [(v >> b) & 1 for v in segment] + [0] * (-len(segment) % 8)
            out += bytes(int("".join(map(str, bits[i:i + 8])), 2) for i in range(0, len(bits), 8))
    return bytes(out)


def sha256_hex(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def encode_bytes(data, params):
    """encode_file of `data` into chunk files: (chunks, stripes, bodies),
    where chunks[i] is node i's chunk file and bodies[i] its flat symbols
    read back through read_chunk."""
    stripes = stripes_for(len(data), params)
    payload_len = stripes * params.N
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / chunk_name(i) for i in range(params.n)]
        with ExitStack() as stack:
            writers = [stack.enter_context(write_chunk(path, params, i, payload_len))
                       for i, path in enumerate(paths)]
            assert encode_file(io.BytesIO(data), len(data), params, writers) == \
                hashlib.sha256(data).hexdigest()
            digests = [writer.sha256() for writer in writers]
        chunks = [path.read_bytes() for path in paths]
        assert digests == [hashlib.sha256(chunk).hexdigest() for chunk in chunks]
        bodies = []
        for i, path in enumerate(paths):
            with read_chunk(path, digests[i], params, i, payload_len) as chunk:
                bodies.append(chunk.block(0, stripes).reshape(-1))
    return chunks, stripes, np.stack(bodies)


class ArrayChunk:
    """decode_file's view of a chunk (block(start, stop)), over an in-memory body."""

    def __init__(self, body, params):
        self.columns = np.asarray(body).reshape(-1, params.planes, params.s_pow_n)

    def block(self, start, stop):
        return self.columns[start:stop]


def decode(bodies, params, length, stripes):
    """decode_file of {node: flat body} into memory; returns the bytes, and
    checks the digest decode_file returns against them."""
    out = io.BytesIO()
    digest = decode_file({i: ArrayChunk(body, params) for i, body in bodies.items()},
                         params, length, stripes, out)
    assert digest == hashlib.sha256(out.getvalue()).hexdigest()
    return out.getvalue()


class TestPacking:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 17, 251, 257, 65521])
    @pytest.mark.parametrize("length", [0, 1, 7, 64, 1000])
    def test_roundtrip(self, p, length):
        rng = np.random.default_rng(length * 1000 + p)
        data = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
        symbols = pack_bytes(data, p)
        if symbols.size:
            assert symbols.max() < p
        assert unpack_symbols(symbols, p)[:len(data)] == data

    def test_bits_per_symbol(self):
        assert bits_per_symbol(2) == 1
        assert bits_per_symbol(5) == 2
        assert bits_per_symbol(7) == 2
        assert bits_per_symbol(17) == 4
        assert bits_per_symbol(255) == 7
        assert bits_per_symbol(257) == 8
        assert bits_per_symbol(65521) == 8

    def test_roundtrip_with_zero_padding(self):
        # extra zero symbols appended by striping must not change the bytes
        data = b"\x01\x02\x03"
        for p in (5, 257):
            symbols = pack_bytes(data, p)
            padded = np.concatenate([symbols, np.zeros(10, dtype=np.int64)])
            assert unpack_symbols(padded, p)[:len(data)] == data


PRIMES_TO_257 = [p for p in range(2, 258) if all(p % q for q in range(2, p))]


class TestPackingDefinition:
    # the message packing, pinned against its MSB-first bitstream definition
    @pytest.mark.parametrize("p", PRIMES_TO_257)
    def test_matches_msb_first_bitstream(self, p):
        # every length up to two whole runs of b bytes (c symbols) and one
        # more, so every partial last run is packed and unpacked
        m = bits_per_symbol(p)
        c = 8 // math.gcd(8, m)
        b = m * c // 8
        rng = np.random.default_rng(p)
        for size in [*range(2 * b + 2), 37]:
            data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            bits = "".join(f"{byte:08b}" for byte in data)
            bits += "0" * (-len(bits) % m)
            symbols = pack_bytes(data, p)
            assert symbols.dtype == np.uint16  # file-level symbols are uint16 at rest
            assert symbols.tolist() == [int(bits[i:i + m], 2) for i in range(0, len(bits), m)]

        for size in [*range(2 * c + 2), 41]:
            symbols = rng.integers(0, 1 << m, size=size)
            bits = "".join(format(int(v), f"0{m}b") for v in symbols)
            bits += "0" * (-len(bits) % 8)  # the last byte filled with zero bits
            assert unpack_symbols(symbols, p) == bytes(int(bits[i:i + 8], 2)
                                                       for i in range(0, len(bits), 8))

    def test_a_symbol_past_the_message_width_counts_by_its_low_bits(self):
        # a faulty solve can hand decode a systematic symbol of 2^m or more:
        # it is read by its low m bits, so the file's digest refuses it
        assert unpack_symbols(np.array([5, 1, 2, 3, 6, 0]), 7) == bytes.fromhex("5b80")
        assert unpack_symbols(np.array([256, 300, 7]), 257) == bytes.fromhex("002c07")
        # inside a run of c = 8 symbols too, where a carry would reach the next one
        assert unpack_symbols(np.array([3, 10, 0, 9, 1, 2, 8, 4]), 11) == bytes.fromhex("681284")


class TestChunkIO:
    def test_roundtrip(self, tmp_path, example1):
        symbols = np.arange(96, dtype=np.int64) % example1.p
        path = tmp_path / chunk_name(2)
        with write_chunk(path, example1, 2, 96) as chunk:
            chunk.write(0, symbols.reshape(2, 3, 16))
        assert path.read_bytes() == chunk_bytes(example1, 2, symbols)
        with read_chunk(path, sha256_hex(path), example1, 2, 96) as chunk:
            got_symbols = chunk.block(0, 2)
        assert got_symbols.dtype == np.uint16
        assert np.array_equal(got_symbols.reshape(-1), symbols)

    def test_chunk_not_filled_refused(self, tmp_path, example1):
        # a chunk is committed only once every symbol is written
        path = tmp_path / chunk_name(0)
        with pytest.raises(ValueError, match="node 0: 48 of 96 symbols written"):
            with write_chunk(path, example1, 0, 96) as chunk:
                chunk.write(0, np.zeros((1, 3, 16), dtype=np.uint16))
        assert list(tmp_path.iterdir()) == []

    def test_write_not_at_the_next_stripe_refused(self, tmp_path):
        # a writer appends blocks in order, each on a segment of 8 stripes:
        # a first write past stripe 0, a block written twice, a skipped
        # block, and a block after a short one are refused, and no file is left
        params = validate_params(4, 1, 3, 1, p=257)
        path = tmp_path / chunk_name(1)

        def block(stripes):
            return np.zeros((stripes, params.planes, params.s_pow_n), dtype=np.uint16)

        for writes, nxt, start in [([], 0, 1), ([(0, 8)], 8, 0), ([(0, 8)], 8, 16),
                                   ([(0, 5)], 5, 5)]:
            with pytest.raises(ValueError, match=rf"^node 1: a block must start at the next "
                                                 rf"unwritten stripe, {nxt}, on a multiple of 8; "
                                                 rf"not at stripe {start}$"):
                with write_chunk(path, params, 1, 24 * params.N) as chunk:
                    for at, stripes in writes:
                        chunk.write(at, block(stripes))
                    chunk.write(start, block(8))
            assert list(tmp_path.iterdir()) == []

    # u32 header field index, after the magic
    HEADER_FIELDS = {"version": 0, "n": 1, "k": 2, "d": 3, "h": 4, "p": 5, "node_index": 6,
                     "payload_len": 7, "bits_per_symbol": 8, "lambda0": 9, "mu0": 13}

    @pytest.mark.parametrize("field", list(HEADER_FIELDS))
    def test_header_field_disagreement_rejected(self, tmp_path, example1, field):
        # the chunk is rehashed, so only the header check can refuse it
        index = self.HEADER_FIELDS[field]
        raw = bytearray(chunk_bytes(example1, 2, np.zeros(48, dtype=np.uint16)))
        assert len(example1.lambdas) == 4  # so field 13 is the first mu
        (value,) = struct.unpack_from("<I", raw, 4 + 4 * index)
        struct.pack_into("<I", raw, 4 + 4 * index, value + 1)
        path = tmp_path / chunk_name(2)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError) as info:
            read_chunk(path, sha256_hex(path), example1, 2, 48)
        assert str(info.value) == (f"node 2: {path}: header is not the one written for node 2 "
                                   "of this code and payload length")

    def test_every_header_byte_edit_refused(self, tmp_path, example1):
        # each bit of every header byte flipped behind a matching digest:
        # read_chunk refuses every one with a ValueError naming the node
        raw = chunk_bytes(example1, 2, np.zeros(48, dtype=np.uint16))
        path = tmp_path / chunk_name(2)
        for at in range(len(storage._header(example1, 2, 48))):
            for bit in range(8):
                edited = bytearray(raw)
                edited[at] ^= 1 << bit
                path.write_bytes(bytes(edited))
                with pytest.raises(ValueError) as info:
                    read_chunk(path, sha256_hex(path), example1, 2, 48)
                assert "node 2" in str(info.value) or path.name in str(info.value), (at, bit)

    def test_payload_len_past_u32_refused(self, tmp_path, example1):
        # the header would not pack: an error naming the field, not struct.error
        with pytest.raises(ValueError, match=r"payload_len=4294967296 exceeds .* u32 limit of 4294967295"):
            with write_chunk(tmp_path / chunk_name(0), example1, 0, 2**32):
                pass
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic_rejected(self, tmp_path, example1):
        path = tmp_path / "bad.mscr"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="^node 0: .*bad.mscr: header is not the one written"):
            read_chunk(path, sha256_hex(path), example1, 0, 48)

    def test_truncated_body_rejected(self, tmp_path, example1):
        symbols = np.zeros(48, dtype=np.int64)
        path = tmp_path / chunk_name(0)
        write_replacing(path, chunk_bytes(example1, 0, symbols))
        raw = path.read_bytes()
        path.write_bytes(raw[:-2])
        with pytest.raises(ValueError, match="body"):
            read_chunk(path, sha256_hex(path), example1, 0, 48)

    def test_checksum_checked_before_parsing(self, tmp_path, example1):
        path = tmp_path / chunk_name(0)
        write_replacing(path, chunk_bytes(example1, 0, np.zeros(48, dtype=np.int64)))
        digest = sha256_hex(path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 1  # the damaged magic would fail to parse
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="^node 0: checksum mismatch$"):
            read_chunk(path, digest, example1, 0, 48)

    def test_read_error_names_the_node(self, tmp_path, example1, monkeypatch):
        # a chunk that cannot be read is refused like any other, by node
        path = tmp_path / chunk_name(0)
        write_replacing(path, chunk_bytes(example1, 0, np.zeros(48, dtype=np.int64)))

        def unreadable(fh):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(storage, "_sha256", unreadable)
        with pytest.raises(ValueError, match=r"^node 0: \[Errno 5\] Input/output error$"):
            read_chunk(path, sha256_hex(path), example1, 0, 48)

    @staticmethod
    def refused(tmp_path, params, node, value, bound):
        """Writing `value` to node `node`'s chunk is refused before anything is
        packed (it would be stored truncated to the node's width), and no
        temporary file is left."""
        symbols = np.zeros((1, 3, 16), dtype=np.int64)
        symbols[0, 2, 7] = value
        with pytest.raises(ValueError, match=rf"node {node}: chunk symbols must lie in \[0,{bound}\)"):
            with write_chunk(tmp_path / chunk_name(node), params, node, 48) as chunk:
                chunk.write(0, symbols)
        assert list(tmp_path.iterdir()) == []

    # p = 5: a parity chunk holds field elements, at 3 bits; a systematic
    # chunk holds message symbols, below 2^2, at 2 bits
    def test_out_of_field_symbol_rejected(self, tmp_path, example1):
        self.refused(tmp_path, example1, 1, 5, 5)

    def test_negative_symbol_rejected(self, tmp_path, example1):
        self.refused(tmp_path, example1, 1, -1, 5)

    def test_systematic_symbol_of_2_to_the_m_rejected(self, tmp_path, example1):
        self.refused(tmp_path, example1, 0, 4, 4)


class TestBodyPacking:
    def test_stored_width(self):
        assert [stored_width(p) for p in (2, 3, 5, 7, 257, 65521)] == [1, 2, 3, 3, 9, 16]

    @pytest.mark.parametrize("nkdh,p", [((4, 1, 2, 2), 5), ((6, 2, 3, 3), 7),
                                        ((6, 3, 4, 2), 257), ((4, 1, 2, 2), 13399)])
    def test_node_width(self, nkdh, p):
        params = validate_params(*nkdh, p=p)
        assert [node_groups(params, i) for i in range(params.n)] == [
            expected_groups(params, i) for i in range(params.n)]
        # a systematic chunk keeps one symbol per group, at the message width
        assert node_groups(params, 0) == (1, bits_per_symbol(p))

    def test_layout_by_hand(self):
        # one short segment of 3 values:
        # width 9: one byte plane (low bytes), then the plane of bit 8
        assert pack_body(np.array([256, 1, 255]), 9, 8) == bytes([0, 1, 255, 0b10000000])
        # width 8 (systematic at p=257): the symbols' bytes verbatim
        assert pack_body(np.array([7, 1, 255]), 8, 8) == bytes([7, 1, 255])
        # width 3: bit planes 0, 1, 2 of (5, 3, 6) = (101, 011, 110)
        assert pack_body(np.array([5, 3, 6]), 3, 8) == bytes([0b11000000, 0b01100000, 0b10100000])
        # width 2 (systematic at p=7): bit planes 0, 1 of (1, 3, 2) = (01, 11, 10)
        assert pack_body(np.array([1, 3, 2]), 2, 8) == bytes([0b11000000, 0b01100000])
        # a segment of 8 values, then a short one of 1: each its own planes
        assert pack_body(np.array([1, 3, 2, 0, 0, 0, 0, 1, 3]), 2, 8) == bytes(
            [0b11000001, 0b01100000, 0b10000000, 0b10000000])
        # groups of 3 base-7 digits, the low digit first: 1 + 2*7 + 3*49 = 162
        assert storage.group_values(np.array([1, 2, 3, 6, 0, 0]), 7, 3, 9).tolist() == [162, 6]

    @settings(deadline=None)
    @given(st.integers(1, 64).flatmap(
        lambda w: st.tuples(st.just(w), st.lists(st.integers(0, 2**w - 1), max_size=100),
                            st.integers(1, 4))))
    def test_roundtrip(self, case):
        width, values, segment = case[0], case[1], 8 * case[2]
        body = pack_body(np.array(values, dtype=np.uint64), width, segment)
        assert len(body) == expected_body_length(len(values), width)
        assert unpack_body(body, width, len(values), segment).tolist() == values
        assert body == reference_body(values, 2**width, 1, width, segment // 8)

    # N -> the c of a parity chunk at each shape's listed p (257, 7, 257),
    # and c = 1, a systematic chunk's
    SEGMENT_SHAPES = [(192, 6), (192, 1), (256, 16), (256, 1), (243, 3), (243, 1)]

    @pytest.mark.parametrize("N,c", SEGMENT_SHAPES)
    def test_segments(self, N, c):
        # G = 8N/c values a segment: a body of whole segments and one of
        # a short last segment round-trip, at the body length of format 4;
        # a body's whole segments are its prefix; and a systematic body at
        # p > 255 (c = 1, width 8) is its values' bytes
        G = 8 * N // c
        rng = np.random.default_rng(N + c)
        for width in range(1, 65):
            values = rng.integers(0, 2**width, size=2 * G + N // c + 3, dtype=np.uint64)
            values[-1] = 2**width - 1
            for count in (2 * G, values.size):
                body = pack_body(values[:count], width, G)
                assert len(body) == storage.body_length(count, width) \
                    == expected_body_length(count, width)
                assert np.array_equal(unpack_body(body, width, count, G), values[:count])
            for k in range(3):
                assert pack_body(values[:k * G], width, G) == \
                    body[:expected_body_length(k * G, width)], (width, k)
            if width == 8 and c == 1:
                assert body == values.astype(np.uint8).tobytes()


class TestGroupCodec:
    """Chunk format 5 bodies against reference_body, a packer written with
    Python integers, at fields from 1-bit to 16-bit symbols and at N = 192,
    256 and 243 (no multiple of 8).  Reading a chunk only frames it, so a
    field too small for a shape's code is set on its parameters directly."""

    SHAPES = {192: (6, 3, 4, 2), 256: (6, 2, 3, 3), 243: (4, 1, 3, 1)}
    PRIMES = [3, 5, 7, 11, 257, 13399, 55103, 65521]
    STRIPES = 21  # blocks of 8, 8 and 5 stripes

    @classmethod
    def params(cls, N, p):
        params = dataclasses.replace(validate_params(*cls.SHAPES[N]), p=p)
        assert params.N == N
        return params

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("N", list(SHAPES))
    def test_roundtrip_matches_reference(self, tmp_path, monkeypatch, N, p):
        params = self.params(N, p)
        c, width = node_groups(params, params.n - 1)
        assert (c, width) == expected_groups(params, params.n - 1)
        if p in (13399, 55103) and N % 4 == 0:
            assert c == 4
        if p == 65521:
            assert c == 1
        monkeypatch.setattr(storage, "BLOCK_SYMBOLS", 1)  # blocks of 8 stripes
        assert storage.blocks(params, self.STRIPES)[-1] == (16, 21)
        payload_len = self.STRIPES * N
        for node in (0, params.n - 1):
            q = expected_radix(params, node)
            c, width = expected_groups(params, node)
            rng = np.random.default_rng(p * N + node)
            symbols = rng.integers(0, q, size=(self.STRIPES, params.planes, params.s_pow_n),
                                   dtype=np.uint16)
            symbols.reshape(-1)[-c:] = q - 1  # the largest group value, q^c - 1
            path = tmp_path / chunk_name(node)
            with write_chunk(path, params, node, payload_len) as chunk:
                for start, stop in storage.blocks(params, self.STRIPES):
                    chunk.write(start, symbols[start:stop])
            raw = path.read_bytes()
            head = len(storage._header(params, node, payload_len))
            assert raw[head:] == reference_body(symbols, q, c, width, N)
            with read_chunk(path, sha256_hex(path), params, node, payload_len) as chunk:
                for start, stop in storage.blocks(params, self.STRIPES):
                    assert np.array_equal(chunk.block(start, stop), symbols[start:stop])

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("N", list(SHAPES))
    def test_one_pread_per_block_and_no_seek(self, tmp_path, monkeypatch, N, p):
        # the writer appends the header and each block with one write each,
        # never seeks, and reads nothing back for its digest, which is the
        # committed file's; each block of the reader is one pread
        params = self.params(N, p)
        monkeypatch.setattr(storage, "BLOCK_SYMBOLS", 1)  # blocks of 8, 8 and 5 stripes
        spans = storage.blocks(params, self.STRIPES)
        assert len(spans) == 3
        calls, real_open, real_pread = Counter(), open, os.pread

        class Counting:
            """A file of storage's that counts seeks, writes and bytes read."""

            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def seek(self, *args):
                calls["seek"] += 1
                return self.fh.seek(*args)

            def write(self, data):
                calls["write"] += 1
                return self.fh.write(data)

            def readinto(self, buf):
                size = self.fh.readinto(buf)
                calls["bytes read"] += size
                return size

            def read(self, *args):
                data = self.fh.read(*args)
                calls["bytes read"] += len(data)
                return data

        def pread(fd, size, offset):
            calls["pread"] += 1
            return real_pread(fd, size, offset)

        monkeypatch.setattr(storage, "open", Counting, raising=False)
        monkeypatch.setattr(storage.os, "pread", pread)
        payload_len = self.STRIPES * N
        for node in (0, params.n - 1):
            symbols = np.random.default_rng(p + node).integers(
                0, expected_radix(params, node), dtype=np.uint16,
                size=(self.STRIPES, params.planes, params.s_pow_n))
            path = tmp_path / chunk_name(node)
            calls.clear()
            with write_chunk(path, params, node, payload_len) as chunk:
                for start, stop in spans:
                    chunk.write(start, symbols[start:stop])
                digest = chunk.sha256()
            assert calls == {"write": 1 + len(spans)}
            assert digest == sha256_hex(path)
            with read_chunk(path, digest, params, node, payload_len) as chunk:
                for start, stop in spans:
                    calls.clear()
                    assert np.array_equal(chunk.block(start, stop), symbols[start:stop])
                    assert calls == {"pread": 1}

    @pytest.mark.parametrize("p", PRIMES)
    def test_all_ones_group_is_a_bad_block(self, tmp_path, p):
        # a B-bit value of 2^B - 1 is at least p^c, behind a matching digest
        params = self.params(192, p)
        node = params.n - 1
        c, width = node_groups(params, node)
        symbols = np.zeros(2 * params.N, dtype=np.uint16)
        values = storage.group_values(symbols, p, c, width)
        values[-1] = 2**width - 1
        path = tmp_path / chunk_name(node)
        path.write_bytes(storage._header(params, node, symbols.size)
                         + pack_body(values, width, 8 * params.N // c))
        with read_chunk(path, sha256_hex(path), params, node, symbols.size) as chunk:
            with pytest.raises(storage.BadBlockError, match=f"node {node}: .* out of field range") \
                    as caught:
                chunk.block(0, 2)
        assert caught.value.node == node


class TestPackedBodyRejected:
    """Bodies whose sha256 matches the manifest but that do not parse."""

    # parity node 1 stores groups of 3 symbols in 25 bits, and one stripe of
    # N = 243 symbols, 81 groups: no multiple of 8
    P, LENGTH, NODE = 257, 243, 1
    PARAMS = validate_params(4, 1, 3, 1, p=P)

    def chunk(self, tmp_path, raw):
        path = tmp_path / chunk_name(self.NODE)
        path.write_bytes(raw)
        return path, hashlib.sha256(raw).hexdigest()

    def valid(self):
        return chunk_bytes(self.PARAMS, self.NODE, np.arange(self.LENGTH, dtype=np.int64))

    def test_packed_value_p_rejected(self, tmp_path):
        assert node_groups(self.PARAMS, self.NODE) == (3, 25)
        head = storage._header(self.PARAMS, self.NODE, self.LENGTH)
        values = storage.group_values(np.arange(self.LENGTH), self.P, 3, 25)
        values[1] = self.P**3  # digits (0, 0, p): fits in 25 bits, but p is no field element
        path, digest = self.chunk(tmp_path, head + pack_body(values, 25, 8 * self.LENGTH // 3))
        with read_chunk(path, digest, self.PARAMS, self.NODE, self.LENGTH) as chunk:
            with pytest.raises(ValueError, match="node 1: .* out of field range"):
                chunk.block(0, 1)

    @pytest.mark.parametrize("edit", [lambda raw: raw[:-1], lambda raw: raw + b"\x00"],
                             ids=["one-byte-short", "one-byte-long"])
    def test_wrong_body_length_rejected(self, tmp_path, edit):
        path, digest = self.chunk(tmp_path, edit(self.valid()))
        with pytest.raises(ValueError, match="body holds"):
            read_chunk(path, digest, self.PARAMS, self.NODE, self.LENGTH)


class TestCrashSafeWrites:
    """A write that fails partway leaves the previous file and no partial one."""

    def test_chunk_write(self, tmp_path, example1, fail_halfway):
        path = tmp_path / chunk_name(0)
        old = chunk_bytes(example1, 0, np.zeros(48, dtype=np.int64))
        write_replacing(path, old)
        fail_halfway()
        with pytest.raises(OSError, match="No space"):
            with write_chunk(path, example1, 0, 48) as chunk:
                chunk.write(0, np.ones((1, 3, 16), dtype=np.uint16))
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_manifest_save(self, tmp_path, fail_halfway):
        manifest = Manifest(
            format=FORMAT_VERSION, n=4, k=1, d=2, h=2, p=5, lambdas=(0, 1, 2, 3), mus=(4,),
            bits_per_symbol=2, original_length=100, original_sha256="1" * 64, stripe_count=9, chunks={}, failed=[],
        )
        manifest.save(tmp_path)
        old = (tmp_path / MANIFEST_NAME).read_bytes()
        fail_halfway()
        manifest.failed = [1, 2]
        with pytest.raises(OSError, match="No space"):
            manifest.save(tmp_path)
        assert (tmp_path / MANIFEST_NAME).read_bytes() == old
        assert list(tmp_path.iterdir()) == [tmp_path / MANIFEST_NAME]

    def test_symbolic_link_followed(self, tmp_path):
        # the link stays and its target gets the new bytes
        target, link = tmp_path / "real.txt", tmp_path / "link.txt"
        target.write_bytes(b"old")
        link.symlink_to(target.name)
        storage.write_replacing(link, b"new")
        assert link.is_symlink() and target.read_bytes() == b"new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]


class TestDurableRename:
    """After the rename the directory is fsynced, so a power loss cannot undo it."""

    @pytest.fixture()
    def events(self, monkeypatch):
        log = []
        real_replace, real_fsync = os.replace, os.fsync

        def replace(src, dst):
            real_replace(src, dst)
            log.append(("replace", Path(dst)))

        def fsync(fd):
            real_fsync(fd)
            st = os.fstat(fd)
            log.append(("fsync", (st.st_dev, st.st_ino), stat.S_ISDIR(st.st_mode)))

        monkeypatch.setattr(storage.os, "replace", replace)
        monkeypatch.setattr(storage.os, "fsync", fsync)
        return log

    @pytest.mark.parametrize("target", ["chunk", "manifest"])
    def test_directory_synced_after_rename(self, tmp_path, example1, events, target):
        if target == "chunk":
            path = tmp_path / chunk_name(0)
            with write_chunk(path, example1, 0, 48) as chunk:
                chunk.write(0, np.zeros((1, 3, 16), dtype=np.uint16))
        else:
            path = tmp_path / MANIFEST_NAME
            Manifest(
                format=FORMAT_VERSION, n=4, k=1, d=2, h=2, p=5, lambdas=(0, 1, 2, 3), mus=(4,),
                bits_per_symbol=2, original_length=100, original_sha256="1" * 64, stripe_count=9, chunks={}, failed=[],
            ).save(tmp_path)
        directory = os.stat(tmp_path)
        assert [e[0] for e in events] == ["fsync", "replace", "fsync"]
        assert events[0][2] is False  # the temp file's data, before the rename
        assert events[1] == ("replace", path)
        assert events[2] == ("fsync", (directory.st_dev, directory.st_ino), True)


class TestManifest:
    def test_roundtrip(self, tmp_path, example1):
        manifest = Manifest(
            format=FORMAT_VERSION,
            n=4, k=1, d=2, h=2, p=5,
            lambdas=(0, 1, 2, 3), mus=(4,),
            bits_per_symbol=2, original_length=100, original_sha256="1" * 64, stripe_count=9,
            chunks={str(i): {"file": chunk_name(i), "sha256": "0" * 64} for i in range(4)},
            failed=[1, 2],
        )
        manifest.save(tmp_path)
        got = Manifest.load(tmp_path)
        assert got == manifest
        assert got.params() == example1
        manifest.failed = []
        assert Manifest.new(example1, 100, "1" * 64, 9, ["0" * 64] * 4) == manifest

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Manifest.load(tmp_path)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 6, None])
    def test_other_format_rejected(self, tmp_path, version):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": version}))
        with pytest.raises(ValueError, match=f"format {version}.* format 5 only; re-encode"):
            Manifest.load(tmp_path)


    @pytest.mark.parametrize("field,value,match", [
        ("stripe_count", None, "'stripe_count' is missing"),
        ("extra", 1, "'extra' is unknown"),
        ("stripe_count", "9", "'stripe_count' must be a non-negative integer"),
        ("original_length", True, "'original_length' must be a non-negative integer"),
        ("n", -4, "'n' must be a non-negative integer"),
        ("mus", 4, "'mus' must be a list"),
        ("failed", ["1"], "'failed' must be a list"),
        ("chunks", {"0": {"file": "node0.mscr"}}, "'chunks' must map every node"),
        ("chunks", {str(i): {"file": f"../node{i}.mscr", "sha256": "0" * 64} for i in range(4)},
         "'chunks' must map every node"),
    ])
    def test_malformed_field_named(self, tmp_path, field, value, match):
        Manifest(
            format=FORMAT_VERSION, n=4, k=1, d=2, h=2, p=5, lambdas=(0, 1, 2, 3), mus=(4,),
            bits_per_symbol=2, original_length=100, original_sha256="1" * 64, stripe_count=9,
            chunks={str(i): {"file": chunk_name(i), "sha256": "0" * 64} for i in range(4)},
            failed=[],
        ).save(tmp_path)
        path = tmp_path / MANIFEST_NAME
        data = json.loads(path.read_text())
        if value is None:
            del data[field]
        else:
            data[field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=match):
            Manifest.load(tmp_path)


class TestFileStriping:
    def test_roundtrip_every_k_subset(self, example1):
        from itertools import combinations

        rng = np.random.default_rng(5)
        data = rng.integers(0, 256, size=200, dtype=np.uint8).tobytes()
        _, stripes, bodies = encode_bytes(data, example1)
        # 200 bytes -> 800 two-bit symbols -> ceil(800/48) stripes
        assert stripes == 17 == stripes_for(200, example1)
        assert bodies.shape == (4, 17 * 48)
        for subset in combinations(range(4), 1):
            got = decode({i: bodies[i] for i in subset}, example1, 200, stripes)
            assert got == data

    def test_empty_input_single_padding_stripe(self, example1):
        _, stripes, bodies = encode_bytes(b"", example1)
        assert stripes == 1
        assert not bodies.any()
        assert decode({0: bodies[0]}, example1, 0, 1) == b""

    def test_exact_stripe_boundary(self):
        params = validate_params(4, 1, 2, 2, p=5)
        data = bytes(range(12))  # 96 bits = 48 two-bit symbols = exactly kN
        _, stripes, bodies = encode_bytes(data, params)
        assert stripes == 1
        assert decode({2: bodies[2]}, params, len(data), stripes) == data

    def test_byte_symbols_with_large_field(self):
        params = validate_params(6, 3, 4, 2, p=257)
        assert params.message_length == 3 * 192
        data = bytes(range(256)) * 3  # 768 bytes -> 768 symbols -> 2 stripes
        _, stripes, bodies = encode_bytes(data, params)
        assert stripes == 2
        got = decode({i: bodies[i] for i in (1, 3, 5)}, params, len(data), stripes)
        assert got == data

    def test_decode_needs_k_chunks(self, example1):
        _, stripes, _ = encode_bytes(b"hello", example1)
        with pytest.raises(ValueError, match="at least k"):
            decode_file({}, example1, 5, stripes, io.BytesIO())

    def test_decode_validates_body_length(self, tmp_path, example1):
        # a chunk one stripe short of the file is refused when it is opened
        _, stripes, bodies = encode_bytes(bytes(range(30)), example1)
        assert stripes == 3
        path = tmp_path / chunk_name(0)
        write_replacing(path, chunk_bytes(example1, 0, bodies[0][:-example1.N]))
        # its header's payload_len is not the manifest's
        with pytest.raises(ValueError, match="^node 0: .*: header is not the one written for node 0"):
            read_chunk(path, sha256_hex(path), example1, 0, stripes * example1.N)

    @pytest.mark.parametrize("given,match", [(b"abc", "ended after 3 of 4 bytes"),
                                             (b"abcde", "more than the 4 bytes")])
    def test_input_of_another_length_refused(self, tmp_path, example1, given, match):
        # a file that shrinks or grows while it is read is never encoded
        with pytest.raises(ValueError, match=match), ExitStack() as stack:
            chunks = [stack.enter_context(write_chunk(tmp_path / chunk_name(i), example1, i, 48))
                      for i in range(4)]
            encode_file(io.BytesIO(given), 4, example1, chunks)
        assert list(tmp_path.iterdir()) == []


class TestOriginalLength:
    """The manifest's byte length must match the chunks: a wrong one is an
    error, never a decode that succeeds with the wrong bytes."""

    PARAMS = validate_params(6, 3, 4, 2, p=257)

    def test_length_of_another_stripe_count_refused(self, example1):
        manifest = Manifest.new(example1, 100, "1" * 64, stripes_for(100, example1),
                                ["0" * 64] * 4)
        manifest.params()
        manifest.original_length = 10
        with pytest.raises(ValueError, match="'original_length' = 10 bytes fills 1 stripe"):
            manifest.params()
        with pytest.raises(ValueError, match="do not fill"):
            decode({0: np.zeros(9 * 48, dtype=np.uint16)}, example1, 10, 9)

    @staticmethod
    def encoded(data, p, nodes):
        params = validate_params(4, 1, 2, 2, p=p)
        _, stripes, bodies = encode_bytes(data, params)
        chosen = {0: bodies[0]} if nodes == "systematic" else {3: bodies[3]}
        assert decode(chosen, params, len(data), stripes) == data
        return params, chosen, stripes

    @pytest.mark.parametrize("p", [5, 11, 257])
    @pytest.mark.parametrize("nodes", ["systematic", "parity"])
    def test_length_cut_into_the_data_refused(self, p, nodes):
        # 97 bytes are 776 bits, which at p = 11 end inside a 3-bit symbol;
        # the bit after them, byte 97's first, is the only one set past them
        data = bytes(range(1, 98)) + b"\x80\x00\x00"
        params, chosen, stripes = self.encoded(data, p, nodes)
        assert stripes_for(97, params) == stripes
        with pytest.raises(ValueError, match="past original_length = 97 bytes"):
            decode(chosen, params, 97, stripes)

    @pytest.mark.parametrize("p", [5, 11, 257])
    @pytest.mark.parametrize("nodes", ["systematic", "parity"])
    def test_zero_bytes_may_be_cut(self, p, nodes):
        # zero bytes at the end look like padding.  At p = 11 the 784 bits of
        # 98 bytes end inside a symbol whose first bit, byte 97's last, is set
        data = bytes(range(1, 98)) + b"\x01\x00\x00"
        params, chosen, stripes = self.encoded(data, p, nodes)
        assert decode(chosen, params, 98, stripes) == data[:98]


class TestStripeBatchAgainstPerStripe:
    """encode_file / decode_file solve many stripes per call; the loop over
    code.encode below is the per-stripe reference they must reproduce."""

    @staticmethod
    def per_stripe_bodies(data, params):
        per_stripe = params.message_length
        symbols = pack_bytes(data, params.p)
        stripes = max(1, -(-symbols.size // per_stripe))
        padded = np.zeros(stripes * per_stripe, dtype=np.int64)
        padded[: symbols.size] = symbols
        bodies = np.zeros((params.n, stripes * params.N), dtype=np.int64)
        for st in range(stripes):
            cw = encode(params, padded[st * per_stripe : (st + 1) * per_stripe])[:, 0]
            for i in range(params.n):
                bodies[i, st * params.N : (st + 1) * params.N] = cw[i].reshape(-1)
        return bodies

    @pytest.fixture(params=[((6, 3, 4, 2), 257), ((6, 2, 3, 3), 7)], ids=["6342-p257", "6233-p7"])
    def case(self, request):
        nkdh, p = request.param
        params = validate_params(*nkdh, p=p)
        # three full stripes and a partial fourth
        n_bytes = (3 * params.message_length + 100) * bits_per_symbol(p) // 8
        data = np.random.default_rng(sum(nkdh) + p).integers(0, 256, size=n_bytes, dtype=np.uint8)
        return params, data.tobytes()

    def test_encode_matches_per_stripe_encode(self, case):
        params, data = case
        chunks, stripes, bodies = encode_bytes(data, params)
        assert stripes == 4
        reference = self.per_stripe_bodies(data, params)
        assert np.array_equal(bodies, reference)
        assert chunks == [chunk_bytes(params, i, reference[i]) for i in range(params.n)]

    def test_decode_from_every_k_subset(self, case):
        params, data = case
        _, stripes, bodies = encode_bytes(data, params)
        for subset in combinations(range(params.n), params.k):
            got = decode({i: bodies[i] for i in subset}, params, len(data), stripes)
            assert got == data, subset


class TestBlockWalk:
    """encode_file and decode_file walk a file in blocks of stripes.  With
    BLOCK_SYMBOLS shrunk to its floor of 8 stripes, 29 stripes are four
    blocks, the last one partial, and everything must match the one-block
    walk of the default size."""

    STRIPES = 29

    @pytest.fixture(params=[((6, 3, 4, 2), 257), ((6, 2, 3, 3), 7)], ids=["6342-p257", "6233-p7"])
    def case(self, request, monkeypatch):
        nkdh, p = request.param
        params = validate_params(*nkdh, p=p)
        # the last stripe holds 100 message symbols
        n_bytes = ((self.STRIPES - 1) * params.message_length + 100) * bits_per_symbol(p) // 8
        data = np.random.default_rng(p).integers(0, 256, size=n_bytes, dtype=np.uint8).tobytes()
        assert storage.blocks(params, self.STRIPES) == [(0, self.STRIPES)]
        one_block = encode_bytes(data, params)
        monkeypatch.setattr(storage, "BLOCK_SYMBOLS", 1)
        return params, data, one_block

    def test_blocks(self, case):
        params, _, _ = case
        assert storage.blocks(params, self.STRIPES) == [(0, 8), (8, 16), (16, 24), (24, 29)]

    def test_default_blocks_are_whole_bytes(self):
        params = validate_params(6, 3, 4, 2, p=257)
        spans = storage.blocks(params, 1821)
        assert spans[0] == (0, 168) and spans[-1][1] == 1821
        assert all(stop % 8 == 0 for _, stop in spans[:-1])

    def test_chunks_match_one_block(self, case):
        params, data, (chunks, stripes, _) = case
        assert stripes == self.STRIPES
        assert encode_bytes(data, params)[0] == chunks

    def test_one_code_encode_call_per_block(self, case, monkeypatch):
        # encode_file looks code.encode up through the module, once per block
        params, data, (chunks, _, _) = case
        calls = []
        real = code.encode

        def counting(params, message):
            calls.append(message.size // params.message_length)
            return real(params, message)

        monkeypatch.setattr(code, "encode", counting)
        assert encode_bytes(data, params)[0] == chunks
        assert calls == [8, 8, 8, 5]

    def test_decode_roundtrip(self, case):
        params, data, (_, stripes, bodies) = case
        parity = tuple(range(params.n - params.k, params.n))
        for nodes in (tuple(range(params.k)), parity, (0,) + parity[1:]):
            got = decode({i: bodies[i] for i in nodes}, params, len(data), stripes)
            assert got == data, nodes

    def test_empty_input(self, case):
        params, _, _ = case
        _, stripes, bodies = encode_bytes(b"", params)
        assert stripes == 1 and not bodies.any()
        parity = {i: bodies[i] for i in range(params.n - params.k, params.n)}
        assert decode(parity, params, 0, 1) == b""

    def test_inconsistency_named_at_its_file_stripe(self, case, monkeypatch):
        # a solve whose result breaks a check of local stripe 2 of the last
        # block, stripe 26 of the file
        params, data, (_, stripes, bodies) = case
        real = code.solve_erased

        def faulty(params, cols, erased):
            real(params, cols, erased)
            if len(cols[erased[0]]) == stripes - 24:
                cols[erased[0]][2, 1, 0] = (cols[erased[0]][2, 1, 0] + 1) % params.p

        # exactly k columns get no parity sweep: the digest decode_file
        # returns, which the caller checks against the file's, shows the fault
        monkeypatch.setattr(code, "solve_erased", faulty)
        nodes = range(params.n - params.k, params.n)
        digest = decode_file({i: ArrayChunk(bodies[i], params) for i in nodes}, params,
                             len(data), stripes, io.BytesIO())
        assert digest != hashlib.sha256(data).hexdigest()


class TestMemoryDoesNotGrowWithTheFile:
    """Every command holds one block of stripes per node plus the job's
    constant state: from a 1 MiB to a 4 MiB (6,3,4,2) p = 257 file, the
    tracemalloc peak of each stage, run through cli.main, grows by at most
    0.05 bytes per input byte (whole chunks would be 2.25)."""

    PARAMS = ["--n", "6", "--k", "3", "--d", "4", "--h", "2", "--p", "257"]

    @staticmethod
    def peak(argv):
        tracemalloc.start()
        try:
            assert cli.main([str(a) for a in argv]) == 0, argv
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def lifecycle(self, tmp_path, size):
        data = np.random.default_rng(size).integers(0, 256, size=size, dtype=np.uint8).tobytes()
        src, store = tmp_path / f"in{size}.bin", tmp_path / f"store{size}"
        src.write_bytes(data)
        peaks = {"encode": self.peak(["encode", *self.PARAMS, "--input", src, "--out", store])}
        assert cli.main(["fail", "--dir", str(store), "--nodes", "1,4"]) == 0
        peaks["repair"] = self.peak(["repair", "--dir", store, "--helpers", "0,2,3,5"])
        peaks["verify"] = self.peak(["verify", "--dir", store])
        for stage, nodes in (("decode_sys", "0,1,2"), ("decode_parity", "3,4,5")):
            out = tmp_path / f"{stage}{size}.bin"
            peaks[stage] = self.peak(["decode", "--dir", store, "--out", out, "--nodes", nodes])
            assert out.read_bytes() == data
        return peaks

    def test_peak_growth(self, tmp_path, capsys):
        # the larger file first, so caches the first run builds count against it
        large, small = (self.lifecycle(tmp_path, size) for size in (4 << 20, 1 << 20))
        allowed = 0.05 * (3 << 20)
        for stage in large:
            assert large[stage] - small[stage] <= allowed, (stage, small[stage], large[stage])


class TestBlockReader:
    """ChunkReader.block(start, stop) preads one block's byte range; it
    must equal the matching slice of the whole chunk, for a parity
    node (1, groups of c symbols in B bits) and a systematic node (0, one
    symbol at the message width m)."""

    CASES = [
        ((4, 1, 2, 2), 7),  # m = 2 bit planes; (c, B) = (16, 45): five bytes, five bits
        ((4, 1, 2, 2), 11),  # m = 3 bit planes; (c, B) = (2, 7): seven bit planes
        ((4, 1, 2, 2), 257),  # m: one byte plane; (c, B) = (6, 49)
        ((4, 1, 3, 1), 257),  # N = 243, no multiple of 8; (c, B) = (3, 25)
        ((4, 1, 2, 2), 13399),  # m: one byte plane; (c, B) = (4, 55)
        ((4, 1, 2, 2), 65521),  # m: one byte plane; (c, B) = (1, 16): two byte planes
        # no code has p = 3 (it needs p >= n+s-1 >= 4), but reading a chunk
        # only frames it, and p = 3 is the one field with 1-bit message symbols
        ((4, 1, 2, 2), 3),  # m = 1 bit plane; (c, B) = (8, 13)
    ]

    @staticmethod
    def check(tmp_path, monkeypatch, nkdh, p, node, stripes):
        if p == 3:
            params = dataclasses.replace(validate_params(*nkdh, p=5), p=3)
        else:
            params = validate_params(*nkdh, p=p)
        bound = expected_radix(params, node)
        rng = np.random.default_rng(p + stripes)
        symbols = rng.integers(0, bound, size=(stripes, params.planes, params.s_pow_n),
                               dtype=np.uint16)
        symbols.reshape(-1)[-1] = bound - 1  # the node's largest symbol
        path = tmp_path / chunk_name(node)
        write_replacing(path, chunk_bytes(params, node, symbols))
        assert path.stat().st_size == len(storage._header(params, node, symbols.size)) + \
            expected_body_length(symbols.size // expected_groups(params, node)[0],
                                 expected_groups(params, node)[1])
        monkeypatch.setattr(storage, "BLOCK_SYMBOLS", 1)  # blocks of 8 stripes
        spans = storage.blocks(params, stripes)
        assert spans[-1] == ((16, 21) if stripes == 21 else (0, 1))  # a partial last block
        with read_chunk(path, sha256_hex(path), params, node, stripes * params.N) as chunk:
            for start, stop in spans:
                got = chunk.block(start, stop)
                assert got.dtype == np.uint16 and np.array_equal(got, symbols[start:stop])

    @pytest.mark.parametrize("nkdh,p", CASES)
    @pytest.mark.parametrize("stripes", [1, 21])
    def test_block_is_slice_of_whole_chunk(self, tmp_path, monkeypatch, nkdh, p, stripes):
        self.check(tmp_path, monkeypatch, nkdh, p, 1, stripes)

    @pytest.mark.parametrize("nkdh,p", CASES)
    @pytest.mark.parametrize("stripes", [1, 21])
    def test_systematic_block_is_slice_of_whole_chunk(self, tmp_path, monkeypatch, nkdh, p,
                                                      stripes):
        self.check(tmp_path, monkeypatch, nkdh, p, 0, stripes)

    @pytest.mark.parametrize("start,stop", [(1, 3), (-1, 1), (2, 1)])
    def test_stripes_outside_the_chunk_refused(self, tmp_path, example1, start, stop):
        path = tmp_path / chunk_name(2)
        write_replacing(path, chunk_bytes(example1, 2, np.zeros(2 * 48, dtype=np.uint16)))
        with read_chunk(path, sha256_hex(path), example1, 2, 2 * 48) as chunk:
            with pytest.raises(ValueError, match=rf"stripes \[{start}, {stop}\) are not in "
                                                 "node 2's chunk"):
                chunk.block(start, stop)

    def test_block_off_a_segment_refused(self, tmp_path, example1):
        # stripe 1 starts inside a segment of 8 stripes, so no one byte range holds its block
        path = tmp_path / chunk_name(2)
        write_replacing(path, chunk_bytes(example1, 2, np.zeros(16 * 48, dtype=np.uint16)))
        with read_chunk(path, sha256_hex(path), example1, 2, 16 * 48) as chunk:
            with pytest.raises(ValueError, match=r"^a block must start on a segment of 8 "
                                                 r"stripes, not at stripe 1$"):
                chunk.block(1, 9)

    @pytest.mark.parametrize("rewrite", ["same-size", "grown"])
    def test_chunk_rewritten_during_read_refused(self, tmp_path, example1, rewrite):
        symbols = np.arange(16 * 48, dtype=np.uint16).reshape(16, 3, 16) % example1.p
        path = tmp_path / chunk_name(2)
        write_replacing(path, chunk_bytes(example1, 2, symbols))
        with read_chunk(path, sha256_hex(path), example1, 2, 16 * 48) as chunk:
            assert np.array_equal(chunk.block(0, 8), symbols[:8])
            before = path.stat()
            with open(path, "r+b") as fh:  # in place: the open chunk sees the new bytes
                fh.seek(-1, os.SEEK_END)
                fh.write(b"\x00" if rewrite == "same-size" else b"\x00\x00")
            # a timestamp tick may be coarser than the rewrite, so it is set apart
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
            with pytest.raises(ValueError, match="node 2: .* changed while it was read"):
                chunk.block(8, 16)


def test_truncated_header_rejected(tmp_path, example1):
    path = tmp_path / "short.mscr"
    path.write_bytes(b"MSCR\x01\x00")
    with pytest.raises(ValueError, match="^node 0: .*short.mscr: header is not the one written"):
        read_chunk(path, sha256_hex(path), example1, 0, 48)
