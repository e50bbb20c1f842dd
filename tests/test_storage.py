import hashlib
import io
import json
import math
import os
import stat
import struct
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mscr import code, storage
from mscr.code import InconsistentCodewordError, encode, validate_params
from mscr.storage import (
    ChecksumMismatchError,
    FORMAT_VERSION,
    MANIFEST_NAME,
    Manifest,
    bits_per_symbol,
    chunk_bytes,
    chunk_name,
    decode_file,
    encode_file,
    pack_body,
    pack_bytes,
    read_chunk,
    stored_width,
    stripes_for,
    symbols_per_stripe,
    unpack_body,
    unpack_symbols,
    write_chunk,
)


def expected_body_length(payload_len, p):
    # written out from the format description, independently of storage.body_length
    w = math.ceil(math.log2(p))
    return payload_len * (w // 8) + (w % 8) * math.ceil(payload_len / 8)


def sha256_hex(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def encode_bytes(data, params):
    """encode_file of `data`: (chunks, stripes, bodies), where bodies[i] is
    node i's symbols parsed back from its chunk."""
    chunks, stripes = encode_file(io.BytesIO(data), len(data), params)
    payload_len = stripes * params.N
    body = expected_body_length(payload_len, params.p)
    bodies = np.stack([unpack_body(bytes(chunk[len(chunk) - body:]), params.p, payload_len)
                       for chunk in chunks])
    return chunks, stripes, bodies


class TestPacking:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 17, 251, 257, 65521])
    @pytest.mark.parametrize("length", [0, 1, 7, 64, 1000])
    def test_roundtrip(self, p, length):
        rng = np.random.default_rng(length * 1000 + p)
        data = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
        symbols = pack_bytes(data, p)
        if symbols.size:
            assert symbols.max() < p
        assert unpack_symbols(symbols, p, len(data)) == data

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
            assert unpack_symbols(padded, p, len(data)) == data


PRIMES_BELOW_256 = [p for p in range(2, 256) if all(p % q for q in range(2, p))]


class TestPackingDefinition:
    # the sub-byte packing, pinned against its MSB-first bitstream definition
    @pytest.mark.parametrize("p", PRIMES_BELOW_256)
    def test_matches_msb_first_bitstream(self, p):
        m = bits_per_symbol(p)
        rng = np.random.default_rng(p)
        data = rng.integers(0, 256, size=37, dtype=np.uint8).tobytes()
        bits = "".join(f"{b:08b}" for b in data)
        bits += "0" * (-len(bits) % m)
        symbols = pack_bytes(data, p)
        assert symbols.dtype == np.uint16  # file-level symbols are uint16 at rest
        assert symbols.tolist() == [int(bits[i:i + m], 2) for i in range(0, len(bits), m)]

        symbols = rng.integers(0, 1 << m, size=41)
        bits = "".join(format(int(v), f"0{m}b") for v in symbols)
        whole = bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits) // 8 * 8, 8))
        assert unpack_symbols(symbols, p, len(whole)) == whole
        assert unpack_symbols(symbols, p, 3) == whole[:3]


class TestChunkIO:
    def test_roundtrip(self, tmp_path, example1):
        symbols = np.arange(96, dtype=np.int64) % example1.p
        path = tmp_path / chunk_name(2)
        write_chunk(path, chunk_bytes(example1, 2, symbols))
        got_symbols = read_chunk(path, sha256_hex(path), example1, 2, 96)
        assert got_symbols.dtype == np.uint16
        assert np.array_equal(got_symbols, symbols)

    # u32 header field index (after the magic) -> the disagreement it is refused for
    HEADER_FIELDS = {
        "version": (0, "unsupported format version"),
        "n": (1, "different parameters or evaluation points"),
        "k": (2, "different parameters or evaluation points"),
        "d": (3, "different parameters or evaluation points"),
        "h": (4, "different parameters or evaluation points"),
        "p": (5, "different parameters or evaluation points"),
        "node_index": (6, "chunk file for node 2 claims index 3"),
        "payload_len": (7, "wrong payload length"),
        "bits_per_symbol": (8, "different parameters or evaluation points"),
        "lambda0": (9, "different parameters or evaluation points"),
        "mu0": (13, "different parameters or evaluation points"),
    }

    @pytest.mark.parametrize("field", list(HEADER_FIELDS))
    def test_header_field_disagreement_rejected(self, tmp_path, example1, field):
        # the chunk is rehashed, so only the header check can refuse it
        index, match = self.HEADER_FIELDS[field]
        raw = bytearray(chunk_bytes(example1, 2, np.zeros(48, dtype=np.uint16)))
        assert len(example1.lambdas) == 4  # so field 13 is the first mu
        (value,) = struct.unpack_from("<I", raw, 4 + 4 * index)
        struct.pack_into("<I", raw, 4 + 4 * index, value + 1)
        path = tmp_path / chunk_name(2)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=match) as info:
            read_chunk(path, sha256_hex(path), example1, 2, 48)
        assert not isinstance(info.value, ChecksumMismatchError)

    def test_bad_magic_rejected(self, tmp_path, example1):
        path = tmp_path / "bad.mscr"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_chunk(path, sha256_hex(path), example1, 0, 48)

    def test_truncated_body_rejected(self, tmp_path, example1):
        symbols = np.zeros(48, dtype=np.int64)
        path = tmp_path / chunk_name(0)
        write_chunk(path, chunk_bytes(example1, 0, symbols))
        raw = path.read_bytes()
        path.write_bytes(raw[:-2])
        with pytest.raises(ValueError, match="body"):
            read_chunk(path, sha256_hex(path), example1, 0, 48)

    def test_checksum_checked_before_parsing(self, tmp_path, example1):
        path = tmp_path / chunk_name(0)
        write_chunk(path, chunk_bytes(example1, 0, np.zeros(48, dtype=np.int64)))
        digest = sha256_hex(path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 1  # the damaged magic would fail to parse
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatchError, match="node 0: .*checksum mismatch"):
            read_chunk(path, digest, example1, 0, 48)

    def test_out_of_field_symbol_rejected(self, tmp_path, example1):
        with pytest.raises(ValueError, match="reduced"):
            chunk_bytes(example1, 0, np.array([0, 5], dtype=np.int64))


class TestBodyPacking:
    def test_stored_width(self):
        assert [stored_width(p) for p in (2, 3, 5, 7, 257, 65521)] == [1, 2, 3, 3, 9, 16]

    def test_layout_by_hand(self):
        # p=257, w=9: one byte plane (low bytes), then the plane of bit 8
        assert pack_body(np.array([256, 1, 255]), 257) == bytes([0, 1, 255, 0b10000000])
        # p=7, w=3: bit planes 0, 1, 2 of (5, 3, 6) = (101, 011, 110)
        assert pack_body(np.array([5, 3, 6]), 7) == bytes([0b11000000, 0b01100000, 0b10100000])

    @settings(deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 17, 257, 65521]).flatmap(
        lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p - 1), max_size=100))))
    def test_roundtrip(self, case):
        p, values = case
        body = pack_body(np.array(values, dtype=np.int64), p)
        assert len(body) == expected_body_length(len(values), p)
        assert unpack_body(body, p, len(values)).tolist() == values


class TestPackedBodyRejected:
    """Bodies whose sha256 matches the manifest but that do not parse."""

    P, LENGTH = 257, 13  # 9-bit fields, and a length that is no multiple of 8
    PARAMS = validate_params(6, 3, 4, 2, p=P)

    def chunk(self, tmp_path, raw):
        path = tmp_path / chunk_name(0)
        path.write_bytes(raw)
        return path, hashlib.sha256(raw).hexdigest()

    def valid(self):
        return chunk_bytes(self.PARAMS, 0, np.arange(self.LENGTH, dtype=np.int64))

    def test_packed_value_p_rejected(self, tmp_path):
        raw = self.valid()
        head = raw[: len(raw) - expected_body_length(self.LENGTH, self.P)]
        symbols = np.arange(self.LENGTH, dtype=np.int64)
        symbols[5] = self.P  # fits in the 9-bit field, but is no field element
        path, digest = self.chunk(tmp_path, head + pack_body(symbols, self.P))
        with pytest.raises(ValueError, match="out of field range"):
            read_chunk(path, digest, self.PARAMS, 0, self.LENGTH)

    @pytest.mark.parametrize("edit", [lambda raw: raw[:-1], lambda raw: raw + b"\x00"],
                             ids=["one-byte-short", "one-byte-long"])
    def test_wrong_body_length_rejected(self, tmp_path, edit):
        path, digest = self.chunk(tmp_path, edit(self.valid()))
        with pytest.raises(ValueError, match="body holds"):
            read_chunk(path, digest, self.PARAMS, 0, self.LENGTH)


class TestCrashSafeWrites:
    """A write that fails partway leaves the previous file and no partial one."""

    def test_chunk_write(self, tmp_path, example1, fail_halfway):
        path = tmp_path / chunk_name(0)
        old = chunk_bytes(example1, 0, np.zeros(48, dtype=np.int64))
        write_chunk(path, old)
        fail_halfway()
        with pytest.raises(OSError, match="No space"):
            write_chunk(path, chunk_bytes(example1, 0, np.ones(48, dtype=np.int64)))
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_manifest_save(self, tmp_path, fail_halfway):
        manifest = Manifest(
            format=FORMAT_VERSION, n=4, k=1, d=2, h=2, p=5, lambdas=(0, 1, 2, 3), mus=(4,),
            bits_per_symbol=2, original_length=100, stripe_count=9, chunks={}, failed=[],
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
            write_chunk(path, chunk_bytes(example1, 0, np.zeros(48, dtype=np.int64)))
        else:
            path = tmp_path / MANIFEST_NAME
            Manifest(
                format=FORMAT_VERSION, n=4, k=1, d=2, h=2, p=5, lambdas=(0, 1, 2, 3), mus=(4,),
                bits_per_symbol=2, original_length=100, stripe_count=9, chunks={}, failed=[],
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
            bits_per_symbol=2, original_length=100, stripe_count=9,
            chunks={str(i): {"file": chunk_name(i), "sha256": "0" * 64} for i in range(4)},
            failed=[1],
        )
        manifest.save(tmp_path)
        got = Manifest.load(tmp_path)
        assert got == manifest
        assert got.params() == example1
        manifest.failed = []
        assert Manifest.new(example1, 100, 9, ["0" * 64] * 4) == manifest

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Manifest.load(tmp_path)

    @pytest.mark.parametrize("version", [1, 3, None])
    def test_other_format_rejected(self, tmp_path, version):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": version}))
        with pytest.raises(ValueError, match=f"format {version}.* format 2 only; re-encode"):
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
            bits_per_symbol=2, original_length=100, stripe_count=9,
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
            got = decode_file({i: bodies[i] for i in subset}, example1, 200, stripes)
            assert got == data

    def test_empty_input_single_padding_stripe(self, example1):
        _, stripes, bodies = encode_bytes(b"", example1)
        assert stripes == 1
        assert not bodies.any()
        assert decode_file({0: bodies[0]}, example1, 0, 1) == b""

    def test_exact_stripe_boundary(self):
        params = validate_params(4, 1, 2, 2, p=5)
        data = bytes(range(12))  # 96 bits = 48 two-bit symbols = exactly kN
        _, stripes, bodies = encode_bytes(data, params)
        assert stripes == 1
        assert decode_file({2: bodies[2]}, params, len(data), stripes) == data

    def test_byte_symbols_with_large_field(self):
        params = validate_params(6, 3, 4, 2, p=257)
        assert symbols_per_stripe(params) == 3 * 192
        data = bytes(range(256)) * 3  # 768 bytes -> 768 symbols -> 2 stripes
        _, stripes, bodies = encode_bytes(data, params)
        assert stripes == 2
        got = decode_file({i: bodies[i] for i in (1, 3, 5)}, params, len(data), stripes)
        assert got == data

    def test_decode_needs_k_chunks(self, example1):
        _, stripes, _ = encode_bytes(b"hello", example1)
        with pytest.raises(ValueError, match="at least k"):
            decode_file({}, example1, 5, stripes)

    def test_decode_validates_body_length(self, example1):
        _, stripes, bodies = encode_bytes(b"hello", example1)
        with pytest.raises(ValueError, match="symbols"):
            decode_file({0: bodies[0][:-1]}, example1, 5, stripes)

    @pytest.mark.parametrize("given,match", [(b"abc", "ended after 3 of 4 bytes"),
                                             (b"abcde", "more than the 4 bytes")])
    def test_input_of_another_length_refused(self, example1, given, match):
        # a file that shrinks or grows while it is read is never encoded
        with pytest.raises(ValueError, match=match):
            encode_file(io.BytesIO(given), 4, example1)


class TestOriginalLength:
    """The manifest's byte length must match the chunks: a wrong one is an
    error, never a decode that succeeds with the wrong bytes."""

    PARAMS = validate_params(6, 3, 4, 2, p=257)

    def test_length_of_another_stripe_count_refused(self, example1):
        manifest = Manifest.new(example1, 100, stripes_for(100, example1), ["0" * 64] * 4)
        manifest.params()
        manifest.original_length = 10
        with pytest.raises(ValueError, match="'original_length' = 10 bytes fills 1 stripe"):
            manifest.params()
        with pytest.raises(ValueError, match="do not fill"):
            decode_file({0: np.zeros(9 * 48, dtype=np.uint16)}, example1, 10, 9)

    @staticmethod
    def encoded(data, p, nodes):
        params = validate_params(4, 1, 2, 2, p=p)
        _, stripes, bodies = encode_bytes(data, params)
        chosen = {0: bodies[0]} if nodes == "systematic" else {3: bodies[3]}
        assert decode_file(chosen, params, len(data), stripes) == data
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
            decode_file(chosen, params, 97, stripes)

    @pytest.mark.parametrize("p", [5, 11, 257])
    @pytest.mark.parametrize("nodes", ["systematic", "parity"])
    def test_zero_bytes_may_be_cut(self, p, nodes):
        # zero bytes at the end look like padding.  At p = 11 the 784 bits of
        # 98 bytes end inside a symbol whose first bit, byte 97's last, is set
        data = bytes(range(1, 98)) + b"\x01\x00\x00"
        params, chosen, stripes = self.encoded(data, p, nodes)
        assert decode_file(chosen, params, 98, stripes) == data[:98]


class TestStripeBatchAgainstPerStripe:
    """encode_file / decode_file solve many stripes per call; the loop over
    code.encode below is the per-stripe reference they must reproduce."""

    @staticmethod
    def per_stripe_bodies(data, params):
        per_stripe = symbols_per_stripe(params)
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
        n_bytes = (3 * symbols_per_stripe(params) + 100) * bits_per_symbol(p) // 8
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
            got = decode_file({i: bodies[i] for i in subset}, params, len(data), stripes)
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
        n_bytes = ((self.STRIPES - 1) * symbols_per_stripe(params) + 100) * bits_per_symbol(p) // 8
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
            calls.append(message.size // symbols_per_stripe(params))
            return real(params, message)

        monkeypatch.setattr(code, "encode", counting)
        assert encode_bytes(data, params)[0] == chunks
        assert calls == [8, 8, 8, 5]

    def test_decode_roundtrip(self, case):
        params, data, (_, stripes, bodies) = case
        parity = tuple(range(params.n - params.k, params.n))
        for nodes in (tuple(range(params.k)), parity, (0,) + parity[1:]):
            got = decode_file({i: bodies[i] for i in nodes}, params, len(data), stripes)
            assert got == data, nodes

    def test_empty_input(self, case):
        params, _, _ = case
        _, stripes, bodies = encode_bytes(b"", params)
        assert stripes == 1 and not bodies.any()
        parity = {i: bodies[i] for i in range(params.n - params.k, params.n)}
        assert decode_file(parity, params, 0, 1) == b""

    def test_inconsistency_named_at_its_file_stripe(self, case, monkeypatch):
        # a solve whose result breaks a check of local stripe 2 of the last
        # block, stripe 26 of the file
        params, data, (_, stripes, bodies) = case
        real = code.solve_erased

        def faulty(params, cols, erased):
            real(params, cols, erased)
            if len(cols[erased[0]]) == stripes - 24:
                cols[erased[0]][2, 1, 0] = (cols[erased[0]][2, 1, 0] + 1) % params.p

        # erase_decode's parity sweep is the only guard against the fault
        monkeypatch.setattr(code, "solve_erased", faulty)
        nodes = range(params.n - params.k, params.n)
        with pytest.raises(InconsistentCodewordError, match=r"stripe 26, plane 2"):
            decode_file({i: bodies[i] for i in nodes}, params, len(data), stripes)


class TestMemoryDoesNotGrowWithTheFile:
    """encode_file and decode_file hold their chunks or output plus one block:
    from a 1 MiB to a 4 MiB file their tracemalloc peak grows by at most 1.1
    times the growth of the n chunks' bytes (2.25 bytes per input byte at
    p = 257), not by whole-file symbol and work arrays."""

    PARAMS = validate_params(6, 3, 4, 2, p=257)

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_peak_growth(self):
        params, rng = self.PARAMS, np.random.default_rng(4)
        peaks = []
        for size in (1 << 20, 4 << 20):
            data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            encode_peak, (chunks, stripes) = self.peak(
                lambda: encode_file(io.BytesIO(data), size, params))
            _, _, bodies = encode_bytes(data, params)
            parity = {i: bodies[i] for i in (3, 4, 5)}
            decode_peak, got = self.peak(lambda: decode_file(parity, params, size, stripes))
            assert got == data
            peaks.append((sum(map(len, chunks)), encode_peak, decode_peak))
            del chunks, bodies, parity, got
        (small_chunks, *small), (large_chunks, *large) = peaks
        allowed = 1.1 * (large_chunks - small_chunks)
        assert large[0] - small[0] <= allowed, ("encode", small, large, allowed)
        assert large[1] - small[1] <= allowed, ("decode", small, large, allowed)


def test_truncated_header_rejected(tmp_path, example1):
    path = tmp_path / "short.mscr"
    path.write_bytes(b"MSCR\x01\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_chunk(path, sha256_hex(path), example1, 0, 48)
