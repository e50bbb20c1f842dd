from itertools import combinations

import numpy as np
import pytest

from mscr.code import encode, validate_params
from mscr.storage import (
    ChecksumMismatchError,
    ChunkHeader,
    FORMAT_VERSION,
    Manifest,
    bits_per_symbol,
    chunk_name,
    decode_file,
    encode_file,
    pack_bytes,
    read_chunk,
    sha256_file,
    symbols_per_stripe,
    unpack_symbols,
    write_chunk,
)


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


class TestChunkIO:
    def _header(self, params, node, payload_len):
        return ChunkHeader(
            FORMAT_VERSION, params.n, params.k, params.d, params.h, params.p,
            node, payload_len, bits_per_symbol(params.p), params.lambdas, params.mus,
        )

    def test_roundtrip(self, tmp_path, example1):
        symbols = np.arange(96, dtype=np.int64) % example1.p
        header = self._header(example1, 2, 96)
        path = tmp_path / chunk_name(2)
        write_chunk(path, header, symbols)
        got_header, got_symbols = read_chunk(path, sha256_file(path))
        assert got_header == header
        assert np.array_equal(got_symbols, symbols)
        assert got_header.params() == example1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mscr"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_chunk(path, sha256_file(path))

    def test_truncated_body_rejected(self, tmp_path, example1):
        symbols = np.zeros(48, dtype=np.int64)
        header = self._header(example1, 0, 48)
        path = tmp_path / chunk_name(0)
        write_chunk(path, header, symbols)
        raw = path.read_bytes()
        path.write_bytes(raw[:-2])
        with pytest.raises(ValueError, match="body"):
            read_chunk(path, sha256_file(path))

    def test_checksum_checked_before_parsing(self, tmp_path, example1):
        path = tmp_path / chunk_name(0)
        write_chunk(path, self._header(example1, 0, 48), np.zeros(48, dtype=np.int64))
        digest = sha256_file(path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 1  # the damaged magic would fail to parse
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatchError, match="checksum mismatch"):
            read_chunk(path, digest)

    def test_out_of_field_symbol_rejected(self, tmp_path, example1):
        header = self._header(example1, 0, 2)
        with pytest.raises(ValueError, match="reduced"):
            write_chunk(tmp_path / "x.mscr", header, np.array([0, 5], dtype=np.int64))

    def test_sha256(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"abc")
        assert sha256_file(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )


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

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Manifest.load(tmp_path)


class TestFileStriping:
    def test_roundtrip_every_k_subset(self, example1):
        from itertools import combinations

        rng = np.random.default_rng(5)
        data = rng.integers(0, 256, size=200, dtype=np.uint8).tobytes()
        bodies, original, stripes = encode_file(data, example1)
        assert original == 200
        # 200 bytes -> 800 two-bit symbols -> ceil(800/48) stripes
        assert stripes == 17
        assert bodies.shape == (4, 17 * 48)
        for subset in combinations(range(4), 1):
            got = decode_file({i: bodies[i] for i in subset}, example1, original, stripes)
            assert got == data

    def test_empty_input_single_padding_stripe(self, example1):
        bodies, original, stripes = encode_file(b"", example1)
        assert original == 0 and stripes == 1
        assert not bodies.any()
        assert decode_file({0: bodies[0]}, example1, 0, 1) == b""

    def test_exact_stripe_boundary(self):
        params = validate_params(4, 1, 2, 2, p=5)
        data = bytes(range(12))  # 96 bits = 48 two-bit symbols = exactly kN
        bodies, original, stripes = encode_file(data, params)
        assert stripes == 1
        assert decode_file({2: bodies[2]}, params, original, stripes) == data

    def test_byte_symbols_with_large_field(self):
        params = validate_params(6, 3, 4, 2, p=257)
        assert symbols_per_stripe(params) == 3 * 192
        data = bytes(range(256)) * 3  # 768 bytes -> 768 symbols -> 2 stripes
        bodies, original, stripes = encode_file(data, params)
        assert stripes == 2
        got = decode_file({i: bodies[i] for i in (1, 3, 5)}, params, original, stripes)
        assert got == data

    def test_decode_needs_k_chunks(self, example1):
        bodies, original, stripes = encode_file(b"hello", example1)
        with pytest.raises(ValueError, match="at least k"):
            decode_file({}, example1, original, stripes)

    def test_decode_validates_body_length(self, example1):
        bodies, original, stripes = encode_file(b"hello", example1)
        with pytest.raises(ValueError, match="symbols"):
            decode_file({0: bodies[0][:-1]}, example1, original, stripes)


class TestStripeBatchAgainstPerStripe:
    """encode_file / decode_file solve every stripe in one call; the loop over
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
            cw = encode(padded[st * per_stripe : (st + 1) * per_stripe], params)
            for i in range(params.n):
                bodies[i, st * params.N : (st + 1) * params.N] = cw.column(i).symbols.reshape(-1)
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
        bodies, original, stripes = encode_file(data, params)
        assert (original, stripes) == (len(data), 4)
        assert np.array_equal(bodies, self.per_stripe_bodies(data, params))

    def test_decode_from_every_k_subset(self, case):
        params, data = case
        bodies, original, stripes = encode_file(data, params)
        for subset in combinations(range(params.n), params.k):
            got = decode_file({i: bodies[i] for i in subset}, params, original, stripes)
            assert got == data, subset


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "short.mscr"
    path.write_bytes(b"MSCR\x01\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_chunk(path, sha256_file(path))
