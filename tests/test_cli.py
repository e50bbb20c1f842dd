import dataclasses
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mscr import cli, code, oracle, storage
from mscr.cli import main
from mscr.oracle import recount
from mscr.repair import RepairTranscript
from mscr.storage import Manifest, read_chunk, write_replacing

from conftest import chunk_bytes


def run_cli(*argv):
    return main([str(a) for a in argv])


def snapshot(directory):
    """Every file in `directory` (temporary ones included) -> its sha256."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


def chunk_symbols(store, manifest, node):
    """Node `node`'s symbols, as one flat uint16 array, read through read_chunk."""
    params = manifest.params()
    path = store / manifest.chunks[str(node)]["file"]
    with read_chunk(path, manifest.chunks[str(node)]["sha256"], params, node,
                    manifest.stripe_count * params.N) as chunk:
        return chunk.block(0, manifest.stripe_count).reshape(-1)


@pytest.fixture()
def encoded_dir(tmp_path):
    data = np.random.default_rng(2).integers(0, 256, size=3000, dtype=np.uint8).tobytes()
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    store = tmp_path / "store"
    assert run_cli("encode", "--n", 4, "--k", 1, "--d", 2, "--h", 2,
                   "--input", src, "--out", store) == 0
    return tmp_path, store, data


class TestEncode:
    def test_chunks_and_manifest_written(self, encoded_dir):
        _, store, data = encoded_dir
        manifest = Manifest.load(store)
        assert sorted(manifest.chunks) == ["0", "1", "2", "3"]
        for entry in manifest.chunks.values():
            assert hashlib.sha256((store / entry["file"]).read_bytes()).hexdigest() == entry["sha256"]
        assert manifest.failed == []
        assert manifest.original_length == 3000
        assert manifest.original_sha256 == hashlib.sha256(data).hexdigest()

    def test_encode_into_a_store_refused(self, encoded_dir, capsys):
        tmp_path, store, _ = encoded_dir
        before = snapshot(store)
        capsys.readouterr()
        assert run_cli("encode", "--n", 4, "--k", 1, "--d", 2, "--h", 2,
                       "--input", tmp_path / "input.bin", "--out", store) == 2
        assert capsys.readouterr() == (
            "", f"error: --out {store} already holds a store; encode into a new directory\n")
        assert snapshot(store) == before

    def test_refused_encode_leaves_the_store(self, tmp_path, capsys, monkeypatch):
        # an encode into the store that fails as it saves the manifest must
        # not leave new chunks beside the old manifest
        store = tmp_path / "s"
        argv = ("encode", "--n", 4, "--k", 1, "--d", 2, "--h", 2, "--random-bytes", 100)
        assert run_cli(*argv, "--seed", 1, "--out", store) == 0
        before = snapshot(store)

        def full_disk(self, directory):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(storage.Manifest, "save", full_disk)
        assert run_cli(*argv, "--seed", 2, "--out", store) == 2
        assert snapshot(store) == before
        monkeypatch.undo()
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 0

    def test_requires_input_or_random(self, tmp_path, capsys):
        assert run_cli("encode", "--n", 4, "--k", 1, "--d", 2, "--h", 2,
                       "--out", tmp_path / "x") == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_requires_n(self, tmp_path, capsys):
        assert run_cli("encode", "--k", 1, "--d", 2, "--h", 2, "--random-bytes", 64,
                       "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err == "error: missing required parameter --n\n"
        assert not (tmp_path / "x").exists()

    def test_random_bytes_written_to_source(self, tmp_path):
        store = tmp_path / "s"
        assert run_cli("encode", "--n", 4, "--k", 1, "--d", 2, "--h", 2,
                       "--random-bytes", 100, "--seed", 3, "--out", store) == 0
        assert (store / "source.bin").stat().st_size == 100

    @pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
    def test_seed_with_input_refused(self, tmp_path, capsys, from_config):
        # a seed seeds --random-bytes only; with --input it was once ignored
        src = tmp_path / "in.bin"
        src.write_bytes(bytes(range(50)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        seed = ("--config", cfg) if from_config else ("--seed", 5)
        assert run_cli("encode", "--n", 4, "--k", 1, "--d", 2, "--h", 2, "--input", src,
                       *seed, "--out", tmp_path / "s") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --seed seeds --random-bytes only; it cannot be used "
                                "with --input\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "in.bin"]

    @pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize("option,values", [
        ("--random-bytes", {"random_bytes": -3}),
        ("--seed", {"random_bytes": 10, "seed": -1}),
    ], ids=["random-bytes", "seed"])
    def test_negative_count_refused(self, tmp_path, capsys, monkeypatch, option, values,
                                    from_config):
        # numpy's own words named no option: "negative dimensions are not
        # allowed" and "expected non-negative integer"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        flags = [(f"--{key.replace('_', '-')}", value) for key, value in values.items()]
        given = ("--config", cfg) if from_config else [a for flag in flags for a in flag]
        monkeypatch.setattr(np.random, "default_rng", None)  # no data is generated
        assert run_cli("encode", "--n", 4, "--k", 1, "--d", 2, "--h", 2, *given,
                       "--out", tmp_path / "X") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {option} {values[option[2:].replace('-', '_')]} must "
                                "be a non-negative integer; nothing written\n")
        assert not (tmp_path / "X").exists()

    def test_unreadable_input_reported(self, tmp_path, capsys):
        assert run_cli("encode", "--n", 4, "--k", 1, "--d", 2, "--h", 2,
                       "--input", tmp_path, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")

    @pytest.mark.parametrize("argv", [
        ("--d", 2, "--input", "."),  # a directory, not a file
        ("--d", 2, "--input", "absent.bin"),
        ("--d", 2),  # neither --input nor --random-bytes
        ("--d", 4, "--random-bytes", 10),  # invalid parameters
    ])
    def test_failed_encode_creates_no_store(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli("encode", "--n", 4, "--k", 1, "--h", 2, *argv, "--out", "out1") == 2
        assert not (tmp_path / "out1").exists()

    def test_payload_past_the_chunk_format_refused(self, tmp_path, capsys):
        # n = 40, s = 2: N = 3 * 2^40 symbols per node, past the header's u32,
        # refused when the first chunk's header is made, before any array
        store = tmp_path / "X"
        assert run_cli("encode", "--n", 40, "--k", 1, "--d", 2, "--h", 2,
                       "--random-bytes", 3, "--out", store) == 2
        out, err = capsys.readouterr()
        assert "error: node 0: chunk header field payload_len=3298534883328 exceeds the " \
               "chunk format's u32 limit of 4294967295" in err
        assert out == ""  # source.bin is not named: the failed encode removed it
        assert not store.exists()

    def test_input_changed_while_read_refused(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "input.bin"
        src.write_bytes(bytes(1000))
        real = storage.encode_file

        def rewritten_meanwhile(*args):
            result = real(*args)
            src.write_bytes(bytes([1]) * 1000)  # same length, new bytes
            stat = src.stat()
            os.utime(src, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
            return result

        monkeypatch.setattr(storage, "encode_file", rewritten_meanwhile)
        assert run_cli("encode", "--n", 4, "--k", 1, "--d", 2, "--h", 2,
                       "--input", src, "--out", tmp_path / "x") == 2
        assert "changed while it was read" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_pipe_input_read_whole(self, tmp_path):
        data = bytes(range(256)) * 8
        read_end, write_end = os.pipe()
        os.write(write_end, data)
        os.close(write_end)
        store = tmp_path / "s"
        try:
            assert run_cli("encode", "--n", 4, "--k", 1, "--d", 2, "--h", 2,
                           "--input", f"/dev/fd/{read_end}", "--out", store) == 0
        finally:
            os.close(read_end)
        assert Manifest.load(store).original_length == len(data)
        assert run_cli("decode", "--dir", store, "--out", tmp_path / "o.bin", "--nodes", "3") == 0
        assert (tmp_path / "o.bin").read_bytes() == data

    def test_invalid_params_exit_code(self, tmp_path, capsys):
        assert run_cli("encode", "--n", 4, "--k", 1, "--d", 4, "--h", 2,
                       "--random-bytes", 10, "--out", tmp_path / "x") == 2
        assert "error:" in capsys.readouterr().err


class TestFail:
    def test_quarantines_and_updates_manifest(self, encoded_dir):
        _, store, _ = encoded_dir
        assert run_cli("fail", "--dir", store, "--nodes", "0,1") == 0
        manifest = Manifest.load(store)
        assert manifest.failed == [0, 1]
        assert not (store / "node0.mscr").exists()
        assert (store / "node0.mscr.failed").exists()

    def test_wrong_count_rejected(self, encoded_dir, capsys):
        _, store, _ = encoded_dir
        assert run_cli("fail", "--dir", store, "--nodes", "0") == 2
        assert "exactly h=2" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes,error", [
        ("0,4", "node 4 out of range [0,4)"),
        ("1,x", "cannot parse node list '1,x'"),
        ("0,1", "chunk for node 1 not found at {store}/node1.mscr"),
    ], ids=["out-of-range", "unparsable", "missing-chunk"])
    def test_refused_without_a_change(self, encoded_dir, capsys, nodes, error):
        # node 0's chunk is checked before node 1's is found missing, and
        # stays in place: a refused command quarantines nothing
        _, store, _ = encoded_dir
        (store / "node1.mscr").unlink()
        before = snapshot(store)
        assert run_cli("fail", "--dir", store, "--nodes", nodes) == 2
        assert capsys.readouterr().err == f"error: {error.format(store=store)}\n"
        assert snapshot(store) == before

    def test_manifest_write_failure_renames_back(self, encoded_dir, capsys, monkeypatch):
        # a manifest that cannot be saved (a full disk) leaves both chunks
        # under their own names, as the unchanged manifest lists them
        _, store, _ = encoded_dir
        before = snapshot(store)
        real = storage.write_replacing

        def full_disk(path, data):
            if Path(path).name == storage.MANIFEST_NAME:
                raise OSError(28, "No space left on device")
            real(path, data)

        monkeypatch.setattr(storage, "write_replacing", full_disk)
        assert run_cli("fail", "--dir", store, "--nodes", "0,1") == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert snapshot(store) == before
        monkeypatch.undo()
        assert run_cli("fail", "--dir", store, "--nodes", "0,1") == 0

    def test_refail_rejected(self, encoded_dir, capsys):
        _, store, _ = encoded_dir
        assert run_cli("fail", "--dir", store, "--nodes", "0,1") == 0
        assert run_cli("fail", "--dir", store, "--nodes", "2,3") == 2
        assert "already failed" in capsys.readouterr().err


class TestRepeatedNodes:
    """A node list that names an index twice is refused with exit 2,
    naming the index, before anything is written."""

    @pytest.fixture()
    def store(self, tmp_path):
        store = tmp_path / "store"
        assert run_cli("encode", "--n", 6, "--k", 3, "--d", 4, "--h", 2, "--p", 257,
                       "--random-bytes", 2000, "--out", store) == 0
        return tmp_path, store

    def test_fail(self, store, capsys):
        _, store = store
        before = snapshot(store)
        capsys.readouterr()
        assert run_cli("fail", "--dir", store, "--nodes", "1,1,4") == 2
        assert capsys.readouterr().err == "error: node 1 is listed twice in '1,1,4'\n"
        assert snapshot(store) == before

    @pytest.mark.parametrize("helpers,index", [("0,2,3,5,5", 5), ("0,0,2,3", 0)])
    def test_repair(self, store, capsys, helpers, index):
        # "0,0,2,3" once read as three helpers: "need exactly d=4 helpers, got 3"
        tmp_path, store = store
        assert run_cli("fail", "--dir", store, "--nodes", "1,4") == 0
        before = snapshot(store)
        capsys.readouterr()
        assert run_cli("repair", "--dir", store, "--helpers", helpers) == 2
        assert capsys.readouterr().err == f"error: node {index} is listed twice in {helpers!r}\n"
        assert snapshot(store) == before

    def test_decode(self, store, capsys):
        tmp_path, store = store
        out = tmp_path / "out.bin"
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", out, "--nodes", "3 4 4 5") == 2
        assert capsys.readouterr().err == "error: node 4 is listed twice in '3 4 4 5'\n"
        assert not out.exists()

    def test_config_list(self, store, capsys):
        tmp_path, store = store
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nodes": [2, 2]}))
        before = snapshot(store)
        capsys.readouterr()
        assert run_cli("fail", "--dir", store, "--config", cfg) == 2
        assert capsys.readouterr().err == "error: node 2 is listed twice in [2, 2]\n"
        assert snapshot(store) == before


class TestRepair:
    def test_full_cycle_report(self, encoded_dir, capsys):
        _, store, data = encoded_dir
        run_cli("fail", "--dir", store, "--nodes", "0,1")
        capsys.readouterr()
        assert run_cli("repair", "--dir", store, "--helpers", "2,3",
                       "--csv", store / "metrics.csv") == 0
        out = capsys.readouterr().out
        assert "beta1 (helper -> failed)      : 16 symbols/edge" in out
        assert "beta2 (failed <-> failed)     : 16 symbols/edge" in out
        assert "gamma (total bandwidth)       : 96 symbols" in out
        assert "44 of 48 symbols = 11/12" in out
        assert "OPTIMAL" in out and "LOW-ACCESS" in out
        manifest = Manifest.load(store)
        assert manifest.failed == []
        assert (store / "node0.mscr").exists()
        assert not (store / "node0.mscr.failed").exists()
        # transcript recount agrees with the printed gamma
        assert recount((store / "transcript.txt").read_text()).gamma == 96
        csv = (store / "metrics.csv").read_text().splitlines()
        assert csv[1].split(",")[3] == "96"

    def test_single_failure(self, tmp_path, capsys):
        # h = 1 on (5,1,4,1), p = 257: no cooperative phase, so beta2 is 0,
        # and every helper reads G(3,1) = 7/16 of its chunk
        store = tmp_path / "s"
        # 3 stripes of kN = 4096 bytes
        assert run_cli("encode", "--n", 5, "--k", 1, "--d", 4, "--h", 1, "--p", 257,
                       "--random-bytes", 10000, "--out", store) == 0
        before = (store / "node0.mscr").read_bytes()
        assert run_cli("fail", "--dir", store, "--nodes", "0") == 0
        capsys.readouterr()
        assert run_cli("repair", "--dir", store, "--helpers", "1,2,3,4",
                       "--csv", tmp_path / "m.csv", "--transcript", tmp_path / "t.txt") == 0
        out = capsys.readouterr().out
        assert "beta1 (helper -> failed)      : 1024 symbols/edge" in out
        assert "beta2 (failed <-> failed)     : 0 symbols/edge" in out
        assert "gamma (total bandwidth)       : 4096 symbols   [cut-set bound 4096]" in out
        assert "1792 of 4096 symbols = 7/16 (G = 7/16)" in out
        assert "gamma total                   : 12288 symbols" in out
        assert "bandwidth : OPTIMAL" in out and "access    : LOW-ACCESS" in out
        assert (tmp_path / "m.csv").read_text().splitlines()[1] == (
            "3,1024,0,4096,12288,7168,21504,1792,4096,7/16,4096,4096")
        counted = recount((tmp_path / "t.txt").read_text())
        assert counted.gamma == 4096
        assert {edge[0] for edge in counted.per_edge} == {"download"}
        assert (store / "node0.mscr").read_bytes() == before
        assert run_cli("verify", "--dir", store) == 0

    def test_restored_bytes_identical(self, encoded_dir):
        tmp_path, store, data = encoded_dir
        before = (store / "node0.mscr").read_bytes()
        run_cli("fail", "--dir", store, "--nodes", "0,1")
        assert run_cli("repair", "--dir", store, "--helpers", "2,3") == 0
        assert (store / "node0.mscr").read_bytes() == before

    def test_recount_mismatch_refused(self, encoded_dir, capsys, monkeypatch):
        # the transcript's independent recount must equal the measured gamma,
        # or nothing in the store changes
        tmp_path, store, _ = encoded_dir
        run_cli("fail", "--dir", store, "--nodes", "0,1")
        before = snapshot(store)
        real = oracle.recount
        monkeypatch.setattr(oracle, "recount",
                            lambda text: dataclasses.replace(real(text), gamma=97))
        capsys.readouterr()
        assert run_cli("repair", "--dir", store, "--helpers", "2,3",
                       "--transcript", tmp_path / "t.txt") == 2
        assert capsys.readouterr() == ("", "error: transcript recount 97 != measured gamma 96\n")
        assert snapshot(store) == before

    def test_recount_mismatch_writes_no_transcript(self, encoded_dir, capsys, monkeypatch):
        # with --transcript at its default, inside the store, a refused
        # repair leaves the store byte-identical: no transcript is written
        _, store, _ = encoded_dir
        run_cli("fail", "--dir", store, "--nodes", "0,1")
        before = snapshot(store)
        real = oracle.recount
        monkeypatch.setattr(oracle, "recount",
                            lambda text: dataclasses.replace(real(text), gamma=97))
        capsys.readouterr()
        assert run_cli("repair", "--dir", store, "--helpers", "2,3") == 2
        assert capsys.readouterr() == ("", "error: transcript recount 97 != measured gamma 96\n")
        assert snapshot(store) == before

    def test_wrong_helper_count(self, encoded_dir, capsys):
        _, store, _ = encoded_dir
        run_cli("fail", "--dir", store, "--nodes", "0,1")
        assert run_cli("repair", "--dir", store, "--helpers", "2") == 2
        assert "exactly d=2" in capsys.readouterr().err

    def test_failed_helper_rejected(self, encoded_dir, capsys):
        _, store, _ = encoded_dir
        run_cli("fail", "--dir", store, "--nodes", "0,1")
        assert run_cli("repair", "--dir", store, "--helpers", "1,2") == 2
        assert "failed" in capsys.readouterr().err

    def test_no_failures_recorded(self, encoded_dir, capsys):
        _, store, _ = encoded_dir
        assert run_cli("repair", "--dir", store, "--helpers", "2,3") == 2
        assert "no failed nodes" in capsys.readouterr().err


class TestVerifyAndDecode:
    def test_decode_from_fewer_than_k_nodes_refused(self, tmp_path, capsys):
        store, out = tmp_path / "s", tmp_path / "out.bin"
        assert run_cli("encode", "--n", 6, "--k", 3, "--d", 4, "--h", 2, "--p", 257,
                       "--random-bytes", 1000, "--out", store) == 0
        before = snapshot(store)
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", out, "--nodes", "0") == 2
        assert capsys.readouterr().err == "error: need at least k=3 chunks, have 1\n"
        assert not out.exists() and snapshot(store) == before

    def test_verify_clean(self, encoded_dir, capsys):
        _, store, _ = encoded_dir
        assert run_cli("verify", "--dir", store) == 0
        out = capsys.readouterr().out
        assert out.count("checksum OK") == 4
        assert "satisfy every check" in out

    def test_verify_detects_corruption(self, encoded_dir, capsys):
        _, store, _ = encoded_dir
        path = store / "node2.mscr"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 1
        path.write_bytes(bytes(raw))
        assert run_cli("verify", "--dir", store) == 1
        assert "checksum mismatch" in capsys.readouterr().err

    def test_verify_names_the_failing_stripe(self, encoded_dir, capsys):
        # a consistent checksum but one wrong symbol: only the parity sweep sees it
        _, store, _ = encoded_dir
        manifest = Manifest.load(store)
        params = manifest.params()
        assert manifest.stripe_count > 3
        stripe = manifest.stripe_count // 2
        path = store / manifest.chunks["2"]["file"]
        symbols = chunk_symbols(store, manifest, 2)
        pos = stripe * params.N + 7
        symbols[pos] = (symbols[pos] + 1) % params.p
        write_replacing(path, chunk_bytes(params, 2, symbols))
        manifest.chunks["2"]["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest.save(store)
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 1
        problems = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("PROBLEM")]
        assert problems == [f"PROBLEM: stripe {stripe}: parity checks fail"]

    def test_verify_reports_the_stripe_before_the_manifest(self, encoded_dir, capsys):
        _, store, _ = encoded_dir
        manifest = Manifest.load(store)
        params = manifest.params()
        path = store / manifest.chunks["3"]["file"]
        symbols = chunk_symbols(store, manifest, 3)
        symbols[params.N + 2] = (symbols[params.N + 2] + 1) % params.p
        write_replacing(path, chunk_bytes(params, 3, symbols))
        manifest.chunks["3"]["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest.original_sha256 = "0" * 64
        manifest.save(store)
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 1
        assert capsys.readouterr().err.splitlines() == [
            "PROBLEM: stripe 1: parity checks fail",
            "PROBLEM: manifest: the decoded 3000 bytes do not match manifest field "
            "'original_sha256'"]

    def test_verify_judges_the_bytes_its_walk_read(self, encoded_dir, capsys, monkeypatch):
        # the digest is of the bytes file_bytes gives the walk's kernel, not
        # of a second read: flipping the file's last byte there is a mismatch
        _, store, _ = encoded_dir
        real, stripes = storage.file_bytes, Manifest.load(store).stripe_count

        def last_byte_flipped(params, message, start, stop, original_length):
            data = real(params, message, start, stop, original_length)
            return data[:-1] + bytes([data[-1] ^ 1]) if stop == stripes else data

        monkeypatch.setattr(storage, "file_bytes", last_byte_flipped)
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 1
        captured = capsys.readouterr()
        assert "satisfy every check" in captured.out
        assert captured.err == ("PROBLEM: manifest: the decoded 3000 bytes do not match "
                                "manifest field 'original_sha256'\n")

    def test_verify_reports_quarantined(self, encoded_dir, capsys):
        _, store, _ = encoded_dir
        run_cli("fail", "--dir", store, "--nodes", "0,1")
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 0
        out = capsys.readouterr().out
        assert out.count("FAILED (quarantined)") == 2
        assert "skipped" in out

    def test_decode_roundtrip_default_nodes(self, encoded_dir):
        tmp_path, store, data = encoded_dir
        out = tmp_path / "out.bin"
        assert run_cli("decode", "--dir", store, "--out", out) == 0
        assert out.read_bytes() == data

    def test_decode_from_single_parity_chunk(self, encoded_dir):
        tmp_path, store, data = encoded_dir
        out = tmp_path / "out.bin"
        assert run_cli("decode", "--dir", store, "--out", out, "--nodes", "3") == 0
        assert out.read_bytes() == data

    def test_decode_insufficient(self, encoded_dir, capsys):
        tmp_path, store, _ = encoded_dir
        run_cli("fail", "--dir", store, "--nodes", "0,1")
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", tmp_path / "x",
                       "--nodes", "0") == 2
        assert "failed" in capsys.readouterr().err


class TestCheckedReads:
    # every chunk read is checked against the manifest before it is used

    @pytest.fixture()
    def store6(self, tmp_path):
        data = np.random.default_rng(5).integers(0, 256, size=2000, dtype=np.uint8).tobytes()
        src = tmp_path / "input.bin"
        src.write_bytes(data)
        store = tmp_path / "store"
        assert run_cli("encode", "--n", 6, "--k", 3, "--d", 4, "--h", 2, "--p", 257,
                       "--input", src, "--out", store) == 0
        return tmp_path, store, data

    @staticmethod
    def flip_bit(path, offset=-100):
        raw = bytearray(path.read_bytes())
        raw[offset] ^= 1
        path.write_bytes(bytes(raw))

    def test_decode_refuses_corrupt_chunk(self, store6, capsys):
        # the corrupt chunk is named and skipped, and the next node takes its place
        tmp_path, store, data = store6
        self.flip_bit(store / "node0.mscr")
        out = tmp_path / "out.bin"
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", out) == 0
        captured = capsys.readouterr()
        assert captured.err == "skipped node 0: checksum mismatch\n"
        assert "from nodes [1, 2, 3]" in captured.out
        assert out.read_bytes() == data

    def test_decode_fails_when_fewer_than_k_chunks_verify(self, store6, capsys):
        tmp_path, store, _ = store6
        for i in (0, 4, 5):
            self.flip_bit(store / f"node{i}.mscr")
        (store / "node2.mscr").unlink()
        out = tmp_path / "out.bin"
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", out) == 2
        err = capsys.readouterr().err
        for i in (0, 4, 5):
            assert f"skipped node {i}: checksum mismatch" in err
        assert "skipped node 2: chunk missing" in err
        assert "error: need k=3 verified chunks, only 2 of nodes [0, 1, 2, 3, 4, 5] verify; " \
               "bad nodes [0, 2, 4, 5]" in err
        assert not out.exists()

    def test_repair_checks_restored_chunks_before_writing(self, store6, capsys):
        _, store, _ = store6
        assert run_cli("fail", "--dir", store, "--nodes", "1,4") == 0
        manifest = Manifest.load(store)
        manifest.chunks["4"]["sha256"] = "0" * 64
        manifest.save(store)
        capsys.readouterr()
        assert run_cli("repair", "--dir", store, "--helpers", "0,2,3,5") == 2
        err = capsys.readouterr().err
        assert "node 4: restored chunk fails checksum verification" in err
        assert "node 1" not in err
        for i in (1, 4):
            assert not (store / f"node{i}.mscr").exists()
            assert (store / f"node{i}.mscr.failed").exists()
        assert Manifest.load(store).failed == [1, 4]

    def test_repair_refuses_corrupt_helper(self, store6, capsys):
        _, store, _ = store6
        self.flip_bit(store / "node0.mscr")
        assert run_cli("fail", "--dir", store, "--nodes", "1,4") == 0
        capsys.readouterr()
        assert run_cli("repair", "--dir", store, "--helpers", "0,2,3,5") == 2
        assert "node 0" in capsys.readouterr().err
        for i in (1, 4):
            assert not (store / f"node{i}.mscr").exists()
            assert (store / f"node{i}.mscr.failed").exists()
        assert Manifest.load(store).failed == [1, 4]

    def test_verify_reports_unparsable_chunk_as_mismatch(self, store6, capsys):
        _, store, _ = store6
        path = store / "node3.mscr"
        path.write_bytes(path.read_bytes()[:-1])  # the body no longer parses
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 1
        captured = capsys.readouterr()
        assert "PROBLEM: node 3: checksum mismatch" in captured.err
        assert captured.out.count("checksum OK") == 5

    def test_verify_reports_header_mismatch_and_checks_the_rest(self, store6, capsys):
        _, store, _ = store6
        path = store / "node2.mscr"
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 4 + 6 * 4, 3)  # header field node_index
        path.write_bytes(bytes(raw))
        manifest = Manifest.load(store)
        manifest.chunks["2"]["sha256"] = hashlib.sha256(raw).hexdigest()
        manifest.save(store)
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 1
        captured = capsys.readouterr()
        assert (f"PROBLEM: node 2: {path}: header is not the one written for node 2 of this "
                "code and payload length") in captured.err
        assert "error:" not in captured.err
        for i in (0, 1, 3, 4, 5):
            assert f"node {i}: checksum OK" in captured.out
        assert "parity: skipped" in captured.out

    @pytest.mark.parametrize("command", ["verify", "decode", "repair"])
    def test_unreadable_chunk_is_a_bad_chunk(self, store6, capsys, command):
        tmp_path, store, data = store6
        (store / "node0.mscr").unlink()
        (store / "node0.mscr").mkdir()
        out = tmp_path / "out.bin"
        capsys.readouterr()
        if command == "verify":
            assert run_cli("verify", "--dir", store) == 1
            assert "PROBLEM: node 0: [Errno 21] Is a directory" in capsys.readouterr().err
        elif command == "repair":
            assert run_cli("fail", "--dir", store, "--nodes", "1,4") == 0
            before = {p: p.read_bytes() for p in store.rglob("*") if p.is_file()}
            capsys.readouterr()
            assert run_cli("repair", "--dir", store, "--helpers", "0,2,3,5") == 2
            assert capsys.readouterr().err.startswith("error: node 0: [Errno 21] Is a directory")
            assert {p: p.read_bytes() for p in store.rglob("*") if p.is_file()} == before
        else:
            assert run_cli("decode", "--dir", store, "--out", out) == 0
            captured = capsys.readouterr()
            assert captured.err.startswith("skipped node 0: [Errno 21] Is a directory")
            assert "from nodes [1, 2, 3]" in captured.out
            assert out.read_bytes() == data

    @pytest.mark.parametrize("option", ["--transcript", "--csv"])
    def test_repair_refuses_unwritable_output_before_writing(self, store6, capsys, option):
        tmp_path, store, _ = store6
        assert run_cli("fail", "--dir", store, "--nodes", "1,4") == 0
        before = (store / "manifest.json").read_bytes()
        capsys.readouterr()
        missing = tmp_path / "missing" / "out.txt"
        assert run_cli("repair", "--dir", store, "--helpers", "0,2,3,5", option, missing) == 2
        captured = capsys.readouterr()
        # the error names the file asked for, not the temporary file beside it
        assert captured.err.startswith("error: [Errno 2]")
        assert str(missing) in captured.err and ".tmp" not in captured.err
        assert captured.out == ""
        for i in (1, 4):
            assert not (store / f"node{i}.mscr").exists()
            assert (store / f"node{i}.mscr.failed").exists()
        assert (store / "manifest.json").read_bytes() == before
        # with --csv unwritable, the default transcript is not left either
        assert not (store / "transcript.txt").exists()

    def test_decode_refuses_unwritable_output(self, store6, capsys):
        tmp_path, store, _ = store6
        missing = tmp_path / "missing" / "out.bin"
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", missing) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno 2]")
        assert str(missing) in captured.err and ".tmp" not in captured.err
        assert captured.out == "" and not missing.parent.exists()

    def test_decode_ignores_corrupt_chunk_it_does_not_read(self, store6, capsys):
        tmp_path, store, data = store6
        self.flip_bit(store / "node5.mscr")
        out = tmp_path / "out.bin"
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", out) == 0
        assert "from nodes [0, 1, 2]" in capsys.readouterr().out
        assert out.read_bytes() == data

    @pytest.fixture()
    def store_p7(self, tmp_path):
        data = np.random.default_rng(6).integers(0, 256, size=2000, dtype=np.uint8).tobytes()
        src = tmp_path / "input.bin"
        src.write_bytes(data)
        store = tmp_path / "store"
        assert run_cli("encode", "--n", 6, "--k", 2, "--d", 3, "--h", 3, "--p", 7,
                       "--input", src, "--out", store) == 0
        return tmp_path, store, data

    @staticmethod
    def edit_points(store):
        # still valid points, so the manifest loads; the chunks' sha256 still match
        manifest = Manifest.load(store)
        manifest.lambdas, manifest.mus = (0, 1, 2, 3, 4, 6), (5,)
        manifest.save(store)

    def test_decode_refuses_edited_evaluation_points(self, store_p7, capsys):
        tmp_path, store, _ = store_p7
        self.edit_points(store)
        out = tmp_path / "out.bin"
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", out, "--nodes", "4,5") == 2
        assert "node 4" in capsys.readouterr().err
        assert not out.exists()

    def test_repair_refuses_edited_evaluation_points(self, store_p7, capsys):
        _, store, _ = store_p7
        assert run_cli("fail", "--dir", store, "--nodes", "0,2,5") == 0
        self.edit_points(store)
        capsys.readouterr()
        assert run_cli("repair", "--dir", store, "--helpers", "1,3,4") == 2
        assert "node 1" in capsys.readouterr().err
        for i in (0, 2, 5):
            assert not (store / f"node{i}.mscr").exists()
            assert (store / f"node{i}.mscr.failed").exists()
        assert Manifest.load(store).failed == [0, 2, 5]

    @pytest.mark.parametrize("option", ["--transcript", "--csv"])
    def test_repair_refuses_output_that_is_not_a_regular_file(self, store6, capsys, option):
        # a directory is not replaced; the chunks, quarantine and manifest stay
        tmp_path, store, _ = store6
        assert run_cli("fail", "--dir", store, "--nodes", "1,4") == 0
        before = {p.name: p.read_bytes() for p in store.iterdir()}
        capsys.readouterr()
        assert run_cli("repair", "--dir", store, "--helpers", "0,2,3,5", option, tmp_path) == 2
        assert "is not a regular file" in capsys.readouterr().err
        assert tmp_path.is_dir()
        assert {p.name: p.read_bytes() for p in store.iterdir() if p.name != "transcript.txt"} == before

    @pytest.mark.parametrize("option", ["--transcript", "--csv"])
    def test_repair_output_write_is_crash_safe(self, store6, fail_halfway, capsys, option):
        # an existing output keeps its bytes when its rewrite fails, and the
        # store is left as it was
        tmp_path, store, _ = store6
        assert run_cli("fail", "--dir", store, "--nodes", "1,4") == 0
        target = tmp_path / "out.txt"
        target.write_bytes(b"an earlier run's output\n")
        before = {p.name: p.read_bytes() for p in store.iterdir()}
        fail_halfway()
        capsys.readouterr()
        assert run_cli("repair", "--dir", store, "--helpers", "0,2,3,5", option, target) == 2
        assert "error: [Errno 28] No space" in capsys.readouterr().err
        assert target.read_bytes() == b"an earlier run's output\n"
        assert {p.name: p.read_bytes() for p in store.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["input.bin", "out.txt", "store"]

    def test_decode_output_write_is_crash_safe(self, encoded_dir, fail_halfway, capsys):
        tmp_path, store, _ = encoded_dir
        out_dir = tmp_path / "decoded"
        out_dir.mkdir()
        fail_halfway()
        assert run_cli("decode", "--dir", store, "--out", out_dir / "out.bin", "--nodes", "3") == 2
        assert "error: [Errno 28] No space" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_decode_refuses_output_that_is_not_a_regular_file(self, encoded_dir, capsys):
        tmp_path, store, _ = encoded_dir
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", out) == 2
        assert "not a regular file" in capsys.readouterr().err
        assert out.is_dir() and list(out.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["input.bin", "out", "store"]

    @pytest.mark.parametrize("spelling", ["", " , ", []], ids=["empty", "separators", "config"])
    def test_decode_refuses_an_empty_node_list(self, encoded_dir, capsys, spelling):
        # an empty list once decoded from every node, or failed as too few
        tmp_path, store, _ = encoded_dir
        if isinstance(spelling, list):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"nodes": spelling}))
            nodes = ("--config", cfg)
        else:
            nodes = ("--nodes", spelling)
        before = sorted(tmp_path.iterdir())
        assert run_cli("decode", "--dir", store, "--out", tmp_path / "x", *nodes) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --nodes lists no node; list some, or leave it out to "
                                "decode from every available node\n")
        assert sorted(tmp_path.iterdir()) == before

    def test_decode_rejects_out_of_range_node(self, encoded_dir, capsys):
        tmp_path, store, _ = encoded_dir
        assert run_cli("decode", "--dir", store, "--out", tmp_path / "x",
                       "--nodes", "0,9") == 2
        assert "node 9 out of range" in capsys.readouterr().err


class TestEditedOriginalLength:
    """A manifest byte length that disagrees with the chunks is an error:
    decode never writes a file of another length than the one encoded."""

    @pytest.fixture()
    def store(self, tmp_path):
        # 3000 bytes in stripes of 576: six stripes, the last holding 120
        data = np.random.default_rng(9).integers(1, 256, size=3000, dtype=np.uint8).tobytes()
        src = tmp_path / "input.bin"
        src.write_bytes(data)
        store = tmp_path / "store"
        assert run_cli("encode", "--n", 6, "--k", 3, "--d", 4, "--h", 2, "--p", 257,
                       "--input", src, "--out", store) == 0
        return tmp_path, store

    @staticmethod
    def set_length(store, length):
        manifest = Manifest.load(store)
        manifest.original_length = length
        manifest.save(store)

    @pytest.mark.parametrize("argv", [("decode",), ("decode", "--nodes", "3,4,5"), ("verify",)])
    def test_length_of_another_stripe_count_refused_before_any_read(
            self, store, capsys, monkeypatch, argv):
        tmp_path, store = store
        self.set_length(store, 10)
        reads = []
        monkeypatch.setattr(storage, "read_chunk", lambda *args: reads.append(args))
        out = tmp_path / "out.bin"
        extra = ["--out", out] if argv[0] == "decode" else []
        capsys.readouterr()
        assert run_cli(argv[0], "--dir", store, *extra, *argv[1:]) == 2
        err = capsys.readouterr().err
        assert "'original_length' = 10 bytes fills 1 stripe(s), but 'stripe_count' is 6" in err
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize("nodes", ["0,1,2", "3,4,5"])
    def test_shortened_length_refused(self, store, capsys, nodes):
        tmp_path, store = store
        self.set_length(store, 2900)
        out = tmp_path / "out.bin"
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", out, "--nodes", nodes) == 2
        assert "past original_length = 2900 bytes" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_reports_shortened_length(self, store, capsys):
        # every chunk and parity check passes; only the padding shows the edit
        _, store = store
        self.set_length(store, 2900)
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 1
        captured = capsys.readouterr()
        assert "satisfy every check" in captured.out
        problems = [ln for ln in captured.err.splitlines() if ln.startswith("PROBLEM")]
        assert len(problems) == 1
        assert "past original_length = 2900 bytes" in problems[0]

    @pytest.mark.parametrize("nodes", ["0,1,2", "3,4,5"])
    def test_grown_length_refused(self, store, capsys, nodes):
        # 5 bytes more lie in the zero padding of the last stripe: only the
        # digest of the original file tells them apart
        tmp_path, store = store
        self.set_length(store, 3005)
        out = tmp_path / "out.bin"
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", out, "--nodes", nodes) == 2
        assert "do not match manifest field 'original_sha256'" in capsys.readouterr().err
        assert not out.exists() and sorted(p.name for p in tmp_path.iterdir()) == ["input.bin", "store"]

    @pytest.mark.parametrize("failed", [None, "3,4"])
    def test_verify_reports_grown_length(self, store, capsys, failed):
        # with the k systematic chunks verify checks what decode checks
        _, store = store
        if failed:
            assert run_cli("fail", "--dir", store, "--nodes", failed) == 0
        self.set_length(store, 3005)
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 1
        problems = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("PROBLEM")]
        assert problems == ["PROBLEM: manifest: the decoded 3005 bytes do not match manifest "
                            "field 'original_sha256'"]

    def test_verify_checks_padding_with_a_parity_node_failed(self, store, capsys):
        _, store = store
        assert run_cli("fail", "--dir", store, "--nodes", "3,4") == 0
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 0
        self.set_length(store, 2900)
        assert run_cli("verify", "--dir", store) == 1
        assert "past original_length = 2900 bytes" in capsys.readouterr().err


class TestBlockWalk:
    """Commands walk a file in blocks of stripes; with the block shrunk to 8
    stripes, a fault in the last block is named at its stripe in the file."""

    def test_verify_names_a_stripe_of_the_last_block(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(storage, "BLOCK_SYMBOLS", 1)
        store = tmp_path / "s"
        assert run_cli("encode", "--n", 6, "--k", 2, "--d", 3, "--h", 3, "--p", 7,
                       "--random-bytes", 5000, "--out", store) == 0
        manifest = Manifest.load(store)
        params = manifest.params()
        # 5000 bytes are 20000 two-bit symbols, in 40 stripes of 512
        assert manifest.stripe_count == 40
        assert storage.blocks(params, 40)[-1] == (32, 40)
        path = store / manifest.chunks["4"]["file"]
        symbols = chunk_symbols(store, manifest, 4)
        pos = 37 * params.N + 100
        symbols[pos] = (symbols[pos] + 1) % params.p
        write_replacing(path, chunk_bytes(params, 4, symbols))
        manifest.chunks["4"]["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest.save(store)
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 1
        problems = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("PROBLEM")]
        assert problems == ["PROBLEM: stripe 37: parity checks fail"]
        assert run_cli("decode", "--dir", store, "--out", tmp_path / "o.bin") == 0
        assert (tmp_path / "o.bin").read_bytes() == (store / "source.bin").read_bytes()


class TestSymbolOutOfField:
    """A chunk whose digest matches but whose block does not read is found
    when that block is read: decode skips it and reads that block of the
    next node in its place, keeping the blocks it has read and written, and
    verify names it and keeps the checks that do not need it.  A
    block does not read when it holds a symbol outside its node's range
    (put_p; only a parity chunk can hold one, as a systematic chunk's m-bit
    fields hold nothing else) or when the chunk changed since it was opened
    (change_while_read)."""

    @pytest.fixture()
    def store(self, tmp_path, monkeypatch):
        # 20000 bytes are 35 stripes of 576, walked in five blocks of 8
        monkeypatch.setattr(storage, "BLOCK_SYMBOLS", 1)
        data = np.random.default_rng(4).integers(0, 256, size=20000, dtype=np.uint8).tobytes()
        src = tmp_path / "input.bin"
        src.write_bytes(data)
        store = tmp_path / "store"
        assert run_cli("encode", "--n", 6, "--k", 3, "--d", 4, "--h", 2, "--p", 257,
                       "--input", src, "--out", store) == 0
        return tmp_path, store, data

    @staticmethod
    def put_p(store, node, stripe=30):
        """Store p = 257 as symbol 5 of stripe `stripe` (30: the fourth block)
        of parity node `node`'s chunk, and record the chunk's new digest.
        Symbol 5 is the top digit of a group of c = 6, whose 49-bit value
        holds it."""
        manifest = Manifest.load(store)
        assert node >= manifest.k
        params = manifest.params()
        symbols = chunk_symbols(store, manifest, node)
        symbols[stripe * params.N + 5] = params.p
        path = store / manifest.chunks[str(node)]["file"]
        write_replacing(path, chunk_bytes(params, node, symbols))
        manifest.chunks[str(node)]["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest.save(store)
        return manifest

    @staticmethod
    def change_while_read(monkeypatch, node, read=1):
        """Rewrite node `node`'s chunk in place, with the same bytes and a
        later modification time, just before its fourth block (stripes 24 to
        32) is read for the `read`-th time."""
        real, reads = storage.ChunkReader.block, []

        def block(self, start, stop):
            if self._node == node and start == 24:
                reads.append(True)
                if len(reads) == read:
                    raw, before = self._path.read_bytes(), self._path.stat()
                    with open(self._path, "r+b") as fh:
                        fh.write(raw)
                    os.utime(self._path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
            return real(self, start, stop)

        monkeypatch.setattr(storage.ChunkReader, "block", block)

    def test_decode_skips_the_chunk_and_restarts(self, store, capsys, monkeypatch):
        tmp_path, store, data = store
        self.change_while_read(monkeypatch, 1)
        out = tmp_path / "out.bin"
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", out) == 0
        captured = capsys.readouterr()
        assert captured.err == (f"skipped node 1: {store / 'node1.mscr'} changed while it "
                                "was read\n")
        assert "from nodes [0, 2, 3]" in captured.out
        assert out.read_bytes() == data
        assert sorted(p.name for p in tmp_path.iterdir()) == ["input.bin", "out.bin", "store"]

    def test_decode_reads_no_earlier_block_again(self, store, monkeypatch):
        # the spare takes node 1's place at stripe 24: the blocks before it
        # are decoded once, from nodes 0, 1 and 2, and no block is read twice
        tmp_path, store, data = store
        self.change_while_read(monkeypatch, 1)
        reads, real = Counter(), storage.ChunkReader.block

        def counted(self, start, stop):
            reads[self._node, start] += 1
            return real(self, start, stop)

        monkeypatch.setattr(storage.ChunkReader, "block", counted)
        out = tmp_path / "out.bin"
        assert run_cli("decode", "--dir", store, "--out", out) == 0
        assert out.read_bytes() == data
        assert max(reads.values()) == 1
        assert sum(reads.values()) == 16  # five blocks of three nodes, and node 1's failed read
        assert reads[1, 24] == 1 and reads[3, 24] == 1

    def test_verify_keeps_the_digest_check_without_a_parity_node(self, store, capsys):
        _, store, _ = store
        manifest = self.put_p(store, 4)
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 1
        captured = capsys.readouterr()
        assert "node 4: checksum OK" in captured.out
        assert "parity: skipped (node 4 does not read)" in captured.out
        problem = f"PROBLEM: node 4: {store / 'node4.mscr'}: symbol out of field range"
        assert captured.err.splitlines() == [problem]
        # the k systematic chunks still read, so the file's digest is checked
        manifest.original_sha256 = "0" * 64
        manifest.save(store)
        assert run_cli("verify", "--dir", store) == 1
        assert capsys.readouterr().err.splitlines() == [
            problem, "PROBLEM: manifest: the decoded 20000 bytes do not match manifest "
                     "field 'original_sha256'"]

    def test_verify_names_every_chunk_that_does_not_read(self, store, capsys):
        # one bad parity chunk in the first block and one in the last: the
        # sweep goes on without the first, so it names the second too
        _, store, _ = store
        self.put_p(store, 3, stripe=0)
        self.put_p(store, 5, stripe=34)
        before = {path.name: path.read_bytes() for path in store.iterdir()}
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 1
        captured = capsys.readouterr()
        assert "parity: skipped (node 3 does not read)" in captured.out
        assert captured.err.splitlines() == [
            f"PROBLEM: node {i}: {store / f'node{i}.mscr'}: symbol out of field range"
            for i in (3, 5)]
        assert {path.name: path.read_bytes() for path in store.iterdir()} == before

    def test_verify_names_a_chunk_that_does_not_read_beside_a_missing_one(self, store,
                                                                           capsys):
        # node 0 does not open and node 4's block does not read: the walk
        # reads the chunks that opened, so it names node 4 too
        _, store, _ = store
        (store / "node0.mscr").unlink()
        self.put_p(store, 4)
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 1
        captured = capsys.readouterr()
        assert "parity: skipped (not all chunks available)" in captured.out
        assert captured.err.splitlines() == [
            f"PROBLEM: node 0: chunk missing at {store / 'node0.mscr'}",
            f"PROBLEM: node 4: {store / 'node4.mscr'}: symbol out of field range"]

    def test_verify_names_a_systematic_node(self, store, capsys, monkeypatch):
        _, store, _ = store
        self.change_while_read(monkeypatch, 0)
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 1
        captured = capsys.readouterr()
        assert "parity: skipped (node 0 does not read)" in captured.out
        assert captured.err.splitlines() == [
            f"PROBLEM: node 0: {store / 'node0.mscr'} changed while it was read"]

    def test_verify_names_a_systematic_node_beside_a_missing_one(self, store, capsys,
                                                                 monkeypatch):
        # without node 5 the walk checks no parity, and node 0 changes before
        # its block 24 is read: each is named once, and the file, whose
        # systematic blocks were not all read, is not judged
        _, store, _ = store
        (store / "node5.mscr").unlink()
        self.change_while_read(monkeypatch, 0)
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 1
        captured = capsys.readouterr()
        assert "parity: skipped (not all chunks available)" in captured.out
        assert captured.err.splitlines() == [
            f"PROBLEM: node 5: chunk missing at {store / 'node5.mscr'}",
            f"PROBLEM: node 0: {store / 'node0.mscr'} changed while it was read"]

    @pytest.mark.parametrize("missing", [None, 4])
    def test_verify_reads_each_block_once(self, store, capsys, monkeypatch, missing):
        # the parity sweep and the file's digest share one walk: every block
        # of every chunk that opened is read exactly once
        _, store, _ = store
        if missing is not None:
            (store / f"node{missing}.mscr").unlink()
        reads, real = Counter(), storage.ChunkReader.block

        def counted(self, start, stop):
            reads[self._node, start] += 1
            return real(self, start, stop)

        monkeypatch.setattr(storage.ChunkReader, "block", counted)
        assert run_cli("verify", "--dir", store) == (0 if missing is None else 1)
        opened = [i for i in range(6) if i != missing]
        assert reads == Counter({(i, start): 1 for i in opened for start in range(0, 35, 8)})


class TestMalformedManifest:
    # a missing, unknown or mistyped manifest field is an error naming it,
    # never a traceback
    EDITS = {
        "missing": (lambda m: m.pop("stripe_count"), "'stripe_count' is missing"),
        "unknown": (lambda m: m.update(extra=1), "'extra' is unknown"),
        "string": (lambda m: m.update(stripe_count=str(m["stripe_count"])),
                   "'stripe_count' must be a non-negative integer"),
        "bits_per_symbol": (lambda m: m.update(bits_per_symbol=3),
                            "'bits_per_symbol' must be 2 for p=5, got 3"),
        "no_digest": (lambda m: m.pop("original_sha256"), "'original_sha256' is missing"),
        "number_digest": (lambda m: m.update(original_sha256=5),
                          "'original_sha256' must be a string"),
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    @pytest.mark.parametrize("command", ["verify", "decode"])
    def test_reported_as_error(self, encoded_dir, capsys, command, edit):
        tmp_path, store, _ = encoded_dir
        path = store / "manifest.json"
        manifest = json.loads(path.read_text())
        change, message = self.EDITS[edit]
        change(manifest)
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out.bin"
        argv = ["--dir", store] + (["--out", out] if command == "decode" else [])
        capsys.readouterr()
        assert run_cli(command, *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert not out.exists()

    def test_array_manifest_refused(self, encoded_dir, capsys):
        _, store, _ = encoded_dir
        path = store / "manifest.json"
        path.write_text("[1, 2]")
        before = snapshot(store)
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 2
        assert capsys.readouterr().err == f"error: {path}: manifest must hold a JSON object\n"
        assert snapshot(store) == before

    # `fail` records none or h distinct nodes of [0, n); any other list would
    # leave a store that no command can operate
    FAILED = {"out-of-range": [9], "repeated": [0, 0], "short": [0], "long": [0, 1, 2]}

    @pytest.mark.parametrize("shape", sorted(FAILED))
    @pytest.mark.parametrize("argv", [
        ("verify",), ("decode", "--out", "x.bin"), ("repair", "--helpers", "2,3"),
        ("fail", "--nodes", "0,1"),
    ], ids=["verify", "decode", "repair", "fail"])
    def test_failed_list_fail_never_writes_refused(self, encoded_dir, capsys, monkeypatch,
                                                   shape, argv):
        tmp_path, store, _ = encoded_dir
        path = store / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["failed"] = self.FAILED[shape]
        path.write_text(json.dumps(manifest))
        before = snapshot(store)
        opened = []
        monkeypatch.setattr(storage, "read_chunk", lambda *a: opened.append(a))
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert run_cli(argv[0], "--dir", store, *argv[1:]) == 2
        assert capsys.readouterr().err == (
            f"error: manifest field 'failed' = {self.FAILED[shape]} must list none or h=2 "
            "distinct nodes of [0,4), as `fail` records\n")
        assert opened == [] and snapshot(store) == before
        assert not (tmp_path / "x.bin").exists()

    @pytest.mark.parametrize("raw", [b"\x00\x82 not UTF-8", b"{not JSON"], ids=["bytes", "text"])
    def test_undecodable_manifest_named(self, encoded_dir, capsys, raw):
        _, store, _ = encoded_dir
        path = store / "manifest.json"
        path.write_bytes(raw)
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not a JSON manifest: ")

    def test_chunk_file_outside_the_store_refused(self, encoded_dir, capsys):
        tmp_path, store, _ = encoded_dir
        outside = tmp_path / "keep.txt"
        outside.write_text("keep")
        path = store / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["chunks"]["1"]["file"] = "../keep.txt"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("fail", "--dir", store, "--nodes", "0,1") == 2
        assert "'chunks'" in capsys.readouterr().err
        assert outside.read_text() == "keep"
        assert (store / "node0.mscr").exists()


class TestChunkFormat:
    """Chunk format 4: a systematic chunk stores its message symbols at the
    message width m (8 bits when p > 255, else floor(log2 p)), a parity
    chunk its field elements in groups of c, each group one base-p value of
    B bits.  The sizes below are written out from that description and the
    (c, B) of each shape, independently of storage."""

    # (n, k, d, h), p -> a parity chunk's (c, B): the divisor c of N with the
    # fewest bits per symbol B/c, B = ceil(log2 p^c) <= 64
    PARITY_GROUPS = {
        ((6, 3, 4, 2), 257): (6, 49),  # N = 192: 8.167 bits per symbol, not 9
        ((6, 2, 3, 3), 7): (16, 45),  # N = 256: 2.8125 bits, not 3
        ((5, 1, 4, 1), 257): (4, 33),  # N = 4096: 8.25 bits, not 9
    }

    @classmethod
    def sizes(cls, nkdh, p, payload_len):
        """(header, systematic body, parity body) bytes of one chunk."""
        n, k, d, h = nkdh
        m = 8 if p > 255 else math.floor(math.log2(p))
        c, width = cls.PARITY_GROUPS[nkdh, p]
        header = 4 + 9 * 4 + 4 * (n + (d - k + 1) - 1)
        body = [values * (b // 8) + (b % 8) * math.ceil(values / 8)
                for values, b in ((payload_len, m), (payload_len // c, width))]
        return header, *body

    @pytest.mark.parametrize("nkdh,p", [((6, 2, 3, 3), 7), ((6, 3, 4, 2), 257)])
    def test_chunk_size_is_header_plus_packed_body(self, tmp_path, nkdh, p):
        n, k, d, h = nkdh
        store = tmp_path / "s"
        assert run_cli("encode", "--n", n, "--k", k, "--d", d, "--h", h, "--p", p,
                       "--random-bytes", 3001, "--out", store) == 0
        manifest = Manifest.load(store)
        header, systematic, parity = self.sizes(
            nkdh, p, manifest.stripe_count * manifest.params().N)
        for i in range(n):
            body = systematic if i < k else parity
            assert (store / f"node{i}.mscr").stat().st_size == header + body
        # no temporary file is left behind
        assert sorted(f.name for f in store.iterdir()) == sorted(
            ["manifest.json", "source.bin"] + [f"node{i}.mscr" for i in range(n)])

    # (n, k, d, h), p -> body bytes per input byte of a file of whole stripes:
    # (k m + r B/c) / (k m), against n/k symbols per message symbol
    DISK_PER_INPUT = {
        ((6, 3, 4, 2), 257): Fraction(97, 48),  # narrow-h2: 3*8 + 3*49/6 over 3*8
        ((6, 2, 3, 3), 7): Fraction(61, 16),  # coop-h3-p7: 2*2 + 4*45/16 over 2*2
        ((5, 1, 4, 1), 257): Fraction(41, 8),  # wide-s4: 8 + 4*33/4 over 8
    }

    @pytest.mark.parametrize("case", list(DISK_PER_INPUT), ids=["6342-p257", "6233-p7", "5141-p257"])
    def test_bytes_on_disk_per_input_byte(self, tmp_path, case):
        # three whole stripes of kN m-bit message symbols: no padding is stored
        (n, k, d, h), p = case
        stripe_bits = code.validate_params(n, k, d, h, p=p).message_length * storage.bits_per_symbol(p)
        data = np.random.default_rng(p).integers(0, 256, size=3 * stripe_bits // 8,
                                                 dtype=np.uint8).tobytes()
        src, store = tmp_path / "in.bin", tmp_path / "s"
        src.write_bytes(data)
        assert run_cli("encode", "--n", n, "--k", k, "--d", d, "--h", h, "--p", p,
                       "--input", src, "--out", store) == 0
        manifest = Manifest.load(store)
        assert manifest.stripe_count == 3
        header, systematic, parity = self.sizes(case[0], p, 3 * manifest.params().N)
        chunks = [(store / f"node{i}.mscr").read_bytes() for i in range(n)]
        disk = sum(map(len, chunks))
        assert disk == n * header + k * systematic + (n - k) * parity
        assert Fraction(disk - n * header, len(data)) == self.DISK_PER_INPUT[case]
        if p > 255:  # a systematic body is the node's message bytes, stripe after stripe
            per_node = manifest.params().N
            for i in range(k):
                assert chunks[i][header:] == b"".join(
                    data[st * k * per_node + i * per_node:][:per_node] for st in range(3))

    @pytest.mark.parametrize("argv", [
        ("verify",), ("decode", "--out", "x.bin"), ("repair", "--helpers", "2,3"),
    ], ids=["verify", "decode", "repair"])
    def test_store_in_another_format_rejected(self, encoded_dir, capsys, argv):
        tmp_path, store, _ = encoded_dir
        path = store / "manifest.json"
        data = json.loads(path.read_text())
        data["format"] = 3
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run_cli(argv[0], "--dir", store, *argv[1:]) == 2
        err = capsys.readouterr().err
        assert "format 3" in err and "format 4" in err and "re-encode" in err
        assert not (tmp_path / "x.bin").exists()


class TestGoldenChunks:
    """Pins of every chunk of two fixed encodes: (byte length, sha256).

    A change of the chunk layout must update these on purpose, bump
    storage.FORMAT_VERSION, and say so in CHANGES.md.
    """

    DATA = bytes((7 * i + 3) % 256 for i in range(100))
    PINS = {
        ((4, 1, 2, 2), 5): [
            (168, "a4299d5c356b994d25d7b63af91b683e12c232ffdf912d4dc7fe71bbf7bca968"),
            (186, "fc645e396aa9260dba2480ff897171c1310e88963fc78df9b3e49fcf516b978b"),
            (186, "ef6f39c97735391638fdaa1d15a1c19c6128bd14baec3e4ea78b6b1824f73c9e"),
            (186, "0c7d28dd7b99a96d5273576fe623f6320b8f332e7eb048b437e34cd1c2a81759"),
        ],
        ((6, 3, 4, 2), 257): [
            (260, "dea061191e0697871f6bac4000410ba336b9097f81741e2a9803ce1530adc9c9"),
            (260, "c277f064cb3fd8444d5e008283f27084161b976fa2f34d0bce9a5807accc1f02"),
            (260, "986676a6fd571c2a7ed42f33328364488075e8e8a959604ae165ae3b5c233f8e"),
            (264, "87b582710abce8c60699cbc160717901aebc95d60c0985255fb6c931d6282b0f"),
            (264, "d2f469c736ac35476e942cea0413e184b5d4e9955eb8be5a5482d0bdd9e68f8e"),
            (264, "d298badf63fea77f6b05a37a87babbf836cae9b4df358c508f5281f87e67175e"),
        ],
    }

    @pytest.mark.parametrize("case", list(PINS), ids=["4122-p5", "6342-p257"])
    def test_pinned_chunks(self, tmp_path, case):
        (n, k, d, h), p = case
        src = tmp_path / "in.bin"
        src.write_bytes(self.DATA)
        store = tmp_path / "s"
        assert run_cli("encode", "--n", n, "--k", k, "--d", d, "--h", h, "--p", p,
                       "--input", src, "--out", store) == 0
        got = []
        for i in range(n):
            raw = (store / f"node{i}.mscr").read_bytes()
            got.append((len(raw), hashlib.sha256(raw).hexdigest()))
        assert got == self.PINS[case]


class TestGoldenRepair:
    """Pins of the repair outputs of three fixed stores: (byte length, sha256)
    of the transcript and of the CSV, and the printed `gamma total` line.

    A restored chunk is checked against its digest, but nothing else pins a
    transcript's payload values or message order.  A change of the repair
    maps must update these on purpose and say so in CHANGES.md.
    """

    # (n, k, d, h), p -> (failed, helpers, transcript pin, CSV pin, gamma total line)
    PINS = {
        ((4, 1, 2, 2), 5): (
            "0,1", "2,3",
            (492, "0bc5890765ecd1c37094443365cfc812f06c5cfd39f151f1e9ade9eb9cf6bddf"),
            (181, "5680de2150873e985cf04527902b4e2fcd7d2b0dbe620f626ee00737eb3ddb6f"),
            "  gamma total                   : 864 symbols",
        ),
        ((6, 3, 4, 2), 257): (
            "1,4", "0,2,3,5",
            (2736, "702c573dd6d99894ffc4a3a0bf79c373de36b9dab2d81b5dab6c91b4d3af07a3"),
            (187, "938102b866240c27dadc02b814a2395f7b6ab50ff56e57318fd9e13bc44fd3ae"),
            "  gamma total                   : 640 symbols",
        ),
        ((6, 2, 3, 3), 7): (
            "0,3,5", "1,2,4",
            (4113, "32e20928bc2799c135842eb95f36dfba27d376f6b9877e4cf07cc4562394661a"),
            (187, "3b3f7c2520be2937911fac157f7f9fda7da820034ac2990fe48ad77e05ef6302"),
            "  gamma total                   : 960 symbols",
        ),
    }

    @pytest.mark.parametrize("case", list(PINS), ids=["4122-p5", "6342-p257", "6233-p7"])
    def test_pinned_repair(self, tmp_path, capsys, case):
        (n, k, d, h), p = case
        failed, helpers, transcript_pin, csv_pin, gamma_line = self.PINS[case]
        src, store, csv = tmp_path / "in.bin", tmp_path / "s", tmp_path / "m.csv"
        src.write_bytes(TestGoldenChunks.DATA)
        assert run_cli("encode", "--n", n, "--k", k, "--d", d, "--h", h, "--p", p,
                       "--input", src, "--out", store) == 0
        assert run_cli("fail", "--dir", store, "--nodes", failed) == 0
        capsys.readouterr()
        assert run_cli("repair", "--dir", store, "--helpers", helpers, "--csv", csv) == 0
        out = capsys.readouterr().out

        def pin(path):
            raw = path.read_bytes()
            return len(raw), hashlib.sha256(raw).hexdigest()

        got = (pin(store / "transcript.txt"), pin(csv),
               next(line for line in out.splitlines() if "gamma total" in line))
        assert got == (transcript_pin, csv_pin, gamma_line)


class TestBenchmarkContract:
    """perfbench/tracer.py wraps cli.run_repair and derives the traced gamma and
    helper-access totals from one call per stripe and each call's transcript.
    A change to that shape has to change the benchmark first."""

    def test_traced_names_exist(self):
        # the tracer leaves a missing name untraced, and its metrics read 0
        from mscr import metrics, oracle, repair
        names = [(cli, "cmd_encode"), (cli, "cmd_repair"), (cli, "cmd_verify"),
                 (cli, "cmd_decode"), (cli, "run_repair"), (repair, "matrix_inverse"),
                 (code, "encode"), (storage, "pack_bytes"), (storage, "unpack_symbols"),
                 (storage, "read_chunk"), (storage, "write_chunk"), (storage, "encode_file"),
                 (storage, "decode_file"), (oracle, "recount")]
        for module, name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
        assert isinstance(metrics.RepairMetrics.__dict__.get("from_run"), classmethod)

    def test_one_run_repair_call_per_stripe(self, tmp_path, monkeypatch):
        store = tmp_path / "store"
        assert run_cli("encode", "--n", 4, "--k", 1, "--d", 2, "--h", 2,
                       "--random-bytes", 40, "--seed", 1, "--out", store) == 0
        assert run_cli("fail", "--dir", store, "--nodes", "0,1") == 0
        results = []
        real = cli.run_repair

        def counting(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_repair", counting)
        assert run_cli("repair", "--dir", store, "--helpers", "2,3") == 0
        stripes = Manifest.load(store).stripe_count
        assert stripes >= 3
        assert len(results) == stripes
        for result in results:
            transcript = result[1]
            assert isinstance(transcript, RepairTranscript)
            assert sum(m.count for m in transcript.messages) == 96
            assert {m.phase for m in transcript.messages} == {"download", "cooperative"}
            assert sorted(transcript.access_logs) == [2, 3]
            assert [log.count() for log in transcript.access_logs.values()] == [44, 44]


    def test_chunk_reads_and_writes_name_their_paths(self, tmp_path, monkeypatch):
        # storage.bytes_read and bytes_written are the sizes of the paths
        # passed first to read_chunk (once per chunk opened) and write_chunk
        # (once per chunk committed); encode_file and decode_file are looked
        # up through storage
        store = tmp_path / "store"
        calls = {name: [] for name in ("read_chunk", "write_chunk", "encode_file", "decode_file")}
        for name, log in calls.items():
            def recording(*args, _real=getattr(storage, name), _log=log):
                _log.append(args[0])
                return _real(*args)
            monkeypatch.setattr(storage, name, recording)

        def stage(*argv):
            for log in calls.values():
                log.clear()
            assert run_cli(*argv) == 0
            return ([Path(p) for p in calls["read_chunk"]], [Path(p) for p in calls["write_chunk"]],
                    len(calls["encode_file"]) + len(calls["decode_file"]))

        def node(*nodes):
            return [store / f"node{i}.mscr" for i in nodes]

        assert stage("encode", "--n", 6, "--k", 3, "--d", 4, "--h", 2, "--p", 257,
                     "--random-bytes", 5000, "--out", store) == ([], node(*range(6)), 1)
        assert run_cli("fail", "--dir", store, "--nodes", "1,4") == 0
        assert stage("repair", "--dir", store, "--helpers", "0,2,3,5") == (
            node(0, 2, 3, 5), node(1, 4), 0)
        assert stage("verify", "--dir", store) == (node(*range(6)), [], 0)
        assert stage("decode", "--dir", store, "--out", tmp_path / "a.bin") == (node(0, 1, 2), [], 1)
        assert stage("decode", "--dir", store, "--out", tmp_path / "b.bin",
                     "--nodes", "3,4,5") == (node(3, 4, 5), [], 1)
        assert all(path.is_file() for path in node(*range(6)))


class TestOutputsOutsideTheStore:
    """decode --out, repair --transcript and repair --csv may not name the
    manifest, a chunk or a quarantined chunk: the command exits 2 before
    anything is written."""

    @pytest.mark.parametrize("name", ["node2.mscr", "manifest.json"])
    def test_decode_out_refused(self, encoded_dir, capsys, name):
        _, store, _ = encoded_dir
        before = snapshot(store)
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", store / name) == 2
        assert f"--out {store / name} is a file of the store" in capsys.readouterr().err
        assert snapshot(store) == before
        assert run_cli("verify", "--dir", store) == 0

    def test_symbolic_link_to_a_chunk_refused(self, encoded_dir, capsys):
        tmp_path, store, _ = encoded_dir
        link = tmp_path / "link.bin"
        link.symlink_to(store / "node3.mscr")
        before = snapshot(store)
        assert run_cli("decode", "--dir", store, "--out", link, "--nodes", "0") == 2
        assert "is a file of the store" in capsys.readouterr().err
        assert snapshot(store) == before

    @pytest.mark.parametrize("option,name", [
        ("--transcript", "node3.mscr"), ("--transcript", "node0.mscr.failed"),
        ("--csv", "manifest.json"), ("--csv", "node1.mscr"),
    ])
    def test_repair_output_refused(self, encoded_dir, capsys, option, name):
        _, store, _ = encoded_dir
        assert run_cli("fail", "--dir", store, "--nodes", "0,1") == 0
        before = snapshot(store)
        capsys.readouterr()
        assert run_cli("repair", "--dir", store, "--helpers", "2,3", option, store / name) == 2
        captured = capsys.readouterr()
        assert f"{option} {store / name} is a file of the store" in captured.err
        assert captured.out == "" and snapshot(store) == before

    @pytest.mark.parametrize("transcript", [True, False], ids=["given", "default"])
    def test_repair_csv_and_transcript_in_one_file_refused(self, encoded_dir, capsys,
                                                           transcript):
        # the CSV, written second, would replace the transcript it names
        tmp_path, store = encoded_dir[:2]
        out = tmp_path / "out.txt" if transcript else store / "transcript.txt"
        assert run_cli("fail", "--dir", store, "--nodes", "0,1") == 0
        before = snapshot(store)
        capsys.readouterr()
        given = ("--transcript", out) if transcript else ()
        assert run_cli("repair", "--dir", store, "--helpers", "2,3", *given, "--csv", out) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --csv {out} and --transcript {out} name one file; " \
                               "nothing written\n"
        assert captured.out == "" and snapshot(store) == before and not out.exists()

    @pytest.mark.parametrize("option", ["--transcript", "--csv"])
    def test_repair_output_named_like_a_temporary_file(self, encoded_dir, capsys, option):
        # a restored chunk is written to a fresh temporary name, so an output
        # given the name a temporary chunk file might have cannot replace it
        _, store, _ = encoded_dir
        assert run_cli("fail", "--dir", store, "--nodes", "0,1") == 0
        out = store / ".node1.mscr.tmp"
        assert run_cli("repair", "--dir", store, "--helpers", "2,3", option, out) == 0
        assert out.is_file()
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 0


class TestFailedStreamsLeaveNothing:
    """A command that fails after some blocks were written leaves no
    temporary file, and the store byte for byte as it was."""

    @pytest.fixture()
    def store(self, tmp_path, monkeypatch):
        # 20000 bytes are 35 stripes of 576, walked in five blocks of 8
        monkeypatch.setattr(storage, "BLOCK_SYMBOLS", 1)
        src = tmp_path / "input.bin"
        src.write_bytes(np.random.default_rng(3).integers(0, 256, size=20000,
                                                          dtype=np.uint8).tobytes())
        store = tmp_path / "store"
        assert run_cli("encode", "--n", 6, "--k", 3, "--d", 4, "--h", 2, "--p", 257,
                       "--input", src, "--out", store) == 0
        assert Manifest.load(store).stripe_count == 35
        return tmp_path, store

    def test_encode(self, store, fail_halfway, capsys):
        tmp_path, store = store
        before = snapshot(store)
        fail_halfway()
        # the store itself is refused before anything is written; a new
        # directory is written halfway, then removed
        for out, error in ((store, f"error: --out {store} already holds a store"),
                           (tmp_path / "new", "error: [Errno 28] No space")):
            assert run_cli("encode", "--n", 6, "--k", 3, "--d", 4, "--h", 2, "--p", 257,
                           "--input", tmp_path / "input.bin", "--out", out) == 2
            assert error in capsys.readouterr().err
        assert snapshot(store) == before and not (tmp_path / "new").exists()

    def test_repair_with_a_faulty_stripe(self, store, monkeypatch, capsys):
        # one wrong symbol in stripe 27, in the fourth of the five blocks
        tmp_path, store = store
        assert run_cli("fail", "--dir", store, "--nodes", "1,4") == 0
        before = snapshot(store)
        real, seen = cli.run_repair, []

        def faulty(job, surviving):
            repaired, transcript = real(job, surviving)
            first = sum(seen)  # the batch holds stripes first, first + 1, ...
            seen.append(len(next(iter(surviving.values()))))
            if first <= 27 < sum(seen):
                repaired[4] = repaired[4].copy()
                repaired[4][27 - first, 0] = (repaired[4][27 - first, 0] + 1) % job.params.p
            return repaired, transcript

        monkeypatch.setattr(cli, "run_repair", faulty)
        capsys.readouterr()
        assert run_cli("repair", "--dir", store, "--helpers", "0,2,3,5") == 2
        assert capsys.readouterr().err == (
            "error: node 4: restored chunk fails checksum verification; nothing written\n")
        assert sum(seen) == 35 and snapshot(store) == before

    def test_repair_refuses_a_systematic_symbol_past_the_message_width(self, store, monkeypatch,
                                                                        capsys):
        # systematic node 1 stores 8-bit message symbols: a repaired value of
        # 2^8 + v would be stored as v, which a right v makes pass the checksum
        tmp_path, store = store
        assert run_cli("fail", "--dir", store, "--nodes", "1,4") == 0
        before = snapshot(store)
        real, seen = cli.run_repair, []

        def faulty(job, surviving):
            repaired, transcript = real(job, surviving)
            first = sum(seen)  # the batch holds stripes first, first + 1, ...
            seen.append(len(next(iter(surviving.values()))))
            if first <= 27 < sum(seen):
                repaired[1] = repaired[1].copy()
                repaired[1][27 - first, 0] += 256
            return repaired, transcript

        monkeypatch.setattr(cli, "run_repair", faulty)
        capsys.readouterr()
        assert run_cli("repair", "--dir", store, "--helpers", "0,2,3,5") == 2
        assert capsys.readouterr().err == "error: node 1: chunk symbols must lie in [0,256)\n"
        # the walk stops with the block holding stripes 24-31
        assert sum(seen) == 32 and snapshot(store) == before

    def test_repair(self, store, fail_halfway, capsys):
        tmp_path, store = store
        assert run_cli("fail", "--dir", store, "--nodes", "1,4") == 0
        before = snapshot(store)
        fail_halfway()
        assert run_cli("repair", "--dir", store, "--helpers", "0,2,3,5") == 2
        assert "error: [Errno 28] No space" in capsys.readouterr().err
        assert snapshot(store) == before

    @pytest.mark.parametrize("fault", ["solver", "write", "solver-past-width"])
    def test_decode(self, store, fail_halfway, monkeypatch, capsys, fault):
        # an earlier output keeps its bytes; stripe 33 lies in the last block
        tmp_path, store = store
        out = tmp_path / "out.bin"
        out.write_bytes(b"an earlier output")
        if fault.startswith("solver"):
            real = code.solve_erased
            # "solver-past-width" solves node 0's first symbol of stripe 33
            # as p - 1 = 256, past its 8-bit message width: its low 8 bits, 0,
            # are not the file's byte 33 kN = 19008
            assert (tmp_path / "input.bin").read_bytes()[19008] != 0

            def faulty(params, cols, erased):
                real(params, cols, erased)
                if len(cols[erased[0]]) == 3:
                    wrong = params.p - 1 if fault == "solver-past-width" else \
                        (cols[erased[0]][1, 0, 0] + 1) % params.p
                    cols[erased[0]][1, 0, 0] = wrong

            # exactly k columns get no parity sweep: the output's digest refuses it
            monkeypatch.setattr(code, "solve_erased", faulty)
            expected = ("error: the decoded 20000 bytes do not match manifest field "
                        "'original_sha256'\n")
        else:
            fail_halfway()
            expected = "error: [Errno 28] No space"
        before = snapshot(store)
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", out, "--nodes", "3,4,5") == 2
        assert capsys.readouterr().err.startswith(expected)
        assert out.read_bytes() == b"an earlier output"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["input.bin", "out.bin", "store"]
        assert snapshot(store) == before


class TestParitySweepRunsWhereACheckCanFail:
    """code.failing_checks runs only where a check can fail: in erase_decode
    when more than k columns are given (with exactly k, the solve uses every
    check), and in verify once per block."""

    @pytest.fixture()
    def sweeps(self, monkeypatch):
        real, calls = code.failing_checks, []

        def counting(params, cols):
            calls.append(1)
            return real(params, cols)

        for module in (code, cli):  # cli holds the name it imported
            monkeypatch.setattr(module, "failing_checks", counting)
        return calls

    def test_erase_decode(self, sweeps):
        params = code.validate_params(6, 3, 4, 2, p=257)
        message = np.random.default_rng(4).integers(0, 256, size=3 * params.message_length)
        arr = code.encode(params, message)
        for given, count in (((1, 4, 5), 0), ((0, 1, 4, 5), 1)):
            sweeps.clear()
            assert np.array_equal(code.erase_decode(params, {i: arr[i] for i in given}), arr)
            assert len(sweeps) == count, given

    def test_decode_and_verify(self, tmp_path, monkeypatch, sweeps):
        # 20000 bytes are 35 stripes of 576, walked in five blocks of 8
        monkeypatch.setattr(storage, "BLOCK_SYMBOLS", 1)
        store, out = tmp_path / "store", tmp_path / "out.bin"
        assert run_cli("encode", "--n", 6, "--k", 3, "--d", 4, "--h", 2, "--p", 257,
                       "--random-bytes", 20000, "--out", store) == 0
        assert Manifest.load(store).stripe_count == 35
        assert run_cli("decode", "--dir", store, "--out", out, "--nodes", "3,4,5") == 0
        assert out.read_bytes() == (store / "source.bin").read_bytes() and sweeps == []
        assert run_cli("verify", "--dir", store) == 0
        assert len(sweeps) == 5


class TestTableAndParams:
    def test_table_output(self, capsys):
        assert run_cli("table") == 0
        out = capsys.readouterr().out
        for fragment in ("0.9167", "0.7778", "0.6625", "0.5733", "0.5040",
                         "0.9688", "0.8815", "0.7891", "0.7074", "0.6383"):
            assert fragment in out
        # envelope and optimal columns, spot rows
        for fragment in ("1.0000", "0.6667", "0.6875", "0.3750"):
            assert fragment in out

    def test_table_csv_and_extra(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        assert run_cli("table", "--extra", "6,2", "--csv", csv) == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 12  # header + 10 + 1 extra
        assert lines[1].startswith("1,2,11/12,0.9167")
        assert lines[-1].startswith("6,2,")

    def test_table_csv_write_is_crash_safe(self, tmp_path, fail_halfway, capsys):
        csv = tmp_path / "t.csv"
        csv.write_text("old\n")
        fail_halfway()
        assert run_cli("table", "--csv", csv) == 2
        assert "error: [Errno 28] No space" in capsys.readouterr().err
        assert csv.read_text() == "old\n" and list(tmp_path.iterdir()) == [csv]

    @pytest.mark.parametrize("extra", ["1", "1,x", "6,2;1,2,3"])
    def test_table_malformed_extra_row_named(self, tmp_path, capsys, extra):
        csv = tmp_path / "t.csv"
        assert run_cli("table", "--extra", extra, "--csv", csv) == 2
        captured = capsys.readouterr()
        bad = extra.split(";")[-1]
        assert captured.out == ""
        assert captured.err == (f"error: --extra row {bad!r} is not two integers dk,h; "
                                'give rows as "dk,h;dk,h"\n')
        assert not csv.exists()

    def test_params_check(self, capsys):
        assert run_cli("params-check", "--n", 4, "--k", 1, "--d", 2, "--h", 2, "--p", 5) == 0
        out = capsys.readouterr().out
        assert "N=(d-k+h)*s^n=48" in out
        assert "cooperative=96" in out
        assert "44" in out  # per-helper access N*G

    def test_params_check_rejects(self, capsys):
        assert run_cli("params-check", "--n", 4, "--k", 1, "--d", 4, "--h", 2) == 2
        assert "d <= n-1" in capsys.readouterr().err

    def test_params_check_refuses_a_large_prime_at_once(self, monkeypatch, capsys):
        # a 61-bit prime is refused by its width, before a primality test
        # that would not finish
        real = code.is_prime

        def small_only(p):
            assert p < 2**16, f"is_prime({p}) was called"
            return real(p)

        monkeypatch.setattr(code, "is_prime", small_only)
        assert run_cli("params-check", "--n", 6, "--k", 3, "--d", 4, "--h", 2,
                       "--p", 2**61 - 1) == 2
        assert capsys.readouterr().err == (f"error: field modulus p={2**61 - 1} exceeds the "
                                           "supported 16-bit symbol width\n")


class TestConfigFile:
    def test_params_from_config_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "k": 1, "d": 2, "h": 2, "p": 5}))
        assert run_cli("params-check", "--config", cfg) == 0
        assert "p=5" in capsys.readouterr().out
        # the flag overrides the config value
        assert run_cli("params-check", "--config", cfg, "--p", 7) == 0
        assert "p=7" in capsys.readouterr().out

    def test_encode_with_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "k": 1, "d": 2, "h": 2,
                                   "random_bytes": 64, "seed": 1}))
        store = tmp_path / "s"
        assert run_cli("encode", "--config", cfg, "--out", store) == 0
        assert Manifest.load(store).original_length == 64

    def test_whole_experiment_from_config(self, tmp_path):
        store = tmp_path / "s"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 4, "k": 1, "d": 2, "h": 2, "p": 5,
            "random_bytes": 256, "seed": 9,
            "out": str(store), "dir": str(store),
            "nodes": [2, 3], "helpers": [0, 1],
        }))
        assert run_cli("encode", "--config", cfg) == 0
        assert run_cli("fail", "--config", cfg) == 0
        assert Manifest.load(store).failed == [2, 3]
        assert run_cli("repair", "--config", cfg) == 0
        assert Manifest.load(store).failed == []
        out = tmp_path / "roundtrip.bin"
        assert run_cli("decode", "--config", cfg, "--out", out) == 0
        assert out.read_bytes() == (store / "source.bin").read_bytes()

    def test_config_array_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"n": 4}]))
        store = tmp_path / "s"
        assert run_cli("encode", "--config", cfg, "--out", store) == 2
        assert capsys.readouterr().err == f"error: config {cfg} must hold a JSON object\n"
        assert not store.exists()

    @pytest.mark.parametrize("key", ["sed", "config", "func"])
    def test_unknown_key_refused(self, tmp_path, capsys, key):
        # "sed" for "seed" once encoded seed-0 data without a word
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "k": 1, "d": 2, "h": 2, "random_bytes": 64, key: 5}))
        store = tmp_path / "s"
        assert run_cli("encode", "--config", cfg, "--out", store) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config {cfg}: key {key!r} is not an option of any command\n"
        assert not store.exists()

    @pytest.mark.parametrize("argv,config,key,want", [
        (("params-check",), {"n": 4, "k": 1, "d": 2, "h": 2, "p": 5.9}, "p", "an integer"),
        (("params-check",), {"n": 4, "k": 1, "d": 2, "h": True, "p": 5}, "h", "an integer"),
        (("params-check",), {"n": 4, "k": 1, "d": 2, "h": 2, "p": "5"}, "p", "an integer"),
        (("encode", "--out", "s"), {"n": 4, "k": 1, "d": 2, "h": 2, "random_bytes": 64.9,
                                    "seed": 1}, "random_bytes", "an integer"),
        (("encode", "--out", "s"), {"n": 4, "k": 1, "d": 2, "h": 2, "random_bytes": 64,
                                    "seed": True}, "seed", "an integer"),
        (("fail", "--nodes", "1,2"), {"dir": 5}, "dir", "a string"),
        (("fail", "--dir", "s"), {"nodes": [1.7, 4]}, "nodes", "a string or a list of integers"),
        (("fail", "--dir", "s"), {"nodes": [True, 4]}, "nodes", "a string or a list of integers"),
        (("repair", "--dir", "s"), {"helpers": 3}, "helpers", "a string or a list of integers"),
    ], ids=["float-p", "bool-h", "string-p", "float-random-bytes", "bool-seed", "number-dir",
            "float-node", "bool-node", "number-helpers"])
    def test_value_of_another_type_refused(self, tmp_path, capsys, argv, config, key, want):
        # a value is never truncated or coerced: "p": 5.9 once ran with p=5,
        # and "nodes": [1.7, 4] quarantined node 1
        store = tmp_path / "s"
        assert run_cli("encode", "--n", 4, "--k", 1, "--d", 2, "--h", 2,
                       "--random-bytes", 100, "--out", store) == 0
        before = snapshot(store)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        argv = [str(store) if a == "s" else a for a in argv]
        assert run_cli(*argv, "--config", cfg) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: config {cfg}: key {key!r} must be {want}, "
                                f"got {config[key]!r}\n")
        assert snapshot(store) == before

    def test_null_leaves_an_option_unset(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "k": 1, "d": 2, "h": 2, "p": None}))
        assert run_cli("params-check", "--config", cfg) == 0
        assert "p=5" in capsys.readouterr().out

    def test_every_option_of_every_command_is_a_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 4, "k": 1, "d": 2, "h": 2, "p": 5, "input": "data.bin", "random_bytes": 10,
            "seed": 1, "out": "s", "dir": "s", "nodes": "2,3", "helpers": "0,1",
            "transcript": "t.txt", "csv": "m.csv", "extra": "1,2"}))
        assert run_cli("params-check", "--config", cfg) == 0
        assert "p=5" in capsys.readouterr().out

    @pytest.mark.parametrize("raw", [b"\x82{", b"{not JSON"], ids=["bytes", "text"])
    def test_undecodable_config_named(self, tmp_path, capsys, raw):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(raw)
        assert run_cli("params-check", "--config", cfg) == 2
        assert capsys.readouterr().err.startswith(f"error: config {cfg}: not JSON: ")

    def test_missing_required_after_config(self, tmp_path, capsys):
        assert run_cli("fail", "--nodes", "0,1") == 2
        assert "missing required option --dir" in capsys.readouterr().err


class TestEveryFailurePattern:
    def test_roundtrip_all_failure_helper_choices(self, tmp_path):
        data = bytes(range(96))
        src = tmp_path / "in.bin"
        src.write_bytes(data)
        from itertools import combinations

        for failed in combinations(range(4), 2):
            helpers = ",".join(str(i) for i in range(4) if i not in failed)
            store = tmp_path / f"s{failed[0]}{failed[1]}"
            assert run_cli("encode", "--n", 4, "--k", 1, "--d", 2, "--h", 2,
                           "--input", src, "--out", store) == 0
            assert run_cli("fail", "--dir", store,
                           "--nodes", f"{failed[0]},{failed[1]}") == 0
            assert run_cli("repair", "--dir", store, "--helpers", helpers) == 0
            out = store / "out.bin"
            assert run_cli("decode", "--dir", store, "--out", out) == 0
            assert out.read_bytes() == data


class TestModuleEntryPoint:
    """`python -m mscr`, the command the benchmark starts, in a process of its own."""

    @staticmethod
    def mscr(*argv):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "mscr", *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        return proc.stdout

    def test_lifecycle(self, tmp_path):
        shape = ("--n", 4, "--k", 1, "--d", 2, "--h", 2, "--p", 5)
        assert "N=(d-k+h)*s^n=48 symbols/node" in self.mscr("params-check", *shape)
        store = tmp_path / "store"
        assert "into 4 chunks (9 stripe(s)" in self.mscr("encode", *shape, "--random-bytes",
                                                         100, "--out", store)
        self.mscr("fail", "--dir", store, "--nodes", "0,1")
        # the total the benchmark reads: 96 symbols per stripe, 9 stripes
        found = re.search(r"gamma total\s*:\s*(\d+)",
                          self.mscr("repair", "--dir", store, "--helpers", "2,3"))
        assert found and int(found.group(1)) == 96 * 9
