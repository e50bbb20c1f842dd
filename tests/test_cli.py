import hashlib
import json
import math
import os
import struct

import numpy as np
import pytest

from mscr import cli, storage
from mscr.cli import main
from mscr.oracle import recount
from mscr.repair import RepairTranscript
from mscr.storage import Manifest, chunk_bytes, read_chunk, write_chunk


def run_cli(*argv):
    return main([str(a) for a in argv])


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
        _, store, _ = encoded_dir
        manifest = Manifest.load(store)
        assert sorted(manifest.chunks) == ["0", "1", "2", "3"]
        for entry in manifest.chunks.values():
            assert (store / entry["file"]).exists()
        assert manifest.failed == []
        assert manifest.original_length == 3000

    def test_requires_input_or_random(self, tmp_path, capsys):
        assert run_cli("encode", "--n", 4, "--k", 1, "--d", 2, "--h", 2,
                       "--out", tmp_path / "x") == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_random_bytes_written_to_source(self, tmp_path):
        store = tmp_path / "s"
        assert run_cli("encode", "--n", 4, "--k", 1, "--d", 2, "--h", 2,
                       "--random-bytes", 100, "--seed", 3, "--out", store) == 0
        assert (store / "source.bin").stat().st_size == 100

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

    def test_input_changed_while_read_refused(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "input.bin"
        src.write_bytes(bytes(1000))
        real = storage.encode_file

        def rewritten_meanwhile(fh, length, params):
            result = real(fh, length, params)
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

    def test_refail_rejected(self, encoded_dir, capsys):
        _, store, _ = encoded_dir
        assert run_cli("fail", "--dir", store, "--nodes", "0,1") == 0
        assert run_cli("fail", "--dir", store, "--nodes", "2,3") == 2
        assert "already failed" in capsys.readouterr().err


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

    def test_restored_bytes_identical(self, encoded_dir):
        tmp_path, store, data = encoded_dir
        before = (store / "node0.mscr").read_bytes()
        run_cli("fail", "--dir", store, "--nodes", "0,1")
        assert run_cli("repair", "--dir", store, "--helpers", "2,3") == 0
        assert (store / "node0.mscr").read_bytes() == before

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
        symbols = read_chunk(path, manifest.chunks["2"]["sha256"], params, 2,
                             manifest.stripe_count * params.N)
        pos = stripe * params.N + 7
        symbols[pos] = (symbols[pos] + 1) % params.p
        write_chunk(path, chunk_bytes(params, 2, symbols))
        manifest.chunks["2"]["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest.save(store)
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 1
        problems = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("PROBLEM")]
        assert problems == [f"PROBLEM: stripe {stripe}: parity checks fail"]

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
        assert "PROBLEM: node 2: chunk file for node 2 claims index 3" in captured.err
        assert "error:" not in captured.err
        for i in (0, 1, 3, 4, 5):
            assert f"node {i}: checksum OK" in captured.out
        assert "parity: skipped" in captured.out

    @pytest.mark.parametrize("command", ["verify", "decode"])
    def test_unreadable_chunk_is_a_bad_chunk(self, store6, capsys, command):
        tmp_path, store, data = store6
        (store / "node0.mscr").unlink()
        (store / "node0.mscr").mkdir()
        out = tmp_path / "out.bin"
        capsys.readouterr()
        if command == "verify":
            assert run_cli("verify", "--dir", store) == 1
            assert "PROBLEM: node 0: [Errno 21] Is a directory" in capsys.readouterr().err
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
        assert run_cli("repair", "--dir", store, "--helpers", "0,2,3,5",
                       option, tmp_path / "missing" / "out.txt") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno 2]")
        assert captured.out == ""
        for i in (1, 4):
            assert not (store / f"node{i}.mscr").exists()
            assert (store / f"node{i}.mscr.failed").exists()
        assert (store / "manifest.json").read_bytes() == before

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
        symbols = read_chunk(path, manifest.chunks["4"]["sha256"], params, 4, 40 * params.N)
        pos = 37 * params.N + 100
        symbols[pos] = (symbols[pos] + 1) % params.p
        write_chunk(path, chunk_bytes(params, 4, symbols))
        manifest.chunks["4"]["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest.save(store)
        capsys.readouterr()
        assert run_cli("verify", "--dir", store) == 1
        problems = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("PROBLEM")]
        assert problems == ["PROBLEM: stripe 37: parity checks fail"]
        assert run_cli("decode", "--dir", store, "--out", tmp_path / "o.bin") == 0
        assert (tmp_path / "o.bin").read_bytes() == (store / "source.bin").read_bytes()


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
    @pytest.mark.parametrize("nkdh,p", [((6, 2, 3, 3), 7), ((6, 3, 4, 2), 257)])
    def test_chunk_size_is_header_plus_packed_body(self, tmp_path, nkdh, p):
        n, k, d, h = nkdh
        store = tmp_path / "s"
        assert run_cli("encode", "--n", n, "--k", k, "--d", d, "--h", h, "--p", p,
                       "--random-bytes", 3001, "--out", store) == 0
        manifest = Manifest.load(store)
        payload_len = manifest.stripe_count * manifest.params().N
        w = math.ceil(math.log2(p))
        header = 4 + 9 * 4 + 4 * (n + (d - k + 1) - 1)
        body = payload_len * (w // 8) + (w % 8) * math.ceil(payload_len / 8)
        for i in range(n):
            assert (store / f"node{i}.mscr").stat().st_size == header + body
        # no temporary file is left behind
        assert sorted(f.name for f in store.iterdir()) == sorted(
            ["manifest.json", "source.bin"] + [f"node{i}.mscr" for i in range(n)])

    @pytest.mark.parametrize("argv", [
        ("verify",), ("decode", "--out", "x.bin"), ("repair", "--helpers", "2,3"),
    ], ids=["verify", "decode", "repair"])
    def test_store_in_another_format_rejected(self, encoded_dir, capsys, argv):
        tmp_path, store, _ = encoded_dir
        path = store / "manifest.json"
        data = json.loads(path.read_text())
        data["format"] = 1
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run_cli(argv[0], "--dir", store, *argv[1:]) == 2
        err = capsys.readouterr().err
        assert "format 1" in err and "format 2" in err and "re-encode" in err
        assert not (tmp_path / "x.bin").exists()


class TestGoldenChunks:
    """Pins of every chunk of two fixed encodes: (byte length, sha256).

    A change of the chunk layout must update these on purpose, bump
    storage.FORMAT_VERSION, and say so in CHANGES.md.
    """

    DATA = bytes((7 * i + 3) % 256 for i in range(100))
    PINS = {
        ((4, 1, 2, 2), 5): [
            (222, "f63db31c3b56b6dbc8d8acc5b84caa8258abb94c978a7ba70a60a38959ed880b"),
            (222, "368695a183c4dd3e92cec50f4d60e1018451990563d4d5b218996e80d2197abe"),
            (222, "9f90e5eb9add24735848b98b7f362d828818d1f890ca16347fde7a45f8b34d6d"),
            (222, "32837e285df5122b0a05dcd26115847235e9018bcd7486f21a223efe82919209"),
        ],
        ((6, 3, 4, 2), 257): [
            (284, "ff0f2ce2c24edc7aaa45c860c9d50b5c973ba37a3e23e8b015775bebfaf8a3dc"),
            (284, "6d025c63ca4c1ecf55847029a0f61886202d6232c04cbbddbe71298bf8ae1a90"),
            (284, "795f4253eec90ca8a885196a973e9171de690a84e1a6774b695aa0b31b18916a"),
            (284, "b42967dadf5d9e759623955c28e2a9362c3e6c46b78df440a4e36a6f449789e3"),
            (284, "b2de1e6c949e57e036465ebd8d63da3cc73c805dadf107cdae57609674e1c661"),
            (284, "67547d8fecbc19ec7dab282774dd6b077f099f36d12045a47be6548043445848"),
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


class TestBenchmarkContract:
    """perfbench/tracer.py wraps cli.run_repair and derives the traced gamma and
    helper-access totals from one call per stripe and each call's transcript.
    A change to that shape has to change the benchmark first."""

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

    def test_params_check(self, capsys):
        assert run_cli("params-check", "--n", 4, "--k", 1, "--d", 2, "--h", 2, "--p", 5) == 0
        out = capsys.readouterr().out
        assert "N=(d-k+h)*s^n=48" in out
        assert "cooperative=96" in out
        assert "44" in out  # per-helper access N*G

    def test_params_check_rejects(self, capsys):
        assert run_cli("params-check", "--n", 4, "--k", 1, "--d", 4, "--h", 2) == 2
        assert "d <= n-1" in capsys.readouterr().err


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
