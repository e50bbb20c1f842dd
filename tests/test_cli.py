import json

import numpy as np
import pytest

from mscr.cli import main
from mscr.oracle import recount
from mscr.storage import Manifest, read_chunk, sha256_file, write_chunk


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
        header, symbols = read_chunk(path, manifest.chunks["2"]["sha256"])
        pos = stripe * params.N + 7
        symbols[pos] = (symbols[pos] + 1) % params.p
        write_chunk(path, header, symbols)
        manifest.chunks["2"]["sha256"] = sha256_file(path)
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
        tmp_path, store, _ = store6
        self.flip_bit(store / "node0.mscr")
        out = tmp_path / "out.bin"
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", out) == 2
        assert "node 0" in capsys.readouterr().err
        assert not out.exists()

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

    def test_decode_ignores_corrupt_chunk_it_does_not_read(self, store6, capsys):
        tmp_path, store, data = store6
        self.flip_bit(store / "node5.mscr")
        out = tmp_path / "out.bin"
        capsys.readouterr()
        assert run_cli("decode", "--dir", store, "--out", out) == 0
        assert "from nodes [0, 1, 2]" in capsys.readouterr().out
        assert out.read_bytes() == data

    def test_decode_rejects_out_of_range_node(self, encoded_dir, capsys):
        tmp_path, store, _ = encoded_dir
        assert run_cli("decode", "--dir", store, "--out", tmp_path / "x",
                       "--nodes", "0,9") == 2
        assert "node 9 out of range" in capsys.readouterr().err


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
