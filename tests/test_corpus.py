"""Same-outputs corpus: seeded CLI lifecycles of three shapes, pinned.

Each case drives cli.main in process, with storage.BLOCK_SYMBOLS at its
floor of 8 stripes so every store is walked in several blocks:
params-check, encode, fail, a second fail (refused), verify while nodes are
failed, repair with --csv and --transcript, verify, decode from the default
nodes and from the parity nodes; then three damaged copies of the repaired
store: a flipped body bit in a systematic chunk (verify, decode), a
truncated parity chunk (verify, decode from parity), and a manifest with
one mu too many (every command exits 2).

Every step pins its exit code, the (byte length, sha256) of its stdout,
its stderr, with the temporary directory shown as <tmp> in both, and the
(byte length, sha256) of every file it wrote, or None for a file it
removed.  A change that alters any output of these commands must update
the pins on purpose and say so in CHANGES.md.
"""

import hashlib
import json
import shutil

import numpy as np
import pytest

from mscr import cli, storage

# name -> (n, k, d, h), p, input bytes, failed nodes, helpers, parity nodes
SHAPES = {
    "narrow-h2": ((6, 3, 4, 2), 257, 10000, "1,4", "0,2,3,5", "3,4,5"),
    "coop-h3-p7": ((6, 2, 3, 3), 7, 3000, "0,3,5", "1,2,4", "2,3,4,5"),
    "wide-s4": ((5, 1, 4, 1), 257, 36000, "2", "0,1,3,4", "1,2,3,4"),
}


def pin(data: bytes):
    return len(data), hashlib.sha256(data).hexdigest()


def files(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def lifecycle(tmp_path, capsys, shape):
    """[(step, exit code, stdout, stderr, {file: pin or None})] of one shape."""
    (n, k, d, h), p, size, failed, helpers, parity = SHAPES[shape]
    data = np.random.default_rng(size).integers(0, 256, size=size, dtype=np.uint8).tobytes()
    (tmp_path / "in.bin").write_bytes(data)
    store = tmp_path / "store"
    steps = []

    def run(step, *argv):
        before = files(tmp_path)
        capsys.readouterr()
        rc = cli.main([str(a) for a in argv])
        out, err = (text.replace(str(tmp_path), "<tmp>") for text in capsys.readouterr())
        after = files(tmp_path)
        written = {name: pin(raw) for name, raw in sorted(after.items())
                   if before.get(name) != raw}
        written.update((name, None) for name in sorted(before) if name not in after)
        steps.append((step, rc, out, err, written))

    shape_args = ("--n", n, "--k", k, "--d", d, "--h", h, "--p", p)
    run("params-check", "params-check", *shape_args)
    run("encode", "encode", *shape_args, "--input", tmp_path / "in.bin", "--out", store)
    run("fail", "fail", "--dir", store, "--nodes", failed)
    run("fail again", "fail", "--dir", store, "--nodes", failed)
    run("verify failed", "verify", "--dir", store)
    run("repair", "repair", "--dir", store, "--helpers", helpers,
        "--csv", tmp_path / "metrics.csv", "--transcript", tmp_path / "transcript.txt")
    run("verify", "verify", "--dir", store)
    run("decode", "decode", "--dir", store, "--out", tmp_path / "sys.bin")
    run("decode parity", "decode", "--dir", store, "--nodes", parity,
        "--out", tmp_path / "parity.bin")

    flipped = shutil.copytree(store, tmp_path / "flipped")
    chunk = flipped / storage.chunk_name(0)
    raw = bytearray(chunk.read_bytes())
    raw[-1] ^= 1
    chunk.write_bytes(raw)
    run("flipped: verify", "verify", "--dir", flipped)
    run("flipped: decode", "decode", "--dir", flipped, "--out", tmp_path / "flipped.bin")

    truncated = shutil.copytree(store, tmp_path / "truncated")
    chunk = truncated / storage.chunk_name(n - 1)
    chunk.write_bytes(chunk.read_bytes()[:-1])
    run("truncated: verify", "verify", "--dir", truncated)
    run("truncated: decode parity", "decode", "--dir", truncated, "--nodes", parity,
        "--out", tmp_path / "truncated.bin")

    extra_mu = shutil.copytree(store, tmp_path / "extra-mu")
    manifest = json.loads((extra_mu / storage.MANIFEST_NAME).read_text())
    manifest["mus"].append(max(manifest["mus"]) + 1)
    (extra_mu / storage.MANIFEST_NAME).write_text(json.dumps(manifest))
    run("extra mu: verify", "verify", "--dir", extra_mu)
    run("extra mu: decode", "decode", "--dir", extra_mu, "--out", tmp_path / "extra.bin")
    run("extra mu: fail", "fail", "--dir", extra_mu, "--nodes", failed)
    run("extra mu: repair", "repair", "--dir", extra_mu, "--helpers", helpers)
    return steps


# computed by the code of commit 988d003
PINS = {
    "narrow-h2": [
        ("params-check", 0, (274, "1bced3d48bbec8358f01ee078b5614565fd805fd00af1505d3cb9c82977562a4"),
         "", {}),
        ("encode", 0, (74, "4a4595f57b567f18a04e27dd7704cdc384ce55437f298c6db19a6d25bb440804"),
         "", {
             "store/manifest.json": (1124, "86151813d1960d790f48ee20f6ddae4e1232388d65dd8942f76c89c719608af4"),
             "store/node0.mscr": (3524, "c59f27afe0569bace3b79eb967e9b452283028604f9d3adb6c0341f9ec55c46e"),
             "store/node1.mscr": (3524, "43f7c9d4943919b474ec1566c4f88e104cabffc60069540a515f9a434c5577f8"),
             "store/node2.mscr": (3524, "3d045622112c8cd1044ac8a03239694cc59fb50e9e2098245831dc76c4c79c9d"),
             "store/node3.mscr": (3956, "e28bd1612bbc819f5ad24960bbe933bd170df004321e4446613fbbd2bcf74ce2"),
             "store/node4.mscr": (3956, "b4dab4d7f2cac8052c01db5dc59fa861635d8cc6d86b6fb98744759833df962f"),
             "store/node5.mscr": (3956, "5855ec07bbbfb5a291e05273587516c4c8831a3a1ebf675916648fee769075a5"),
         }),
        ("fail", 0, (25, "6161bcb9b2c47f89dcfa34b8610496a43af9c9d569da278a2468e2d464ff84f9"),
         "", {
             "store/manifest.json": (1140, "e76a8fd9c50cbf6caabc6e762d1d58ca30a278249b66b3082d215c1d0bf2b671"),
             "store/node1.mscr.failed": (3524, "43f7c9d4943919b474ec1566c4f88e104cabffc60069540a515f9a434c5577f8"),
             "store/node4.mscr.failed": (3956, "b4dab4d7f2cac8052c01db5dc59fa861635d8cc6d86b6fb98744759833df962f"),
             "store/node1.mscr": None,
             "store/node4.mscr": None,
         }),
        ("fail again", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: nodes [1, 4] are already failed; repair them first\n", {}),
        ("verify failed", 0, (181, "6b488c43ee70c511b10ad11dc60b69a28d19439fd5a98a459a0a7e660d9517e0"),
         "", {}),
        ("repair", 0, (701, "562c0b2c02de4bbca356658ccf736e944597561d4f7b3398acc4688a85677ebe"),
         "", {
             "metrics.csv": (192, "4f394db79f1175e4c34ca50e4009a19e65f01567f9b0c6c3bde73d5d64804e7e"),
             "store/manifest.json": (1124, "86151813d1960d790f48ee20f6ddae4e1232388d65dd8942f76c89c719608af4"),
             "store/node1.mscr": (3524, "43f7c9d4943919b474ec1566c4f88e104cabffc60069540a515f9a434c5577f8"),
             "store/node4.mscr": (3956, "b4dab4d7f2cac8052c01db5dc59fa861635d8cc6d86b6fb98744759833df962f"),
             "transcript.txt": (2736, "e41c9272b946d9f4ccad03589dce59a3654f73befbb783b180b81a6774f7dd5e"),
             "store/node1.mscr.failed": None,
             "store/node4.mscr.failed": None,
         }),
        ("verify", 0, (165, "c7405b77b93d912bbb2bb8ca31ab091de9e882f95c48008cd1b04f5c2d6565bb"),
         "", {}),
        ("decode", 0, (58, "2d004063e9441da038b46db5e2c5bfe7ec515d0d9fab1d063efa08583f24b1cb"),
         "", {
             "sys.bin": (10000, "2c9fe22d4e6e0c3a7ea3d5c2bf38a639ae13b953ecba9e504513edb8ba3c0e8e"),
         }),
        ("decode parity", 0, (61, "5f20e7d3b76bcb77e78d2d14a75ed716f0a08345b4c74f9b8ae902847eb62af9"),
         "", {
             "parity.bin": (10000, "2c9fe22d4e6e0c3a7ea3d5c2bf38a639ae13b953ecba9e504513edb8ba3c0e8e"),
         }),
        ("flipped: verify", 1, (143, "dafee7d32bbbfe89b3f86c30290acbacddfdc724b3b3faf2a6c8d13c2b769011"),
         "PROBLEM: node 0: checksum mismatch\n", {}),
        ("flipped: decode", 0, (62, "d3735a9ea0f8b3b7b1ffe2aa3402be8ae12c20f985b1c62466ec41d7db8be92c"),
         "skipped node 0: checksum mismatch\n", {
             "flipped.bin": (10000, "2c9fe22d4e6e0c3a7ea3d5c2bf38a639ae13b953ecba9e504513edb8ba3c0e8e"),
         }),
        ("truncated: verify", 1, (143, "2763b1f992874d4edd3686f668cf5ff4a7d65e831934738f4f850d9320806269"),
         "PROBLEM: node 5: checksum mismatch\n", {}),
        ("truncated: decode parity", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "skipped node 5: checksum mismatch\nerror: need k=3 verified chunks, only 2 of nodes [3, 4, 5] verify; bad nodes [5]\n", {}),
        ("extra mu: verify", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: need s-1=1 mu points, got 2\n", {}),
        ("extra mu: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: need s-1=1 mu points, got 2\n", {}),
        ("extra mu: fail", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: need s-1=1 mu points, got 2\n", {}),
        ("extra mu: repair", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: need s-1=1 mu points, got 2\n", {}),
    ],
    "coop-h3-p7": [
        ("params-check", 0, (272, "7586a78f7d6842222a68402fcce507f66e67c782b5f17cae3052f0ea2d96d65e"),
         "", {}),
        ("encode", 0, (71, "b28296e18ae95e78ba7b1ef09a3c0c6855525718e0234ac19490d89dae16e7cb"),
         "", {
             "store/manifest.json": (1121, "b9c18f77fd7bea46e589cf9cbf23516610ca9a9d5a6ce8dbfab7c9f0e35245f3"),
             "store/node0.mscr": (1604, "d7f04c0e8ba7e9a09d14f2016c20d37cb082537f5fb3160323c86cd46805cec9"),
             "store/node1.mscr": (1604, "6d709e74602f5bc736cff9d3ea7a2f362bbd0fe22e6a3cfc51d9db2d84ee2225"),
             "store/node2.mscr": (2372, "1fa0516ddabc555518d2fb2b106de6a4248d87d7754613639ff3af889766bacf"),
             "store/node3.mscr": (2372, "e4e01b4be405069581cf4ba99515bb45a0d6c7dc59e91017b5a920b31b9b71f2"),
             "store/node4.mscr": (2372, "8eca9a05fb901ecd2dcd9460baa19591b01e1893f4fad41b86779212828d9120"),
             "store/node5.mscr": (2372, "cfa89d187b9a197eb9c1700905bdce59100dda899db8070503a9e83f8890e878"),
         }),
        ("fail", 0, (28, "9499d939aa8da4e4de21b2350a6201e470f0a272571e07d161ab8aa66d7857ef"),
         "", {
             "store/manifest.json": (1144, "9297f6c6af996dc613ec8f57b61debc9c186c8100e4f98469a6a6d1ed94a7acb"),
             "store/node0.mscr.failed": (1604, "d7f04c0e8ba7e9a09d14f2016c20d37cb082537f5fb3160323c86cd46805cec9"),
             "store/node3.mscr.failed": (2372, "e4e01b4be405069581cf4ba99515bb45a0d6c7dc59e91017b5a920b31b9b71f2"),
             "store/node5.mscr.failed": (2372, "cfa89d187b9a197eb9c1700905bdce59100dda899db8070503a9e83f8890e878"),
             "store/node0.mscr": None,
             "store/node3.mscr": None,
             "store/node5.mscr": None,
         }),
        ("fail again", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: nodes [0, 3, 5] are already failed; repair them first\n", {}),
        ("verify failed", 0, (190, "d172e1abde8acf7f74d42b8acafd411c5908e09bbedd3d331f10841305c4308e"),
         "", {}),
        ("repair", 0, (699, "b61715269f898b473591afdb910946f3705c9b8595ecbd845641d81fea75a8e0"),
         "", {
             "metrics.csv": (192, "1791a7cd65ecba0380497605ee39fc32e7e11c1ed91887b1029d1956bfc51391"),
             "store/manifest.json": (1121, "b9c18f77fd7bea46e589cf9cbf23516610ca9a9d5a6ce8dbfab7c9f0e35245f3"),
             "store/node0.mscr": (1604, "d7f04c0e8ba7e9a09d14f2016c20d37cb082537f5fb3160323c86cd46805cec9"),
             "store/node3.mscr": (2372, "e4e01b4be405069581cf4ba99515bb45a0d6c7dc59e91017b5a920b31b9b71f2"),
             "store/node5.mscr": (2372, "cfa89d187b9a197eb9c1700905bdce59100dda899db8070503a9e83f8890e878"),
             "transcript.txt": (4113, "edb10718c39a4e855bcf6cc23a9f76347f2fd8da4ada9db72e497a93cbb86113"),
             "store/node0.mscr.failed": None,
             "store/node3.mscr.failed": None,
             "store/node5.mscr.failed": None,
         }),
        ("verify", 0, (165, "6e125197731c1ac1b1d114527dd6d6803ee115d92bde0a6e8d3f9e6542025d9f"),
         "", {}),
        ("decode", 0, (54, "21f0cd6f1d128f7fa042b75a61b91115b5ee9bd44ddd07c2bf27f5c3e300e325"),
         "", {
             "sys.bin": (3000, "ae003cd6d30e189bd6ba8ca27a3a7198f868de0228252152aa47dc246d588770"),
         }),
        ("decode parity", 0, (57, "48fc5be0a7476039296d8aa4911afe373ef7a558201c4bd3d7762bbd431e7939"),
         "", {
             "parity.bin": (3000, "ae003cd6d30e189bd6ba8ca27a3a7198f868de0228252152aa47dc246d588770"),
         }),
        ("flipped: verify", 1, (143, "dafee7d32bbbfe89b3f86c30290acbacddfdc724b3b3faf2a6c8d13c2b769011"),
         "PROBLEM: node 0: checksum mismatch\n", {}),
        ("flipped: decode", 0, (58, "721c802c20787549f315fa57b5a605b71fe27b65b149a2972fd74e437ec863c9"),
         "skipped node 0: checksum mismatch\n", {
             "flipped.bin": (3000, "ae003cd6d30e189bd6ba8ca27a3a7198f868de0228252152aa47dc246d588770"),
         }),
        ("truncated: verify", 1, (143, "2763b1f992874d4edd3686f668cf5ff4a7d65e831934738f4f850d9320806269"),
         "PROBLEM: node 5: checksum mismatch\n", {}),
        ("truncated: decode parity", 0, (60, "d2653a8d620fcf39d1ac0c59de391d0dd9c9e0606b606f52b84eeb2c03a0c8bd"),
         "", {
             "truncated.bin": (3000, "ae003cd6d30e189bd6ba8ca27a3a7198f868de0228252152aa47dc246d588770"),
         }),
        ("extra mu: verify", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: need s-1=1 mu points, got 2\n", {}),
        ("extra mu: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: need s-1=1 mu points, got 2\n", {}),
        ("extra mu: fail", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: need s-1=1 mu points, got 2\n", {}),
        ("extra mu: repair", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: need s-1=1 mu points, got 2\n", {}),
    ],
    "wide-s4": [
        ("params-check", 0, (282, "e80ad4977318ff953f9191e95d94ea5aa530db4fffba11c0b16d6ff5a4781304"),
         "", {}),
        ("encode", 0, (74, "dea99b7d845ae193a5490e1e3a2137f558229d543a4edc7369fdf9a8c8b2d5aa"),
         "", {
             "store/manifest.json": (1001, "68dc737fdd06c08acfc1c70bdac2db0fe3dcd60ffb5e780e73745d21d43727de"),
             "store/node0.mscr": (36936, "f0318219ccd4c32472ba2333d4e7b8d96f781cb00d02a1b15993e2537dbad696"),
             "store/node1.mscr": (41544, "827039fbf3a858c1479d0986f8b5582f1aeeb790a8e15644f6a1430ce94190fb"),
             "store/node2.mscr": (41544, "1622e2c5576600ef7ec89546d8dff32e63da10139b3446d1f2e688f094cd5a52"),
             "store/node3.mscr": (41544, "b1ab38aaf44d46946b7a7652187eff315445e698dd4bee8b86c8cb8bca3358f1"),
             "store/node4.mscr": (41544, "a34c86a19b485d99d94a568e61fcdc8b90328761f77db2f4d311149732b31b5a"),
         }),
        ("fail", 0, (22, "b0a37c312a9515071b935d5ecd4d5ab926d5ae089fd6779692193043e8baaf2d"),
         "", {
             "store/manifest.json": (1010, "da69b3579f03f77f30c6e8bf0689cc61ef32a37ef0b185282558328df8b50815"),
             "store/node2.mscr.failed": (41544, "1622e2c5576600ef7ec89546d8dff32e63da10139b3446d1f2e688f094cd5a52"),
             "store/node2.mscr": None,
         }),
        ("fail again", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: nodes [2] are already failed; repair them first\n", {}),
        ("verify failed", 0, (152, "5e766eb8addeb56d35092de305def647461b951b00c33b825a784a1a59b28918"),
         "", {}),
        ("repair", 0, (702, "f93107951920d0800afdc1c68857d48126f3fd402dadaa1393def9350370159f"),
         "", {
             "metrics.csv": (197, "e9d58d5704397f7f0d51c53638ea1095dc7fbb90eb9400d06d3808c13b227fca"),
             "store/manifest.json": (1001, "68dc737fdd06c08acfc1c70bdac2db0fe3dcd60ffb5e780e73745d21d43727de"),
             "store/node2.mscr": (41544, "1622e2c5576600ef7ec89546d8dff32e63da10139b3446d1f2e688f094cd5a52"),
             "transcript.txt": (16460, "dc0858512430a4995f2960a7bef9d1367d4a26472a30216c6b7f51e8ef73d167"),
             "store/node2.mscr.failed": None,
         }),
        ("verify", 0, (144, "044a0901489f7085a733b5920a556c720596c6a0a1057af23aa11b1587a4cdc1"),
         "", {}),
        ("decode", 0, (52, "a50256edd7d38db1af3fb48bc74927e8d44a71817a42f2b815a1b8385cd0a246"),
         "", {
             "sys.bin": (36000, "8cacea6c7e5327584b30293fde0de63e069202f06ba6e9a4ae08dad57f135b53"),
         }),
        ("decode parity", 0, (55, "ddc90148e3465a1c3128070f78ce7127358ce61bbc798bac3d227e8d2f864a75"),
         "", {
             "parity.bin": (36000, "8cacea6c7e5327584b30293fde0de63e069202f06ba6e9a4ae08dad57f135b53"),
         }),
        ("flipped: verify", 1, (123, "562ba6b63d155813513514958d041dcccf045482b5e5b7697416b45fdbb029cc"),
         "PROBLEM: node 0: checksum mismatch\n", {}),
        ("flipped: decode", 0, (56, "f30f55216c064ed0f256a5e2133e97106a2264cc332ec168a371bc5ae2fae85c"),
         "skipped node 0: checksum mismatch\n", {
             "flipped.bin": (36000, "8cacea6c7e5327584b30293fde0de63e069202f06ba6e9a4ae08dad57f135b53"),
         }),
        ("truncated: verify", 1, (123, "a770836dbdcced36188229ac03fda859abf595c2ffec645233af7b9e38b0f219"),
         "PROBLEM: node 4: checksum mismatch\n", {}),
        ("truncated: decode parity", 0, (58, "222a73e2ed276504fb19244dd56b5ae2d78c47c3929ac4c99cace461d91f8985"),
         "", {
             "truncated.bin": (36000, "8cacea6c7e5327584b30293fde0de63e069202f06ba6e9a4ae08dad57f135b53"),
         }),
        ("extra mu: verify", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: need s-1=3 mu points, got 4\n", {}),
        ("extra mu: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: need s-1=3 mu points, got 4\n", {}),
        ("extra mu: fail", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: need s-1=3 mu points, got 4\n", {}),
        ("extra mu: repair", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: need s-1=3 mu points, got 4\n", {}),
    ],
}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_same_outputs(tmp_path, capsys, monkeypatch, shape):
    monkeypatch.setattr(storage, "BLOCK_SYMBOLS", 1)  # blocks of 8 stripes
    steps = lifecycle(tmp_path, capsys, shape)
    assert [step[0] for step in steps] == [step[0] for step in PINS[shape]]
    for (step, rc, out, err, written), want in zip(steps, PINS[shape]):
        assert (step, rc, pin(out.encode()), err, written) == want, out
