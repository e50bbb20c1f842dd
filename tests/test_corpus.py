"""Same-outputs corpus: seeded CLI lifecycles of three shapes, pinned.

Each case drives cli.main in process, with storage.BLOCK_SYMBOLS at its
floor of 8 stripes so every store is walked in several blocks:
params-check, encode, fail, a second fail (refused), verify while nodes are
failed, repair with --csv and --transcript, verify, decode from the default
nodes and from the parity nodes; then three damaged copies of the repaired
store: a flipped body bit in a systematic chunk (verify, decode), a
truncated parity chunk (verify, decode from parity), and a manifest with
one mu too many (every command exits 2); encode of a seeded --random-bytes
input and table with the shape's own row; then two more damaged copies: a
parity helper whose header node_index is edited behind a re-recorded
digest (verify, decode from parity, fail, repair) and a deleted helper
chunk (verify, decode, fail, repair); then, each behind a re-recorded digest
where a chunk is edited: a parity group value of q^c or more (verify, and
decode from a node list whose spare replaces it mid-file), one symbol moved
to another field element in a systematic and in a parity chunk (verify,
decode through the edited node), original_length shortened and grown within
the recorded stripe count (verify, decode) and an edited chunk digest in the
manifest (verify, decode); last, encode, fail and repair driven by one
--config file.

Every step pins its exit code, the (byte length, sha256) of its stdout,
its stderr, with the temporary directory shown as <tmp> in both, and the
(byte length, sha256) of every file it wrote, or None for a file it
removed.  A change that alters any output of these commands must update
the pins on purpose and say so in CHANGES.md.
"""

import hashlib
import json
import shutil
import struct

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

    run("encode random", "encode", *shape_args, "--random-bytes", size, "--seed", 7,
        "--out", tmp_path / "random")
    run("table", "table", "--extra", f"{d - k},{h}", "--csv", tmp_path / "table.csv")

    # a parity helper's header claims another node; its digest is re-recorded
    edited = max(map(int, helpers.split(",")))
    header = shutil.copytree(store, tmp_path / "header")
    chunk = header / storage.chunk_name(edited)
    raw = bytearray(chunk.read_bytes())
    struct.pack_into("<I", raw, 4 + 4 * 6, (edited + 1) % n)  # header field node_index
    chunk.write_bytes(raw)
    manifest = json.loads((header / storage.MANIFEST_NAME).read_text())
    manifest["chunks"][str(edited)]["sha256"] = hashlib.sha256(raw).hexdigest()
    (header / storage.MANIFEST_NAME).write_text(json.dumps(manifest))
    run("header: verify", "verify", "--dir", header)
    run("header: decode parity", "decode", "--dir", header, "--nodes", parity,
        "--out", tmp_path / "header.bin")
    run("header: fail", "fail", "--dir", header, "--nodes", failed)
    run("header: repair", "repair", "--dir", header, "--helpers", helpers)

    missing = shutil.copytree(store, tmp_path / "missing")
    (missing / storage.chunk_name(min(map(int, helpers.split(","))))).unlink()
    run("missing: verify", "verify", "--dir", missing)
    run("missing: decode", "decode", "--dir", missing, "--out", tmp_path / "missing.bin")
    run("missing: fail", "fail", "--dir", missing, "--nodes", failed)
    run("missing: repair", "repair", "--dir", missing, "--helpers", helpers)

    # a parity group value of q^c or more, read only when its block is: decode
    # opens the k lowest listed nodes, skips this one at its last block and
    # starts again with the spare
    value = shutil.copytree(store, tmp_path / "value")
    rewrite_body(value, k, top_value_on_last_group)
    others = sorted(set(range(n)) - {k})[-k:]
    run("value: verify", "verify", "--dir", value)
    run("value: decode", "decode", "--dir", value, "--nodes", ",".join(map(str, sorted(others + [k]))),
        "--out", tmp_path / "value.bin")

    # one symbol moved to another field element, in a systematic and in a
    # parity chunk; decode reads the edited node with the top parity nodes
    for name, node in (("symbol sys", 0), ("symbol parity", n - 1)):
        edited = shutil.copytree(store, tmp_path / name.replace(" ", "-"))
        rewrite_body(edited, node, bump_one_symbol)
        rest = sorted(set(range(k, n)) - {node})
        nodes = sorted([node] + rest[len(rest) - (k - 1):])
        run(f"{name}: verify", "verify", "--dir", edited)
        run(f"{name}: decode", "decode", "--dir", edited, "--nodes", ",".join(map(str, nodes)),
            "--out", tmp_path / f"{name.replace(' ', '-')}.bin")

    # original_length moved within the stripe count the manifest records
    for name, delta in (("shorter", -5), ("longer", 5)):
        moved = shutil.copytree(store, tmp_path / name)
        manifest = json.loads((moved / storage.MANIFEST_NAME).read_text())
        manifest["original_length"] += delta
        params = storage.Manifest(**manifest).params()  # the stripe count still holds
        assert storage.stripes_for(manifest["original_length"], params) == manifest["stripe_count"]
        (moved / storage.MANIFEST_NAME).write_text(json.dumps(manifest))
        run(f"{name}: verify", "verify", "--dir", moved)
        run(f"{name}: decode", "decode", "--dir", moved, "--out", tmp_path / f"{name}.bin")

    # the manifest records another digest for node 0's intact chunk
    digest = shutil.copytree(store, tmp_path / "digest")
    manifest = json.loads((digest / storage.MANIFEST_NAME).read_text())
    manifest["chunks"]["0"]["sha256"] = hashlib.sha256(b"not node 0").hexdigest()
    (digest / storage.MANIFEST_NAME).write_text(json.dumps(manifest))
    run("digest: verify", "verify", "--dir", digest)
    run("digest: decode", "decode", "--dir", digest, "--out", tmp_path / "digest.bin")

    # one --config file drives encode, fail and repair
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n": n, "k": k, "d": d, "h": h, "p": p, "random_bytes": size // 3, "seed": 11,
        "out": str(tmp_path / "configured"), "dir": str(tmp_path / "configured"),
        "nodes": [int(i) for i in failed.split(",")], "helpers": helpers,
        "transcript": str(tmp_path / "configured.txt")}))
    run("config: encode", "encode", "--config", config)
    run("config: fail", "fail", "--config", config)
    run("config: repair", "repair", "--config", config)
    return steps


def rewrite_body(store, node, edit):
    """Apply edit(values, q, width) in place to the group values of node's chunk in
    store, write the chunk back and re-record its digest in the manifest."""
    manifest = json.loads((store / storage.MANIFEST_NAME).read_text())
    params = storage.Manifest(**manifest).params()
    (c, width), count = storage.node_groups(params, node), manifest["stripe_count"] * params.N
    q = params.p if node >= params.k else 1 << storage.bits_per_symbol(params.p)
    chunk = store / storage.chunk_name(node)
    raw = chunk.read_bytes()
    at = len(raw) - storage.body_length(count // c, width)
    values = storage.unpack_body(raw[at:], width, count // c)
    edit(values, q, width)
    raw = raw[:at] + storage.pack_body(values, width)
    chunk.write_bytes(raw)
    manifest["chunks"][str(node)]["sha256"] = hashlib.sha256(raw).hexdigest()
    (store / storage.MANIFEST_NAME).write_text(json.dumps(manifest))


def top_value_on_last_group(values, q, width):
    """The last group holds 2^width - 1, at least q^c, as width bits can."""
    values[-1] = 2**width - 1


def bump_one_symbol(values, q, width):
    """The lowest symbol of the middle group becomes the next field element."""
    v = int(values[values.size // 2])
    values[values.size // 2] = v - v % q + (v % q + 1) % q


# computed by the code of commit 988d003; the chunk and manifest pins again
# under chunk format 4, which changed no other output; the steps from
# "encode random" on by the code of commit ced7880, and the steps from
# "value: verify" on by the code of commit 571a29c
PINS = {
    "narrow-h2": [
        ("params-check", 0, (274, "1bced3d48bbec8358f01ee078b5614565fd805fd00af1505d3cb9c82977562a4"),
         "", {}),
        ("encode", 0, (74, "4a4595f57b567f18a04e27dd7704cdc384ce55437f298c6db19a6d25bb440804"),
         "", {
             "store/manifest.json": (1124, "9c9a4d7b5a14386947d3801aeb13bc20a39586b9bd28dd08ae9f9e292a222cc8"),
             "store/node0.mscr": (3524, "56dd9c65a9f3259a0a8667c1c037896329186079f87200d44d39b135d5e0f292"),
             "store/node1.mscr": (3524, "b28743f338e8c64612d0dc916ac72e0d74d1b87dec96be213c14cb27ab419f3c"),
             "store/node2.mscr": (3524, "c7a585620a385ac3d70fd2fffad08051d42a53f8fa853c86eacc16119a9d0ef5"),
             "store/node3.mscr": (3596, "9dd2261e4f75329fa425d4add39f90f918603974e156a169e5ee28eb9134de06"),
             "store/node4.mscr": (3596, "4ad8d84a4180765a8131dc717118f7ce1c8084fecb8304ac6e8c2215db00bec8"),
             "store/node5.mscr": (3596, "c5639d38724a88a9444a0a74864ae3c573dcef0e2040762ad4bcfc62f2d08aea"),
         }),
        ("fail", 0, (25, "6161bcb9b2c47f89dcfa34b8610496a43af9c9d569da278a2468e2d464ff84f9"),
         "", {
             "store/manifest.json": (1140, "d80950f63b34612f389688b16073bea8330f1a47842b47a306718f80d3df76d9"),
             "store/node1.mscr.failed": (3524, "b28743f338e8c64612d0dc916ac72e0d74d1b87dec96be213c14cb27ab419f3c"),
             "store/node4.mscr.failed": (3596, "4ad8d84a4180765a8131dc717118f7ce1c8084fecb8304ac6e8c2215db00bec8"),
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
             "store/manifest.json": (1124, "9c9a4d7b5a14386947d3801aeb13bc20a39586b9bd28dd08ae9f9e292a222cc8"),
             "store/node1.mscr": (3524, "b28743f338e8c64612d0dc916ac72e0d74d1b87dec96be213c14cb27ab419f3c"),
             "store/node4.mscr": (3596, "4ad8d84a4180765a8131dc717118f7ce1c8084fecb8304ac6e8c2215db00bec8"),
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
        ("encode random", 0, (123, "bfec686dd0742469eddc710d9c58032f570a66a06e90de4b3d7875a9fff70594"),
         "", {
             "random/manifest.json": (1124, "091021f109cfe35879b66c9effb6f5faa5edf050dc732bf3ccd91b87bce25d44"),
             "random/node0.mscr": (3524, "b5b5b8c7c3b67753094b4054ca1e4411ae7670ff4a3f8de7d1fea59bbab72e77"),
             "random/node1.mscr": (3524, "0776bea8cb72127f3b3601df98e36e1c4b251e942ba47b4adc78eb9e654879d8"),
             "random/node2.mscr": (3524, "34c801d390fbd956e09f19c1bc2abba309e7a05a8f97f956707590a4b89be40c"),
             "random/node3.mscr": (3596, "418eca866396812f8113d4a6495ac75016310884cdc1a63eb28394f25bc47254"),
             "random/node4.mscr": (3596, "44939f64dbcf84e289a2d1a0299c14b853eca77fc2b32c1170cb2f320091845d"),
             "random/node5.mscr": (3596, "28af14958cb61c1a76ebe5edb727a86581118edcee87d9532aa26b0508503cc7"),
             "random/source.bin": (10000, "bdfc70b4d4b9cec8deebcd9c091074604ddabe3da52bf2f2a0519871af46408c"),
         }),
        ("table", 0, (895, "3734cec6c1131876c25559ad143f9a424861dba1b9dee52cb688a21e17cf4aef"),
         "", {
             "table.csv": (502, "566bfbd856c9bd1a9297c61263cbd6a293ec0643619dce32db37d1609b82fcb4"),
         }),
        ("header: verify", 1, (143, "2763b1f992874d4edd3686f668cf5ff4a7d65e831934738f4f850d9320806269"),
         "PROBLEM: node 5: <tmp>/header/node5.mscr: header is not the one written for node 5 of this code and payload length\n", {}),
        ("header: decode parity", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "skipped node 5: <tmp>/header/node5.mscr: header is not the one written for node 5 of this code and payload length\nerror: need k=3 verified chunks, only 2 of nodes [3, 4, 5] verify; bad nodes [5]\n", {}),
        ("header: fail", 0, (25, "6161bcb9b2c47f89dcfa34b8610496a43af9c9d569da278a2468e2d464ff84f9"),
         "", {
             "header/manifest.json": (1140, "ff9695ac12b4086e31ee7c0d1c75b9fca9d79f39e5bd96cf28910b43b44cf733"),
             "header/node1.mscr.failed": (3524, "b28743f338e8c64612d0dc916ac72e0d74d1b87dec96be213c14cb27ab419f3c"),
             "header/node4.mscr.failed": (3596, "4ad8d84a4180765a8131dc717118f7ce1c8084fecb8304ac6e8c2215db00bec8"),
             "header/node1.mscr": None,
             "header/node4.mscr": None,
         }),
        ("header: repair", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: node 5: <tmp>/header/node5.mscr: header is not the one written for node 5 of this code and payload length\n", {}),
        ("missing: verify", 1, (143, "dafee7d32bbbfe89b3f86c30290acbacddfdc724b3b3faf2a6c8d13c2b769011"),
         "PROBLEM: node 0: chunk missing at <tmp>/missing/node0.mscr\n", {}),
        ("missing: decode", 0, (62, "a70d2a7d4fd528fc421106f3a69bbdea0f81d4049157440e07fd400a6cd47960"),
         "skipped node 0: chunk missing at <tmp>/missing/node0.mscr\n", {
             "missing.bin": (10000, "2c9fe22d4e6e0c3a7ea3d5c2bf38a639ae13b953ecba9e504513edb8ba3c0e8e"),
         }),
        ("missing: fail", 0, (25, "6161bcb9b2c47f89dcfa34b8610496a43af9c9d569da278a2468e2d464ff84f9"),
         "", {
             "missing/manifest.json": (1140, "d80950f63b34612f389688b16073bea8330f1a47842b47a306718f80d3df76d9"),
             "missing/node1.mscr.failed": (3524, "b28743f338e8c64612d0dc916ac72e0d74d1b87dec96be213c14cb27ab419f3c"),
             "missing/node4.mscr.failed": (3596, "4ad8d84a4180765a8131dc717118f7ce1c8084fecb8304ac6e8c2215db00bec8"),
             "missing/node1.mscr": None,
             "missing/node4.mscr": None,
         }),
        ("missing: repair", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: node 0: chunk missing at <tmp>/missing/node0.mscr\n", {}),
        ("value: verify", 1, (159, "fb0a94cce082ca1c354037aafed68289de9994c755b1265d7796fa71dcab6703"),
         "PROBLEM: node 3: <tmp>/value/node3.mscr: symbol out of field range\n", {}),
        ("value: decode", 0, (60, "94ce7eb176aaa27dcb82a91502e893a2f4c18747639631447fb5101ddbeaba08"),
         "skipped node 3: <tmp>/value/node3.mscr: symbol out of field range\n", {
             "value.bin": (10000, "2c9fe22d4e6e0c3a7ea3d5c2bf38a639ae13b953ecba9e504513edb8ba3c0e8e"),
         }),
        ("symbol sys: verify", 1, (120, "0001296ec10271670f189f588ee83a53b69f7c5dd7664418a5caba2a48eaadbe"),
         "PROBLEM: stripe 9: parity checks fail\nPROBLEM: manifest: the decoded 10000 bytes do not match manifest field 'original_sha256'\n", {}),
        ("symbol sys: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: the decoded 10000 bytes do not match manifest field 'original_sha256'\n", {}),
        ("symbol parity: verify", 1, (120, "0001296ec10271670f189f588ee83a53b69f7c5dd7664418a5caba2a48eaadbe"),
         "PROBLEM: stripe 9: parity checks fail\n", {}),
        ("symbol parity: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: the decoded 10000 bytes do not match manifest field 'original_sha256'\n", {}),
        ("shorter: verify", 1, (165, "c7405b77b93d912bbb2bb8ca31ab091de9e882f95c48008cd1b04f5c2d6565bb"),
         "PROBLEM: manifest: the last stripe's message has set bits past original_length = 9995 bytes, which encode pads with zeros\n", {}),
        ("shorter: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: the last stripe's message has set bits past original_length = 9995 bytes, which encode pads with zeros\n", {}),
        ("longer: verify", 1, (165, "c7405b77b93d912bbb2bb8ca31ab091de9e882f95c48008cd1b04f5c2d6565bb"),
         "PROBLEM: manifest: the decoded 10005 bytes do not match manifest field 'original_sha256'\n", {}),
        ("longer: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: the decoded 10005 bytes do not match manifest field 'original_sha256'\n", {}),
        ("digest: verify", 1, (143, "dafee7d32bbbfe89b3f86c30290acbacddfdc724b3b3faf2a6c8d13c2b769011"),
         "PROBLEM: node 0: checksum mismatch\n", {}),
        ("digest: decode", 0, (61, "fa487349a1a898bfd1313d376fa945593f0d58f688b9bcd60ac18da6630cee42"),
         "skipped node 0: checksum mismatch\n", {
             "digest.bin": (10000, "2c9fe22d4e6e0c3a7ea3d5c2bf38a639ae13b953ecba9e504513edb8ba3c0e8e"),
         }),
        ("config: encode", 0, (125, "bf083341d45a4b77942c05066b5b61074291e02493f40b8540e90dac9d333fa0"),
         "", {
             "configured/manifest.json": (1122, "85daea51dc65a054157cf5e915b74e4e7c2a99eb54a907afa809374439fc1365"),
             "configured/node0.mscr": (1220, "6afaf9bbed67f779625fa50f4edef4733772577138cb759c260dbd8fc3cb5e7f"),
             "configured/node1.mscr": (1220, "6293cd4de2edc685338e5e1c735e59c5fd734c1c4de524373502a248ef337ac0"),
             "configured/node2.mscr": (1220, "983db357555c88b4732eb2c6b474962eb3ddec720c0602d9e697f35b1996fd79"),
             "configured/node3.mscr": (1244, "69779ecede88e2edd51eb9ea79aa0b1f9f44c354360ff60945543e0d22b763b4"),
             "configured/node4.mscr": (1244, "0290c3a3c49e3ca0b2b0e0734b12c224dcc9a26d5d9184ca4a6d2c8948a07938"),
             "configured/node5.mscr": (1244, "b744ed99a2bc7bd8e1bf076d55c822a7f4e24b2e9cdce7024f48cedfc98be9ac"),
             "configured/source.bin": (3333, "1c39a3f8613a38b8316e324144e188d76f74183c0fe49e7c53867afe20adfda5"),
         }),
        ("config: fail", 0, (25, "6161bcb9b2c47f89dcfa34b8610496a43af9c9d569da278a2468e2d464ff84f9"),
         "", {
             "configured/manifest.json": (1138, "e3676e7ff825194be54f711da9094e4681b20fcab47b93225e5fc93730fb6b4e"),
             "configured/node1.mscr.failed": (1220, "6293cd4de2edc685338e5e1c735e59c5fd734c1c4de524373502a248ef337ac0"),
             "configured/node4.mscr.failed": (1244, "0290c3a3c49e3ca0b2b0e0734b12c224dcc9a26d5d9184ca4a6d2c8948a07938"),
             "configured/node1.mscr": None,
             "configured/node4.mscr": None,
         }),
        ("config: repair", 0, (698, "ac445720acdf54d0fc01df40ee5407c29bf0d388c237a420970e55017f97c0dc"),
         "", {
             "configured.txt": (2736, "151077c869aee302188cdac839e40b5cb6578b24652d27ae32fa1bc08cd6593e"),
             "configured/manifest.json": (1122, "85daea51dc65a054157cf5e915b74e4e7c2a99eb54a907afa809374439fc1365"),
             "configured/node1.mscr": (1220, "6293cd4de2edc685338e5e1c735e59c5fd734c1c4de524373502a248ef337ac0"),
             "configured/node4.mscr": (1244, "0290c3a3c49e3ca0b2b0e0734b12c224dcc9a26d5d9184ca4a6d2c8948a07938"),
             "configured/node1.mscr.failed": None,
             "configured/node4.mscr.failed": None,
         }),
    ],
    "coop-h3-p7": [
        ("params-check", 0, (272, "7586a78f7d6842222a68402fcce507f66e67c782b5f17cae3052f0ea2d96d65e"),
         "", {}),
        ("encode", 0, (71, "b28296e18ae95e78ba7b1ef09a3c0c6855525718e0234ac19490d89dae16e7cb"),
         "", {
             "store/manifest.json": (1121, "9647cc432b0238f0fbc0cc8fc59fb1ac1962474a179e56af438ca38f1f7fddbd"),
             "store/node0.mscr": (1604, "9789b0da145660eb522372dd5c8cc4d311f969bdcee0adf401958dcb8df1b684"),
             "store/node1.mscr": (1604, "61263a19ba8a1ef16f5cd0ae14cc867183759bac4c8268de9c371c9e7a34fa18"),
             "store/node2.mscr": (2228, "3cfa2ae0e67c1dce85cfa9d5624fd0cca0b77345fbde342fddfa7f5179fcafe0"),
             "store/node3.mscr": (2228, "92723647bac4cb35676aacf85c9bb8228542057fcffb290b2d7adf73e0eb448a"),
             "store/node4.mscr": (2228, "93ef4e61920c9e9ba804f9ef3571fdaea2d8b6a94bff8acb76f6734c50fa3093"),
             "store/node5.mscr": (2228, "7c456e895adade0d9a6d48dd0078167ba20f2d5939a33c662b621f62d1f4a259"),
         }),
        ("fail", 0, (28, "9499d939aa8da4e4de21b2350a6201e470f0a272571e07d161ab8aa66d7857ef"),
         "", {
             "store/manifest.json": (1144, "7fb7b374f1c01e8461447a426ecaa1f78fd380301dc714a2f29805558b833ee7"),
             "store/node0.mscr.failed": (1604, "9789b0da145660eb522372dd5c8cc4d311f969bdcee0adf401958dcb8df1b684"),
             "store/node3.mscr.failed": (2228, "92723647bac4cb35676aacf85c9bb8228542057fcffb290b2d7adf73e0eb448a"),
             "store/node5.mscr.failed": (2228, "7c456e895adade0d9a6d48dd0078167ba20f2d5939a33c662b621f62d1f4a259"),
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
             "store/manifest.json": (1121, "9647cc432b0238f0fbc0cc8fc59fb1ac1962474a179e56af438ca38f1f7fddbd"),
             "store/node0.mscr": (1604, "9789b0da145660eb522372dd5c8cc4d311f969bdcee0adf401958dcb8df1b684"),
             "store/node3.mscr": (2228, "92723647bac4cb35676aacf85c9bb8228542057fcffb290b2d7adf73e0eb448a"),
             "store/node5.mscr": (2228, "7c456e895adade0d9a6d48dd0078167ba20f2d5939a33c662b621f62d1f4a259"),
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
        ("encode random", 0, (120, "a470242928c79ab0c5de67fc8c9d2b0abbe8302b48a2145732ea459c693796cd"),
         "", {
             "random/manifest.json": (1121, "8579c1852733f6e6c660836fa59a86dde15f8ab3ccffd919fd117d5c9acdeb7e"),
             "random/node0.mscr": (1604, "5dbe6733081aff47e223504191809228ea31eab4a8d9d127bf530d6600b60142"),
             "random/node1.mscr": (1604, "ab2672416208ac589417d69db3ab20793d63f508bc403daf54f92e71c08142a4"),
             "random/node2.mscr": (2228, "868c1b3c0dbc3db167608b7573d4cafcfe4571cb67d9b9af42c62ffd192ac08a"),
             "random/node3.mscr": (2228, "c7a1f14fb657bcbfa91d5ceb4551a6564e472e7cbda712e06564b907b1741b4c"),
             "random/node4.mscr": (2228, "5a3f5f4738ae7aa7d5e5480ed7224069341616e977cb64aaf757576a5128303b"),
             "random/node5.mscr": (2228, "368ba29bb91554d570aab6c9d8402a5ba5685a8d5c8008572abf93d9a69b7262"),
             "random/source.bin": (3000, "68ca1f6e30123c5841c26fa8e98730d70d87d75d80462ba833148803a18a370c"),
         }),
        ("table", 0, (895, "e978e2c3b2d981d07698db8589f0fce1f772659b83b43736715ac415235dcaee"),
         "", {
             "table.csv": (504, "e6c09fe300da3d0671dfeb9cc9de60ea1794e4db5aa7e76eeed7aa57be1ae8d1"),
         }),
        ("header: verify", 1, (143, "4f843189724fe43bd3838a858cbc9712dc2a6196f89c9627b7f88e1371b209a7"),
         "PROBLEM: node 4: <tmp>/header/node4.mscr: header is not the one written for node 4 of this code and payload length\n", {}),
        ("header: decode parity", 0, (57, "863aa872131178f069d0963692242ccb177f652ba67dfe8857e84ffd69a9d3d7"),
         "", {
             "header.bin": (3000, "ae003cd6d30e189bd6ba8ca27a3a7198f868de0228252152aa47dc246d588770"),
         }),
        ("header: fail", 0, (28, "9499d939aa8da4e4de21b2350a6201e470f0a272571e07d161ab8aa66d7857ef"),
         "", {
             "header/manifest.json": (1144, "a05a8f7abecd327c3686b1580f1312841d7075bc297f05289f94e8f8fc7a321e"),
             "header/node0.mscr.failed": (1604, "9789b0da145660eb522372dd5c8cc4d311f969bdcee0adf401958dcb8df1b684"),
             "header/node3.mscr.failed": (2228, "92723647bac4cb35676aacf85c9bb8228542057fcffb290b2d7adf73e0eb448a"),
             "header/node5.mscr.failed": (2228, "7c456e895adade0d9a6d48dd0078167ba20f2d5939a33c662b621f62d1f4a259"),
             "header/node0.mscr": None,
             "header/node3.mscr": None,
             "header/node5.mscr": None,
         }),
        ("header: repair", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: node 4: <tmp>/header/node4.mscr: header is not the one written for node 4 of this code and payload length\n", {}),
        ("missing: verify", 1, (143, "1ce1e6eb5289284b9ab89f95fee0f28e6e7325242152c216499f836bfa83fbc0"),
         "PROBLEM: node 1: chunk missing at <tmp>/missing/node1.mscr\n", {}),
        ("missing: decode", 0, (58, "35adfa80d1b0ddd092c4c4bdbef823100a8b2d1fe04a208e02111f232558cdbe"),
         "skipped node 1: chunk missing at <tmp>/missing/node1.mscr\n", {
             "missing.bin": (3000, "ae003cd6d30e189bd6ba8ca27a3a7198f868de0228252152aa47dc246d588770"),
         }),
        ("missing: fail", 0, (28, "9499d939aa8da4e4de21b2350a6201e470f0a272571e07d161ab8aa66d7857ef"),
         "", {
             "missing/manifest.json": (1144, "7fb7b374f1c01e8461447a426ecaa1f78fd380301dc714a2f29805558b833ee7"),
             "missing/node0.mscr.failed": (1604, "9789b0da145660eb522372dd5c8cc4d311f969bdcee0adf401958dcb8df1b684"),
             "missing/node3.mscr.failed": (2228, "92723647bac4cb35676aacf85c9bb8228542057fcffb290b2d7adf73e0eb448a"),
             "missing/node5.mscr.failed": (2228, "7c456e895adade0d9a6d48dd0078167ba20f2d5939a33c662b621f62d1f4a259"),
             "missing/node0.mscr": None,
             "missing/node3.mscr": None,
             "missing/node5.mscr": None,
         }),
        ("missing: repair", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: node 1: chunk missing at <tmp>/missing/node1.mscr\n", {}),
        ("value: verify", 1, (159, "f06b2bc3be4f1c902196dea713ab55b9202523d347d15d45b8627995df56c1a1"),
         "PROBLEM: node 2: <tmp>/value/node2.mscr: symbol out of field range\n", {}),
        ("value: decode", 0, (56, "c4c780508c18bc26d9659a77d4b93a787d6537bfa8ee92eeb8779e2be56b7a52"),
         "skipped node 2: <tmp>/value/node2.mscr: symbol out of field range\n", {
             "value.bin": (3000, "ae003cd6d30e189bd6ba8ca27a3a7198f868de0228252152aa47dc246d588770"),
         }),
        ("symbol sys: verify", 1, (120, "0001296ec10271670f189f588ee83a53b69f7c5dd7664418a5caba2a48eaadbe"),
         "PROBLEM: stripe 12: parity checks fail\nPROBLEM: manifest: the decoded 3000 bytes do not match manifest field 'original_sha256'\n", {}),
        ("symbol sys: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: the decoded 3000 bytes do not match manifest field 'original_sha256'\n", {}),
        ("symbol parity: verify", 1, (120, "0001296ec10271670f189f588ee83a53b69f7c5dd7664418a5caba2a48eaadbe"),
         "PROBLEM: stripe 12: parity checks fail\n", {}),
        ("symbol parity: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: the decoded 3000 bytes do not match manifest field 'original_sha256'\n", {}),
        ("shorter: verify", 1, (165, "6e125197731c1ac1b1d114527dd6d6803ee115d92bde0a6e8d3f9e6542025d9f"),
         "PROBLEM: manifest: the last stripe's message has set bits past original_length = 2995 bytes, which encode pads with zeros\n", {}),
        ("shorter: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: the last stripe's message has set bits past original_length = 2995 bytes, which encode pads with zeros\n", {}),
        ("longer: verify", 1, (165, "6e125197731c1ac1b1d114527dd6d6803ee115d92bde0a6e8d3f9e6542025d9f"),
         "PROBLEM: manifest: the decoded 3005 bytes do not match manifest field 'original_sha256'\n", {}),
        ("longer: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: the decoded 3005 bytes do not match manifest field 'original_sha256'\n", {}),
        ("digest: verify", 1, (143, "dafee7d32bbbfe89b3f86c30290acbacddfdc724b3b3faf2a6c8d13c2b769011"),
         "PROBLEM: node 0: checksum mismatch\n", {}),
        ("digest: decode", 0, (57, "418f2b6b74f5bf0581d095199f111feac04877dfc46283978afc9b33415b7e44"),
         "skipped node 0: checksum mismatch\n", {
             "digest.bin": (3000, "ae003cd6d30e189bd6ba8ca27a3a7198f868de0228252152aa47dc246d588770"),
         }),
        ("config: encode", 0, (123, "3086ebe888dde8bbc70833fd5735eddf8b037b7689fc441f7bcdfaff5d16837c"),
         "", {
             "configured/manifest.json": (1120, "6a8f221880fedfa96d1f34945971525ccc8ddaa11fdcb28baeb8b0f45c209cac"),
             "configured/node0.mscr": (580, "7fc792289254cb5734aa23bf266a596378c9bf11ac0572ed9875d8b3bf317835"),
             "configured/node1.mscr": (580, "4a25e39491de24a30b553824114fb130d25331b5454feb54d9b91d77f691efca"),
             "configured/node2.mscr": (788, "5c707977d8515ed45cbd66e9fc91ba661172d4ba20830921452172cfc29da94e"),
             "configured/node3.mscr": (788, "bb6dfa7880af8d7105aa1b693b08b5a4a782fa23dcf61be402d7f1911e9f5261"),
             "configured/node4.mscr": (788, "c6d3b1a9cad4731abb39fc87fc0c77124e9754b8cd33bb03cdc1429e346fa3c7"),
             "configured/node5.mscr": (788, "57b45bb683574e2c27f7a20ee6fab1e77017ee70797a068f250dcbe748ebda43"),
             "configured/source.bin": (1000, "3cc4a0b4dc76e1fe0ee167e1cf711425bf26004193a276b71893c5da45ae0b2a"),
         }),
        ("config: fail", 0, (28, "9499d939aa8da4e4de21b2350a6201e470f0a272571e07d161ab8aa66d7857ef"),
         "", {
             "configured/manifest.json": (1143, "56ff3e636474541d86663f8ea6ae620a021e0097d56e274450470ce7e0175fab"),
             "configured/node0.mscr.failed": (580, "7fc792289254cb5734aa23bf266a596378c9bf11ac0572ed9875d8b3bf317835"),
             "configured/node3.mscr.failed": (788, "bb6dfa7880af8d7105aa1b693b08b5a4a782fa23dcf61be402d7f1911e9f5261"),
             "configured/node5.mscr.failed": (788, "57b45bb683574e2c27f7a20ee6fab1e77017ee70797a068f250dcbe748ebda43"),
             "configured/node0.mscr": None,
             "configured/node3.mscr": None,
             "configured/node5.mscr": None,
         }),
        ("config: repair", 0, (696, "d83e64730fb396f4c5109650e42c91d6594f64d074bc7c6c97a89494993dd5df"),
         "", {
             "configured.txt": (4113, "e0de33ebbf9a87d12340c7b93258a2df492419f509e2b329cd7602de025248f3"),
             "configured/manifest.json": (1120, "6a8f221880fedfa96d1f34945971525ccc8ddaa11fdcb28baeb8b0f45c209cac"),
             "configured/node0.mscr": (580, "7fc792289254cb5734aa23bf266a596378c9bf11ac0572ed9875d8b3bf317835"),
             "configured/node3.mscr": (788, "bb6dfa7880af8d7105aa1b693b08b5a4a782fa23dcf61be402d7f1911e9f5261"),
             "configured/node5.mscr": (788, "57b45bb683574e2c27f7a20ee6fab1e77017ee70797a068f250dcbe748ebda43"),
             "configured/node0.mscr.failed": None,
             "configured/node3.mscr.failed": None,
             "configured/node5.mscr.failed": None,
         }),
    ],
    "wide-s4": [
        ("params-check", 0, (282, "e80ad4977318ff953f9191e95d94ea5aa530db4fffba11c0b16d6ff5a4781304"),
         "", {}),
        ("encode", 0, (74, "dea99b7d845ae193a5490e1e3a2137f558229d543a4edc7369fdf9a8c8b2d5aa"),
         "", {
             "store/manifest.json": (1001, "36d95d18b08eee4e1d37dd994796b533fc60cf48ae3669c8475ba6a6eb5931fb"),
             "store/node0.mscr": (36936, "5ad098db4aecf7de61af165505a4da0cb1f0f8a9287b8cbc5d4be83ab365ac32"),
             "store/node1.mscr": (38088, "67e64ccb5b08aa4640fe1274b0926e609e1cd3de6805d4925e7dd2b9d46741e0"),
             "store/node2.mscr": (38088, "82845f12fd3567d1ebf382b5583abd0266e28ea9747f40a20165f942cc3f1a1d"),
             "store/node3.mscr": (38088, "63f34ffa3d8e2d429c9b93a0948cd195857ee79c5d04a1c4ba92446571974fd6"),
             "store/node4.mscr": (38088, "479f67ae9f1cd2b7a5d351a1ad1086f326dfb842d5e444f1e8303a28de8e00ac"),
         }),
        ("fail", 0, (22, "b0a37c312a9515071b935d5ecd4d5ab926d5ae089fd6779692193043e8baaf2d"),
         "", {
             "store/manifest.json": (1010, "f0c82472bb0c798733c41778389880287a54e4559dbd106d59ebc21b92fdf4da"),
             "store/node2.mscr.failed": (38088, "82845f12fd3567d1ebf382b5583abd0266e28ea9747f40a20165f942cc3f1a1d"),
             "store/node2.mscr": None,
         }),
        ("fail again", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: nodes [2] are already failed; repair them first\n", {}),
        ("verify failed", 0, (152, "5e766eb8addeb56d35092de305def647461b951b00c33b825a784a1a59b28918"),
         "", {}),
        ("repair", 0, (702, "f93107951920d0800afdc1c68857d48126f3fd402dadaa1393def9350370159f"),
         "", {
             "metrics.csv": (197, "e9d58d5704397f7f0d51c53638ea1095dc7fbb90eb9400d06d3808c13b227fca"),
             "store/manifest.json": (1001, "36d95d18b08eee4e1d37dd994796b533fc60cf48ae3669c8475ba6a6eb5931fb"),
             "store/node2.mscr": (38088, "82845f12fd3567d1ebf382b5583abd0266e28ea9747f40a20165f942cc3f1a1d"),
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
        ("encode random", 0, (123, "c9e6841bffb5541f807b6deeb15d119e6dbc7e8b7fae47239907f0f0f4492fbb"),
         "", {
             "random/manifest.json": (1001, "27ea6d1cdcdc1a22d20235608dfb5c50f5c15ae9eea21ed3c588e0faabb85da6"),
             "random/node0.mscr": (36936, "9b19c6e7ef307f35e6e3202e4bea9da0ae5728541b4b8c1f4e233317288577ac"),
             "random/node1.mscr": (38088, "b824fdde5b231e1c25264d015faa70a4b9b37203bad8d103e8c86b77a586d9c2"),
             "random/node2.mscr": (38088, "e4c6daa92ec90b3962a3a489676a596f03a430d1b784cff52b0f91379786fbfb"),
             "random/node3.mscr": (38088, "c34b323679118168c8ccf6cf1dd4e23f5842b862a291b74d2e1315c1808c7949"),
             "random/node4.mscr": (38088, "0ed3e9474d45599c78723d4a79df7339d8ee0e1aa3a5175e25020422fd8590b9"),
             "random/source.bin": (36000, "9d3ed88113891f771a38d284e26abad0d9d7369ba9db73ba75dcaa1b11187b21"),
         }),
        ("table", 0, (895, "0563ef710d5c1a18fb18b1675a626d0cd51f1909fc46ed5a53fb10185c2ca722"),
         "", {
             "table.csv": (504, "0ae7943adae978024e7803285d08374cdf34f4661264bb4b38878dcd3d7146d7"),
         }),
        ("header: verify", 1, (123, "a770836dbdcced36188229ac03fda859abf595c2ffec645233af7b9e38b0f219"),
         "PROBLEM: node 4: <tmp>/header/node4.mscr: header is not the one written for node 4 of this code and payload length\n", {}),
        ("header: decode parity", 0, (55, "c51312d504c2e0019c62a4a4181b48320fcd7363a6b58baf51575177361191d9"),
         "", {
             "header.bin": (36000, "8cacea6c7e5327584b30293fde0de63e069202f06ba6e9a4ae08dad57f135b53"),
         }),
        ("header: fail", 0, (22, "b0a37c312a9515071b935d5ecd4d5ab926d5ae089fd6779692193043e8baaf2d"),
         "", {
             "header/manifest.json": (1010, "a490238971c69caab4e2ca2d097289e2fb5bfb746d144d7c333499cd3bbe5047"),
             "header/node2.mscr.failed": (38088, "82845f12fd3567d1ebf382b5583abd0266e28ea9747f40a20165f942cc3f1a1d"),
             "header/node2.mscr": None,
         }),
        ("header: repair", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: node 4: <tmp>/header/node4.mscr: header is not the one written for node 4 of this code and payload length\n", {}),
        ("missing: verify", 1, (123, "562ba6b63d155813513514958d041dcccf045482b5e5b7697416b45fdbb029cc"),
         "PROBLEM: node 0: chunk missing at <tmp>/missing/node0.mscr\n", {}),
        ("missing: decode", 0, (56, "43b50670e3f1bfd1fae34253a5207e15eb4c6674c26426ede4fab57e9822778a"),
         "skipped node 0: chunk missing at <tmp>/missing/node0.mscr\n", {
             "missing.bin": (36000, "8cacea6c7e5327584b30293fde0de63e069202f06ba6e9a4ae08dad57f135b53"),
         }),
        ("missing: fail", 0, (22, "b0a37c312a9515071b935d5ecd4d5ab926d5ae089fd6779692193043e8baaf2d"),
         "", {
             "missing/manifest.json": (1010, "f0c82472bb0c798733c41778389880287a54e4559dbd106d59ebc21b92fdf4da"),
             "missing/node2.mscr.failed": (38088, "82845f12fd3567d1ebf382b5583abd0266e28ea9747f40a20165f942cc3f1a1d"),
             "missing/node2.mscr": None,
         }),
        ("missing: repair", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: node 0: chunk missing at <tmp>/missing/node0.mscr\n", {}),
        ("value: verify", 1, (139, "a540c797afce2a6e6bafb04e57a553d9f7051c1c26a00d181aeddf6caf8149f5"),
         "PROBLEM: node 1: <tmp>/value/node1.mscr: symbol out of field range\n", {}),
        ("value: decode", 0, (54, "58d8c1000bdde8433bf2d88334ec567cd703c63610224c1f4a811d41f02f72b4"),
         "skipped node 1: <tmp>/value/node1.mscr: symbol out of field range\n", {
             "value.bin": (36000, "8cacea6c7e5327584b30293fde0de63e069202f06ba6e9a4ae08dad57f135b53"),
         }),
        ("symbol sys: verify", 1, (100, "969a9f048c4214468f85ecf2589285860839463968dfcd40e7bf9ad0221b41ed"),
         "PROBLEM: stripe 4: parity checks fail\nPROBLEM: manifest: the decoded 36000 bytes do not match manifest field 'original_sha256'\n", {}),
        ("symbol sys: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: the decoded 36000 bytes do not match manifest field 'original_sha256'\n", {}),
        ("symbol parity: verify", 1, (100, "969a9f048c4214468f85ecf2589285860839463968dfcd40e7bf9ad0221b41ed"),
         "PROBLEM: stripe 4: parity checks fail\n", {}),
        ("symbol parity: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: the decoded 36000 bytes do not match manifest field 'original_sha256'\n", {}),
        ("shorter: verify", 1, (144, "044a0901489f7085a733b5920a556c720596c6a0a1057af23aa11b1587a4cdc1"),
         "PROBLEM: manifest: the last stripe's message has set bits past original_length = 35995 bytes, which encode pads with zeros\n", {}),
        ("shorter: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: the last stripe's message has set bits past original_length = 35995 bytes, which encode pads with zeros\n", {}),
        ("longer: verify", 1, (144, "044a0901489f7085a733b5920a556c720596c6a0a1057af23aa11b1587a4cdc1"),
         "PROBLEM: manifest: the decoded 36005 bytes do not match manifest field 'original_sha256'\n", {}),
        ("longer: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: the decoded 36005 bytes do not match manifest field 'original_sha256'\n", {}),
        ("digest: verify", 1, (123, "562ba6b63d155813513514958d041dcccf045482b5e5b7697416b45fdbb029cc"),
         "PROBLEM: node 0: checksum mismatch\n", {}),
        ("digest: decode", 0, (55, "ea07abe99f6677678d0a76f856af1768593778f2eeafb6c3045a3fe544f983da"),
         "skipped node 0: checksum mismatch\n", {
             "digest.bin": (36000, "8cacea6c7e5327584b30293fde0de63e069202f06ba6e9a4ae08dad57f135b53"),
         }),
        ("config: encode", 0, (127, "d9847f80b81679796197c7d19bd1e905e5083bac9ba1f064a8952df8eb4e1fcd"),
         "", {
             "configured/manifest.json": (1001, "3363e196bfeabaee324da4d24bb1ad51774267109e198fcbb19ca855ee19e6f1"),
             "configured/node0.mscr": (12360, "4e3b492f7cc238d4a74ef62412154455d7a2a3667fb7a9770552f8fe6080ecf1"),
             "configured/node1.mscr": (12744, "853c9754ad985e66d840035db059db4865b0bd09966ae1c4efb33f27fb7f9592"),
             "configured/node2.mscr": (12744, "1d798f35c75480e7b817101e0be0e150fdd7dba243b422e5f2bc6372de9fa23e"),
             "configured/node3.mscr": (12744, "460cbba3102ff3e7b4fa7d6f363cdc1f62c35f3c128f941d6198281db3925e34"),
             "configured/node4.mscr": (12744, "bf6d7a9eb447e933683f822ab3bd66c4b394ec06eed115f59c3efee4ea98febe"),
             "configured/source.bin": (12000, "883bbeb64719d85f831a25f33a3c5d9fedd0f02d6732166909525fd5b58ae8e9"),
         }),
        ("config: fail", 0, (22, "b0a37c312a9515071b935d5ecd4d5ab926d5ae089fd6779692193043e8baaf2d"),
         "", {
             "configured/manifest.json": (1010, "3f5e37091da7ea7ff5c414cf230d810605cc6a1c7c399027c185136cd09e560c"),
             "configured/node2.mscr.failed": (12744, "1d798f35c75480e7b817101e0be0e150fdd7dba243b422e5f2bc6372de9fa23e"),
             "configured/node2.mscr": None,
         }),
        ("config: repair", 0, (702, "21cd627ff31b0aec73136907a6b4ba0210b3eb8b3b765e970533f5022fb46818"),
         "", {
             "configured.txt": (16460, "b8035e94592b20b7cc4a1c9f1c06faa33e253942a2d472399cb0da071031432a"),
             "configured/manifest.json": (1001, "3363e196bfeabaee324da4d24bb1ad51774267109e198fcbb19ca855ee19e6f1"),
             "configured/node2.mscr": (12744, "1d798f35c75480e7b817101e0be0e150fdd7dba243b422e5f2bc6372de9fa23e"),
             "configured/node2.mscr.failed": None,
         }),
    ],
}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_same_outputs(tmp_path, capsys, monkeypatch, shape):
    monkeypatch.setattr(storage, "BLOCK_SYMBOLS", 1)  # blocks of 8 stripes
    steps = lifecycle(tmp_path, capsys, shape)
    assert [step[0] for step in steps] == [step[0] for step in PINS[shape]]
    for (step, rc, out, err, written), want in zip(steps, PINS[shape]):
        assert (step, rc, pin(out.encode()), err, written) == want, out
