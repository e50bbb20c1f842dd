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
manifest (verify, decode); a directory in place of a helper's chunk
(verify, decode, fail, repair); two parity group values of q^c or more in
two listed nodes, one in the first block and one in the last (verify, and
decode through both spares); three stores with two kinds of damage at once,
a flipped systematic bit and a truncated parity chunk, a deleted helper and
a parity group value of q^c or more in node k, an edited original_length and
a directory in place of a helper's chunk (verify, decode); three more that
pair a chunk that does not open with a block that does not read: the store
as fail left it with a group value of q^c or more in its highest surviving
parity node (verify), node n-1 truncated with one in node k's first group
(verify, decode from parity), and node 0's last bit flipped with one in
node k's last group (verify, decode); last, encode, fail and repair driven
by one --config file.  The same lifecycle runs again
at the default BLOCK_SYMBOLS, where a small file is a single block.

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
from mscr.code import validate_params

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
    failed_value = shutil.copytree(store, tmp_path / "failed-value")  # damaged below
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
    # reads that block again with the spare in its place
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

    # a directory in place of a helper's chunk: it cannot be opened at all
    unreadable = shutil.copytree(store, tmp_path / "unreadable")
    chunk = unreadable / storage.chunk_name(min(map(int, helpers.split(","))))
    chunk.unlink()
    chunk.mkdir()
    run("unreadable: verify", "verify", "--dir", unreadable)
    run("unreadable: decode", "decode", "--dir", unreadable, "--out", tmp_path / "unreadable.bin")
    run("unreadable: fail", "fail", "--dir", unreadable, "--nodes", failed)
    run("unreadable: repair", "repair", "--dir", unreadable, "--helpers", helpers)

    # two parity group values of q^c or more, the lower node's in its first
    # block and the higher node's in its last: decode lists the top k+2
    # nodes, so it skips both and ends with the two spares above them
    two_bad = shutil.copytree(store, tmp_path / "two-bad")
    listed = list(range(n))[-(k + 2):]
    first, last = [i for i in listed if i >= k][:2]
    rewrite_body(two_bad, first, top_value_on_first_group)
    rewrite_body(two_bad, last, top_value_on_last_group)
    run("two bad: verify", "verify", "--dir", two_bad)
    run("two bad: decode", "decode", "--dir", two_bad, "--nodes", ",".join(map(str, listed)),
        "--out", tmp_path / "two-bad.bin")

    # two kinds of damage at once: a flipped systematic bit and a truncated
    # parity chunk; a deleted helper and a parity group value of q^c or more
    # in node k; an edited original_length and a directory in place of the
    # highest helper's chunk, so verify still walks every systematic block
    # and judges the file from them
    lowest_helper = min(map(int, helpers.split(",")))
    both = shutil.copytree(store, tmp_path / "flipped-truncated")
    chunk = both / storage.chunk_name(0)
    raw = bytearray(chunk.read_bytes())
    raw[-1] ^= 1
    chunk.write_bytes(raw)
    chunk = both / storage.chunk_name(n - 1)
    chunk.write_bytes(chunk.read_bytes()[:-1])
    run("flipped truncated: verify", "verify", "--dir", both)
    run("flipped truncated: decode", "decode", "--dir", both,
        "--out", tmp_path / "flipped-truncated.bin")

    both = shutil.copytree(store, tmp_path / "missing-value")
    (both / storage.chunk_name(lowest_helper)).unlink()
    rewrite_body(both, k, top_value_on_last_group)
    run("missing value: verify", "verify", "--dir", both)
    run("missing value: decode", "decode", "--dir", both, "--out", tmp_path / "missing-value.bin")

    both = shutil.copytree(store, tmp_path / "length-unreadable")
    manifest = json.loads((both / storage.MANIFEST_NAME).read_text())
    manifest["original_length"] -= 5
    (both / storage.MANIFEST_NAME).write_text(json.dumps(manifest))
    chunk = both / storage.chunk_name(max(map(int, helpers.split(","))))
    chunk.unlink()
    chunk.mkdir()
    run("length unreadable: verify", "verify", "--dir", both)
    run("length unreadable: decode", "decode", "--dir", both,
        "--out", tmp_path / "length-unreadable.bin")

    # a chunk that does not open beside a block that does not read: the
    # failed store with a group value of q^c or more in its highest
    # surviving parity node; node n-1 truncated, or node 0's last bit
    # flipped, and a group value of q^c or more in node k
    surviving_parity = set(range(k, n)) - set(map(int, failed.split(",")))
    rewrite_body(failed_value, max(surviving_parity), top_value_on_last_group)
    run("failed value: verify", "verify", "--dir", failed_value)

    both = shutil.copytree(store, tmp_path / "truncated-value")
    chunk = both / storage.chunk_name(n - 1)
    chunk.write_bytes(chunk.read_bytes()[:-1])
    rewrite_body(both, k, top_value_on_first_group)
    run("truncated value: verify", "verify", "--dir", both)
    run("truncated value: decode parity", "decode", "--dir", both, "--nodes", parity,
        "--out", tmp_path / "truncated-value.bin")

    both = shutil.copytree(store, tmp_path / "flipped-value")
    chunk = both / storage.chunk_name(0)
    raw = bytearray(chunk.read_bytes())
    raw[-1] ^= 1
    chunk.write_bytes(raw)
    rewrite_body(both, k, top_value_on_last_group)
    run("flipped value: verify", "verify", "--dir", both)
    run("flipped value: decode", "decode", "--dir", both, "--out", tmp_path / "flipped-value.bin")

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
    at, segment = len(raw) - storage.body_length(count // c, width), 8 * params.N // c
    values = storage.unpack_body(raw[at:], width, count // c, segment)
    edit(values, q, width)
    raw = raw[:at] + storage.pack_body(values, width, segment)
    chunk.write_bytes(raw)
    manifest["chunks"][str(node)]["sha256"] = hashlib.sha256(raw).hexdigest()
    (store / storage.MANIFEST_NAME).write_text(json.dumps(manifest))


def top_value_on_last_group(values, q, width):
    """The last group holds 2^width - 1, at least q^c, as width bits can."""
    values[-1] = 2**width - 1


def top_value_on_first_group(values, q, width):
    """The first group holds 2^width - 1, at least q^c."""
    values[0] = 2**width - 1


def bump_one_symbol(values, q, width):
    """The lowest symbol of the middle group becomes the next field element."""
    v = int(values[values.size // 2])
    values[values.size // 2] = v - v % q + (v % q + 1) % q


# computed by the code of commit 988d003; the chunk and manifest pins again
# under chunk formats 4 and 5, which changed no other output; the steps from
# "encode random" on by the code of commit ced7880, the steps from
# "value: verify" on by the code of commit 571a29c, and the "unreadable" and
# "two bad" steps by the code of commit 3fa6187, where "unreadable: repair"
# printed no node before read_chunk named every chunk it cannot read, and the
# "flipped truncated", "missing value" and "length unreadable" steps by the
# code of commit a90d80b; "two bad: verify" gained its second PROBLEM line
# when verify's sweep went on past a chunk whose block does not read; and
# when verify walked every chunk that opened, also beside one that did not,
# "missing value: verify" gained its PROBLEM line naming node k, and the
# "failed value", "truncated value" and "flipped value" steps were computed
PINS = {
    "narrow-h2": [
        ("params-check", 0, (274, "1bced3d48bbec8358f01ee078b5614565fd805fd00af1505d3cb9c82977562a4"),
         "", {}),
        ("encode", 0, (74, "4a4595f57b567f18a04e27dd7704cdc384ce55437f298c6db19a6d25bb440804"),
         "", {
             "store/manifest.json": (1124, "e697da37f039c96888457e03b5289d1cff5fd70d034dea898bb9999a94cc9583"),
             "store/node0.mscr": (3524, "91a9e4ad1851a913ad4278e29327a6fdc98eb5614d9719449486628c7fadb543"),
             "store/node1.mscr": (3524, "84cc613cfa9611da77280d0d367d096f931ebeb0782e4d4e54eee6a115cfd360"),
             "store/node2.mscr": (3524, "70eb35e5a544732f9a398e6d78102f6baaba5b5249f44587dc39d30c48415e85"),
             "store/node3.mscr": (3596, "c0900c2502e5f2430f91b1a4aa449d6164acaff045e0679c7a188fb87335c75b"),
             "store/node4.mscr": (3596, "a4559f00593d276d8b30b05eef421571a134164fbede068c52afd7d19bc11fe7"),
             "store/node5.mscr": (3596, "722ad17f3c9a9c76a7ee8c0b6760ff2f17f9c47afcb2cc41d128128536dd479f"),
         }),
        ("fail", 0, (25, "6161bcb9b2c47f89dcfa34b8610496a43af9c9d569da278a2468e2d464ff84f9"),
         "", {
             "store/manifest.json": (1140, "357358db07f89c25a140b65166266e1621b3bdd531df0e38d43dbda8474016dc"),
             "store/node1.mscr.failed": (3524, "84cc613cfa9611da77280d0d367d096f931ebeb0782e4d4e54eee6a115cfd360"),
             "store/node4.mscr.failed": (3596, "a4559f00593d276d8b30b05eef421571a134164fbede068c52afd7d19bc11fe7"),
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
             "store/manifest.json": (1124, "e697da37f039c96888457e03b5289d1cff5fd70d034dea898bb9999a94cc9583"),
             "store/node1.mscr": (3524, "84cc613cfa9611da77280d0d367d096f931ebeb0782e4d4e54eee6a115cfd360"),
             "store/node4.mscr": (3596, "a4559f00593d276d8b30b05eef421571a134164fbede068c52afd7d19bc11fe7"),
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
             "random/manifest.json": (1124, "6dac2ab5c316898f63f98a6347ba496f3112097b16d46c9d01a4d6e031710c2b"),
             "random/node0.mscr": (3524, "34e1396229344bc0d26f2e259e5d0376f4803bb3815a4649f7ec2ae3bc3bc735"),
             "random/node1.mscr": (3524, "8475e3c2ce3970b44f129d92b23c8b747ed8fca1928d1ad1fda6e8c5a229f24f"),
             "random/node2.mscr": (3524, "ae725d40ee77f6038325f18de4f6098f2f37472ed64218619c6ec034876429ee"),
             "random/node3.mscr": (3596, "7f5f20133100329fd2986f2468c4721814aa2d9529113a2df4554a79465e2856"),
             "random/node4.mscr": (3596, "0acbb8050bc38faa13ac0585d35091d046d3d882d2a520b10cd6d9e3ac49530d"),
             "random/node5.mscr": (3596, "841e0b4949c16d2b33f482fdb3e82084e3130724aa932d1eb7a830eff3c3a988"),
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
             "header/manifest.json": (1140, "2873892a0060890a8fa95ad3044acc01635aa16362d755c879362ba03b171ac3"),
             "header/node1.mscr.failed": (3524, "84cc613cfa9611da77280d0d367d096f931ebeb0782e4d4e54eee6a115cfd360"),
             "header/node4.mscr.failed": (3596, "a4559f00593d276d8b30b05eef421571a134164fbede068c52afd7d19bc11fe7"),
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
             "missing/manifest.json": (1140, "357358db07f89c25a140b65166266e1621b3bdd531df0e38d43dbda8474016dc"),
             "missing/node1.mscr.failed": (3524, "84cc613cfa9611da77280d0d367d096f931ebeb0782e4d4e54eee6a115cfd360"),
             "missing/node4.mscr.failed": (3596, "a4559f00593d276d8b30b05eef421571a134164fbede068c52afd7d19bc11fe7"),
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
        ("unreadable: verify", 1, (143, "dafee7d32bbbfe89b3f86c30290acbacddfdc724b3b3faf2a6c8d13c2b769011"),
         "PROBLEM: node 0: [Errno 21] Is a directory: '<tmp>/unreadable/node0.mscr'\n", {}),
        ("unreadable: decode", 0, (65, "f62b6eea46595fb3026e8ef377816f8976304fea044012980ab0be37a6597060"),
         "skipped node 0: [Errno 21] Is a directory: '<tmp>/unreadable/node0.mscr'\n", {
             "unreadable.bin": (10000, "2c9fe22d4e6e0c3a7ea3d5c2bf38a639ae13b953ecba9e504513edb8ba3c0e8e"),
         }),
        ("unreadable: fail", 0, (25, "6161bcb9b2c47f89dcfa34b8610496a43af9c9d569da278a2468e2d464ff84f9"),
         "", {
             "unreadable/manifest.json": (1140, "357358db07f89c25a140b65166266e1621b3bdd531df0e38d43dbda8474016dc"),
             "unreadable/node1.mscr.failed": (3524, "84cc613cfa9611da77280d0d367d096f931ebeb0782e4d4e54eee6a115cfd360"),
             "unreadable/node4.mscr.failed": (3596, "a4559f00593d276d8b30b05eef421571a134164fbede068c52afd7d19bc11fe7"),
             "unreadable/node1.mscr": None,
             "unreadable/node4.mscr": None,
         }),
        ("unreadable: repair", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: node 0: [Errno 21] Is a directory: '<tmp>/unreadable/node0.mscr'\n", {}),
        ("two bad: verify", 1, (159, "fb0a94cce082ca1c354037aafed68289de9994c755b1265d7796fa71dcab6703"),
         "PROBLEM: node 3: <tmp>/two-bad/node3.mscr: symbol out of field range\nPROBLEM: node 4: <tmp>/two-bad/node4.mscr: symbol out of field range\n", {}),
        ("two bad: decode", 0, (62, "f2538d702238c97a2dd8ee271c96440cecf1ac78787b19ebc3dac4bcfffbd545"),
         "skipped node 3: <tmp>/two-bad/node3.mscr: symbol out of field range\nskipped node 4: <tmp>/two-bad/node4.mscr: symbol out of field range\n", {
             "two-bad.bin": (10000, "2c9fe22d4e6e0c3a7ea3d5c2bf38a639ae13b953ecba9e504513edb8ba3c0e8e"),
         }),
        ("flipped truncated: verify", 1, (123, "562ba6b63d155813513514958d041dcccf045482b5e5b7697416b45fdbb029cc"),
         "PROBLEM: node 0: checksum mismatch\nPROBLEM: node 5: checksum mismatch\n", {}),
        ("flipped truncated: decode", 0, (72, "5de96ff71cee412bb523ce80da6c9cbebb60fdd4755d0e33046b1bd650b4e9d8"),
         "skipped node 0: checksum mismatch\n", {
             "flipped-truncated.bin": (10000, "2c9fe22d4e6e0c3a7ea3d5c2bf38a639ae13b953ecba9e504513edb8ba3c0e8e"),
         }),
        ("missing value: verify", 1, (143, "dafee7d32bbbfe89b3f86c30290acbacddfdc724b3b3faf2a6c8d13c2b769011"),
         "PROBLEM: node 0: chunk missing at <tmp>/missing-value/node0.mscr\nPROBLEM: node 3: <tmp>/missing-value/node3.mscr: symbol out of field range\n", {}),
        ("missing value: decode", 0, (68, "5b4963b88bc8c3f7a86ebde8224065124a62d320d59341de644b0ea0727420f7"),
         "skipped node 0: chunk missing at <tmp>/missing-value/node0.mscr\nskipped node 3: <tmp>/missing-value/node3.mscr: symbol out of field range\n", {
             "missing-value.bin": (10000, "2c9fe22d4e6e0c3a7ea3d5c2bf38a639ae13b953ecba9e504513edb8ba3c0e8e"),
         }),
        ("length unreadable: verify", 1, (143, "2763b1f992874d4edd3686f668cf5ff4a7d65e831934738f4f850d9320806269"),
         "PROBLEM: node 5: [Errno 21] Is a directory: '<tmp>/length-unreadable/node5.mscr'\nPROBLEM: manifest: the last stripe's message has set bits past original_length = 9995 bytes, which encode pads with zeros\n", {}),
        ("length unreadable: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: the last stripe's message has set bits past original_length = 9995 bytes, which encode pads with zeros\n", {}),
        ("failed value: verify", 1, (181, "6b488c43ee70c511b10ad11dc60b69a28d19439fd5a98a459a0a7e660d9517e0"),
         "PROBLEM: node 5: <tmp>/failed-value/node5.mscr: symbol out of field range\n", {}),
        ("truncated value: verify", 1, (143, "2763b1f992874d4edd3686f668cf5ff4a7d65e831934738f4f850d9320806269"),
         "PROBLEM: node 5: checksum mismatch\nPROBLEM: node 3: <tmp>/truncated-value/node3.mscr: symbol out of field range\n", {}),
        ("truncated value: decode parity", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "skipped node 5: checksum mismatch\nerror: need k=3 verified chunks, only 2 of nodes [3, 4, 5] verify; bad nodes [5]\n", {}),
        ("flipped value: verify", 1, (143, "dafee7d32bbbfe89b3f86c30290acbacddfdc724b3b3faf2a6c8d13c2b769011"),
         "PROBLEM: node 0: checksum mismatch\nPROBLEM: node 3: <tmp>/flipped-value/node3.mscr: symbol out of field range\n", {}),
        ("flipped value: decode", 0, (68, "22fdadf954cc127935eee2c2a646d19c713c213a965b7d11034c2df7ee279538"),
         "skipped node 0: checksum mismatch\nskipped node 3: <tmp>/flipped-value/node3.mscr: symbol out of field range\n", {
             "flipped-value.bin": (10000, "2c9fe22d4e6e0c3a7ea3d5c2bf38a639ae13b953ecba9e504513edb8ba3c0e8e"),
         }),
        ("config: encode", 0, (125, "bf083341d45a4b77942c05066b5b61074291e02493f40b8540e90dac9d333fa0"),
         "", {
             "configured/manifest.json": (1122, "04cf4fc8752b5cdeb054313d77cd28f4d31e1758b7ecd36d9c895af320222186"),
             "configured/node0.mscr": (1220, "615aac0e0f5f5277e8931faaa48c4028e6b9d813b337b259545651b898acaf9c"),
             "configured/node1.mscr": (1220, "e30a69382b042537b4517ce1b59229eaff38d53f7f91821ecb3f4344637ecd82"),
             "configured/node2.mscr": (1220, "e31477d2505bab321961b050e88a2e0c5c818e37b36ee65950824399327c83d7"),
             "configured/node3.mscr": (1244, "5e9ed5d213e4b61dbfc04a74006bb02930bd1f3caabe2dad08627ed2a38d31e8"),
             "configured/node4.mscr": (1244, "b4b658b85b2eefd389663805f8b0aad2b9691323d69f2049b571864953c6190f"),
             "configured/node5.mscr": (1244, "4f0f74b29ff1291ca45e274d636398fa6dbbfb44564a79a9cc297259d68b098f"),
             "configured/source.bin": (3333, "1c39a3f8613a38b8316e324144e188d76f74183c0fe49e7c53867afe20adfda5"),
         }),
        ("config: fail", 0, (25, "6161bcb9b2c47f89dcfa34b8610496a43af9c9d569da278a2468e2d464ff84f9"),
         "", {
             "configured/manifest.json": (1138, "65203ad2796a2a8d5f18f19a1faabb7b9b8d7325eb8fa8f354a7267e7f2244c7"),
             "configured/node1.mscr.failed": (1220, "e30a69382b042537b4517ce1b59229eaff38d53f7f91821ecb3f4344637ecd82"),
             "configured/node4.mscr.failed": (1244, "b4b658b85b2eefd389663805f8b0aad2b9691323d69f2049b571864953c6190f"),
             "configured/node1.mscr": None,
             "configured/node4.mscr": None,
         }),
        ("config: repair", 0, (698, "ac445720acdf54d0fc01df40ee5407c29bf0d388c237a420970e55017f97c0dc"),
         "", {
             "configured.txt": (2736, "151077c869aee302188cdac839e40b5cb6578b24652d27ae32fa1bc08cd6593e"),
             "configured/manifest.json": (1122, "04cf4fc8752b5cdeb054313d77cd28f4d31e1758b7ecd36d9c895af320222186"),
             "configured/node1.mscr": (1220, "e30a69382b042537b4517ce1b59229eaff38d53f7f91821ecb3f4344637ecd82"),
             "configured/node4.mscr": (1244, "b4b658b85b2eefd389663805f8b0aad2b9691323d69f2049b571864953c6190f"),
             "configured/node1.mscr.failed": None,
             "configured/node4.mscr.failed": None,
         }),
    ],
    "coop-h3-p7": [
        ("params-check", 0, (272, "7586a78f7d6842222a68402fcce507f66e67c782b5f17cae3052f0ea2d96d65e"),
         "", {}),
        ("encode", 0, (71, "b28296e18ae95e78ba7b1ef09a3c0c6855525718e0234ac19490d89dae16e7cb"),
         "", {
             "store/manifest.json": (1121, "2c6361a6915641098da90c3ffe0604eeaef65a9fc9b1321e14a1776d8a4f9789"),
             "store/node0.mscr": (1604, "89cef3bdea158dc4837184351edbfa6585f4b6add3c89f9c78e979714c4795e5"),
             "store/node1.mscr": (1604, "5c18a2eef599b1ed8653208959729d9fbceb6d3979e669f16a78548f5d587153"),
             "store/node2.mscr": (2228, "4c02933a8fef7c4a73125b574fa98cf0746487ea4fd77293da0c53c3925641c4"),
             "store/node3.mscr": (2228, "1adc549a2efe22e05b5d5b58d7ec52b25d9bf27439014760473291558137c799"),
             "store/node4.mscr": (2228, "13b2483afdabfe6a48fa72d0bfd5f198dff88c7b478322f6cad21f99a1a845da"),
             "store/node5.mscr": (2228, "6dd34d65ffefd3816b9d479b41aea605c8b8c15822753c856a8dd7ec8866074c"),
         }),
        ("fail", 0, (28, "9499d939aa8da4e4de21b2350a6201e470f0a272571e07d161ab8aa66d7857ef"),
         "", {
             "store/manifest.json": (1144, "d6afcba390ffe4e343a259976f23c12a440639e3eb20240af9deb75658c10420"),
             "store/node0.mscr.failed": (1604, "89cef3bdea158dc4837184351edbfa6585f4b6add3c89f9c78e979714c4795e5"),
             "store/node3.mscr.failed": (2228, "1adc549a2efe22e05b5d5b58d7ec52b25d9bf27439014760473291558137c799"),
             "store/node5.mscr.failed": (2228, "6dd34d65ffefd3816b9d479b41aea605c8b8c15822753c856a8dd7ec8866074c"),
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
             "store/manifest.json": (1121, "2c6361a6915641098da90c3ffe0604eeaef65a9fc9b1321e14a1776d8a4f9789"),
             "store/node0.mscr": (1604, "89cef3bdea158dc4837184351edbfa6585f4b6add3c89f9c78e979714c4795e5"),
             "store/node3.mscr": (2228, "1adc549a2efe22e05b5d5b58d7ec52b25d9bf27439014760473291558137c799"),
             "store/node5.mscr": (2228, "6dd34d65ffefd3816b9d479b41aea605c8b8c15822753c856a8dd7ec8866074c"),
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
             "random/manifest.json": (1121, "88d9ef69b8c5ddfd79a02bc58d9e6bafee8ede7368ab318b5cfd6d68cc7c895a"),
             "random/node0.mscr": (1604, "96712f0c232d37b9561e5c71748d26539bd6a9e31c08288e1a0feda1ed328887"),
             "random/node1.mscr": (1604, "4be62214369f5a3aa8022763e0812baa52d35c0636aaaa482de0c3a1cd6ca3a5"),
             "random/node2.mscr": (2228, "4b3b9112ca5f2d014bffd398324c3331e1bf27f95c025c4244628d9f2e34b0cc"),
             "random/node3.mscr": (2228, "ac42b1f379766bf8011034fed3e5d2fdf881e48e67c424015b0e8cce158ad067"),
             "random/node4.mscr": (2228, "121f9425f11c06d8775f8ce833d62581d1189e01310bdd1eaad90adab2de730d"),
             "random/node5.mscr": (2228, "9c64a136317f5cd80dd8c85121a9b44afd3255b1349b6e605b8675ad49207247"),
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
             "header/manifest.json": (1144, "0eb19085802811a3af0140da17bcb1f027a84ef7b09d823022d06a33ac5c7cd3"),
             "header/node0.mscr.failed": (1604, "89cef3bdea158dc4837184351edbfa6585f4b6add3c89f9c78e979714c4795e5"),
             "header/node3.mscr.failed": (2228, "1adc549a2efe22e05b5d5b58d7ec52b25d9bf27439014760473291558137c799"),
             "header/node5.mscr.failed": (2228, "6dd34d65ffefd3816b9d479b41aea605c8b8c15822753c856a8dd7ec8866074c"),
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
             "missing/manifest.json": (1144, "d6afcba390ffe4e343a259976f23c12a440639e3eb20240af9deb75658c10420"),
             "missing/node0.mscr.failed": (1604, "89cef3bdea158dc4837184351edbfa6585f4b6add3c89f9c78e979714c4795e5"),
             "missing/node3.mscr.failed": (2228, "1adc549a2efe22e05b5d5b58d7ec52b25d9bf27439014760473291558137c799"),
             "missing/node5.mscr.failed": (2228, "6dd34d65ffefd3816b9d479b41aea605c8b8c15822753c856a8dd7ec8866074c"),
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
        ("unreadable: verify", 1, (143, "1ce1e6eb5289284b9ab89f95fee0f28e6e7325242152c216499f836bfa83fbc0"),
         "PROBLEM: node 1: [Errno 21] Is a directory: '<tmp>/unreadable/node1.mscr'\n", {}),
        ("unreadable: decode", 0, (61, "52f95051673dd21ed25199fa1edc588e3fd95d88054a91181c85d6fb7957681c"),
         "skipped node 1: [Errno 21] Is a directory: '<tmp>/unreadable/node1.mscr'\n", {
             "unreadable.bin": (3000, "ae003cd6d30e189bd6ba8ca27a3a7198f868de0228252152aa47dc246d588770"),
         }),
        ("unreadable: fail", 0, (28, "9499d939aa8da4e4de21b2350a6201e470f0a272571e07d161ab8aa66d7857ef"),
         "", {
             "unreadable/manifest.json": (1144, "d6afcba390ffe4e343a259976f23c12a440639e3eb20240af9deb75658c10420"),
             "unreadable/node0.mscr.failed": (1604, "89cef3bdea158dc4837184351edbfa6585f4b6add3c89f9c78e979714c4795e5"),
             "unreadable/node3.mscr.failed": (2228, "1adc549a2efe22e05b5d5b58d7ec52b25d9bf27439014760473291558137c799"),
             "unreadable/node5.mscr.failed": (2228, "6dd34d65ffefd3816b9d479b41aea605c8b8c15822753c856a8dd7ec8866074c"),
             "unreadable/node0.mscr": None,
             "unreadable/node3.mscr": None,
             "unreadable/node5.mscr": None,
         }),
        ("unreadable: repair", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: node 1: [Errno 21] Is a directory: '<tmp>/unreadable/node1.mscr'\n", {}),
        ("two bad: verify", 1, (159, "f06b2bc3be4f1c902196dea713ab55b9202523d347d15d45b8627995df56c1a1"),
         "PROBLEM: node 2: <tmp>/two-bad/node2.mscr: symbol out of field range\nPROBLEM: node 3: <tmp>/two-bad/node3.mscr: symbol out of field range\n", {}),
        ("two bad: decode", 0, (58, "96b089eb213b0af41a54a7571ba30daafb69846416f6b143c83170690446bfb6"),
         "skipped node 2: <tmp>/two-bad/node2.mscr: symbol out of field range\nskipped node 3: <tmp>/two-bad/node3.mscr: symbol out of field range\n", {
             "two-bad.bin": (3000, "ae003cd6d30e189bd6ba8ca27a3a7198f868de0228252152aa47dc246d588770"),
         }),
        ("flipped truncated: verify", 1, (123, "562ba6b63d155813513514958d041dcccf045482b5e5b7697416b45fdbb029cc"),
         "PROBLEM: node 0: checksum mismatch\nPROBLEM: node 5: checksum mismatch\n", {}),
        ("flipped truncated: decode", 0, (68, "d9a55748c7d85af315fe62ac9f746475c196aff29205e10e126bb0f1dedac5f4"),
         "skipped node 0: checksum mismatch\n", {
             "flipped-truncated.bin": (3000, "ae003cd6d30e189bd6ba8ca27a3a7198f868de0228252152aa47dc246d588770"),
         }),
        ("missing value: verify", 1, (143, "1ce1e6eb5289284b9ab89f95fee0f28e6e7325242152c216499f836bfa83fbc0"),
         "PROBLEM: node 1: chunk missing at <tmp>/missing-value/node1.mscr\nPROBLEM: node 2: <tmp>/missing-value/node2.mscr: symbol out of field range\n", {}),
        ("missing value: decode", 0, (64, "0024e6979726f5889fea786a023006194518fda5fbe6795af9e9bcb416357d05"),
         "skipped node 1: chunk missing at <tmp>/missing-value/node1.mscr\nskipped node 2: <tmp>/missing-value/node2.mscr: symbol out of field range\n", {
             "missing-value.bin": (3000, "ae003cd6d30e189bd6ba8ca27a3a7198f868de0228252152aa47dc246d588770"),
         }),
        ("length unreadable: verify", 1, (143, "4f843189724fe43bd3838a858cbc9712dc2a6196f89c9627b7f88e1371b209a7"),
         "PROBLEM: node 4: [Errno 21] Is a directory: '<tmp>/length-unreadable/node4.mscr'\nPROBLEM: manifest: the last stripe's message has set bits past original_length = 2995 bytes, which encode pads with zeros\n", {}),
        ("length unreadable: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: the last stripe's message has set bits past original_length = 2995 bytes, which encode pads with zeros\n", {}),
        ("failed value: verify", 1, (190, "d172e1abde8acf7f74d42b8acafd411c5908e09bbedd3d331f10841305c4308e"),
         "PROBLEM: node 4: <tmp>/failed-value/node4.mscr: symbol out of field range\n", {}),
        ("truncated value: verify", 1, (143, "2763b1f992874d4edd3686f668cf5ff4a7d65e831934738f4f850d9320806269"),
         "PROBLEM: node 5: checksum mismatch\nPROBLEM: node 2: <tmp>/truncated-value/node2.mscr: symbol out of field range\n", {}),
        ("truncated value: decode parity", 0, (66, "698cbcd0b87a11c9c55dbb0f082714f5836c315299d6e0d17ab9ae3e0bac0031"),
         "skipped node 2: <tmp>/truncated-value/node2.mscr: symbol out of field range\n", {
             "truncated-value.bin": (3000, "ae003cd6d30e189bd6ba8ca27a3a7198f868de0228252152aa47dc246d588770"),
         }),
        ("flipped value: verify", 1, (143, "dafee7d32bbbfe89b3f86c30290acbacddfdc724b3b3faf2a6c8d13c2b769011"),
         "PROBLEM: node 0: checksum mismatch\nPROBLEM: node 2: <tmp>/flipped-value/node2.mscr: symbol out of field range\n", {}),
        ("flipped value: decode", 0, (64, "c82819871c7e19ff1b1477b8c85d1f24c18cb24889506877750cbd7c3c4a7bbe"),
         "skipped node 0: checksum mismatch\nskipped node 2: <tmp>/flipped-value/node2.mscr: symbol out of field range\n", {
             "flipped-value.bin": (3000, "ae003cd6d30e189bd6ba8ca27a3a7198f868de0228252152aa47dc246d588770"),
         }),
        ("config: encode", 0, (123, "3086ebe888dde8bbc70833fd5735eddf8b037b7689fc441f7bcdfaff5d16837c"),
         "", {
             "configured/manifest.json": (1120, "ff902023371c385dc305bbcc5bcbb05017156776577b28d97d361d013ccf046a"),
             "configured/node0.mscr": (580, "84972395d4b1328351f5856a053f5813152e361bde50b17acb36c68d364fce58"),
             "configured/node1.mscr": (580, "6fe08f70af881407652c64e9475c338a89ac24df8f04fbdbf9d129475964759d"),
             "configured/node2.mscr": (788, "635d7edd7bfed60a7cbd58f4e6b1d6f97bc6b5141882014752f132c98952bd78"),
             "configured/node3.mscr": (788, "01dbea031a03292f68d4436f38538f56e59d8f4bdc127d5fdb4ed1e9848712ad"),
             "configured/node4.mscr": (788, "f39b8969cc36b8a404a9685736838f8e99efc271050d77ca36273a3b360e2144"),
             "configured/node5.mscr": (788, "0e99741a93c9a1988bbc87bdffe1d3c31da7d2f52772800e625583f1d4b2e26b"),
             "configured/source.bin": (1000, "3cc4a0b4dc76e1fe0ee167e1cf711425bf26004193a276b71893c5da45ae0b2a"),
         }),
        ("config: fail", 0, (28, "9499d939aa8da4e4de21b2350a6201e470f0a272571e07d161ab8aa66d7857ef"),
         "", {
             "configured/manifest.json": (1143, "afc975c3ac6fc5a805417e2202e300911800d3c9a11defa1b8e7b0f202c2ea2e"),
             "configured/node0.mscr.failed": (580, "84972395d4b1328351f5856a053f5813152e361bde50b17acb36c68d364fce58"),
             "configured/node3.mscr.failed": (788, "01dbea031a03292f68d4436f38538f56e59d8f4bdc127d5fdb4ed1e9848712ad"),
             "configured/node5.mscr.failed": (788, "0e99741a93c9a1988bbc87bdffe1d3c31da7d2f52772800e625583f1d4b2e26b"),
             "configured/node0.mscr": None,
             "configured/node3.mscr": None,
             "configured/node5.mscr": None,
         }),
        ("config: repair", 0, (696, "d83e64730fb396f4c5109650e42c91d6594f64d074bc7c6c97a89494993dd5df"),
         "", {
             "configured.txt": (4113, "e0de33ebbf9a87d12340c7b93258a2df492419f509e2b329cd7602de025248f3"),
             "configured/manifest.json": (1120, "ff902023371c385dc305bbcc5bcbb05017156776577b28d97d361d013ccf046a"),
             "configured/node0.mscr": (580, "84972395d4b1328351f5856a053f5813152e361bde50b17acb36c68d364fce58"),
             "configured/node3.mscr": (788, "01dbea031a03292f68d4436f38538f56e59d8f4bdc127d5fdb4ed1e9848712ad"),
             "configured/node5.mscr": (788, "0e99741a93c9a1988bbc87bdffe1d3c31da7d2f52772800e625583f1d4b2e26b"),
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
             "store/manifest.json": (1001, "72aa31e715979d654f29a7d88d9347a208b7c53114dcb0d5f75dc2259d83a99a"),
             "store/node0.mscr": (36936, "9c261148609231df94d00593321fb79ed7b547654e3c3fc5a0d0d18a9dbe3984"),
             "store/node1.mscr": (38088, "01d64257271014dfba0c7dc6fb9c85faa9d8ca50458e4505ef386df8ef631e67"),
             "store/node2.mscr": (38088, "85b0eb188355adbd2d1ffbde11c102b744c5722b258bfc124d486f5db886ca65"),
             "store/node3.mscr": (38088, "7942483165c604e1c591ef7479f23bcde770196a98eca31494f64a4d4b4162a6"),
             "store/node4.mscr": (38088, "f93827a5c2d3e1ac1243eca0c6e17492994c1cd4cb593078625c595b74647ef8"),
         }),
        ("fail", 0, (22, "b0a37c312a9515071b935d5ecd4d5ab926d5ae089fd6779692193043e8baaf2d"),
         "", {
             "store/manifest.json": (1010, "9ae5f703c85e59b30131153eb5459bb4145ffd5579ff2d4b49093b1b8e1f498d"),
             "store/node2.mscr.failed": (38088, "85b0eb188355adbd2d1ffbde11c102b744c5722b258bfc124d486f5db886ca65"),
             "store/node2.mscr": None,
         }),
        ("fail again", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: nodes [2] are already failed; repair them first\n", {}),
        ("verify failed", 0, (152, "5e766eb8addeb56d35092de305def647461b951b00c33b825a784a1a59b28918"),
         "", {}),
        ("repair", 0, (702, "f93107951920d0800afdc1c68857d48126f3fd402dadaa1393def9350370159f"),
         "", {
             "metrics.csv": (197, "e9d58d5704397f7f0d51c53638ea1095dc7fbb90eb9400d06d3808c13b227fca"),
             "store/manifest.json": (1001, "72aa31e715979d654f29a7d88d9347a208b7c53114dcb0d5f75dc2259d83a99a"),
             "store/node2.mscr": (38088, "85b0eb188355adbd2d1ffbde11c102b744c5722b258bfc124d486f5db886ca65"),
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
             "random/manifest.json": (1001, "5f4ef6f41e14877370459581b78c77e56092097c469a3f3dfa8be9d61440828a"),
             "random/node0.mscr": (36936, "7d3849c5ec56c00bff37dfc47f8522329aedb42f94901625722e331c7fd8d85f"),
             "random/node1.mscr": (38088, "20b1e8f1d52d75d9b6b471faf86897443acfcc8a1116932e15f43e0c01a078bc"),
             "random/node2.mscr": (38088, "0e5f84e81629154b196ab816a69299c53167298093344c672ff4fab5fb249891"),
             "random/node3.mscr": (38088, "8356221d2709135d92f09b24849d7ab04deef73552df5fb8f426c48cb3a5b22c"),
             "random/node4.mscr": (38088, "93f5e6010f24a5bdef0f4ae29dc06b1dd1c12c1ba2a21c7b81ebcfaae648dbc8"),
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
             "header/manifest.json": (1010, "92a63260be13b5166a75e36b535fd163a2bae59097eb7630c0e3468e64a244a7"),
             "header/node2.mscr.failed": (38088, "85b0eb188355adbd2d1ffbde11c102b744c5722b258bfc124d486f5db886ca65"),
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
             "missing/manifest.json": (1010, "9ae5f703c85e59b30131153eb5459bb4145ffd5579ff2d4b49093b1b8e1f498d"),
             "missing/node2.mscr.failed": (38088, "85b0eb188355adbd2d1ffbde11c102b744c5722b258bfc124d486f5db886ca65"),
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
        ("unreadable: verify", 1, (123, "562ba6b63d155813513514958d041dcccf045482b5e5b7697416b45fdbb029cc"),
         "PROBLEM: node 0: [Errno 21] Is a directory: '<tmp>/unreadable/node0.mscr'\n", {}),
        ("unreadable: decode", 0, (59, "b425cc7dd69b7be395d1c29fe0a292ed6d617fe70f46a81262c8a643b3eca6aa"),
         "skipped node 0: [Errno 21] Is a directory: '<tmp>/unreadable/node0.mscr'\n", {
             "unreadable.bin": (36000, "8cacea6c7e5327584b30293fde0de63e069202f06ba6e9a4ae08dad57f135b53"),
         }),
        ("unreadable: fail", 0, (22, "b0a37c312a9515071b935d5ecd4d5ab926d5ae089fd6779692193043e8baaf2d"),
         "", {
             "unreadable/manifest.json": (1010, "9ae5f703c85e59b30131153eb5459bb4145ffd5579ff2d4b49093b1b8e1f498d"),
             "unreadable/node2.mscr.failed": (38088, "85b0eb188355adbd2d1ffbde11c102b744c5722b258bfc124d486f5db886ca65"),
             "unreadable/node2.mscr": None,
         }),
        ("unreadable: repair", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: node 0: [Errno 21] Is a directory: '<tmp>/unreadable/node0.mscr'\n", {}),
        ("two bad: verify", 1, (139, "010961dbe2820967ebc98a2df2d89b02ffb2594af649c79e32110c8cf077b733"),
         "PROBLEM: node 2: <tmp>/two-bad/node2.mscr: symbol out of field range\nPROBLEM: node 3: <tmp>/two-bad/node3.mscr: symbol out of field range\n", {}),
        ("two bad: decode", 0, (56, "3665ed4fc54ca97ccf505e8722ee308651c1436d18dc47c56261c7494c424796"),
         "skipped node 2: <tmp>/two-bad/node2.mscr: symbol out of field range\nskipped node 3: <tmp>/two-bad/node3.mscr: symbol out of field range\n", {
             "two-bad.bin": (36000, "8cacea6c7e5327584b30293fde0de63e069202f06ba6e9a4ae08dad57f135b53"),
         }),
        ("flipped truncated: verify", 1, (103, "ef482b3d73e351bf553c5573d500b87f7503ca44b395ffc99b9b0b9cb70808bb"),
         "PROBLEM: node 0: checksum mismatch\nPROBLEM: node 4: checksum mismatch\n", {}),
        ("flipped truncated: decode", 0, (66, "542b0306dcb9b13f14e5b6c4e6c0f6b9e01b9a2beef9c4f4e0356545214a42f1"),
         "skipped node 0: checksum mismatch\n", {
             "flipped-truncated.bin": (36000, "8cacea6c7e5327584b30293fde0de63e069202f06ba6e9a4ae08dad57f135b53"),
         }),
        ("missing value: verify", 1, (123, "562ba6b63d155813513514958d041dcccf045482b5e5b7697416b45fdbb029cc"),
         "PROBLEM: node 0: chunk missing at <tmp>/missing-value/node0.mscr\nPROBLEM: node 1: <tmp>/missing-value/node1.mscr: symbol out of field range\n", {}),
        ("missing value: decode", 0, (62, "0514fb1cf6fb028760abc096a4c10be7ab683a0a76b7ece4a0f5ad24931156d0"),
         "skipped node 0: chunk missing at <tmp>/missing-value/node0.mscr\nskipped node 1: <tmp>/missing-value/node1.mscr: symbol out of field range\n", {
             "missing-value.bin": (36000, "8cacea6c7e5327584b30293fde0de63e069202f06ba6e9a4ae08dad57f135b53"),
         }),
        ("length unreadable: verify", 1, (123, "a770836dbdcced36188229ac03fda859abf595c2ffec645233af7b9e38b0f219"),
         "PROBLEM: node 4: [Errno 21] Is a directory: '<tmp>/length-unreadable/node4.mscr'\nPROBLEM: manifest: the last stripe's message has set bits past original_length = 35995 bytes, which encode pads with zeros\n", {}),
        ("length unreadable: decode", 2, (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
         "error: the last stripe's message has set bits past original_length = 35995 bytes, which encode pads with zeros\n", {}),
        ("failed value: verify", 1, (152, "5e766eb8addeb56d35092de305def647461b951b00c33b825a784a1a59b28918"),
         "PROBLEM: node 4: <tmp>/failed-value/node4.mscr: symbol out of field range\n", {}),
        ("truncated value: verify", 1, (123, "a770836dbdcced36188229ac03fda859abf595c2ffec645233af7b9e38b0f219"),
         "PROBLEM: node 4: checksum mismatch\nPROBLEM: node 1: <tmp>/truncated-value/node1.mscr: symbol out of field range\n", {}),
        ("truncated value: decode parity", 0, (64, "15639687b63c35b287469e649a01b23585f44f733d8575409e9782cc2f4000a6"),
         "skipped node 1: <tmp>/truncated-value/node1.mscr: symbol out of field range\n", {
             "truncated-value.bin": (36000, "8cacea6c7e5327584b30293fde0de63e069202f06ba6e9a4ae08dad57f135b53"),
         }),
        ("flipped value: verify", 1, (123, "562ba6b63d155813513514958d041dcccf045482b5e5b7697416b45fdbb029cc"),
         "PROBLEM: node 0: checksum mismatch\nPROBLEM: node 1: <tmp>/flipped-value/node1.mscr: symbol out of field range\n", {}),
        ("flipped value: decode", 0, (62, "9a14c79a7b6f95bec930c15778b08fabce7437fc4f9015336a1d7f7efd24549e"),
         "skipped node 0: checksum mismatch\nskipped node 1: <tmp>/flipped-value/node1.mscr: symbol out of field range\n", {
             "flipped-value.bin": (36000, "8cacea6c7e5327584b30293fde0de63e069202f06ba6e9a4ae08dad57f135b53"),
         }),
        ("config: encode", 0, (127, "d9847f80b81679796197c7d19bd1e905e5083bac9ba1f064a8952df8eb4e1fcd"),
         "", {
             "configured/manifest.json": (1001, "6977e4c41545ed5561275bc26de7748caa35181b75b55f20309daf2efb6b2e51"),
             "configured/node0.mscr": (12360, "4c7f0135dc40b05ebc91bf46e74cd5355b094b4d632ca03f6813b459de37a72e"),
             "configured/node1.mscr": (12744, "edd46c8253625830560ead9dc57bcd3e1ea4157a9f5c168a42a422a5e93bdf6a"),
             "configured/node2.mscr": (12744, "68fe5ac99745f0822c96ba9bcacc260a5c968f1014b0122133dc5d4ba9b87e7e"),
             "configured/node3.mscr": (12744, "edaf0e40b85a9e32d7d951a1cb1b20a19f98b3b411f00d59b9fe655bfa453b52"),
             "configured/node4.mscr": (12744, "1bd43c720afb074cc15f44c6a8b2e0de0a214816104f4c6ae5d620b932c69f05"),
             "configured/source.bin": (12000, "883bbeb64719d85f831a25f33a3c5d9fedd0f02d6732166909525fd5b58ae8e9"),
         }),
        ("config: fail", 0, (22, "b0a37c312a9515071b935d5ecd4d5ab926d5ae089fd6779692193043e8baaf2d"),
         "", {
             "configured/manifest.json": (1010, "da68535ff32ebc1cba607904b910dc009121e90f0204ca86a354098ab649b19f"),
             "configured/node2.mscr.failed": (12744, "68fe5ac99745f0822c96ba9bcacc260a5c968f1014b0122133dc5d4ba9b87e7e"),
             "configured/node2.mscr": None,
         }),
        ("config: repair", 0, (702, "21cd627ff31b0aec73136907a6b4ba0210b3eb8b3b765e970533f5022fb46818"),
         "", {
             "configured.txt": (16460, "b8035e94592b20b7cc4a1c9f1c06faa33e253942a2d472399cb0da071031432a"),
             "configured/manifest.json": (1001, "6977e4c41545ed5561275bc26de7748caa35181b75b55f20309daf2efb6b2e51"),
             "configured/node2.mscr": (12744, "68fe5ac99745f0822c96ba9bcacc260a5c968f1014b0122133dc5d4ba9b87e7e"),
             "configured/node2.mscr.failed": None,
         }),
    ],
}


def check_pins(steps, pins):
    """Each step's (step, rc, pin(stdout), stderr, written) equals its pin; a
    step that differs shows its stdout and the tuple computed, to paste into
    PINS when the change is intended."""
    assert [step[0] for step in steps] == [step[0] for step in pins]
    for (step, rc, out, err, written), want in zip(steps, pins):
        got = (step, rc, pin(out.encode()), err, written)
        assert got == want, f"{out}\n{got!r}"


@pytest.mark.parametrize("shape", list(SHAPES))
def test_same_outputs(tmp_path, capsys, monkeypatch, shape):
    monkeypatch.setattr(storage, "BLOCK_SYMBOLS", 1)  # blocks of 8 stripes
    check_pins(lifecycle(tmp_path, capsys, shape), PINS[shape])


# at the default BLOCK_SYMBOLS the narrow-h2 and coop-h3-p7 files are one
# block each, and every output is the multi-block one (wide-s4's default
# block is the floor, 8 stripes, so test_same_outputs walks it at the default)
@pytest.mark.parametrize("shape", ["narrow-h2", "coop-h3-p7"])
def test_same_outputs_in_one_block(tmp_path, capsys, shape):
    (n, k, d, h), p, size = SHAPES[shape][:3]
    params = validate_params(n, k, d, h, p=p)
    assert len(storage.blocks(params, storage.stripes_for(size, params))) == 1
    check_pins(lifecycle(tmp_path, capsys, shape), PINS[shape])
