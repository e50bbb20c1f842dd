"""Command-line tool: encode files into node chunks, fail nodes, repair
cooperatively, verify, decode, and print the access-comparison table.

Configuration comes from flags, optionally backed by a JSON config file
(--config); flags win over config values.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import stat
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import metrics, oracle, storage
from .code import failing_checks, validate_params
from .metrics import RepairMetrics
from .repair import RepairJob, run_repair


class CliError(Exception):
    """Operational error with a message for stderr."""


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    cfg = json.loads(Path(path).read_text())
    if not isinstance(cfg, dict):
        raise CliError(f"config {path} must hold a JSON object")
    return cfg


def _cfg(args, config: dict, key: str, default=None):
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _parse_nodes(text) -> list[int]:
    if isinstance(text, (list, tuple)):
        return [int(x) for x in text]
    try:
        return [int(tok) for tok in str(text).replace(",", " ").split()]
    except ValueError:
        raise CliError(f"cannot parse node list {text!r}")


def _require(args, config: dict, key: str):
    val = _cfg(args, config, key)
    if val is None:
        raise CliError(f"missing required option --{key}")
    return val


def _params_from(args, config: dict):
    vals = {}
    for key in ("n", "k", "d", "h"):
        v = _cfg(args, config, key)
        if v is None:
            raise CliError(f"missing required parameter --{key}")
        vals[key] = int(v)
    p = _cfg(args, config, "p")
    return validate_params(vals["n"], vals["k"], vals["d"], vals["h"],
                           p=None if p is None else int(p))


def _chunk_path(directory: Path, manifest: storage.Manifest, node: int) -> Path:
    return directory / manifest.chunks[str(node)]["file"]


def _read_column(directory: Path, manifest: storage.Manifest, params, node: int) -> np.ndarray:
    return storage.read_chunk(_chunk_path(directory, manifest, node),
                              manifest.chunks[str(node)]["sha256"], params, node,
                              manifest.stripe_count * params.N)


def _checked_column(directory: Path, manifest: storage.Manifest, params, node: int):
    """(column, None) for a chunk that reads and agrees with the manifest,
    else (None, a one-line problem naming the node)."""
    path = _chunk_path(directory, manifest, node)
    if not path.exists():
        return None, f"node {node}: chunk missing at {path}"
    try:
        return _read_column(directory, manifest, params, node), None
    except storage.ChecksumMismatchError:
        return None, f"node {node}: checksum mismatch"
    except (OSError, ValueError) as exc:  # unreadable, or disagrees with the manifest
        return None, f"node {node}: {exc}"


def _encode_input(path, params):
    """(chunks, stripes, length) of the file at `path`, read one block at a
    time; a pipe or device has no length to hold it to, so it is read whole
    first.  A regular file that changes while it is read is an error."""
    with open(path, "rb") as fh:
        before = os.fstat(fh.fileno())
        if not stat.S_ISREG(before.st_mode):
            data = fh.read()
            return storage.encode_file(io.BytesIO(data), len(data), params) + (len(data),)
        result = storage.encode_file(fh, before.st_size, params) + (before.st_size,)
        after = os.fstat(fh.fileno())
    if (after.st_size, after.st_mtime_ns) != (before.st_size, before.st_mtime_ns):
        raise CliError(f"input {path} changed while it was read; nothing written")
    return result


def cmd_encode(args) -> int:
    config = _load_config(args.config)
    params = _params_from(args, config)
    out_dir = Path(_require(args, config, "out"))
    input_path = _cfg(args, config, "input")
    random_bytes = _cfg(args, config, "random_bytes")
    if (input_path is None) == (random_bytes is None):
        raise CliError("give exactly one of --input or --random-bytes")
    # the input is read and encoded before the store directory is made, so a
    # failed encode leaves nothing behind
    if input_path is not None:
        chunks, stripes, original_length = _encode_input(input_path, params)
    else:
        seed = int(_cfg(args, config, "seed", 0))
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=int(random_bytes), dtype=np.uint8).tobytes()
        original_length = len(data)
        chunks, stripes = storage.encode_file(io.BytesIO(data), original_length, params)

    out_dir.mkdir(parents=True, exist_ok=True)
    if input_path is None:
        source = out_dir / "source.bin"
        storage.write_replacing(source, data)
        print(f"wrote generated input to {source}")
    digests = []
    for i, chunk in enumerate(chunks):
        storage.write_chunk(out_dir / storage.chunk_name(i), chunk)
        digests.append(hashlib.sha256(chunk).hexdigest())
    storage.Manifest.new(params, original_length, stripes, digests).save(out_dir)
    print(f"encoded {original_length} bytes into {params.n} chunks "
          f"({stripes} stripe(s) of kN={params.k * params.N} symbols, p={params.p})")
    return 0


def cmd_fail(args) -> int:
    config = _load_config(args.config)
    directory = Path(_require(args, config, "dir"))
    manifest = storage.Manifest.load(directory)
    params = manifest.params()
    nodes = sorted(set(_parse_nodes(_require(args, config, "nodes"))))
    if len(nodes) != params.h:
        raise CliError(f"repair supports exactly h={params.h} failures, got {len(nodes)}")
    already = set(manifest.failed)
    for i in nodes:
        if not 0 <= i < params.n:
            raise CliError(f"node {i} out of range [0,{params.n})")
        if i in already:
            raise CliError(f"node {i} is already failed")
    if already:
        raise CliError(f"nodes {sorted(already)} are already failed; repair them first")
    for i in nodes:
        path = _chunk_path(directory, manifest, i)
        if not path.exists():
            raise CliError(f"chunk for node {i} not found at {path}")
        path.rename(path.with_name(path.name + storage.QUARANTINE_SUFFIX))
    manifest.failed = nodes
    manifest.save(directory)
    print(f"quarantined nodes {nodes}")
    return 0


def cmd_repair(args) -> int:
    config = _load_config(args.config)
    directory = Path(_require(args, config, "dir"))
    manifest = storage.Manifest.load(directory)
    params = manifest.params()
    failed = sorted(manifest.failed)
    if not failed:
        raise CliError("no failed nodes recorded in the manifest")
    helpers = sorted(set(_parse_nodes(_require(args, config, "helpers"))))
    job = RepairJob(params, tuple(failed), tuple(helpers))  # checks the count and overlap

    stripes = manifest.stripe_count
    shape = (params.planes, params.s_pow_n)
    # block[st, m]: helper m's column of stripe st
    block = np.empty((stripes, params.d) + shape, dtype=np.uint16)
    for m, u in enumerate(helpers):
        block[:, m] = _read_column(directory, manifest, params, u).reshape(stripes, *shape)
    repaired_block = np.empty((stripes, params.h) + shape, dtype=np.uint16)
    for st in range(stripes):
        repaired, transcript = run_repair(job, dict(zip(helpers, block[st])))
        repaired_block[st] = tuple(repaired.values())
        if st == 0:  # a store holds at least one stripe
            first_transcript = transcript
    del block  # the helper bodies are freed before the restored chunks are packed

    # every restored chunk must match its recorded checksum before any is written
    restored = {i: storage.chunk_bytes(params, i, repaired_block[:, j].reshape(-1))
                for j, i in enumerate(failed)}
    mismatched = [i for i, data in restored.items()
                  if hashlib.sha256(data).hexdigest() != manifest.chunks[str(i)]["sha256"]]
    if mismatched:
        raise CliError(", ".join(f"node {i}" for i in mismatched)
                       + ": restored chunk fails checksum verification; nothing written")

    measured = RepairMetrics.from_run(job, first_transcript)
    transcript_path = Path(_cfg(args, config, "transcript") or directory / "transcript.txt")
    text = first_transcript.export_text()
    storage.write_replacing(transcript_path, text.encode())
    recount = oracle.recount(text)
    if recount.gamma != measured.gamma:
        raise CliError(f"transcript recount {recount.gamma} != measured gamma {measured.gamma}")

    b = metrics.bounds(params)
    g = metrics.g_ratio(params.d - params.k, params.h)
    per_helper = measured.per_helper_access[helpers[0]]
    optimal_per_helper = Fraction(params.h * params.N, params.d - params.k + params.h)
    bandwidth_optimal = Fraction(measured.gamma) == b.cooperative
    low_access = Fraction(per_helper) < 2 * optimal_per_helper

    lines = [
        f"repaired nodes {failed} from helpers {helpers} "
        f"({stripes} stripe(s), n={params.n} k={params.k} d={params.d} h={params.h} p={params.p})",
        "",
        "per stripe:",
        f"  beta1 (helper -> failed)      : {measured.beta1} symbols/edge",
        f"  beta2 (failed <-> failed)     : {measured.beta2} symbols/edge",
        f"  gamma (total bandwidth)       : {measured.gamma} symbols"
        f"   [cut-set bound {b.cooperative}]",
        f"  per-helper access             : {per_helper} of {params.N} symbols"
        f" = {Fraction(per_helper, params.N)} (G = {g})",
        f"  gamma_A (total access)        : {measured.gamma_A} symbols"
        f"   [lower bound {b.access}]",
        "whole run:",
        f"  gamma total                   : {measured.gamma * stripes} symbols",
        f"  gamma_A total                 : {measured.gamma_A * stripes} symbols",
        "verdicts:",
        f"  bandwidth : {'OPTIMAL (meets the cut-set bound with equality)' if bandwidth_optimal else 'NOT OPTIMAL'}",
        f"  access    : {'LOW-ACCESS (< 2x the optimal per-helper access)' if low_access else 'NOT LOW-ACCESS'}",
        f"transcript (stripe 0) written to {transcript_path}",
    ]
    if csv_arg := _cfg(args, config, "csv"):
        csv_lines = [
            "stripes,beta1,beta2,gamma_per_stripe,gamma_total,gamma_A_per_stripe,"
            "gamma_A_total,per_helper_access,N,g_exact,cooperative_bound,access_bound",
            f"{stripes},{measured.beta1},{measured.beta2},{measured.gamma},"
            f"{measured.gamma * stripes},{measured.gamma_A},{measured.gamma_A * stripes},"
            f"{per_helper},{params.N},{g},{b.cooperative},{b.access}",
        ]
        storage.write_replacing(Path(csv_arg), ("\n".join(csv_lines) + "\n").encode())

    # the outputs are written first, so a path that cannot be written stops
    # the command before the store changes
    for i, data in restored.items():
        storage.write_chunk(_chunk_path(directory, manifest, i), data)
    for i in failed:
        path = _chunk_path(directory, manifest, i)
        path.with_name(path.name + storage.QUARANTINE_SUFFIX).unlink(missing_ok=True)
    manifest.failed = []
    manifest.save(directory)

    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    directory = Path(args.dir)
    manifest = storage.Manifest.load(directory)
    params = manifest.params()
    failed = set(manifest.failed)
    stripes = manifest.stripe_count
    problems = []
    available = {}
    for i in range(params.n):
        if i in failed:
            print(f"node {i}: FAILED (quarantined)")
            continue
        column, problem = _checked_column(directory, manifest, params, i)
        if problem:
            problems.append(problem)
            continue
        available[i] = column.reshape(stripes, params.planes, params.s_pow_n)
        print(f"node {i}: checksum OK")
    if len(available) == params.n:
        bad = np.zeros(stripes, dtype=bool)
        for start, stop in storage.blocks(params, stripes):
            block = [available[i][start:stop] for i in range(params.n)]
            bad[start:stop] = failing_checks(params, block).any(axis=1)
        problems.extend(f"stripe {st}: parity checks fail" for st in np.flatnonzero(bad))
        if not bad.any():
            print(f"parity: all {stripes} stripe(s) satisfy every check")
    else:
        print("parity: skipped (not all chunks available)")
    if all(i in available for i in range(params.k)):
        try:
            storage.check_padding(params, [available[i][-1] for i in range(params.k)],
                                  manifest.original_length, stripes)
        except ValueError as exc:
            problems.append(f"manifest: {exc}")
    for msg in problems:
        print(f"PROBLEM: {msg}", file=sys.stderr)
    return 1 if problems else 0


def cmd_decode(args) -> int:
    config = _load_config(args.config)
    directory = Path(_require(args, config, "dir"))
    manifest = storage.Manifest.load(directory)
    params = manifest.params()
    out_path = Path(_require(args, config, "out"))
    failed = set(manifest.failed)
    nodes = _cfg(args, config, "nodes")
    if nodes:
        wanted = sorted(set(_parse_nodes(nodes)))
    else:
        wanted = [i for i in range(params.n) if i not in failed]
    for i in wanted:
        if not 0 <= i < params.n:
            raise CliError(f"node {i} out of range [0,{params.n})")
        if i in failed:
            raise CliError(f"node {i} is failed; repair first or pick other nodes")
    if len(wanted) < params.k:
        raise CliError(f"need at least k={params.k} chunks, have {len(wanted)}")
    # decode_file uses the k lowest-indexed bodies, so chunks are read in
    # order until k of them verify; a bad one is named and skipped
    bodies, bad = {}, []
    for i in wanted:
        if len(bodies) == params.k:
            break
        column, problem = _checked_column(directory, manifest, params, i)
        if problem:
            print(f"skipped {problem}", file=sys.stderr)
            bad.append(i)
        else:
            bodies[i] = column
    if len(bodies) < params.k:
        raise CliError(f"need k={params.k} verified chunks, only {len(bodies)} of nodes "
                       f"{wanted} verify; bad nodes {bad}")
    data = storage.decode_file(bodies, params, manifest.original_length, manifest.stripe_count)
    storage.write_replacing(out_path, data)
    print(f"decoded {len(data)} bytes from nodes {sorted(bodies)} to {out_path}")
    return 0


def cmd_table(args) -> int:
    rows = list(metrics.DEFAULT_TABLE_ROWS)
    if args.extra:
        for part in args.extra.split(";"):
            dk, h = part.split(",")
            rows.append((int(dk), int(h)))
    table = metrics.comparison_table(rows)
    print(metrics.render_table_text(table))
    if args.csv:
        storage.write_replacing(Path(args.csv), (metrics.render_table_csv(table) + "\n").encode())
        print(f"csv written to {args.csv}")
    return 0


def cmd_params_check(args) -> int:
    config = _load_config(args.config)
    params = _params_from(args, config)
    b = metrics.bounds(params)
    g = metrics.g_ratio(params.d - params.k, params.h)
    print(f"valid: n={params.n} k={params.k} d={params.d} h={params.h}")
    print(f"  r=n-k={params.r}  s=d-k+1={params.s}  planes=d-k+h={params.planes}")
    print(f"  N=(d-k+h)*s^n={params.N} symbols/node, message kN={params.message_length}")
    print(f"  field p={params.p}, lambdas={params.lambdas}, mus={params.mus}")
    print(f"  bounds: single={b.single} centralized={b.centralized} "
          f"cooperative={b.cooperative} access={b.access}")
    print(f"  per-helper access N*G = {params.N * g} (G={g} ~ {float(g):.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mscr",
        description="minimum-storage cooperative-regenerating code: encode, repair, account",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp):
        sp.add_argument("--n", type=int)
        sp.add_argument("--k", type=int)
        sp.add_argument("--d", type=int)
        sp.add_argument("--h", type=int)
        sp.add_argument("--p", type=int, help="field modulus (default: smallest valid prime)")
        sp.add_argument("--config", help="JSON config file; flags win")

    sp = sub.add_parser("encode", help="encode a file into n node chunks")
    add_params(sp)
    sp.add_argument("--input", help="input file")
    sp.add_argument("--random-bytes", dest="random_bytes", type=int,
                    help="generate this many random input bytes instead of --input")
    sp.add_argument("--seed", type=int, help="rng seed for --random-bytes (default 0)")
    sp.add_argument("--out", help="output directory")
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("fail", help="quarantine exactly h node chunks")
    sp.add_argument("--dir")
    sp.add_argument("--nodes", help="comma-separated node indices")
    sp.add_argument("--config", help="JSON config file; flags win")
    sp.set_defaults(func=cmd_fail)

    sp = sub.add_parser("repair", help="cooperatively repair the failed nodes")
    sp.add_argument("--dir")
    sp.add_argument("--helpers", help="comma-separated helper indices (exactly d)")
    sp.add_argument("--transcript", help="path for the stripe-0 transcript (default <dir>/transcript.txt)")
    sp.add_argument("--csv", help="also write metrics as CSV")
    sp.add_argument("--config", help="JSON config file; flags win")
    sp.set_defaults(func=cmd_repair)

    sp = sub.add_parser("verify", help="check chunk checksums and parity")
    sp.add_argument("--dir", required=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("decode", help="decode the original file from any k chunks")
    sp.add_argument("--dir")
    sp.add_argument("--out")
    sp.add_argument("--nodes", help="node indices to decode from (default: all available)")
    sp.add_argument("--config", help="JSON config file; flags win")
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("table", help="print the access-comparison table")
    sp.add_argument("--extra", help='extra rows as "dk,h;dk,h"')
    sp.add_argument("--csv", help="also write the table as CSV")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("params-check", help="validate parameters and print derived values")
    add_params(sp)
    sp.set_defaults(func=cmd_params_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
