"""Command-line tool: encode files into node chunks, fail nodes, repair
cooperatively, verify, decode, and print the access-comparison table.

Configuration comes from flags, optionally backed by a JSON config file
(--config); flags win over config values.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import metrics, oracle, storage
from .code import NodeVector, failing_checks, validate_params
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
    path = _chunk_path(directory, manifest, node)
    try:
        header, symbols = storage.read_chunk(path, manifest.chunks[str(node)]["sha256"])
    except storage.ChecksumMismatchError as exc:
        raise storage.ChecksumMismatchError(f"node {node}: {exc}") from None
    if (header.n, header.k, header.d, header.h, header.p) != (
        params.n, params.k, params.d, params.h, params.p,
    ):
        raise CliError(f"chunk for node {node} was written with different parameters")
    if header.node_index != node:
        raise CliError(f"chunk file for node {node} claims index {header.node_index}")
    if header.payload_len != manifest.stripe_count * params.N:
        raise CliError(f"chunk for node {node} has wrong payload length")
    return symbols


def cmd_encode(args) -> int:
    config = _load_config(args.config)
    params = _params_from(args, config)
    out_dir = Path(_require(args, config, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    input_path = _cfg(args, config, "input")
    random_bytes = _cfg(args, config, "random_bytes")
    if (input_path is None) == (random_bytes is None):
        raise CliError("give exactly one of --input or --random-bytes")
    if input_path is not None:
        data = Path(input_path).read_bytes()
    else:
        seed = int(_cfg(args, config, "seed", 0))
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=int(random_bytes), dtype=np.uint8).tobytes()
        source = out_dir / "source.bin"
        source.write_bytes(data)
        print(f"wrote generated input to {source}")

    bodies, original_length, stripes = storage.encode_file(data, params)
    bps = storage.bits_per_symbol(params.p)
    chunks = {}
    for i in range(params.n):
        header = storage.ChunkHeader(
            storage.FORMAT_VERSION, params.n, params.k, params.d, params.h,
            params.p, i, stripes * params.N, bps, params.lambdas, params.mus,
        )
        name = storage.chunk_name(i)
        storage.write_chunk(out_dir / name, header, bodies[i])
        chunks[str(i)] = {"file": name, "sha256": storage.sha256_file(out_dir / name)}
    manifest = storage.Manifest(
        format=storage.FORMAT_VERSION,
        n=params.n, k=params.k, d=params.d, h=params.h, p=params.p,
        lambdas=params.lambdas, mus=params.mus,
        bits_per_symbol=bps, original_length=original_length,
        stripe_count=stripes, chunks=chunks, failed=[],
    )
    manifest.save(out_dir)
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
    if len(helpers) != params.d:
        raise CliError(f"need exactly d={params.d} helpers, got {len(helpers)}")
    if set(helpers) & set(failed):
        raise CliError(f"helpers {sorted(set(helpers) & set(failed))} are failed")
    job = RepairJob(params, tuple(failed), tuple(helpers))

    helper_bodies = {u: _read_column(directory, manifest, params, u) for u in helpers}
    stripes = manifest.stripe_count
    repaired_bodies = {i: np.zeros(stripes * params.N, dtype=np.int64) for i in failed}
    first_transcript = None
    for st in range(stripes):
        sl = slice(st * params.N, (st + 1) * params.N)
        cols = {
            u: NodeVector(u, body[sl].reshape(params.planes, params.s_pow_n))
            for u, body in helper_bodies.items()
        }
        repaired, transcript = run_repair(job, cols)
        for col in repaired:
            repaired_bodies[col.index][sl] = col.symbols.reshape(-1)
        if st == 0:
            first_transcript = transcript

    # restore chunk files and verify against recorded checksums
    bps = manifest.bits_per_symbol
    mismatched = []
    for i in failed:
        header = storage.ChunkHeader(
            storage.FORMAT_VERSION, params.n, params.k, params.d, params.h,
            params.p, i, stripes * params.N, bps, params.lambdas, params.mus,
        )
        path = _chunk_path(directory, manifest, i)
        storage.write_chunk(path, header, repaired_bodies[i])
        digest = storage.sha256_file(path)
        if digest != manifest.chunks[str(i)]["sha256"]:
            mismatched.append(i)
    if mismatched:
        raise CliError(f"restored chunks fail checksum verification: {mismatched}")
    for i in failed:
        quarantined = _chunk_path(directory, manifest, i).with_name(
            storage.chunk_name(i) + storage.QUARANTINE_SUFFIX
        )
        if quarantined.exists():
            quarantined.unlink()
    manifest.failed = []
    manifest.save(directory)

    measured = RepairMetrics.from_run(job, first_transcript)
    transcript_arg = _cfg(args, config, "transcript")
    transcript_path = Path(transcript_arg) if transcript_arg else directory / "transcript.txt"
    text = first_transcript.export_text()
    transcript_path.write_text(text)
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
    print("\n".join(lines))
    csv_arg = _cfg(args, config, "csv")
    if csv_arg:
        csv_lines = [
            "stripes,beta1,beta2,gamma_per_stripe,gamma_total,gamma_A_per_stripe,"
            "gamma_A_total,per_helper_access,N,g_exact,cooperative_bound,access_bound",
            f"{stripes},{measured.beta1},{measured.beta2},{measured.gamma},"
            f"{measured.gamma * stripes},{measured.gamma_A},{measured.gamma_A * stripes},"
            f"{per_helper},{params.N},{g},{b.cooperative},{b.access}",
        ]
        Path(csv_arg).write_text("\n".join(csv_lines) + "\n")
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
        path = _chunk_path(directory, manifest, i)
        if not path.exists():
            problems.append(f"node {i}: chunk missing at {path}")
            continue
        try:
            column = _read_column(directory, manifest, params, i)
        except storage.ChecksumMismatchError:
            problems.append(f"node {i}: checksum mismatch")
            continue
        available[i] = column.reshape(stripes, params.planes, params.s_pow_n)
        print(f"node {i}: checksum OK")
    if len(available) == params.n:
        bad = failing_checks(params, [available[i] for i in range(params.n)]).any(axis=1)
        problems.extend(f"stripe {st}: parity checks fail" for st in np.flatnonzero(bad))
        if not bad.any():
            print(f"parity: all {stripes} stripe(s) satisfy every check")
    else:
        print("parity: skipped (not all chunks available)")
    for msg in problems:
        print(f"PROBLEM: {msg}", file=sys.stderr)
    return 1 if problems else 0


def cmd_decode(args) -> int:
    config = _load_config(args.config)
    directory = Path(_require(args, config, "dir"))
    manifest = storage.Manifest.load(directory)
    params = manifest.params()
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
    # decode_file uses the k lowest-indexed bodies, so only those are read
    bodies = {i: _read_column(directory, manifest, params, i) for i in wanted[: params.k]}
    data = storage.decode_file(bodies, params, manifest.original_length, manifest.stripe_count)
    out_path = Path(_require(args, config, "out"))
    out_path.write_bytes(data)
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
        Path(args.csv).write_text(metrics.render_table_csv(table) + "\n")
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
    except (CliError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
