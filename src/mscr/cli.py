"""Command-line tool: encode files into node chunks, fail nodes, repair
cooperatively, verify, decode, and print the access-comparison table.

Configuration comes from flags, optionally backed by a JSON config file
(--config) whose keys are options of the commands; flags win over config
values.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import stat
import sys
from contextlib import ExitStack
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import metrics, oracle, storage
from .code import failing_checks, validate_params
from .metrics import RepairMetrics
from .repair import RepairJob, run_repair


def _is_int(value) -> bool:
    """A JSON integer (JSON true and false load as bool, an int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _merge_config(parser: argparse.ArgumentParser, args) -> None:
    """Fill every option not given as a flag from the JSON object in the
    file --config.  One file may drive a whole experiment, so a key may be
    an option of any command, and nothing else.  Each value must have its
    option's type: a JSON integer for an integer option (a fraction is never
    truncated), a string for any other, and a node list may also be a list
    of JSON integers."""
    path = getattr(args, "config", None)
    if not path:
        return
    try:
        config = json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"config {path}: not JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    (commands,) = [action for action in parser._actions if action.dest == "command"]
    types = {action.dest: action.type for sp in commands.choices.values()
             for action in sp._actions if action.dest not in ("help", "config")}
    for key, value in config.items():
        if key not in types:
            raise ValueError(f"config {path}: key {key!r} is not an option of any command")
        if value is None:  # null leaves the option unset
            continue
        if types[key] is int:
            ok, want = _is_int(value), "an integer"
        elif key in ("nodes", "helpers"):  # node lists (_parse_nodes), also [1, 4]
            ok = isinstance(value, str) or (isinstance(value, list) and all(map(_is_int, value)))
            want = "a string or a list of integers"
        else:
            ok, want = isinstance(value, str), "a string"
        if not ok:
            raise ValueError(f"config {path}: key {key!r} must be {want}, got {value!r}")
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _parse_nodes(text) -> list[int]:
    """Node indices from "1,4" or "1 4", or from a list of integers; an
    index given twice is refused."""
    if isinstance(text, list):
        nodes = list(text)
    else:
        try:
            nodes = [int(tok) for tok in text.replace(",", " ").split()]
        except ValueError:
            raise ValueError(f"cannot parse node list {text!r}") from None
    for i in nodes:
        if nodes.count(i) > 1:
            raise ValueError(f"node {i} is listed twice in {text!r}")
    return nodes


def _require(args, key: str):
    val = getattr(args, key)
    if val is None:
        raise ValueError(f"missing required option --{key}")
    return val


def _params_from(args):
    for key in ("n", "k", "d", "h"):
        if getattr(args, key) is None:
            raise ValueError(f"missing required parameter --{key}")
    return validate_params(int(args.n), int(args.k), int(args.d), int(args.h),
                           p=None if args.p is None else int(args.p))


def _store(args):
    """(directory, manifest, params) of the store in --dir."""
    directory = Path(_require(args, "dir"))
    manifest = storage.Manifest.load(directory)
    return directory, manifest, manifest.params()


def _open_chunk(directory: Path, manifest: storage.Manifest, params,
                node: int) -> storage.ChunkReader:
    return storage.read_chunk(directory / storage.chunk_name(node),
                              manifest.chunks[str(node)]["sha256"], params, node,
                              manifest.stripe_count * params.N)


def _checked_chunk(directory: Path, manifest: storage.Manifest, params, node: int):
    """(open chunk, None) for a chunk that reads and agrees with the manifest,
    else (None, a one-line problem naming the node)."""
    try:
        return _open_chunk(directory, manifest, params, node), None
    except ValueError as exc:  # refused by read_chunk, which names the node
        return None, str(exc)
    except OSError as exc:  # unreadable
        return None, f"node {node}: {exc}"


def _refuse_store_file(directory: Path, manifest: storage.Manifest, option: str, path) -> None:
    """An output path must not be the manifest, a chunk or a quarantined
    chunk of the store: writing it would destroy the store."""
    files = [directory / storage.MANIFEST_NAME]
    for i in range(len(manifest.chunks)):
        chunk = directory / storage.chunk_name(i)
        files += [chunk, chunk.with_name(chunk.name + storage.QUARANTINE_SUFFIX)]
    if os.path.realpath(path) in {os.path.realpath(f) for f in files}:
        raise ValueError(f"{option} {path} is a file of the store in {directory}; nothing written")


def _open_input(stack: ExitStack, path):
    """(file, length, stat) of the input at `path`.  A regular file is read
    one block at a time, and its stat is returned so that a change while it
    is read can be refused; a pipe or device has no length to stream
    against, so it is read whole and its stat is None."""
    fh = stack.enter_context(open(path, "rb"))
    before = os.fstat(fh.fileno())
    if stat.S_ISREG(before.st_mode):
        return fh, before.st_size, before
    data = fh.read()
    return io.BytesIO(data), len(data), None


def cmd_encode(args) -> int:
    params = _params_from(args)
    out_dir = Path(_require(args, "out"))
    if (args.input is None) == (args.random_bytes is None):
        raise ValueError("give exactly one of --input or --random-bytes")
    if args.seed is not None and args.random_bytes is None:
        raise ValueError("--seed seeds --random-bytes only; it cannot be used with --input")
    for option, value in (("--random-bytes", args.random_bytes), ("--seed", args.seed)):
        if value is not None and value < 0:
            raise ValueError(f"{option} {value} must be a non-negative integer; nothing written")
    # no replace of n chunks and a manifest is atomic: a store is never overwritten
    if (out_dir / storage.MANIFEST_NAME).exists():
        raise ValueError(f"--out {out_dir} already holds a store; encode into a new directory")
    with ExitStack() as inputs:
        if args.input is not None:
            fh, original_length, before = _open_input(inputs, args.input)
        else:
            rng = np.random.default_rng(int(args.seed or 0))
            data = rng.integers(0, 256, size=int(args.random_bytes), dtype=np.uint8).tobytes()
            fh, original_length, before = io.BytesIO(data), len(data), None
        # the input is open before the store directory is made, and a failed
        # encode removes a directory it made
        made = not out_dir.exists()
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            if args.input is None:
                source = out_dir / "source.bin"
                storage.write_replacing(source, data)
            stripes = storage.stripes_for(original_length, params)
            with ExitStack() as stack:
                chunks = [stack.enter_context(storage.write_chunk(
                    out_dir / storage.chunk_name(i), params, i, stripes * params.N))
                    for i in range(params.n)]
                original_sha256 = storage.encode_file(fh, original_length, params, chunks)
                if before is not None:
                    after = os.fstat(fh.fileno())
                    if (after.st_size, after.st_mtime_ns) != (before.st_size, before.st_mtime_ns):
                        raise ValueError(f"input {args.input} changed while it was read; "
                                         "nothing written")
                digests = [chunk.sha256() for chunk in chunks]
            storage.Manifest.new(params, original_length, original_sha256, stripes,
                                 digests).save(out_dir)
        except BaseException:
            if made:
                shutil.rmtree(out_dir, ignore_errors=True)
            raise
    if args.input is None:  # named only once the store is committed
        print(f"wrote generated input to {source}")
    print(f"encoded {original_length} bytes into {params.n} chunks "
          f"({stripes} stripe(s) of kN={params.k * params.N} symbols, p={params.p})")
    return 0


def cmd_fail(args) -> int:
    directory, manifest, params = _store(args)
    nodes = sorted(_parse_nodes(_require(args, "nodes")))
    if len(nodes) != params.h:
        raise ValueError(f"repair supports exactly h={params.h} failures, got {len(nodes)}")
    for i in nodes:
        if not 0 <= i < params.n:
            raise ValueError(f"node {i} out of range [0,{params.n})")
    if manifest.failed:
        raise ValueError(f"nodes {sorted(manifest.failed)} are already failed; repair them first")
    paths = [directory / storage.chunk_name(i) for i in nodes]
    for i, path in zip(nodes, paths):
        if not path.exists():  # before any rename: a refused command changes nothing
            raise ValueError(f"chunk for node {i} not found at {path}")
    renamed = []
    try:
        for path in paths:
            path.rename(path.with_name(path.name + storage.QUARANTINE_SUFFIX))
            renamed.append(path)
        manifest.failed = nodes
        manifest.save(directory)
    except BaseException:  # the store keeps no chunk renamed that its manifest does not list
        for path in renamed:
            path.with_name(path.name + storage.QUARANTINE_SUFFIX).rename(path)
        raise
    print(f"quarantined nodes {nodes}")
    return 0


def _write_report(job: RepairJob, transcript, stripes: int, transcript_path: Path,
                  csv_path) -> list[str]:
    """Write the stripe-0 transcript and, when csv_path is set, the metrics
    CSV of a repair; return the report's lines."""
    params, failed, helpers = job.params, list(job.failed), list(job.helpers)
    measured = RepairMetrics.from_run(job, transcript)
    text = transcript.export_text()
    # checked before anything is written: a refused repair leaves no transcript
    recount = oracle.recount(text)
    if recount.gamma != measured.gamma:
        raise ValueError(f"transcript recount {recount.gamma} != measured gamma {measured.gamma}")
    storage.write_replacing(transcript_path, text.encode())

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
    if csv_path:
        csv_lines = [
            "stripes,beta1,beta2,gamma_per_stripe,gamma_total,gamma_A_per_stripe,"
            "gamma_A_total,per_helper_access,N,g_exact,cooperative_bound,access_bound",
            f"{stripes},{measured.beta1},{measured.beta2},{measured.gamma},"
            f"{measured.gamma * stripes},{measured.gamma_A},{measured.gamma_A * stripes},"
            f"{per_helper},{params.N},{g},{b.cooperative},{b.access}",
        ]
        storage.write_replacing(Path(csv_path), ("\n".join(csv_lines) + "\n").encode())
    return lines


def cmd_repair(args) -> int:
    directory, manifest, params = _store(args)
    failed = sorted(manifest.failed)
    if not failed:
        raise ValueError("no failed nodes recorded in the manifest")
    helpers = sorted(_parse_nodes(_require(args, "helpers")))
    job = RepairJob(params, tuple(failed), tuple(helpers))  # checks the count and overlap
    transcript_path = Path(args.transcript or directory / "transcript.txt")
    csv_arg = args.csv
    _refuse_store_file(directory, manifest, "--transcript", transcript_path)
    if csv_arg:
        _refuse_store_file(directory, manifest, "--csv", csv_arg)
        if os.path.realpath(csv_arg) == os.path.realpath(transcript_path):
            raise ValueError(f"--csv {csv_arg} and --transcript {transcript_path} name one "
                             "file; nothing written")

    stripes = manifest.stripe_count
    # the restored chunks are committed as this block ends, after the
    # transcript and the CSV, so an output that cannot be written stops the
    # command before the store changes
    with ExitStack() as stack:
        sources = [stack.enter_context(_open_chunk(directory, manifest, params, u))
                   for u in helpers]
        restored = [stack.enter_context(storage.write_chunk(
            directory / storage.chunk_name(i), params, i, stripes * params.N)) for i in failed]
        for start, stop in storage.blocks(params, stripes):
            block = [source.block(start, stop) for source in sources]
            # repaired[st, j]: failed node j's column of stripe start + st
            repaired_block = np.empty((stop - start, params.h, params.planes, params.s_pow_n),
                                      dtype=np.uint16)
            for st in range(stop - start):
                repaired, transcript = run_repair(job, {u: col[st] for u, col in zip(helpers, block)})
                repaired_block[st] = tuple(repaired.values())
                if start + st == 0:  # a store holds at least one stripe
                    first_transcript = transcript
            for j, chunk in enumerate(restored):
                chunk.write(start, repaired_block[:, j])
            del block, repaired_block  # freed before the next block is read

        # every restored chunk must match its recorded checksum before any is committed
        mismatched = [i for i, chunk in zip(failed, restored)
                      if chunk.sha256() != manifest.chunks[str(i)]["sha256"]]
        if mismatched:
            raise ValueError(", ".join(f"node {i}" for i in mismatched)
                             + ": restored chunk fails checksum verification; nothing written")

        lines = _write_report(job, first_transcript, stripes, transcript_path, csv_arg)
    for i in failed:
        path = directory / storage.chunk_name(i)
        path.with_name(path.name + storage.QUARANTINE_SUFFIX).unlink(missing_ok=True)
    manifest.failed = []
    manifest.save(directory)

    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    directory, manifest, params = _store(args)
    failed = set(manifest.failed)
    stripes = manifest.stripe_count
    problems = []
    with ExitStack() as stack:
        chunks = {}
        for i in range(params.n):
            if i in failed:
                print(f"node {i}: FAILED (quarantined)")
                continue
            chunk, problem = _checked_chunk(directory, manifest, params, i)
            if problem:
                problems.append(problem)
                continue
            chunks[i] = stack.enter_context(chunk)
            print(f"node {i}: checksum OK")
        # the parity sweep needs every chunk, and stops after a block that does not read
        skipped = None if len(chunks) == params.n else "not all chunks available"
        bad = np.zeros(stripes, dtype=bool)
        for start, stop in storage.blocks(params, stripes):
            if skipped:
                break
            block = []
            for i in range(params.n):
                try:
                    block.append(chunks[i].block(start, stop))
                except storage.BadBlockError as exc:  # named once: no later read of node i
                    problems.append(str(exc))
                    del chunks[i]
                    skipped = f"node {i} does not read"
            if not skipped:
                bad[start:stop] = failing_checks(params, block).any(axis=1)
            del block  # freed before the next block is read
        if skipped:
            print(f"parity: skipped ({skipped})")
        else:
            problems.extend(f"stripe {st}: parity checks fail" for st in np.flatnonzero(bad))
            if not bad.any():
                print(f"parity: all {stripes} stripe(s) satisfy every check")
        # the k systematic chunks hold the file verbatim: decode it from them
        if all(i in chunks for i in range(params.k)):
            try:
                with open(os.devnull, "wb") as sink:
                    manifest.check_decoded(storage.decode_file(
                        {i: chunks[i] for i in range(params.k)}, params,
                        manifest.original_length, stripes, sink))
            except storage.BadBlockError as exc:
                problems.append(str(exc))
            except ValueError as exc:
                problems.append(f"manifest: {exc}")
    for msg in problems:
        print(f"PROBLEM: {msg}", file=sys.stderr)
    return 1 if problems else 0


def cmd_decode(args) -> int:
    directory, manifest, params = _store(args)
    out_path = Path(_require(args, "out"))
    _refuse_store_file(directory, manifest, "--out", out_path)
    failed = set(manifest.failed)
    if args.nodes is None:
        wanted = [i for i in range(params.n) if i not in failed]
    elif not (wanted := sorted(_parse_nodes(args.nodes))):
        raise ValueError("--nodes lists no node; list some, or leave it out to decode from "
                         "every available node")
    for i in wanted:
        if not 0 <= i < params.n:
            raise ValueError(f"node {i} out of range [0,{params.n})")
        if i in failed:
            raise ValueError(f"node {i} is failed; repair first or pick other nodes")
    if len(wanted) < params.k:
        raise ValueError(f"need at least k={params.k} chunks, have {len(wanted)}")
    with ExitStack() as stack:
        # decode_file uses the k lowest-indexed chunks, so chunks are opened
        # in order until k of them verify; a bad one is named and skipped
        chunks, bad, pending = {}, [], list(wanted)

        def open_until_k():
            while len(chunks) < params.k and pending:
                i = pending.pop(0)
                chunk, problem = _checked_chunk(directory, manifest, params, i)
                if problem:
                    print(f"skipped {problem}", file=sys.stderr)
                    bad.append(i)
                else:
                    chunks[i] = stack.enter_context(chunk)
            if len(chunks) < params.k:
                raise ValueError(f"need k={params.k} verified chunks, only {len(chunks)} of nodes "
                                 f"{wanted} verify; bad nodes {sorted(bad)}")

        open_until_k()
        # every check passes before the output replaces out_path
        with storage.replacing(out_path) as out:
            while True:
                try:
                    sha256 = storage.decode_file(chunks, params, manifest.original_length,
                                                 manifest.stripe_count, out)
                    break
                except storage.BadBlockError as exc:
                    # skipped like a chunk that does not verify; decoding starts again
                    print(f"skipped {exc}", file=sys.stderr)
                    bad.append(exc.node)
                    chunks.pop(exc.node).close()
                    open_until_k()
                    out.seek(0)
                    out.truncate()
            manifest.check_decoded(sha256)
    print(f"decoded {manifest.original_length} bytes from nodes {sorted(chunks)} to {out_path}")
    return 0


def cmd_table(args) -> int:
    rows = list(metrics.DEFAULT_TABLE_ROWS)
    if args.extra:
        for part in args.extra.split(";"):
            try:
                dk, h = map(int, part.split(","))
            except ValueError:
                raise ValueError(f"--extra row {part!r} is not two integers dk,h; "
                                 'give rows as "dk,h;dk,h"') from None
            rows.append((dk, h))
    table = metrics.comparison_table(rows)
    print(metrics.render_table_text(table))
    if args.csv:
        storage.write_replacing(Path(args.csv), (metrics.render_table_csv(table) + "\n").encode())
        print(f"csv written to {args.csv}")
    return 0


def cmd_params_check(args) -> int:
    params = _params_from(args)
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
        _merge_config(parser, args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
