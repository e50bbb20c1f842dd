"""Run one `mscr` CLI command in this process with its layers traced.

Usage: python3 perfbench/tracer.py SPANS_OUT -- <mscr argv...>

Before calling `mscr.cli.main(argv)`, every layer's public entry point is
replaced, at the name its caller looks up, by a wrapper that records a span
(name, start, end, parent span).  Spans stay in memory.  The objects that the
counts are derived from (chunk paths, repair transcripts) are only referenced
while the command runs; the counts themselves are computed after `main`
returns, so no counting work falls inside a timed span.  Everything is written
to SPANS_OUT as JSON when the command is done.

The environment variable PERFBENCH_SPAWN_T holds the `time.time()` at which
the parent started this process, so start-up plus `import mscr.cli` can be
measured here.
"""

from __future__ import annotations

import json
import os
import sys
import time

import mscr.cli

IMPORT_S = time.time() - float(os.environ["PERFBENCH_SPAWN_T"])

from mscr import cli, code, oracle, repair, storage  # noqa: E402  (already loaded)
from mscr.metrics import RepairMetrics  # noqa: E402

# (module, attribute the caller looks up, span name)
ENTRY_POINTS = [
    (cli, "cmd_encode", "cli.encode"),
    (cli, "cmd_repair", "cli.repair"),
    (cli, "cmd_verify", "cli.verify"),
    (cli, "cmd_decode", "cli.decode"),
    (cli, "run_repair", "repair.run_repair"),
    (cli, "residuals_zero_array", "code.residuals"),
    (code, "reduction_operator", "field.reduction_operator"),
    (repair, "matrix_inverse", "field.matrix_inverse"),
    # storage imports these from mscr.code at call time
    (code, "encode", "code.encode"),
    (code, "reconstruct", "code.reconstruct"),
    (storage, "pack_bytes", "storage.pack"),
    (storage, "unpack_symbols", "storage.unpack"),
    (storage, "read_chunk", "storage.read_chunk"),
    (storage, "write_chunk", "storage.write_chunk"),
    (storage, "sha256_file", "storage.sha256"),
    (storage, "encode_file", "storage.encode_file"),
    (storage, "decode_file", "storage.decode_file"),
    (oracle, "recount", "oracle.recount"),
]

# span name -> how to pick, from (args, result), the object a count needs later
KEEP = {
    "storage.read_chunk": lambda args, result: args[0],
    "storage.sha256": lambda args, result: args[0],
    "storage.write_chunk": lambda args, result: args[0],
    "repair.run_repair": lambda args, result: result[1],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.kept: dict[str, list] = {name: [] for name in KEEP}

    def wrap(self, fn, name):
        keep = KEEP.get(name)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if keep is not None:
                self.kept[name].append(keep(args, result))
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every entry point; return those the program no longer has.

        A missing one is left untraced (its metrics read 0) rather than
        failing the command, so a later refactor of the program still runs.
        """
        missing = []
        for module, attr, name in ENTRY_POINTS:
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(getattr(module, attr), name))
            else:
                missing.append(f"{module.__name__}.{attr}")
        if "from_run" in RepairMetrics.__dict__:
            from_run = RepairMetrics.__dict__["from_run"].__func__
            RepairMetrics.from_run = classmethod(self.wrap(from_run, "metrics.from_run"))
        else:
            missing.append("mscr.metrics.RepairMetrics.from_run")
        return missing

    def counts(self) -> dict:
        size = os.path.getsize
        transcripts = self.kept["repair.run_repair"]
        phase_symbols = {"download": 0, "cooperative": 0}
        for t in transcripts:
            for m in t.messages:
                phase_symbols[m.phase] += m.count
        return {
            "read_chunk_bytes": sum(size(p) for p in self.kept["storage.read_chunk"]),
            "sha256_bytes": sum(size(p) for p in self.kept["storage.sha256"]),
            "bytes_written": sum(size(p) for p in self.kept["storage.write_chunk"]),
            "repair_stripes": len(transcripts),
            "symbols_download": phase_symbols["download"],
            "symbols_cooperative": phase_symbols["cooperative"],
            "helper_access_symbols": sum(
                log.count() for t in transcripts for log in t.access_logs.values()
            ),
        }


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT -- <mscr argv...>")
    tracer = Tracer()
    missing = tracer.install()
    rc = cli.main(argv)
    with open(out_path, "w") as fh:
        json.dump({
            "import_s": IMPORT_S,
            "missing": missing,
            "spans": tracer.spans,
            "counts": tracer.counts(),
        }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
