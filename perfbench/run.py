"""The mscr benchmark: the full CLI file lifecycle, one fresh process per stage.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run generates its input bytes from the seed, then runs the lifecycle
encode, fail (untimed), repair, verify, decode from the systematic nodes and
decode from parity, each stage as its own `python -m mscr ...` process, as a
user would.  Every real invocation pays interpreter start, the numpy import and
the cold operator build again, so an in-process warm loop would measure a
program nobody runs.  The client is a closed loop: one command at a time.

The lifecycle repeats until the --seconds budget is spent (at least once).
With --trace 0 the run starts with SETUP_REPS set-up measurements, each a
fresh-process encode of a one-stripe input, and every timed stage runs between two runs of perfbench/calibrate.py,
a fixed reference process that does not use mscr.  A shared machine runs in
slow and fast phases that last minutes and move every wall time together by up
to 1.7x, so a stage's time is reported in reference seconds: its wall time
divided by the mean wall time of the reference runs before and after it, times
REF_NOMINAL_S.  Each stage reports the median of these over its repetitions.
The raw wall times are printed too.  With --trace 1
each stage runs as a pair: untraced, and under perfbench/tracer.py, which
wraps every layer's entry point.  The per-layer numbers come from the traced
runs; the untraced twin gives the tracing overhead.

Every command's output is checked: both decodes must equal the input byte for
byte, repair and verify must exit 0, and repair must report gamma total equal
to the cut-set bound times the stripe count.  Failed checks count in `failed`,
and the command then exits 1.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
CALIBRATE = HERE / "calibrate.py"
WORK_ROOT = ROOT / ".perfbench_work"

STAGES = ("encode", "repair", "verify", "decode_sys", "decode_parity")
# Set-up: a fresh-process encode of a one-stripe input, which is start-up,
# parameter checks and the cold operator build.
ALL_STAGES = ("setup", *STAGES)
SETUP_REPS = 3
# The wall time of perfbench/calibrate.py on the machine the benchmark was
# tuned on (2 vCPUs of a shared Intel Xeon host, 2.1 GHz): one reference
# second is a second of that machine in its typical phase.
REF_NOMINAL_S = 0.45
# Stop starting new repetitions after this long, so a run always ends well
# within the 180 s a run may take.
DEADLINE_S = 150.0
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
MB = 1e6


@dataclass(frozen=True)
class Workload:
    n: int
    k: int
    d: int
    h: int
    p: int
    input_bytes: int
    failed: tuple[int, ...]
    helpers: tuple[int, ...]
    parity: tuple[int, ...]  # k nodes, not all systematic: full reconstruction

    @property
    def s(self) -> int:
        return self.d - self.k + 1

    @property
    def N(self) -> int:
        return (self.d - self.k + self.h) * self.s**self.n

    @property
    def bits_per_symbol(self) -> int:
        return 8 if self.p > 255 else self.p.bit_length() - 1

    def stripes(self, input_bytes: int) -> int:
        symbols = -(-input_bytes * 8 // self.bits_per_symbol)
        return max(1, -(-symbols // (self.k * self.N)))

    @property
    def stripe_bytes(self) -> int:
        return self.k * self.N * self.bits_per_symbol // 8

    @property
    def gamma_per_stripe(self) -> Fraction:
        """Cut-set bound h(d+h-1)N/(d-k+h)."""
        d, k, h = self.d, self.k, self.h
        return Fraction(h * (d + h - 1) * self.N, d - k + h)

    @property
    def access_per_stripe(self) -> Fraction:
        """d helpers reading N*G(d-k,h) symbols each."""
        dk, h = self.d - self.k, self.h
        g = 1 - Fraction(dk, dk + h) * (1 - Fraction(1, dk + 1)) ** h
        return self.d * self.N * g

    def param_args(self) -> list[str]:
        return ["--n", str(self.n), "--k", str(self.k), "--d", str(self.d), "--h", str(self.h),
                "--p", str(self.p)]


# Why each workload is here is recorded in BENCHMARK.json and layer_map.json.
# wide-s4 runs here but is not listed in BENCHMARK.json: its metrics are
# dominated by the pure-Python operator build and process start-up, which
# drift together by up to half on a shared machine (see layer_map.json).
WORKLOADS = {
    "narrow-h2": Workload(6, 3, 4, 2, 257, 1 << 20, (1, 4), (0, 2, 3, 5), (3, 4, 5)),
    "wide-s4": Workload(5, 1, 4, 1, 257, 128 << 10, (0,), (1, 2, 3, 4), (4,)),
    "coop-h3-p7": Workload(6, 2, 3, 3, 7, 128 << 10, (0, 2, 5), (1, 3, 4), (4, 5)),
}

E2E_UNITS = {
    "encode_MBps": "MB/s",
    "repair_MBps": "MB/s",
    "verify_MBps": "MB/s",
    "decode_sys_MBps": "MB/s",
    "decode_parity_MBps": "MB/s",
    "setup_s": "s",
    "peak_rss_MB": "MB",
    "disk_bytes_per_input_byte": "ratio",
}

# Layer times are self times: a span's duration minus its wrapped children.
LAYER_TIMES = {
    "cli.encode.self_s": "cli.encode",
    "cli.repair.self_s": "cli.repair",
    "cli.verify.self_s": "cli.verify",
    "cli.decode.self_s": "cli.decode",
    "storage.encode_file.self_s": "storage.encode_file",
    "storage.decode_file.self_s": "storage.decode_file",
    "storage.pack_s": "storage.pack",
    "storage.unpack_s": "storage.unpack",
    "storage.read_chunk_s": "storage.read_chunk",
    "storage.write_chunk_s": "storage.write_chunk",
    "storage.sha256_s": "storage.sha256",
    "code.encode_s": "code.encode",
    "code.reconstruct_s": "code.reconstruct",
    "code.residuals_s": "code.residuals",
    "field.reduction_operator_s": "field.reduction_operator",
    "field.matrix_inverse_s": "field.matrix_inverse",
    "repair.run_repair_s": "repair.run_repair",
    "metrics.from_run_s": "metrics.from_run",
    "oracle.recount_s": "oracle.recount",
}
LAYER_CALLS = {
    "code.encode_calls": "code.encode",
    "code.reconstruct_calls": "code.reconstruct",
    "code.residuals_calls": "code.residuals",
    "field.reduction_operator_calls": "field.reduction_operator",
    "repair.run_repair_calls": "repair.run_repair",
}
LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_CALLS},
    "process.import_s": "s",
    "storage.bytes_read": "B",
    "storage.bytes_written": "B",
    "storage.repair_read_over_access": "ratio",
    "repair.symbols_download": "symbols",
    "repair.symbols_cooperative": "symbols",
    "repair.helper_access_symbols": "symbols",
    "repair.gamma_over_bound": "ratio",
    "repair.access_over_bound": "ratio",
    "setup.field.reduction_operator_s": "s",
    **{f"tracing.{stage}.overhead_s": "s" for stage in ALL_STAGES},
}
# Counts that must repeat exactly for one seed and workload.
EXACT_COUNTS = (
    "read_chunk_bytes", "sha256_bytes", "bytes_written", "repair_stripes",
    "symbols_download", "symbols_cooperative", "helper_access_symbols",
    *(f"calls:{name}" for name in LAYER_CALLS.values()),
)
GAMMA_TOTAL = re.compile(r"gamma total\s*:\s*(\d+)")


@dataclass
class Proc:
    rc: int
    wall: float
    maxrss_kb: int
    log: str


class Bench:
    def __init__(self, name: str, data: bytes, work: Path, reference: bytes):
        self.name = name
        self.wl = wl = WORKLOADS[name]
        self.data = data
        self.reference = reference  # what decode output is compared against
        self.work = work
        self.input = work / "input.bin"
        self.input.write_bytes(data)
        self.store = work / "store"
        self.setup_store = work / "setup_store"
        self.one_stripe = work / "one_stripe.bin"
        self.one_stripe.write_bytes(data[: wl.stripe_bytes])
        self.stripes = wl.stripes(len(data))
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # distinct messages, for the report
        self.walls: dict[str, list[float]] = {stage: [] for stage in ALL_STAGES}
        self.traced_walls: dict[str, list[float]] = {stage: [] for stage in ALL_STAGES}
        self.traces: dict[str, list[dict]] = {stage: [] for stage in ALL_STAGES}
        # untraced stage wall / mean wall of the reference runs either side of it
        self.ratios: dict[str, list[float]] = {stage: [] for stage in ALL_STAGES}
        self.ref_walls: list[float] = []
        self.ref_digest: str | None = None
        self.peak_rss_kb = 0
        self.disk_bytes: set[int] = set()
        self.notes: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    # -- processes -------------------------------------------------------------

    def spawn(self, argv: list[str], env: dict) -> Proc:
        log_path = self.work / "last.log"
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, cwd=self.work)
            watchdog = threading.Timer(max(5.0, 175.0 - self.elapsed()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_maxrss, log_path.read_text(errors="replace"))

    def command(self, what: str, args: list[str], trace_out: Path | None = None) -> Proc:
        """Run one mscr command in a fresh process; count it, check its exit code."""
        env = self.env
        if trace_out is None:
            argv = [sys.executable, "-m", "mscr", *args]
        else:
            argv = [sys.executable, str(TRACER), str(trace_out), "--", *args]
            env = dict(env, PERFBENCH_SPAWN_T=repr(time.time()))
        proc = self.spawn(argv, env)
        self.attempted += 1
        if proc.rc != 0:
            self.fail(f"{what}: exit {proc.rc}: {proc.log.strip()[-300:]}")
        return proc

    def calibrate(self) -> float:
        """One run of the calibration process; its output must never change."""
        proc = self.spawn([sys.executable, str(CALIBRATE)], self.env)
        digest = proc.log.strip()
        if proc.rc != 0 or digest != (self.ref_digest or digest):
            raise RuntimeError(f"calibrate.py: exit {proc.rc}: {proc.log.strip()[-300:]}")
        self.ref_digest = digest
        self.ref_walls.append(proc.wall)
        return proc.wall

    def fail(self, message: str) -> None:
        """Record a failed command or check; it counts once in `failed`."""
        self.failed += 1
        if message not in self.failures:
            self.failures.append(message)

    # -- stages ------------------------------------------------------------------

    def decoded(self, stage: str) -> Path:
        return self.work / f"out_{stage}.bin"

    def stage_args(self, stage: str) -> list[str]:
        wl, store = self.wl, str(self.store)
        nodes = lambda xs: ",".join(map(str, xs))  # noqa: E731
        return {
            "setup": ["encode", *wl.param_args(), "--input", str(self.one_stripe),
                      "--out", str(self.setup_store)],
            "encode": ["encode", *wl.param_args(), "--input", str(self.input), "--out", store],
            "repair": ["repair", "--dir", store, "--helpers", nodes(wl.helpers)],
            "verify": ["verify", "--dir", store],
            "decode_sys": ["decode", "--dir", store, "--out", str(self.decoded(stage))],
            "decode_parity": ["decode", "--dir", store, "--out", str(self.decoded(stage)),
                              "--nodes", nodes(wl.parity)],
        }[stage]

    def run_stage(self, stage: str, traced: bool) -> None:
        """One measured execution of a stage, with its untimed preparation and checks."""
        if stage in ("setup", "encode"):
            shutil.rmtree(self.setup_store if stage == "setup" else self.store, ignore_errors=True)
        if stage == "repair":
            self.command("fail", ["fail", "--dir", str(self.store),
                                  "--nodes", ",".join(map(str, self.wl.failed))])
        trace_out = self.work / f"trace_{stage}.json" if traced else None
        # no output of an earlier repetition may pass for this one's
        for stale in (trace_out, self.decoded(stage)):
            if stale is not None:
                stale.unlink(missing_ok=True)
        proc = self.command(stage, self.stage_args(stage), trace_out)
        (self.traced_walls if traced else self.walls)[stage].append(proc.wall)
        if not traced:
            self.peak_rss_kb = max(self.peak_rss_kb, proc.maxrss_kb)
        if proc.rc != 0:
            return
        if traced:
            if not trace_out.exists():
                self.fail(f"{stage}: the traced run wrote no spans")
                return
            self.traces[stage].append(json.loads(trace_out.read_text()))
        if stage == "encode":
            self.disk_bytes.add(sum(f.stat().st_size for f in self.store.glob("node*.mscr")))
        elif stage == "repair":
            expected = self.wl.gamma_per_stripe * self.stripes
            found = GAMMA_TOTAL.search(proc.log)
            if found is None or int(found.group(1)) != expected:
                self.fail(f"repair: gamma total {found and found.group(1)} != bound {expected}")
        elif stage.startswith("decode"):
            out = self.decoded(stage)
            if not out.exists() or out.read_bytes() != self.reference:
                self.fail(f"{stage}: output differs from the input")

    def measure(self, stage: str) -> None:
        """An untraced run of a stage between two reference runs."""
        before = self.ref_walls[-1] if self.ref_walls else self.calibrate()
        self.run_stage(stage, False)
        after = self.calibrate()
        self.ratios[stage].append(self.walls[stage][-1] / ((before + after) / 2))

    def run(self, seconds: float, trace: bool) -> dict:
        """Repeat the lifecycle until the budget is spent (at least once).

        Whole lifecycles are repeated, rather than each stage in a block, so
        every stage samples the machine across the whole run.
        """
        if trace:
            rep = 0
            while True:
                r0 = time.perf_counter()
                for stage in ALL_STAGES:  # an untraced and a traced twin, alternating the order
                    for traced in ((False, True) if rep % 2 == 0 else (True, False)):
                        self.run_stage(stage, traced)
                rep += 1
                last = time.perf_counter() - r0
                if self.elapsed() + last > seconds or self.elapsed() > DEADLINE_S:
                    break
        else:
            # Untimed warm-up: the page cache and the program's .pyc files.
            self.command("warm-up", self.stage_args("setup"))
            # Set-up's bound is on its median only, so it is measured
            # SETUP_REPS times, first, and the rest of the run goes to the stages.
            for _ in range(SETUP_REPS):
                self.measure("setup")
            # The budget is checked before each stage, against its last cost, so
            # the run may end inside a lifecycle; every sample taken still counts.
            for i, stage in enumerate(itertools.cycle(STAGES)):
                cost = self.walls[stage][-1] + self.ref_walls[-1] if self.walls[stage] else 0.0
                if i >= len(STAGES) and (self.elapsed() + cost > seconds
                                         or self.elapsed() > DEADLINE_S):
                    break
                self.measure(stage)
        if len(self.disk_bytes) > 1:
            self.fail(f"encode wrote different sizes across repetitions: {sorted(self.disk_bytes)}")
        if trace:
            return self.layer_metrics()
        ref_s = {stage: REF_NOMINAL_S * statistics.median(self.ratios[stage])
                 for stage in ALL_STAGES}
        mb = len(self.data) / MB
        return {
            **{f"{stage}_MBps": mb / ref_s[stage] for stage in STAGES},
            "setup_s": ref_s["setup"],
            "peak_rss_MB": self.peak_rss_kb * 1024 / MB,
            "disk_bytes_per_input_byte": max(self.disk_bytes, default=0) / len(self.data),
        }

    # -- traced run ----------------------------------------------------------------

    def check_repeats(self, counts: dict) -> None:
        """The exact counts must repeat between runs of one program on one input.

        They are kept under .perfbench_work, keyed by a hash of the program's
        sources and the input, so a later run in the same checkout with the
        same seed is compared with this one.
        """
        digest = hashlib.sha256(self.data)
        for path in sorted((SRC / "mscr").glob("*.py")):
            digest.update(path.read_bytes())
        path = WORK_ROOT / f"counts-{self.name}-{digest.hexdigest()[:16]}.json"
        if path.exists():
            before = json.loads(path.read_text())
            for stage, values in counts.items():
                for key, value in values.items():
                    if before[stage][key] != value:
                        self.fail(f"{stage}: count {key} is {value}, "
                                  f"an earlier run measured {before[stage][key]}")
        else:
            path.write_text(json.dumps(counts))

    def layer_metrics(self) -> dict:
        """Per-layer numbers: per stage the median over its traced runs, summed
        over the five lifecycle stages (set-up is reported on its own)."""
        per_stage = {}
        for stage in ALL_STAGES:
            reps = [stage_summary(t) for t in self.traces[stage]]
            if not reps:
                self.fail(f"{stage}: no traced run completed")
                return {}
            for key in EXACT_COUNTS:
                if len({r[key] for r in reps}) > 1:
                    self.fail(f"{stage}: count {key} differs between runs: {[r[key] for r in reps]}")
            per_stage[stage] = {key: reps[0][key] if key in EXACT_COUNTS
                                else statistics.median(r[key] for r in reps) for key in reps[0]}

        def total(key):
            return sum(per_stage[stage][key] for stage in STAGES)

        self.check_repeats({stage: {key: per_stage[stage][key] for key in EXACT_COUNTS}
                            for stage in ALL_STAGES})
        missing = sorted({m for stage in ALL_STAGES
                          for t in self.traces[stage] for m in t["missing"]})
        if missing:
            self.notes.append(f"untraced entry points (their metrics read 0): {', '.join(missing)}")
        wl = self.wl
        repair = per_stage["repair"]
        gamma_ratio = Fraction(repair["symbols_download"] + repair["symbols_cooperative"]) / (
            wl.gamma_per_stripe * self.stripes)
        access_ratio = Fraction(repair["helper_access_symbols"]) / (
            wl.access_per_stripe * self.stripes)
        if repair["calls:repair.run_repair"] == 0:
            self.notes.append("run_repair was not traced: gamma and access not checked")
        else:
            if repair["repair_stripes"] != self.stripes:
                self.fail(f"repair: {repair['repair_stripes']} stripes traced, "
                          f"expected {self.stripes}")
            if gamma_ratio != 1:
                self.fail(f"repair: measured gamma / cut-set bound = {gamma_ratio}, not 1")
            if access_ratio != 1:
                self.fail(f"repair: measured helper access / d*N*G = {access_ratio}, not 1")
        chunk_bytes = max(self.disk_bytes, default=0) / wl.n
        g = wl.access_per_stripe / (wl.d * wl.N)
        out = {name: total(f"self:{span}") for name, span in LAYER_TIMES.items()}
        out.update({name: total(f"calls:{span}") for name, span in LAYER_CALLS.items()})
        out.update({
            "process.import_s": statistics.median(
                t["import_s"] for stage in ALL_STAGES for t in self.traces[stage]),
            "storage.bytes_read": total("read_chunk_bytes") + total("sha256_bytes"),
            "storage.bytes_written": total("bytes_written"),
            "storage.repair_read_over_access":
                repair["read_chunk_bytes"] / (wl.d * float(g) * chunk_bytes),
            "repair.symbols_download": repair["symbols_download"],
            "repair.symbols_cooperative": repair["symbols_cooperative"],
            "repair.helper_access_symbols": repair["helper_access_symbols"],
            "repair.gamma_over_bound": float(gamma_ratio),
            "repair.access_over_bound": float(access_ratio),
            "setup.field.reduction_operator_s":
                per_stage["setup"]["self:field.reduction_operator"],
        })
        for stage in ALL_STAGES:
            out[f"tracing.{stage}.overhead_s"] = (
                statistics.median(self.traced_walls[stage]) - statistics.median(self.walls[stage]))
        return out


def stage_summary(trace: dict) -> dict:
    """Self time and call count per span name, plus the process's exact counts."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {f"self:{name}": 0.0 for name in LAYER_TIMES.values()}
    out.update({f"calls:{name}": 0 for name in LAYER_CALLS.values()})
    for (name, t0, t1, _), child in zip(spans, child_time):
        out[f"self:{name}"] += (t1 - t0) - child
        if f"calls:{name}" in out:
            out[f"calls:{name}"] += 1
    out.update(trace["counts"])
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "seed": seed,
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV_VARS},
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--input-bytes", type=int,
                    help="override the workload's input size (harness self-check)")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="compare decodes against a one-byte-altered input (harness self-check)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mscr" / "__init__.py").is_file():
        print(f"error: no mscr sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    size = args.input_bytes or wl.input_bytes
    data = random.Random(args.seed).randbytes(size)
    reference = data
    if args.corrupt_reference:
        reference = bytes([data[0] ^ 1]) + data[1:]

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, data, work, reference)
        metrics = bench.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = LAYER_UNITS if args.trace else E2E_UNITS
    failed = bench.failed
    print(f"workload {args.workload}: {size} input bytes, {bench.stripes} stripes, "
          f"trace={args.trace}, {bench.elapsed():.1f} s")
    for stage in ALL_STAGES:
        walls = bench.walls[stage]
        print(f"  {stage:14s} untraced walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
        if args.trace:
            walls = bench.traced_walls[stage]
            print(f"  {stage:14s}   traced walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
        else:
            ratios = bench.ratios[stage]
            print(f"  {stage:14s} / reference walls: {' '.join(f'{r:.3f}' for r in ratios)}")
    if bench.ref_walls:
        print(f"  {'reference':14s}           walls (s): "
              f"{' '.join(f'{w:.3f}' for w in bench.ref_walls)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'ops_failed':34s} {failed / max(1, bench.attempted):14.6g} fraction"
          f"  ({failed} of {bench.attempted} commands)")
    for msg in bench.failures:
        print(f"  FAILED: {msg}")
    for note in bench.notes:
        print(f"  NOTE: {note}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    correct = failed == 0 and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
