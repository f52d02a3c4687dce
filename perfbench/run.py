"""Benchmark of the classlm command line: four workloads, end-to-end metrics
from an untraced run and per-module metrics from a traced run.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --size tiny      # self-test, seconds

One run generates the workload's inputs from --seed (in a child process),
then repeats whole rounds, each one in-process ``classlm.cli.main`` call,
until --seconds have passed, checks the outputs of the last round against
reference computations, and prints every metric by name and unit.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

BLAS is pinned to one thread before numpy is imported.  All files go to
``.perfbench/`` at the root of the checkout; generated inputs are deleted
at the end of the run, the spans of a traced run are kept there.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import calibration  # noqa: E402
import layer_metrics  # noqa: E402
from tracer import FirstCall, Instrumentation, SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("items_per_s", "items/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


@dataclass
class Round:
    rc: object
    wall: float
    setup: float
    stdout: str
    logs: list
    error: str = ""
    kernel_s: tuple = ()  # calibration kernel times right before and after
    digest: str = ""
    items: float = 0.0
    ops: tuple = (0, 0)
    layer: dict = field(default_factory=dict)


class LogCapture(logging.Handler):
    """Keeps the program's log messages of the current round in memory."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def one_round(wl, cli, capture):
    """One ``cli.main`` call: its wall time, the start of its work phase and
    the calibration kernel's time right before and after it."""
    gc.collect()
    before = calibration.kernel_seconds()
    capture.messages = []
    buf = io.StringIO()
    error = ""
    work_module = importlib.import_module(f"classlm.{wl.setup_until[0]}")
    with FirstCall(work_module, wl.setup_until[1]) as first, \
            contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            rc = cli.main(wl.argv())
        except Exception as err:  # a crash counts as failed operations
            rc, error = None, f"{type(err).__name__}: {err}"
        end = time.perf_counter()
    rnd = Round(rc, end - start, (first.at or end) - start, buf.getvalue(), capture.messages,
                error, (before, calibration.kernel_seconds()))
    rnd.ops = wl.ops(rnd)
    if rc == 0:
        rnd.digest = wl.output_digest(rnd)
        rnd.items = wl.items(rnd)
    return rnd


def measure(wl, seconds, trace, spans_path):
    import classlm
    import classlm.cli

    capture = LogCapture()
    root_logger = logging.getLogger()
    root_logger.addHandler(capture)
    root_logger.setLevel(logging.INFO)
    recorder = SpanRecorder()
    probes = layer_metrics.Probes()
    instrumentation = Instrumentation(classlm, recorder, probes.table())
    untraced, traced, all_spans = [], [], []
    begin = time.perf_counter()
    while True:
        untraced.append(one_round(wl, classlm.cli, capture))
        if trace:
            recorder.reset()
            probes.reset()
            with instrumentation:
                rnd = one_round(wl, classlm.cli, capture)
            stats = recorder.rollup()
            rnd.layer = layer_metrics.compute(stats, recorder.counters,
                                              wl.meta.get("shared_prefix_share", 0.0))
            rnd.layer["trace.self_sum_s"] = sum(v[2] for v in stats.values())
            rnd.layer["trace.spans"] = len(recorder.spans)
            traced.append(rnd)
            all_spans.append(recorder.spans)
        # stop before a round that would end after the time budget
        elapsed = time.perf_counter() - begin
        if elapsed * (1 + 1 / len(untraced)) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    root_logger.removeHandler(capture)
    if trace:
        recorder.write_jsonl(spans_path, all_spans)
    return untraced, traced, peak_rss_mb


def check(wl, rounds, traced):
    problems = []
    everything = rounds + traced
    for rnd in everything:
        if rnd.rc != 0:
            problems.append(f"classlm exited with {rnd.rc} {rnd.error}".rstrip())
    if len({r.digest for r in everything}) != 1:
        problems.append("outputs differ between repeats with the same seed")
    for rnd in traced:
        if rnd.layer["trace.self_sum_s"] > rnd.wall:
            problems.append("summed self times exceed the traced wall time")
    if not problems:
        try:
            problems += wl.check(everything[-1])
        except Exception as err:  # a malformed output is a failed check
            problems.append(f"check failed: {type(err).__name__}: {err}")
    return problems


def keep_freed_memory():
    """Let glibc keep freed memory in this process instead of returning it.

    By default the first rounds map fresh pages for every large block (the
    25.8 MB model buffer among them) and later rounds reuse freed heap
    memory, switching after a varying number of rounds; the model-loading
    set-up time then sat at either of two levels (about 0.04 and 0.07 s)
    from run to run.  With this, every round after the first runs warm.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_trim_threshold, 1 << 30)
    mallopt(m_mmap_threshold, 1 << 30)


def run_one(args):
    keep_freed_memory()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{args.seed}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"), args.workload,
                        str(args.seed), args.size, work], check=True)
        with open(os.path.join(work, "meta.json"), encoding="utf-8") as f:
            meta = json.load(f)
        wl = WORKLOADS[args.workload](work, meta)
        rounds, traced, peak_rss_mb = measure(wl, args.seconds, args.trace,
                                              os.path.join(OUT, f"spans-{tag}.jsonl"))
        problems = check(wl, rounds, traced)
        extra = wl.extra(rounds[-1]) if rounds[-1].rc == 0 else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = rounds + traced
    attempted = sum(r.ops[0] for r in everything)
    failed = sum(r.ops[1] for r in everything)
    median = statistics.median
    untraced_wall = median(r.wall for r in rounds)
    if args.trace:
        units = {name: unit for name, unit, _ in layer_metrics.METRICS}
        values = {name: median(r.layer[name] for r in traced) for name in traced[0].layer}
        values["trace.wall_s"] = median(r.wall for r in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
        values.update(layer_metrics.source_lines(os.path.join(SRC, "classlm")))
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name, _, _ in layer_metrics.METRICS}
    else:
        # times at the reference machine speed; see calibration.py
        speed = [2.0 * calibration.REFERENCE_S / sum(r.kernel_s) for r in rounds]
        rates = [r.items / ((r.wall - r.setup) * f) for r, f in zip(rounds, speed) if r.rc == 0]
        values = {
            "setup_s": median(r.setup * f for r, f in zip(rounds, speed)),
            "wall_s": median(r.wall * f for r, f in zip(rounds, speed)),
            "items_per_s": median(rates) if rates else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}

    print(f"perfbench {args.workload} size={args.size} seed={args.seed} trace={args.trace}"
          f" rounds={len(rounds)} untraced, {len(traced)} traced")
    print("  inputs: " + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                   for k, v in sorted(meta.items()) if k != "config"))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    for name, (unit, value) in extra.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    if args.trace:
        print(f"  tracing overhead: traced wall {values['trace.wall_s']:.4f} s -"
              f" untraced wall {untraced_wall:.4f} s = {values['trace.overhead_s']:.4f} s")
    else:
        print(f"  {wl.rate_name:34s} {values['items_per_s']:>16.6g} {wl.item}/s"
              "  (= items_per_s)")
        print(f"  measured wall_s {untraced_wall:.4f} s; machine ran at {median(speed):.3f} x"
              " the reference speed (calibration.py)")
    print(f"  operations: {attempted} attempted, {failed} failed")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def benchmark_json_problems():
    """Differences between BENCHMARK.json and the metrics this code reports."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != \
            layer_metrics.METRICS:
        problems.append("BENCHMARK.json per_layer differs from layer_metrics.METRICS")
    return problems


def run_all(args):
    """Every workload, untraced and traced, each in its own process."""
    problems = benchmark_json_problems()
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {result or 'no result'}")
    print("ALL CORRECT" if not problems else f"{len(problems)} PROBLEM(S)")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="repeat whole rounds until this much time has passed"
                             " (default: 25 for --size full, 0 for tiny: one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 25.0 if args.size == "full" else 0.0
    if not os.path.isfile(os.path.join(SRC, "classlm", "__init__.py")):
        print(f"perfbench: no classlm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
