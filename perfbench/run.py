"""Benchmark of the nashres toolkit: time to a checked verdict.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify|lift|contact --seed N \
        --seconds S --trace 0|1

One op is one in-process `nashres.cli.main([..., "--json"])` call, from
reading its input files to its exit code, with stdout captured.  A single
closed-loop client runs the ops one after another in this one process; no
threads, no subprocesses.  Every answer is checked against a pinned value
(see workloads.py), and an op that fails a check, exits non-zero, raises or
passes its deadline counts as failed.

With --trace 0 the run times whole passes of the workload's fixed op list
and reports the end-to-end metrics.  The number of passes is fixed by
--seconds and the workload's nominal pass length, not by the clock, so
runs of two commits time the same ops.

With --trace 1 it times one untraced pass, then one pass with every layer
boundary wrapped (tracing.py), and reports the per-layer metrics and the
tracing overhead.

The end-to-end times are drift-corrected.  On the shared host this
benchmark was defined on, the speed of a pure-Python loop changes by up to
2x from one tenth of a second to the next, and CPU time moves with wall
time, so raw times of the same code spread past any useful bound.  While
the timed run sets up and runs its passes, SIGPROF fires every
SAMPLE_EVERY_S of CPU time and its handler times a short fixed `Fraction`
loop, the reference.  The time spent in the handler is left out of every
measured interval, and each interval (one op, one set-up) is scaled by
REF_UNIT_S over the mean reference time sampled within it and just before
and after it.  Every time is thus reported in seconds of a machine on
which the reference takes REF_UNIT_S.  The raw wall times are in the
details line.

The last line of stdout is the result object; the line before it holds the
details that qualify it (sample count, tail percentile, calibration time,
Python version, git SHA, nproc).
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
SAMPLE_ITERS = 300  # iterations of the reference loop in one speed sample
SAMPLE_EVERY_S = 0.05  # CPU time between two speed samples
REF_UNIT_S = 0.003  # the reference loop's time on the reference machine
RUN_BUDGET_S = 160.0  # past this, remaining ops count as failed unrun
TAIL_BEYOND = 10  # samples above the reported tail latency


class OpDeadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpDeadline()


def _git_sha(root: str):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def reference_loop(iterations: int) -> float:
    """Time a fixed pure-Python Fraction loop, the yardstick of machine speed."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(iterations):
        x = Fraction(k % 97 + 1, k % 89 + 2)
        acc = x * x + x - acc * Fraction(1, 2)
        if acc.denominator > 1 << 64:
            acc = Fraction(k % 7)
    return time.perf_counter() - t0


def calibrate() -> float:
    """The calib_s diagnostic: tells machine drift from a regression."""
    return statistics.median(reference_loop(10000) for _ in range(3))


class Speedometer:
    """Samples the machine's speed with the reference loop, from SIGPROF.

    `clock()` is wall time less the time spent sampling; `correct()` turns
    an interval measured with it into seconds of the reference machine."""

    def __init__(self):
        self.at = []  # perf_counter when each sample started
        self.took = []  # reference loop time of each sample
        self.paused = 0.0
        self.running = False
        self.sampling = False

    def _sample(self, signum=None, frame=None) -> None:
        if self.sampling:
            return
        self.sampling = True
        t0 = time.perf_counter()
        try:
            took = reference_loop(SAMPLE_ITERS)
            self.at.append(t0)
            self.took.append(took)
        finally:
            self.paused += time.perf_counter() - t0
            self.sampling = False

    def start(self) -> None:
        self.running = True
        signal.signal(signal.SIGPROF, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        if self.running:
            signal.setitimer(signal.ITIMER_PROF, 0)
            self.running = False
            self._sample()

    def clock(self) -> float:
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now - paused

    def correct(self, start: float, end: float, measured_s: float) -> float:
        """measured_s, taken over [start, end] of perf_counter, scaled by the
        samples within that interval and the one on either side of it."""
        first = max(0, bisect.bisect_left(self.at, start) - 1)
        last = bisect.bisect_right(self.at, end) + 1
        took = self.took[first:last]
        return measured_s * REF_UNIT_S * len(took) / sum(took)


def setup(workload: str, seed: int, run_dir: str, meter: Speedometer):
    """Import the program and write the inputs, several times.

    Each set-up writes its inputs to a directory of its own; the ops read
    those of the last.  Returns the (start, end, measured) interval of each
    set-up for the drift correction and the median raw time.  The first
    set-up runs from process start."""
    intervals, raw = [], []
    started, started_clock = PROCESS_START, PROCESS_START
    shutil.rmtree(run_dir, ignore_errors=True)
    for k in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "nashres" or n.startswith("nashres.")]:
            del sys.modules[name]
        inputs = os.path.join(run_dir, f"setup-{k}")
        os.makedirs(inputs)
        import nashres.cli  # noqa: F401

        wl = workloads.BUILDERS[workload](seed, inputs)
        raw.append(meter.clock() - started_clock)
        ended = time.perf_counter()
        intervals.append((started, ended, raw[-1]))
        started, started_clock = time.perf_counter(), meter.clock()
    module = sys.modules["nashres.cli"]
    return module, wl, intervals, statistics.median(raw)


class Runner:
    """Runs ops one at a time and records latency and failures.

    Latencies are read off `meter.clock()`, so they leave out the time spent
    sampling the machine's speed; `spans` holds each op's perf_counter span
    for the correction."""

    def __init__(self, cli, wl, budget_end: float, meter: Speedometer):
        self.cli = cli
        self.wl = wl
        self.budget_end = budget_end
        self.meter = meter
        self.latencies = []
        self.spans = []
        self.failures = []
        self.attempted = 0

    def run_op(self, op) -> None:
        self.attempted += 1
        if time.perf_counter() > self.budget_end:
            self.failures.append((op.label, "run budget exhausted, not run"))
            return
        buf = io.StringIO()
        reason = ""
        started = time.perf_counter()
        t0 = self.meter.clock()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.wl.deadline_s)
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(list(op.argv))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = self.meter.clock() - t0
            reason = op.check(code, json.loads(buf.getvalue()))
        except OpDeadline:
            elapsed = self.meter.clock() - t0
            reason = f"passed the {self.wl.deadline_s} s deadline"
        except Exception:
            elapsed = self.meter.clock() - t0
            reason = "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        self.latencies.append(elapsed)
        self.spans.append((started, time.perf_counter()))
        if reason:
            self.failures.append((op.label, reason))

    def run_pass(self) -> float:
        t0 = time.perf_counter()
        for op in self.wl.ops:
            self.run_op(op)
        return time.perf_counter() - t0

    def corrected_latencies(self):
        return [
            self.meter.correct(start, end, t)
            for (start, end), t in zip(self.spans, self.latencies)
        ]


def tail(latencies):
    """The highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nashres", "cli.py")):
        print(f"no nashres sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    work_root = os.path.join(root, ".perfbench_run")
    run_dir = os.path.join(work_root, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    signal.signal(signal.SIGALRM, _on_alarm)
    meter = Speedometer()
    try:
        if not args.trace:
            meter.start()
        cli, wl, setups, setup_raw_s = setup(args.workload, args.seed, run_dir, meter)
        if not os.path.dirname(os.path.abspath(cli.__file__)).startswith(src):
            print(f"imported nashres from {cli.__file__}, not {src}", file=sys.stderr)
            return 2
        runner = Runner(cli, wl, time.perf_counter() + RUN_BUDGET_S, meter)
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "input_size": wl.input_size,
            "ops_per_pass": len(wl.ops),
            "deadline_s": wl.deadline_s,
            "setup_repeats": SETUP_REPEATS,
            "setup_raw_s": setup_raw_s,
            "python": platform.python_version(),
            "git_sha": _git_sha(root),
            "nproc": os.cpu_count(),
        }
        if args.trace:
            metrics = traced_run(runner, details, work_root, args)
        else:
            metrics = timed_run(runner, details, args, setups)
        details["calib_s"] = calibrate()
        if args.trace:
            metrics["calib_s"] = {"value": details["calib_s"], "unit": "s"}
    finally:
        meter.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len(runner.failures)
    details["failures"] = runner.failures[:10]
    for label, reason in runner.failures[:10]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def per_pass_rates(latencies, n: int):
    """Ops per second of each pass, from its ops' latencies alone."""
    chunks = [latencies[k:k + n] for k in range(0, len(latencies), n)]
    return [len(chunk) / sum(chunk) for chunk in chunks]


def timed_run(runner: Runner, details: dict, args, setups) -> dict:
    wl = runner.wl
    n = len(wl.ops)
    passes = max(1, round(args.seconds / wl.nominal_pass_s))
    for _ in range(passes):
        runner.run_pass()
    meter = runner.meter
    meter.stop()
    latencies = runner.corrected_latencies()
    rates, raw_rates = per_pass_rates(latencies, n), per_pass_rates(runner.latencies, n)
    tail_value, tail_pct = tail(latencies)
    details.update(
        passes=passes,
        samples=len(latencies),
        tail_percentile=tail_pct,
        ops_per_s_by_pass=rates,
        raw_ops_per_s_by_pass=raw_rates,
        raw_latency_ms_p50=1000 * statistics.median(runner.latencies),
        raw_latency_ms_tail=1000 * tail(runner.latencies)[0],
        ref_unit_s=REF_UNIT_S,
        sample_every_s=SAMPLE_EVERY_S,
        speed_samples=len(meter.took),
        speed_sample_s_quartiles=statistics.quantiles(meter.took, n=4),
        sampling_s=meter.paused,
        fail_ratio=len(runner.failures) / runner.attempted,
    )
    setup_by_repeat = [meter.correct(*interval) for interval in setups]
    details["setup_s_by_repeat"] = setup_by_repeat
    setup_s = statistics.median(setup_by_repeat)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "latency_ms_p50": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
        "latency_ms_tail": {"value": 1000 * tail_value, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def traced_run(runner: Runner, details: dict, work_root: str, args) -> dict:
    untraced_s = runner.run_pass()
    tracer = tracing.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    for i, op in enumerate(runner.wl.ops):
        tracer.begin_op(i)
        runner.run_op(op)
    traced_s = time.perf_counter() - t0
    spans_path = os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}.tsv")
    tracer.write_spans(spans_path)
    units = {name: unit for name, unit, _ in tracing.metric_names()}
    metrics = {
        name: {"value": value, "unit": units[name]} for name, value in tracer.metrics().items()
    }
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    metrics["fail_ratio"] = {"value": len(runner.failures) / runner.attempted, "unit": "ratio"}
    details.update(
        untraced_s=untraced_s,
        traced_s=traced_s,
        spans=len(tracer.spans),
        spans_file=os.path.relpath(spans_path),
        absent=tracer.absent,
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
