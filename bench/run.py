"""padicperiods benchmark: one workload, one closed-loop run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The loop is single-threaded and closed: one operation at a time,
the next only after the previous one and its check have finished.  Whole
rounds of the workload's input mix run until ``--seconds`` have passed and at
least ``--min-ops`` operations were made; a warm-up round runs first, untimed.
Every output is checked outside the timed region; an operation fails if it
raises or its check fails, and the run goes on.

``--trace 0`` prints the end-to-end metrics over every operation of the
timed rounds.  Their times are scaled to a reference host: after each round a
fixed pure-Python kernel (``calibrate.py``) measures how much slower than the
reference host the process runs at that moment, and the round's latencies are
divided by that slowdown.  The host's speed drifts by up to 1.6x over minutes
on a shared machine; scaled, the same code's figures stay within a few percent
from run to run.  The info line also holds the unscaled figures.
``setup_s`` is the median of nine fresh interpreters that import the
library and run the workload's set-up, each scaled by the slowdown that the
harness measures right after it.  ``--trace 1`` prints the
per-layer metrics: it takes a fixed sample of the workload's first rounds and
alternates untraced and traced passes over it, so that every count repeats
exactly from pass to pass and from run to run (the harness verifies the
former), and the tracing overhead is the untraced minus the traced throughput
of the same operations.  Each call count and counter is that of a traced
set-up plus one traced pass; each self time adds the set-up's to the median
over the traced passes.

The last line of stdout is the result object; the line before it holds the
environment and the operation counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate
from tracing import COUNTERS, SPANS, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
WORKLOAD_NAMES = ("correspondence", "slopes", "action", "cli")

# The harness runs one thread.  numpy's OpenBLAS would start a thread per CPU
# when the library imports numpy, which makes import time vary; the library's
# numpy path is int64 arithmetic and never calls BLAS.  Set-up probes inherit
# this.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

E2E_UNITS = {
    "throughput_ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for _, _, prefix, _ in SPANS:
        if prefix != "periods.random_draw":
            units[prefix + ".calls"] = "count"
            units[prefix + ".self_s"] = "s"
    for _, _, name in COUNTERS:
        units[name] = "count"
    units.update({
        "padic.smith_forms_per_op": "1/op",
        "padic.element_mul_per_op": "1/op",
        "periods.random_point.accept_ratio": "ratio",
        "periods.omega.indeterminate_ratio": "ratio",
        "cli.stdout_bytes": "bytes",
        "trace.sample_ops": "count",
        "trace.op_s": "s",
        "trace.overhead_ops_per_s": "ops/s",
    })
    return units


def percentile(sorted_xs, q):
    pos = q * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


class Stats:
    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.first_failure = None
        self.stdout_bytes = 0

    def fail(self, reason):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = reason
            print(f"operation failed: {reason}", file=sys.stderr)

    def throughput(self):
        return (len(self.latencies) - self.failed) / sum(self.latencies)

    def merge(self, other):
        self.latencies += other.latencies
        self.failed += other.failed
        self.first_failure = self.first_failure or other.first_failure
        self.stdout_bytes += other.stdout_bytes


def run_op(workload, inp, stats, tracer=None):
    """Time one operation, then check it untimed."""
    if tracer is not None:
        tracer.on = True
        root = tracer.begin("op")
    t0 = perf_counter()
    try:
        out = workload.run(inp)
    except Exception:
        stats.latencies.append(perf_counter() - t0)
        stats.fail(traceback.format_exc(limit=-3).strip())
        return
    finally:
        if tracer is not None:
            tracer.end(root)
            tracer.on = False
    stats.latencies.append(perf_counter() - t0)
    stdout_bytes = getattr(workload, "stdout_bytes", None)
    if stdout_bytes is not None:
        stats.stdout_bytes += stdout_bytes(out)
    try:
        ok = workload.check(inp, out)
    except Exception:
        stats.fail("check raised: " + traceback.format_exc(limit=-3).strip())
        return
    if not ok:
        stats.fail(f"check failed for input {describe(inp)}")


def describe(inp):
    return inp["argv"] if isinstance(inp, dict) else repr(inp)[:200]


def setup_probe(name, seed):
    """Seconds for a fresh interpreter to import the library and set up."""
    t0 = perf_counter()
    import workloads

    workloads.WORKLOADS[name](seed).setup()
    return perf_counter() - t0


def measure_setup(name, seed):
    """Median set-up seconds of fresh interpreters, each scaled by the
    slowdown measured in this process right after it, and unscaled."""
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        seconds = float(done.stdout.strip().splitlines()[-1])
        scaled.append(seconds / statistics.median(calibrate.slowdown() for _ in range(3)))
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def latency_metrics(latencies, failed):
    lat = sorted(latencies)
    return {
        "throughput_ops_per_s": (len(lat) - failed) / sum(lat),
        "op_p50_ms": percentile(lat, 0.5) * 1e3,
        "op_p90_ms": percentile(lat, 0.9) * 1e3,
    }


def end_to_end(workload, args):
    setup_s, unscaled_setup_s = measure_setup(workload.name, args.seed)
    workload.setup()
    for inp in workload.cycle():  # warm-up round: lazy caches fill here
        run_op(workload, inp, Stats())
    stats, scaled, slowdowns = Stats(), [], []
    start = perf_counter()
    while perf_counter() - start < args.seconds or len(stats.latencies) < args.min_ops:
        r = Stats()
        for inp in workload.cycle():
            run_op(workload, inp, r)
        slowdowns.append(calibrate.slowdown())
        scaled += [x / slowdowns[-1] for x in r.latencies]
        stats.merge(r)
    metrics = latency_metrics(scaled, stats.failed)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["setup_s"] = setup_s
    info = {
        "rounds": len(slowdowns),
        "ops_timed": len(scaled),
        "ops_beyond_p90": sum(x > metrics["op_p90_ms"] / 1e3 for x in scaled),
        "slowdown_median": statistics.median(slowdowns),
        "unscaled": dict(latency_metrics(stats.latencies, stats.failed),
                         setup_s=unscaled_setup_s),
    }
    return stats, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, info


def per_layer(workload, args):
    """Per-layer metrics: a traced set-up plus one traced pass over a fixed
    sample of operations; times are medians over the traced passes."""
    tracer = Tracer()
    tracer.install()
    tracer.on = True
    try:
        workload.setup()
    finally:
        tracer.on = False
        tracer.uninstall()
    setup = summarize(tracer.spans, tracer.counts)
    tracer.reset()
    for inp in workload.cycle():  # warm-up round: lazy caches fill here
        run_op(workload, inp, Stats())
    sample = [inp for _ in range(workload.trace_cycles) for inp in workload.cycle()]

    stats, plain, traced, passes = Stats(), [], [], []
    start = perf_counter()
    while perf_counter() - start < args.seconds or len(passes) < 2:
        s = Stats()
        for inp in sample:
            run_op(workload, inp, s)
        plain.append(s)
        s = Stats()
        tracer.install()
        try:
            for inp in sample:
                run_op(workload, inp, s, tracer)
        finally:
            tracer.uninstall()
        traced.append(s)
        passes.append(summarize(tracer.spans, tracer.counts))
        tracer.reset()
    for s in plain + traced:
        stats.merge(s)

    def deterministic(p):
        return (p["calls"], p["counts"], p["random_point.candidates"], p["omega.indeterminate"])

    counts_repeat = all(deterministic(p) == deterministic(passes[0]) for p in passes)
    first = passes[0]
    pass_self_s = {
        k: statistics.median(p["self_s"].get(k, 0.0) for p in passes)
        for k in set().union(*(p["self_s"] for p in passes))
    }
    counters = {name for _, _, name in COUNTERS}
    units = per_layer_units()
    metrics = {}
    for name in units:
        prefix, _, kind = name.rpartition(".")
        if name in counters:
            metrics[name] = setup["counts"].get(name, 0) + first["counts"].get(name, 0)
        elif kind == "calls":
            metrics[name] = setup["calls"].get(prefix, 0) + first["calls"].get(prefix, 0)
        elif kind == "self_s":
            metrics[name] = setup["self_s"].get(prefix, 0.0) + pass_self_s.get(prefix, 0.0)
    ops = len(sample)
    op_s = statistics.median(p["total_s"]["op"] for p in passes)
    rp_calls = first["calls"].get("periods.random_point", 0)
    omega_calls = first["calls"].get("periods.omega_membership", 0)
    untraced_tput = statistics.median(s.throughput() for s in plain)
    traced_tput = statistics.median(s.throughput() for s in traced)
    metrics.update({
        "padic.smith_forms_per_op": first["calls"].get("padic.smith_form", 0) / ops,
        "padic.element_mul_per_op": first["counts"].get("padic.element_mul.count", 0) / ops,
        "periods.random_point.accept_ratio":
            rp_calls / first["random_point.candidates"] if rp_calls else 0.0,
        "periods.omega.indeterminate_ratio":
            first["omega.indeterminate"] / omega_calls if omega_calls else 0.0,
        "cli.stdout_bytes": traced[0].stdout_bytes,
        "trace.sample_ops": ops,
        "trace.op_s": op_s,
        "trace.overhead_ops_per_s": untraced_tput - traced_tput,
    })
    info = {
        "sample_ops": ops,
        "passes": len(passes),
        "counts_repeat": counts_repeat,
        "untraced_ops_per_s": untraced_tput,
        "traced_ops_per_s": traced_tput,
        "self_time_share_of_ops": {
            k: round(v / op_s, 4) for k, v in sorted(pass_self_s.items()) if v > 0
        },
    }
    return stats, {k: (metrics[k], units[k]) for k in units}, info, counts_repeat


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-ops", type=int, default=100,
                    help="least number of timed operations (default 100)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "padicperiods" / "__init__.py").is_file():
        print(f"run.py: no library source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    numpy = sys.modules.get("numpy")
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy is not None else "absent",
        "nproc": len(os.sched_getaffinity(0)),
    }
    correct = True
    if args.trace:
        stats, metrics, info, correct = per_layer(workload, args)
    else:
        stats, metrics, info = end_to_end(workload, args)
    attempted = len(stats.latencies)
    info.update(env)
    info.update({
        "attempted": attempted,
        "failed": stats.failed,
        "error_rate": stats.failed / attempted,
        "first_failure": stats.first_failure,
    })
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": correct and stats.failed == 0,
        "attempted": attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
