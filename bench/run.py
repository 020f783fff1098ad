#!/usr/bin/env python3
"""Run one abelsym benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from its `src/`
and nowhere else.  The run is single-threaded and uses the public library
API.  It first times several fresh interpreters from start to inputs built
(`setup_s`), then repeats the workload's fixed item set, in an order
permuted by the seed, until `--seconds` have passed (at least twice).
Every answer is checked against `bench/reference.json`.  The gated times
are divided by the host slowdown that an interleaved reference kernel
measures (see calibrate.py); the raw times go to the summary line.

With `--trace 1` the run makes one untraced pass and then one traced pass
over the same items, checks both against the same references, and reports
the per-layer metrics instead of the end-to-end ones.

The last line of standard output is the result object; the line before it
holds provenance, the work counts and any failures.  The same record, with
the spans of a traced run, is written to `.bench_out/` in the checkout.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibrate import Speedometer
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("sweep", "large", "crosscheck")

# Fresh interpreters timed for setup_s; one start reads 0.10-0.23 s on a
# 2-core box, so a single start is too noisy to compare.
SETUP_STARTS = 11

# Whole passes a timed run makes at least, so every item is timed twice.
TIMED_PASSES = 2

# Share of each item's time spent on the reference kernel right after it.
REF_SHARE = 0.08

# numpy reads these when it is first imported; the run uses no threads.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_norm_s": "s", "item_p50_norm_ms": "ms",
              "item_p90_norm_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}

# Span names of the traced run; each gives the metric "<name>_s".
LAYER_SPANS = ("symbols.enumerate", "relations.assemble", "exactla.rank",
               "exactla.snf", "exactla.span_build", "exactla.span_query",
               "structmaps.kernel_iso", "structmaps.comult",
               "structmaps.delta", "congruence.iso", "congruence.manin",
               "congruence.cusp")

# Work counts; they repeat exactly, so skipped work shows as a changed count.
LAYER_COUNTS = ("symbols.keys", "relations.rows", "relations.nnz",
                "exactla.torsion_divisors", "exactla.span_queries",
                "structmaps.checks_passed", "congruence.cosets",
                "relations.formula_mismatches")

PER_LAYER = {**{name + "_s": "s" for name in LAYER_SPANS},
             **{name: "count" for name in LAYER_COUNTS},
             "symbols.keep_ratio": "ratio",
             "exactla.independent_row_ratio": "ratio",
             "trace.coverage": "ratio", "trace.overhead": "ratio"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run a tiny fixed subset of the workload")
    ap.add_argument("--probe", action="store_true",
                    help=argparse.SUPPRESS)  # one timed setup start
    return ap.parse_args(argv)


def setup_seconds(args):
    """Median time from a fresh interpreter's start to its inputs built."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("setup probe failed: %r" % (line,))
    return statistics.median(samples)


def import_library():
    """Import abelsym from this checkout's src/ and the workload module."""
    sys.path[:0] = [SRC, BENCH_DIR]
    import abelsym
    import workloads
    if not os.path.abspath(abelsym.__file__).startswith(SRC + os.sep):
        raise RuntimeError("abelsym was imported from %s, not from %s"
                           % (abelsym.__file__, SRC))
    return workloads


def run_pass(items, tracer, speedometer=None):
    """One pass over the items: (wall s, per-item s, answers by key).

    With a speedometer, the reference kernel runs after each item; its time
    is left out of the pass wall and the item times.
    """
    times, answers = [], {}
    start = time.perf_counter()
    for item in items:
        tracer.item = item.key
        t0 = time.perf_counter()
        try:
            answers[item.key] = item.run(tracer)
        except Exception as exc:  # a raising item counts as failed
            answers[item.key] = exc
        times.append(time.perf_counter() - t0)
        if speedometer:
            speedometer.sample(times[-1])
    wall = time.perf_counter() - start
    return wall - (speedometer.seconds if speedometer else 0.0), times, answers


def timed_passes(items, seconds, check, least):
    """Untraced passes until `seconds` have passed, at least `least`.

    Returns, per pass, the wall, the item times and the host slowdown, then
    the failures and the work counts of one pass.
    """
    walls, times, slowdowns, failed = [], [], [], []
    start = time.perf_counter()
    while len(walls) < least or time.perf_counter() - start < seconds:
        tracer = Tracer(False)
        speedometer = Speedometer(REF_SHARE)
        wall, item_times, answers = run_pass(items, tracer, speedometer)
        walls.append(wall)
        times.append(item_times)
        slowdowns.append(speedometer.slowdown())
        failed += check(answers)
    return walls, times, slowdowns, failed, tracer.counts


def end_to_end(walls, times, slowdowns):
    """Normalized end-to-end times, and the raw ones for the summary."""
    norm_walls = [w / s for w, s in zip(walls, slowdowns)]
    norm_ms = sorted(t * 1000.0 / s for ts, s in zip(times, slowdowns)
                     for t in ts)
    raw_ms = sorted(t * 1000.0 for ts in times for t in ts)
    norm = {"wall_norm_s": statistics.median(norm_walls),
            "item_p50_norm_ms": statistics.median(norm_ms),
            "item_p90_norm_ms": _p90(norm_ms)}
    raw = {"wall_s": statistics.median(walls),
           "item_p50_ms": statistics.median(raw_ms),
           "item_p90_ms": _p90(raw_ms), "slowdowns": slowdowns}
    return norm, raw


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def failures(answers, reference, normalize):
    out = []
    for key, answer in answers.items():
        if isinstance(answer, Exception):
            out.append("%s raised %r" % (key, answer))
        elif normalize(answer) != reference.get(key):
            out.append("%s answered %.200s" % (key, json.dumps(
                normalize(answer))))
    return out


def provenance():
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "commit": commit}


def layer_metrics(tracer, traced_wall, untraced_wall):
    seconds = tracer.seconds_by_name()
    counts = tracer.counts
    values = {name + "_s": seconds.get(name, 0.0) for name in LAYER_SPANS}
    values.update({name: counts[name] for name in LAYER_COUNTS})
    values["symbols.keep_ratio"] = (
        counts["symbols.keys"] / counts["symbols.tried"]
        if counts["symbols.tried"] else 0.0)
    values["exactla.independent_row_ratio"] = (
        counts["exactla.rank"] / counts["exactla.rank_rows"]
        if counts["exactla.rank_rows"] else 0.0)
    values["trace.coverage"] = tracer.top_level_seconds() / traced_wall
    values["trace.overhead"] = traced_wall / untraced_wall - 1.0
    return values


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "abelsym", "__init__.py")):
        print("bench: no abelsym sources under %s; run from the root of a "
              "full checkout" % SRC, file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    if args.probe:
        import_library().build(args.workload, args.smoke)
        print("ready", flush=True)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR)
    os.environ["ABELSYM_CACHE_DIR"] = cache_dir
    try:
        setup_s = None if args.trace else setup_seconds(args)
        workloads = import_library()
        items = workloads.build(args.workload, args.smoke)
        random.Random(args.seed).shuffle(items)
        reference = workloads.load_reference()[args.workload]

        def check(answers):
            return failures(answers, reference, workloads.normalize)

        # A traced run times one untraced pass only, as the overhead base.
        walls, times, slowdowns, failed, counts = timed_passes(
            items, 0 if args.trace else args.seconds, check,
            1 if args.trace else TIMED_PASSES)
        attempted = len(items) * len(walls)
        raw = None
        if args.trace:
            # Both passes are held to the same frozen answers, so a traced
            # answer that passes also equals the untraced one.
            tracer = Tracer(True)
            traced_wall, _, traced = run_pass(items, tracer)
            attempted += len(items)
            failed += check(traced)
            counts = tracer.counts
            values = layer_metrics(tracer, traced_wall, walls[0])
            units = PER_LAYER
        else:
            values, raw = end_to_end(walls, times, slowdowns)
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            values["setup_s"] = setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "passes": len(walls), "items": len(items),
        "failed_frac": len(failed) / attempted, "raw": raw,
        "counts": dict(sorted(counts.items())),
        "failures": failed[:20], "provenance": provenance(),
    }
    result = {"correct": not failed, "attempted": attempted,
              "failed": len(failed),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    record = dict(summary, result=result, pass_walls=walls,
                  item_seconds={item.key: [ts[i] for ts in times]
                                for i, item in enumerate(items)},
                  spans=tracer.span_records() if args.trace else None)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d%s.json" % (
        args.workload, args.seed, args.trace, "-smoke" if args.smoke else ""))
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
