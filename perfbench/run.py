"""The cyc3 benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it measures the cyc3 sources in `src/`.
Workloads: cli-cold, sweep-warm, weight-oracle, poly-engine (see
workloads.py and BENCHMARK.json for what each one exercises and why).

--trace 0 measures the end-to-end metrics with no tracing.  One client runs
the workload's ops in a closed loop, whole passes at a time, until at least
S seconds have passed and the workload's minimum number of passes is done.
Between ops, at most every 0.2 s, it times a fixed calibration loop that
does not touch cyc3; each op timing is scaled by the loop's times around
it, so that it does not move with the host's speed (see timed_run).
Set-up time is the median of several fresh processes that each start the
interpreter, import cyc3 and build the fields and tables the ops reuse,
scaled in the same way.

--trace 1 measures the per-layer metrics.  It runs one pass three times,
each in a fresh process: once plain and twice with span wrappers around
cyc3's functions (tracer.py).  The two traced runs must give exactly the
same counts; their ratio to the plain run is the tracing overhead.  Spans
are written to perfbench/results/.

Every op's output is checked against reference.json.  The last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"}.  The
line before it holds the run's context and the samples behind each median.
"""

from __future__ import annotations

import argparse
import bisect
import glob
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from workloads import HERE, ROOT, SRC, WORKLOADS, child_env, load_reference, run_child

RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 9
START_PROBES = 5
CALIBRATE_EVERY_S = 0.2
# an op sample is scaled by the calibrations within this many seconds of it,
# or by the nearest CALIBRATION_MIN_NEAR of them
CALIBRATION_NEAR_S = 0.5
CALIBRATION_MIN_NEAR = 3
# What calibrate() takes in the fast phases of the 2-core host the benchmark
# was tuned on: scaled timings read as milliseconds on that host.
REFERENCE_CALIBRATION_S = 0.0038
_CAL_TABLE = list(range(4096))

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def context(workload: str, seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "cyc3", "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "source_sha256": src.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "python_start_s": statistics.median(
            wall_time([sys.executable, "-c", "pass"]) for _ in range(START_PROBES)
        ),
    }


def wall_time(argv: list[str]) -> float:
    env = child_env()
    start = time.perf_counter()
    run_child(argv, env)
    return time.perf_counter() - start


def setup_sample(workload) -> tuple[float, float]:
    """(start, seconds from starting a fresh process to its workload set-up
    done)."""
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py")]
    probe += [str(m) for m in workload.setup_ms]
    env = child_env()
    start = time.perf_counter()
    code, stdout, stderr, _ = run_child(probe, env)
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {stderr.decode(errors='replace')}")
    return start, float(stdout) - start


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now (about 4 ms): a probe of
    the host's current speed.  It indexes a list, stores into a dict and does
    integer arithmetic, as cyc3 does, and allocates no containers in the
    loop, so neither cyc3's code nor its heap changes what it measures."""
    table = _CAL_TABLE
    slots: dict[int, int] = {}
    acc, j = 0, 1
    start = time.perf_counter()
    for i in range(25000):
        j = (j * 5 + 1) & 4095
        acc += table[j] * i % 7
        slots[j & 255] = acc
    return time.perf_counter() - start


def scale_factor(times: list[float], seconds: list[float], t0: float, t1: float) -> float:
    """REFERENCE_CALIBRATION_S over the median calibration time near the
    interval [t0, t1]; `times` are the calibrations' start times, ascending."""
    lo = bisect.bisect_left(times, t0 - CALIBRATION_NEAR_S)
    hi = bisect.bisect_right(times, t1 + CALIBRATION_NEAR_S)
    while hi - lo < min(CALIBRATION_MIN_NEAR, len(times)):
        lo, hi = max(0, lo - 1), min(len(times), hi + 1)
    return REFERENCE_CALIBRATION_S / statistics.median(seconds[lo:hi])


def check_pass(ops, outputs, errors: list[str]) -> int:
    failed = 0
    for op, (ok, out) in zip(ops, outputs):
        try:
            reason = op.check(out) if ok else out
        except Exception as exc:  # output too malformed to check
            reason = f"unreadable output: {exc!r}"
        if reason:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{op.label}: {reason}")
    return failed


def run_op(op) -> tuple[bool, object]:
    try:
        return True, op.run()
    except Exception:  # an op that raises is a wrong output, not a crash
        return False, traceback.format_exc(limit=3)


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, dict, int, int, list]:
    """End-to-end metrics of one run.

    The host's speed drifts by tens of percent, in phases of seconds to
    minutes, and a whole run can fall in a slow phase.  So every op sample
    is scaled by the host's speed around it: REFERENCE_CALIBRATION_S over
    the median time of the calibrations taken near it (scale_factor).  An
    op's latency is the median of its scaled repeats (one per pass, the
    passes spread over the run).  One set-up probe runs after each pass, so
    that their median also spans the run; each probe is scaled in the same
    way.  The unscaled values and the calibration times are kept in the
    run's samples.
    """
    ref = load_reference()
    workload = WORKLOADS[name](ref, seed)
    setup: list[tuple[float, float]] = []
    workload.setup()
    stamps: dict[str, list[tuple[float, float]]] = {}
    cal_times: list[float] = []
    cal_seconds: list[float] = []

    def calibration() -> None:
        cal_times.append(time.perf_counter())
        cal_seconds.append(calibrate())

    for _ in range(CALIBRATION_MIN_NEAR):
        calibration()
    rss_kib = 0
    attempted = failed = passes = 0
    errors: list[str] = []
    started = time.perf_counter()
    while passes < workload.min_passes or time.perf_counter() - started < seconds:
        if passes:
            workload.setup()
        ops = workload.pass_ops()
        outputs = []
        for op in ops:
            t0 = time.perf_counter()
            result = run_op(op)
            t1 = time.perf_counter()
            stamps.setdefault(op.label, []).append((t0, t1))
            outputs.append(result)
            if t1 - cal_times[-1] >= CALIBRATE_EVERY_S:
                calibration()
        if not workload.in_process:
            rss_kib = max([rss_kib] + [out[3] for ok, out in outputs if ok])
        attempted += len(ops)
        failed += check_pass(ops, outputs, errors)
        passes += 1
        setup.append(setup_sample(workload))
    wall = time.perf_counter() - started
    calibration()
    while len(setup) < SETUP_PROBES:
        setup.append(setup_sample(workload))
        calibration()
    if workload.in_process:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def latency_metrics(scaled: bool) -> dict:
        by_op = [
            [(t1 - t0) * (scale_factor(cal_times, cal_seconds, t0, t1) if scaled else 1.0)
             for t0, t1 in v]
            for v in stamps.values()
        ]
        latency = [statistics.median(v) for v in by_op]
        tail = latency if workload.tail_over_ops else [t for v in by_op for t in v]
        return {
            "ops_per_s": len(latency) / sum(latency),
            "latency_p50_ms": statistics.median(latency) * 1e3,
            "latency_tail_ms": percentile(tail, workload.tail_pct) * 1e3,
        }

    metrics = {
        "setup_s": statistics.median(
            t * scale_factor(cal_times, cal_seconds, t0, t0 + t) for t0, t in setup
        ),
        **latency_metrics(scaled=True),
        "peak_rss_mib": rss_kib / 1024,
    }
    samples = {
        "setup_s": [t for _, t in setup],
        "passes": passes,
        "distinct_ops": len(stamps),
        "raw_samples": sum(len(v) for v in stamps.values()),
        "op_latency_ms": {
            label: [(t1 - t0) * 1e3 for t0, t1 in v] for label, v in stamps.items()
        },
        "tail_percentile": workload.tail_pct,
        "tail_over": "ops" if workload.tail_over_ops else "raw samples",
        "unscaled": {
            "setup_s": statistics.median(t for _, t in setup),
            **latency_metrics(scaled=False),
        },
        "calibration_ms": {
            "median": statistics.median(cal_seconds) * 1e3,
            "p10": percentile(cal_seconds, 10) * 1e3,
            "p90": percentile(cal_seconds, 90) * 1e3,
            "count": len(cal_seconds),
            "reference": REFERENCE_CALIBRATION_S * 1e3,
        },
        "run_wall_s": wall,
        "fail_frac": failed / attempted,
    }
    return metrics, samples, attempted, failed, errors


# -- traced runs ------------------------------------------------------------------


def execute(name: str, seed: int, mode: str) -> dict:
    """One pass in this (fresh) process, traced unless `mode` is "plain";
    the body of the children that --trace 1 starts."""
    import cyc3  # noqa: F401  (imported before wrapping, outside the spans)
    import cyc3.cli  # noqa: F401

    from tracer import Tracer

    tracer = None if mode == "plain" else Tracer()
    ref = load_reference()
    workload = WORKLOADS[name](ref, seed, tracer=tracer)
    if tracer:
        tracer.install()
        tracer.op = "setup"
    t0 = time.perf_counter()
    workload.setup()
    ops = workload.pass_ops()
    outputs = []
    for index, op in enumerate(ops):
        if tracer:
            tracer.op = index
        outputs.append(run_op(op))
    wall = time.perf_counter() - t0
    errors: list[str] = []
    failed = check_pass(ops, outputs, errors)
    result = {"attempted": len(ops), "failed": failed, "errors": errors, "wall_s": wall}
    if tracer:
        result["layers"] = tracer.layer_metrics()
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"spans-{name}-seed{seed}-{mode}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "tag"], "spans": tracer.spans}, fh)
        result["spans_file"] = os.path.relpath(path, ROOT)
    return result


def traced_run(name: str, seed: int) -> tuple[dict, dict, int, int, list]:
    from tracer import EXACT_COUNTS, LAYER_METRICS

    start = [wall_time([sys.executable, "-c", "pass"]) for _ in range(START_PROBES)]
    imports = [wall_time([sys.executable, "-c", "import cyc3.cli"]) for _ in range(START_PROBES)]

    def child(mode: str) -> dict:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed), "--exec", mode]
        code, stdout, stderr, _ = run_child(argv, child_env())
        if code != 0:
            raise RuntimeError(f"{mode} pass failed: {stderr.decode(errors='replace')[-2000:]}")
        return json.loads(stdout.splitlines()[-1])

    plain, first, second = child("plain"), child("traced-1"), child("traced-2")
    python_start = statistics.median(start)
    metrics = dict(first["layers"])
    metrics["cli.python_start_s"] = python_start
    metrics["cli.import_s"] = statistics.median(imports) - python_start
    metrics["trace.overhead_ratio"] = (first["wall_s"] + second["wall_s"]) / 2 / plain["wall_s"]
    metrics = {key: metrics[key] for key in LAYER_METRICS}
    errors = [e for run in (plain, first, second) for e in run["errors"]][:5]
    attempted = sum(run["attempted"] for run in (plain, first, second))
    failed = sum(run["failed"] for run in (plain, first, second))
    mismatched = [
        key for key in EXACT_COUNTS if first["layers"][key] != second["layers"][key]
    ]
    if mismatched:
        failed += 1
        errors.append(f"traced counts differ between two runs of seed {seed}: {mismatched}")
    samples = {
        "python_start_s": start,
        "import_cli_s": imports,
        "plain_wall_s": plain["wall_s"],
        "traced_wall_s": [first["wall_s"], second["wall_s"]],
        "counts_repeat": not mismatched,
        "spans_files": [first["spans_file"], second["spans_file"]],
    }
    return metrics, samples, attempted, failed, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--exec", choices=("plain", "traced-1", "traced-2"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cyc3", "__init__.py")):
        print(f"error: no cyc3 sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cyc3

    if not os.path.abspath(cyc3.__file__).startswith(SRC + os.sep):
        print(f"error: imported cyc3 from {cyc3.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.exec:
        print(json.dumps(execute(args.workload, args.seed, args.exec)))
        return 0

    if args.trace:
        metrics, samples, attempted, failed, errors = traced_run(args.workload, args.seed)
        from tracer import LAYER_METRICS as units
    else:
        metrics, samples, attempted, failed, errors = timed_run(
            args.workload, args.seed, args.seconds
        )
        units = END_TO_END
    for line in errors:
        print(f"FAILED {line}")
    for key, value in metrics.items():
        print(f"{args.workload} {key:34s} {value:14.6g} {units[key]}")
    print(f"{args.workload} {'fail_frac':34s} {failed / attempted:14.6g} ({failed} of {attempted} ops)")
    record = {"context": context(args.workload, args.seed), "samples": samples}
    print(json.dumps(record))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
