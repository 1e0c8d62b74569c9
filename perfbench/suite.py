"""Run every workload over several seeds and summarize the spread.

    python3 perfbench/suite.py [--seeds 10] [--first-seed 1] [--seconds 20]
                               [--workload NAME ...] [--trace] [--out FILE]

Each run is one `run.py` process.  For every workload the summary gives each
end-to-end metric's median, quartiles and spread (interquartile distance as
a share of the median) over the seeds, next to the bound in BENCHMARK.json,
and the failure fraction.  With --trace it also makes two traced runs of
the first seed and checks that their per-layer counts agree.  --out writes
the summary, with each run's context and samples, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workload or names:
        results, contexts = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, record = run(workload, seed, args.seconds, 0)
            # per-op latencies stay in run.py's own output; they are large
            record["samples"].pop("op_latency_ms", None)
            results.append(result)
            contexts.append(record)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {
            "correct": all(r["correct"] for r in results),
            "fail_frac": failed / attempted,
            "metrics": {
                name: spread([r["metrics"][name]["value"] for r in results])
                for name in bounds
            },
            "runs": contexts,
        }
        print(f"{workload}: {len(results)} seeds, fail_frac {entry['fail_frac']:g} "
              f"({failed} of {attempted} ops), correct {entry['correct']}")
        for name, s in entry["metrics"].items():
            b = bounds[name]
            print(f"  {name:16s} median {s['median']:12.6g} {b['unit']:5s} "
                  f"q1 {s['q1']:10.6g} q3 {s['q3']:10.6g} spread {s['spread']:7.2%} "
                  f"(bound {b['bound']:.0%})")
        if args.trace:
            first, _ = run(workload, args.first_seed, args.seconds, 1)
            second, _ = run(workload, args.first_seed, args.seconds, 1)
            counts = [k for k, v in first["metrics"].items() if v["unit"] == "count"]
            same = all(first["metrics"][k] == second["metrics"][k] for k in counts)
            entry["traced"] = {"correct": first["correct"] and second["correct"],
                               "counts_repeat": same, "metrics": first["metrics"]}
            overhead = first["metrics"]["trace.overhead_ratio"]["value"]
            print(f"  traced: counts repeat across two runs: {same}; "
                  f"tracing overhead ratio {overhead:.3f}")
        summary[workload] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    ok = all(e["correct"] and e.get("traced", {}).get("counts_repeat", True) for e in summary.values())
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
