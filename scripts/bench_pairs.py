#!/usr/bin/env python3
"""Benchmark two source trees against each other in alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out FILE
                                   [--first-seed 1]

For ten seeds from --first-seed on and every workload in BENCHMARK.json,
runs `perfbench/run.py --trace 0` once in each tree for BENCHMARK.json's
`run_seconds`, through that tree's own `perfbench/suite.py`, the parent
first on even pairs and the change first on odd ones, and then a
`--trace 1` cli-cold run in each tree in the same order.  A run whose
result is not `correct` stops the script.  FILE collects every run's
last-line result and context (without the per-op latency lists), and per
workload and metric each side's spread (as `perfbench/suite.py` gives it)
and how many pairs the change won, with the machine's core count and
Python version.

A tree holding `src/cyc3/__pycache__` is refused: the interpreter would
load that bytecode instead of compiling the sources, so cli-cold would
measure whether bytecode happens to exist.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
TRACED_LAYERS = ("cli.python_start_s", "cli.import_s", "cli.main_s")


def load_suite(side: str, tree: str):
    if os.path.exists(os.path.join(tree, "src", "cyc3", "__pycache__")):
        raise SystemExit(f"{tree} holds src/cyc3/__pycache__; remove it first")
    spec = importlib.util.spec_from_file_location(
        f"suite_{side}", os.path.join(tree, "perfbench", "suite.py"))
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    return suite


def run(suite, workload: str, seed: int, seconds: float, trace: int) -> dict:
    result, record = suite.run(workload, seed, seconds, trace)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} in {suite.ROOT} gave wrong answers")
    record["samples"].pop("op_latency_ms", None)
    return {"result": result, "context": record["context"], "samples": record["samples"]}


def summarize(spread, pairs: list[dict], metrics: dict[str, str]) -> dict:
    """metrics maps each name to "lower" or "higher", the better side."""
    out = {}
    for name, better in metrics.items():
        parent = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
        out[name] = {"better": better, "parent": spread(parent), "change": spread(change),
                     "change_wins": wins, "pairs": len(pairs)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"]: m["better"] for m in bench["end_to_end"]}
    traced_metrics = {m["name"]: m["better"] for m in bench["per_layer"]
                      if m["name"] in TRACED_LAYERS}
    sys.dont_write_bytecode = True  # leave both trees' perfbench/ as they are
    suites = {side: load_suite(side, os.path.abspath(tree))
              for side, tree in (("parent", args.parent), ("change", args.change))}
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    runs: dict[str, list[dict]] = {name: [] for name in workloads + ["cli-cold traced"]}
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for name in runs:
            workload, trace = ("cli-cold", 1) if name == "cli-cold traced" else (name, 0)
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(suites[side], workload, seed, seconds, trace)
            runs[name].append(pair)
            failed = sum(pair[s]["result"]["failed"] for s in order)
            print(f"seed {seed} {name}: {failed} failed ops", flush=True)
    report = {
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    spread = suites["change"].spread
    for name, pairs in runs.items():
        metrics = traced_metrics if name == "cli-cold traced" else end_to_end
        report["workloads"][name] = {
            "failed_ops": {s: sum(p[s]["result"]["failed"] for p in pairs) for s in suites},
            "attempted_ops": {s: sum(p[s]["result"]["attempted"] for p in pairs) for s in suites},
            "summary": summarize(spread, pairs, metrics),
            "pairs": pairs,
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
