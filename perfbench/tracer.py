"""Span recorder for the traced benchmark run.

`Tracer.install()` replaces cyc3's functions with timing wrappers, in every
cyc3 module namespace where callers look them up (a function imported with
`from .codes import build_code` is a separate attribute of
`cyc3.conditions`, so both bindings are wrapped).  The program's files are
not changed.

A span is [name, start, end, parent, op, tag]: `parent` is the index of the
enclosing span in the same process (-1 at the root), `op` the id shared by
the spans of one benchmark op, and `tag` a per-call detail ("build"/"hit"
for Field.tables, "full"/"found" for the weight search).  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its direct children; children run inside the parent's
interval on the same thread, so they never overlap one another.

Work that cyc3 hands to a process pool runs in forked workers whose spans
are not collected; it shows as self time of the span that waits for it
(conditions.verify_family).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, tag kind); kind None records a plain span
LAYERS = (
    ("cyc3.cli", "main", "cli.main", None),
    ("cyc3.field", "Field.__init__", "field.init", None),
    ("cyc3.field", "Field.tables", "field.tables", "tables"),
    ("cyc3.conditions", "verify_optimal", "conditions.verify_optimal", None),
    ("cyc3.conditions", "check_c2", "conditions.check_c2", "scan"),
    ("cyc3.conditions", "check_c3", "conditions.check_c3", "scan"),
    ("cyc3.conditions", "verify_family", "conditions.verify_family", None),
    ("cyc3.cosets", "coset", "cosets.coset", None),
    ("cyc3.cosets", "minimal_polynomial", "cosets.minimal_polynomial", None),
    ("cyc3.codes", "build_code", "codes.build_code", None),
    ("cyc3.codes", "min_weight_leq3_search", "codes.weight_search", "witness"),
    ("cyc3.gf3poly", "factor", "gf3poly.factor", "degree"),
    ("cyc3.gf3poly", "is_irreducible", "gf3poly.is_irreducible", None),
    ("cyc3.gf3poly", "powmod", "gf3poly.powmod", "count"),
    ("cyc3.identities", "run_all", "identities.run_all", None),
)

# every per-layer metric of a traced run, with its unit
LAYER_METRICS = {
    "cli.python_start_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "field.init_s": "s",
    "field.init_calls": "count",
    "field.tables_build_s": "s",
    "field.tables_calls": "count",
    "field.tables_builds": "count",
    "field.tables_hit_ratio": "ratio",
    "field.tables_rss_mib": "MiB",
    "conditions.verify_optimal_s": "s",
    "conditions.verify_optimal_calls": "count",
    "conditions.check_c2_s": "s",
    "conditions.check_c3_s": "s",
    "conditions.elements_scanned": "count",
    "conditions.scan_ns_per_element": "ns",
    "conditions.verify_family_s": "s",
    "cosets.coset_s": "s",
    "cosets.coset_calls": "count",
    "cosets.minimal_polynomial_s": "s",
    "cosets.minimal_polynomial_calls": "count",
    "codes.build_code_s": "s",
    "codes.build_code_calls": "count",
    "codes.weight_search_full_s": "s",
    "codes.weight_search_found_s": "s",
    "codes.weight_search_calls": "count",
    "codes.weight_search_full_share": "ratio",
    "gf3poly.factor_s": "s",
    "gf3poly.factor_calls": "count",
    "gf3poly.factor_degree_sum": "count",
    "gf3poly.is_irreducible_s": "s",
    "gf3poly.is_irreducible_calls": "count",
    "gf3poly.powmod_calls": "count",
    "identities.run_all_s": "s",
    "trace.overhead_ratio": "ratio",
}

# counts that two traced runs of one seed must reproduce exactly
EXACT_COUNTS = tuple(
    name
    for name in LAYER_METRICS
    if name.endswith("_calls")
    or name
    in (
        "field.tables_builds",
        "conditions.elements_scanned",
        "gf3poly.factor_degree_sum",
    )
)


def _rss_bytes() -> int:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counts: dict[str, int] = defaultdict(int)
        self._tables_built: set = set()  # Fields hash by identity

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module_name, *_ in LAYERS:
            importlib.import_module(module_name)
        modules = [m for name, m in sys.modules.items() if name == "cyc3" or name.startswith("cyc3.")]
        for module_name, attr, span, kind in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self._wrap(getattr(cls, attr), span, kind))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span, kind)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def _wrap(self, fn, span, kind):
        if kind == "count":
            key = span + "_calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = None
            rss = 0
            if kind == "tables":
                if args[0] in self._tables_built:
                    tag = "hit"
                else:
                    self._tables_built.add(args[0])
                    tag = "build"
                    rss = _rss_bytes()
            elif kind == "scan":
                self.counts["conditions.elements_scanned"] += args[0].order + 1
            elif kind == "degree":
                self.counts["gf3poly.factor_degree_sum"] += max(args[0].degree, 0)
            index = len(self.spans)
            record = [span, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, tag]
            self.spans.append(record)
            self.stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self.stack.pop()
            if kind == "witness":
                record[5] = "full" if result.verdict == "no_word_below_4" else "found"
            elif rss:
                self.counts["field.tables_rss_bytes"] += _rss_bytes() - rss
            return result

        return traced

    # -- merging and aggregation ------------------------------------------------

    def absorb(self, spans: list[list], counts: dict[str, int]) -> None:
        """Add the spans and counts of another process, as part of the
        current op."""
        base = len(self.spans)
        for name, start, end, parent, _, tag in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, self.op, tag])
        for key, value in counts.items():
            self.counts[key] += value

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, except the start-up controls and overhead."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _, tag) in enumerate(self.spans):
            key = f"{name}:{tag}" if tag else name
            self_s[key] += end - start - child_time[i]
            calls[key] += 1
        counts = self.counts
        tables_calls = calls["field.tables:build"] + calls["field.tables:hit"]
        full_s = self_s["codes.weight_search:full"]
        found_s = self_s["codes.weight_search:found"]
        scanned = counts["conditions.elements_scanned"]
        scan_s = self_s["conditions.check_c2"] + self_s["conditions.check_c3"]
        return {
            "cli.main_s": self_s["cli.main"],
            "field.init_s": self_s["field.init"],
            "field.init_calls": calls["field.init"],
            "field.tables_build_s": self_s["field.tables:build"],
            "field.tables_calls": tables_calls,
            "field.tables_builds": calls["field.tables:build"],
            "field.tables_hit_ratio": calls["field.tables:hit"] / tables_calls if tables_calls else 0.0,
            "field.tables_rss_mib": counts["field.tables_rss_bytes"] / 2**20,
            "conditions.verify_optimal_s": self_s["conditions.verify_optimal"],
            "conditions.verify_optimal_calls": calls["conditions.verify_optimal"],
            "conditions.check_c2_s": self_s["conditions.check_c2"],
            "conditions.check_c3_s": self_s["conditions.check_c3"],
            "conditions.elements_scanned": scanned,
            "conditions.scan_ns_per_element": scan_s * 1e9 / scanned if scanned else 0.0,
            "conditions.verify_family_s": self_s["conditions.verify_family"],
            "cosets.coset_s": self_s["cosets.coset"],
            "cosets.coset_calls": calls["cosets.coset"],
            "cosets.minimal_polynomial_s": self_s["cosets.minimal_polynomial"],
            "cosets.minimal_polynomial_calls": calls["cosets.minimal_polynomial"],
            "codes.build_code_s": self_s["codes.build_code"],
            "codes.build_code_calls": calls["codes.build_code"],
            "codes.weight_search_full_s": full_s,
            "codes.weight_search_found_s": found_s,
            "codes.weight_search_calls": calls["codes.weight_search:full"] + calls["codes.weight_search:found"],
            "codes.weight_search_full_share": full_s / (full_s + found_s) if full_s + found_s else 0.0,
            "gf3poly.factor_s": self_s["gf3poly.factor"],
            "gf3poly.factor_calls": calls["gf3poly.factor"],
            "gf3poly.factor_degree_sum": counts["gf3poly.factor_degree_sum"],
            "gf3poly.is_irreducible_s": self_s["gf3poly.is_irreducible"],
            "gf3poly.is_irreducible_calls": calls["gf3poly.is_irreducible"],
            "gf3poly.powmod_calls": counts["gf3poly.powmod_calls"],
            "identities.run_all_s": self_s["identities.run_all"],
        }
