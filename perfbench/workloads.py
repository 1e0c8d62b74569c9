"""Workload inputs, operations and output checks for the cyc3 benchmark.

The seed fixes a workload's operations ("ops") and their inputs.  A pass
runs every op once, in a seed-shuffled order; a run repeats passes in a
closed loop: one client, and the next op starts only after the previous one
has finished.  Ops reach cyc3 only
through its public entry points (`python -m cyc3` and the public functions
of its modules), looked up as module attributes at call time so that the
traced run can wrap them.

Outputs are checked against `reference.json`, which `make_reference.py`
recorded from a known-good version of cyc3 and cross-checked by independent
routes.  The random polynomials of `poly-engine` are products of known
irreducibles, so their expected factorization is known by construction.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import selectors
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

# -- the input universe -------------------------------------------------------

CLI_VERIFY_MS = (9, 10)
# always in every cli-cold pass: the certified m=10 instance and a
# non-optimal neighbour (exit code 1)
CLI_FIXED_VERIFY = ((10, 734), (10, 736))
CLI_DRAWN_PER_M = 2
CLI_FAMILIES = (
    ("open-problem", "4,6,8,10"),
    ("concl-A", "5,7"),
    ("concl-C", "5,7"),
)
SWEEP_MS = (7, 8)
WEIGHT_MS = (5, 6)
CYCLOTOMIC_MS = (4, 5, 6)
FIELD_MS = (11, 12)

# Factor-degree patterns of the random poly-engine inputs, as (degree,
# multiplicity).  The seed picks which irreducibles fill each pattern, so
# every seed asks the factoring engine for the same amount of work: a
# plain random polynomial's cost swings with the degree of its largest
# factor.  Total degrees run from 60 to 150; the patterns include a square
# and two cubes so the squarefree split does real work.  No two large
# factors share a degree: splitting those is a random search whose length
# varies from seed to seed.
POLY_PATTERNS = (
    ((1, 2), (3, 1), (7, 1), (15, 1), (33, 1)),
    ((1, 1), (2, 1), (2, 1), (13, 1), (60, 1)),
    ((1, 1), (3, 1), (6, 1), (5, 3), (31, 1), (40, 1)),
    ((1, 3), (2, 1), (4, 1), (14, 1), (44, 1), (47, 1)),
    ((1, 1), (7, 1), (13, 1), (2, 2), (47, 1), (60, 1)),
    ((3, 1), (3, 1), (9, 1), (13, 1), (15, 1), (47, 1), (60, 1)),
)
# Random polynomials drawn per pattern.  Two draws make the slow end of a
# pass a run of similar-cost ops, so the tail percentile does not sit on
# the gap between two ops of different cost.
POLY_DRAWS_PER_PATTERN = 2


def even_leaders(m: int, full_size_only: bool) -> list[int]:
    """Even nonzero leaders of the 3-cyclotomic cosets mod 3^m - 1.

    Computed here rather than by cyc3 so that the benchmark's inputs do not
    depend on the program under test.
    """
    n = 3**m - 1
    out = []
    for j in range(2, n, 2):
        c, size = j, 0
        while True:
            c = c * 3 % n
            size += 1
            if c <= j:
                break
        if c == j and (size == m or not full_size_only):
            out.append(j)
    return out


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# -- dense GF(3) polynomials as coefficient lists, independent of cyc3 --------


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % 3
    return out


def pattern_input(pool: dict, pattern, rng: random.Random):
    """(coefficients, expected [[factor coefficients, multiplicity]]) of a
    product of distinct pooled irreducibles with the pattern's degrees."""
    factors: list = []
    for degree, mult in pattern:
        taken = [f for f, _ in factors]
        factors.append([rng.choice([p for p in pool[str(degree)] if p not in taken]), mult])
    product = [1]
    for p, mult in factors:
        for _ in range(mult):
            product = poly_mul(product, p)
    # cyc3 orders factors by degree, then by ascending coefficients
    factors.sort(key=lambda f: (len(f[0]), f[0]))
    return product, factors


# -- subprocess ops -----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # measure the CLI with its default worker count, as a user runs it
    env.pop("CYC3_WORKERS", None)
    env.pop("PYTHONHASHSEED", None)
    return env


def run_child(argv: list[str], env: dict) -> tuple[int, bytes, bytes, int]:
    """Run one process to completion: (exit code, stdout, stderr, peak RSS
    in KiB of it and the children it waited for)."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        open_files = len(chunks)
        while open_files:
            for key, _ in sel.select():
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    open_files -= 1
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        b"".join(chunks[proc.stdout]),
        b"".join(chunks[proc.stderr]),
        usage.ru_maxrss,
    )


# -- workloads ----------------------------------------------------------------


class Op:
    """One operation: `label` names the inputs (ops with the same label must
    give the same output), `run` performs it, `check` returns None or the
    reason the output is wrong."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def matches(summary, expected):
    """A check comparing summary(output) with the recorded expected value."""

    def check(output):
        got = summary(output)
        return None if got == expected else f"got {got!r:.300}, expected {expected!r:.300}"

    return check


class Workload:
    """A seed fixes the workload's inputs; every pass runs each of them once,
    in a fresh seed-shuffled order."""

    name = ""
    in_process = True
    setup_ms: tuple[int, ...] = ()
    # passes a timed run makes at least; the tail percentile leaves at
    # least ten samples beyond it: raw samples at that many passes, or,
    # with tail_over_ops, the distinct ops' fastest latencies
    min_passes = 3
    tail_pct = 50.0
    tail_over_ops = False

    def __init__(self, ref: dict, seed: int, tracer=None):
        self.ref = ref
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tracer = tracer

    def setup(self) -> None:
        """Build the fields and tables the ops reuse.  Runs again, untimed,
        before every later pass, so that no pass finds the per-field
        minimal-polynomial cache filled by an earlier one."""
        import cyc3.field

        self.fields = {}
        for m in self.setup_ms:
            field = cyc3.field.Field(m)
            field.tables()
            self.fields[m] = field

    def pass_ops(self) -> list[Op]:
        raise NotImplementedError


class CliCold(Workload):
    name = "cli-cold"
    in_process = False
    min_passes = 6
    tail_pct = 75.0

    def __init__(self, ref, seed, tracer=None):
        super().__init__(ref, seed, tracer)
        if tracer is None:
            self.command = [sys.executable, "-m", "cyc3"]
        else:
            self.command = [sys.executable, os.path.join(HERE, "cli_driver.py")]
        self.env = child_env()
        self.first_stdout: dict[str, bytes] = {}
        self.instances = list(CLI_FIXED_VERIFY)
        for m in CLI_VERIFY_MS:
            leaders = ref["cli"]["leaders"][str(m)]
            self.instances += [(m, e) for e in self.rng.sample(leaders, CLI_DRAWN_PER_M)]

    def pass_ops(self) -> list[Op]:
        ops = []
        for m, e in self.instances:
            argv = ["verify", "--m", str(m), "--e", str(e), "--format", "json"]
            ops.append(self._op(argv, self.ref["cli"]["verify"][str(m)][str(e)]))
        for name, ms in CLI_FAMILIES:
            argv = ["family", "--name", name, "--m-list", ms, "--format", "json"]
            ops.append(self._op(argv, self.ref["cli"]["family"][f"{name} {ms}"]))
        self.rng.shuffle(ops)
        return ops

    def _op(self, argv, expected) -> Op:
        label = " ".join(argv)
        return Op(label, lambda: self._run(argv), lambda out: self._check(label, argv, out, expected))

    def _run(self, argv):
        code, stdout, stderr, rss = run_child(self.command + argv, self.env)
        if self.tracer is not None:
            # cli_driver.py's last stderr line carries its spans
            from cli_driver import SPANS_MARKER

            rest, _, last = stderr.rstrip(b"\n").rpartition(b"\n")
            if last.startswith(SPANS_MARKER):
                trace = json.loads(last[len(SPANS_MARKER):])
                self.tracer.absorb(trace["spans"], trace["counts"])
                stderr = rest
        return code, stdout, stderr, rss

    def _check(self, label, argv, out, expected):
        code, stdout, stderr, _ = out
        if stderr.strip():
            return f"stderr: {stderr.decode(errors='replace')[-300:]}"
        if argv[2] == "concl-C":
            gap = check_concl_c_gap(code, stdout)
            if gap:
                return gap
        if [code, digest(stdout)] != expected:
            return f"exit {code} / json {digest(stdout)}, expected {expected}"
        if self.first_stdout.setdefault(label, stdout) != stdout:
            return "JSON differs between two runs of the same argv"
        return None


def check_concl_c_gap(code: int, stdout: bytes):
    """The documented family-C gap must stay visible: exit 1, and m=5 with
    e=122 reported as not optimal under the (3^(m-1)-1)/2 reading."""
    body = json.loads(stdout)
    if code != 1:
        return f"concl-C exited {code}, the m=5 gap must give exit 1"
    flagged = any(
        line.startswith("m=5: no reading") for line in body.get("discrepancies", [])
    )
    e122 = [
        inst
        for inst in body.get("instances", [])
        if inst["report"]["m"] == 5 and inst["report"]["e"] == 122
    ]
    if not flagged or not e122 or any(
        inst["report"]["verdict"] != "not_optimal" for inst in e122
    ):
        return "concl-C no longer reports the m=5 discrepancy at e=122"
    return None


class SweepWarm(Workload):
    name = "sweep-warm"
    setup_ms = SWEEP_MS
    min_passes = 3
    tail_pct = 98.0  # of 578 ops
    tail_over_ops = True

    def pass_ops(self) -> list[Op]:
        import cyc3.conditions

        instances = [
            (m, int(e)) for m in SWEEP_MS for e in self.ref["sweep"][str(m)]
        ]
        self.rng.shuffle(instances)
        ops = []
        for m, e in instances:
            field = self.fields[m]
            ops.append(Op(
                f"verify {m} {e}",
                lambda field=field, e=e: cyc3.conditions.verify_optimal(field, e),
                matches(lambda r, field=field: report_summary(r, field),
                        self.ref["sweep"][str(m)][str(e)]),
            ))
        return ops


def report_summary(report, field) -> list:
    body = report.to_json_dict(field)
    return [body["verdict"], body["parameters"], digest(canonical(body))]


class WeightOracle(Workload):
    name = "weight-oracle"
    setup_ms = WEIGHT_MS
    min_passes = 3
    tail_pct = 88.0  # of 90 ops
    tail_over_ops = True

    def pass_ops(self) -> list[Op]:
        import cyc3.codes

        instances = [
            (m, int(e)) for m in WEIGHT_MS for e in self.ref["weight"][str(m)]
        ]
        self.rng.shuffle(instances)
        ops = []
        for m, e in instances:
            field = self.fields[m]
            ops.append(Op(
                f"weight {m} {e}",
                lambda field=field, e=e: cyc3.codes.min_weight_leq3_search(field, e),
                matches(witness_summary, self.ref["weight"][str(m)][str(e)]),
            ))
        return ops


def witness_summary(w) -> list:
    return [
        w.verdict,
        None if w.positions is None else list(w.positions),
        None if w.values is None else list(w.values),
    ]


class PolyEngine(Workload):
    name = "poly-engine"
    min_passes = 4
    tail_pct = 86.0  # inside the two pattern-5 polynomials' repeats

    def __init__(self, ref, seed, tracer=None):
        super().__init__(ref, seed, tracer)
        pool = ref["poly"]["irreducibles"]
        self.patterns = [
            pattern_input(pool, p, self.rng)
            for p in POLY_PATTERNS
            for _ in range(POLY_DRAWS_PER_PATTERN)
        ]

    def pass_ops(self) -> list[Op]:
        import cyc3.field
        import cyc3.gf3poly
        import cyc3.identities

        ref = self.ref["poly"]
        inputs = [
            (f"factor x^{3**m - 1}-1", [2] + [0] * (3**m - 2) + [1], ref["cyclotomic"][str(m)])
            for m in CYCLOTOMIC_MS
        ]
        inputs += [
            (f"factor pattern {i} {digest(canonical(coeffs))}", coeffs, [1, factors])
            for i, (coeffs, factors) in enumerate(self.patterns)
        ]
        ops = [
            Op(label, lambda f=cyc3.gf3poly.Poly(coeffs): cyc3.gf3poly.factor(f),
               matches(factor_summary, expected))
            for label, coeffs, expected in inputs
        ]
        ops.append(Op("identities.run_all", lambda: cyc3.identities.run_all(),
                      matches(identities_summary, ref["identities"])))
        ops += [
            Op(f"Field({m})", lambda m=m: cyc3.field.Field(m),
               matches(field_summary, ref["fields"][str(m)]))
            for m in FIELD_MS
        ]
        self.rng.shuffle(ops)
        return ops


def factor_summary(fa) -> list:
    return [fa.unit, [[list(p.coeffs), k] for p, k in fa.factors]]


def identities_summary(checks) -> list:
    out = []
    for c in checks:
        rhs = c.rhs
        if hasattr(rhs, "factors"):
            rhs_repr = [rhs.unit, [[list(p.coeffs), k] for p, k in rhs.factors]]
        else:
            rhs_repr = list(rhs.coeffs)
        body = [list(c.lhs.coeffs), rhs_repr, c.unit, c.detail]
        out.append([c.check_id, c.status, digest(canonical(body))])
    return out


def field_summary(field) -> list:
    return [list(field.modulus.coeffs), list(field.gen)]


WORKLOADS = {w.name: w for w in (CliCold, SweepWarm, WeightOracle, PolyEngine)}
