"""Record the expected outputs of every benchmark op into reference.json.

Run from the repository root against a known-good version of cyc3:

    python3 perfbench/make_reference.py

It takes a few minutes.  Before writing, it cross-checks the outputs by
independent routes and refuses to write if any disagree:

* coset leaders: the benchmark's own enumeration vs cyc3.cosets;
* CLI bytes: in-process `cyc3.cli.main` vs a real `python -m cyc3` process
  on a sample of argvs (exit code and stdout bytes);
* sweep-warm: the Zech-table scan vs the generic field-arithmetic scan on a
  sample of leaders at m=7 and m=8;
* weight-oracle: at m=5 and m=6, a full-size even coset is optimal exactly
  when the weight search finds no word below weight 4, and every witness
  found is divisible by the code's generator polynomial;
* cyclotomic factoring: the factors of x^(3^m-1)-1 are exactly the minimal
  polynomials of all coset leaders (x-1 and x+1 included);
* random polynomials: the factors multiply back to the input and are each
  irreducible; every pooled irreducible factors as itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import cyc3.cli  # noqa: E402
from cyc3 import codes, conditions, cosets, field, gf3poly, identities  # noqa: E402
from cyc3.gf3poly import Poly  # noqa: E402

from workloads import (  # noqa: E402
    CLI_FAMILIES,
    CLI_FIXED_VERIFY,
    CLI_VERIFY_MS,
    CYCLOTOMIC_MS,
    FIELD_MS,
    POLY_PATTERNS,
    REFERENCE,
    ROOT,
    SWEEP_MS,
    WEIGHT_MS,
    child_env,
    digest,
    even_leaders,
    factor_summary,
    field_summary,
    identities_summary,
    pattern_input,
    report_summary,
    run_child,
    witness_summary,
)

POOL_SIZE = 6
RNG = random.Random("cyc3-reference")


def log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def cli_in_process(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cyc3.cli.main(argv)
    return code, buf.getvalue().encode("utf-8")


def check_leaders(m: int, full_size_only: bool) -> list[int]:
    ours = even_leaders(m, full_size_only)
    theirs = [
        c.leader
        for c in cosets.cosets_partition(3, m)
        if c.leader % 2 == 0 and c.leader and (c.size == m or not full_size_only)
    ]
    require(ours == theirs, f"coset leaders at m={m}")
    return ours


def build_cli() -> dict:
    out = {"leaders": {}, "verify": {}, "family": {}}
    samples = [list(x) for x in CLI_FIXED_VERIFY]
    for m in CLI_VERIFY_MS:
        leaders = check_leaders(m, full_size_only=True)
        out["leaders"][str(m)] = leaders
        entries = {}
        instances = sorted(set(leaders) | {e for mm, e in CLI_FIXED_VERIFY if mm == m})
        for e in instances:
            argv = ["verify", "--m", str(m), "--e", str(e), "--format", "json"]
            code, stdout = cli_in_process(argv)
            entries[str(e)] = [code, digest(stdout)]
        out["verify"][str(m)] = entries
        samples += [[m, e] for e in RNG.sample(leaders, 4)]
        log(f"cli verify m={m}: {len(entries)} instances")
    env = child_env()
    for m, e in samples:
        argv = ["verify", "--m", str(m), "--e", str(e), "--format", "json"]
        code, stdout, stderr, _ = run_child([sys.executable, "-m", "cyc3"] + argv, env)
        require(
            [code, digest(stdout)] == out["verify"][str(m)][str(e)] and not stderr,
            f"subprocess vs in-process bytes for {argv}",
        )
    for name, ms in CLI_FAMILIES:
        argv = ["family", "--name", name, "--m-list", ms, "--format", "json"]
        code, stdout = cli_in_process(argv)
        runs = [run_child([sys.executable, "-m", "cyc3"] + argv, env) for _ in range(2)]
        for sub_code, sub_out, sub_err, _ in runs:
            require(
                (sub_code, sub_out, sub_err) == (code, stdout, b""),
                f"subprocess vs in-process bytes for {argv}",
            )
        out["family"][f"{name} {ms}"] = [code, digest(stdout)]
    log("cli reference cross-checked against real subprocesses")
    return out


def build_sweep() -> dict:
    out = {}
    for m in SWEEP_MS:
        f = field.build_field(m)
        leaders = check_leaders(m, full_size_only=False)
        entries = {}
        reports = {}
        for e in leaders:
            report = conditions.verify_optimal(f, e)
            reports[e] = report
            entries[str(e)] = report_summary(report, f)
        for e in RNG.sample(leaders, 12 if m == 7 else 6):
            generic = (
                tuple(conditions._solutions_generic(f, e, -1)),
                tuple(conditions._solutions_generic(f, e, +1)),
            )
            require(
                generic == (reports[e].c2_solutions, reports[e].c3_solutions),
                f"table vs generic scan at m={m} e={e}",
            )
        out[str(m)] = entries
        n_opt = sum(r.verdict == "optimal" for r in reports.values())
        log(f"sweep m={m}: {len(entries)} leaders, {n_opt} optimal; generic scan agrees")
    return out


def build_weight() -> dict:
    out = {}
    for m in WEIGHT_MS:
        f = field.build_field(m)
        entries = {}
        for e in check_leaders(m, full_size_only=False):
            w = codes.min_weight_leq3_search(f, e)
            entries[str(e)] = witness_summary(w)
            report = conditions.verify_optimal(f, e)
            if report.coset_ok:
                require(
                    (report.verdict == "optimal") == (w.verdict == "no_word_below_4"),
                    f"conditions vs weight oracle at m={m} e={e}",
                )
            if w.verdict == "found":
                word = [0] * (max(w.positions) + 1)
                for pos, val in zip(w.positions, w.values):
                    word[pos] = val
                spec = codes.build_code(f, e)
                require(
                    codes.is_codeword(spec, Poly(word)),
                    f"witness not divisible by the generator at m={m} e={e}",
                )
        out[str(m)] = entries
        log(f"weight m={m}: {len(entries)} leaders; agrees with the conditions")
    return out


def random_irreducible(degree: int, taken: list) -> list[int]:
    while True:
        coeffs = [RNG.randrange(3) for _ in range(degree)] + [1]
        p = Poly(coeffs)
        if coeffs in taken or not gf3poly.is_irreducible(p):
            continue
        fa = gf3poly.factor(p)
        require(fa.unit == 1 and fa.factors == ((p, 1),), f"pooled irreducible {coeffs}")
        return coeffs


def irreducible_count(d: int) -> int:
    # monic irreducibles of degree d over GF(3), by Moebius inversion
    def mu(k):
        out, q = 1, 2
        while q * q <= k:
            if k % q == 0:
                k //= q
                if k % q == 0:
                    return 0
                out = -out
            q += 1
        return -out if k > 1 else out

    return sum(mu(d // k) * 3**k for k in range(1, d + 1) if d % k == 0) // d


def build_poly() -> dict:
    out = {"cyclotomic": {}, "fields": {}}
    for m in CYCLOTOMIC_MS:
        n = 3**m - 1
        fa = gf3poly.factor(Poly([2] + [0] * (n - 1) + [1]))
        f = field.build_field(m)
        minpolys = sorted(
            cosets.minimal_polynomial(f, c.leader) for c in cosets.cosets_partition(3, m)
        )
        require(
            fa.unit == 1 and list(fa.factors) == [(p, 1) for p in minpolys],
            f"factors of x^{n}-1 vs minimal polynomials of the coset leaders",
        )
        out["cyclotomic"][str(m)] = factor_summary(fa)
    log("cyclotomic factorizations match the minimal polynomials")
    for degree in (60, 78, 96, 114, 132, 150):
        coeffs = [RNG.randrange(3) for _ in range(degree)] + [1]
        fa = gf3poly.factor(Poly(coeffs))
        require(fa.expand() == Poly(coeffs), f"factor product at degree {degree}")
        require(
            all(gf3poly.is_irreducible(p) for p, _ in fa.factors),
            f"factor irreducibility at degree {degree}",
        )
    log("random dense polynomials: factors multiply back and are irreducible")
    pool = {}
    degrees = sorted({d for pattern in POLY_PATTERNS for d, _ in pattern})
    for d in degrees:
        taken: list = []
        for _ in range(min(POOL_SIZE, irreducible_count(d))):
            taken.append(random_irreducible(d, taken))
        pool[str(d)] = taken
        log(f"pooled {len(taken)} irreducibles of degree {d}")
    for pattern in POLY_PATTERNS:
        coeffs, factors = pattern_input(pool, pattern, RNG)
        require(
            factor_summary(gf3poly.factor(Poly(coeffs))) == [1, factors],
            f"pattern {pattern} factors as constructed",
        )
    out["irreducibles"] = pool
    checks = identities.run_all()
    out["identities"] = identities_summary(checks)
    for m in FIELD_MS:
        f = field.Field(m)
        require(gf3poly.is_irreducible(f.modulus), f"Field({m}) modulus irreducible")
        out["fields"][str(m)] = field_summary(f)
    log("identities and Field(11), Field(12) recorded")
    return out


def main() -> int:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    ref = {
        "commit": commit,
        "python": sys.version.split()[0],
        "sweep": build_sweep(),
        "weight": build_weight(),
        "poly": build_poly(),
        "cli": build_cli(),
    }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    log(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
