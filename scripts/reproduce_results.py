#!/usr/bin/env python3
"""End-to-end reproduction of every headline result.

Prints one section per claim group and exits nonzero if anything departs
from the recorded state, including the documented m = 5 finding for the
third conclusion family (no reading of its constant is optimal for every
qualifying h there; the even reading fails only at h = 4, e = 122).

Runs from any directory: the package is imported from the checkout's src.
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cyc3.cli import main as cli_main
from cyc3.codes import min_weight_leq3_search, sphere_packing_max_d
from cyc3.conditions import family_instances, verify_family, verify_optimal
from cyc3.cosets import coset_size_law_check
from cyc3.field import build_field
from cyc3.identities import run_all


def section(title):
    print(f"\n== {title}")


def main() -> int:
    t0 = time.perf_counter()
    failures = []

    def expect(ok, label):
        print(f"  {'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    section("canonical fields")
    for m in (4, 5, 6, 7, 8, 10):
        f = build_field(m)
        print(f"  GF(3^{m}): modulus {f.modulus.format()}")

    section("certified optimal codes")
    cases = [(4, 14), (6, 86), (8, 86), (10, 734)]
    beyond_the_paper = [(11, 248), (12, 734)]
    reports = {}
    for m, e in cases + beyond_the_paper:
        r = reports[m] = verify_optimal(build_field(m), e)
        n = 3 ** m - 1
        expect(
            r.verdict == "optimal" and r.parameters == (n, n - 2 * m, 4),
            f"(m={m}, e={e}) -> [{n}, {n - 2 * m}, 4]",
        )

    section("sphere packing caps the distance at 4")
    for m, _ in cases + beyond_the_paper:
        n = 3 ** m - 1
        expect(
            sphere_packing_max_d(n, n - 2 * m, 3) == 4,
            f"[n={n}, k={n - 2 * m}]",
        )

    section("exhaustive low-weight search")
    for m, e in cases:
        w = min_weight_leq3_search(build_field(m), e)
        expect(w.verdict == "no_word_below_4", f"(m={m}, e={e}) has no word below 4")

    section("families A and B at m = 5, 7")
    for name in ("concl-A", "concl-B"):
        rows = verify_family(name, [5, 7])
        expect(
            all(rep.verdict == "optimal" for _, rep in rows),
            f"{name}: {len(rows)} instances optimal",
        )

    section("family C, both readings of the constant")
    rows = verify_family("concl-C", [5, 7])
    verdicts = {}
    for inst, rep in rows:
        verdicts.setdefault((inst.m, inst.reading), []).append(rep.verdict)
    for (m, reading), vs in sorted(verdicts.items()):
        print(f"  m={m} [{reading}]: {', '.join(vs)}")
    expect(
        all(v == "not_optimal" for v in verdicts[(5, "(3^m-1)/2")])
        and all(v == "not_optimal" for v in verdicts[(7, "(3^m-1)/2")]),
        "odd reading fails everywhere (parity)",
    )
    expect(
        verdicts[(5, "(3^(m-1)-1)/2")] == ["optimal"] * 3 + ["not_optimal"],
        "even reading at m=5 fails exactly at h=4 (e=122)",
    )
    expect(
        verdicts[(7, "(3^(m-1)-1)/2")] == ["optimal"] * 4,
        "even reading fully optimal at m=7",
    )
    w = min_weight_leq3_search(build_field(5), 122)
    expect(
        w.verdict == "found" and w.positions == (0, 2, 170),
        "weight-3 codeword at (m=5, e=122)",
    )
    # GF(3^5) lies in GF(3^m) when 5 | m, where x^e = x^122 if e = 122
    # (mod 242): the even reading's defect comes back at these (m, h)
    returns = [
        (i.m, i.h)
        for m in range(5, 121, 10)
        if m % 3
        for i in family_instances("concl-C", [m])
        if i.reading == "(3^(m-1)-1)/2" and i.e % 242 == 122
    ]
    print(f"  defect returns at (m, h) = {returns}")
    expect(
        returns == [(5, 4), (25, 19), (35, 9), (55, 14), (65, 49), (85, 64),
                    (95, 24), (115, 29)],
        "e = 122 (mod 242) at 8 (m, h) with 5 | m <= 120",
    )

    section("whole-group search, the README table rows at m = 8, 9, 10")
    for m, optimal, evaluated in ((8, 58, 422), (9, 649, 1096), (10, 978, 2978)):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_main(["search", "--m", str(m), "--format", "json"])
        d = json.loads(out.getvalue())
        expect(
            code == 0
            and (len(d["optimal"]), d["evaluatedCosetLeaders"]) == (optimal, evaluated),
            f"search m={m}: {optimal} of {evaluated} optimal",
        )

    section("identity suite")
    checks = run_all()
    for c in checks:
        print(f"  {c.status:4}  {c.check_id}")
    expect(all(c.passed for c in checks), f"{len(checks)} symbolic checks")

    section("negative controls at m = 4")
    f4 = build_field(4)
    r = verify_optimal(f4, 7)
    expect(r.verdict == "not_optimal" and not r.c1, "odd e=7 fails parity")
    r = verify_optimal(f4, 4)
    expect(
        r.verdict == "not_optimal" and r.c1 and r.coset_ok
        and len(r.c2_solutions) == 3 and len(r.c3_solutions) == 1,
        "e=4 fails exactly the difference equation",
    )

    section("coset size law and gcd chain")
    for m in (2, 4, 5, 6):
        rep = coset_size_law_check(3, m)
        expect(rep.violations == (), f"size law at m={m} ({rep.checked} exponents)")
    # the open-problem exponents 3^h + 5 are the reports' e at even m
    for m in (4, 6, 8, 10, 12):
        expect(reports[m].gcd_value == 2, f"gcd chain (m={m}) = 2")

    print(f"\n{'ALL RESULTS REPRODUCED' if not failures else 'MISMATCHES FOUND'} "
          f"({time.perf_counter() - t0:.1f}s)")
    for label in failures:
        print(f"  mismatch: {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
