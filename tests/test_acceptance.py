"""Acceptance gate.

One test per numbered criterion, each enforcing its stated wall-clock
budget.  Criterion 7 splits into four parts: the A/B families, the
enumeration-and-flagging of the two readings of the third family's
constant, the claim that every m keeps at least one fully optimal
reading, and the same defect certified past the table cap.  The third
claim is false at m = 5 (counterexample below), so its test fails by
design rather than being papered over; the discrepancy is reported, not
hidden.  The fourth part finds that defect again at m = 25 and m = 35,
from GF(3^5) inside GF(3^m), with no table.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cyc3.codes import min_weight_leq3_search
from cyc3.conditions import family_instances, verify_family, verify_optimal
from cyc3.cosets import coset, coset_size_law_check
from cyc3.field import _canonical_modulus, build_field
from cyc3.gf3poly import Poly, powmod


def run_cli(*argv, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "cyc3", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def timed(budget, fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - t0
    assert elapsed <= budget, f"took {elapsed:.2f}s, budget {budget}s"
    return result


@pytest.mark.parametrize(
    "m,e,n,k,budget",
    [
        (4, 14, 80, 72, 1.0),
        (6, 86, 728, 716, 5.0),
        (8, 86, 6560, 6544, 30.0),
        (10, 734, 59048, 59028, 120.0),
        (11, 248, 177146, 177124, 30.0),
        (12, 734, 531440, 531416, 30.0),
    ],
    ids=["m4", "m6", "m8", "m10", "m11", "m12"],
)
def test_01_certifies_optimal_parameters_in_time(m, e, n, k, budget):
    proc = timed(
        budget, run_cli, "verify", "--m", str(m), "--e", str(e), "--format", "json"
    )
    assert proc.returncode == 0, proc.stderr
    d = json.loads(proc.stdout)
    assert d["verdict"] == "optimal"
    assert d["parameters"] == {"n": n, "k": k, "d": 4}
    print(f"PASS criterion 1 ({m},{e}): optimal [{n},{k},4]")


@pytest.mark.parametrize(
    "m,e,budget",
    [(4, 14, 10.0), (6, 86, 10.0), (8, 86, 10.0), (10, 734, 10.0), (12, 734, 30.0)],
    ids=["m4", "m6", "m8", "m10", "m12"],
)
def test_02_exhaustive_low_weight_search_and_packing_bound(m, e, budget):
    proc = timed(
        budget, run_cli, "mindist", "--m", str(m), "--e", str(e), "--format", "json"
    )
    assert proc.returncode == 0, proc.stderr
    d = json.loads(proc.stdout)
    assert d["verdict"] == "no_word_below_4"
    assert d["spherePacking"]["maxDistance"] == 4
    print(f"PASS criterion 2 ({m},{e}): no word below 4, bound caps d at 4")


def test_03_conditions_biconditional_with_weight_search():
    """Every full-size even class at m = 4: condition verdict must equal
    the brute-force absence of weight-2 and weight-3 words."""

    def sweep():
        field = build_field(4)
        c1_members = set(coset(1, 3, 4).members)
        tested = 0
        disagreements = []
        for e in range(2, 80, 2):
            if e in c1_members or coset(e, 3, 4).size != 4:
                continue
            tested += 1
            verdict = verify_optimal(field, e).verdict == "optimal"
            clean = min_weight_leq3_search(field, e).verdict == "no_word_below_4"
            if verdict != clean:
                disagreements.append(e)
        return tested, disagreements

    tested, disagreements = timed(120.0, sweep)
    assert tested == 32
    assert disagreements == []
    print(f"PASS criterion 3: {tested} exponents, 0 disagreements")


def test_04_symbolic_identity_suite():
    proc = timed(5.0, run_cli, "identities", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    d = json.loads(proc.stdout)
    assert d["allPass"] is True
    assert len(d["checks"]) == 9
    print("PASS criterion 4: 9 of 9 identity checks")


def test_05_coset_size_law():
    def sweep():
        return [coset_size_law_check(3, m) for m in (2, 4, 5, 6)]

    reports = timed(5.0, sweep)
    for report in reports:
        assert report.violations == (), report
        assert report.checked > 0
    print("PASS criterion 5: size law holds at m = 2, 4, 5, 6")


def test_06_gcd_chain():
    rows = verify_family("open-problem", [4, 6, 8, 10, 12])
    assert [(rep.m, rep.e, rep.h, rep.gcd_value) for _, rep in rows] == [
        (4, 14, 2, 2),
        (6, 86, 4, 2),
        (8, 86, 4, 2),
        (10, 734, 6, 2),
        (12, 734, 6, 2),
    ]
    print("PASS criterion 6: gcd chain collapses to 2")


def test_07a_families_a_and_b_all_optimal():
    def sweep():
        return verify_family("concl-A", [5, 7]) + verify_family("concl-B", [5, 7])

    rows = timed(30.0, sweep)
    assert len(rows) == 8
    bad = [(i.m, i.h, i.e) for i, rep in rows if rep.verdict != "optimal"]
    assert bad == []
    print("PASS criterion 7a: families A and B optimal at m = 5, 7")


def test_07b_family_c_enumerates_both_readings_and_flags():
    proc = timed(
        30.0,
        run_cli,
        "family", "--name", "concl-C", "--m-list", "5,7", "--format", "json",
    )
    d = json.loads(proc.stdout)
    # both readings of the ambiguous constant, every qualifying h, both m
    assert len(d["instances"]) == 16
    readings = {i["reading"] for i in d["instances"]}
    assert readings == {"(3^m-1)/2", "(3^(m-1)-1)/2"}
    # discrepancies are surfaced, not hidden
    assert d["discrepancies"], "expected explicit discrepancy flags"
    assert any("m=5" in s for s in d["discrepancies"])
    print("PASS criterion 7b: both readings enumerated, discrepancy flagged")


def test_07c_family_c_keeps_a_fully_optimal_reading_per_m():
    """Asserts that for each m some reading of the constant makes every
    qualifying h optimal.  This is FALSE at m = 5 and the failure is
    intentional: with the constant read as (3^(m-1)-1)/2, h = 4 qualifies
    through 4h = 16 = 1 (mod 5) and gives e = 122 = (3^5+1)/2, where
    x^122 = +-x on the two square classes and each condition equation
    picks up 61 solutions.  A weight-3 codeword exists (positions 0, 2,
    170, values 1, 2, 2).  The other reading yields odd exponents at
    every m, which the parity condition rejects outright.  At m = 7 the
    even reading is fully optimal.  The README's known-gap section
    carries the full analysis; this test documents the gap honestly
    instead of weakening the claim until it passes."""
    rows = verify_family("concl-C", [5, 7])
    failures = []
    for m in (5, 7):
        by_reading = {}
        for inst, rep in rows:
            if inst.m == m:
                by_reading.setdefault(inst.reading, []).append(rep.verdict)
        consistent = [
            r for r, vs in by_reading.items() if all(v == "optimal" for v in vs)
        ]
        if not consistent:
            detail = {
                r: [v for v in vs] for r, vs in sorted(by_reading.items())
            }
            failures.append(f"m={m}: no fully optimal reading; verdicts {detail}")
    assert not failures, "; ".join(failures)
    print("PASS criterion 7c: every m keeps a fully optimal reading")


@pytest.mark.parametrize("m,h", [(25, 19), (35, 9)], ids=["m25", "m35"])
def test_07d_family_c_defect_is_certified_past_the_table_cap(m, h):
    """The m = 5 defect of 7c comes back at m = 25 and m = 35, past the
    table cap, and is certified here without tables.  With the constant
    read as (3^(m-1)-1)/2, 4h = 1 (mod m) qualifies h, and e = 122 (mod
    242).  As 5 | m, GF(3^5)* sits in GF(3^m)* as the powers of beta =
    alpha^N, N = (3^m - 1) / 242, and on it x^e = x^122: each equation has
    the 61 solutions the m = 5 table scan finds.  A c2 solution y != 0
    gives the word with values 1, 1, 2 at positions 0, N j(y) and
    N j(y+1), j the log to base beta, whose two syndromes are 3y + 3 = 0
    and 1 + y^e - (y+1)^e = 0; both are recomputed from the positions by
    powmod, so the code has a weight-3 word and is not optimal.  The field arithmetic runs on gf3poly
    directly, as Field stops at MAX_DEGREE = 20."""
    (inst,) = [
        i
        for i in family_instances("concl-C", [m])
        if i.h == h and i.reading == "(3^(m-1)-1)/2"
    ]
    e = inst.e
    assert e % 242 == 122

    def certify():
        f = _canonical_modulus(m)
        one, x = Poly.one(), Poly.x()
        n = 3**m - 1
        big_n = n // 242
        beta = powmod(x, big_n, f)
        log = {}  # beta^j -> j
        b = one
        for j in range(242):
            log[b] = j
            b = b * beta % f
        assert b == one and len(log) == 242
        c2, c3 = [], []
        for y in (Poly(), *log):
            lhs, rhs = powmod(y + one, e, f), powmod(y, e, f) + one
            if lhs == rhs:
                c2.append(y)
            if lhs == -rhs:
                c3.append(y)
        y = next(y for y in c2 if y)
        positions = (0, big_n * log[y], big_n * log[y + one])
        syndromes = [
            one  # alpha^0, at position 0
            + powmod(x, k * positions[1] % n, f)
            + 2 * powmod(x, k * positions[2] % n, f)
            for k in (1, e)
        ]
        return len(c2), len(c3), positions, syndromes

    c2_count, c3_count, positions, syndromes = timed(10.0, certify)
    small = verify_optimal(build_field(5), 122)
    assert (c2_count, c3_count) == (61, 61)
    assert (len(small.c2_solutions), len(small.c3_solutions)) == (61, 61)
    assert len(set(positions)) == 3
    assert syndromes == [Poly(), Poly()], positions
    print(f"PASS criterion 7d: m={m} h={h} has a weight-3 word at {positions}")


def test_08a_negative_control_odd_exponent():
    field = build_field(4)
    r = verify_optimal(field, 7)
    assert r.verdict == "not_optimal"
    assert not r.c1
    w = min_weight_leq3_search(field, 7)
    assert w.verdict == "found" and w.weight == 2
    print("PASS criterion 8a: odd exponent fails parity and has a weight-2 word")


def test_08b_negative_control_conjugate_exponent():
    proc = run_cli("code", "--m", "4", "--e", "9")
    assert proc.returncode == 2
    assert "coset" in proc.stderr
    assert "{1, 3, 9, 27}" in proc.stderr
    print("PASS criterion 8b: conjugate exponent rejected with its coset")


def test_08c_negative_control_even_failing_exponent():
    field = build_field(4)
    r = verify_optimal(field, 4)
    assert r.verdict == "not_optimal"
    # fails the difference equation and nothing else
    assert r.c1 and r.coset_ok
    assert len(r.c2_solutions) == 3
    assert len(r.c3_solutions) == 1
    w = min_weight_leq3_search(field, 4)
    assert w.verdict == "found" and w.weight == 3
    print("PASS criterion 8c: e = 4 fails exactly the predicted condition")


def test_09_family_report_is_byte_deterministic():
    args = (
        "family", "--name", "open-problem", "--m-list", "4,6,8",
        "--format", "json",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.encode() == second.stdout.encode()
    print("PASS criterion 9: identical bytes across runs")


def test_reproduce_results_script_replays_every_result(tmp_path):
    # the script reads the reports' solution lists and witnesses and
    # replays the README's search rows at m = 8, 9, 10; it takes about
    # 2.5 s, and runs from any directory: started elsewhere, with no
    # PYTHONPATH, it still imports the checkout's own src
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = timed(
        30,
        subprocess.run,
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ALL RESULTS REPRODUCED" in proc.stdout
    assert "ok   search m=8: 58 of 422 optimal" in proc.stdout
    assert "ok   search m=9: 649 of 1096 optimal" in proc.stdout
    assert "ok   search m=10: 978 of 2978 optimal" in proc.stdout
