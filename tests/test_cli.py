"""Command-line behavior: formats, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cyc3
from cyc3.cli import _report_text_lines, main
from cyc3.conditions import _solutions_generic, verify_optimal
from cyc3.cosets import coset, cosets_partition, minimal_polynomial
from cyc3.field import Field, build_field
from cyc3.gf3poly import Poly, is_irreducible, parse_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_optimal_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "4", "--e", "14")
    assert code == 0
    assert "verdict: optimal" in out
    assert "parameters: [80, 72, 4]" in out
    assert "elapsed:" in out


def test_verify_not_optimal_exit_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "4", "--e", "4")
    assert code == 1
    assert "verdict: not_optimal" in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "4", "--e", "14", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert list(d.keys()) == [
        "m", "e", "h", "c1", "cosetOk", "gcd", "c2Solutions",
        "c3Solutions", "verdict", "parameters", "modulus",
    ]
    assert d["verdict"] == "optimal"
    assert "elapsed" not in out


def test_verify_csv_row(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "4", "--e", "14", "--format", "csv-row")
    header, row = out.strip().split("\n")
    assert header.startswith("m,e,h,c1,cosetOk,gcd,")
    assert row.startswith("4,14,2,true,true,2,")


def test_text_verify_formats_only_the_solutions_it_prints(capsys, monkeypatch):
    # every element solves condition 2 at e = 1; the text shows 8 of each
    # list, so it formats at most 16 elements, not all 729
    calls = []
    format_element = Field.format_element

    def counting(self, a):
        calls.append(a)
        return format_element(self, a)

    monkeypatch.setattr(Field, "format_element", counting)
    code, out, _ = run_cli(capsys, "verify", "--m", "6", "--e", "1")
    assert code == 1
    assert "condition 2 solutions (729):" in out
    assert 0 < len(calls) <= 16


@pytest.mark.parametrize("m,e", [(4, 4), (5, 122), (8, 86)])
def test_reports_keep_solutions_as_codes_without_decoding(monkeypatch, m, e):
    # the scan's codes go straight to the printed text: no element is
    # rebuilt as a Poly on the verify -> report -> text path
    field = build_field(m)
    generic = (
        tuple(_solutions_generic(field, e, -1)),
        tuple(_solutions_generic(field, e, +1)),
    )

    def refuse(self, code):
        raise AssertionError("Field.decode called")

    monkeypatch.setattr(Field, "decode", refuse)
    report = verify_optimal(field, e)
    body = report.to_json_dict(field)
    lines = _report_text_lines(report, field)
    for solutions in (report.c2_solutions, report.c3_solutions):
        assert all(type(code) is int for code in solutions)
    assert (report.c2_solutions, report.c3_solutions) == generic
    assert body["c2Solutions"] == [field.format_element(c) for c in generic[0]]
    assert body["c3Solutions"] == [field.format_element(c) for c in generic[1]]
    for line, codes in zip(lines[4:6], generic):
        shown = ", ".join(field.format_element(c) for c in codes[:8])
        more = " ..." if len(codes) > 8 else ""
        assert line.endswith(f" solutions ({len(codes)}): {shown}{more}")


def test_code_reports_the_generator_of_its_parameters(capsys):
    f4 = build_field(4)
    generator = (f4.modulus * minimal_polynomial(f4, 14)).format()
    code, out, err = run_cli(capsys, "code", "--m", "4", "--e", "14", "--format", "json")
    assert (code, err) == (0, "")
    d = json.loads(out)
    assert d["command"] == "code"
    assert (d["m"], d["e"], d["n"], d["k"]) == (4, 14, 80, 72)
    assert d["generatorDegree"] == 8
    assert d["generator"] == generator
    assert d["modulus"] == f4.modulus.format()
    code, out, err = run_cli(capsys, "code", "--m", "4", "--e", "14")
    assert (code, err) == (0, "")
    assert out.splitlines()[:4] == [
        "code with nonzeros alpha, alpha^14 over GF(3^4):",
        "length n = 80, dimension k = 72",
        f"generator polynomial (degree 8): {generator}",
        f"modulus: {f4.modulus.format()}",
    ]


def test_code_conjugate_exponent_exit_two(capsys):
    code, _, err = run_cli(capsys, "code", "--m", "4", "--e", "9")
    assert code == 2
    assert "distinct cosets" in err


def test_factor_round_trip(capsys):
    code, out, _ = run_cli(capsys, "factor", "--poly", "x^8-1", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["command"] == "factor"
    assert d["unit"] == 1
    assert [f["poly"] for f in d["factors"]] == [
        "x+1", "x-1", "x^2+1", "x^2+x-1", "x^2-x-1",
    ]
    assert d["irreducible"] is False


def test_factor_reads_back_a_leading_minus_with_the_equals_form(capsys):
    # argparse takes "--poly -x^2-1" for an option; "--poly=-x^2-1" reads
    # every printed polynomial back, a leading minus included
    for p in (2 * parse_poly("x^2+1"), parse_poly("-x^5+x-1"), Poly((2,))):
        text = p.format()
        assert text.startswith("-")
        code, out, err = run_cli(capsys, "factor", f"--poly={text}", "--format", "json")
        assert (code, err) == (0, "")
        d = json.loads(out)
        assert d["input"] == text
        assert d["unit"] == 2
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--poly", "-x^2-1"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def _cyclotomic_factor_degrees(n):
    # x^n - 1 with 3 not dividing n: for each divisor t of n, phi(t) / ord_t(3)
    # irreducible factors of degree ord_t(3)
    degrees = []
    for t in range(1, n + 1):
        if n % t:
            continue
        phi = sum(1 for k in range(1, t + 1) if math.gcd(k, t) == 1)
        order, power = 1, 3 % t
        while power != 1 % t:
            power, order = power * 3 % t, order + 1
        degrees += [order] * (phi // order)
    return sorted(degrees)


def test_factor_x2000_minus_1_within_budget(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "factor", "--poly", "x^2000-1", "--format", "json")
    assert time.perf_counter() - start < 20
    assert code == 0
    d = json.loads(out)
    product = Poly((d["unit"],))
    for f in d["factors"]:
        product = product * parse_poly(f["poly"]) ** f["multiplicity"]
    assert product == parse_poly("x^2000-1")
    assert sorted(f["degree"] for f in d["factors"]) == _cyclotomic_factor_degrees(2000)


def test_field_info_m20_within_budget(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "field-info", "--m", "20", "--format", "json")
    assert time.perf_counter() - start < 20
    assert code == 0
    d = json.loads(out)
    modulus = parse_poly(d["modulus"])
    assert modulus.degree == 20 and is_irreducible(modulus)
    assert d["generator"] == ",".join(["0", "1"] + ["0"] * 18)
    assert d["logTables"] is False


@pytest.mark.parametrize("m", [1, 12, 13, 20])
def test_field_info_prints_the_generator_without_the_half_code_table(
    capsys, monkeypatch, m
):
    # a data descriptor shadows any table an earlier test cached
    def refuse(self):
        raise AssertionError("field-info built the half-code table")

    monkeypatch.setattr(Field, "_halves", property(refuse))
    code, out, _ = run_cli(capsys, "field-info", "--m", str(m), "--format", "json")
    assert code == 0
    monkeypatch.undo()
    field = build_field(m)
    # the text format_element gives the generator's code; at m = 20 that
    # builds a 40 MiB table, and the test above pins the literal instead
    if m <= 13:
        alpha = field.encode(field.exp_of_generator(1))
        assert json.loads(out)["generator"] == field.format_element(alpha)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--m", "13", "--e", "14"],
        ["family", "--name", "concl-A", "--m-list", "5,13"],
        ["family", "--name", "open-problem", "--m-list", "4,14"],
        ["search", "--m", "13", "--e-range", "2..100"],
    ],
)
def test_scans_above_the_table_cap_are_refused(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert "m <= 12" in err


# whole-group search at m = 20 would mark 3^20 - 1 exponents (3.3 GiB)
# before the first scan refused; the table cap must refuse it first
SEARCH_REFUSAL_RSS_BUDGET_MIB = 64

_SEARCH_M20_OWN_PEAK = """
from cyc3.cli import _report_text_lines, main
code = main(["search", "--m", "20"])
with open("/proc/self/status") as fh:
    peak_kib = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
print(code, peak_kib)
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)
def test_search_above_the_table_cap_is_refused_before_it_allocates():
    # the child reads its own high-water mark, as in test_field.py
    src = str(Path(cyc3.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SEARCH_M20_OWN_PEAK],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert time.perf_counter() - start < 5
    assert "Zech tables exist only for m <= 12; got m=20" in proc.stderr
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 2
    assert peak_kib / 1024 < SEARCH_REFUSAL_RSS_BUDGET_MIB


@pytest.mark.parametrize(
    "name, m_list", [("open-problem", "100000002"), ("concl-A", "10000001")]
)
def test_family_refuses_a_huge_m_before_listing_instances(capsys, name, m_list):
    # listing computes 3^h and walks h over [0, m): it must not start
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "family", "--name", name, "--m-list", m_list)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert f"m must be in [1, 20], got {m_list}" in err


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["family", "--name", "open-problem", "--m-list", "4,x"],
            "argument --m-list: bad m-list '4,x'",
        ),
        (
            ["search", "--m", "4", "--e-range", "2-10"],
            "argument --e-range: e-range must look like A..B, got '2-10'",
        ),
        (
            ["search", "--m", "4", "--e-range", "a..b"],
            "argument --e-range: bad e-range 'a..b'",
        ),
    ],
)
def test_malformed_m_list_and_e_range_are_usage_errors(capsys, argv, err):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: cyc3 ")
    assert out.err.endswith(f"cyc3 {argv[0]}: error: {err}\n")


def test_family_past_the_orbit_budget_is_refused_before_any_table(
    capsys, monkeypatch
):
    # m = 4 counts 80 // 8 + 1 = 11 orbit points an instance: with room for
    # three, a list of three answers and a list of four builds nothing
    tables = Field.tables
    built = []

    def counting_tables(self):
        built.append(self.m)
        return tables(self)

    monkeypatch.setattr(cyc3.conditions, "MAX_ORBIT_POINTS", 33)
    monkeypatch.setattr(Field, "tables", counting_tables)
    code, out, err = run_cli(
        capsys, "family", "--name", "open-problem", "--m-list", "4,4,4,4"
    )
    assert (code, out, built) == (2, "", [])
    assert err == (
        "error: family open-problem would test 44 orbit points over 4 "
        "instances, past the budget of 33; give a shorter m-list\n"
    )
    code, out, err = run_cli(
        capsys, "family", "--name", "open-problem", "--m-list", "4,4,4"
    )
    assert (code, err) == (0, "")
    assert "optimal: 3 of 3" in out and built


def test_family_scans_every_listed_instance_in_order(capsys, monkeypatch):
    # 4,6,4,4 lists four instances, the budget counts four, and four scans
    # run; every reported instance is the report a fresh verify_optimal gives
    solutions_table = cyc3.conditions._solutions_table
    scanned = []

    def counting_table(field, e):
        scanned.append((field.m, e))
        return solutions_table(field, e)

    monkeypatch.setattr(cyc3.conditions, "_solutions_table", counting_table)
    code, out, err = run_cli(
        capsys, "family", "--name", "open-problem", "--m-list", "4,6,4,4",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    assert scanned == [(4, 14), (6, 86), (4, 14), (4, 14)]
    reports = [inst["report"] for inst in json.loads(out)["instances"]]
    assert [r["m"] for r in reports] == [4, 6, 4, 4]
    for r in reports:
        field = build_field(r["m"])
        fresh = verify_optimal(field, r["e"], r["h"]).to_json_dict(field)
        assert r == fresh


@pytest.mark.parametrize("m_list", ["", ",", " , "])
def test_family_refuses_an_empty_m_list(capsys, m_list):
    """An empty sweep certifies nothing, so it is a usage error, not a pass."""
    with pytest.raises(SystemExit) as exc:
        main(["family", "--name", "open-problem", "--m-list", m_list])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "names no m" in out.err


def test_factor_parse_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "factor", "--poly", "x^+1")
    assert code == 2
    assert "position" in err
    # argparse 3.11 hands "--poly=--" over as an empty list, not as text
    code, out, err = run_cli(capsys, "factor", "--poly=--")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad polynomial: ")


@pytest.mark.parametrize(
    "text, err",
    [
        ("x^+3", "expected exponent digits (position 2)"),
        ("x^²", "expected exponent digits (position 2)"),
        ("", "empty polynomial (position 0)"),
        ("x^2 * x", "expected '+' or '-' (position 4)"),
        ("x^3001", "exponent above 3000 (position 2)"),
    ],
)
def test_factor_parse_errors_name_the_position(capsys, text, err):
    code, out, got = run_cli(capsys, "factor", f"--poly={text}")
    assert (code, out) == (2, "")
    assert got == f"error: bad polynomial: {err}\n"


@pytest.mark.parametrize("poly", ["x^3000000000", "x^99999999999999999999999"])
def test_factor_refuses_huge_degrees_up_front(capsys, poly):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "factor", "--poly", poly)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad polynomial: exponent above ")


@pytest.mark.parametrize(
    "p, m",
    [("1000000000000000003", "2"), ("3", "100000000000"), ("3", "3000000")],
)
def test_coset_refuses_huge_inputs_up_front(capsys, p, m):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "coset", "--p", p, "--m", m, "--j", "3")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "must be below 2^" in err


def test_identities_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "identities", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["allPass"] is True
    assert len(d["checks"]) == 9


def test_field_info_json(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--m", "4", "--format", "json")
    d = json.loads(out)
    assert code == 0
    assert d["modulus"] == "x^4+x^3-1"
    assert d["order"] == 80
    assert d["orderPrimeFactors"] == [2, 5]
    assert d["logTables"] is True


def test_coset_json(capsys):
    code, out, _ = run_cli(capsys, "coset", "--p", "3", "--m", "4", "--j", "14", "--format", "json")
    d = json.loads(out)
    assert code == 0
    assert d["members"] == [14, 42, 46, 58]


def test_minpoly_text(capsys):
    code, out, _ = run_cli(capsys, "minpoly", "--m", "4", "--i", "14")
    assert code == 0
    assert "x^4+x^3+x^2+1" in out


def test_mindist_exit_zero_and_witness_free(capsys):
    code, out, _ = run_cli(capsys, "mindist", "--m", "4", "--e", "14", "--format", "json")
    d = json.loads(out)
    assert code == 0
    assert d["verdict"] == "no_word_below_4"
    assert d["witness"] is None
    assert d["spherePacking"]["maxDistance"] == 4


def test_mindist_witness_payload(capsys):
    code, out, _ = run_cli(capsys, "mindist", "--m", "4", "--e", "4", "--format", "json")
    d = json.loads(out)
    assert code == 0
    assert d["witness"] == {"positions": [0, 10, 30], "values": [1, 2, 2], "weight": 3}


def test_mindist_runs_at_m10(capsys):
    # the search is linear in n, so m = 10 runs without a flag
    code, out, _ = run_cli(capsys, "mindist", "--m", "10", "--e", "734", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "no_word_below_4"


def test_family_open_problem(capsys):
    code, out, _ = run_cli(
        capsys, "family", "--name", "open-problem", "--m-list", "4,6,8",
        "--format", "json",
    )
    d = json.loads(out)
    assert code == 0
    assert d["command"] == "family"
    assert d["summary"] == {"total": 3, "optimal": 3}
    assert [i["report"]["e"] for i in d["instances"]] == [14, 86, 86]


def test_family_concl_c_flags_discrepancy(capsys):
    code, out, _ = run_cli(
        capsys, "family", "--name", "concl-C", "--m-list", "5", "--format", "json",
    )
    d = json.loads(out)
    assert code == 1
    assert d["readingSummary"][0]["anyConsistent"] is False
    assert any("m=5" in s for s in d["discrepancies"])


def test_family_concl_c_consistent_at_m7(capsys):
    code, out, _ = run_cli(
        capsys, "family", "--name", "concl-C", "--m-list", "7", "--format", "json",
    )
    d = json.loads(out)
    assert code == 0
    assert d["readingSummary"][0]["anyConsistent"] is True
    # the failing reading is still reported, not hidden
    assert any("no instance optimal" in s for s in d["discrepancies"])


def test_family_text_has_flag_lines(capsys):
    code, out, _ = run_cli(capsys, "family", "--name", "concl-C", "--m-list", "5")
    assert code == 1
    assert "FLAG:" in out


def test_family_csv(capsys):
    code, out, _ = run_cli(
        capsys, "family", "--name", "concl-A", "--m-list", "5",
        "--format", "csv-row",
    )
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0].startswith("family,reading,m,e,")
    assert len(lines) == 3


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "|".join(value)
    return str(value)


def test_family_csv_rows_are_the_json_instances_flattened(capsys):
    # one row per JSON instance: family, reading, then the report's keys in
    # order, with parameters spread into n, k, d (m = 5 has null ones)
    argv = ["family", "--name", "concl-C", "--m-list", "5,7"]
    _, out, _ = run_cli(capsys, *argv, "--format", "json")
    instances = json.loads(out)["instances"]
    _, out, _ = run_cli(capsys, *argv, "--format", "csv-row")
    header, *rows = csv.reader(io.StringIO(out))
    assert len(rows) == len(instances)
    for row, inst in zip(rows, instances):
        flat = {"family": inst["family"], "reading": inst["reading"]}
        for key, value in inst["report"].items():
            if key == "parameters":
                flat.update(value or dict.fromkeys("nkd"))
            else:
                flat[key] = value
        assert header == list(flat)
        assert row == [_csv_cell(v) for v in flat.values()]


def test_reports_print_the_modulus_of_their_own_field():
    field = Field(5, modulus=parse_poly("x^5+x^4+x^2+1"))
    report = verify_optimal(field, 14)
    assert report.to_json_dict(field)["modulus"] == "x^5+x^4+x^2+1"
    assert "modulus: x^5+x^4+x^2+1" in _report_text_lines(report, field)


def test_search_json(capsys):
    code, out, _ = run_cli(capsys, "search", "--m", "4", "--format", "json")
    d = json.loads(out)
    assert code == 0
    assert [r["e"] for r in d["optimal"]] == [2, 14]
    assert d["optimal"][1]["h"] == 2


def test_search_range(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--m", "4", "--e-range", "10..20", "--format", "json",
    )
    d = json.loads(out)
    assert code == 0
    assert d["eRange"] == [10, 20]
    # 18 falls in range and its class leader is 2, so both classes appear
    assert [r["e"] for r in d["optimal"]] == [2, 14]


@pytest.mark.parametrize(
    "m,lo,hi",
    [
        (4, 2, 79), (4, 10, 20), (4, 31, 47), (4, 31, 31),
        (5, 2, 241), (5, 101, 131), (5, 200, 241),
        (6, 2, 727), (6, 300, 340), (6, 699, 727),
    ],
)
def test_search_evaluates_each_coset_meeting_the_range_once(capsys, m, lo, hi):
    # the oracle: every coset that holds an even e in [lo, hi], even when
    # its leader lies below lo, less the coset of 1; search evaluates each
    # at its leader and lists the optimal ones in ascending order
    code, out, _ = run_cli(
        capsys, "search", "--m", str(m), "--e-range", f"{lo}..{hi}",
        "--format", "json",
    )
    d = json.loads(out)
    assert code == 0
    c1 = coset(1, 3, m)
    leaders = [
        c.leader
        for c in cosets_partition(3, m)
        if c != c1 and any(lo <= e <= hi and e % 2 == 0 for e in c.members)
    ]
    assert d["evaluatedCosetLeaders"] == len(leaders)
    field = build_field(m)
    optimal = [e for e in leaders if verify_optimal(field, e).verdict == "optimal"]
    assert [r["e"] for r in d["optimal"]] == optimal


def test_search_at_m1_answers_with_the_default_range(capsys):
    # n - 1 = 1 at m = 1: the default range is 1..1 and holds no even e,
    # the same answer as the explicit range
    code, out, err = run_cli(capsys, "search", "--m", "1", "--format", "json")
    assert (code, err) == (0, "")
    d = json.loads(out)
    assert d["eRange"] == [1, 1]
    assert (d["evaluatedCosetLeaders"], d["optimal"]) == (0, [])
    explicit = run_cli(
        capsys, "search", "--m", "1", "--e-range", "1..1", "--format", "json"
    )
    assert explicit == (0, out, "")


def test_search_bad_range(capsys):
    code, _, err = run_cli(capsys, "search", "--m", "4", "--e-range", "0..200")
    assert code == 2


@pytest.mark.parametrize("m", [11, 12])
def test_whole_group_search_past_its_budget_is_refused_up_front(
    capsys, monkeypatch, m
):
    # the whole group takes 15-20 s at m = 11 and minutes at m = 12; the
    # refusal counts every class the range meets, builds no table, and
    # names the way to ask for less
    points, classes = {11: ("64,842,756", "8,052"), 12: ("491,951,104", "22,216")}[m]
    tables = Field.tables
    built = []

    def counting_tables(self):
        built.append(self.m)
        return tables(self)

    monkeypatch.setattr(Field, "tables", counting_tables)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "search", "--m", str(m), "--format", "json")
    assert time.perf_counter() - start < 1
    assert (code, out, built) == (2, "", [])
    assert err == (
        f"error: search over e in [2, {3**m - 2}] at m={m} would test "
        f"{points} orbit points over {classes} exponent classes, past the "
        "budget of 20,000,000; give a narrower --e-range A..B\n"
    )


def test_ranged_search_past_its_budget_is_refused_up_front(capsys):
    # 2..20000 meets 6,167 classes at m = 12, each scanned over 22,217 orbit
    # leaders: 49 s on a 2-core host.  The bound counts orbit points, so a
    # range is held to it as the whole group is
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "search", "--m", "12", "--e-range", "2..20000", "--format", "json"
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "--e-range" in err


def test_search_budget_counts_the_classes_it_scans(capsys, monkeypatch):
    # at m = 6, 2..100 holds 50 even e but meets 30 classes, each scanned
    # over n // (2m) + 1 = 62 orbit points.  With the budget at 30 classes
    # that range answers, and the first range meeting a 31st is refused
    m, n = 6, 728
    per_class = n // (2 * m) + 1
    c1 = coset(1, 3, m)
    partition = [c for c in cosets_partition(3, m) if c != c1]

    def classes(hi):
        return sum(
            any(2 <= e <= hi and e % 2 == 0 for e in c.members) for c in partition
        )

    assert classes(100) == 30
    monkeypatch.setattr(cyc3.conditions, "MAX_ORBIT_POINTS", 30 * per_class)
    code, out, err = run_cli(
        capsys, "search", "--m", "6", "--e-range", "2..100", "--format", "json"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["evaluatedCosetLeaders"] == 30
    hi = next(h for h in range(102, n, 2) if classes(h) == 31)
    code, out, err = run_cli(
        capsys, "search", "--m", "6", "--e-range", f"2..{hi}", "--format", "json"
    )
    assert (code, out) == (2, "")
    assert f"{31 * per_class:,} orbit points over 31 exponent classes" in err
    assert "--e-range" in err


def test_readme_quotes_the_budget_refusals(capsys):
    # the README quotes these two refusals word for word
    path = Path(__file__).resolve().parents[1] / "README.md"
    readme = " ".join(path.read_text(encoding="utf-8").split())
    for argv in (
        ["search", "--m", "12", "--e-range", "2..20000"],
        ["family", "--name", "open-problem", "--m-list", ",".join(["12"] * 904)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        for line in err.splitlines():
            assert " ".join(line.split()) in readme, line


def test_ranged_search_at_m12_answers(capsys):
    code, out, err = run_cli(
        capsys, "search", "--m", "12", "--e-range", "2..200", "--format", "json"
    )
    assert (code, err) == (0, "")
    d = json.loads(out)
    assert d["eRange"] == [2, 200]
    leaders = {coset(e, 3, 12).leader for e in range(2, 201, 2)}
    assert d["evaluatedCosetLeaders"] == len(leaders)
    found = [r["e"] for r in d["optimal"]]
    assert found == sorted(found) and set(found) <= leaders and 2 in found


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["verify", "--m", "4", "--e", "14", "--format", "json", "--out", str(target)]
    )
    capsys.readouterr()
    assert code == 0
    assert json.loads(target.read_text())["verdict"] == "optimal"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--m", "4", "--e", "14", "--format", "json"],
        ["family", "--name", "open-problem", "--m-list", "4,6"],
    ],
    ids=["verify-json", "family"],
)
def test_unwritable_out_is_a_usage_error(tmp_path, argv):
    # exit 1 would read as a non-optimal verdict; a failed write is exit 2
    target = tmp_path / "missing" / "report.out"
    src = str(Path(cyc3.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "cyc3", *argv, "--out", str(target)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and str(target) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not target.exists()


def test_json_runs_are_byte_identical(capsys):
    args = ["family", "--name", "open-problem", "--m-list", "4,6", "--format", "json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cyc3", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "cyc3" in proc.stdout
