"""Command-line behavior: formats, exit codes, determinism."""

import argparse
import csv
import hashlib
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
from cyc3.cli import _cmd_factor, _report_text_lines, build_parser, main
from cyc3.conditions import _solutions_generic, verify_optimal
from cyc3.cosets import coset, cosets_partition, minimal_polynomial
from cyc3.field import LOG_TABLE_MAX_DEGREE, Field, build_field
from cyc3.gf3poly import Poly, PolyParseError, is_irreducible, parse_poly


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


# one small argv that answers with exit 0 per registered subcommand
SMALL_ARGVS = {
    "field-info": ["--m", "4"],
    "coset": ["--p", "3", "--m", "4", "--j", "14"],
    "minpoly": ["--m", "4", "--i", "5"],
    "code": ["--m", "4", "--e", "14"],
    "verify": ["--m", "4", "--e", "14"],
    "family": ["--name", "open-problem", "--m-list", "4"],
    "mindist": ["--m", "4", "--e", "14"],
    "factor": ["--poly", "x^2+1"],
    "identities": [],
    "search": ["--m", "4"],
}
(_SUBCOMMANDS,) = [
    action.choices
    for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
]


@pytest.mark.parametrize("name", list(_SUBCOMMANDS))
def test_json_envelope_names_the_registered_subcommand(capsys, name):
    """Every json payload but verify's bare report opens with the name the
    subcommand is registered under and the artifact version."""
    code, out, err = run_cli(capsys, name, *SMALL_ARGVS[name], "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    if name == "verify":
        assert not {"command", "artifactVersion"} & set(payload)
    else:
        assert list(payload)[:2] == ["command", "artifactVersion"]
        assert payload["command"] == name
        assert payload["artifactVersion"] == cyc3.__version__


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


# the first m past the table cap, and the first even one for open-problem
ABOVE_CAP = LOG_TABLE_MAX_DEGREE + 1
EVEN_ABOVE_CAP = ABOVE_CAP + ABOVE_CAP % 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--m", str(ABOVE_CAP), "--e", "14"],
        ["family", "--name", "concl-A", "--m-list", f"5,{ABOVE_CAP}"],
        ["family", "--name", "open-problem", "--m-list", f"4,{EVEN_ABOVE_CAP}"],
        ["search", "--m", str(ABOVE_CAP), "--e-range", "2..100"],
    ],
)
def test_scans_above_the_table_cap_are_refused(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert f"m <= {LOG_TABLE_MAX_DEGREE}" in err


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


def test_family_refuses_a_repeated_m_before_any_table(capsys, monkeypatch):
    # a repeat adds no report the first copy did not give, so it is a usage
    # error like an empty list; 904 twelves are refused at once, and the
    # message names the m, not the list
    tables = Field.tables
    built = []

    def counting_tables(self):
        built.append(self.m)
        return tables(self)

    monkeypatch.setattr(Field, "tables", counting_tables)
    for m_list, m in (("4,6,4", 4), (",".join(["12"] * 904), 12)):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["family", "--name", "open-problem", "--m-list", m_list])
        assert time.perf_counter() - start < 1
        out = capsys.readouterr()
        assert (exc.value.code, out.out, built) == (2, "", [])
        assert out.err.startswith("usage: cyc3 ")
        assert out.err.endswith(
            f"cyc3 family: error: argument --m-list: m-list repeats m={m}\n"
        )


def test_family_scans_every_listed_instance_in_order(capsys, monkeypatch):
    # 6,4,8 lists three distinct instances and three scans run, in list
    # order; every reported instance is the report a fresh verify_optimal
    # gives
    solutions_table = cyc3.conditions._solutions_table
    scanned = []

    def counting_table(field, e):
        scanned.append((field.m, e))
        return solutions_table(field, e)

    monkeypatch.setattr(cyc3.conditions, "_solutions_table", counting_table)
    code, out, err = run_cli(
        capsys, "family", "--name", "open-problem", "--m-list", "6,4,8",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    assert scanned == [(6, 86), (4, 14), (8, 86)]
    reports = [inst["report"] for inst in json.loads(out)["instances"]]
    assert [r["m"] for r in reports] == [6, 4, 8]
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
    # argparse 3.11 hands "--poly=--" over as an empty list, not as text;
    # either way the user reads what parse_poly("--") raises
    code, out, err = run_cli(capsys, "factor", "--poly=--")
    assert (code, out) == (2, "")
    assert err == "error: bad polynomial: expected a term (position 1)\n"
    with pytest.raises(PolyParseError, match=r"expected a term \(position 1\)$"):
        _cmd_factor(argparse.Namespace(poly="--"))


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


def test_identities_failing_check_exits_one_with_its_detail(capsys, monkeypatch):
    import cyc3.identities

    checks = cyc3.identities.run_all()
    checks[2] = checks[2]._replace(status="fail", detail="tampered for the test")
    monkeypatch.setattr(cyc3.identities, "run_all", lambda: checks)
    code, out, _ = run_cli(capsys, "identities")
    assert code == 1
    lines = out.splitlines()
    failed = [line for line in lines if " fail " in line]
    assert len(failed) == 1
    assert failed[0].startswith(checks[2].check_id)
    assert failed[0].endswith("  tampered for the test")
    assert "8 of 9 checks pass" in lines


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


# sha256 of the stdout of `search --m M --format json`: a change to the
# condition scan, its orbit walk or a prefilter in front of it must keep
# these bytes
SEARCH_DIGESTS = {
    4: "bbb994c35692bfe86c39883cf8aba986acdcd2b18551af878cf85f027020da37",
    5: "d6ba05309ab5c1d5d12a04505a1b2a14a3422a68564dc5a1bf08fa24b077ba83",
    6: "af56b2968affbd5d190ed8192f79790a2382a23747f8db517581fe90de99337c",
    7: "a3a0277d833b2c0e0d55f2b1846a5e7e11e31e3ce52ca21f213e25a5d8e590da",
    8: "d9fc379c9ef2b0085f6a74da4ea44ca0c551463ada087f99e7c7a4a310963ec1",
    9: "8e5fc26a31b6ff1de7f3cdce4e04c678f7cc17305dae7d5deb5242638114eefa",
    10: "4543e1344cc1c06be25d4cc81f6774b60397ee5c68ef787ada68b28490069019",
}


@pytest.mark.parametrize("m", sorted(SEARCH_DIGESTS))
def test_search_bytes_match_the_recorded_digests(capsys, m):
    code, out, _ = run_cli(capsys, "search", "--m", str(m), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_DIGESTS[m]


# sha256 of the stdout of `mindist --m M --e E --format json`: weight-3
# witnesses found at j = 820 and j = 7381, two clean scans, and at odd e
# the weight-2 witness (0, n/2); a change to the weight search's walk,
# its filter or its odd-e test must keep these bytes
MINDIST_DIGESTS = {
    (6, 7): "472a3080beb3a3277e6b22dcfe6c492037f30f5553cc2ab443be904e3f1f72eb",
    (8, 4): "58f80f38cb8635485eeb1e533f200ffdd13dc297456c82f72805f70933aa8784",
    (10, 4): "cb150b3c42df907d71828fe6bf4398c520a746453f5d8cce405c086b41be98ec",
    (10, 5): "8d973f435c91825ee274a5d082723b07e05ce8aee217a3e14ca740555a05817c",
    (10, 734): "b5c2e906a66ddebc00e31e6fbde14c78314cfe17cbdaac55d49d9b016e34dcc6",
    (12, 734): "bca9487fb27175503e966c4a2e0596da6c15b0dda126fd94d401c09ad8d20ab7",
}


@pytest.mark.parametrize("m,e", sorted(MINDIST_DIGESTS))
def test_mindist_bytes_match_the_recorded_digests(capsys, m, e):
    code, out, _ = run_cli(
        capsys, "mindist", "--m", str(m), "--e", str(e), "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MINDIST_DIGESTS[m, e]


# sha256 of the stdout of `verify --m M --e E --format json` at odd e,
# where x = -1 joins both solution lists; a change to the condition
# scan's odd-e test must keep these bytes
VERIFY_DIGESTS = {
    (4, 7): "d168f1a6425f83a87fc32987acba1805efab8c217052ad8b917aaa1e09cb2b41",
    (9, 5): "486958029b13a109f45844288aa22162c27fd1e38e15d15e446662f74dbfc2a3",
}


@pytest.mark.parametrize("m,e", sorted(VERIFY_DIGESTS))
def test_verify_bytes_match_the_recorded_digests(capsys, m, e):
    code, out, _ = run_cli(
        capsys, "verify", "--m", str(m), "--e", str(e), "--format", "json"
    )
    assert code == 1  # an odd e is never optimal
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[m, e]


# sha256 of the stdout of `identities --format json`: a change to the
# identity suite's checks or to the factor engine must keep these bytes
IDENTITIES_DIGEST = "12837d68068172c45c30e787cbbb81b9d661d3b9422f19625315f4df938e4863"


def test_identities_bytes_match_the_recorded_digest(capsys):
    code, out, _ = run_cli(capsys, "identities", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == IDENTITIES_DIGEST


# (exit code, sha256) of the stdout of `family --name NAME --m M_LIST
# --format json`: a table-free route to the family verdicts must keep
# these bytes at every m the tables reach; concl-C exits 1 on its
# documented m = 5 reading
FAMILY_DIGESTS = {
    ("open-problem", "4,6,8,10,12"): (
        0, "0c771d961b666032e20f2c74a9b62ab7af71d281123d867828ea67a2220ff5be"
    ),
    ("concl-A", "5,7,11"): (
        0, "3649342da3207b0d02798a5bec4d30dfe7f05ee836d2a9c86e4cf288be464330"
    ),
    ("concl-B", "5,7,11"): (
        0, "782c401791a6d3df0ce41d6606674219eb72d386f0044118369dda0f0e6e1a1b"
    ),
    ("concl-C", "5,7,11"): (
        1, "3c4e74c6df6b4f87378259b86ec467dc8f478e84409f9bd76652ddf469f20392"
    ),
}


@pytest.mark.parametrize("name,m_list", sorted(FAMILY_DIGESTS))
def test_family_bytes_match_the_recorded_digests(capsys, name, m_list):
    code, out, _ = run_cli(
        capsys, "family", "--name", name, "--m", m_list, "--format", "json"
    )
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == FAMILY_DIGESTS[name, m_list]


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
    code, out, err = run_cli(capsys, "search", "--m", "4", "--e-range", "0..200")
    assert (code, out) == (2, "")
    assert err == "error: e-range A..B needs 1 <= A <= B <= 79, got 0..200\n"


def test_search_reversed_range_names_the_order_it_needs(capsys):
    # both ends lie within [1, 79], so the message names the order too
    code, out, err = run_cli(capsys, "search", "--m", "4", "--e-range", "3..2")
    assert (code, out) == (2, "")
    assert err == "error: e-range A..B needs 1 <= A <= B <= 79, got 3..2\n"


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
    # the README quotes the search refusal and the error line of the
    # repeated-m refusal word for word
    path = Path(__file__).resolve().parents[1] / "README.md"
    readme = " ".join(path.read_text(encoding="utf-8").split())
    code, out, err = run_cli(capsys, "search", "--m", "12", "--e-range", "2..20000")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    with pytest.raises(SystemExit) as exc:
        main(["family", "--name", "open-problem", "--m-list", ",".join(["12"] * 904)])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    lines.append(out.err.splitlines()[-1])
    for line in lines:
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
