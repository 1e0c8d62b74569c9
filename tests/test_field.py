"""GF(3^m): canonical moduli, element codes and text form, tables, Zech
identities, and the field axioms on reduced residues."""

import itertools
import json
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyc3
from cyc3.conditions import _solutions_table
from cyc3.field import (
    LOG_TABLE_MAX_DEGREE,
    MAX_DEGREE,
    ZECH_ZERO,
    Field,
    _canonical_modulus,
    build_field,
)
from cyc3.gf3poly import (
    Poly,
    is_irreducible,
    parse_poly,
    powmod,
    prime_factors,
)


def _monic_polys(d):
    # every monic polynomial of degree d, in ascending coefficient-sequence
    # order (constant term compared first)
    return (Poly(tail + (1,)) for tail in itertools.product(range(3), repeat=d))


# one frozen modulus per extension degree; the constructor must keep
# picking exactly these or every logged exponent in the suite shifts
CANONICAL_MODULI = {
    1: "x+1",
    2: "x^2+x-1",
    3: "x^3-x^2+1",
    4: "x^4+x^3-1",
    5: "x^5-x^4+1",
    6: "x^6+x^5-1",
    7: "x^7-x^6+x^5+1",
    8: "x^8+x^5-1",
    9: "x^9+x^7-x^6+1",
    10: "x^10+x^9+x^7-1",
    11: "x^11-x^10+x^9+1",
    12: "x^12-x^11+x^10+x^9+x^8-1",
}

f4 = build_field(4)

elements4 = st.integers(min_value=0, max_value=80).map(f4.decode)
nonzero4 = st.integers(min_value=1, max_value=80).map(f4.decode)
exponents = st.integers(min_value=0, max_value=200)


def _log_table(field):
    # the discrete logarithm indexed by code, ZECH_ZERO at the code 0 of
    # zero: the inverse of exp, built here because the field keeps none
    exp, _ = field.tables()
    log = [ZECH_ZERO] * 3**field.m
    for i, code in enumerate(exp):
        log[code] = i
    return log


log4 = _log_table(f4)


@pytest.mark.parametrize("m", sorted(CANONICAL_MODULI))
def test_canonical_modulus_frozen(m):
    field = build_field(m)
    assert field.modulus.format() == CANONICAL_MODULI[m]
    assert is_irreducible(field.modulus)
    assert field.modulus.lc == 1


def _first_primitive_modulus_by_full_scan(m):
    # every monic candidate in order, whatever its constant term
    n = 3**m - 1
    for f in _monic_polys(m):
        if not is_irreducible(f):
            continue
        x = Poly.x() % f
        if m == 1:
            if x == Poly((2,)):
                return f
        elif all(powmod(x, n // q, f) != Poly.one() for q in prime_factors(n)):
            return f
    raise AssertionError(f"no primitive modulus of degree {m}")


@pytest.mark.parametrize("m", range(1, 9))
def test_modulus_search_skipping_constant_terms_finds_the_full_scan_hit(m):
    assert _canonical_modulus(m) == _first_primitive_modulus_by_full_scan(m)


@pytest.mark.parametrize("m", range(2, 13))
def test_x_generates_the_canonical_field(m):
    field = build_field(m)
    assert field.exp_of_generator(1) == Poly.x()
    assert field.gen == (0, 1) + (0,) * (m - 2)  # padded coefficient tuple
    # generator order is the full group order
    assert powmod(Poly.x(), field.order, field.modulus) == field.one
    if field.order % 2 == 0:
        assert field.exp_of_generator(field.order // 2) == -field.one


def test_m1_field():
    field = build_field(1)
    assert field.order == 2
    assert field.gen == (2,)
    assert field.exp_of_generator(1) == Poly((2,))
    assert field.exp_of_generator(1) * field.exp_of_generator(1) % field.modulus == field.one


def test_build_field_is_cached():
    assert build_field(4) is build_field(4)


def test_degree_bounds():
    with pytest.raises(ValueError):
        Field(0)
    with pytest.raises(ValueError):
        Field(MAX_DEGREE + 1)


def test_custom_modulus_validation():
    with pytest.raises(ValueError):
        Field(2, modulus=parse_poly("x^2-1"))  # reducible
    with pytest.raises(ValueError):
        Field(2, modulus=parse_poly("x^3-x^2+1"))  # wrong degree


def test_custom_modulus_with_nonprimitive_x():
    # x has order 4 mod x^2+1, and x is zero mod x; x must generate
    for m, modulus in [(2, "x^2+1"), (1, "x")]:
        with pytest.raises(ValueError, match="x is not primitive modulo"):
            Field(m, modulus=parse_poly(modulus))


def _order_of_x_by_stepping(f):
    # f is irreducible: multiply by x until the product returns to one
    x = Poly.x() % f
    if not x:
        return None  # f = x
    p, order = x, 1
    while p != Poly.one():
        p = p * x % f
        order += 1
    return order


@pytest.mark.parametrize("m", range(1, 5))
def test_explicit_modulus_builds_exactly_when_x_is_primitive(m):
    # every monic irreducible of degree m: the field builds iff stepping x
    # reaches order 3^m - 1, and is refused otherwise
    built = refused = 0
    for f in _monic_polys(m):
        if not is_irreducible(f):
            continue
        if _order_of_x_by_stepping(f) == 3**m - 1:
            field = Field(m, modulus=f)
            assert field.modulus == f
            assert field.exp_of_generator(1) == Poly.x() % f
            built += 1
        else:
            with pytest.raises(ValueError, match="x is not primitive"):
                Field(m, modulus=f)
            refused += 1
    assert built and refused


def mul4(a, b):
    return a * b % f4.modulus


@given(elements4, elements4)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(elements4, elements4)
def test_mul_commutes(a, b):
    assert mul4(a, b) == mul4(b, a)


@given(elements4, elements4, elements4)
def test_mul_distributes(a, b, c):
    assert mul4(a, b + c) == mul4(a, b) + mul4(a, c)


@given(elements4)
def test_additive_inverse(a):
    assert a + -a == f4.zero
    assert a - a == f4.zero


@given(nonzero4)
def test_multiplicative_inverse(a):
    # alpha^-i is the inverse of alpha^i; residues multiply back to one
    assert mul4(a, f4.exp_of_generator(-log4[f4.encode(a)])) == f4.one


@given(exponents)
def test_pow_agrees_with_generic(e):
    # the exp table entry, exp_of_generator and powmod of x agree
    table_power = f4.decode(f4.tables()[0][e % f4.order])
    assert table_power == f4.exp_of_generator(e)
    assert f4.exp_of_generator(e) == powmod(Poly.x(), e, f4.modulus)


@given(elements4)
def test_frobenius_is_cubing(a):
    # cubing is i -> 3i in log space, and a ** 3 reduces to powmod(a, 3)
    assert a**3 % f4.modulus == powmod(a, 3, f4.modulus)
    if a:
        i = log4[f4.encode(a)]
        assert f4.exp_of_generator(3 * i) == a**3 % f4.modulus


@given(elements4, elements4)
def test_frobenius_additive(a, b):
    cube = lambda x: x**3 % f4.modulus  # noqa: E731
    assert cube(a + b) == cube(a) + cube(b)


def test_pow_empty_cases():
    assert f4.exp_of_generator(0) == f4.one
    assert f4.exp_of_generator(f4.order) == f4.one


def test_pow_reduces_exponent_mod_order():
    assert f4.exp_of_generator(f4.order + 7) == f4.exp_of_generator(7)
    assert mul4(f4.exp_of_generator(-1), Poly.x()) == f4.one


def test_elements_enumeration():
    els = list(f4.elements())
    assert len(els) == 81
    assert els[0] == f4.zero
    assert len(set(els)) == 81
    assert all(isinstance(a, Poly) and a.degree < 4 for a in els)


def test_encode_decode_round_trip_in_tuple_order():
    codes = [f4.encode(a) for a in f4.elements()]
    # elements() runs in code order, which is coefficient-tuple order
    assert codes == list(range(81))
    for code in codes:
        assert f4.encode(f4.decode(code)) == code
    assert f4.encode(f4.one) == 27  # constant term is the top digit
    assert f4.decode(1) == Poly.x() ** 3


def test_decode_and_format_element_boundary_contract_at_m4():
    # every code decodes to a reduced Poly, and its text form is the
    # code's padded digit string, constant term first
    for code, digits in enumerate(itertools.product(range(3), repeat=4)):
        a = f4.decode(code)
        assert isinstance(a, Poly)
        assert a.degree < 4
        assert a == Poly(digits)
        assert f4.format_element(code) == ",".join(map(str, digits))
    assert f4.format_element(f4.encode(f4.zero)) == "0,0,0,0"
    # solution lists are ascending codes; Poly's own order (degree first)
    # would list some of them differently
    reordered = 0
    for e in range(2, 80, 2):
        for codes in _solutions_table(f4, e):
            assert list(codes) == sorted(set(codes)), e
            sols = [f4.decode(code) for code in codes]
            reordered += sorted(sols) != sols
    assert reordered


def _base3_text(code, m):
    # the code's m base-3 digits, most significant first, comma-joined
    digits = []
    for _ in range(m):
        code, digit = divmod(code, 3)
        digits.append(str(digit))
    return ",".join(reversed(digits))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 6])
def test_format_element_is_the_code_in_base_3(m):
    # an odd m splits a code into halves of unequal width, and m = 1
    # leaves the low half empty
    field = build_field(m)
    for code in range(3**m):
        assert field.format_element(code) == _base3_text(code, m)


residues = st.integers(1, MAX_DEGREE).flatmap(
    lambda m: st.lists(st.integers(0, 2), min_size=m, max_size=m)
)


@settings(max_examples=60)
@given(residues)
def test_format_element_of_encode_lists_the_coefficients(coeffs):
    field = build_field(len(coeffs))
    code = field.encode(Poly(coeffs))
    assert field.format_element(code) == ",".join(map(str, coeffs))
    assert code == int("".join(map(str, coeffs)), 3)


def test_log_exp_round_trip():
    # exp is a bijection onto the nonzero codes, so every nonzero element
    # has exactly one logarithm and the test-side inverse undoes exp; each
    # entry decodes to the power of powmod's generator
    for m in range(1, 9):
        field = build_field(m)
        alpha, power = field.exp_of_generator(1), field.one
        exp, _ = field.tables()
        assert len(exp) == field.order
        assert sorted(exp) == list(range(1, 3**m)), m
        log = _log_table(field)
        assert log[field.encode(field.zero)] == ZECH_ZERO
        for i in range(field.order):
            assert log[exp[i]] == i
            assert field.decode(exp[i]) == power
            power = power * alpha % field.modulus
        assert power == field.one
        assert log[field.encode(field.one)] == 0
        assert log[field.encode(Poly.x() % field.modulus)] == 1 % field.order


def test_log_of_zero():
    # zero has no discrete logarithm: 1 + alpha^i vanishes only at
    # alpha^i = -1, i = n/2, and that one Zech entry holds the sentinel
    assert f4.encode(f4.zero) == 0
    for m in range(1, 9):
        field = build_field(m)
        _, zech = field.tables()
        half = field.order // 2
        assert field.exp_of_generator(half) == -field.one
        assert zech[half] == ZECH_ZERO
        assert zech.count(ZECH_ZERO) == 1, m


def _check_tables_against_generic_powers(field):
    # every entry of exp and zech from plain polynomial arithmetic: the
    # powers come from square-and-multiply, the logs from their positions
    alpha = field.exp_of_generator(1)  # powmod, never the tables
    exp, zech = field.tables()
    n = field.order
    powers = [powmod(alpha, i, field.modulus) for i in range(n)]
    assert [field.decode(a) for a in exp] == powers
    position = {p: i for i, p in enumerate(powers)}
    assert len(position) == n
    for i in range(n):
        s = field.one + powers[i]
        assert zech[i] == (ZECH_ZERO if s == field.zero else position[s]), i


@pytest.mark.parametrize("m", range(1, 8))
def test_tables_match_generic_arithmetic(m):
    _check_tables_against_generic_powers(Field(m))


@pytest.mark.parametrize(
    "modulus", ["x^5+x^4-x^3+1", "x^5+x^4+x^2+1", "x^5-x^3+x^2+1"]
)
def test_tables_under_non_canonical_moduli(modulus):
    # the digit-shift build under tails other than the canonical ones
    field = Field(5, modulus=parse_poly(modulus))
    assert field.modulus != build_field(5).modulus
    _check_tables_against_generic_powers(field)


def _list_tables(field):
    # exp and zech as plain lists, stepping x by residue arithmetic and
    # reading each code back through encode/decode; log is only a step
    x = Poly.x() % field.modulus
    exp = []
    a = field.one
    for _ in range(field.order):
        exp.append(field.encode(a))
        a = a * x % field.modulus
    log = [ZECH_ZERO] * 3**field.m
    for i, code in enumerate(exp):
        log[code] = i
    zech = [log[field.encode(field.one + field.decode(code))] for code in exp]
    return exp, zech


@pytest.mark.parametrize("m", range(1, 9))
def test_tables_are_int_arrays_equal_to_a_list_build(m):
    field = Field(m)
    tables, references = field.tables(), _list_tables(field)
    assert len(tables) == len(references) == 2
    for table, reference in zip(tables, references):
        assert isinstance(table, array)
        assert table.typecode == "i"
        assert table.tolist() == reference


# VmHWM of a child running `verify --m 12 --e 734` was 21.9 MiB with the
# exp and Zech int arrays, 23.8 MiB with a discrete-log array beside them
# and 68 MiB with lists (2-core host, Python 3.11); README states the budget
M12_VERIFY_RSS_BUDGET_MIB = 40

_REPORT_OWN_PEAK = """
import sys
from cyc3.cli import main
code = main(["verify", "--m", "12", "--e", "734", "--format", "json"])
with open("/proc/self/status") as fh:
    peak_kib = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
print(code, peak_kib)
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)
def test_verify_at_m12_stays_within_its_memory_budget():
    # the child reads its own high-water mark: a parent's ru_maxrss for
    # a spawned child can report the parent's mark instead
    src = str(Path(cyc3.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_OWN_PEAK],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report, last = proc.stdout.rstrip("\n").rsplit("\n", 1)
    code, peak_kib = map(int, last.split())
    assert code == 0
    assert json.loads(report)["parameters"] == {"n": 531440, "k": 531416, "d": 4}
    assert peak_kib / 1024 <= M12_VERIFY_RSS_BUDGET_MIB


def test_zech_table_identity():
    # zech[i] = log(1 + gen^i) wherever 1 + gen^i is nonzero
    exp, zech = f4.tables()
    half = f4.order // 2
    assert zech[half] == ZECH_ZERO
    for i in range(f4.order):
        if i == half:
            continue
        s = f4.one + f4.decode(exp[i])
        assert zech[i] == log4[f4.encode(s)]


def test_zech_addition_formula():
    # gen^u + gen^v = gen^(u + zech[(v-u) mod n])
    exp, zech = f4.tables()
    n = f4.order
    for u, v in [(3, 10), (0, 5), (50, 12), (79, 1), (7, 47)]:
        d = (v - u) % n
        total = f4.decode(exp[u]) + f4.decode(exp[v])
        if zech[d] == ZECH_ZERO:
            assert total == f4.zero
            continue
        assert total == f4.decode(exp[(u + zech[d]) % n])


def test_tables_unavailable_above_cap():
    field = build_field(LOG_TABLE_MAX_DEGREE + 1)
    assert not field.has_tables
    message = (
        f"Zech tables exist only for m <= {LOG_TABLE_MAX_DEGREE}; "
        f"got m={LOG_TABLE_MAX_DEGREE + 1}"
    )
    for refuse in (field.check_tables, field.tables):
        with pytest.raises(ValueError) as exc:
            refuse()
        assert str(exc.value) == message


def test_the_table_cap_is_answered_without_building_tables():
    field = Field(LOG_TABLE_MAX_DEGREE)
    assert field.has_tables
    field.check_tables()
    assert "_tables" not in vars(field)


@pytest.mark.parametrize("m", range(1, LOG_TABLE_MAX_DEGREE + 1))
def test_orbit_leaders_lie_at_or_below_a_quarter_of_n(m):
    # the bound the weight-3 scan relies on to never meet n/2: every
    # leader of <3, -1> other than n/2 is at most n/4, and at even m, where
    # 4 | n, n/4 itself is a leader, of the orbit {n/4, 3n/4}
    field = build_field(m)
    n = field.order
    leaders = [i for i, _ in field.orbit_pairs]
    assert max(leaders) <= n // 4
    if m % 2 == 0:
        assert n // 4 in leaders


def test_minus_one_is_half_order_power():
    assert f4.exp_of_generator(f4.order // 2) == -f4.one
    assert f4.tables()[0][f4.order // 2] == f4.encode(-f4.one)
    assert f4.format_element(f4.encode(-f4.one)) == "2,0,0,0"


@settings(max_examples=25)
@given(nonzero4, nonzero4)
def test_log_turns_mul_into_add(a, b):
    n = f4.order
    assert log4[f4.encode(mul4(a, b))] == (log4[f4.encode(a)] + log4[f4.encode(b)]) % n
