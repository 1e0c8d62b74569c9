"""GF(3^m) arithmetic: canonical moduli, tables, axioms, Zech identities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    monic_polys,
    parse_poly,
    powmod,
    prime_factors,
)

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

elements4 = st.tuples(*[st.integers(min_value=0, max_value=2)] * 4)
exponents = st.integers(min_value=0, max_value=200)


@pytest.mark.parametrize("m", sorted(CANONICAL_MODULI))
def test_canonical_modulus_frozen(m):
    field = build_field(m)
    assert field.modulus.format() == CANONICAL_MODULI[m]
    assert is_irreducible(field.modulus)
    assert field.modulus.is_monic


def _first_primitive_modulus_by_full_scan(m):
    # every monic candidate in order, whatever its constant term
    n = 3**m - 1
    for f in monic_polys(m):
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
    assert field.gen == field._pad((0, 1))
    # generator order is the full group order
    assert field.pow(field.gen, field.order) == field.one
    if field.order % 2 == 0:
        half = field.pow(field.gen, field.order // 2)
        assert half == field.scalar_mul(2, field.one)


def test_m1_field():
    field = build_field(1)
    assert field.order == 2
    assert field.gen == (2,)
    assert field.mul((2,), (2,)) == (1,)


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
    # x has order 4 mod x^2+1, so the generator scan must move past it
    field = Field(2, modulus=parse_poly("x^2+1"))
    assert field.pow(field.gen, 8) == field.one
    assert field.pow(field.gen, 4) != field.one
    assert field.pow(field.gen, 2) != field.one


@given(elements4, elements4)
def test_add_commutes(a, b):
    assert f4.add(a, b) == f4.add(b, a)


@given(elements4, elements4)
def test_mul_commutes(a, b):
    assert f4.mul(a, b) == f4.mul(b, a)


@given(elements4, elements4, elements4)
def test_mul_distributes(a, b, c):
    assert f4.mul(a, f4.add(b, c)) == f4.add(f4.mul(a, b), f4.mul(a, c))


@given(elements4)
def test_additive_inverse(a):
    assert f4.add(a, f4.neg(a)) == f4.zero
    assert f4.sub(a, a) == f4.zero


@given(elements4.filter(lambda a: any(a)))
def test_multiplicative_inverse(a):
    assert f4.mul(a, f4.inv(a)) == f4.one


def test_inv_of_zero():
    with pytest.raises(ZeroDivisionError):
        f4.inv(f4.zero)


@given(elements4, exponents)
def test_pow_agrees_with_generic(a, e):
    assert f4.pow(a, e) == f4._pow_generic(a, e)


@given(elements4)
def test_frobenius_is_cubing(a):
    assert f4.frobenius(a) == f4.pow(a, 3)


@given(elements4, elements4)
def test_frobenius_additive(a, b):
    assert f4.frobenius(f4.add(a, b)) == f4.add(f4.frobenius(a), f4.frobenius(b))


def test_pow_empty_cases():
    assert f4.pow(f4.zero, 0) == f4.one
    assert f4.pow(f4.zero, 5) == f4.zero
    assert f4.pow(f4.gen, 0) == f4.one


def test_pow_reduces_exponent_mod_order():
    a = f4.gen
    assert f4.pow(a, f4.order + 7) == f4.pow(a, 7)
    with pytest.raises(ValueError):
        f4.pow(a, -1)


def test_elements_enumeration():
    els = list(f4.elements())
    assert len(els) == 81
    assert els[0] == f4.zero
    assert len(set(els)) == 81


def test_encode_decode_round_trip_in_tuple_order():
    codes = [f4.encode(a) for a in f4.elements()]
    # elements() runs in tuple order, so code order is tuple order
    assert codes == list(range(81))
    for code in codes:
        assert f4.encode(f4.decode(code)) == code
    assert f4.encode(f4.one) == 27  # constant term is the top digit
    assert f4.decode(1) == (0, 0, 0, 1)


def test_log_exp_round_trip():
    exp, log, _ = f4.tables()
    assert len(exp) == f4.order
    assert len(log) == 3**4
    assert log[f4.encode(f4.zero)] == ZECH_ZERO
    for i in range(f4.order):
        assert log[exp[i]] == i
        assert f4.exp_of_generator(i) == f4.decode(exp[i])
    assert f4.log(f4.one) == 0
    assert f4.log(f4.gen) == 1


def test_log_of_zero():
    with pytest.raises(ValueError):
        f4.log(f4.zero)


def _check_tables_against_generic_powers(field):
    # every entry of exp and zech from plain polynomial arithmetic: the
    # powers come from square-and-multiply, the logs from their positions
    exp, log, zech = field.tables()
    n = field.order
    powers = [field._pow_generic(field.gen, i) for i in range(n)]
    assert [field.decode(a) for a in exp] == powers
    position = {p: i for i, p in enumerate(powers)}
    assert len(position) == n
    for i in range(n):
        s = field.add(field.one, powers[i])
        assert zech[i] == (ZECH_ZERO if s == field.zero else position[s]), i
        assert log[field.encode(powers[i])] == i


@pytest.mark.parametrize("m", range(1, 8))
def test_tables_match_generic_arithmetic(m):
    _check_tables_against_generic_powers(Field(m))


def test_tables_with_a_generator_other_than_x():
    # x has order 4 mod x^2+1, so tables() steps by general multiplication
    field = Field(2, modulus=parse_poly("x^2+1"))
    assert field.gen != field._pad((0, 1))
    _check_tables_against_generic_powers(field)


def test_zech_table_identity():
    # zech[i] = log(1 + gen^i) wherever 1 + gen^i is nonzero
    exp, log, zech = f4.tables()
    half = f4.order // 2
    assert zech[half] == ZECH_ZERO
    for i in range(f4.order):
        if i == half:
            continue
        s = f4.add(f4.one, f4.decode(exp[i]))
        assert zech[i] == log[f4.encode(s)]


def test_zech_addition_formula():
    # gen^u + gen^v = gen^(u + zech[(v-u) mod n])
    exp, _, zech = f4.tables()
    n = f4.order
    for u, v in [(3, 10), (0, 5), (50, 12), (79, 1), (7, 47)]:
        d = (v - u) % n
        total = f4.add(f4.decode(exp[u]), f4.decode(exp[v]))
        if zech[d] == ZECH_ZERO:
            assert total == f4.zero
            continue
        assert total == f4.decode(exp[(u + zech[d]) % n])


def test_tables_unavailable_above_cap():
    field = build_field(LOG_TABLE_MAX_DEGREE + 1)
    with pytest.raises(ValueError):
        field.tables()


def test_minus_one_is_half_order_power():
    minus_one = f4.scalar_mul(2, f4.one)
    assert f4.pow(f4.gen, f4.order // 2) == minus_one


def test_format_parse_element_round_trip():
    for a in [(0, 0, 0, 0), (1, 2, 0, 1), (2, 2, 2, 2)]:
        assert f4.parse_element(f4.format_element(a)) == a
    with pytest.raises(ValueError):
        f4.parse_element("1,2,3,0")
    with pytest.raises(ValueError):
        f4.parse_element("1,2")


@settings(max_examples=25)
@given(elements4.filter(lambda a: any(a)), elements4.filter(lambda a: any(a)))
def test_log_turns_mul_into_add(a, b):
    n = f4.order
    assert f4.log(f4.mul(a, b)) == (f4.log(a) + f4.log(b)) % n
