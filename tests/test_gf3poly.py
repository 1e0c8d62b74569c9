"""Polynomial arithmetic over GF(3): ring laws, parsing, factoring."""

import itertools
import pytest
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyc3.gf3poly import (
    MAX_POLY_DEGREE,
    Factorization,
    _equal_degree,
    _parse_human,
    _frobenius_rows,
    _trace,
    Poly,
    PolyParseError,
    factor,
    frobenius_power,
    is_irreducible,
    parse_poly,
    poly_gcd,
    powmod,
    prime_factors,
    squarefree_decomposition,
)


def _monic_polys(d):
    # every monic polynomial of degree d, in ascending coefficient-sequence
    # order (constant term compared first)
    return (Poly(tail + (1,)) for tail in itertools.product(range(3), repeat=d))


coeff_lists = st.lists(st.integers(min_value=0, max_value=2), max_size=9)
polys = coeff_lists.map(lambda cs: Poly(tuple(cs)))
nonzero_polys = polys.filter(bool)


def sized_lists(elements, max_size):
    # draw the length first: a plain st.lists averages about five elements
    return st.integers(min_value=0, max_value=max_size).flatmap(
        lambda n: st.lists(elements, min_size=n, max_size=n)
    )


digits = st.integers(min_value=0, max_value=2)
# degrees up to 200: the bit planes run well past one 30-bit int digit
long_lists = sized_lists(digits, 201)
long_nonzero_lists = long_lists.filter(any)

X = Poly.x()
ONE = Poly.one()


# -- schoolbook reference on coefficient lists ------------------------------
# The engine stores bit planes; these work digit by digit on ascending
# coefficient lists and share no code with it.


def ref_trim(a):
    a = [c % 3 for c in a]
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def ref_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return ref_trim(out)


def ref_neg(a):
    return ref_trim(-c for c in a)


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return ref_trim(out)


def ref_divmod(a, b):
    b = ref_trim(b)
    d = len(b) - 1
    r = list(ref_trim(a))
    if len(r) - 1 < d:
        return (), tuple(r)
    q = [0] * (len(r) - d)
    for i in range(len(r) - 1, d - 1, -1):
        f = r[i] * b[-1] % 3  # 1 and 2 are their own inverses mod 3
        q[i - d] = f
        for j, bj in enumerate(b):
            r[i - d + j] = (r[i - d + j] - f * bj) % 3
    return ref_trim(q), ref_trim(r[:d])


def ref_derivative(a):
    return ref_trim(i * c for i, c in enumerate(a))[1:]


def ref_gcd(a, b):
    a, b = ref_trim(a), ref_trim(b)
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_trim(c * a[-1] for c in a)  # lc is its own inverse mod 3


def ref_is_irreducible(a):
    # no monic divisor of degree 1 .. deg/2, by trial division
    d = len(ref_trim(a)) - 1
    return d >= 1 and all(
        ref_divmod(a, g.coeffs)[1]
        for k in range(1, d // 2 + 1)
        for g in _monic_polys(k)
    )


def test_constructor_canonicalizes():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((4, -1)).coeffs == (1, 2)
    assert not Poly(())
    assert Poly((0, 0)).degree == -1


def test_degree_and_lc():
    assert X.degree == 1
    assert (X ** 5 - X).degree == 5
    assert (2 * X ** 3).lc == 2
    assert Poly().degree == -1


@given(polys, polys)
def test_addition_commutes(f, g):
    assert f + g == g + f


@given(polys, polys, polys)
def test_multiplication_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(polys, polys, polys)
def test_multiplication_associates(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(polys)
def test_additive_inverse(f):
    assert not f + (-f)
    assert f - f == Poly()


@given(polys)
def test_char_three_freshman_dream(f):
    # cubing is additive in characteristic 3
    g = f + ONE
    assert g ** 3 == f ** 3 + ONE


@given(polys, nonzero_polys)
def test_divmod_invariant(f, g):
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(X, Poly())


@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(f, g):
    d = poly_gcd(f, g)
    assert d.lc == 1
    assert not f % d
    assert not g % d


def with_lead(cs, lead):
    """cs as drawn (lead None), the zero polynomial (lead 0), or cs with its
    leading coefficient set to lead (a constant when cs is zero)."""
    if lead is None:
        return list(cs)
    if lead == 0:
        return []
    return list(ref_trim(cs))[:-1] + [lead] if any(cs) else [lead]


leads = st.sampled_from([None, 0, 1, 2])


@given(long_lists, long_lists, sized_lists(digits, 30), leads, leads)
@example([1, 1], [2, 0, 1], [1], 0, 2)  # zero on the left
@example([1, 1], [2, 0, 1], [1], 2, 0)  # zero on the right
@example([1, 1], [2, 0, 1], [1, 1], 2, 2)  # both leading 2, common x + 1
@settings(max_examples=60)
def test_gcd_matches_reference_euclid(a, b, tail, lead_a, lead_b):
    # a monic common factor makes most gcds nontrivial; it keeps each
    # operand's leading coefficient
    common = tail + [1]
    a = ref_mul(with_lead(a, lead_a), common)
    b = ref_mul(with_lead(b, lead_b), common)
    if not a and not b:
        with pytest.raises(ValueError):
            poly_gcd(Poly(a), Poly(b))
        return
    expected = ref_gcd(a, b)
    got = poly_gcd(Poly(a), Poly(b))
    assert got.coeffs == expected
    assert got.lc == 1 and expected[-1] == 1
    assert poly_gcd(Poly(b), Poly(a)) == got


@given(polys, polys)
def test_derivative_product_rule(f, g):
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_derivative_kills_cubes():
    assert not (X ** 9 + X ** 3 + ONE).derivative()


@given(nonzero_polys, st.integers(min_value=0, max_value=6))
def test_pow_matches_repeated_mul(f, k):
    acc = ONE
    for _ in range(k):
        acc = acc * f
    assert f ** k == acc


@given(st.integers(min_value=0, max_value=500))
def test_powmod_agrees_with_pow(e):
    mod = X ** 4 + X ** 3 - ONE
    assert powmod(X, e, mod) == (X ** e) % mod


def test_frobenius_power_is_iterated_cubing():
    mod = X ** 5 - X ** 4 + ONE
    assert frobenius_power(X, 3, mod) == powmod(X, 27, mod)


def test_frobenius_power_refuses_degenerate_moduli():
    with pytest.raises(ZeroDivisionError):
        frobenius_power(X, 2, Poly())
    with pytest.raises(ValueError):
        frobenius_power(X, 2, Poly((2,)))
    with pytest.raises(ValueError):
        frobenius_power(X, -1, X ** 2 + ONE)


# frobenius_power's guards are in the test above
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: powmod(X, 2, Poly()), ZeroDivisionError, "zero modulus"),
        (lambda: powmod(X, 2, Poly((2,))), ValueError, "degree >= 1"),
        (lambda: powmod(X, -1, X**2 + ONE), ValueError, "nonnegative"),
        (lambda: X**-1, ValueError, "nonnegative int"),
        (lambda: X**1.5, ValueError, "nonnegative int"),
        (lambda: Poly().monic(), ValueError, "no monic form"),
        (lambda: squarefree_decomposition(-X), ValueError, "monic"),
        (lambda: prime_factors(0), ValueError, "positive"),
        (lambda: is_irreducible(ONE), ValueError, "degree >= 1"),
        (lambda: X + 1, TypeError, r"for \+:"),
        (lambda: X - 1, TypeError, "for -:"),
        (lambda: X % 1, TypeError, "for %:"),
        (lambda: X // 1, TypeError, "for //:"),
        (lambda: divmod(X, 1), TypeError, r"for divmod\(\):"),
        (lambda: X < 1, TypeError, "'<' not supported"),
    ],
    ids=[
        "powmod-zero-modulus", "powmod-constant-modulus", "powmod-negative-exponent",
        "pow-negative", "pow-float", "monic-of-zero", "squarefree-non-monic",
        "prime-factors-of-0",
        "irreducible-constant", "add-int", "sub-int",
        "mod-int", "floordiv-int", "divmod-int", "lt-int",
    ],
)
def test_argument_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_comparison_orders_by_degree_then_coeffs():
    assert Poly() < ONE < X
    assert X ** 2 < X ** 2 + ONE


# -- parsing and formatting ------------------------------------------------


def test_parse_human_basic():
    assert parse_poly("x^4+x^3-1") == X ** 4 + X ** 3 - ONE
    assert parse_poly("x") == X
    assert parse_poly("1") == ONE
    assert parse_poly("-1") == Poly((2,))
    assert parse_poly("2x^2 + 2") == 2 * X ** 2 + Poly((2,))
    assert parse_poly("0") == Poly()


def test_parse_list_form():
    assert parse_poly("2,0,1") == X ** 2 + Poly((2,))
    assert parse_poly("0,1") == X


def test_parse_list_rejects_bad_digit():
    with pytest.raises(PolyParseError):
        parse_poly("0,3,1")


def test_parse_error_positions():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x^+3")
    assert exc.value.position == 2
    with pytest.raises(PolyParseError):
        parse_poly("")
    with pytest.raises(PolyParseError):
        parse_poly("x^2 * x")
    # "²".isdigit() holds, but int() cannot read it: only ASCII digits count
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x^²")
    assert exc.value.position == 2


def test_parse_accepts_the_degree_cap():
    assert MAX_POLY_DEGREE >= 2186  # x^(3^7-1) - 1 stays readable
    assert parse_poly(f"x^{MAX_POLY_DEGREE}") == X ** MAX_POLY_DEGREE
    digits = ",".join(["0"] * MAX_POLY_DEGREE + ["1"])
    assert parse_poly(digits) == X ** MAX_POLY_DEGREE
    # digit runs longer than int() converts (4300 digits) still parse: an
    # exponent by its significant digits, a coefficient mod 3
    assert parse_poly("x^" + "0" * 4400 + "5") == X ** 5
    assert parse_poly("1" * 5000 + "x") == 2 * X  # 5000 ones = 2 mod 3
    assert parse_poly("-" + "2" * 4301) == Poly((2,))
    assert parse_poly("12345678901234567891x^2") == X ** 2


def test_parse_refuses_above_the_degree_cap():
    # huge exponents are refused before any coefficient list is allocated
    for text in (
        f"x^{MAX_POLY_DEGREE + 1}-1",
        "x^3000000000",
        "x^" + "9" * 23,
        "x^" + "9" * 4400,
        "x^00" + "1" + "0" * 4400 + "+1",
    ):
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text)
        assert exc.value.position == 2
    # the list form is refused by length, trailing zeros included
    digits = ",".join(["1"] + ["0"] * (MAX_POLY_DEGREE + 1))
    with pytest.raises(PolyParseError) as exc:
        parse_poly(digits)
    assert exc.value.position == 2 * (MAX_POLY_DEGREE + 1)


def _scanner_parse_human(text: str) -> Poly:
    """The hand-written scanner that read the human form before the
    regular grammar, kept as the reference that _parse_human must match."""
    n = len(text)

    def skip(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    def read_digits(i):
        j = i
        while j < n and "0" <= text[j] <= "9":
            j += 1
        return text[i:j], j

    coeffs: dict[int, int] = {}
    i = skip(0)
    if i == n:
        raise PolyParseError("empty polynomial", i)
    first = True
    while i < n:
        sign = 1
        if text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i = skip(i + 1)
        elif not first:
            raise PolyParseError("expected '+' or '-'", i)
        digits, i = read_digits(i)
        coef = sum(map(int, digits)) if digits else None
        i = skip(i)
        power = None
        if i < n and text[i] == "x":
            i += 1
            j = skip(i)
            if j < n and text[j] == "^":
                at = skip(j + 1)
                digits, i = read_digits(at)
                if not digits:
                    raise PolyParseError("expected exponent digits", i)
                significant = digits.lstrip("0") or "0"
                if (
                    len(significant) > len(str(MAX_POLY_DEGREE))
                    or int(significant) > MAX_POLY_DEGREE
                ):
                    raise PolyParseError(f"exponent above {MAX_POLY_DEGREE}", at)
                power = int(significant)
            else:
                power = 1
        if coef is None and power is None:
            raise PolyParseError("expected a term", i)
        d = power if power is not None else 0
        coeffs[d] = coeffs.get(d, 0) + sign * (coef if coef is not None else 1)
        first = False
        i = skip(i)
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return Poly(out)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except PolyParseError as exc:
        return str(exc), exc.position


def _human_form_texts(rng):
    """Texts for the differential test: the edge cases by name, random
    strings over the grammar's characters and a few it refuses, and
    structured sums of terms with tabs, leading zeros and spaced x ^ e.
    Only ASCII digits count: "²" is a digit to str.isdigit(), and "٣"
    (ARABIC-INDIC DIGIT THREE) is one to int() and to the regex class \\d."""
    yield from (
        "", " ", "\t\n", "x^²", "²x", "x^٣", "٣x",
        "x^3000", f"x^{MAX_POLY_DEGREE + 1}", "x ^ \t07 - 1",
        "x^" + "0" * 4400 + "5", "1" * 5000 + "x", "-" + "2" * 4301,
        "x^" + "9" * 4400, "x^00" + "1" + "0" * 4400 + "+1",
    )
    for _ in range(80_000):
        yield "".join(rng.choices("x^+-0123 \t²٣,9", k=rng.randrange(13)))
    space = ("", "", " ", "\t", "  ")
    for _ in range(30_000):
        text = rng.choice(space)
        for t in range(rng.randrange(1, 6)):
            # a sign is optional on the first term only; drop a later one now
            # and then
            signed = t and rng.random() < 0.95
            text += rng.choice(("+", "-") if signed else ("+", "-", ""))
            text += rng.choice(space)
            if rng.random() < 0.6:
                text += "0" * rng.randrange(3) + str(rng.randrange(30))
                text += rng.choice(space)
            if rng.random() < 0.7:
                text += "x" + rng.choice(space)
                if rng.random() < 0.6:
                    text += "^" + rng.choice(space) + "0" * rng.randrange(3)
                    text += rng.choice(("", "1", "12", "3000", "3001", "299", "40000"))
            text += rng.choice(space)
        yield text


def test_parse_human_matches_the_scanner_it_replaced():
    kinds = set()
    texts = list(_human_form_texts(random.Random(2019)))
    assert len(texts) >= 100_000
    for text in texts:
        want = _parse_outcome(_scanner_parse_human, text)
        assert _parse_outcome(_parse_human, text) == want, text
        if isinstance(want, tuple):
            kinds.add(want[0].split(" (position")[0])
    assert kinds == {
        "bad polynomial: empty polynomial",
        "bad polynomial: expected '+' or '-'",
        "bad polynomial: expected a term",
        "bad polynomial: expected exponent digits",
        f"bad polynomial: exponent above {MAX_POLY_DEGREE}",
    }


def test_format_renders_two_as_minus():
    assert (2 * X ** 2).format() == "-x^2"
    assert Poly((2,)).format() == "-1"
    assert (X ** 2 + 2 * X + ONE).format() == "x^2-x+1"
    assert Poly().format() == "0"


def reference_format(cs) -> str:
    # the text form term by term, highest degree first: the first term
    # takes a sign only when negative, every later one always
    terms = []
    for d in reversed(range(len(cs))):
        if cs[d] == 0:
            continue
        body = "1" if d == 0 else "x" if d == 1 else f"x^{d}"
        if not terms:
            terms.append(("-" if cs[d] == 2 else "") + body)
        else:
            terms.append(("-" if cs[d] == 2 else "+") + body)
    return "".join(terms) if terms else "0"


@given(sized_lists(st.integers(min_value=0, max_value=2), 61))
@example([])
@example([0, 0])
@example([1])
@example([2])
@example([0, 0, 2])
@example([1, 2, 0, 1, 2])
def test_format_matches_the_reference_formatter(cs):
    assert Poly(tuple(cs)).format() == reference_format(cs)


@given(polys)
def test_format_parse_round_trip_human(f):
    assert parse_poly(f.format()) == f


@given(polys)
def test_format_parse_round_trip_list(f):
    assert parse_poly(",".join(map(str, f.coeffs)) or "0") == f


# -- irreducibility and factoring ------------------------------------------

# count of monic irreducibles of each degree over GF(3), by inclusion-
# exclusion over divisors (independent of the Rabin test under test)
IRREDUCIBLE_COUNTS = {1: 3, 2: 3, 3: 8, 4: 18, 5: 48, 6: 116}


def _mobius_count(d):
    def mu(t):
        k = 0
        p = 2
        while p * p <= t:
            if t % p == 0:
                t //= p
                if t % p == 0:
                    return 0
                k += 1
            p += 1
        if t > 1:
            k += 1
        return (-1) ** k

    total = sum(mu(t) * 3 ** (d // t) for t in range(1, d + 1) if d % t == 0)
    assert total % d == 0
    return total // d


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_irreducible_count_table_is_right(d):
    assert _mobius_count(d) == IRREDUCIBLE_COUNTS[d]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_rabin_count_matches_mobius(d):
    got = sum(1 for f in _monic_polys(d) if is_irreducible(f))
    assert got == IRREDUCIBLE_COUNTS[d]


def test_is_irreducible_agrees_with_factor():
    # seeded random polynomials of degree up to 40, leading 1 or 2
    rng = random.Random(20)
    verdicts = []
    for _ in range(300):
        d = rng.randint(1, 40)
        f = Poly([rng.randrange(3) for _ in range(d)] + [rng.randint(1, 2)])
        fac = factor(f)
        single = len(fac.factors) == 1 and fac.factors[0][1] == 1
        assert is_irreducible(f) == single, f
        verdicts.append(single)
    assert 10 < sum(verdicts) < 290  # both verdicts occur


def test_known_irreducibles():
    assert is_irreducible(parse_poly("x^2+1"))
    assert is_irreducible(parse_poly("x^6-x^5+x^4-x^3+x^2-x+1"))
    assert not is_irreducible(parse_poly("x^2-1"))
    assert not is_irreducible(parse_poly("x^2"))


def test_factor_x8_minus_1():
    fac = factor(parse_poly("x^8-1"))
    assert fac.unit == 1
    assert [(p.format(), k) for p, k in fac.factors] == [
        ("x+1", 1),
        ("x-1", 1),
        ("x^2+1", 1),
        ("x^2+x-1", 1),
        ("x^2-x-1", 1),
    ]


def test_factor_ninth_power_of_binomial():
    # x^9 + 1 = (x + 1)^9 in characteristic 3
    fac = factor(X ** 9 + ONE)
    assert fac.factors == ((X + ONE, 9),)


def test_factor_field_polynomial():
    # x^9 - x is the product of every monic irreducible of degree 1 or 2
    fac = factor(X ** 9 - X)
    assert fac.unit == 1
    assert all(k == 1 for _, k in fac.factors)
    assert sorted(p.degree for p, _ in fac.factors) == [1, 1, 1, 2, 2, 2]


def test_factor_unit_handling():
    fac = factor(Poly((2,)))
    assert fac == Factorization(2, ())
    assert fac.expand() == Poly((2,))
    with pytest.raises(ValueError):
        factor(Poly())


@given(nonzero_polys)
@settings(max_examples=60)
def test_factor_expand_round_trip(f):
    fac = factor(f)
    assert fac.expand() == f
    for p, k in fac.factors:
        assert p.lc == 1
        assert is_irreducible(p)
        assert k >= 1


@given(nonzero_polys)
@settings(max_examples=30)
def test_factor_is_deterministic(f):
    assert factor(f) == factor(f)


def test_factor_sorted_by_degree_then_coeffs():
    fac = factor(parse_poly("x^8-1"))
    keys = [(p.degree, p.coeffs) for p, _ in fac.factors]
    assert keys == sorted(keys)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_factor_x_to_the_field_order_minus_one(m):
    # x^(3^m-1) - 1 is the product of every monic irreducible whose degree
    # divides m, apart from x, each once
    fac = factor(X ** (3**m - 1) - ONE)
    assert fac.unit == 1
    assert all(k == 1 for _, k in fac.factors)
    polys_ = [p for p, _ in fac.factors]
    assert len(set(polys_)) == len(polys_)
    assert X not in polys_
    assert all(ref_is_irreducible(p.coeffs) and p.lc == 1 for p in polys_)
    by_degree = {}
    for p in polys_:
        by_degree[p.degree] = by_degree.get(p.degree, 0) + 1
    expected = {d: IRREDUCIBLE_COUNTS[d] - (d == 1) for d in range(1, m + 1) if m % d == 0}
    assert by_degree == expected


def test_factor_product_of_known_irreducibles_with_powers():
    # 24 degree-5 irreducibles, three squared and one cubed, with x + 1 and
    # x^2 + 1 so that the distinct-degree stage shrinks its modulus twice
    # before degree 5; degree 148
    quintics = [p for p in _monic_polys(5) if ref_is_irreducible(p.coeffs)]
    assert len(quintics) == IRREDUCIBLE_COUNTS[5]
    chosen = random.Random(5).sample(quintics, 24)
    expected = {p: 1 for p in chosen}
    for p in chosen[:3]:
        expected[p] = 2
    expected[chosen[3]] = 3
    expected[X + ONE] = 1
    expected[X ** 2 + ONE] = 1
    f = ONE
    for p, k in expected.items():
        f = f * p**k
    assert f.degree == 148
    want = tuple(sorted(expected.items()))
    assert factor(f).factors == want
    assert factor(f) == factor(f)
    assert factor(2 * f) == Factorization(2, want)


def test_squarefree_decomposition_cube():
    f = (X + ONE) ** 3 * (X - ONE)
    parts = {k: p for p, k in squarefree_decomposition(f)}
    assert parts[1] == X - ONE
    assert parts[3] == X + ONE


def test_factor_perfect_cube():
    f = (X ** 2 + ONE) ** 3
    assert factor(f).factors == ((X ** 2 + ONE, 3),)


def test_roots_in_extension_by_degree_divisibility():
    # x^(3^m) = x mod an irreducible p iff its roots lie in GF(3^m),
    # iff deg p divides m
    for text in ("x^2+1", "x^6-x^5+x^4-x^3+x^2-x+1"):
        p = parse_poly(text)
        for m in range(1, 13):
            assert (frobenius_power(X, m, p) == X % p) == (m % p.degree == 0)


def test_prime_factors_distinct_ascending():
    assert prime_factors(80) == (2, 5)
    assert prime_factors(242) == (2, 11)
    assert prime_factors(2) == (2,)
    assert prime_factors(1) == ()


# -- the bit-plane engine against the schoolbook reference -----------------


@given(sized_lists(st.integers(min_value=-10, max_value=10), 201))
@settings(max_examples=50)
def test_coeffs_round_trip_signed_ints(cs):
    p = Poly(cs)
    assert p.coeffs == ref_trim(cs)
    assert p.degree == len(p.coeffs) - 1
    assert p.lc == (p.coeffs[-1] if p.coeffs else 0)
    assert Poly(p.coeffs) == p


@given(long_lists, long_lists)
@settings(max_examples=50)
def test_add_sub_neg_match_reference(a, b):
    f, g = Poly(a), Poly(b)
    assert (f + g).coeffs == ref_add(a, b)
    assert (f - g).coeffs == ref_add(a, ref_neg(b))
    assert (-f).coeffs == ref_neg(a)


@given(long_lists, long_lists, st.integers(min_value=-4, max_value=4))
@settings(max_examples=60)
def test_mul_matches_reference(a, b, k):
    f, g = Poly(a), Poly(b)
    assert (f * g).coeffs == ref_mul(a, b)
    assert (f * k).coeffs == ref_trim(k * c for c in a)
    assert (k * f) == f * k


@given(long_lists, long_nonzero_lists, st.booleans())
@settings(max_examples=60)
def test_divmod_matches_reference(a, b, monic):
    b = list(ref_trim(b))
    b[-1] = 1 if monic else 2
    q, r = divmod(Poly(a), Poly(b))
    assert (q.coeffs, r.coeffs) == ref_divmod(a, b)
    assert Poly(a) % Poly(b) == r
    assert Poly(a) // Poly(b) == q


@given(long_lists)
@settings(max_examples=50)
def test_derivative_matches_reference(a):
    assert Poly(a).derivative().coeffs == ref_derivative(a)


@given(long_lists)
@settings(max_examples=40)
def test_cube_is_pow_three_and_spreads_coefficients(a):
    f = Poly(a)
    spread = [0] * (3 * len(a))
    spread[::3] = a
    assert (f**3).coeffs == ref_trim(spread)
    assert (f**3).coeffs == ref_mul(ref_mul(a, a), a)


@given(
    sized_lists(digits, 120),
    sized_lists(digits, 60).filter(len),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1, 2]),
)
@settings(max_examples=40)
def test_frobenius_power_matches_reference(a, tail, d, lead):
    # a leading 2 makes the engine build the rows of the monic form
    mod = tail + [lead]
    expected = ref_divmod(a, mod)[1]
    for _ in range(d):
        expected = ref_divmod(ref_mul(ref_mul(expected, expected), expected), mod)[1]
    assert frobenius_power(Poly(a), d, Poly(mod)).coeffs == expected


def seeded_irreducible(d, rng):
    # a monic irreducible of degree d, drawn until trial division finds no
    # divisor
    while True:
        p = Poly([rng.randrange(3) for _ in range(d)] + [1])
        if ref_is_irreducible(p.coeffs):
            return p


@given(
    sized_lists(digits, 40),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60)
def test_trace_is_the_constant_sum_of_frobenius_images(a, d, seed):
    # modulo an irreducible p of degree d, the equal-degree split's
    # a + a^3 + ... + a^(3^(d-1)) is the trace of a down to GF(3)
    p = seeded_irreducible(d, random.Random(seed))
    a = Poly(a)
    t = _trace(a % p, d, _frobenius_rows(p))
    assert t.degree < 1
    assert t == sum((powmod(a, 3**i, p) for i in range(d)), Poly())


@pytest.mark.parametrize("d", range(1, 9))
def test_equal_degree_returns_the_seeded_irreducibles(d):
    # at d = 1 and 2 all three irreducibles of that degree, else six drawn
    if d <= 2:
        chosen = {p for p in _monic_polys(d) if ref_is_irreducible(p.coeffs)}
    else:
        rng = random.Random(d)
        chosen = set()
        while len(chosen) < 6:
            chosen.add(seeded_irreducible(d, rng))
    f = ONE
    for p in chosen:
        f = f * p
    for seed in range(5):
        assert sorted(_equal_degree(f, d, random.Random(seed))) == sorted(chosen)


@given(long_lists, long_lists, st.integers(min_value=0, max_value=201))
@settings(max_examples=50)
def test_order_and_hash_follow_the_coefficient_tuples(a, b, k):
    # c keeps a's length and its first k coefficients, so most pairs (a, c)
    # tie on degree and are ordered by a coefficient
    c = (a[:k] + b + a)[: len(a)]
    for u, v in ((a, b), (a, c), (a, a)):
        f, g = Poly(u), Poly(v)
        key_f = (len(ref_trim(u)), ref_trim(u))
        key_g = (len(ref_trim(v)), ref_trim(v))
        assert (f < g) == (key_f < key_g)
        assert (f == g) == (key_f == key_g)
        if f == g:
            assert hash(f) == hash(g)
