"""Symbolic identity suite: composed polynomials, frozen factorizations,
and the substitution steps that link them."""

import pytest

from cyc3 import identities
from cyc3.conditions import _solutions_table, open_problem_exponent
from cyc3.field import build_field
from cyc3.gf3poly import Poly, factor, frobenius_power, parse_poly, poly_gcd, powmod
from cyc3.identities import (
    FIXED_POINT_DIFFERENCE,
    FIXED_POINT_SUM,
    NINTH_POWER_DIFFERENCE,
    NINTH_POWER_SUM,
    SEVENTH_ROOT_FACTOR,
    cleared_compose,
    factorization_check,
    reduction_pair,
    run_all,
    verify_steps,
)

X = Poly.x()
ONE = Poly.one()

EXPECTED_IDS = [
    "difference-fixed-point",
    "difference-ninth-power",
    "sum-fixed-point",
    "sum-ninth-power",
    "step-difference-direct-substitution",
    "step-sum-direct-substitution",
    "step-sum-cube-substitution",
    "step-seventh-power-minus-one",
    "step-frobenius-fourth-power",
]


def _check(check_id):
    """One factorization check, picked from run_all() by its id."""
    (check,) = [c for c in run_all() if c.check_id == check_id]
    return check


def test_run_all_everything_passes():
    checks = run_all()
    assert [c.check_id for c in checks] == EXPECTED_IDS
    assert all(c.passed for c in checks), [
        (c.check_id, c.detail) for c in checks if not c.passed
    ]


def test_run_all_is_deterministic():
    assert run_all() == run_all()


def test_difference_pair_shapes():
    f, g = reduction_pair(-1)
    assert f == parse_poly("x^5-x^4+x^3+x^2-x")
    assert g == parse_poly("x^4-x^3-x^2+x-1")
    # clearing denominators of f(x)/g(x) composed with itself: d = 5
    F = cleared_compose(f, f, g)
    G = cleared_compose(g, f, g)
    assert (F.degree, F.lc) == (25, 1)
    assert (G.degree, G.lc) == (24, 1)


def test_sum_pair_shapes():
    k, l = reduction_pair(1)
    assert k == parse_poly("x^4+x^2-x+1")
    assert l == parse_poly("x^4-x^3+x^2+1")
    K = cleared_compose(k, k, l)
    L = cleared_compose(l, k, l)
    assert (K.degree, K.lc) == (16, 2)
    assert (L.degree, L.lc) == (16, 2)


def test_difference_fixed_point_frozen_factors():
    check = _check("difference-fixed-point")
    assert check.passed
    assert check.unit == 2
    assert check.lhs.degree == 23
    # x^3 divides: the low-degree tail vanishes
    assert check.lhs.coeffs[:3] == (0, 0, 0)


def test_difference_ninth_power_frozen_factors():
    check = _check("difference-ninth-power")
    assert check.passed
    assert check.unit == 1
    assert check.lhs.degree == 33


def test_sum_fixed_point_has_quintuple_root_at_one():
    check = _check("sum-fixed-point")
    assert check.passed
    assert check.unit == 2
    assert check.lhs.degree == 17
    k, l = reduction_pair(1)
    assert X * cleared_compose(l, k, l) - cleared_compose(k, k, l) == check.lhs
    # (x - 1)^5 carries multiplicity five
    assert ("x-1", 5) in [
        (p, m) for p, m in _fixture_pairs(check)
    ]


def _fixture_pairs(check):
    return [(p.format(), m) for p, m in factor(check.lhs).factors]


def test_sum_ninth_power_frozen_factors():
    check = _check("sum-ninth-power")
    assert check.passed
    assert check.unit == 2
    assert check.lhs.degree == 25
    assert len(NINTH_POWER_SUM) == 10


def test_coprimality_failure_fails_only_its_check(monkeypatch):
    """A row whose coprime polynomials share a root must come back failed
    with a shared-root detail, while every other check still passes."""
    rows = list(identities._FACTORIZATIONS)
    check_id, sign, t, fixture, _ = rows[2]
    rows[2] = (check_id, sign, t, fixture, ("x^2+1", "x^4-1", "x^3-x+1"))
    monkeypatch.setattr(identities, "_FACTORIZATIONS", tuple(rows))
    checks = run_all()
    assert [c.check_id for c in checks] == EXPECTED_IDS
    failed = [c for c in checks if not c.passed]
    assert [c.check_id for c in failed] == ["sum-fixed-point"]
    assert failed[0].detail == "x^2+1 and x^4-1 share a root"
    # the factorization itself still holds: only the status and detail move
    assert failed[0].unit == 2
    assert failed[0].lhs.degree == 17


def test_quintic_pair_is_coprime():
    a = parse_poly("x^5-x^2-1")
    b = parse_poly("x^5+x^3-x^2-1")
    p = parse_poly(SEVENTH_ROOT_FACTOR)
    assert poly_gcd(a, b) == ONE
    assert poly_gcd(a, p) == ONE
    assert poly_gcd(b, p) == ONE


def test_seventh_root_factor_splits_in_degree_six():
    p = parse_poly(SEVENTH_ROOT_FACTOR)
    for m in range(1, 13):
        assert (frobenius_power(X, m, p) == X % p) == (m % 6 == 0)
    # its roots are primitive 14th roots of unity: x^7 = -1 mod p
    assert (X ** 7 + ONE) % p == Poly()


def test_steps_pass_individually():
    for check in verify_steps():
        assert check.passed, (check.check_id, check.detail)


def test_direct_substitution_collapses_to_cube():
    f, g = reduction_pair(-1)
    assert X * g - f == X ** 3
    k, l = reduction_pair(1)
    assert X * l - k == (X - ONE) ** 5


def test_cube_substitution_yields_eighth_power_difference():
    k, l = reduction_pair(1)
    assert (X ** 3 * l - k) * (X + ONE) == X ** 8 - ONE


def test_factorization_check_detects_tampered_lhs():
    """The checker must fail when the polynomial is off by one; a checker
    that cannot fail certifies nothing."""
    f, g = reduction_pair(-1)
    lhs = X * cleared_compose(g, f, g) - cleared_compose(f, f, g)
    good = factorization_check("control-good", lhs, FIXED_POINT_DIFFERENCE)
    assert good.passed
    bad = factorization_check("control-bad", lhs + ONE, FIXED_POINT_DIFFERENCE)
    assert not bad.passed


def test_coprime_pairs_are_tested_once_the_factorization_holds():
    f, g = reduction_pair(-1)
    lhs = X * cleared_compose(g, f, g) - cleared_compose(f, f, g)
    sharing = ("x^2+1", "x^4-1", "x^3-x+1")
    held = factorization_check("control", lhs, FIXED_POINT_DIFFERENCE, sharing)
    assert (held.status, held.unit) == ("fail", 2)
    assert held.detail == "x^2+1 and x^4-1 share a root"
    broken = factorization_check("control", lhs + ONE, FIXED_POINT_DIFFERENCE, sharing)
    assert broken.status == "fail"
    assert "share a root" not in broken.detail


def test_factorization_check_detects_tampered_fixture():
    f, g = reduction_pair(-1)
    lhs = X * cleared_compose(g, f, g) - cleared_compose(f, f, g)
    tampered = tuple(
        (poly, mult + 1 if poly == "x+1" else mult)
        for poly, mult in FIXED_POINT_DIFFERENCE
    )
    assert not factorization_check("control-mult", lhs, tampered).passed


@pytest.mark.parametrize(
    "lhs, fixture, unit, detail",
    [
        (
            "2x+1",
            (("2x+1", 1),),
            2,
            "fixture factor -x+1 is not monic; "
            "monic lhs differs from fixture product by -x+1; "
            "factor engine disagrees with fixture: engine=[('x-1', 1)]",
        ),
        (
            "x^3-x",
            (("x^3-x", 1),),
            1,
            "fixture factor x^3-x is reducible; "
            "factor engine disagrees with fixture: "
            "engine=[('x', 1), ('x+1', 1), ('x-1', 1)]",
        ),
        ("0", (("x+1", 1),), None, "left-hand side is zero"),
    ],
    ids=["non-monic-factor", "reducible-factor", "zero-lhs"],
)
def test_factorization_check_reports_each_problem(lhs, fixture, unit, detail):
    check = factorization_check("control", parse_poly(lhs), fixture)
    assert (check.status, check.unit, check.detail) == ("fail", unit, detail)


def test_fixture_factors_have_roots_where_their_degree_divides():
    """Each frozen irreducible has its roots in GF(3^m) exactly when its
    degree divides m: x^(3^m) = x modulo it then and only then."""
    fixtures = (
        FIXED_POINT_DIFFERENCE + NINTH_POWER_DIFFERENCE
        + FIXED_POINT_SUM + NINTH_POWER_SUM
    )
    for poly_text, _ in fixtures:
        p = parse_poly(poly_text)
        for m in range(1, 13):
            assert (frobenius_power(X, m, p) == X % p) == (m % p.degree == 0)


def _divided_gcd(sign):
    """The gcd reduction_pair divides out of (-(A + sign), A + sign*B),
    A = (x+1)^5 and B = x^5: 1 for sign -1 and x - 1 for sign +1."""
    a, b = (X + ONE) ** 5, X ** 5
    return poly_gcd(-(a + ONE * sign), a + b * sign)


def _evaluate(poly, x, modulus):
    """poly(x) at a field residue x, by Horner's rule."""
    acc = Poly()
    for c in reversed(poly.coeffs):
        acc = (acc * x + Poly((c,))) % modulus
    return acc


@pytest.mark.parametrize("m", range(4, 9))
def test_reduction_lemma_holds_at_every_table_solution(m):
    """Every solution the table scan lists at e = 3^h + 5, bar the roots of
    the gcd reduction_pair divides out, satisfies y*den(x) = num(x) with
    y = x^(3^h), and x^(3^t)*G(x) = F(x) with t = 2h mod m.  At t = 0 and
    t = 2, x^(3^t)*G - F is the left-hand side of the paper's row, so every
    such solution is a root of it."""
    field = build_field(m)
    mod = field.modulus
    rows = {
        (sign, t): check.lhs
        for (_, sign, t, _, _), check in zip(identities._FACTORIZATIONS, run_all())
    }
    for h in range(m):
        e = 3**h + 5
        if e >= field.order:
            break
        t = 2 * h % m
        for sign, solutions in zip((-1, 1), _solutions_table(field, e)):
            num, den = reduction_pair(sign)
            common = _divided_gcd(sign)
            F = cleared_compose(num, num, den)
            G = cleared_compose(den, num, den)
            if (sign, t) in rows:
                assert X ** 3**t * G - F == rows[sign, t]
            for code in solutions:
                x = field.decode(code)
                if not _evaluate(common, x, mod):
                    continue
                y = powmod(x, 3**h, mod)
                assert y * _evaluate(den, x, mod) % mod == _evaluate(num, x, mod)
                lhs = powmod(x, 3**t, mod) * _evaluate(G, x, mod) % mod
                assert lhs == _evaluate(F, x, mod), (m, h, sign, code)


def _fixture_count(m, e, sign, t):
    """The number of solutions in GF(3^m) of (x+1)^e + sign*(x^e + 1) = 0,
    counted from the paper's factor lists alone, for t = 2h mod m in
    {0, 2}.  By the lemma in reduction_pair's docstring every solution is
    a root of the gcd it divides out or of row (sign, t)'s left-hand side,
    whose factors are that row's fixture once run_all passes.  x and x + 1,
    where x^e or (x+1)^e vanishes, join so that the count of those points
    does not rest on a fixture listing them.  A factor p of degree d has
    its roots in GF(3^m) exactly when d | m, and they are Frobenius
    conjugates, so all d solve or none do: test X = x mod p once, with
    k = (e - 1) mod (3^d - 1) + 1, which acts as e on GF(3^d)* and stays
    >= 1 where X = 0."""
    (fixture,) = [
        f for _, s, u, f, _ in identities._FACTORIZATIONS if (s, u) == (sign, t)
    ]
    candidates = {X, X + ONE}
    candidates.update(parse_poly(text) for text, _ in fixture)
    candidates.update(p for p, _ in factor(_divided_gcd(sign)).factors)
    count = 0
    for p in candidates:
        d = p.degree
        if m % d:
            continue
        x = X % p
        k = (e - 1) % (3**d - 1) + 1
        if not powmod(x + ONE, k, p) + (powmod(x, k, p) + ONE) * sign:
            count += d
    return count


@pytest.mark.parametrize("m", range(3, 13))
def test_fixture_counts_match_the_table_scan(m):
    """At every e = 3^h + 5 with 2h mod m in {0, 2}, the counts from the
    factor lists equal the lengths of the table scan's solution lists."""
    field = build_field(m)
    for h in range(m):
        e = 3**h + 5
        if e >= field.order:
            break
        t = 2 * h % m
        if t not in (0, 2):
            continue
        counts = tuple(_fixture_count(m, e, sign, t) for sign in (-1, 1))
        assert counts == tuple(map(len, _solutions_table(field, e))), (m, h)


def test_open_problem_family_is_optimal_at_every_even_m_to_240():
    """Conditions 1-4 for e = 3^(m/2) + 5 (m = 0 mod 4) and
    e = 3^((m+2)/2) + 5 (m = 2 mod 4) at every even m in 4..240, with no
    field table: parity and the coset facts by integer arithmetic, and
    the solution counts from the factor lists.  The counts rest on the
    lemma in reduction_pair's docstring and on the fixtures being the
    complete factorizations, which run_all checks; x = 0 always solves
    the difference equation and x = 1 the sum equation, so (1, 1) leaves
    no other solution."""
    assert all(c.passed for c in run_all())
    for m in range(4, 241, 2):
        h, e = open_problem_exponent(m)
        n = 3**m - 1
        t = 2 * h % m
        assert e % 2 == 0, m
        conjugates = {e * 3**k % n for k in range(m)}
        assert len(conjugates) == m and 1 not in conjugates, m
        counts = tuple(_fixture_count(m, e, sign, t) for sign in (-1, 1))
        assert counts == (1, 1), m
