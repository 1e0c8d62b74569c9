"""Exact verification of the symbolic identities behind the optimality
conditions for the exponents e = 3^h + 5.

The paper's reduction is derived once, by reduction_pair, whose docstring
states the lemma: every solution theta of either condition equation, bar
the roots of a gcd the builder divides out, obeys
theta^(3^h) = num(theta)/den(theta) for a fixed GF(3) pair (num, den).
Applying x -> x^(3^h) again and clearing denominators gives
x^(3^t)*G - F = 0 with t = 2h mod m.  The four factorization checks are
the 2x2 grid {difference, sum} x {t = 0, t = 2}, one row of
_FACTORIZATIONS each, keyed by (sign of the equation, t): t = 0 when
"theta is a fixed point" (2h = m) and t = 2 when
"theta^(3^(2h)) = theta^9" (2h = m + 2).  Each left-hand side must factor
into a specific product of small irreducibles; the expected products live
here as literal fixtures, kept apart from anything the engine computes, so
a fixture slip shows up as a fixture-vs-engine diff rather than vanishing
silently.

Every check is an exact ring statement: lhs equals unit times the monic
fixture product, every fixture factor is irreducible, and the in-house
factor engine reproduces the fixture multiset on its own.  Irreducibility
also settles where a factor's roots lie, so no subfield check is run: a
factor of degree d has its roots in GF(3^m) exactly when d | m, which
tests/test_identities.py pins and uses to count each equation's solutions
from the fixtures.  A row may also list polynomials that must be pairwise
coprime, tested once its factorization passes.  On top of the four
factorizations, a registry of five auxiliary steps verifies the inline
computations of the proofs (direct-substitution collapses, the x^8 - 1
consequence, and the two Frobenius facts modulo the degree-6 factor).
run_all executes everything in a fixed order.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .gf3poly import (
    Factorization,
    Poly,
    factor,
    frobenius_power,
    is_irreducible,
    parse_poly,
    poly_gcd,
    powmod,
)


def reduction_pair(sign: int) -> tuple[Poly, Poly]:
    """(num, den) of the paper's reduction for e = 3^h + 5 on the equation
    (x+1)^e + sign*(x^e + 1) = 0: sign = -1 gives the difference equation,
    sign = +1 the sum equation.

    Put y = x^(3^h), A = (x+1)^5 and B = x^5.  Then (x+1)^e = (y+1)*A and
    x^e = y*B, so the equation reads y*(A + sign*B) = -(A + sign).  The
    pair returned is that one divided by its gcd, scaled so that den is
    monic.  Every solution x is a root of the divided-out gcd or satisfies
    y*den(x) = num(x), where den(x) != 0 as num and den are coprime.  Both
    have GF(3) coefficients, so applying x -> x^(3^h) again gives
    x^(3^t)*G(x) = F(x), where t = 2h mod m, F = cleared_compose(num, num,
    den) and G = cleared_compose(den, num, den), both cleared at degree
    d = max(deg num, deg den).  The paper's two cases are t = 0 (2h = m)
    and t = 2 (2h = m + 2)."""
    a, b = (Poly.x() + Poly.one()) ** 5, Poly.x() ** 5
    num, den = -(a + Poly.one() * sign), a + b * sign
    common = poly_gcd(num, den)
    unit, den = (den // common).monic()
    return num // common * unit, den


def cleared_compose(outer: Poly, num: Poly, den: Poly) -> Poly:
    """outer(num/den) * den^d with d = max(deg num, deg den), the lemma's
    denominator-cleared composition; outer is num or den."""
    degree = max(num.degree, den.degree)
    out = Poly()
    for i, c in enumerate(outer.coeffs):
        if c:
            out = out + c * num**i * den ** (degree - i)
    return out


# Factorization fixtures: the expected products, one (factor, multiplicity)
# pair per factor.  Literal text, never derived from the engine under test.
FIXED_POINT_DIFFERENCE = (
    ("x", 3),
    ("x+1", 1),
    ("x-1", 1),
    ("x^6+x^3-x+1", 1),
    ("x^6-x^5+x^3+1", 1),
    ("x^6-x^5-x^3-x+1", 1),
)
NINTH_POWER_DIFFERENCE = (
    ("x", 1),
    ("x+1", 1),
    ("x-1", 1),
    ("x^4+x^3-x^2-x-1", 1),
    ("x^4+x^3+x^2-x-1", 1),
    ("x^6-x^5+x^4-x^3+x^2-x+1", 1),
    ("x^8+x^7+x^6-x^4+x^2+x+1", 1),
    ("x^8+x^7-x^6-x^2+x+1", 1),
)
FIXED_POINT_SUM = (
    ("x-1", 5),
    ("x^2+x-1", 2),
    ("x^2-x-1", 2),
    ("x^2+1", 2),
)
NINTH_POWER_SUM = (
    ("x-1", 1),
    ("x^2+1", 1),
    ("x^2+x-1", 1),
    ("x^2-x-1", 1),
    ("x^3-x+1", 1),
    ("x^3-x-1", 1),
    ("x^3+x^2-x+1", 1),
    ("x^3-x^2+x+1", 1),
    ("x^3+x^2-1", 1),
    ("x^3-x^2+1", 1),
)

# the degree-6 factor the ninth-power difference argument works through;
# its roots are the primitive 14th roots of unity
SEVENTH_ROOT_FACTOR = "x^6-x^5+x^4-x^3+x^2-x+1"

# One row per factorization check: id, sign of the equation (as in
# reduction_pair), t in x^(3^t)*G - F, fixture, and polynomials that must be
# pairwise coprime.  The two quintics the ninth-power difference argument
# derives must be coprime to each other and to the degree-6 factor, so no
# root survives the combined equations.
_FACTORIZATIONS = (
    ("difference-fixed-point", -1, 0, FIXED_POINT_DIFFERENCE, ()),
    (
        "difference-ninth-power", -1, 2, NINTH_POWER_DIFFERENCE,
        ("x^5-x^2-1", "x^5+x^3-x^2-1", SEVENTH_ROOT_FACTOR),
    ),
    ("sum-fixed-point", 1, 0, FIXED_POINT_SUM, ()),
    ("sum-ninth-power", 1, 2, NINTH_POWER_SUM, ()),
)


class IdentityCheck(NamedTuple):
    check_id: str
    status: str  # "pass" or "fail"
    lhs: Poly
    rhs: Factorization | Poly
    unit: int | None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _fixture_factorization(fixture) -> Factorization:
    factors = tuple((parse_poly(text), mult) for text, mult in fixture)
    return Factorization(1, tuple(sorted(factors)))


def factorization_check(check_id: str, lhs: Poly, fixture, coprime=()) -> IdentityCheck:
    """lhs == unit * fixture product, factors irreducible, and the factor
    engine independently reproduces the fixture multiset; once all that
    holds, the coprime polynomials are tested pairwise for a shared root."""
    expected = _fixture_factorization(fixture)
    problems = []
    for p, _ in expected.factors:
        if p.lc != 1:
            problems.append(f"fixture factor {p.format()} is not monic")
        elif not is_irreducible(p):
            problems.append(f"fixture factor {p.format()} is reducible")
    unit: int | None = None
    if not lhs:
        problems.append("left-hand side is zero")
    else:
        unit, lhs_monic = lhs.monic()
        product = expected.expand()
        if lhs_monic != product:
            diff = lhs_monic - product
            problems.append(
                f"monic lhs differs from fixture product by {diff.format()}"
            )
        engine = factor(lhs)
        if engine.factors != expected.factors:
            problems.append(
                "factor engine disagrees with fixture: "
                f"engine={[(p.format(), k) for p, k in engine.factors]}"
            )
    if not problems:
        problems = [
            f"{a} and {b} share a root"
            for a, b in combinations(coprime, 2)
            if poly_gcd(parse_poly(a), parse_poly(b)).degree != 0
        ]
    return IdentityCheck(
        check_id=check_id,
        status="pass" if not problems else "fail",
        lhs=lhs,
        rhs=Factorization(unit if unit is not None else 1, expected.factors),
        unit=unit,
        detail="; ".join(problems),
    )


def _step_check(check_id: str, lhs: Poly, rhs: Poly) -> IdentityCheck:
    ok = lhs == rhs
    return IdentityCheck(
        check_id=check_id,
        status="pass" if ok else "fail",
        lhs=lhs,
        rhs=rhs,
        unit=None,
        detail="" if ok else f"got {lhs.format()}, expected {rhs.format()}",
    )


def verify_steps() -> list[IdentityCheck]:
    """The five inline proof computations, in registry order."""
    f, g = reduction_pair(-1)
    k, l = reduction_pair(1)
    x = Poly.x()
    p6 = parse_poly(SEVENTH_ROOT_FACTOR)
    minus_one = Poly((2,))
    checks = [
        # identity-map substitution collapses the difference relation to x^3
        _step_check("step-difference-direct-substitution", x * g - f, x**3),
        # same collapse on the sum route leaves a pure fifth power
        _step_check("step-sum-direct-substitution", x * l - k, parse_poly("x-1") ** 5),
        # cube-map substitution, cleared by (x+1), leaves x^8 - 1
        _step_check(
            "step-sum-cube-substitution", (x**3 * l - k) * parse_poly("x+1"), x**8 - Poly.one()
        ),
        # mod the degree-6 factor: x has order 14, so x^7 = -1
        _step_check("step-seventh-power-minus-one", powmod(x, 7, p6), minus_one),
        # and the fourth Frobenius power acts as -x^4 there
        _step_check(
            "step-frobenius-fourth-power",
            frobenius_power(x, 4, p6),
            minus_one * x**4,
        ),
    ]
    return checks


def run_all() -> list[IdentityCheck]:
    """All nine checks: the four factorizations, then the step registry."""
    checks = []
    for check_id, sign, t, fixture, coprime in _FACTORIZATIONS:
        num, den = reduction_pair(sign)
        lhs = Poly.x() ** 3**t * cleared_compose(den, num, den)
        lhs -= cleared_compose(num, num, den)
        checks.append(factorization_check(check_id, lhs, fixture, coprime))
    return checks + verify_steps()
