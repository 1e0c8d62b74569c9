"""Cyclotomic cosets mod p^m - 1 and minimal polynomials."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyc3 import cosets
from cyc3.cosets import (
    Coset,
    coset,
    coset_size_law_check,
    cosets_meeting,
    cosets_partition,
    minimal_polynomial,
)
from cyc3.field import build_field
from cyc3.gf3poly import Poly, is_irreducible, powmod


def test_coset_of_14_mod_80():
    c = coset(14, 3, 4)
    assert c.leader == 14
    assert c.members == (14, 42, 46, 58)
    assert c.size == 4


def test_coset_of_1_collects_powers_of_p():
    c = coset(1, 3, 4)
    assert c.members == (1, 3, 9, 27)


def test_coset_of_zero():
    c = coset(0, 3, 4)
    assert c.members == (0,)
    assert c.size == 1


def test_coset_small_orbits():
    assert coset(40, 3, 4).members == (40,)  # 40*3 = 120 = 40 mod 80
    assert coset(10, 3, 4).members == (10, 30)


def test_coset_reduces_j_mod_n():
    assert coset(94, 3, 4) == coset(14, 3, 4)


def test_coset_input_validation():
    with pytest.raises(ValueError):
        coset(1, 4, 3)  # p not prime
    with pytest.raises(ValueError):
        coset(1, 3, 0)


def test_coset_accepts_the_edges_of_its_envelope():
    assert coset(3, 2**32 - 5, 2).size == 2  # the largest prime below 2^32
    assert coset(1, 2, 64).size == 64  # 2^64 - 1 is just below the limit
    assert coset(1, 3, 40).size == 40  # 3^40 - 1 < 2^64 < 3^41 - 1
    assert coset(14, 3, 20).size == 20


@pytest.mark.parametrize(
    "j, p, m, message",
    [
        (3, 10**18 + 3, 2, "p must be below 2^32"),  # prime, far too large
        (3, 2**32 + 15, 1, "p must be below 2^32"),  # the first prime past it
        (1, 2, 65, "p^m - 1 must be below 2^64"),
        (1, 3, 41, "p^m - 1 must be below 2^64"),
        (1, 3, 3 * 10**6, "p^m - 1 must be below 2^64"),
        (1, 3, 10**11, "p^m - 1 must be below 2^64"),
    ],
)
def test_coset_refuses_beyond_its_envelope(j, p, m, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        coset(j, p, m)


@given(st.integers(min_value=0, max_value=79))
def test_membership_is_an_equivalence(j):
    c = coset(j, 3, 4)
    assert j % 80 in c.members
    for member in c.members:
        assert coset(member, 3, 4) == c


def test_partition_covers_everything_once():
    cs = cosets_partition(3, 4)
    seen = [j for c in cs for j in c.members]
    assert sorted(seen) == list(range(80))
    assert [c.leader for c in cs] == sorted(c.leader for c in cs)
    for c in cs:
        assert 4 % c.size == 0  # orbit sizes divide m


def _partition_by_flags(p, m):
    # the reference walk: a list of flags, one coset call per unflagged j
    n = p**m - 1
    seen = [False] * n
    out = []
    for j in range(n):
        if not seen[j]:
            c = coset(j, p, m)
            for member in c.members:
                seen[member] = True
            out.append(c)
    return out


@pytest.mark.parametrize(
    "p, m",
    [(2, m) for m in range(1, 9)]
    + [(3, m) for m in range(1, 8)]
    + [(5, m) for m in range(1, 5)],
)
def test_partition_matches_the_list_of_flags_walk(p, m):
    assert cosets_partition(p, m) == _partition_by_flags(p, m)


def test_walk_yields_each_coset_met_once_in_order_of_first_meeting(monkeypatch):
    evens = range(102, 132, 2)
    first_met = []
    for e in evens:
        leader = coset(e, 3, 5).leader
        if leader not in first_met:
            first_met.append(leader)
    assert min(first_met) < 101  # some classes are met above their leader
    assert first_met != sorted(first_met)
    calls = []

    def counting_coset(j, p, m):
        calls.append(j)
        return coset(j, p, m)

    monkeypatch.setattr(cosets, "coset", counting_coset)
    walked = list(cosets_meeting(evens, 3, 5))
    assert [c.leader for c in walked] == first_met
    assert len(calls) == len(walked)


@pytest.mark.parametrize("m", [2, 4, 5, 6])
def test_size_law_for_gcd_two_exponents(m):
    # every e with gcd(e, 3^m - 1) = 2 sits in a full-size coset
    report = coset_size_law_check(3, m)
    assert report.violations == ()
    assert report.checked > 0


def test_size_law_lists_a_coset_of_the_wrong_size(monkeypatch):
    real = cosets.coset

    def short_at_14(e, p, m):
        c = real(e, p, m)
        return c._replace(members=c.members[:-1]) if e == 14 else c

    monkeypatch.setattr(cosets, "coset", short_at_14)
    report = coset_size_law_check(3, 4)
    assert report.violations == (14,)
    assert report.checked > 1


def test_size_law_other_characteristic():
    report = coset_size_law_check(5, 2)
    assert report.violations == ()


def test_minimal_polynomial_of_generator_is_the_modulus():
    # alpha is the class of x, so m_1 is the modulus at every canonical m
    for m in range(1, 21):
        field = build_field(m)
        assert minimal_polynomial(field, 1) == field.modulus


@pytest.mark.parametrize("m", range(2, 7))
def test_minimal_polynomial_is_the_modulus_only_on_the_coset_of_1(m):
    # the conjugacy test of build_code against the coset leader
    field = build_field(m)
    for e in range(1, field.order):
        is_modulus = minimal_polynomial(field, e) == field.modulus
        assert is_modulus == (coset(e, 3, m).leader == 1)


def test_minimal_polynomial_of_14():
    field = build_field(4)
    p = minimal_polynomial(field, 14)
    assert p.format() == "x^4+x^3+x^2+1"
    assert is_irreducible(p)


def test_minimal_polynomial_degree_is_coset_size():
    # minimal_polynomial takes one factor per conjugate alpha^i, alpha^(3i),
    # ..., found by cubing in the field; the degree is that orbit's length
    # (counted here with powmod) and agrees with coset(), a route apart
    for m, powers in ((4, (0, 1, 10, 14, 40)), (6, (28, 86, 91, 364))):
        field = build_field(m)
        for i in powers:
            a = powmod(Poly.x(), i, field.modulus)
            b, orbit = powmod(a, 3, field.modulus), 1
            while b != a:
                b, orbit = powmod(b, 3, field.modulus), orbit + 1
            degree = minimal_polynomial(field, i).degree
            assert degree == orbit == coset(i, 3, m).size, (m, i)


@pytest.mark.parametrize("m", [4, 6])
def test_minimal_polynomial_does_not_read_coset_members(monkeypatch, m):
    # a coset() listing wrong members must not move the minimal polynomial,
    # so build_code's conjugacy test and dimension stay apart from the
    # coset facts that verify reports
    field = build_field(m)
    expected = [minimal_polynomial(field, i) for i in range(field.order)]

    def wrong_members(j, p, m):
        c = coset(j, p, m)
        return c._replace(members=tuple((x + 1) % (p**m - 1) for x in c.members))

    monkeypatch.setattr(cosets, "coset", wrong_members)
    assert [minimal_polynomial(field, i) for i in range(field.order)] == expected


def test_minimal_polynomial_annihilates_the_power():
    field = build_field(6)
    for i in (1, 86, 11):
        p = minimal_polynomial(field, i)
        a = powmod(Poly.x(), i, field.modulus)
        acc = field.zero
        for c in reversed(p.coeffs):
            acc = (acc * a + field.one * c) % field.modulus
        assert acc == field.zero


def test_minimal_polynomials_tile_the_group_polynomial():
    # the product over all coset leaders rebuilds x^n - 1
    field = build_field(3)
    prod = Poly.one()
    for c in cosets_partition(3, 3):
        prod = prod * minimal_polynomial(field, c.leader)
    assert prod == Poly.x() ** 26 - Poly.one()


def test_coset_is_hashable_value_object():
    assert coset(14, 3, 4) == Coset(3, 4, 14, (14, 42, 46, 58))
    assert len({coset(14, 3, 4), coset(42, 3, 4)}) == 1
