"""Optimality conditions, exponent families, and cross-oracle agreement."""

import gc
import random
import weakref
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyc3.codes import (
    ConjugateExponentError,
    build_code,
    is_codeword,
    min_weight_leq3_search,
)
from cyc3.conditions import (
    FAMILIES,
    FAMILY_C_READINGS,
    MAX_ORBIT_POINTS,
    FamilyInstance,
    _congruence_hits,
    _solutions_generic,
    _solutions_table,
    check_c2,
    check_c3,
    family_instances,
    open_problem_exponent,
    verify_family,
    verify_optimal,
)
from cyc3.cosets import coset, cosets_meeting, cosets_partition
from cyc3.field import LOG_TABLE_MAX_DEGREE, ZECH_ZERO, Field, build_field
from cyc3.gf3poly import Poly, parse_poly, powmod

f4 = build_field(4)
f5 = build_field(5)


def test_c1_is_parity():
    assert verify_optimal(f4, 14).c1
    assert verify_optimal(f4, 2).c1
    assert not verify_optimal(f4, 7).c1


def test_verify_optimal_80_72_4():
    r = verify_optimal(f4, 14)
    assert r.verdict == "optimal"
    assert (r.m, r.e, r.h) == (4, 14, 2)
    assert r.c1 and r.coset_ok
    assert r.gcd_value == 2
    # solutions are element codes: zero is code 0, one is 3^(m-1)
    assert r.c2_solutions == (f4.encode(f4.zero),) == (0,)
    assert r.c3_solutions == (f4.encode(f4.one),) == (27,)
    assert r.parameters == (80, 72, 4)
    # the report keeps no copy of the modulus; its JSON reads the field's
    assert "modulus" not in r._fields
    assert r.to_json_dict(f4)["modulus"] == "x^4+x^3-1"


@pytest.mark.parametrize(
    "m,e,n,k",
    [(6, 86, 728, 716), (8, 86, 6560, 6544), (10, 734, 59048, 59028)],
)
def test_verify_optimal_larger_fields(m, e, n, k):
    r = verify_optimal(build_field(m), e)
    assert r.verdict == "optimal"
    assert r.parameters == (n, k, 4)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_e_two_is_always_optimal(m):
    # the two condition equations collapse to 2x = 0 and 2(x-1)^2 = 0
    r = verify_optimal(build_field(m), 2)
    assert r.verdict == "optimal"
    assert r.parameters == (3 ** m - 1, 3 ** m - 1 - 2 * m, 4)


def test_e_4_fails_exactly_the_second_condition():
    r = verify_optimal(f4, 4)
    assert r.verdict == "not_optimal"
    assert r.c1 and r.coset_ok
    assert len(r.c2_solutions) == 3
    assert r.c3_solutions == (f4.encode(f4.one),)
    assert r.parameters is None
    got = [f4.format_element(x) for x in r.c2_solutions]
    assert got == ["0,0,0,0", "1,0,1,2", "2,0,2,1"]  # ascending codes
    assert [f4.decode(x) for x in r.c2_solutions] == [
        f4.zero,
        parse_poly("2x^3+x^2+1"),
        parse_poly("x^3+2x^2+2"),
    ]


def test_odd_e_fails_the_parity_condition():
    r = verify_optimal(f4, 7)
    assert r.verdict == "not_optimal"
    assert not r.c1


def test_conjugate_e_fails_the_coset_condition():
    r = verify_optimal(f4, 9)
    assert r.verdict == "not_optimal"
    assert not r.coset_ok


@pytest.mark.parametrize("m", range(2, 9))
def test_every_conjugate_of_one_is_refused(m):
    """e is conjugate to 1 exactly when its own coset is led by 1: every
    member of 1's coset fails the coset condition, and build_code refuses
    it naming that coset."""
    field = build_field(m)
    members = coset(1, 3, m).members
    for e in members:
        assert not verify_optimal(field, e).coset_ok
        with pytest.raises(ConjugateExponentError) as exc:
            build_code(field, e)
        assert exc.value.coset == members


@pytest.mark.parametrize("m", range(2, 9))
def test_coset_condition_matches_membership_in_the_coset_of_one(m):
    """Reference: coset() decides membership in the coset of 1 and the
    coset size, which verify_optimal reads off a walk of its own."""
    field = build_field(m)
    n = field.order
    cos_1 = coset(1, 3, m)
    for e in range(1, n):
        expected = e % n not in cos_1.members and coset(e, 3, m).size == m
        assert verify_optimal(field, e).coset_ok == expected, e


def test_small_coset_e_fails_the_coset_condition():
    r = verify_optimal(f4, 10)  # orbit {10, 30} has size 2 < 4
    assert r.verdict == "not_optimal"
    assert not r.coset_ok


def test_json_dict_shape():
    d = verify_optimal(f4, 14).to_json_dict(f4)
    assert list(d.keys()) == [
        "m", "e", "h", "c1", "cosetOk", "gcd", "c2Solutions",
        "c3Solutions", "verdict", "parameters", "modulus",
    ]
    assert d["parameters"] == {"n": 80, "k": 72, "d": 4}
    assert d["c2Solutions"] == ["0,0,0,0"]
    d_bad = verify_optimal(f4, 4).to_json_dict(f4)
    assert d_bad["parameters"] is None


def test_h_derived_only_for_power_of_three_offsets():
    assert verify_optimal(f4, 14).h == 2  # 14 = 3^2 + 5
    assert verify_optimal(build_field(6), 86).h == 4
    assert verify_optimal(f4, 8).h == 1
    assert verify_optimal(f4, 4).h is None
    assert verify_optimal(f5, 122).h is None


def test_table_and_generic_scans_agree_at_m4():
    # every e at m = 1..4; an odd e puts x = -1 into both lists
    for m in range(1, 5):
        field = build_field(m)
        minus_one = field.encode(-field.one)
        for e in range(1, field.order):
            c2, c3 = _solutions_table(field, e)
            assert c2 == tuple(_solutions_generic(field, e, -1)), (m, e)
            assert c3 == tuple(_solutions_generic(field, e, +1)), (m, e)
            assert (minus_one in c2) == (minus_one in c3) == (e % 2 == 1)


def _full_walk(field, e):
    """Both solution lists from a Zech walk over every logarithm i in
    [0, n), the scan before the orbit reduction: the reference the orbit
    scan must reproduce exactly."""
    exp, zech = field.tables()
    n = field.order
    half = n // 2
    emod = e % n
    c2 = [0]
    c3 = []
    if emod * half % n == half:
        c2.append(exp[half])
        c3.append(exp[half])
    ie = 0
    for i in range(n):
        if i != half and ie != half:
            lhs = zech[i] * emod % n
            rhs = zech[ie]
            if lhs == rhs:
                c2.append(exp[i])
            elif lhs == (rhs + half) % n:
                c3.append(exp[i])
        ie = (ie + emod) % n
    return tuple(sorted(c2)), tuple(sorted(c3))


def _even_leaders(m):
    return sorted({coset(e, 3, m).leader for e in range(2, 3**m - 1, 2)})


@pytest.mark.parametrize("m", range(4, 9))
def test_orbit_scan_matches_the_full_walk_on_every_even_leader(m):
    # optimality is a coset invariant ((x+1)^(3e) is the cube of
    # (x+1)^e), so the leaders are every verdict a search can reach
    field = build_field(m)
    for e in _even_leaders(m):
        assert _solutions_table(field, e) == _full_walk(field, e), e


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_orbit_scan_matches_the_full_walk_on_every_exponent(m):
    # odd e put x = -1 into both lists, and e in the coset of 1 makes
    # every x solve condition 2
    field = build_field(m)
    for e in range(1, field.order):
        assert _solutions_table(field, e) == _full_walk(field, e), e
    assert len(_solutions_table(field, 1)[0]) == 3**m


def test_the_full_walk_comparison_meets_the_scan_edge_cases():
    # over m = 2..5 the comparison above reaches, at an even e, a leader i
    # with i*e = n/2 (x^e = -1 while x != -1, where the Zech table reads
    # ZECH_ZERO and the residue test must reject), and a nonzero orbit
    # closed under negation, which e = 1 makes a hit (listed twice, kept
    # once)
    cases = [
        (m, 3**m - 1, i)
        for m in range(2, 6)
        for i, _ in build_field(m).orbit_pairs
    ]
    assert any(i * e % n == n // 2 for m, n, i in cases for e in range(2, n, 2))
    assert any(i and -i % n in coset(i, 3, m).members for m, n, i in cases)


def test_scan_data_is_kept_per_field_not_per_degree():
    # two moduli of degree 5 share n and the orbit leaders, not their Zech
    # tables; scanned alternately, each still matches the generic scan
    a, b = (
        Field(5, modulus=parse_poly(text))
        for text in ("x^5+x^4-x^3+1", "x^5+x^4+x^2+1")
    )
    assert a.orbit_pairs != b.orbit_pairs
    assert [i for i, _ in a.orbit_pairs] == [i for i, _ in b.orbit_pairs]
    for field in (a, b):
        zech = field.tables()[1]
        assert all(z == zech[i] for i, z in field.orbit_pairs)
    for e in (4, 14, 122):
        for field in (a, b, a, b):
            c2, c3 = _solutions_table(field, e)
            assert c2 == tuple(_solutions_generic(field, e, -1)), e
            assert c3 == tuple(_solutions_generic(field, e, +1)), e
    assert _solutions_table(a, 122) != _solutions_table(b, 122)


def test_scan_data_is_freed_with_its_field():
    field = Field(4)
    _solutions_table(field, 14)
    assert "orbit_pairs" in vars(field)
    assert "_tables" in vars(field)
    assert field.tables() is field.tables()
    ref = weakref.ref(field)
    del field
    gc.collect()
    assert ref() is None


def test_verify_optimal_calls_no_coset(monkeypatch):
    # e = 122 at m = 5 has 61 solutions to each equation; their orbits are
    # walked inline, and e's coset facts come from a walk of its own, so
    # coset() is never called
    import cyc3.conditions
    import cyc3.cosets

    calls = []

    def counting_coset(*args):
        calls.append(args)
        return coset(*args)

    monkeypatch.setattr(cyc3.cosets, "coset", counting_coset)
    r = verify_optimal(Field(5), 122)
    assert len(r.c2_solutions) == len(r.c3_solutions) == 61
    assert r.coset_ok
    assert calls == []
    assert not hasattr(cyc3.conditions, "coset")


def test_orbit_scan_matches_the_generic_scan_at_m5_m6():
    # every even leader at m = 5; at m = 6 the oracle costs about 0.15 s
    # per leader, so a seeded sample of three with solutions beyond the
    # forced ones and three without
    cases = [(5, e) for e in _even_leaders(5)]
    field = build_field(6)
    extra = {
        e for e in _even_leaders(6) if sum(map(len, _solutions_table(field, e))) > 2
    }
    rng = random.Random(6)
    cases += [(6, e) for e in rng.sample(sorted(extra), 3)]
    cases += [(6, e) for e in rng.sample(sorted(set(_even_leaders(6)) - extra), 3)]
    for m, e in cases:
        field = build_field(m)
        c2, c3 = _solutions_table(field, e)
        assert c2 == tuple(_solutions_generic(field, e, -1)), (m, e)
        assert c3 == tuple(_solutions_generic(field, e, +1)), (m, e)


@pytest.mark.parametrize("m", range(1, 9))
def test_orbit_leaders_partition_the_logarithms(m):
    # the orbits of the leaders, plus the fixed point n/2, cover Z_n once,
    # and each leader is the least member of its orbit
    n = 3**m - 1
    leaders = [i for i, _ in build_field(m).orbit_pairs]
    covered = [n // 2]
    for i in leaders:
        members = coset(i, 3, m).members
        orbit = set(members) | {-j % n for j in members}
        assert min(orbit) == i
        covered += orbit
    assert sorted(covered) == list(range(n))
    assert leaders == sorted(leaders)
    # independent count: the cyclotomic cosets, each merged with its
    # negation, less the orbit {n/2}
    merged = {
        frozenset(c.members) | frozenset(-j % n for j in c.members)
        for c in cosets_partition(3, m)
    }
    assert len(leaders) == len(merged) - 1


def test_table_and_generic_scans_agree_on_sampled_leaders_at_m7():
    # the table-free oracle costs about a second per leader at m = 7, so
    # it checks two seeded leaders and one of the few (3 of 156) whose
    # equations have solutions beyond the forced ones
    field = build_field(7)
    leaders = sorted({coset(e, 3, 7).leader for e in range(2, field.order, 2)})
    with_extra = [
        e for e in leaders if sum(map(len, _solutions_table(field, e))) > 2
    ]
    rng = random.Random(7)
    for e in rng.sample(leaders, 2) + [rng.choice(with_extra)]:
        c2, c3 = _solutions_table(field, e)
        assert c2 == tuple(_solutions_generic(field, e, -1)), e
        assert c3 == tuple(_solutions_generic(field, e, +1)), e


def test_generic_scan_reads_no_table():
    # the oracle must not share the exp/Zech tables with the scan it
    # checks: on a field whose tables are scrambled it still finds every
    # solution, while the table scan on that field goes wrong
    field = Field(4)
    exp, zech = field.tables()
    n = field.order
    field._tables = (
        exp[1:] + exp[:1],
        array("i", [z if z == ZECH_ZERO else (z + 7) % n for z in zech]),
    )
    exponents = (4, 14, 22)
    assert any(
        _solutions_table(field, e) != _solutions_table(f4, e) for e in exponents
    )
    for e in exponents:
        for sign, check in ((-1, check_c2), (+1, check_c3)):
            assert tuple(_solutions_generic(field, e, sign)) == check(f4, e)


def test_scans_refused_above_the_table_cap(monkeypatch):
    # a family naming an m past the cap is refused before any instance is
    # verified
    import cyc3.conditions

    calls = []
    monkeypatch.setattr(
        cyc3.conditions, "verify_optimal", lambda *a: calls.append(a)
    )
    cap, above = LOG_TABLE_MAX_DEGREE, LOG_TABLE_MAX_DEGREE + 1
    with pytest.raises(ValueError, match=f"m <= {cap}"):
        verify_family("concl-A", [5, above])
    assert calls == []
    monkeypatch.undo()
    with pytest.raises(ValueError, match=f"m <= {cap}; got m={above}"):
        verify_optimal(Field(above), 14)


def test_table_scan_matches_direct_arithmetic_sampled_at_m11():
    # a full generic scan at m = 11 takes minutes, so every solution the
    # table scan reports and a seeded sample of other x are checked by
    # square-and-multiply, without logarithms
    field = build_field(11)
    e = 248
    rng = random.Random(248)
    sample = [Poly([rng.randrange(3) for _ in range(11)]) for _ in range(300)]
    c2, c3 = _solutions_table(field, e)
    assert (c2, c3) == ((field.encode(field.zero),), (field.encode(field.one),))
    for sign, solutions in ((-1, c2), (+1, c3)):

        def solves(x):
            lhs = powmod(x + field.one, e, field.modulus)
            rhs = powmod(x, e, field.modulus) + field.one
            return lhs == (-rhs if sign > 0 else rhs)

        for code in solutions:
            assert solves(field.decode(code))
        for x in sample:
            assert solves(x) == (field.encode(x) in solutions), x


def test_the_exponent_122_counterexample():
    """h = m - 1 slips through the allowed congruences only at m = 5,
    where the exponent degenerates to (3^m + 1)/2 and both condition
    equations pick up 61 solutions."""
    r = verify_optimal(f5, 122)
    assert r.verdict == "not_optimal"
    assert r.c1 and r.coset_ok
    assert len(r.c2_solutions) == 61
    assert len(r.c3_solutions) == 61
    # the scan result is not a table artifact
    assert check_c2(f5, 122) == tuple(_solutions_generic(f5, 122, -1))
    # 2e = n + 2, so x^e = +-x on the two square classes
    assert (2 * 122) % 242 == 2


def test_122_has_a_weight3_codeword():
    w = min_weight_leq3_search(f5, 122)
    assert w.verdict == "found"
    assert w.positions == (0, 2, 170)
    assert w.values == (1, 2, 2)
    spec = build_code(f5, 122)
    word = Poly((1, 0, 2)) + 2 * Poly.x() ** 170
    assert is_codeword(spec, word)


@pytest.mark.parametrize(
    "modulus", ["x^5+x^4-x^3+1", "x^5+x^4+x^2+1", "x^5-x^3+x^2+1"]
)
def test_122_counts_are_representation_independent(modulus):
    field = Field(5, modulus=parse_poly(modulus))
    c2 = _solutions_generic(field, 122, -1)
    c3 = _solutions_generic(field, 122, +1)
    assert len(c2) == 61
    assert len(c3) == 61


def test_conditions_biconditional_with_weight_search_at_m4():
    """Verdict 'optimal' must coincide exactly with the absence of words
    of weight below 4, over every full-size even coset leader."""
    c1_members = set(coset(1, 3, 4).members)
    leaders = sorted(
        {coset(e, 3, 4).leader for e in range(2, 80, 2)} - c1_members
    )
    optimal = []
    for e in leaders:
        verdict = verify_optimal(f4, e).verdict == "optimal"
        clean = min_weight_leq3_search(f4, e).verdict == "no_word_below_4"
        assert verdict == clean, f"disagreement at e={e}"
        if verdict:
            optimal.append(e)
    assert optimal == [2, 14]


@pytest.mark.parametrize(
    "m,leaders,optimal", [(6, 56, 15), (8, 400, 58), (9, 1092, 649)]
)
def test_conditions_biconditional_with_weight_search_on_every_full_size_leader(
    m, leaders, optimal
):
    """The same biconditional over every full-size even coset leader at
    m = 6, 8 and 9."""
    field = build_field(m)
    c1_members = set(coset(1, 3, m).members)
    full = [
        e
        for e in sorted({coset(e, 3, m).leader for e in range(2, field.order, 2)})
        if e not in c1_members and coset(e, 3, m).size == m
    ]
    disagreements = []
    n_optimal = 0
    for e in full:
        verdict = verify_optimal(field, e).verdict == "optimal"
        clean = min_weight_leq3_search(field, e).verdict == "no_word_below_4"
        if verdict != clean:
            disagreements.append(e)
        n_optimal += verdict
    assert disagreements == []
    assert (len(full), n_optimal) == (leaders, optimal)


@pytest.mark.parametrize(
    "m,full_count,sample,optimal",
    [(10, 2928, 120, 44), (11, 8052, 36, 33)],
)
def test_conditions_biconditional_with_weight_search_sampled(
    m, full_count, sample, optimal
):
    """The same biconditional on a seeded sample of the full-size even
    coset leaders at m = 10 and 11: 120 and 36 leaders.  Each sample
    takes under a second."""
    field = build_field(m)
    full = sorted(
        c.leader
        for c in cosets_meeting(range(2, field.order, 2), 3, m)
        if c.size == m
    )
    assert len(full) == full_count
    disagreements = []
    n_optimal = 0
    for e in random.Random(m).sample(full, sample):
        verdict = verify_optimal(field, e).verdict == "optimal"
        clean = min_weight_leq3_search(field, e).verdict == "no_word_below_4"
        if verdict != clean:
            disagreements.append(e)
        n_optimal += verdict
    assert disagreements == []
    assert n_optimal == optimal


@pytest.mark.parametrize(
    "m,refuted,full_count,optimal",
    [
        (4, 4, 8, 2),
        (6, 35, 56, 15),
        (8, 320, 400, 58),
        (9, 336, 1092, 649),
        (10, 1647, 2928, 978),
    ],
)
def test_a_subfield_solution_refutes_optimality(m, refuted, full_count, optimal):
    """The subfield lemma: GF(3^d) lies in GF(3^m) for d | m, and x^e there
    depends only on e mod 3^d - 1, so a solution the scan of GF(3^d) lists
    beyond the forced 0 and 1 solves the same equation in GF(3^m).  Every
    full-size even leader it refutes must be not optimal, and the optimal
    counts at m = 8, 9, 10 are the README's `search` rows."""
    field = build_field(m)
    subfields = [build_field(d) for d in range(2, m) if m % d == 0]
    full = sorted(
        c.leader
        for c in cosets_meeting(range(2, field.order, 2), 3, m)
        if c.size == m
    )
    n_refuted = n_optimal = 0
    for e in full:
        report = verify_optimal(field, e)
        n_optimal += report.verdict == "optimal"
        if any(
            _solutions_table(sub, e) != ((0,), (sub.encode(sub.one),))
            for sub in subfields
        ):
            n_refuted += 1
            assert report.verdict == "not_optimal", e
    assert (n_refuted, len(full), n_optimal) == (refuted, full_count, optimal)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=39).map(lambda i: 2 * i))
def test_optimality_is_a_coset_invariant(e):
    leader = coset(e, 3, 4).leader
    assert (
        verify_optimal(f4, e).verdict == verify_optimal(f4, leader).verdict
    )


@pytest.mark.parametrize("m", [4, 5])
def test_exponent_entry_points_refuse_the_same_way(m):
    field = build_field(m)
    n = field.order
    for e in (0, n):
        messages = set()
        for check in (verify_optimal, build_code, min_weight_leq3_search):
            with pytest.raises(ValueError) as exc:
                check(field, e)
            messages.add(str(exc.value))
        assert messages == {f"e must be in [1, {n - 1}], got {e}"}


def test_gcd_chain():
    # gcd(3^h + 5, 3^m - 1) = 2 forces the full coset size; every
    # open-problem report carries it
    rows = verify_family("open-problem", [4, 6, 8, 10, 12])
    assert [(i.m, i.h, i.e, rep.gcd_value) for i, rep in rows] == [
        (4, 2, 14, 2),
        (6, 4, 86, 2),
        (8, 4, 86, 2),
        (10, 6, 734, 2),
        (12, 6, 734, 2),
    ]


def test_open_problem_exponents():
    assert open_problem_exponent(4) == (2, 14)
    assert open_problem_exponent(6) == (4, 86)
    assert open_problem_exponent(8) == (4, 86)
    assert open_problem_exponent(10) == (6, 734)
    with pytest.raises(ValueError):
        open_problem_exponent(5)


def test_family_a_instances():
    a = [(i.h, i.e) for i in family_instances("concl-A", [5])]
    assert a == [(2, 14), (3, 32)]
    a7 = [(i.h, i.e) for i in family_instances("concl-A", [7])]
    assert a7 == [(3, 32), (4, 86)]


def test_family_b_instances():
    b = [(i.h, i.e) for i in family_instances("concl-B", [5])]
    assert b == [(2, 22), (3, 40)]


def test_family_c_both_readings_enumerated():
    insts = family_instances("concl-C", [5])
    readings = {i.reading for i in insts}
    assert readings == {tag for tag, _ in FAMILY_C_READINGS}
    first = [(i.h, i.e) for i in insts if i.reading == "(3^m-1)/2"]
    second = [(i.h, i.e) for i in insts if i.reading == "(3^(m-1)-1)/2"]
    assert first == [(1, 125), (2, 131), (3, 149), (4, 203)]
    assert second == [(1, 44), (2, 50), (3, 68), (4, 122)]


def test_family_c_first_reading_is_parity_dead():
    # (3^m - 1)/2 is odd, 3^h + 1 is even, so e is odd for every h
    for i in family_instances("concl-C", [5, 7, 11]):
        if i.reading == "(3^m-1)/2":
            assert i.e % 2 == 1


def test_family_c_defect_returns_wherever_5_divides_m():
    # GF(3^5) lies in GF(3^m) when 5 | m, and x^e = x^122 there whenever
    # e = 122 (mod 242), so the 61 solutions of m = 5, e = 122 come back;
    # no field is built
    hits = [
        (i.m, i.h)
        for m in range(5, 121, 2)
        if m % 3 and m % 5 == 0
        for i in family_instances("concl-C", [m])
        if i.reading == "(3^(m-1)-1)/2" and i.e % 242 == 122
    ]
    assert hits == [
        (5, 4), (25, 19), (35, 9), (55, 14), (65, 49), (85, 64), (95, 24), (115, 29)
    ]


def test_conclusion_families_reject_bad_m():
    for name in ("concl-A", "concl-B", "concl-C"):
        with pytest.raises(ValueError):
            family_instances(name, [4])  # even
        with pytest.raises(ValueError):
            family_instances(name, [9])  # divisible by 3
        with pytest.raises(ValueError):
            family_instances(name, [3])


def _parent_family_instances(name, ms):
    # the listing as it stood before family_instances listed one family:
    # all three odd-m families built, then filtered to the named one
    def conclusion_family_instances(m):
        if m % 2 == 0 or m < 5:
            raise ValueError(f"m must be odd and >= 5, got {m}")
        if m % 3 == 0:
            raise ValueError(f"m must be coprime to 3, got {m}")
        out = []
        ab_hs = _congruence_hits(m, (2,))
        for h in ab_hs:
            out.append(FamilyInstance("concl-A", m, h, 3**h + 5))
        for h in ab_hs:
            out.append(FamilyInstance("concl-B", m, h, 3**h + 13))
        c_hs = _congruence_hits(m, (2, 3, 4))
        for tag, const in FAMILY_C_READINGS:
            for h in c_hs:
                out.append(FamilyInstance("concl-C", m, h, const(m) + 3**h + 1, tag))
        return out

    out = []
    for m in ms:
        if name == "open-problem":
            h, e = open_problem_exponent(m)
            out.append(FamilyInstance("open-problem", m, h, e))
        elif name in FAMILIES:
            out.extend(
                inst for inst in conclusion_family_instances(m) if inst.family == name
            )
        else:
            raise ValueError(f"unknown family {name!r}")
    return out


def _listing(lister, name, ms):
    try:
        return lister(name, ms)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("name", FAMILIES + ("concl-Z",))
def test_family_listing_matches_the_filtered_listing(name):
    odd = [m for m in range(5, 32, 2) if m % 3]
    ms_lists = [[m] for m in odd + list(range(4, 31, 2)) + [3, 4, 9]]
    ms_lists += [odd, list(range(4, 31, 2)), [5, 4], [4, 5], [3, 4, 9], []]
    for ms in ms_lists:
        assert _listing(family_instances, name, ms) == _listing(
            _parent_family_instances, name, ms
        ), (name, ms)
    with pytest.raises(ValueError, match="unknown family 'concl-Z'"):
        family_instances("concl-Z", [5])


def test_verify_family_a_and_b_all_optimal():
    for name in ("concl-A", "concl-B"):
        rows = verify_family(name, [5, 7])
        assert len(rows) == 4
        assert all(rep.verdict == "optimal" for _, rep in rows)


def test_verify_family_open_problem():
    rows = verify_family("open-problem", [4, 6])
    assert [(i.m, i.e) for i, _ in rows] == [(4, 14), (6, 86)]
    assert all(rep.verdict == "optimal" for _, rep in rows)


def test_verify_family_refuses_past_the_cap_before_any_table(monkeypatch):
    # m = 4 is in reach and m = 14 is not: the sweep is refused before it
    # builds the tables of either
    built = []
    tables = Field.tables

    def counting_tables(self):
        built.append(self.m)
        return tables(self)

    monkeypatch.setattr(Field, "tables", counting_tables)
    with pytest.raises(ValueError, match="m <= 12; got m=14"):
        verify_family("open-problem", [4, 14])
    assert built == []


def test_verify_family_unknown_name():
    with pytest.raises(ValueError):
        verify_family("concl-Z", [5])


@pytest.mark.parametrize("name", FAMILIES)
def test_family_needs_no_orbit_budget_under_the_table_cap(name):
    # `family` scans every instance of its m-list unbudgeted: an m-list
    # names each m once, so the most it can scan is one copy of every m the
    # table cap admits.  A cap raise that takes that past the budget
    # `search` is held to fails here
    ms = []
    for m in range(1, LOG_TABLE_MAX_DEGREE + 1):
        try:
            family_instances(name, [m])
        except ValueError:
            continue
        ms.append(m)
    instances = family_instances(name, ms)
    points = sum((3**i.m - 1) // (2 * i.m) + 1 for i in instances)
    assert ms and points < MAX_ORBIT_POINTS


@pytest.mark.parametrize("m,count", [(4, 32), (5, 120), (6, 336), (7, 1092)])
def test_built_dimension_matches_the_coset_facts(m, count):
    """verify_optimal takes k = n - 2m from the coset facts alone; the
    generator build_code multiplies out must have that dimension at every
    even e with full-size coset outside the class of 1, and every optimal
    report must certify it."""
    field = build_field(m)
    n = field.order
    checked = 0
    for e in range(2, n, 2):
        report = verify_optimal(field, e)
        if not report.coset_ok:
            continue
        k = build_code(field, e).k
        assert k == n - 2 * m, e
        if report.verdict == "optimal":
            assert report.parameters == (n, k, 4), e
        checked += 1
    assert checked == count
