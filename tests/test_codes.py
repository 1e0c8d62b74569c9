"""Code construction, parity checks, low-weight search, sphere packing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyc3 import codes
from cyc3.codes import (
    ConjugateExponentError,
    build_code,
    hamming_ball,
    is_codeword,
    min_weight_leq3_search,
    sphere_packing_max_d,
    syndrome,
)
from cyc3.conditions import verify_optimal
from cyc3.cosets import coset, cosets_partition, minimal_polynomial
from cyc3.field import LOG_TABLE_MAX_DEGREE, Field, build_field
from cyc3.gf3poly import Poly, powmod

f4 = build_field(4)
f6 = build_field(6)


def test_build_code_80_72():
    spec = build_code(f4, 14)
    assert (spec.n, spec.k) == (80, 72)
    assert spec.generator.degree == 8
    assert spec.generator.format() == "x^8-x^7-x^6+x^5-x^2-1"


def test_generator_divides_group_polynomial():
    for field, e in [(f4, 14), (f4, 2), (f6, 86), (build_field(2), 2)]:
        spec = build_code(field, e)
        group_poly = Poly.x() ** spec.n - Poly.one()
        assert not group_poly % spec.generator


def test_conjugate_exponent_rejected():
    with pytest.raises(ConjugateExponentError) as exc:
        build_code(f4, 9)
    assert exc.value.e == 9
    assert set(exc.value.coset) == {1, 3, 9, 27}
    assert "distinct cosets" in str(exc.value)


@pytest.mark.parametrize("m", range(2, 6))
def test_generator_is_m1_times_me_at_every_exponent(m):
    # the reference is m_1 * m_e built from both cosets; build_code takes
    # m_1 as the modulus and refuses e exactly on the coset of 1
    field = build_field(m)
    m_1 = minimal_polynomial(field, 1)
    for e in range(1, field.order):
        cos_e = coset(e, 3, m)
        if cos_e.leader == 1:
            with pytest.raises(ConjugateExponentError) as exc:
                build_code(field, e)
            assert exc.value.coset == cos_e.members
            continue
        spec = build_code(field, e)
        assert spec.generator == m_1 * minimal_polynomial(field, e)
        assert spec.k == field.order - spec.generator.degree


def test_exponent_range_validation():
    with pytest.raises(ValueError):
        build_code(f4, 0)
    with pytest.raises(ValueError):
        build_code(f4, 80)


def parity_check_columns(field, e):
    """Column j = (alpha^j, alpha^(ej)) for j in [0, n), stepped by
    multiplication from powmod's alpha and alpha^e rather than read from
    the tables: the columns the brute-force oracles below search."""
    mod = field.modulus
    alpha, alpha_e = field.exp_of_generator(1), field.exp_of_generator(e)
    a = b = field.one
    cols = []
    for _ in range(field.order):
        cols.append((a, b))
        a = a * alpha % mod
        b = b * alpha_e % mod
    return cols


def test_parity_check_columns_are_power_pairs():
    cols = parity_check_columns(f4, 14)
    assert len(cols) == 80
    assert cols[0] == (f4.one, f4.one)
    for i in (1, 7, 33):
        alpha_i = powmod(Poly.x(), i, f4.modulus)
        assert cols[i] == (alpha_i, powmod(alpha_i, 14, f4.modulus))


def test_generator_coefficients_have_zero_syndrome():
    spec = build_code(f4, 14)
    positions = [i for i, c in enumerate(spec.generator.coeffs) if c]
    values = [c for c in spec.generator.coeffs if c]
    s1, s2 = syndrome(f4, 14, positions, values)
    assert s1 == f4.zero and s2 == f4.zero


def test_is_codeword():
    spec = build_code(f4, 14)
    assert is_codeword(spec, spec.generator)
    assert is_codeword(spec, Poly.x() * spec.generator)
    assert is_codeword(spec, Poly())
    assert not is_codeword(spec, Poly.one())
    with pytest.raises(ValueError):
        is_codeword(spec, Poly.x() ** 80)


def test_no_light_word_for_the_optimal_exponent():
    w = min_weight_leq3_search(f4, 14)
    assert w.verdict == "no_word_below_4"
    assert w.positions is None


def test_weight3_witness_for_e_4():
    w = min_weight_leq3_search(f4, 4)
    assert w.verdict == "found"
    assert w.positions == (0, 10, 30)
    assert w.values == (1, 2, 2)
    assert w.weight == 3
    s1, s2 = syndrome(f4, 4, w.positions, w.values)
    assert s1 == f4.zero and s2 == f4.zero


def test_witness_that_fails_its_syndrome_is_refused(monkeypatch):
    # the search returns no word it could not confirm
    monkeypatch.setattr(codes, "syndrome", lambda field, *_: (field.one, field.zero))
    with pytest.raises(RuntimeError, match="failed syndrome confirmation"):
        min_weight_leq3_search(build_field(4), 4)


def test_a_non_codeword_fails_its_confirmation():
    # (4, 14) is optimal, so no word of weight 3 lies in the code; the
    # real syndrome, not a stand-in, must refuse this one
    with pytest.raises(RuntimeError, match="failed syndrome confirmation"):
        codes._confirm_witness(build_field(4), 14, (0, 1, 2), (1, 1, 1))


def test_weight2_witness_for_odd_exponent():
    w = min_weight_leq3_search(f4, 7)
    assert w.verdict == "found"
    assert w.weight == 2
    assert w.positions == (0, 40)
    assert w.values == (1, 1)
    s1, s2 = syndrome(f4, 7, w.positions, w.values)
    assert s1 == f4.zero and s2 == f4.zero


@pytest.mark.parametrize("e", [3, 5, 7, 11, 13])
def test_every_odd_exponent_has_a_weight2_word(e):
    # x^(n/2) = -1 makes c_0 = c_{n/2} = 1 a codeword whenever e is odd
    w = min_weight_leq3_search(f4, e)
    assert w.verdict == "found"
    assert w.weight == 2


@pytest.mark.parametrize("m,found", [(4, 19), (5, 27), (6, 112), (7, 159)])
def test_witnesses_are_codewords(m, found):
    # generator divisibility reads no table, so it checks every witness
    # apart from the exp table _confirm_witness and the search both read;
    # every leader outside the class of 1, odd or even
    field = build_field(m)
    n_found = 0
    for c in cosets_partition(3, m)[1:]:
        if c.leader == 1:
            continue
        w = min_weight_leq3_search(field, c.leader)
        if w.verdict != "found":
            continue
        word = Poly()
        for pos, val in zip(w.positions, w.values):
            word = word + val * Poly.x() ** pos
        assert is_codeword(build_code(field, c.leader), word), c.leader
        n_found += 1
    assert n_found == found


@pytest.mark.parametrize("m", range(4, 9))
def test_each_non_forced_solution_is_a_weight_three_codeword(m):
    # the map from the scan's extra solutions to light words, at every
    # full-size even leader: a c2 solution x != 0 gives 1 + x - (x+1) = 0
    # and 1 + x^e - (x+1)^e = 0, so values (1, 1, 2) at (0, log x,
    # log(x+1)); a c3 solution x != 1 gives values (1, 1, 1) at (0, log x,
    # log(-(x+1))), as e is even.  Divisibility rechecks the words where
    # building the codes is cheap
    field = build_field(m)
    exp = field.tables()[0]
    log = {code: i for i, code in enumerate(exp)}
    one = field.one
    n_words = 0
    for c in cosets_partition(3, m)[1:]:
        e = c.leader
        if e % 2 or c.size != m:
            continue
        rep = verify_optimal(field, e)
        cases = [
            (x, field.decode(x) + one, (1, 1, 2)) for x in rep.c2_solutions if x
        ] + [
            (x, -(field.decode(x) + one), (1, 1, 1))
            for x in rep.c3_solutions
            if x != field.encode(one)
        ]
        spec = build_code(field, e) if m <= 6 else None
        for x, third, values in cases:
            positions = (0, log[x], log[field.encode(third)])
            assert len(set(positions)) == 3, (e, positions)
            assert syndrome(field, e, positions, values) == (field.zero,) * 2
            if spec:
                word = sum(
                    (v * Poly.x() ** pos for v, pos in zip(values, positions)),
                    Poly(),
                )
                assert is_codeword(spec, word), (e, positions)
            n_words += 1
    assert n_words == {4: 32, 5: 140, 6: 608, 7: 1120, 8: 4960}[m]


def test_search_size_guard():
    # no Zech tables beyond the cap, so the search refuses up front
    with pytest.raises(ValueError) as exc:
        min_weight_leq3_search(build_field(LOG_TABLE_MAX_DEGREE + 1), 14)
    assert f"m <= {LOG_TABLE_MAX_DEGREE}" in str(exc.value)


def test_syndrome_above_the_table_cap_is_refused_building_nothing():
    # syndrome reads the exp table, which exists only up to the cap
    field = Field(LOG_TABLE_MAX_DEGREE + 1)
    with pytest.raises(ValueError) as exc:
        syndrome(field, 4, (0,), (1,))
    assert f"m <= {LOG_TABLE_MAX_DEGREE}" in str(exc.value)
    assert "_tables" not in vars(field)
    assert "_halves" not in vars(field)


@pytest.mark.parametrize("m", range(3, 9))
def test_syndrome_matches_a_table_free_sum(m):
    # seeded random sparse words against sum(val * alpha^pos) and the sum
    # at e*pos, each power by powmod; values outside {0, 1, 2} and
    # positions at or above n exercise the reductions mod 3 and mod n
    field = build_field(m)
    n, alpha, mod = field.order, Poly.x(), field.modulus
    rng = random.Random(m)
    nonzero = 0
    for _ in range(300):
        e = rng.randrange(1, n)
        size = rng.randrange(1, 6)
        positions = [rng.randrange(2 * n) for _ in range(size)]
        values = [rng.choice((-1, 0, 1, 2, 3, 4)) for _ in range(size)]
        s1 = sum(
            (v * powmod(alpha, p, mod) for p, v in zip(positions, values)), Poly()
        )
        s2 = sum(
            (v * powmod(alpha, e * p, mod) for p, v in zip(positions, values)),
            Poly(),
        )
        assert syndrome(field, e, positions, values) == (s1, s2), (e, positions)
        nonzero += bool(s1 or s2)
    assert nonzero >= 200


def test_table_free_routes_ignore_the_tables():
    # with a corrupted exp table in place, alpha^i, the minimal polynomials,
    # the generator and the parity-check columns match a field that never
    # built tables: none of them reads the tables
    field, fresh = Field(5), Field(5)
    exp, zech = field.tables()
    field._tables = (exp[1:] + exp[:1], zech)
    for i in (1, 7, 100):
        assert field.exp_of_generator(i) == fresh.exp_of_generator(i)
    for i in (1, 7, 14):
        assert minimal_polynomial(field, i) == minimal_polynomial(fresh, i)
    assert build_code(field, 14).generator == build_code(fresh, 14).generator
    assert parity_check_columns(field, 14)[:20] == parity_check_columns(fresh, 14)[:20]
    assert "_tables" not in vars(fresh)


def _brute_force_light_word(field, e):
    """First word of weight 2 or 3, by enumeration of every position set.

    Independent of the search under test: no Zech logarithms and no
    cyclic-shift reduction.  Columns come from plain field arithmetic;
    pairs are tried in (i, j, scalar) order, then triples i < j < k in
    (i, j, lam1, lam2) order for the word lam1*col_i + lam2*col_j + col_k,
    reported scaled so its first value is 1 (as the search reports it).
    """
    n = field.order
    cols = parity_check_columns(field, e)
    scaled = {lam: [(a * lam, b * lam) for a, b in cols] for lam in (1, 2)}

    def add(u, v):
        return u[0] + v[0], u[1] + v[1]

    zero = (field.zero, field.zero)
    for i in range(n):
        for j in range(i + 1, n):
            for lam in (1, 2):
                if add(cols[i], scaled[lam][j]) == zero:
                    return "found", (i, j), (1, lam)
    for i in range(n):
        for j in range(i + 1, n):
            for lam1 in (1, 2):
                for lam2 in (1, 2):
                    # col_k must equal -(lam1*col_i + lam2*col_j)
                    target = add(scaled[lam1][i], scaled[lam2][j])
                    target = (-target[0], -target[1])
                    for k in range(j + 1, n):
                        if cols[k] == target:
                            positions = (i, j, k)
                            values = (1, lam1 * lam2 % 3, lam1)
                            return "found", positions, values
    return "no_word_below_4", None, None


def _weight3_supports(field, e):
    """The position sets {i, j, k} of every codeword of weight 3."""
    cols = parity_check_columns(field, e)
    # a column and its negative both lead to k: the third scalar is free
    # (for odd e, col_k and -col_k are both columns, n/2 apart)
    index = {}
    for k, (a, b) in enumerate(cols):
        index.setdefault((a, b), []).append(k)
        index.setdefault((-a, -b), []).append(k)
    scaled = [[(a * lam, b * lam) for a, b in cols] for lam in (1, 2)]
    n = field.order
    supports = set()
    for i in range(n):
        a, b = cols[i]
        for j in range(i + 1, n):
            for c, d in (scaled[0][j], scaled[1][j]):
                for k in index.get((a + c, b + d), ()):
                    if k not in (i, j):
                        supports.add(tuple(sorted((i, j, k))))
    return supports


@pytest.mark.parametrize("m", [3, 4])
def test_search_matches_brute_force_over_all_triples(m):
    # the search scans only the row i = 0 and j <= n // 3; the full
    # enumeration must agree on the verdict and on the first witness for
    # every non-conjugate exponent
    field = build_field(m)
    n = field.order
    conjugates = set(coset(1, 3, m).members)
    clean = 0
    for e in range(1, field.order):
        if e in conjugates:
            continue
        w = min_weight_leq3_search(field, e)
        assert (w.verdict, w.positions, w.values) == _brute_force_light_word(
            field, e
        ), f"e={e}"
        # the j <= n // 3 bound: rotating the nonzero before a word's
        # smallest gap to position 0 gives a weight-3 word the scan can
        # meet, with its second nonzero at j <= n // 3
        supports = _weight3_supports(field, e)
        for p, q, r in supports:
            start = min((q - p, p), (r - q, q), (n - r + p, r))[1]
            rotated = tuple(sorted((x - start) % n for x in (p, q, r)))
            assert rotated in supports, (e, p, q, r)
            assert rotated[0] == 0 and rotated[1] <= n // 3, (e, p, q, r)
        if w.positions is not None:
            s1, s2 = syndrome(field, e, w.positions, w.values)
            assert s1 == field.zero and s2 == field.zero
        clean += w.verdict == "no_word_below_4"
    assert clean > 0  # the full scans are exercised, not only early exits


def _unfiltered_search(field, e):
    """The weight search without its residue filter: the four-pair block
    runs at every j <= n // 3.  Reference for the filtered search."""
    n = field.order
    _, zech = field.tables()
    half = n // 2
    emod = e % n
    if emod * half % n == half:
        return "found", (0, half), (1, 1)
    ej = 0
    for j in range(1, n // 3 + 1):
        ej = (ej + emod) % n
        same, other = zech[j], zech[j + half]
        for o1, o2, z1 in (
            (0, 0, same), (0, half, other), (half, 0, other), (half, half, same)
        ):
            k = (o1 + z1 + half) % n
            if k <= j:
                continue
            d2 = (ej + o2 - o1) % n
            if d2 == half:
                continue
            if k * emod % n == (o1 + zech[d2] + half) % n:
                lam1 = 1 if o1 == 0 else 2
                lam2 = 1 if o2 == 0 else 2
                return "found", (0, j, k), (1, lam1 * lam2 % 3, lam1)
    return "no_word_below_4", None, None


def test_residue_filter_keeps_every_verdict_and_first_witness():
    # every exponent at m = 2..6, a seeded sample at m = 7..9; the filter
    # may only skip j that the four-pair block would reject
    cases = [(m, range(1, build_field(m).order)) for m in range(2, 7)]
    for m, size in ((7, 400), (8, 150), (9, 40)):
        exponents = range(1, build_field(m).order)
        cases.append((m, random.Random(m).sample(exponents, size)))
    patterns = set()
    for m, exponents in cases:
        field = build_field(m)
        for e in exponents:
            w = min_weight_leq3_search(field, e)
            assert (w.verdict, w.positions, w.values) == _unfiltered_search(
                field, e
            ), (m, e)
            patterns.add(w.values)
    # first witnesses of all four scalar pairs (lam1, lam2) are covered
    assert {(1, 1, 1), (1, 2, 1), (1, 2, 2), (1, 1, 2)} <= patterns


@pytest.mark.parametrize("m", range(2, 8))
def test_first_weight3_witness_sits_at_an_orbit_leader(m):
    # the lemma behind the search's walk over orbit leaders, checked on the
    # full-range reference with orbits computed here, not read from
    # Field.orbit_pairs: the first hit's j is at most n // 4 and the least
    # of {+-j*3^t mod n}; and the search, which tests the leaders alone,
    # returns the reference's verdict and first witness at every exponent
    field = build_field(m)
    n = field.order
    weight3 = 0
    for e in range(1, n):
        w = min_weight_leq3_search(field, e)
        reference = _unfiltered_search(field, e)
        assert (w.verdict, w.positions, w.values) == reference, e
        positions = reference[1]
        if positions is None or len(positions) != 3:
            continue
        j = positions[1]
        orbit = {s * j * 3**t % n for t in range(m) for s in (1, -1)}
        assert j <= n // 4 and j == min(orbit), (e, positions)
        weight3 += 1
    assert weight3  # every m here has a weight-3 first witness


def test_hamming_ball_values():
    assert hamming_ball(80, 0, 3) == 1
    assert hamming_ball(80, 1, 3) == 161
    assert hamming_ball(80, 2, 3) == 12801
    assert hamming_ball(4, 4, 3) == 81


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=39))
def test_hamming_ball_monotone_in_radius(n, t):
    if t + 1 > n:
        return
    assert hamming_ball(n, t, 3) < hamming_ball(n, t + 1, 3)


@pytest.mark.parametrize(
    "n,k",
    [(80, 72), (728, 716), (6560, 6544), (59048, 59028)],
)
def test_sphere_packing_caps_distance_at_4(n, k):
    assert sphere_packing_max_d(n, k, 3) == 4


def test_sphere_packing_perfect_code_edge():
    # ternary [13, 10] fills space exactly with radius-1 balls
    assert 3 ** 10 * hamming_ball(13, 1, 3) == 3 ** 13
    assert sphere_packing_max_d(13, 10, 3) == 4


def test_sphere_packing_validation():
    with pytest.raises(ValueError):
        sphere_packing_max_d(10, 11, 3)
    with pytest.raises(ValueError):
        sphere_packing_max_d(0, 0, 3)


@settings(max_examples=20)
@given(st.integers(min_value=2, max_value=78).filter(lambda e: e % 2 == 0))
def test_search_verdicts_match_syndrome_recheck(e):
    # whatever the scan reports, the witness itself must satisfy both
    # parity equations; absence claims are covered elsewhere by the
    # condition-based cross-check
    w = min_weight_leq3_search(f4, e)
    if w.verdict == "found":
        s1, s2 = syndrome(f4, e, w.positions, w.values)
        assert s1 == f4.zero and s2 == f4.zero
        assert 2 <= w.weight <= 3
