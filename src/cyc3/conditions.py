"""Optimality certification for the two-nonzero ternary codes.

The decision procedure evaluates, for a given (m, e):

  1. e is even;
  2. the coset facts: e is not conjugate to 1, and its coset has the full
     size m.  verify_optimal reads both off one walk c -> 3c mod n over
     e's coset, which has no size limit; the tests hold it to
     cosets.coset(), the reference route.  They give k = n - 2m with no
     polynomial built:
     minimal_polynomial is a product of one linear factor per conjugate,
     which it finds by cubing in the field rather than from coset(), so a
     full coset gives deg m_1 m_e = 2m by a route apart.  The test
     test_built_dimension_matches_the_coset_facts holds build_code to it;
  3. (x+1)^e - x^e - 1 = 0 has 0 as its only solution in GF(3^m);
  4. (x+1)^e + x^e + 1 = 0 has 1 as its only solution.

The verdict is optimal exactly when all four hold; the certified parameters
are then [3^m-1, 3^m-1-2m, 4].  Conditions 3 and 4 are decided by a scan
of the field, not by the algebraic reductions verified in the identities
module.  Those reductions are the paper's proof, and only for the exponents
e = 3^h + 5; the scan checks the proof's conclusion for any e, so it must
not lean on it, and keeping the two routes independent is what makes their
agreement meaningful.  The scan uses only two symmetries that hold for
every e:

  * Both equations have coefficients in GF(3), so cubing, the Frobenius
    map, sends a solution to a solution.
  * Substituting 1/x for a nonzero x multiplies each left-hand side by
    x^(-e): (1/x + 1)^e - (1/x)^e - 1 = x^(-e) * ((x + 1)^e - 1 - x^e),
    and the same holds with both minus signs made plus.  So the inverse
    of a nonzero solution is a solution.

With x = alpha^i these maps are i -> 3i and i -> -i, so each solution set
is a union of orbits of the group <3, -1> acting on Z_n (n = 3^m - 1) by
multiplication.  The scan tests one point per orbit, its least logarithm,
and lists the whole orbit of every hit: about n / (2m) points instead of
n.  x = 0, which has no logarithm, and x = -1, where x + 1 vanishes
(i = n/2, an orbit of its own), are decided apart.

One residue test of Zech logarithms decides both equations at each point.
At x = alpha^i let (x+1)^e = alpha^lhs and x^e + 1 = alpha^rhs, with lhs
and rhs in [0, n).  Since -1 = alpha^(n/2), the first equation holds when
lhs = rhs and the second when lhs = rhs + n/2 mod n.  As |lhs - rhs| < n,
both come down to one test, n/2 | lhs - rhs: a difference of 0 solves the
first, one of +-n/2 the second.  Where x^e = -1, x^e + 1 has no logarithm
and neither equation holds; the test rejects those points by itself
(proof at the test in _solutions_table).  One walk over Z_n per Field
lists the (i, zech[i]) pairs of the orbit leaders; Field.orbit_pairs holds
them.
A hit's orbit is listed by walking j -> 3j mod n from its leader and
taking the codes exp[j] and exp[-j] at each step; an orbit closed under
negation comes out twice, and one set over each list drops the repeats.
The lists stay ascending element codes through the report to its text;
the table-free oracle _solutions_generic decodes each code for its
arithmetic and returns codes too.

The module also generates the exponent families under study: e = 3^h + 5
with h tied to m/2, and, for odd m coprime to 3, three families tied to the
congruences 2h (or 3h, 4h) = +-1 mod m.  The third family's constant term is
ambiguous in its source (the printed expression is not an integer), so BOTH
candidate readings are generated and tagged rather than silently picking
one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .cosets import cosets_meeting
from .field import Field, build_field
from .gf3poly import powmod

# the most orbit points one `search` run may test, read by verify_search
# at call time.  On a 2-core host the whole group at m = 10 (8.9 M points)
# took 1.9-3.0 s, at m = 11 (65 M) 14.5-19.8 s, and 137 M points at
# m = 12 took 49 s; 20 M keeps a run well inside the 20 s budget with room
# for the host's drift.  `family` needs no budget: its m-list names each m
# once, and the largest list the table cap admits tests 98,092 points
MAX_ORBIT_POINTS = 20_000_000

# the keys of a parameters object {n, k, d}, in print order: the JSON
# object and csv-row's cells, empty for a null one, both read them
PARAMETER_KEYS = ("n", "k", "d")

# the exponent families `family_instances` lists, in CLI order
FAMILIES = ("open-problem", "concl-A", "concl-B", "concl-C")

# Readings of the ambiguous constant in family C, as (tag, value-for-m).
FAMILY_C_READINGS = (
    ("(3^m-1)/2", lambda m: (3**m - 1) // 2),
    ("(3^(m-1)-1)/2", lambda m: (3 ** (m - 1) - 1) // 2),
)


class ConditionReport(NamedTuple):
    """One (m, e) certification.  It carries no modulus: to_json_dict and
    the CLI text read it from the Field the report was computed over."""

    m: int
    e: int
    h: int | None
    c1: bool
    coset_ok: bool
    gcd_value: int
    c2_solutions: tuple[int, ...]  # element codes, ascending
    c3_solutions: tuple[int, ...]
    verdict: str  # "optimal" or "not_optimal"
    parameters: tuple[int, int, int] | None

    @property
    def parameters_json(self) -> dict[str, int] | None:
        """The parameters as the JSON object {n, k, d}, or None: the one
        layout to_json_dict and `search`'s optimal entries both print."""
        return self.parameters and dict(zip(PARAMETER_KEYS, self.parameters))

    def to_json_dict(self, field: Field) -> dict:
        return {
            "m": self.m,
            "e": self.e,
            "h": self.h,
            "c1": self.c1,
            "cosetOk": self.coset_ok,
            "gcd": self.gcd_value,
            "c2Solutions": [field.format_element(x) for x in self.c2_solutions],
            "c3Solutions": [field.format_element(x) for x in self.c3_solutions],
            "verdict": self.verdict,
            "parameters": self.parameters_json,
            "modulus": field.modulus.format(),
        }


def _solutions_table(field: Field, e: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The codes of the solutions of (x+1)^e - x^e - 1 = 0 and of
    (x+1)^e + x^e + 1 = 0 via Zech logarithms, each ascending, from one
    walk over the orbit leaders of <3, -1>; every hit stands for its whole
    orbit."""
    pairs = field.orbit_pairs
    exp, zech = field.tables()
    n = field.order
    half = n // 2
    c2 = [0]  # x = 0: (0+1)^e - 0 - 1 = 0 always
    c3 = []
    # x = -1 solves both iff e is odd: 0 +- ((-1)^e + 1)
    if e % 2:
        c2.append(exp[half])
        c3.append(exp[half])
    for i, zi in pairs:
        # (x+1)^e = alpha^lhs, lhs = zi * e mod n; x^e + 1 = alpha^rhs with
        # rhs = zech[i * e % n]; -1 = alpha^half.  diff = lhs - rhs mod n,
        # and |lhs - rhs| < n, so half | diff leaves lhs - rhs = 0, a c2
        # hit, or +-half, a c3 hit.  Where x^e = -1 (i * e = half mod n) no
        # equation holds and rhs reads ZECH_ZERO = -1; half | diff would
        # then need zi * e = -1 mod half, so e prime to half, and
        # i * e = half = 0 mod half would put i at 0 or half, where
        # i * e = 0 mod n or i is no leader: no skip is needed
        diff = zi * e - zech[i * e % n]
        if diff % half:
            continue
        hits = c3 if diff % n else c2
        j = i
        while True:  # the orbit of i: its coset and the negation of it
            hits.append(exp[j])
            hits.append(exp[-j])
            j = j * 3 % n
            if j == i:
                break
    # an orbit closed under negation lists twice
    return tuple(sorted(set(c2))), tuple(sorted(set(c3)))


def _solutions_generic(field: Field, e: int, sign: int) -> list[int]:
    """Same solution codes by square-and-multiply on every element: of
    condition 2 for sign -1, of condition 3 for sign +1.  It reads no exp
    or Zech table, so tests use it as an independent oracle for the table
    scan; it is far too slow to decide verdicts.  It takes one equation
    per call, by `sign`, because perfbench/make_reference.py passes it;
    returning both lists, as _solutions_table does, goes with the next
    change to the benchmark harness."""
    one, modulus = field.one, field.modulus
    sols = []
    for code, x in enumerate(field.elements()):
        lhs = powmod(x + one, e, modulus)
        rhs = powmod(x, e, modulus) + one
        if lhs == (-rhs if sign > 0 else rhs):
            sols.append(code)
    return sols


def check_c2(field: Field, e: int) -> tuple[int, ...]:
    """The codes of all x with (x+1)^e - x^e - 1 = 0, ascending.  No
    verdict reads it (verify_optimal scans both equations at once); it
    stays while perfbench/tracer.py wraps it by name, and goes with the
    next change to the benchmark harness."""
    return _solutions_table(field, e)[0]


def check_c3(field: Field, e: int) -> tuple[int, ...]:
    """The codes of all x with (x+1)^e + x^e + 1 = 0, ascending; kept,
    like check_c2, while perfbench/tracer.py wraps it by name."""
    return _solutions_table(field, e)[1]


def open_problem_exponent(m: int) -> tuple[int, int]:
    """(h, e) with e = 3^h + 5 for even m: h = m/2 or (m+2)/2 by m mod 4."""
    if m % 2 != 0 or m < 4:
        raise ValueError(f"m must be even and >= 4, got {m}")
    h = m // 2 if m % 4 == 0 else (m + 2) // 2
    return h, 3**h + 5


def _derive_h(e: int) -> int | None:
    # recover h when e = 3^h + 5; reports leave h blank otherwise
    t = e - 5
    if t < 1:
        return None
    h = 0
    while t % 3 == 0:
        t //= 3
        h += 1
    return h if t == 1 else None


def verify_optimal(field: Field, e: int, h: int | None = None) -> ConditionReport:
    """Full certification of one (m, e); never raises on a failing
    condition, that is what the verdict is for.  An m without Zech tables
    is refused (ValueError) by the scan's field.tables()."""
    field.check_exponent(e)
    m, n = field.m, field.order
    c1 = e % 2 == 0
    # the coset facts from one walk c -> 3c mod n over e's coset: e is
    # conjugate to 1 when the walk meets 1, and the coset is full when the
    # walk takes m steps to return
    c, size, meets_one = e, 1, e == 1
    while (c := c * 3 % n) != e:
        size += 1
        meets_one = meets_one or c == 1
    coset_ok = size == m and not meets_one
    c2, c3 = _solutions_table(field, e)
    # 3^(m-1) is the code of 1: its constant digit is the most significant
    optimal = c1 and coset_ok and c2 == (0,) and c3 == (3 ** (m - 1),)
    return ConditionReport(
        m,
        e,
        h if h is not None else _derive_h(e),
        c1,
        coset_ok,
        math.gcd(e, n),
        c2,
        c3,
        "optimal" if optimal else "not_optimal",
        (n, n - 2 * m, 4) if optimal else None,
    )


class FamilyInstance(NamedTuple):
    family: str  # one of FAMILIES
    m: int
    h: int
    e: int
    reading: str | None = None  # family C only: which constant was used


def _congruence_hits(m: int, multipliers: tuple[int, ...]) -> list[int]:
    # h in [0, m) with c*h = +-1 mod m for some listed multiplier c
    targets = {1 % m, (m - 1) % m}
    return [
        h
        for h in range(m)
        if any(c * h % m in targets for c in multipliers)
    ]


def family_instances(name: str, ms: list[int]) -> list[FamilyInstance]:
    """The named family's instances over ms, in order.  open-problem takes
    even m >= 4; the three others take odd m >= 5 coprime to 3, with every
    qualifying h in [0, m), and family C lists each reading of its
    ambiguous constant in turn."""
    out = []
    for m in ms:
        if name == "open-problem":
            out.append(FamilyInstance(name, m, *open_problem_exponent(m)))
            continue
        if name not in FAMILIES:
            raise ValueError(f"unknown family {name!r}")
        if m % 2 == 0 or m < 5:
            raise ValueError(f"m must be odd and >= 5, got {m}")
        if m % 3 == 0:
            raise ValueError(f"m must be coprime to 3, got {m}")
        if name == "concl-C":
            c_hs = _congruence_hits(m, (2, 3, 4))
            out.extend(
                FamilyInstance(name, m, h, const(m) + 3**h + 1, tag)
                for tag, const in FAMILY_C_READINGS
                for h in c_hs
            )
        else:
            c = 5 if name == "concl-A" else 13
            out.extend(
                FamilyInstance(name, m, h, 3**h + c)
                for h in _congruence_hits(m, (2,))
            )
    return out


def verify_family(
    name: str, ms: list[int]
) -> list[tuple[FamilyInstance, ConditionReport]]:
    """verify_optimal over the instances of a family, in list order.  An m
    without tables is refused before any table is built or instance
    listed, whose 3^h never ends for an m far past the cap.  No budget is
    needed: the CLI's m-list names each m once, so every instance is
    distinct, and the largest list the cap admits (concl-C over 5, 7, 11)
    tests 98,092 orbit points."""
    for m in ms:
        build_field(m).check_tables()
    instances = family_instances(name, ms)
    return [(i, verify_optimal(build_field(i.m), i.e, i.h)) for i in instances]


def verify_search(field: Field, lo: int, hi: int) -> list[ConditionReport]:
    """verify_optimal on the leader of every exponent class that meets the
    even e in [lo, hi], in ascending leader order.  An m without tables is
    refused before the class walk marks n exponents.  Every class counts
    (3^m - 1) // (2m) + 1 orbit points, about one per orbit of <3, -1>, and
    a list past MAX_ORBIT_POINTS is refused before any table is built;
    each listed class is then scanned once, so the count is the work that
    runs."""
    field.check_tables()
    # no even e is conjugate to 1: n is even, so e's coset holds only even
    # numbers
    evens = range(lo + lo % 2, hi + 1, 2)
    leaders = sorted(cos.leader for cos in cosets_meeting(evens, 3, field.m))
    points = len(leaders) * (field.order // (2 * field.m) + 1)
    if points > MAX_ORBIT_POINTS:
        raise ValueError(
            f"search over e in [{lo}, {hi}] at m={field.m} would test {points:,} "
            f"orbit points over {len(leaders):,} exponent classes, past the "
            f"budget of {MAX_ORBIT_POINTS:,}; give a narrower --e-range A..B"
        )
    return [verify_optimal(field, e) for e in leaders]
