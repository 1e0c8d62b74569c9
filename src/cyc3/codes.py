"""Ternary cyclic codes with two nonzeros, their parity-check structure, a
brute-force oracle for words of weight below 4, and the sphere-packing bound.

The code for exponent e has length n = 3^m - 1 and generator polynomial
m_1(x) * m_e(x), the product of the minimal polynomials of the generator and
its e-th power.  The generator alpha is the class of x, so m_1 is the field's
modulus, and e is conjugate to 1 exactly when m_e is the modulus too.  A
word (c_0, ..., c_{n-1}) belongs to the code iff both syndrome sums vanish:
sum c_j alpha^j = 0 and sum c_j alpha^(ej) = 0; the pairs (alpha^j,
alpha^(ej)) are the parity-check columns.

The weight oracle is deliberately independent of the optimality conditions
checked elsewhere: it decides "is there a codeword of weight 1, 2, or 3" by
direct search over columns, so the two routes can be played against each
other.  Weight 1 is impossible (no column is zero).  Weight 2 reduces to a
column being a base-field multiple of another, which pins the position gap
to n/2.  Weight 3 needs only the pairs (0, j) with j an orbit leader of
<3, -1> on Z_n, by the lemma below, so the scan tests about n/(2m)
points.  For each j it solves for the unique candidate third
column and accepts only hits with index k > j, with the third scalar
normalized to 1; the candidate lookup runs in Zech-logarithm space, and a
hit is confirmed by its syndrome, summed on the bit planes of powers read
off the exp table, never the Zech table.

The lemma.  Let D be the set of x for which some weight-3 word has
support {0, x, y}.
  - D is closed under x -> 3x: the permutation i -> 3i mod n keeps the
    code, because sum c_i alpha^(3i) = (sum c_i alpha^i)^3 for GF(3)
    coefficients c_i, and likewise for the second syndrome.
  - D is closed under x -> -x: shifting {0, x, y} by -x gives a word with
    support {-x, 0, y - x}.
  - So D is a union of orbits of <3, -1>, and mu = min D is the least
    member of its orbit, an orbit leader.  mu is not n/2: its partner y
    lies in D too and differs from mu, so by closure under negation D has
    a member below n/2.  mu is not 0 either, as 0 is the support's first
    position.  So mu is one of the field's nonzero orbit leaders.
  - As y lies in D, y > mu: a scan over every j meets its first hit at
    j = mu, and a walk over the leaders runs the same four-pair block at
    the same j, so it returns the same first witness.
The leaders are those of Field.orbit_pairs, the list the condition scan
walks, listed by the same walk (Field._leaders) in Field.leader_triples:
the nonzero ones, in the same order, each with both Zech logarithms the
scan needs.  Both scans read the same Zech table, and the oracle takes
nothing else from the condition scan.

Before that lookup a residue filter skips most j.  Past the weight-2 test
e is even, so (n/2)*e = 0 (mod n); reducing the second-coordinate equation
mod n/2 then removes the scalars' logarithms (0 or n/2), and a hit at
scalars (1, 1) or (2, 2) needs zech[j]*e = zech[ej] (mod n/2), one at (1, 2)
or (2, 1) needs zech[j + n/2]*e = zech[ej + n/2] (mod n/2), with ej = j*e
mod n.  A j failing both has no hit; one passing either goes on to the
exact four-pair test, which alone decides a hit, so the filter changes no
verdict and no witness.  It is derived from the column equations, not from
the optimality conditions, so the search stays an independent route.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .cosets import coset, minimal_polynomial
from .field import Field
from .gf3poly import Poly, _add, _poly


class ConjugateExponentError(ValueError):
    """The two nonzeros would be conjugate (e lies in the coset of 1)."""

    def __init__(self, e: int, members: tuple[int, ...]):
        super().__init__(
            f"e={e} is a power-of-3 multiple of 1 mod the group order "
            f"(coset {{{', '.join(map(str, members))}}}); the two nonzeros "
            f"must come from distinct cosets"
        )
        self.e = e
        self.coset = members


class CodeSpec(NamedTuple):
    m: int
    e: int
    n: int
    generator: Poly
    k: int


def build_code(field: Field, e: int) -> CodeSpec:
    """The code with nonzeros alpha and alpha^e; rejects conjugate e."""
    field.check_exponent(e)
    n = field.order
    m_e = minimal_polynomial(field, e)
    if m_e == field.modulus:  # alpha^e is a conjugate of alpha
        raise ConjugateExponentError(e, coset(e, 3, field.m).members)
    gen = field.modulus * m_e
    return CodeSpec(field.m, e, n, gen, n - gen.degree)


def syndrome(field: Field, e: int, positions, values) -> tuple[Poly, Poly]:
    """The two syndrome sums of a sparse word given as positions/values.

    The powers are read off the exp table, not the Zech table the weight
    search solves with; an m without tables is refused (ValueError) by
    field.tables() before anything else is built.  Each power's bit planes
    (Field.planes) are added straight into the sums, the planes swapped to
    negate it where the value is 2 mod 3, and a Poly is built only for each
    result."""
    exp, n = field.tables()[0], field.order
    planes = field.planes
    s1 = s2 = t1 = t2 = 0
    for pos, val in zip(positions, values):
        val %= 3
        if not val:
            continue
        a1, a2 = planes(exp[pos % n])
        b1, b2 = planes(exp[e * pos % n])
        if val == 2:
            a1, a2, b1, b2 = a2, a1, b2, b1
        s1, s2 = _add(s1, s2, a1, a2)
        t1, t2 = _add(t1, t2, b1, b2)
    return _poly(s1, s2), _poly(t1, t2)


class WeightWitness(NamedTuple):
    verdict: str  # "no_word_below_4" or "found"
    positions: tuple[int, ...] | None = None
    values: tuple[int, ...] | None = None

    @property
    def weight(self) -> int | None:
        return len(self.positions) if self.positions is not None else None


# every clean search returns this one immutable witness
_NO_WORD_BELOW_4 = WeightWitness("no_word_below_4")


def _confirm_witness(field: Field, e: int, positions, values) -> None:
    s1, s2 = syndrome(field, e, positions, values)
    if s1 or s2:
        raise RuntimeError(
            f"witness {positions}/{values} failed syndrome confirmation"
        )


def min_weight_leq3_search(field: Field, e: int) -> WeightWitness:
    """Search for a codeword of weight 1, 2, or 3.

    Returns the first witness in scan order (j, scalar pair), scaled so
    its first value is 1, or the verdict no_word_below_4.  Every witness
    starts at position 0: the code is cyclic, so a word of weight 2 or 3
    has a cyclic shift that is nonzero at position 0, and scanning the
    pairs (0, j) covers all of them.  The weight-3 scan walks only the
    orbit leaders, read through Field.leader_triples; by the module's
    lemma its first witness is the one a scan over every j finds.  An m
    without Zech tables is refused (ValueError) by field.tables().

    The filter, per scalar pair (lam1, lam2) = (alpha^o1, alpha^o2) with
    o1, o2 in {0, h}, h = n/2 and e even, so that h*e = 0 (mod n): the hit
    test is k*e = o1 + zech[d2] + h (mod n) with k = o1 + z + h and
    d2 = ej + o2 - o1, and mod h both sides lose o1 and h, leaving
    z*e = zech[d2] (mod h).
      (1, 1): z = zech[j],     d2 = ej;       zech[j]*e = zech[ej].
      (2, 2): z = zech[j],     d2 = ej;       the same test.
      (1, 2): z = zech[j + h], d2 = ej + h;   zech[j + h]*e = zech[ej + h].
      (2, 1): z = zech[j + h], d2 = ej - h;   the same test, as ej - h and
              ej + h agree mod n.
    """
    field.check_exponent(e)
    n = field.order
    _, zech = field.tables()
    half = n // 2

    # Weight 1: a single scaled column is never zero, so nothing to scan.

    # Weight 2: lam1*col_i + lam2*col_j = 0 forces (first coordinates)
    # alpha^(j-i) = -lam1/lam2, a base-field value, so j = i + n/2 and
    # lam1 = lam2; the second coordinates then need alpha^(e*n/2) = -1,
    # that is (-1)^e = -1: e is odd.
    if e % 2:
        positions, values = (0, half), (1, 1)
        _confirm_witness(field, e, positions, values)
        return WeightWitness("found", positions, values)

    # Weight 3: for each j > 0 and scalars (lam1, lam2), the third column
    # is determined: col_k = -(lam1*col_0 + lam2*col_j), third scalar
    # normalized to 1.  Solve for k from the first coordinates via Zech
    # logs, then accept iff the second coordinates agree and k > j.
    #
    # Only the orbit leaders need testing (the module's lemma).
    # leader_triples lists the nonzero ones ascending, each with both
    # logarithms the first coordinates need: that of j + o2 - o1, which is
    # j when lam1 = lam2 and j + n/2 otherwise.  As 0 < j <= n/4 (the
    # leader bound on Field._leaders), neither is n/2, so the first
    # coordinates never cancel.
    #
    # Past the weight-2 test e is even, so half*e = 0 (mod n) and the
    # residue filter of the docstring holds; zech[ej - half] reads the
    # entry at ej + half mod n through negative indexing.
    for j, same, other in field.leader_triples:
        ej = j * e % n
        if (same * e - zech[ej]) % half and (other * e - zech[ej - half]) % half:
            continue  # no hit at any (lam1, lam2)
        # (lam1, lam2) = (1, 1), (1, 2), (2, 1), (2, 2)
        for o1, o2, z1 in (
            (0, 0, same), (0, half, other), (half, 0, other), (half, half, same)
        ):
            k = (o1 + z1 + half) % n
            if k <= j:
                continue
            d2 = (ej + o2 - o1) % n
            if d2 == half:
                continue  # second coordinates cancel
            if k * e % n == (o1 + zech[d2] + half) % n:
                lam1 = 1 if o1 == 0 else 2
                lam2 = 1 if o2 == 0 else 2
                # scale by lam1^-1 = lam1 so the first value is 1
                positions = (0, j, k)
                values = (1, lam1 * lam2 % 3, lam1)
                _confirm_witness(field, e, positions, values)
                return WeightWitness("found", positions, values)
    return _NO_WORD_BELOW_4


def hamming_ball(n: int, t: int, q: int) -> int:
    """Number of words within Hamming distance t of a fixed word."""
    return sum(comb(n, i) * (q - 1) ** i for i in range(t + 1))


def sphere_packing_max_d(n: int, k: int, q: int) -> int:
    """Largest minimum distance the sphere-packing bound allows for (n, k).

    Exact integer arithmetic: finds the largest t with
    q^k * ball(t) <= q^n and returns d = 2t + 2.
    """
    if n < 1 or not 1 <= k <= n or q < 2:
        raise ValueError(f"invalid parameters (n={n}, k={k}, q={q})")
    budget = q ** (n - k)
    t = 0
    while t + 1 <= n and hamming_ball(n, t + 1, q) <= budget:
        t += 1
    return 2 * t + 2


def is_codeword(spec: CodeSpec, word: Poly) -> bool:
    """Membership by generator divisibility; word as a polynomial."""
    if word.degree >= spec.n:
        raise ValueError(f"word degree must be below n={spec.n}")
    return not word % spec.generator
