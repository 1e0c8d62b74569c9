"""GF(3^m) construction, element codes and exponent/Zech tables.

An element is an integer code: its coefficients c0, c1, ..., c(m-1) read
as a base-3 numeral, constant term most significant.  The tables, the
condition scans, the reports and the text form hold codes.  Arithmetic
decodes them to reduced residues, `Poly`s of degree below m modulo a monic
irreducible of degree m, with the ring operations of `gf3poly` (`+`, `-`,
`* int`, and `a * b % field.modulus`), and encodes back; elements()
decodes every code in order.  The generator alpha is always the residue
class of x.  The canonical modulus for each m is the first monic
irreducible, in ascending coefficient-sequence order, in which x is
primitive.  An explicit modulus may be supplied instead, but x must be
primitive modulo it too; other moduli are refused.  Every verified
statement is representation independent, so reports always record the
modulus in use.

For m up to LOG_TABLE_MAX_DEGREE the field can build two tables, exponent
and Zech logarithm; has_tables says so without building them, and every
scan that needs them is refused through check_tables().  The Zech table
turns addition of two generator powers into integer index arithmetic:
alpha^u + alpha^v = alpha^(u + zech[(v-u) mod n]), with a -1 sentinel where
the sum is zero.  That is what makes the condition scans and the weight
search fast enough in pure Python.  Only those scans, and the syndrome
that confirms the search's witnesses, read the tables; the syndrome reads
only the exp table, and above the cap it is refused before it builds the
half-code table below.
exp_of_generator computes alpha^i by powmod whether or not they are built.

The tables are `array('i')`: an entry is a C int, where a list entry is a
pointer to an int object of its own, so they take a fraction of a list's
memory; an entry reads back as a fresh Python int.  Multiplying a code by x
shifts it one digit down and adds a multiple of the modulus tail digit by
digit through two lookup tables, and adding or subtracting 1 changes only
the top digit.  So the loop that steps through the powers alpha^i also
writes i at the code of alpha^i - 1, which yields the logarithm of 1 + b at
every code b but that of -1, and the Zech table is gathered from that
temporary array at the codes in exp, a slice at a time; no discrete-log
table is kept.

The text form of a code is its m digits, comma-joined.  planes and
format_element read one cached table of the bit planes and text of every
half-code: planes gives a code's two bit planes, which decode wraps in a
`Poly` and the syndrome adds without one.  encode reads the digits straight
from the bit planes.

Degrees are capped at MAX_DEGREE.  Python ints are unbounded, so no
integer size sets the cap: it is as far as the commands that run past the
tables (field-info, minpoly, code) are budgeted and fuzzed, and raising it
is open work.
"""

from __future__ import annotations

import itertools
from array import array
from functools import cached_property, lru_cache

from .gf3poly import Poly, _poly, is_irreducible, powmod, prime_factors

MAX_DEGREE = 20
LOG_TABLE_MAX_DEGREE = 12

# -1 entry in a Zech table: 1 + alpha^i = 0 there, no logarithm exists
ZECH_ZERO = -1

# codes the Zech gather reads from exp per list comprehension
_GATHER_SLICE = 1 << 12


class Field:
    """GF(3^m) generated by x modulo a monic irreducible in which x is
    primitive; elements are codes, decoded to `Poly` residues for arithmetic."""

    def __init__(self, m: int, modulus: Poly | None = None):
        if not 1 <= m <= MAX_DEGREE:
            raise ValueError(f"m must be in [1, {MAX_DEGREE}], got {m}")
        self.m = m
        self.order = 3**m - 1
        if modulus is None:
            modulus = _canonical_modulus(m)
        else:
            if modulus.degree != m or modulus.lc != 1:
                raise ValueError("modulus must be monic of degree m")
            if not is_irreducible(modulus):
                raise ValueError(f"modulus {modulus.format()} is reducible")
            if not _x_is_primitive(modulus):
                raise ValueError(f"x is not primitive modulo {modulus.format()}")
        self.modulus = modulus
        self.zero = Poly()
        self.one = Poly.one()
        self._alpha = Poly.x() % modulus  # the constant -1 when m = 1
        # the generator's padded coefficient tuple, which field-info prints
        # and the benchmark's field summary reads; exp_of_generator(1) is
        # the element
        self.gen = self._alpha.coeffs + (0,) * (m - len(self._alpha.coeffs))
        self.has_tables = m <= LOG_TABLE_MAX_DEGREE

    def check_tables(self) -> None:
        """Refuse (ValueError) an m without tables, building nothing."""
        if not self.has_tables:
            raise ValueError(
                f"Zech tables exist only for m <= {LOG_TABLE_MAX_DEGREE}; "
                f"got m={self.m}"
            )

    def check_exponent(self, e: int) -> None:
        """Refuse (ValueError) an exponent e outside [1, order - 1]."""
        if not 1 <= e < self.order:
            raise ValueError(f"e must be in [1, {self.order - 1}], got {e}")

    # -- elements ------------------------------------------------------------

    def exp_of_generator(self, i: int) -> Poly:
        """alpha^i by powmod, whether or not the tables are built."""
        return powmod(self._alpha, i % self.order, self.modulus)

    def elements(self):
        """All 3^m elements, in code order."""
        return map(self.decode, range(3**self.m))

    def encode(self, a: Poly) -> int:
        """The code of a: its coefficients as a base-3 numeral, constant
        term most significant."""
        # each plane's bits, constant term first, read in base 3
        m = self.m
        return int(f"{a._p1:0{m}b}"[::-1], 3) + 2 * int(f"{a._p2:0{m}b}"[::-1], 3)

    def decode(self, code: int) -> Poly:
        return _poly(*self.planes(code))

    def planes(self, code: int) -> tuple[int, int]:
        """The ones and twos bit planes of the residue with this code, as
        `Poly` holds them, read without building a `Poly`."""
        low, high_half, low_half = self._halves
        h1, h2, _ = high_half[code // low]
        l1, l2, _ = low_half[code % low]
        return h1 | l1, h2 | l2

    @cached_property
    def _halves(self) -> tuple[int, list[tuple], list[tuple]]:
        # with k = m // 2, a code's high m - k digits are the coefficients
        # of x^0 .. x^(m-k-1), and its low k digits those of the rest
        k = self.m // 2
        return 3**k, _half_table(0, self.m - k), _half_table(self.m - k, k)

    # -- tables --------------------------------------------------------------

    @cached_property
    def orbit_pairs(self) -> list[tuple[int, int]]:
        """The (leader, zech[leader]) pairs of _leaders(), in ascending
        leader order.

        The condition scan in `conditions` walks every pair; the weight-3
        scan of `codes.min_weight_leq3_search` walks the same leaders
        through leader_triples.  Each module's docstring says why one point
        per orbit is enough there.  The pairs are tuples, unpacked in the
        scan's loop header, because two zipped array('i') columns or a
        leaders-only array that reads zech[i] ran the condition scan
        1.13-1.34x slower at m = 8 and 10.  Built on first use and dropped
        with the field."""
        zech = self.tables()[1]
        return [(i, zech[i]) for i in self._leaders()]

    @cached_property
    def leader_triples(self) -> list[tuple[int, int, int]]:
        """(j, zech[j], zech[j + n/2]) for every nonzero leader j of
        _leaders(), in the same ascending order; n/2 is not a leader, so
        0 < j <= n/4 and j + n/2 < n.

        Its one reader is the weight-3 scan of
        `codes.min_weight_leq3_search`, which needs both logarithms at each
        leader; the triples spare it a read of zech[j + n/2] per leader and
        a skip past the leader 0 per call.  It is a list of its own because
        triples in orbit_pairs, shared by both scans, cost the sweep-warm
        benchmark of the condition scan 3.3% of its ops per second.  Each
        list walks the leaders itself, so a process that runs one scan
        holds only that scan's list.  Built on first use and dropped with
        the field."""
        zech = self.tables()[1]
        half = self.order // 2
        return [(j, zech[j], zech[j + half]) for j in self._leaders() if j]

    def _leaders(self):
        """The orbit leaders of <3, -1> on Z_n, n = order, ascending: the
        least member of each orbit, with the fixed point n/2 left out.

        Every leader is at most n/4.  For n/4 < j < n/2 the orbit of j
        holds a member below j: 3j - n when j > n/3, and n - 3j otherwise.
        For j > n/2 it holds n - j < j.  The bound is reached at n/4 when
        m is even, where the orbit is {n/4, 3n/4}."""
        n = self.order
        seen = bytearray(n)
        seen[n // 2] = 1
        i = seen.find(0)
        while i >= 0:
            yield i
            j = i
            while True:  # i's coset and its negation; seen[-j] is seen[n - j]
                seen[j] = seen[-j] = 1
                j = j * 3 % n
                if j == i:
                    break
            i = seen.find(0, i + 1)

    def tables(self) -> tuple[array, array]:
        """(exp, zech) for m <= LOG_TABLE_MAX_DEGREE; built lazily.

        exp[i] is the code of alpha^i for i in [0, order); zech[i] is the
        logarithm of 1 + alpha^i, or ZECH_ZERO where that sum vanishes.
        """
        return self._tables

    @cached_property
    def _tables(self) -> tuple[array, array]:
        self.check_tables()
        m, n = self.m, self.order
        top = 3 ** (m - 1)  # code of one, and the weight of the top digit
        # a*x: drop the lowest digit c (the x^(m-1) coefficient) and add
        # -c*tail digit by digit, high and low halves by lookup
        k = m // 2
        low = 3**k
        low3 = 3 * low
        tail = self.modulus.coeffs[:m]
        hi = [
            [low * h for h in _digitwise_adder(tail[: m - k], -c)]
            for c in range(3)
        ]
        lo = [_digitwise_adder(tail[m - k :], -c) for c in range(3)]
        # the dropped digit folded into the low lookup: r = a % low3 holds
        # it as r % 3 and the low half of a // 3 as r // 3
        lo3 = [lo[r % 3][r // 3] for r in range(low3)]
        # plus_one, indexed by code, holds the logarithm of 1 + that
        # element: i sits at the code of alpha^i - 1, which lowers the top
        # digit of a's code.  Below top the index a - top is negative and
        # wraps to a + 2*top, the top digit 0 wrapping to 2
        exp = array("i", [0]) * n
        plus_one = array("i", [ZECH_ZERO]) * (3 * top)
        a = top
        for i in range(n):
            exp[i] = a
            plus_one[a - top] = i
            a = hi[a % 3][a // low3] + lo3[a % low3]
        if a != top:
            raise RuntimeError("generator order mismatch")  # pragma: no cover
        # alpha^i - 1 is every element but -1, so one slot stays unwritten
        # unless two powers collide
        if plus_one.count(ZECH_ZERO) != 1:
            raise RuntimeError("generator powers collide")  # pragma: no cover
        # gathered a slice at a time, so no list of n ints is ever held
        zech = array("i")
        for s in range(0, n, _GATHER_SLICE):
            zech.extend([plus_one[a] for a in exp[s : s + _GATHER_SLICE]])
        return exp, zech

    # -- text form -----------------------------------------------------------

    def format_element(self, code: int) -> str:
        """The m digits of a code, constant term first, comma-joined."""
        low, high_half, low_half = self._halves
        return high_half[code // low][2] + low_half[code % low][2]

    def __repr__(self) -> str:
        return f"Field(m={self.m}, modulus={self.modulus.format()!r})"


def _half_table(shift: int, digits: int) -> list[tuple[int, int, str]]:
    """(ones plane, twos plane, text) of every code of `digits` digits, in
    code order; the most significant digit is the coefficient of x^shift.
    Each digit's text is preceded by a comma but that of x^0."""
    table = [(0, 0, "")]
    for i in reversed(range(shift, shift + digits)):
        sep = "," if i else ""
        table = [
            (p1 | d1, p2 | d2, f"{sep}{d}{text}")
            for d, d1, d2 in ((0, 0, 0), (1, 1 << i, 0), (2, 0, 1 << i))
            for p1, p2, text in table
        ]
    return table


def _digitwise_adder(vec: tuple, scale: int) -> list[int]:
    """t[u] = code of u + scale*vec, added digit by digit mod 3, for every
    code u of len(vec) digits; vec is in code order, most significant
    first."""
    table = [0]
    weight = 1
    for v in reversed(vec):
        table = [(d + scale * v) % 3 * weight + t for d in range(3) for t in table]
        weight *= 3
    return table


def _x_is_primitive(f: Poly) -> bool:
    """Whether x generates the multiplicative group modulo f.  f must be
    irreducible, so a nonzero x has x^n = 1 for n = 3^deg(f) - 1 already,
    and it is primitive iff x^(n/q) != 1 for every prime q | n."""
    n = 3**f.degree - 1
    x = Poly.x() % f
    one = Poly.one()
    return bool(x) and all(powmod(x, n // q, f) != one for q in prime_factors(n))


def _canonical_modulus(m: int) -> Poly:
    # primitive x needs x^(n/2) = -1, and x^(n/2) is the norm (-1)^m * c0;
    # that fixes the constant term.  Only candidates with c0 = required_c0
    # are built, in ascending coefficient-sequence order (constant term
    # compared first), so the first hit is the one a full scan of the monic
    # polynomials finds; the two thirds with another c0 cannot be primitive
    required_c0 = 2 if m % 2 == 0 else 1
    for tail in itertools.product(range(3), repeat=m - 1):
        f = Poly((required_c0,) + tail + (1,))
        if is_irreducible(f) and _x_is_primitive(f):
            return f
    raise RuntimeError(f"no primitive modulus of degree {m}")  # pragma: no cover


@lru_cache(maxsize=None)
def build_field(m: int) -> Field:
    """The canonical GF(3^m) context; cached per m."""
    return Field(m)
