"""GF(3^m) construction, element codes and log/Zech tables.

An element is a reduced residue: a `Poly` of degree below m modulo a monic
irreducible modulus of degree m, with the ring operations of `gf3poly`
(`+`, `-`, `* int`, and `a * b % field.modulus`).  The canonical modulus
for each m is the first monic irreducible, in ascending coefficient-sequence
order, whose residue class of x is primitive; the canonical generator is
then x itself.  An explicit modulus may be supplied instead, in which case
a primitive generator is discovered by search.  Every verified statement is
representation independent, so reports always record the modulus in use.

For m up to LOG_TABLE_MAX_DEGREE the field can build exponent, discrete-log,
and Zech-logarithm tables.  The Zech table turns addition of two generator
powers into integer index arithmetic: alpha^u + alpha^v =
alpha^(u + zech[(v-u) mod n]), with a -1 sentinel where the sum is zero.
That is what makes the exhaustive equation scans and the weight search fast
enough in pure Python.

The tables hold elements as integer codes: an element's code is its
coefficient sequence c0, c1, ..., c(m-1) read as a base-3 numeral with the
constant term as the most significant digit (encode/decode convert, and
elements() runs in code order).  Multiplying by x then shifts the code one
digit down and adds a multiple of the modulus tail digit by digit through
two lookup tables, and adding 1 changes only the top digit, which makes the
Zech table a single gather from the flat log table.  The same digits,
comma-joined, are the text form of an element (format_element).

Degrees are capped at MAX_DEGREE so every exponent and order fits
comfortably in machine integers.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from .gf3poly import Poly, _poly, is_irreducible, powmod, prime_factors

MAX_DEGREE = 20
LOG_TABLE_MAX_DEGREE = 12

# -1 entry in a Zech table: 1 + alpha^i = 0 there, no logarithm exists
ZECH_ZERO = -1


class Field:
    """GF(3^m) with a fixed primitive generator alpha; elements are
    reduced `Poly` residues."""

    def __init__(self, m: int, modulus: Poly | None = None):
        if not 1 <= m <= MAX_DEGREE:
            raise ValueError(f"m must be in [1, {MAX_DEGREE}], got {m}")
        self.m = m
        self.order = 3**m - 1
        if modulus is None:
            modulus = _canonical_modulus(m)
            self.modulus = modulus
            gen_poly = Poly.x() % modulus
        else:
            if modulus.degree != m or not modulus.is_monic:
                raise ValueError("modulus must be monic of degree m")
            if not is_irreducible(modulus):
                raise ValueError(f"modulus {modulus.format()} is reducible")
            self.modulus = modulus
            gen_poly = self._find_generator()
        self.zero = Poly.zero()
        self.one = Poly.one()
        self._alpha = gen_poly
        # the generator's padded coefficient tuple, as the benchmark's
        # field summary reads it; exp_of_generator(1) is the element
        self.gen = gen_poly.coeffs + (0,) * (m - len(gen_poly.coeffs))
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._zech: list[int] | None = None
        self._minpoly_cache: dict[int, Poly] = {}
        if not self._has_order_n(gen_poly):
            raise ValueError("generator is not primitive")  # pragma: no cover

    # -- construction helpers ------------------------------------------------

    def _has_order_n(self, a: Poly) -> bool:
        if powmod(a, self.order, self.modulus) != Poly.one():
            return False
        for q in prime_factors(self.order) if self.order > 1 else ():
            if powmod(a, self.order // q, self.modulus) == Poly.one():
                return False
        return True

    def _find_generator(self) -> Poly:
        x = Poly.x() % self.modulus
        if self._has_order_n(x):
            return x
        for a in self.elements():
            if a.degree < 1:
                continue  # constants have order at most 2
            if self._has_order_n(a):
                return a
        raise RuntimeError("no primitive element found")  # pragma: no cover

    # -- elements ------------------------------------------------------------

    def exp_of_generator(self, i: int) -> Poly:
        """alpha^i: a table lookup once the tables are built, else powmod."""
        i %= self.order
        if self._exp is not None:
            return self.decode(self._exp[i])
        return powmod(self._alpha, i, self.modulus)

    def elements(self):
        """All 3^m elements, in code order."""
        return map(self.decode, range(3**self.m))

    def encode(self, a: Poly) -> int:
        """The code of a: its coefficients as a base-3 numeral, constant
        term most significant."""
        return int(self._digits(a), 3)

    def _digits(self, a: Poly) -> str:
        # a's m coefficients, constant term first, read off its bit planes
        # as decode writes them (a.coeffs would cache a tuple per element):
        # bit i of a plane becomes decimal digit i of ones or twos, and the
        # planes are disjoint, so ones + 2 * twos spells the digits
        m = self.m
        ones = int(format(a._p1, f"0{m}b")[::-1])
        twos = int(format(a._p2, f"0{m}b")[::-1])
        return str(ones + 2 * twos).zfill(m)

    def decode(self, code: int) -> Poly:
        low, high_planes, low_planes = self._plane_halves
        h1, h2 = high_planes[code // low]
        l1, l2 = low_planes[code % low]
        return _poly(h1 | l1, h2 | l2)

    @cached_property
    def _plane_halves(self) -> tuple[int, list[tuple], list[tuple]]:
        # with k = m // 2, a code splits into its high m - k digits, the
        # coefficients of x^0 .. x^(m-k-1), and its low k digits, those of
        # the rest; the bit planes of each half, in code order, decode it
        k = self.m // 2
        return 3**k, _plane_table(0, self.m - k), _plane_table(self.m - k, k)

    # -- tables --------------------------------------------------------------

    def tables(self) -> tuple[list[int], list[int], list[int]]:
        """(exp, log, zech) for m <= LOG_TABLE_MAX_DEGREE; built lazily.

        exp[i] is the code of alpha^i for i in [0, order); log, indexed by
        code, inverts it and holds ZECH_ZERO at the code 0 of zero; zech[i]
        is the logarithm of 1 + alpha^i, or ZECH_ZERO where that sum
        vanishes.
        """
        if self._exp is not None:
            return self._exp, self._log, self._zech
        if self.m > LOG_TABLE_MAX_DEGREE:
            raise ValueError(
                f"tables limited to m <= {LOG_TABLE_MAX_DEGREE}, got m={self.m}"
            )
        m, n = self.m, self.order
        top = 3 ** (m - 1)  # code of one, and the weight of the top digit
        exp = [0] * n
        if self._alpha == Poly.x():
            # a*x: drop the lowest digit c (the x^(m-1) coefficient) and
            # add -c*tail digit by digit, high and low halves by lookup
            k = m // 2
            low = 3**k
            tail = self.modulus.coeffs[:m]
            hi = [
                [low * h for h in _digitwise_adder(tail[: m - k], -c)]
                for c in range(3)
            ]
            lo = [_digitwise_adder(tail[m - k :], -c) for c in range(3)]
            a = top
            for i in range(n):
                exp[i] = a
                c = a % 3
                a //= 3
                a = hi[c][a // low] + lo[c][a % low]
        else:
            p = self.one
            for i in range(n):
                exp[i] = self.encode(p)
                p = p * self._alpha % self.modulus
            a = self.encode(p)
        if a != top:
            raise RuntimeError("generator order mismatch")  # pragma: no cover
        log = [ZECH_ZERO] * (3 * top)
        for i, a in enumerate(exp):
            log[a] = i
        if log.count(ZECH_ZERO) != 1:
            raise RuntimeError("generator powers collide")  # pragma: no cover
        # 1 + a raises the top digit of a's code, wrapping 2 to 0, so
        # plus_one[a] = log[a + top] below 2*top and log[a - 2*top] above
        plus_one = log[top:] + log[:top]
        zech = list(map(plus_one.__getitem__, exp))
        self._exp, self._log, self._zech = exp, log, zech
        return exp, log, zech

    # -- text form -----------------------------------------------------------

    def format_element(self, a: Poly) -> str:
        """The m coefficients of a, constant term first, comma-joined."""
        return ",".join(self._digits(a))

    def __repr__(self) -> str:
        return f"Field(m={self.m}, modulus={self.modulus.format()!r})"


def _plane_table(shift: int, digits: int) -> list[tuple[int, int]]:
    """The bit planes (ones, twos) of every code of `digits` digits, in
    code order; the most significant digit is the coefficient of x^shift."""
    table = [(0, 0)]
    for i in reversed(range(shift, shift + digits)):
        digit_planes = ((0, 0), (1 << i, 0), (0, 1 << i))  # digits 0, 1, 2
        table = [(p1 | d1, p2 | d2) for d1, d2 in digit_planes for p1, p2 in table]
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


def _canonical_modulus(m: int) -> Poly:
    n = 3**m - 1
    primes = prime_factors(n) if n > 1 else ()
    # primitive x needs x^(n/2) = -1, and x^(n/2) is the norm (-1)^m * c0;
    # that fixes the constant term.  Only candidates with c0 = required_c0
    # are built, in monic_polys(m) order, so the first hit is the one a
    # full scan finds; the two thirds with another c0 cannot be primitive
    required_c0 = 2 if m % 2 == 0 else 1
    for tail in itertools.product(range(3), repeat=m - 1):
        f = Poly((required_c0,) + tail + (1,))
        if not is_irreducible(f):
            continue
        x = Poly.x() % f
        if m == 1:
            # residue of x is a constant; primitive iff it generates GF(3)^*
            if x == Poly((2,)):
                return f
            continue
        ok = all(powmod(x, n // q, f) != Poly.one() for q in primes)
        if ok:
            return f
    raise RuntimeError(f"no primitive modulus of degree {m}")  # pragma: no cover


@lru_cache(maxsize=None)
def build_field(m: int) -> Field:
    """The canonical GF(3^m) context; cached per m."""
    return Field(m)
