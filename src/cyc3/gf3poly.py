"""Exact univariate polynomial algebra over GF(3).

Polynomials are immutable and stored as two bit planes, two Python ints:
bit i of the first is set when the coefficient of x^i is 1, bit i of the
second when it is 2.  Addition works on every coefficient at once with six
bit operations (bit-sliced arithmetic: Harrison, Page and Smart, LMS J.
Comput. Math. 5, 2002); subtraction swaps the other operand's planes, since
that negates it.  Multiplication adds one shifted copy of the denser operand
per nonzero term of the sparser one, and division cancels the top term found
by bit_length(), so zero coefficients cost nothing.  Cubing is the Frobenius
map, a(x)^3 = a(x^3).  Modulo a fixed f the map is linear, so iterated
Frobenius powers first build the rows x^(3i) mod f, i < deg f, once, and
then cube a residue by adding the row of each nonzero coefficient, with no
reduction.  The gcd runs Euclid on the four plane ints in one loop,
dividing by the monic form of each divisor, whose planes are the divisor's
swapped when its leading coefficient is 2.

Callers see `coeffs`, the ascending-degree tuple of coefficients in
{0, 1, 2} (index i holds the coefficient of x^i), computed from the planes
on every read; a `Poly` stores nothing else.  The zero polynomial is the
empty tuple and reports degree -1, which sorts below every other degree.
Constructor input may be any iterable of ints: signed coefficients are
reduced mod 3 on ingestion, so -1 becomes 2.

Two text forms are accepted wherever a polynomial is read.  The human
form, the one used in reports, is a sum of terms like "x^6-x^5+x^3+1":

    poly = [sign] term {sign term}            sign = "+" | "-"
    term = digits | [digits] "x" ["^" digits]  digits = [0-9]+

with whitespace allowed before and after every token.  A coefficient counts
mod 3, an exponent may carry leading zeros, and like terms add.  The list
form, like "1,0,0,1,0,2,1", gives ascending-degree digits.  Text above
degree MAX_POLY_DEGREE is refused before any coefficient list is allocated.

Beyond ring arithmetic the module provides division with remainder, monic
gcd, modular exponentiation, Frobenius powers by iterated cubing, a
deterministic irreducibility test, and complete factorization.  Factoring
runs squarefree decomposition, then distinct-degree splitting, then
equal-degree splitting by the trace: modulo each degree-d factor,
a + a^3 + ... + a^(3^(d-1)) is a constant in GF(3), so a random a splits
the product up to three ways with d - 1 cubings and two gcds, and no
product mod f (von zur Gathen and Gerhard, Modern Computer Algebra, 14.3).
Each a is drawn as two planes from a generator seeded with 0, and factors
are sorted, so output is reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import random
import re
from typing import NamedTuple


# the highest degree that parse_poly accepts, so that factor stays within
# its 20 s budget: at this degree a dense random polynomial took 3.9-5.2 s
# as a whole CLI run (three seeds, mostly distinct-degree gcds) and x^D - 1
# 0.09-0.12 s in one process on a 2-core host with Python 3.11
MAX_POLY_DEGREE = 3000


class PolyParseError(ValueError):
    """Raised for malformed polynomial text; carries the offending position,
    and its message is the whole error line a caller prints."""

    def __init__(self, message: str, position: int):
        super().__init__(f"bad polynomial: {message} (position {position})")
        self.position = position


# digit strings, most significant first, to the bits of one plane
_ONES = str.maketrans("2", "0")
_TWOS = str.maketrans("12", "01")
# (bit of the ones plane, bit of the twos plane) -> coefficient
_DIGIT = {("0", "0"): 0, ("1", "0"): 1, ("0", "1"): 2}


class Poly:
    """A dense polynomial over GF(3), stored as two bit planes."""

    __slots__ = ("_p1", "_p2")

    def __init__(self, coeffs=()):
        cs = [c % 3 for c in coeffs]
        digits = "".join(map(str, reversed(cs))) or "0"
        self._p1 = int(digits.translate(_ONES), 2)
        self._p2 = int(digits.translate(_TWOS), 2)

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Ascending coefficients, trailing zeros dropped."""
        n = self.degree + 1
        if not n:
            return ()
        ones = format(self._p1, f"0{n}b")[::-1]
        twos = format(self._p2, f"0{n}b")[::-1]
        return tuple(map(_DIGIT.__getitem__, zip(ones, twos)))

    @property
    def degree(self) -> int:
        return max(self._p1.bit_length(), self._p2.bit_length()) - 1

    @property
    def lc(self) -> int:
        """Leading coefficient; 0 for the zero polynomial."""
        n1, n2 = self._p1.bit_length(), self._p2.bit_length()
        return 1 if n1 > n2 else 2 if n2 else 0

    def __bool__(self) -> bool:
        return bool(self._p1 or self._p2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._p1 == other._p1 and self._p2 == other._p2

    def __hash__(self) -> int:
        return hash((self._p1, self._p2))

    def __lt__(self, other) -> bool:
        """Order by degree, then by coefficient sequence from x^0 up."""
        if not isinstance(other, Poly):
            return NotImplemented
        da, db = self.degree, other.degree
        if da != db:
            return da < db
        diff = (self._p1 ^ other._p1) | (self._p2 ^ other._p2)
        low = diff & -diff  # lowest power where the two differ
        return _coeff_at(self, low) < _coeff_at(other, low)

    def __repr__(self) -> str:
        return f"Poly({self.format()!r})"

    def __str__(self) -> str:
        return self.format()

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _poly(*_add(self._p1, self._p2, other._p1, other._p2))

    def __neg__(self) -> "Poly":
        return _poly(self._p2, self._p1)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _poly(*_add(self._p1, self._p2, other._p2, other._p1))

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % 3
            return self if c == 1 else -self if c else Poly()
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self, other
        if _weight(a) > _weight(b):
            a, b = b, a
        # add a shifted copy of b per nonzero term of a; a term with
        # coefficient 2 adds -b, whose planes are b's swapped
        b1, b2 = b._p1, b._p2
        s1 = s2 = 0
        for i in _bits(a._p1):
            x1, x2 = b1 << i, b2 << i
            t = (s1 | x2) ^ (s2 | x1)  # _add, inlined
            s1, s2 = (s2 | x2) ^ t, (s1 | x1) ^ t
        for i in _bits(a._p2):
            x1, x2 = b2 << i, b1 << i
            t = (s1 | x2) ^ (s2 | x1)
            s1, s2 = (s2 | x2) ^ t, (s1 | x1) ^ t
        return _poly(s1, s2)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        if not isinstance(other, Poly):
            return NotImplemented
        r, q1, q2 = _reduce(self, other, quotient=True)
        # _reduce divided by lc * other, and lc is its own inverse mod 3
        return _poly(q1, q2) * other.lc, r

    def __floordiv__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _reduce(self, other)[0]

    def derivative(self) -> "Poly":
        # i * c_i is c_i for i = 1 mod 3, -c_i for i = 2 mod 3, else 0
        m1 = (1 << 3 * (self.degree // 3 + 1)) // 7 << 1  # bits 1, 4, 7, ...
        m2 = m1 << 1
        p1, p2 = self._p1, self._p2
        return _poly(((p1 & m1) | (p2 & m2)) >> 1, ((p2 & m1) | (p1 & m2)) >> 1)

    def monic(self) -> tuple[int, "Poly"]:
        """Split into (unit, monic polynomial) with self == unit * monic."""
        if not self:
            raise ValueError("zero polynomial has no monic form")
        u = self.lc
        if u == 1:
            return 1, self
        return u, self * u  # multiplying by 2 is division by 2 mod 3

    def format(self) -> str:
        """The human text form; parse_poly(p.format()) == p."""
        cs = self.coeffs
        text = ""
        for d in range(len(cs) - 1, -1, -1):
            if cs[d]:
                text += "-" if cs[d] == 2 else "+"
                text += "1" if d == 0 else "x" if d == 1 else f"x^{d}"
        return text.removeprefix("+") or "0"


_new = object.__new__


def _poly(p1: int, p2: int) -> Poly:
    p = _new(Poly)
    p._p1 = p1
    p._p2 = p2
    return p


def _add(a1: int, a2: int, b1: int, b2: int) -> tuple[int, int]:
    """Planes of a + b, six bit operations for every coefficient at once."""
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def _reduce(a: Poly, b: Poly, quotient: bool = False) -> tuple[Poly, int, int]:
    """a mod b and the planes of the quotient of a by the monic lc(b) * b,
    cancelling the top term of a until its degree drops below b's.  The
    quotient planes are built only when asked for, and are 0 otherwise."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    g1, g2 = (b._p1, b._p2) if b.lc == 1 else (b._p2, b._p1)
    size = b.degree + 1
    r1, r2 = a._p1, a._p2
    q1 = q2 = 0
    while True:
        # the top term c*x^(s+deg g) goes by subtracting c*x^s*g
        n1, n2 = r1.bit_length(), r2.bit_length()
        if n1 > n2:
            s = n1 - size
            if s < 0:
                break
            if quotient:
                q1 |= 1 << s
            x1, x2 = g2 << s, g1 << s
        else:
            s = n2 - size
            if s < 0:
                break
            if quotient:
                q2 |= 1 << s
            x1, x2 = g1 << s, g2 << s
        t = (r1 | x2) ^ (r2 | x1)  # _add, inlined in the hot loops
        r1, r2 = (r2 | x2) ^ t, (r1 | x1) ^ t
    return _poly(r1, r2), q1, q2


# the characters of bin(v) to byte values that are true for a set bit
_BIT_BYTES = bytes.maketrans(b"0b1", b"\0\0\1")


def _bits(v: int) -> list[int]:
    """Positions of the set bits of v, highest first."""
    s = bin(v).encode().translate(_BIT_BYTES)  # one byte 0 or 1 per digit
    return list(itertools.compress(range(len(s) - 1, -1, -1), s))


def _weight(p: Poly) -> int:
    return p._p1.bit_count() + p._p2.bit_count()


def _coeff_at(p: Poly, bit: int) -> int:
    return 1 if p._p1 & bit else 2 if p._p2 & bit else 0


def _compress(v: int) -> int:
    """Bit 3i of v moved to bit i; the bits between are dropped."""
    s = bin(v)[2:]
    return int(s[len(s) - 1 :: -3][::-1], 2)


class Factorization(NamedTuple):
    """unit * product of factors**multiplicity, factors monic and sorted."""

    unit: int
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        out = Poly((self.unit,))
        for p, mult in self.factors:
            out = out * p**mult
        return out


def parse_poly(text: str) -> Poly:
    """Parse either text form; raises PolyParseError with a position."""
    if "," in text:
        return _parse_list(text)
    return _parse_human(text)


def _parse_list(text: str) -> Poly:
    digits = []
    pos = 0
    for tok in text.split(","):
        core = tok.strip()
        at = pos + len(tok) - len(tok.lstrip())
        if core not in ("0", "1", "2"):
            raise PolyParseError("list form digits must be 0, 1, or 2", at)
        if len(digits) > MAX_POLY_DEGREE:
            raise PolyParseError(
                f"list form has more than {MAX_POLY_DEGREE + 1} digits", at
            )
        digits.append(int(core))
        pos += len(tok) + 1
    return Poly(digits)


def _parse_human(text: str) -> Poly:
    # one term: sign, coefficient digits, x, then ^ and exponent digits, each
    # part optional and followed by optional whitespace.  [0-9], not \d,
    # which also takes other scripts' decimal digits such as "٣".  Compiled
    # here, where re caches it, so commands that never parse do not pay
    term = re.compile(r"([+-]?)\s*([0-9]*)\s*(?:(x)\s*(?:\^\s*([0-9]*))?)?\s*")
    if not text or text.isspace():
        raise PolyParseError("empty polynomial", len(text))
    start = i = len(text) - len(text.lstrip())
    coeffs: dict[int, int] = {}
    while i < len(text):
        match = term.match(text, i)
        sign, digits, x, exponent = match.groups()
        if not sign and i > start:
            raise PolyParseError("expected '+' or '-'", i)
        if not digits and not x:
            raise PolyParseError("expected a term", match.end())
        d = 1 if x else 0
        if exponent is not None:
            at = match.start(4)
            if not exponent:
                raise PolyParseError("expected exponent digits", at)
            # judged by length first: int() refuses very long digit runs
            significant = exponent.lstrip("0") or "0"
            if (
                len(significant) > len(str(MAX_POLY_DEGREE))
                or int(significant) > MAX_POLY_DEGREE
            ):
                raise PolyParseError(f"exponent above {MAX_POLY_DEGREE}", at)
            d = int(significant)
        # a number and its digit sum agree mod 3, however long the number
        coef = sum(map(int, digits)) if digits else 1
        coeffs[d] = coeffs.get(d, 0) + (-coef if sign == "-" else coef)
        i = match.end()
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return Poly(out)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    if not (a or b):
        raise ValueError("gcd of two zero polynomials is undefined")
    # Euclid on the planes: each step reduces a by the monic form of b,
    # whose planes are b's swapped when lc(b) = 2, and keeps that form
    a1, a2, b1, b2 = a._p1, a._p2, b._p1, b._p2
    while b1 or b2:
        n1, n2 = b1.bit_length(), b2.bit_length()
        if n1 > n2:
            g1, g2, size = b1, b2, n1
        else:
            g1, g2, size = b2, b1, n2
        # _reduce, inlined: a shared reducer per step took 1.10-1.13x (40-round A/B)
        while True:
            n1, n2 = a1.bit_length(), a2.bit_length()
            if n1 > n2:
                s = n1 - size
                if s < 0:
                    break
                x1, x2 = g2 << s, g1 << s
            else:
                s = n2 - size
                if s < 0:
                    break
                x1, x2 = g1 << s, g2 << s
            t = (a1 | x2) ^ (a2 | x1)
            a1, a2 = (a2 | x2) ^ t, (a1 | x1) ^ t
        a1, a2, b1, b2 = g1, g2, a1, a2
    if a2.bit_length() > a1.bit_length():
        a1, a2 = a2, a1
    return _poly(a1, a2)


def powmod(a: Poly, n: int, mod: Poly) -> Poly:
    """a**n reduced mod a modulus of degree >= 1; n is any nonnegative int."""
    if not mod:
        raise ZeroDivisionError("zero modulus")
    if mod.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    result = Poly.one() % mod
    base = a % mod
    while n:
        if n & 1:
            result = result * base % mod
        base = base * base % mod
        n >>= 1
    return result


def frobenius_power(a: Poly, d: int, modulus: Poly) -> Poly:
    """a**(3**d) mod modulus, computed by d successive cubings."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    r = a % modulus
    if modulus.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    if not d:
        return r
    rows = _frobenius_rows(modulus.monic()[1])
    r1, r2 = r._p1, r._p2
    for _ in range(d):
        r1, r2 = _cube_mod(r1, r2, rows)
    return _poly(r1, r2)


def _frobenius_rows(f: Poly) -> list[tuple[int, int]]:
    """The planes of x^(3i) mod f for i < deg f, f monic of degree >= 1.
    A residue's cube is the sum of the rows of its nonzero coefficients."""
    f1, f2 = f._p1, f._p2
    n = f1.bit_length() - 1
    k = (n + 2) // 3  # x^(3i) needs no reduction while 3i < n
    rows = [(1 << 3 * i, 0) for i in range(k)]
    r1, r2 = 1 << 3 * k, 0
    # cancelling coefficient c at x^(n+s) adds -c * x^s * f, top term first
    steps = [(1 << n + s, f2 << s, f1 << s) for s in (2, 1, 0)]
    # not _reduce: rows through it took 1.22-1.30x on poly-engine (40-round A/B)
    for _ in range(k, n):
        for bit, x1, x2 in steps:
            if r2 & bit:  # coefficient 2 adds x^s * f: its planes swapped back
                x1, x2 = x2, x1
            elif not r1 & bit:
                continue
            t = (r1 | x2) ^ (r2 | x1)  # _add, inlined
            r1, r2 = (r2 | x2) ^ t, (r1 | x1) ^ t
        rows.append((r1, r2))
        r1 <<= 3
        r2 <<= 3
    return rows


def _cube_mod(r1: int, r2: int, rows: list[tuple[int, int]]) -> tuple[int, int]:
    """The planes of r^3 mod f for a residue r with planes r1, r2, given
    f's Frobenius rows: a coefficient 2 adds its row negated, planes
    swapped."""
    s1 = s2 = 0
    for i in _bits(r1):
        x1, x2 = rows[i]
        t = (s1 | x2) ^ (s2 | x1)  # _add, inlined
        s1, s2 = (s2 | x2) ^ t, (s1 | x1) ^ t
    for i in _bits(r2):
        x2, x1 = rows[i]
        t = (s1 | x2) ^ (s2 | x1)
        s1, s2 = (s2 | x2) ^ t, (s1 | x1) ^ t
    return s1, s2


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n >= 1 in ascending order, trial division."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over GF(3).

    Walks x, x**3, x**9, ... mod f up to x**(3**d), d = deg f: at each
    d/p, p a prime dividing d, gcd(x**(3**(d/p)) - x, f) must be 1, and at
    the end x**(3**d) == x mod f.
    """
    if f.degree < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    f = f.monic()[1]
    d = f.degree
    stops = {d // p for p in prime_factors(d)}
    rows = _frobenius_rows(f)
    x = Poly.x() % f
    r1, r2 = x._p1, x._p2
    for k in range(1, d + 1):
        r1, r2 = _cube_mod(r1, r2, rows)
        if k in stops and poly_gcd(_poly(r1, r2) - x, f).degree != 0:
            return False
    return r1 == x._p1 and r2 == x._p2


def _cube_root(f: Poly) -> Poly:
    # valid when f' == 0, i.e. only exponents divisible by 3 appear
    return _poly(_compress(f._p1), _compress(f._p2))


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Split a monic nonconstant f into pairwise coprime squarefree parts.

    Returns [(part, multiplicity), ...] with f == product part**multiplicity.
    """
    if f.lc != 1 or f.degree < 1:
        raise ValueError("input must be monic of degree >= 1")
    parts = []
    scale = 1
    while f.degree > 0:
        df = f.derivative()
        if not df:
            f = _cube_root(f)
            scale *= 3
            continue
        g = poly_gcd(f, df)
        h = f // g
        i = 1
        while h.degree > 0:
            step = poly_gcd(g, h)
            part = h // step
            if part.degree > 0:
                parts.append((part, i * scale))
            g = g // step
            h = step
            i += 1
        if g.degree == 0:
            break
        f = g
    return parts


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    # f monic squarefree; returns [(product of irreducibles of degree d, d)]
    # xq is x^(3^d) mod v; v divides f, so gcd(xq - x, v) is the same as
    # with xq reduced mod f, and the shrinking v keeps every step small
    out = []
    v = f
    x = xq = Poly.x()
    rows = _frobenius_rows(v)
    d = 0
    while v.degree >= 2 * (d + 1):
        d += 1
        xq = _poly(*_cube_mod(xq._p1, xq._p2, rows))
        g = poly_gcd(xq - x, v)
        if g.degree > 0:
            out.append((g, d))
            v = v // g
            xq = xq % v
            rows = _frobenius_rows(v)
    if v.degree > 0:
        out.append((v, v.degree))
    return out


def _trace(a: Poly, d: int, rows: list[tuple[int, int]]) -> Poly:
    """a + a^3 + ... + a^(3^(d-1)) mod f for a residue a, given f's
    Frobenius rows: d - 1 cubings and additions, no product mod f.  Modulo
    an irreducible factor of f of degree d it is the trace of a, in GF(3)."""
    p1, p2 = t1, t2 = a._p1, a._p2
    for _ in range(d - 1):
        p1, p2 = _cube_mod(p1, p2, rows)
        t1, t2 = _add(t1, t2, p1, p2)
    return _poly(t1, t2)


def _equal_degree(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    # f monic, all irreducible factors of degree d; trace split.  Modulo each
    # factor the trace t of a random a is a constant c, so gcd(t, f),
    # gcd(t - 1, rest) and what is left split f up to three ways.  t is
    # constant only when every factor has the same c, and only then is a
    # drawn again.  a is drawn as two planes, a coefficient 1 where p1 has a
    # bit and 2 where only p2 has one
    n = f.degree
    if n == d:
        return [f]
    # rows per node: reusing the root's took 2.3-2.5x on x^728-1 (40-round A/B)
    rows = _frobenius_rows(f)
    while True:
        p1 = rng.getrandbits(n)
        t = _trace(_poly(p1, rng.getrandbits(n) & ~p1), d, rows)
        if t.degree > 0:
            break
    g = poly_gcd(t, f)
    rest = f // g
    h = poly_gcd(t - Poly.one(), rest)
    parts = (g, h, rest // h)
    return [irr for p in parts if p.degree > 0 for irr in _equal_degree(p, d, rng)]


def factor(f: Poly) -> Factorization:
    """Complete factorization into monic irreducibles.

    Squarefree parts, then distinct-degree products, then the trace split
    of each product into its degree-d factors.  The result is
    deterministic: the trace split draws its random elements, two bit
    planes each, from a generator seeded with 0, and factors are sorted by
    degree, then by ascending coefficient sequence.
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    unit, fm = f.monic()
    if fm.degree == 0:
        return Factorization(unit, ())
    rng = random.Random(0)
    counts: dict[Poly, int] = {}
    for part, mult in squarefree_decomposition(fm):
        for prod, d in _distinct_degree(part):
            for irr in _equal_degree(prod, d, rng):
                counts[irr] = counts.get(irr, 0) + mult
    factors = tuple(sorted(counts.items()))
    return Factorization(unit, factors)

