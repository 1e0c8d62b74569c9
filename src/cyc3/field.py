"""GF(3^m) construction and exact element arithmetic.

Elements are length-m tuples of coefficients in {0, 1, 2}, ascending degree,
representing residues mod a monic irreducible modulus of degree m; the
arithmetic, the generator and the text forms all use tuples.  The canonical
modulus for each m is the first monic irreducible, in ascending
coefficient-sequence order, whose residue class of x is primitive; the
canonical generator is then x itself.  An explicit modulus may be supplied
instead, in which case a primitive generator is discovered by search.  Every
verified statement is representation independent, so reports always record
the modulus in use.

For m up to LOG_TABLE_MAX_DEGREE the field can build exponent, discrete-log,
and Zech-logarithm tables.  The Zech table turns addition of two generator
powers into integer index arithmetic: alpha^u + alpha^v =
alpha^(u + zech[(v-u) mod n]), with a -1 sentinel where the sum is zero.
That is what makes the exhaustive equation scans and the weight search fast
enough in pure Python.

The tables hold elements as integer codes, not tuples: an element's code is
its coefficient tuple read as a base-3 numeral with the constant term as
the most significant digit, so code order is tuple order (encode/decode
convert).  Multiplying by x then shifts the code one digit down and adds a
multiple of the modulus tail digit by digit through two lookup tables, and
adding 1 changes only the top digit, which makes the Zech table a single
gather from the flat log table.

Degrees are capped at MAX_DEGREE so every exponent and order fits
comfortably in machine integers.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from .gf3poly import Poly, is_irreducible, powmod, prime_factors

MAX_DEGREE = 20
LOG_TABLE_MAX_DEGREE = 12

# -1 entry in a Zech table: 1 + alpha^i = 0 there, no logarithm exists
ZECH_ZERO = -1


class Field:
    """Arithmetic context for GF(3^m) with a fixed primitive generator."""

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
        self._mod_tail = modulus.coeffs[:m]
        self.zero = (0,) * m
        self.one = self._pad(Poly.one().coeffs)
        self.gen = self._pad(gen_poly.coeffs)
        self._gen_is_x = m >= 2 and gen_poly == Poly.x()
        self._order_primes = prime_factors(self.order) if self.order > 1 else ()
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._zech: list[int] | None = None
        self._minpoly_cache: dict[int, Poly] = {}
        if not self._has_order_n(gen_poly):
            raise ValueError("generator is not primitive")  # pragma: no cover

    # -- construction helpers ------------------------------------------------

    def _pad(self, coeffs) -> tuple:
        return tuple(coeffs) + (0,) * (self.m - len(coeffs))

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
        for coeffs in itertools.product(range(3), repeat=self.m):
            a = Poly(coeffs)
            if a.degree < 1:
                continue  # constants have order at most 2
            if self._has_order_n(a):
                return a
        raise RuntimeError("no primitive element found")  # pragma: no cover

    # -- element arithmetic --------------------------------------------------

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % 3 for x, y in zip(a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        return tuple((x - y) % 3 for x, y in zip(a, b))

    def neg(self, a: tuple) -> tuple:
        return tuple((-x) % 3 for x in a)

    def scalar_mul(self, c: int, a: tuple) -> tuple:
        c %= 3
        return tuple((c * x) % 3 for x in a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        m = self.m
        if m == 1:
            return ((a[0] * b[0]) % 3,)
        t = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        t[i + j] = (t[i + j] + ai * bj) % 3
        tail = self._mod_tail
        for i in range(2 * m - 2, m - 1, -1):
            c = t[i]
            if c:
                t[i] = 0
                base = i - m
                for j in range(m):
                    if tail[j]:
                        t[base + j] = (t[base + j] - c * tail[j]) % 3
        return tuple(t[:m])

    def inv(self, a: tuple) -> tuple:
        if a == self.zero:
            raise ZeroDivisionError("inversion of zero field element")
        if self._log is not None:
            return self.decode(self._exp[-self._log[self.encode(a)] % self.order])
        from .gf3poly import poly_gcdext

        g, s, _ = poly_gcdext(Poly(a), self.modulus)
        if g.degree != 0:
            raise RuntimeError("modulus not coprime to element")  # pragma: no cover
        # g is monic, hence exactly 1; s is the inverse
        return self._pad((s % self.modulus).coeffs)

    def pow(self, a: tuple, e: int) -> tuple:
        """a**e with e >= 0; 0**0 is 1.  Exponents reduce mod the group
        order for nonzero a."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if a == self.zero:
            return self.one if e == 0 else self.zero
        e %= self.order
        if self._log is not None:
            return self.decode(self._exp[self._log[self.encode(a)] * e % self.order])
        return self._pow_generic(a, e)

    def _pow_generic(self, a: tuple, e: int) -> tuple:
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a: tuple) -> tuple:
        return self._pow_generic(a, 3)

    def exp_of_generator(self, i: int) -> tuple:
        i %= self.order
        if self._exp is not None:
            return self.decode(self._exp[i])
        return self._pow_generic(self.gen, i)

    def log(self, a: tuple) -> int:
        if a == self.zero:
            raise ValueError("zero has no discrete logarithm")
        _, log, _ = self.tables()
        return log[self.encode(a)]

    def elements(self):
        """All 3^m elements, ascending coefficient-sequence order."""
        yield from itertools.product(range(3), repeat=self.m)

    def encode(self, a: tuple) -> int:
        """The code of a: its coefficients as a base-3 numeral, constant
        term most significant."""
        code = 0
        for c in a:
            code = code * 3 + c
        return code

    def decode(self, code: int) -> tuple:
        low, high_digits, low_digits = self._digit_halves
        return high_digits[code // low] + low_digits[code % low]

    @cached_property
    def _digit_halves(self) -> tuple[int, list[tuple], list[tuple]]:
        # a code splits into its high m - m//2 and low m//2 digits; the
        # digit tuples of each half, listed in code order, decode it
        k = self.m // 2
        return (
            3**k,
            list(itertools.product(range(3), repeat=self.m - k)),
            list(itertools.product(range(3), repeat=k)),
        )

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
        a = top
        if self._gen_is_x:
            # a*x: drop the lowest digit c (the x^(m-1) coefficient) and
            # add -c*tail digit by digit, high and low halves by lookup
            k = m // 2
            low = 3**k
            vecs = [tuple(-c * t % 3 for t in self._mod_tail) for c in range(3)]
            hi = [[low * h for h in _digitwise_adder(v[: m - k])] for v in vecs]
            lo = [_digitwise_adder(v[m - k :]) for v in vecs]
            for i in range(n):
                exp[i] = a
                c = a % 3
                a //= 3
                a = hi[c][a // low] + lo[c][a % low]
        else:
            gen = self.gen
            for i in range(n):
                exp[i] = a
                a = self.encode(self.mul(self.decode(a), gen))
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

    # -- text forms ----------------------------------------------------------

    def format_element(self, a: tuple) -> str:
        return ",".join(str(c) for c in a)

    def parse_element(self, text: str) -> tuple:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != self.m:
            raise ValueError(f"expected {self.m} coefficients, got {len(parts)}")
        if any(p not in ("0", "1", "2") for p in parts):
            raise ValueError("element coefficients must be 0, 1, or 2")
        return tuple(int(p) for p in parts)

    def __repr__(self) -> str:
        return f"Field(m={self.m}, modulus={self.modulus.format()!r})"


def _digitwise_adder(vec: tuple) -> list[int]:
    """t[u] = code of u + vec, added digit by digit mod 3, for every code u
    of len(vec) digits; vec is in tuple order, most significant first."""
    table = [0]
    weight = 1
    for v in reversed(vec):
        table = [(d + v) % 3 * weight + t for d in range(3) for t in table]
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
