"""p-cyclotomic cosets mod p^m - 1 and minimal polynomials of generator
powers.

Coset arithmetic accepts any prime p (the coset-size law is worth checking
at that generality); the symbolic algebra elsewhere in the package is GF(3)
only.  A coset is the orbit of j under multiplication by p mod p^m - 1, its
leader the smallest member.  coset() answers for p below 2^COSET_PRIME_BITS
and p^m - 1 below 2^COSET_MODULUS_BITS and refuses anything larger up
front: the primality test is trial division, and p**m is not computed until
its size is known to be in bounds.

cosets_meeting() is the one walk that lists cosets without repeats, for
cosets_partition() and for `search`, whose budget counts the classes it
lists and which evaluates them.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .field import Field
from .gf3poly import Poly, prime_factors

# coset() refuses p and p^m - 1 longer than this many bits
COSET_PRIME_BITS = 32
COSET_MODULUS_BITS = 64


def _is_prime(p: int) -> bool:
    return p >= 2 and prime_factors(p) == (p,)


class Coset(NamedTuple):
    p: int
    m: int
    leader: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def coset(j: int, p: int, m: int) -> Coset:
    """Orbit of j under multiplication by p, as sorted members."""
    if m < 1:
        raise ValueError("m must be positive")
    if p.bit_length() > COSET_PRIME_BITS:
        raise ValueError(f"p must be below 2^{COSET_PRIME_BITS}, got {p}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    # p >= 2^(b - 1) for b = p.bit_length(), so (b - 1) * m above the limit
    # already puts p^m past it; otherwise p**m has at most 2 * limit bits
    limit = COSET_MODULUS_BITS
    if (p.bit_length() - 1) * m > limit or (p**m - 1).bit_length() > limit:
        raise ValueError(f"p^m - 1 must be below 2^{limit}, got p={p}, m={m}")
    n = p**m - 1
    j %= n
    members = []
    c = j
    while True:
        members.append(c)
        c = c * p % n
        if c == j:
            break
    members.sort()
    return Coset(p, m, members[0], tuple(members))


def cosets_meeting(exponents, p: int, m: int):
    """Each coset mod p^m - 1 that holds one of exponents (all in
    [0, p^m - 1)), once, in order of first meeting.

    One coset() call per coset: the members of each coset yielded are
    marked, and an exponent already marked is skipped.
    """
    met = bytearray(p**m - 1)
    for j in exponents:
        if not met[j]:
            c = coset(j, p, m)
            for member in c.members:
                met[member] = 1
            yield c


def cosets_partition(p: int, m: int) -> list[Coset]:
    """All cosets mod p^m - 1, sorted by leader; they partition [0, p^m-1).

    The walk over [0, p^m - 1) meets each coset first at its leader.  No
    command uses the partition itself: it is the leader oracle that the
    tests and perfbench/make_reference.py check other enumerations of coset
    leaders (and the minimal polynomials of x^n - 1) against.
    """
    return list(cosets_meeting(range(p**m - 1), p, m))


class CosetSizeReport(NamedTuple):
    p: int
    m: int
    checked: int
    violations: tuple[int, ...]


def coset_size_law_check(p: int, m: int) -> CosetSizeReport:
    """Exhaustive check that gcd(e, p^m - 1) = 2 forces coset size m.

    Scans every e in [1, p^m - 2]; returns the count of qualifying e and any
    violators (expected: none).
    """
    n = p**m - 1
    checked = 0
    violations = []
    for e in range(1, n - 1):
        if gcd(e, n) != 2:
            continue
        checked += 1
        if coset(e, p, m).size != m:
            violations.append(e)
    return CosetSizeReport(p, m, checked, tuple(violations))


def minimal_polynomial(field: Field, i: int) -> Poly:
    """Monic minimal polynomial of generator**i over GF(3).

    Computed as the product of (x - conjugate) over the Frobenius orbit of
    generator**i, found by cubing it until it returns, with coefficients
    verified to land in the base field.  The orbit is walked in the field,
    not read from coset(), so the degree (and build_code's conjugacy test
    and dimension) is a route independent of the coset facts.
    """
    # product over conjugates, with coefficients in the field
    mod = field.modulus
    poly = [field.one]
    first = root = field.exp_of_generator(i)
    while True:
        nxt = [field.zero] + poly  # x * poly
        for d, coeff in enumerate(poly):
            nxt[d] -= coeff * root % mod
        poly = nxt
        root = root * root % mod * root % mod  # the next conjugate, root^3
        if root == first:
            break
    base_coeffs = []
    for coeff in poly:
        if coeff.degree > 0:
            raise RuntimeError(
                "minimal polynomial coefficient "
                f"{field.format_element(field.encode(coeff))} left the base field"
            )
        base_coeffs.append(coeff.lc)
    return Poly(base_coeffs)
