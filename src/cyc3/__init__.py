"""Ternary cyclic codes with two nonzeros: exact construction and
optimality certification over GF(3)."""

__version__ = "0.1.0"

from . import codes, conditions, cosets, field, gf3poly, identities  # noqa: F401
