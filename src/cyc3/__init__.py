"""Ternary cyclic codes with two nonzeros: exact construction and
optimality certification over GF(3).

The submodules (codes, conditions, cosets, field, gf3poly, identities) load
on first use: `import cyc3` loads none of them, and the first read of an
attribute such as `cyc3.field` imports that submodule, so a command pays
only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("codes", "conditions", "cosets", "field", "gf3poly", "identities")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES})
