"""What a fresh process loads: the package imports its submodules on first
use, each submodule loads only its pinned closure within the package, and
`verify` and `family` load neither `codes`, `identities`, `dataclasses` nor
`csv`.  Each check runs in its own interpreter, since the
test process has long since imported everything."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import cyc3

SRC = str(Path(cyc3.__file__).resolve().parents[1])
SUBMODULES = ["codes", "conditions", "cosets", "field", "gf3poly", "identities"]


def run_fresh(code: str):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_VERIFY_AND_FAMILY = """
import contextlib, io, json, sys
from cyc3.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["verify", "--m", "4", "--e", "10", "--format", "json"]),
        main(["family", "--name", "open-problem", "--m-list", "4,6",
              "--format", "json"]),
    ]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def test_verify_and_family_load_only_what_they_run():
    got = run_fresh(_VERIFY_AND_FAMILY)
    # e = 10 has a coset of size 2 at m = 4, so verify answers not_optimal
    assert got["codes"] == [1, 0]
    loaded = set(got["modules"])
    assert not loaded & {"cyc3.codes", "cyc3.identities", "dataclasses", "csv"}
    cyc3_loaded = {name for name in loaded if name.startswith("cyc3")}
    assert cyc3_loaded == {
        "cyc3", "cyc3.cli", "cyc3.conditions", "cyc3.cosets", "cyc3.field",
        "cyc3.gf3poly",
    }


_PACKAGE = """
import json, sys
import cyc3
bare = sorted(name for name in sys.modules if name.startswith("cyc3."))
field = cyc3.field.Field.__module__
gf3poly = cyc3.gf3poly.Poly.__module__
try:
    cyc3.nope
    nope = "resolved"
except AttributeError as exc:
    nope = str(exc)
print(json.dumps({"bare": bare, "field": field, "gf3poly": gf3poly,
                  "nope": nope, "dir": dir(cyc3)}))
"""


def test_package_loads_submodules_on_first_use():
    got = run_fresh(_PACKAGE)
    assert got["bare"] == []
    assert (got["field"], got["gf3poly"]) == ("cyc3.field", "cyc3.gf3poly")
    assert got["nope"] == "module 'cyc3' has no attribute 'nope'"
    assert set(SUBMODULES) <= set(got["dir"])
    assert "__version__" in got["dir"]


def test_dir_lists_the_submodules_without_importing_them(monkeypatch):
    """dir(cyc3) names all six submodules, loaded or not, and imports none.
    The test process has loaded them, so they are taken off the package
    first: only the package's own __dir__ can then name them."""

    def refuse(name):
        raise AssertionError(f"dir(cyc3) imported {name}")

    for name in SUBMODULES:
        monkeypatch.delattr(cyc3, name, raising=False)
    monkeypatch.setattr(cyc3, "importlib", SimpleNamespace(import_module=refuse))
    assert set(SUBMODULES) <= set(dir(cyc3))


def test_no_submodule_loads_dataclasses():
    got = run_fresh(
        "import json, sys, cyc3\n"
        f"for name in {SUBMODULES!r}: getattr(cyc3, name)\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    assert {f"cyc3.{name}" for name in SUBMODULES} <= set(got)
    assert "dataclasses" not in got


# each submodule's import closure within the package: the table-free
# modules (gf3poly, identities) load no field, and no module loads more
# than it uses
IMPORT_CLOSURES = {
    "gf3poly": set(),
    "field": {"gf3poly"},
    "cosets": {"field", "gf3poly"},
    "conditions": {"cosets", "field", "gf3poly"},
    "codes": {"cosets", "field", "gf3poly"},
    "identities": {"gf3poly"},
    "cli": {"conditions", "cosets", "field", "gf3poly"},
}


@pytest.mark.parametrize("name", sorted(IMPORT_CLOSURES))
def test_each_submodule_loads_only_its_import_closure(name):
    got = run_fresh(
        "import importlib, json, sys\n"
        f"importlib.import_module('cyc3.{name}')\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    loaded = {m[len("cyc3."):] for m in got if m.startswith("cyc3.")}
    assert loaded - {name} == IMPORT_CLOSURES[name]
