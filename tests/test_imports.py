"""Import footprint, each case in a fresh interpreter: `import
dforge.cli` loads no other dforge module, each command loads only the
modules it runs, and the package's public names resolve lazily to the
objects of the submodules that define them."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import dforge

SRC = pathlib.Path(dforge.__file__).resolve().parent.parent
ROOT = SRC.parent

# prints the command's exit code and the dforge submodules loaded by then
_RUN = """
import io, sys
from dforge import cli
rc = cli.main(sys.argv[1:], out=io.StringIO())
print(rc, *sorted(m[len("dforge."):] for m in sys.modules
                  if m.startswith("dforge.")))
"""


def _fresh(code, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         cwd=ROOT, capture_output=True, text=True,
                         check=True)
    return res.stdout


def test_import_cli_loads_only_the_cli():
    out = _fresh("import sys, dforge.cli\n"
                 "print(*sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'dforge'))")
    assert out.split() == ["dforge", "dforge.cli"]


@pytest.mark.parametrize("argv, unused", [
    (["census", "--q", "3", "--f", "0,1"],
     {"series", "drinfeld", "skew", "linalg", "tate", "reduction", "weil",
      "selftest"}),
    (["tate", "--q", "3", "--f", "0,1", "--N", "9"],
     {"cusps", "reduction", "weil", "selftest"}),
    (["reduce", str(ROOT / "docs" / "reduce_input_example.json")],
     {"cusps", "tate", "weil", "selftest"}),
], ids=["census", "tate", "reduce"])
def test_command_loads_only_its_modules(argv, unused):
    rc, *loaded = _fresh(_RUN, *argv).split()
    assert rc == "0"
    assert "cli" in loaded and not unused & set(loaded), loaded


def test_public_names_resolve_lazily():
    out = _fresh("""
import importlib, json, sys
import dforge
before = sorted(m for m in sys.modules if m.startswith("dforge."))
same = all(getattr(dforge, name) is
           getattr(importlib.import_module("dforge." + mod), name)
           for mod, names in dforge._EXPORTS.items() for name in names)
try:
    dforge.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"before": before, "same": same, "unknown": unknown,
                  "dir": sorted(set(dforge.__all__) - set(dir(dforge)))}))
""")
    doc = json.loads(out)
    assert doc["before"] == []
    assert doc["same"] is True
    assert doc["unknown"] == \
        "module 'dforge' has no attribute 'no_such_name'"
    assert doc["dir"] == []


def test_from_import_and_star_import():
    out = _fresh("from dforge import census, tate_module, __version__\n"
                 "from dforge import *\n"
                 "print(census.__module__, tate_module.__module__, "
                 "__version__, NoLattice.__module__)")
    assert out.split() == ["dforge.cusps", "dforge.tate", "0.1.0",
                           "dforge.reduction"]
