"""The package must not load a test-only dependency, or `numpy`, at run
time.

`sympy`, `hypothesis` and `scipy` serve the oracles and the property tests
only.  A fresh interpreter that imports the CLI (and with it the whole
package) must leave all three out of `sys.modules`.  The package has no
runtime dependency at all: its one float step, the power split, needs
only `math`, so `numpy` must stay out as well.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
TEST_ONLY = ("sympy", "hypothesis", "scipy")


def probe(names) -> str:
    """Source that imports the CLI and prints which of `names` it loaded."""
    return f"""
import sys
import boundary_forge.cli
print(sorted(name for name in {tuple(names)!r}
             if any(m == name or m.startswith(name + ".") for m in sys.modules)))
"""


PROBE = probe(TEST_ONLY)


def loaded_after(source: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", source], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_loads_no_test_only_dependency():
    assert loaded_after(PROBE) == "[]"


def test_probe_sees_a_loaded_dependency():
    assert loaded_after("import hypothesis\n" + PROBE) == "['hypothesis']"


def test_cli_import_loads_no_numpy():
    assert loaded_after(probe(("numpy",))) == "[]"
