"""The input contract of the CLI under mutated problem files and options.

The first test takes one file of `problems/`, replaces one of its JSON nodes
(the whole document, an object, a list or a leaf) with a small arbitrary
JSON value, and runs a subcommand on it.  Whatever the input, the CLI must
end with status 0, 1 or 2 and raise nothing (an escaped exception is a
traceback), and on status 2 it must print exactly one `error: ...` line to
standard error.  Numbers are kept small so that no mutation asks for a
long run.

The second test runs a subcommand on an unchanged file of `problems/` with
up to four options, whose values come from a pool of valid and malformed
strings.  It asks for the same exit statuses, and on status 2 the last line
of standard error (argparse prints its usage before it) must name the
subcommand or an option that was given.  `--trials` is capped at 20 and
`--degree` at 6, so that no draw asks for a long run.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from boundary_forge.cli import SUBCOMMANDS, main

PROBLEMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "problems")
FILES = sorted(name for name in os.listdir(PROBLEMS) if name.endswith(".json"))
FIELDS = ("kind", "J", "G", "F", "E", "P", "S", "settings", "interval",
          "trials", "degree", "seed", "tolerance")

leaves = (st.none() | st.booleans() | st.integers(-3, 6)
          | st.floats(-4, 4) | st.sampled_from([float("nan"), float("inf")])
          | st.sampled_from(["0", "1", "-1", "1/2", "2/0", "s", "", "dirac",
                             "skew_adjoint", "lagrange", "constrained"])
          | st.text(max_size=3))
values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=2),
                                     inner, max_size=3)),
    max_leaves=8)


def paths(node, here=()):
    """Every position in a JSON document, the root first."""
    yield here
    if isinstance(node, dict):
        for key, child in node.items():
            yield from paths(child, here + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from paths(child, here + (i,))


def replaced(node, path, value):
    if not path:
        return value
    out = dict(node) if isinstance(node, dict) else list(node)
    out[path[0]] = replaced(node[path[0]], path[1:], value)
    return out


def load(name):
    with open(os.path.join(PROBLEMS, name), encoding="utf-8") as handle:
        return json.load(handle)


@st.composite
def mutated_problems(draw):
    data = load(draw(st.sampled_from(FILES)))
    path = draw(st.sampled_from(list(paths(data))))
    return replaced(data, path, draw(values))


@settings(max_examples=120, deadline=None)
@given(mutated_problems(), st.sampled_from(SUBCOMMANDS))
def test_mutated_problem_exits_0_1_or_2_with_one_error_line(data, subcommand):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([subcommand, path, "--trials", "2"])
    assert status in (0, 1, 2)
    if status == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


OPTION_VALUES = ("0", "1", "2", "-1", "1/2", "-3/4", "1/0", "1e3", "nan", "inf",
                 "-inf", "0x10", "", " ", "1,,2", "1,2", "2,1,2", "x",
                 "1234567890123456789012345", "-1234567890123456789012345",
                 "\u0663", "\uff11", "1_0", " 2 ", "text", "structured")
CAPS = {"--trials": 20, "--degree": 6}
OPTIONS = ("--interval", "--trials", "--degree", "--seed", "--swap",
           "--two-point", "--tolerance", "--format")


def capped(option, value):
    """`value`, or the cap of `option` when argparse would read a larger
    integer from it (``int`` accepts signs, spaces, underscores and
    non-ASCII digits)."""
    try:
        number = int(value)
    except ValueError:
        return value
    return str(CAPS[option]) if option in CAPS and number > CAPS[option] else value


@st.composite
def option_lists(draw):
    argv = []
    for option in draw(st.lists(st.sampled_from(OPTIONS), max_size=4)):
        argv.append(option)
        if option == "--interval":
            argv += draw(st.lists(st.sampled_from(OPTION_VALUES), min_size=2,
                                  max_size=2))
        elif option != "--two-point":
            argv.append(capped(option, draw(st.sampled_from(OPTION_VALUES))))
    return argv


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SUBCOMMANDS), st.sampled_from(FILES), option_lists())
# a port outside 1..m is found only once the problem is read
@example("realize", "scalar_derivative.json", ["--swap", "3"])
def test_fuzzed_options_exit_0_1_or_2_naming_the_culprit(subcommand, name,
                                                         options):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([subcommand, os.path.join(PROBLEMS, name)] + options)
    assert status in (0, 1, 2)
    if status == 2:
        assert out.getvalue() == ""
        last = err.getvalue().splitlines()[-1]
        assert "error: " in last
        named = [subcommand] + [word for word in options if word in OPTIONS]
        assert any(word in last for word in named), last
    else:
        assert err.getvalue() == ""
