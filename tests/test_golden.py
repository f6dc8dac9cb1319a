"""Golden structured output of the CLI on every repository problem file.

`golden_reports.json` holds `cli.run(sub, problem, RunOptions())` for the
subcommands below on each `problems/*.json`, with every `elapsed` field
removed.  Any change to Z, Sigma, inertia, A-D, witnesses, residuals,
instance descriptions or exit statuses shows up here as a mismatch.

Floats (the split matrix `T`, split residuals and deviations) are read
off the exact congruence with `math.sqrt`, one correctly rounded step per
entry, but the trial deviations add floats with the built-in `sum`, whose
rounding differs between Python versions.  So floats are compared with a
relative tolerance of 1e-12, and values at roundoff level (below 1e-15 in
magnitude) absolutely at that level.  Everything else is compared exactly,
types included.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import importlib
import json
import math
import os

import pytest

from boundary_forge.cli import RunOptions, parse_problem, run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEMS = os.path.join(ROOT, "problems")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_reports.json")
SUBCOMMANDS = ("check", "boundary", "realize", "report")


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def collect() -> dict:
    """Stripped reports keyed by problem file name, then subcommand."""
    out = {}
    for name in sorted(os.listdir(PROBLEMS)):
        if not name.endswith(".json"):
            continue
        problem = parse_problem(os.path.join(PROBLEMS, name))
        out[name] = {}
        for sub in SUBCOMMANDS:
            report = run(sub, problem, RunOptions())
            # a JSON round trip gives the types the emitted report has
            out[name][sub] = _strip_elapsed(json.loads(json.dumps(report)))
    return out


def _mismatches(expected, actual, where="$"):
    if isinstance(expected, float) and isinstance(actual, float):
        if not math.isclose(expected, actual, rel_tol=1e-12, abs_tol=1e-15):
            yield f"{where}: {expected!r} != {actual!r}"
    elif type(expected) is not type(actual):
        yield f"{where}: type {type(expected).__name__} != {type(actual).__name__}"
    elif isinstance(expected, dict):
        if list(expected) != list(actual):
            yield f"{where}: keys {list(expected)} != {list(actual)}"
        else:
            for key in expected:
                yield from _mismatches(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            yield f"{where}: length {len(expected)} != {len(actual)}"
        else:
            for i, (e, a) in enumerate(zip(expected, actual)):
                yield from _mismatches(e, a, f"{where}[{i}]")
    elif expected != actual:
        yield f"{where}: {expected!r} != {actual!r}"


def test_reports_match_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    problems = sorted(n for n in os.listdir(PROBLEMS) if n.endswith(".json"))
    assert sorted(golden) == problems
    mismatches = list(_mismatches(golden, collect()))
    assert not mismatches, "\n".join(mismatches[:20])


class _Synthesized(Exception):
    pass


def test_check_synthesizes_nothing(monkeypatch):
    # every boundary synthesis divides by zeta + eta; with that division
    # raising, `check` must still give its golden report
    def forbidden(phi):
        raise _Synthesized

    for name in ("dirac", "lagrange", "constrained"):
        monkeypatch.setattr(importlib.import_module(f"boundary_forge.{name}"),
                            "div_zeta_plus_eta", forbidden)
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    reached = 0
    for name in sorted(golden):
        problem = parse_problem(os.path.join(PROBLEMS, name))
        report = run("check", problem, RunOptions())
        stripped = _strip_elapsed(json.loads(json.dumps(report)))
        mismatches = list(_mismatches(golden[name]["check"], stripped))
        assert not mismatches, "\n".join(mismatches)
        if report["exit_status"] == 0:
            # the patch is live: one subcommand further reaches it
            with pytest.raises(_Synthesized):
                run("boundary", problem, RunOptions())
            reached += 1
    assert reached == len(golden) - 1


def test_mismatch_detector_tolerances():
    assert not list(_mismatches({"T": [[0.5]]}, {"T": [[0.5 * (1 + 1e-14)]]}))
    assert list(_mismatches({"T": [[0.5]]}, {"T": [[0.5 * (1 + 1e-10)]]}))
    assert list(_mismatches({"n": 2}, {"n": 2.0}))
    assert list(_mismatches({"a": 1, "b": 2}, {"b": 2, "a": 1}))
    assert list(_mismatches(["1/2"], ["1/3"]))


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(collect(), handle, indent=1)
        handle.write("\n")
