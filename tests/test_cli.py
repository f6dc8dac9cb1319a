"""Problem file parsing, subcommand behavior, exit statuses, and the
structured report format."""

import json
from fractions import Fraction

import pytest

from boundary_forge import cli as cli_module
from boundary_forge.algebra import InconsistentSystemError
from boundary_forge.cli import (
    CONVENTION_NOTE,
    SCHEMA_VERSION,
    ParseError,
    RunOptions,
    ShapeError,
    main,
    parse_problem,
    parse_problem_data,
    render_text,
    run,
)

COUPLING = {
    "kind": "skew_adjoint",
    "J": [[["0"], ["0", "1"]], [["0", "1"], ["0"]]],
}

SCALAR_DERIVATIVE = {
    "kind": "dirac",
    "F": [[["0", "1"]]],
    "E": [[["1"]]],
}

STORAGE = {
    "kind": "lagrange",
    "P": [[["1"]]],
    "S": [[["0", "0", "1"]]],
}

CONSTRAINED = {
    "kind": "constrained",
    "J": [[["0"], ["0", "1"]], [["0", "1"], ["0"]]],
    "G": [[["0", "1"], ["0"]]],
}


def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# parsing ------------------------------------------------------------------


def test_parse_problem_data_round():
    problem = parse_problem_data(COUPLING)
    assert problem.kind == "skew_adjoint"
    assert problem.matrices["J"].shape == (2, 2)


def test_parse_rejects_unknown_kind():
    with pytest.raises(ParseError):
        parse_problem_data({"kind": "mystery", "J": [[["1"]]]})


@pytest.mark.parametrize("kind", [[], {}, ["dirac"], {"dirac": 1}])
def test_unhashable_kind_exits_2_naming_the_field(tmp_path, capsys, kind):
    path = write_problem(tmp_path, {"kind": kind, "J": [[["0"]]]})
    for subcommand in ("check", "report"):
        assert main([subcommand, path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "problem.kind" in err and "Traceback" not in err


def test_parse_rejects_unknown_field():
    data = dict(COUPLING)
    data["extra"] = 1
    with pytest.raises(ParseError):
        parse_problem_data(data)


def test_parse_rejects_missing_matrix():
    with pytest.raises(ParseError):
        parse_problem_data({"kind": "dirac", "F": [[["1"]]]})


def test_parse_rejects_zero_denominator():
    with pytest.raises(ParseError):
        parse_problem_data({"kind": "skew_adjoint", "J": [[["1/0"]]]})


def test_parse_rejects_floats_and_bools():
    with pytest.raises(ParseError):
        parse_problem_data({"kind": "skew_adjoint", "J": [[[0.5]]]})
    with pytest.raises(ParseError):
        parse_problem_data({"kind": "skew_adjoint", "J": [[[True]]]})


def test_parse_accepts_integer_coefficients():
    problem = parse_problem_data({"kind": "skew_adjoint",
                                  "J": [[[0, 1]], ]})
    assert problem.matrices["J"].shape == (1, 1)


def test_parse_rejects_ragged_matrix():
    data = {"kind": "dirac",
            "F": [[["1"], ["0"]], [["0"]]],
            "E": [[["1"], ["0"]], [["0"], ["1"]]]}
    with pytest.raises(ShapeError):
        parse_problem_data(data)


def test_parse_rejects_nonsquare_operator():
    data = {"kind": "dirac",
            "F": [[["1"], ["0"], ["0"]], [["0"], ["1"], ["0"]]],
            "E": [[["1"], ["0"], ["0"]], [["0"], ["1"], ["0"]]]}
    with pytest.raises(ShapeError):
        parse_problem_data(data)


def test_parse_rejects_pair_shape_mismatch():
    data = {"kind": "dirac", "F": [[["1"]]],
            "E": [[["1"], ["0"]], [["0"], ["1"]]]}
    with pytest.raises(ShapeError):
        parse_problem_data(data)


def test_parse_rejects_constraint_width_mismatch():
    data = {"kind": "constrained", "J": [[["0", "1"]]],
            "G": [[["1"], ["0"]]]}
    with pytest.raises(ShapeError):
        parse_problem_data(data)


def test_parse_settings_validated():
    good = dict(COUPLING, settings={"interval": ["0", "1"], "trials": 3,
                                    "degree": 2, "seed": 1,
                                    "tolerance": 1e-8})
    problem = parse_problem_data(good)
    assert problem.settings["interval"] == (Fraction(0), Fraction(1))
    with pytest.raises(ParseError):
        parse_problem_data(dict(COUPLING, settings={"interval": ["1", "0"]}))
    with pytest.raises(ParseError):
        parse_problem_data(dict(COUPLING, settings={"trials": 0}))
    with pytest.raises(ParseError):
        parse_problem_data(dict(COUPLING, settings={"unknown": 1}))


def test_parse_problem_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        parse_problem(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError) as err:
        parse_problem(str(bad))
    assert "line" in str(err.value)


# run ----------------------------------------------------------------------


def test_run_report_structure():
    problem = parse_problem_data(COUPLING)
    report = run("report", problem, RunOptions(trials=5))
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["kind"] == "skew_adjoint"
    assert report["convention_note"] == CONVENTION_NOTE
    assert report["exit_status"] == 0
    assert report["boundary"]["n"] == 2
    assert report["boundary"]["reconstruction_verified"] is True
    assert report["split"]["balanced"] is True
    assert report["realization"]["identities_pass"] is True
    checks = {entry["check"] for entry in report["verification"]["checks"]}
    assert checks == {"dirac_form", "power_balance"}
    # everything in the structured report must be plain JSON data
    assert json.loads(json.dumps(report)) == report


def test_run_split_on_lagrange_is_usage_error():
    problem = parse_problem_data(STORAGE)
    with pytest.raises(ValueError):
        run("split", problem, RunOptions())


def test_run_report_on_lagrange_skips_split():
    problem = parse_problem_data(STORAGE)
    report = run("report", problem, RunOptions(trials=5))
    assert "split" not in report
    assert report["boundary"]["p"] == 1
    assert report["exit_status"] == 0


def test_run_constrained_report():
    problem = parse_problem_data(CONSTRAINED)
    report = run("report", problem, RunOptions(trials=5))
    assert report["boundary"]["n_j"] == 2
    assert report["boundary"]["n_g"] == 1
    assert report["exit_status"] == 0


def test_run_unknown_subcommand():
    problem = parse_problem_data(COUPLING)
    with pytest.raises(ValueError):
        run("fix", problem, RunOptions())


def test_run_check_failure_sets_exit_one():
    problem = parse_problem_data({
        "kind": "dirac",
        "F": [[["0", "1"], ["0"]], [["0"], ["0"]]],
        "E": [[["0"], ["0"]], [["0"], ["0", "1"]]],
    })
    report = run("check", problem, RunOptions())
    assert report["exit_status"] == 1
    failed = [c for c in report["conditions"] if not c["passed"]]
    assert failed and failed[0]["name"] == "rank_condition"


def test_run_unbalanced_split_fails_but_two_point_passes():
    problem = parse_problem_data(SCALAR_DERIVATIVE)
    direct = run("split", problem, RunOptions())
    assert direct["exit_status"] == 1
    assert direct["split"]["balanced"] is False
    doubled = run("split", problem, RunOptions(two_point=True))
    assert doubled["exit_status"] == 0
    assert doubled["split"]["two_point"] is True


def test_run_report_documents_unbalanced_without_failing():
    problem = parse_problem_data(SCALAR_DERIVATIVE)
    report = run("report", problem, RunOptions(trials=5))
    assert report["split"]["balanced"] is False
    assert "two_point_fallback" in report["split"]
    assert report["exit_status"] == 0


def test_run_realize_swap_handling():
    problem = parse_problem_data(SCALAR_DERIVATIVE)
    # no explicit swap: the search finds the workable partition
    searched = run("realize", problem, RunOptions())
    assert searched["exit_status"] == 0
    assert searched["realization"]["swap"] == [1]
    forced = run("realize", problem, RunOptions(swap=(1,)))
    assert forced["exit_status"] == 0
    direct = run("realize", problem, RunOptions(swap=()))
    assert direct["exit_status"] == 1
    assert direct["realization"]["failed"] is True


def test_render_text_mentions_verdicts():
    problem = parse_problem_data(COUPLING)
    report = run("report", problem, RunOptions(trials=4))
    text = render_text(report)
    assert "[pass]" in text
    assert "exit status 0" in text


# main ----------------------------------------------------------------------


def test_main_exit_statuses(tmp_path, capsys):
    ok = write_problem(tmp_path, COUPLING, "ok.json")
    assert main(["check", ok]) == 0
    capsys.readouterr()

    bad_parse = write_problem(tmp_path, {"kind": "skew_adjoint",
                                         "J": [[["1/0"]]]}, "bad.json")
    assert main(["check", bad_parse]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    invalid = write_problem(tmp_path, {
        "kind": "dirac",
        "F": [[["0", "1"], ["0"]], [["0"], ["0"]]],
        "E": [[["0"], ["0"]], [["0"], ["0", "1"]]],
    }, "invalid.json")
    assert main(["check", invalid]) == 1
    capsys.readouterr()


def test_main_split_paths(tmp_path, capsys):
    scalar = write_problem(tmp_path, SCALAR_DERIVATIVE, "scalar.json")
    assert main(["split", scalar]) == 1
    capsys.readouterr()
    assert main(["split", scalar, "--two-point"]) == 0
    capsys.readouterr()
    storage = write_problem(tmp_path, STORAGE, "storage.json")
    assert main(["split", storage]) == 2
    capsys.readouterr()


def test_pairing_beyond_the_float_range_fails_the_split(tmp_path, capsys):
    # a 401-digit coefficient makes Sigma too large for a float
    c = str(10 ** 400 + 7)
    huge = write_problem(tmp_path, {
        "kind": "skew_adjoint",
        "J": [[["0"], ["0", c]], [["0", c], ["0"]]],
    })
    for subcommand, section in (("split", "split"), ("verify", "verification"),
                                ("report", "split")):
        code = main([subcommand, huge, "--trials", "2",
                     "--format", "structured"])
        out, err = capsys.readouterr()
        assert code == 1 and err == "", subcommand
        failed = json.loads(out)[section]
        assert failed["failed"] is True
        assert "exceeds the float range" in failed["witness"]


def test_main_structured_output_round_trips(tmp_path, capsys):
    ok = write_problem(tmp_path, COUPLING)
    code = main(["verify", ok, "--trials", "4", "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["exit_status"] == 0
    assert parsed["subcommand"] == "verify"


def test_main_option_validation(tmp_path, capsys):
    ok = write_problem(tmp_path, COUPLING)
    assert main(["verify", ok, "--trials", "0"]) == 2
    assert main(["verify", ok, "--interval", "2", "1"]) == 2
    assert main(["verify", ok, "--tolerance", "-1"]) == 2
    assert main(["realize", ok, "--swap", "x"]) == 2
    assert main(["realize", ok, "--swap", "3"]) == 2
    assert main(["frobnicate", ok]) == 2
    capsys.readouterr()


def test_library_error_is_not_reported_as_malformed_input(tmp_path,
                                                          monkeypatch):
    # an error that escapes a section is a defect of the program, not a
    # usage error, so it must not exit 2 as "error: ..."
    def broken_suite(*args, **kwargs):
        raise InconsistentSystemError("system has no solution")

    monkeypatch.setattr(cli_module, "dirac_suite", broken_suite)
    with pytest.raises(InconsistentSystemError):
        main(["verify", write_problem(tmp_path, COUPLING)])


def test_main_swap_option(tmp_path, capsys):
    scalar = write_problem(tmp_path, SCALAR_DERIVATIVE)
    assert main(["realize", scalar, "--swap", "1"]) == 0
    capsys.readouterr()
    # empty swap string forces the direct partition, which fails here
    assert main(["realize", scalar, "--swap", ""]) == 1
    capsys.readouterr()


def test_main_reads_repo_problem_files(capsys):
    assert main(["report", "problems/first_order_coupling.json",
                 "--trials", "4"]) == 0
    capsys.readouterr()
    assert main(["check", "problems/invalid_rank_drop.json"]) == 1
    capsys.readouterr()


def test_settings_tolerance_must_be_finite(tmp_path, capsys):
    # json reads NaN and Infinity; an int beyond the float range is not
    # finite either
    for value in (float("nan"), float("inf"), 10 ** 400):
        data = dict(COUPLING, settings={"tolerance": value})
        with pytest.raises(ParseError, match="settings.tolerance"):
            parse_problem_data(data)
        assert main(["report", write_problem(tmp_path, data)]) == 2
        assert "settings.tolerance" in capsys.readouterr().err


def test_main_tolerance_must_be_finite(tmp_path, capsys):
    ok = write_problem(tmp_path, COUPLING)
    for value in ("nan", "inf", "-inf"):
        assert main(["split", ok, "--tolerance", value]) == 2
        assert "--tolerance" in capsys.readouterr().err


def test_parse_problem_names_file_too_deep_to_decode(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"kind": "skew_adjoint", "J": ' + "[" * 100000)
    with pytest.raises(ParseError, match="nested too deeply") as err:
        parse_problem(str(deep))
    assert str(deep) in str(err.value)
    assert main(["check", str(deep)]) == 2
    assert str(deep) in capsys.readouterr().err


def test_parse_problem_names_non_utf8_file(tmp_path, capsys):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"kind": "skew_adjoint", "J": [[["\xff"]]]}')
    with pytest.raises(ParseError, match="not UTF-8") as err:
        parse_problem(str(latin))
    assert str(latin) in str(err.value)
    assert main(["check", str(latin)]) == 2
    assert str(latin) in capsys.readouterr().err


@pytest.mark.parametrize("entry,where", [
    ([[[[0] * 200_000]]], "J[0][0][0]"),     # an array for a coefficient
    ([[["1/0" + " " * 200_000]]], "J[0][0][0]"),  # a zero denominator
    ([[["x" * 200_000]]], "J[0][0][0]"),     # not a rational at all
    ([["s" * 200_000]], "J[0][0]"),          # a string for a polynomial
])
def test_bad_entry_error_is_one_short_line(tmp_path, capsys, entry, where):
    path = write_problem(tmp_path, {"kind": "skew_adjoint", "J": entry},
                         "huge.json")
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ")
    assert err.count("\n") == 1
    assert len(err) < 300


TINY_TOLERANCE_WITNESS = "exceeds tolerance 1.000e-300"
# sqrt(3)^2 rounds, so the split of this pairing has a nonzero residual
ROUNDING = {
    "kind": "skew_adjoint",
    "J": [[["0"], ["0", "3"]], [["0", "3"], ["0"]]],
}


@pytest.mark.parametrize("subcommand", ["split", "verify", "report"])
def test_tolerance_below_roundoff_is_reported(tmp_path, capsys, subcommand):
    ok = write_problem(tmp_path, ROUNDING)
    args = [subcommand, ok, "--trials", "2", "--tolerance", "1e-300"]
    assert main(args + ["--format", "structured"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["exit_status"] == 1
    section = report["split" if subcommand == "split" else "verification"]
    assert section["failed"] is True
    assert "split residual" in section["witness"]
    assert TINY_TOLERANCE_WITNESS in section["witness"]
    if subcommand == "report":
        assert report["split"]["failed"] is True
        assert "realization" in report
    assert main(args) == 1
    text = capsys.readouterr().out
    assert "FAILED" in text and TINY_TOLERANCE_WITNESS in text


def test_settings_tolerance_below_roundoff_is_reported(tmp_path, capsys):
    data = dict(ROUNDING, settings={"tolerance": 1e-300})
    assert main(["report", write_problem(tmp_path, data), "--trials", "2"]) == 1
    assert TINY_TOLERANCE_WITNESS in capsys.readouterr().out


def test_tolerance_below_roundoff_in_two_point_and_fallback_splits():
    # the doubled pairing of a one-port structure has a nonzero residual
    problem = parse_problem_data(SCALAR_DERIVATIVE)
    options = RunOptions(trials=2, tolerance=1e-300)
    two_point = run("split", problem, RunOptions(two_point=True, tolerance=1e-300))
    assert two_point["exit_status"] == 1
    assert two_point["split"]["failed"] is True
    report = run("report", problem, options)
    assert report["split"]["failed"] is True
    assert report["split"]["balanced"] is False
    assert TINY_TOLERANCE_WITNESS in report["split"]["witness"]
    assert TINY_TOLERANCE_WITNESS in render_text(report)


def test_default_tolerance_report_has_no_failure_fields():
    problem = parse_problem_data(COUPLING)
    report = run("report", problem, RunOptions(trials=2))
    assert "failed" not in report["split"]
    assert "failed" not in report["verification"]
    assert list(report["verification"]) == ["trials", "seed", "degrees",
                                            "checks"]


# numbers the parser refuses before converting them ---------------------------


@pytest.mark.parametrize("entry", ["1e10000000", "2E3", "-1/3e2"])
def test_matrix_entry_in_exponent_notation_is_refused(tmp_path, capsys, entry):
    # Fraction would build 10**exponent first; "1e10000000" took seconds
    path = write_problem(tmp_path, {"kind": "skew_adjoint", "J": [[[entry]]]})
    with pytest.raises(ParseError, match=r"J\[0\]\[0\]\[0\]: exponent"):
        parse_problem(path)
    assert main(["check", path]) == 2
    assert capsys.readouterr().err.startswith("error: J[0][0][0]: exponent")


def test_interval_in_exponent_notation_is_refused(tmp_path, capsys):
    ok = write_problem(tmp_path, COUPLING)
    assert main(["check", ok, "--interval", "0", "1e10000000"]) == 2
    assert capsys.readouterr().err.startswith("error: --interval B: exponent")
    data = dict(COUPLING, settings={"interval": ["1E2", "200"]})
    with pytest.raises(ParseError, match=r"settings\.interval\[0\]: exponent"):
        parse_problem_data(data)


@pytest.mark.parametrize("field", ["entry", "seed"])
def test_integer_literal_beyond_digit_limit_names_file(tmp_path, capsys, field):
    huge = "7" * 5000
    if field == "entry":
        text = '{"kind": "skew_adjoint", "J": [[[' + huge + ']]]}'
    else:
        text = ('{"kind": "skew_adjoint", "J": [[["0"]]], '
                '"settings": {"seed": ' + huge + '}}')
    path = tmp_path / "huge_literal.json"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        parse_problem(str(path))
    assert str(err.value).startswith(f"{path}: cannot decode")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
