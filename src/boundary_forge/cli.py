"""Command line interface.

Problems are JSON files: a `kind` selecting the pipeline, the operator
matrices for that kind, and optional settings.  Polynomial entries are
arrays of rational strings indexed by the power of the differentiation
symbol, so the file format carries exact rationals and no expression
grammar.  Example (first-order transmission-line coupling):

    {"kind": "skew_adjoint",
     "J": [[["0"], ["0", "1"]],
           [["0", "1"], ["0"]]]}

Subcommands build on each other: `check` validates, `boundary` adds the
synthesized boundary maps, `split` adds the power split (or the doubled
two-point form with --two-point), `realize` adds the state realization,
`verify` runs the exact verification suites, and `report` runs everything.

After parsing, only the build step `_build` reads the problem's kind.  It
evaluates the conditions and, unless they fail or the subcommand is
`check` (which synthesizes nothing), also returns the boundary section,
the pairing to split, the structure to realize and the verification
suite, from which `run` assembles the report.

Exit status: 0 when everything requested passed, 1 when a validation
condition, verification residual, split, or realization failed, 2 on usage
or problem-file errors.
"""

from __future__ import annotations

import argparse
import json
import math
import reprlib
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .algebra import Poly, PolyMatrix, RatMatrix
from .constrained import constrained_boundary
from .dirac import (
    DEFAULT_SPLIT_TOLERANCE,
    BoundaryStructure,
    ConditionReport,
    DiracPair,
    SplitToleranceError,
    UnbalancedSignatureError,
    _power_split,
    _skew_adjoint_boundary,
    boundary_structure,
    dirac_condition_reports,
    two_point_form,
    validate_skew_adjoint,
)
from .harness import (
    DEFAULT_DEGREES,
    DEFAULT_TRIALS,
    constrained_suite,
    dirac_suite,
    lagrange_suite,
)
from .lagrange import LagrangePair, lagrange_boundary, lagrange_condition_reports
from .realize import (
    NoneFoundError,
    NonUniqueSolutionError,
    SwapIndexError,
    UnsolvableError,
    partition_search,
    realize,
    verify_realization_structure,
)
from .twovar import TwoVarPolyMatrix

__all__ = [
    "ParseError",
    "ShapeError",
    "SplitKindError",
    "ProblemFile",
    "RunOptions",
    "parse_problem",
    "parse_problem_data",
    "run",
    "main",
    "console_main",
]

SCHEMA_VERSION = "1.0.0"
SUBCOMMANDS = ("check", "boundary", "split", "realize", "verify", "report")
KIND_MATRICES = {
    "dirac": ("F", "E"),
    "skew_adjoint": ("J",),
    "constrained": ("J", "G"),
    "lagrange": ("P", "S"),
}
CONVENTION_NOTE = (
    "Boundary forms are oriented so that d/dz [b1^T Sigma b2] = "
    "e1^T f2 + e2^T f1 holds on image-representation solutions; relative to "
    "the quotient of the operator-side form F(zeta)E(eta)^T + E(zeta)F(eta)^T "
    "this flips signs: Pi(zeta,eta) = -Pi_op(-zeta,-eta).")


class ParseError(ValueError):
    """Malformed problem file; the message names the offending field."""


class ShapeError(ParseError):
    """Structurally valid file whose matrix shapes do not fit its kind."""


class SplitKindError(ValueError):
    """`split` asked of a kind whose pairing is symplectic, not symmetric."""


@dataclass(frozen=True)
class ProblemFile:
    kind: str
    matrices: dict
    settings: dict


@dataclass(frozen=True)
class RunOptions:
    interval: tuple | None = None
    trials: int | None = None
    degree: int | None = None
    seed: int | None = None
    swap: tuple[int, ...] | None = None
    two_point: bool = False
    tolerance: float | None = None


# problem parsing ---------------------------------------------------------------


# Errors quote offending values through `reprlib`, which shortens long
# strings, numbers and arrays, so one bad entry gives one short line.
# Exponent notation is refused before `Fraction` sees it: "1e10000000" would
# make it build 10**10000000.
def _parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ParseError(f"{where}: expected a rational string, "
                         f"got {reprlib.repr(value)}")
    text = str(value)
    if "e" in text or "E" in text:
        raise ParseError(f"{where}: exponent notation is not accepted: "
                         f"{reprlib.repr(value)}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: not a rational number: "
                         f"{reprlib.repr(value)}") from exc


def _parse_poly(value, where: str) -> Poly:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected an array of coefficients, "
                         f"got {reprlib.repr(value)}")
    return Poly([_parse_rational(c, f"{where}[{k}]") for k, c in enumerate(value)])


def _parse_matrix(value, where: str) -> PolyMatrix:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{where}: expected a non-empty array of rows")
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ParseError(f"{where}[{i}]: expected a non-empty array of entries")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ShapeError(f"{where}[{i}]: row has {len(row)} entries, "
                             f"expected {width}")
        rows.append([_parse_poly(e, f"{where}[{i}][{j}]")
                     for j, e in enumerate(row)])
    return PolyMatrix.from_rows(rows)


def _parse_settings(data: dict) -> dict:
    settings = {}
    raw = data.get("settings", {})
    if not isinstance(raw, dict):
        raise ParseError("settings: expected an object")
    allowed = {"interval", "degree", "trials", "seed", "tolerance"}
    for key in raw:
        if key not in allowed:
            raise ParseError(f"settings.{key}: unknown setting")
    if "interval" in raw:
        iv = raw["interval"]
        if not isinstance(iv, list) or len(iv) != 2:
            raise ParseError("settings.interval: expected [alpha, beta]")
        a = _parse_rational(iv[0], "settings.interval[0]")
        b = _parse_rational(iv[1], "settings.interval[1]")
        if not a < b:
            raise ParseError("settings.interval: alpha must be less than beta")
        settings["interval"] = (a, b)
    for key, minimum in (("degree", 0), ("trials", 1), ("seed", None)):
        if key in raw:
            v = raw[key]
            if isinstance(v, bool) or not isinstance(v, int):
                raise ParseError(f"settings.{key}: expected an integer")
            if minimum is not None and v < minimum:
                raise ParseError(f"settings.{key}: must be at least {minimum}")
            settings[key] = v
    if "tolerance" in raw:
        v = raw["tolerance"]
        # NaN fails both comparisons; an int beyond the float range is not
        # finite either
        if (not isinstance(v, (int, float)) or isinstance(v, bool)
                or not 0 < v <= sys.float_info.max):
            raise ParseError("settings.tolerance: expected a positive finite "
                             "number")
        settings["tolerance"] = float(v)
    return settings


def parse_problem_data(data, where: str = "problem") -> ProblemFile:
    """Validate an already-decoded problem object."""
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected an object at the top level")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in KIND_MATRICES:
        raise ParseError(f"{where}.kind: expected one of "
                         f"{sorted(KIND_MATRICES)}, got {reprlib.repr(kind)}")
    required = KIND_MATRICES[kind]
    known = set(required) | {"kind", "settings"}
    for key in data:
        if key not in known:
            raise ParseError(f"{where}.{key}: unexpected field for kind {kind}")
    matrices = {}
    for name in required:
        if name not in data:
            raise ParseError(f"{where}.{name}: required for kind {kind}")
        matrices[name] = _parse_matrix(data[name], name)
    _check_shapes(kind, matrices)
    return ProblemFile(kind, matrices, _parse_settings(data))


def _check_shapes(kind: str, matrices: dict) -> None:
    names = KIND_MATRICES[kind]
    for name in names:  # every operator but the constraint G is square
        m = matrices[name]
        if name != "G" and m.rows != m.cols:
            raise ShapeError(f"{name}: must be square, got {m.rows}x{m.cols}")
    if kind in ("dirac", "lagrange"):
        first, second = names
        if matrices[first].shape != matrices[second].shape:
            raise ShapeError(f"{first} and {second} must have equal size, got "
                             f"{matrices[first].shape} and {matrices[second].shape}")
    elif kind == "constrained" and matrices["G"].cols != matrices["J"].rows:
        raise ShapeError(f"G: width {matrices['G'].cols} does not match "
                         f"the effort dimension {matrices['J'].rows}")


def parse_problem(path: str) -> ProblemFile:
    """Load and validate a problem file, with field-precise diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: nested too deeply to decode") from exc
    except ValueError as exc:
        # an integer literal beyond the interpreter's digit limit (checked
        # after the subclasses above); its advice to raise the limit is cut
        raise ParseError(f"{path}: cannot decode: "
                         f"{str(exc).split(';')[0]}") from exc
    return parse_problem_data(data, where="problem")


# report serialization -----------------------------------------------------------


def _frac_str(value: Fraction) -> str:
    return str(Fraction(value))


def _poly_json(p: Poly) -> list:
    if p.is_zero:
        return ["0"]
    return [_frac_str(c) for c in p.coeffs]


def _poly_matrix_json(pm: PolyMatrix) -> list:
    return [[_poly_json(e) for e in row] for row in pm.entries]


def _rat_matrix_json(rm: RatMatrix) -> list:
    return [[_frac_str(v) for v in row] for row in rm.entries]


def _two_var_json(tv: TwoVarPolyMatrix) -> list:
    out = []
    for (k, l), block in sorted(tv.blocks.items()):
        out.append({"zeta_power": k, "eta_power": l,
                    "matrix": _rat_matrix_json(block)})
    return out


def _condition_json(report: ConditionReport) -> dict:
    entry = {"name": report.name, "passed": report.passed}
    if report.witness:
        entry["witness"] = report.witness
    return entry


# the build step -----------------------------------------------------------------


@dataclass(frozen=True)
class _Built:
    """The problem's kind and condition verdicts and, when they pass and
    the subcommand reports more than them, what the later sections use:
    the boundary section, the symmetric pairing to split (None for a
    symplectic one), the structure to realize, and the verification suite
    as a function of (trials, degrees, seed, interval)."""

    kind: str
    conditions: tuple
    boundary: dict | None = None
    pairing: BoundaryStructure | None = None
    target: object = None
    suite: object = None


def _build(subcommand: str, problem: ProblemFile, tolerance: float) -> _Built:
    """The one step after parsing that reads `problem.kind`.

    `check` stops after the conditions; every other subcommand also gets
    the synthesized pieces when the conditions pass.  Every factor_* call
    re-verifies its reconstruction before returning, which is what
    `reconstruction_verified` reports.
    """
    kind, mats = problem.kind, problem.matrices
    if kind == "dirac":
        conditions = dirac_condition_reports(mats["F"], mats["E"])
    elif kind == "lagrange":
        conditions = lagrange_condition_reports(mats["P"], mats["S"])
    else:
        conditions = (ConditionReport("skew_adjoint",
                                      *validate_skew_adjoint(mats["J"])),)
    if subcommand == "check" or not all(c.passed for c in conditions):
        return _Built(kind, conditions)
    if kind == "lagrange":
        target = lagrange_boundary(LagrangePair(mats["P"], mats["S"]))
        pairing, suite = None, partial(lagrange_suite, target)
        boundary = {"p": target.p, "Theta": _two_var_json(target.Theta),
                    "W": _poly_matrix_json(target.W)}
    elif kind == "constrained":
        c = constrained_boundary(mats["J"], mats["G"])
        pairing = target = c.j_structure
        suite = partial(constrained_suite, c)
        boundary = {
            "n_j": c.n_j,
            "n_g": c.n_g,
            "Z_J": _poly_matrix_json(c.Z_J),
            "Sigma_J": _rat_matrix_json(c.Sigma_J),
            "Z_G": _poly_matrix_json(c.Z_G),
            "V_G": _poly_matrix_json(c.V_G),
            "Pi_G": _rat_matrix_json(c.Pi_G),
            "inertia_J": list(pairing.inertia.as_tuple()),
        }
    else:
        # for skew_adjoint the condition above is the only check J needs
        pairing = target = (
            boundary_structure(DiracPair(mats["F"], mats["E"]))
            if kind == "dirac" else _skew_adjoint_boundary(mats["J"]))
        suite = partial(dirac_suite, pairing, split_tolerance=tolerance)
        boundary = {
            "n": pairing.n,
            "pi": _two_var_json(pairing.pi),
            "Z": _poly_matrix_json(pairing.Z),
            "Sigma": _rat_matrix_json(pairing.Sigma),
            "inertia": list(pairing.inertia.as_tuple()),
        }
    boundary["reconstruction_verified"] = True
    return _Built(kind, conditions, boundary, pairing, target, suite)


def _split_json(split) -> dict:
    return {"p": split.p, "residual": split.residual,
            "T": [[float(v) for v in row] for row in split.T]}


def _two_point_json(structure: BoundaryStructure, tolerance: float) -> dict:
    sigma2, split = two_point_form(structure, tolerance)
    return {"Sigma2": _rat_matrix_json(sigma2), **_split_json(split)}


def _split_section(structure: BoundaryStructure, tolerance: float,
                   two_point: bool, documenting: bool) -> tuple[dict, bool]:
    """Split data plus a pass verdict.  With `documenting` an unbalanced
    one-point split is described rather than failed."""
    section: dict = {"tolerance": tolerance, "two_point": two_point}
    try:
        if two_point:
            section.update(_two_point_json(structure, tolerance))
            return section, True
        try:
            split = _power_split(structure.Sigma, structure.inertia,
                                 tolerance)
        except UnbalancedSignatureError as exc:
            section["balanced"] = False
            section["inertia"] = list(exc.inertia.as_tuple())
            section["witness"] = str(exc)
            if not documenting:
                return section, False
            section["two_point_fallback"] = _two_point_json(structure,
                                                            tolerance)
            return section, True
    except SplitToleranceError as exc:
        # a tolerance below the roundoff of the float split
        section.update(failed=True, witness=str(exc))
        return section, False
    section.update(balanced=True, **_split_json(split))
    return section, True


def _realization_section(target, swap: tuple[int, ...] | None
                         ) -> tuple[dict, bool]:
    section: dict = {}
    try:
        if swap is None:
            realization = partition_search(target).realization
            section["swap_searched"] = True
        else:
            realization = realize(target, swap=swap)
    except (UnsolvableError, NonUniqueSolutionError, NoneFoundError) as exc:
        section.update(failed=True, witness=str(exc))
        if swap is not None:
            section["swap"] = list(swap)
        return section, False
    report = verify_realization_structure(realization)
    section.update({
        "kind": realization.kind,
        "swap": list(realization.swap),
        "n": realization.n,
        "m": realization.m,
        "A": _rat_matrix_json(realization.A),
        "B": _rat_matrix_json(realization.B),
        "C": _rat_matrix_json(realization.C),
        "D": _rat_matrix_json(realization.D),
        "Sigma": _rat_matrix_json(realization.Sigma),
        "identities": [{"name": c.name, "residual": _frac_str(c.residual),
                        "passed": c.passed} for c in report.checks],
        "identities_pass": report.all_pass,
    })
    return section, report.all_pass


def _verification_section(problem: ProblemFile, suite, options: RunOptions
                          ) -> tuple[dict, bool]:
    settings = problem.settings
    trials = options.trials or settings.get("trials") or DEFAULT_TRIALS
    seed = options.seed if options.seed is not None else settings.get("seed", 0)
    degree = options.degree if options.degree is not None else settings.get("degree")
    degrees = (degree,) if degree is not None else DEFAULT_DEGREES
    interval = options.interval or settings.get("interval")
    section: dict = {"trials": trials, "seed": seed, "degrees": list(degrees)}
    try:
        reports = suite(trials, degrees, seed, interval)
    except SplitToleranceError as exc:
        section.update(failed=True, witness=str(exc), checks=[])
        return section, False
    section["checks"] = [_check_json(r) for r in reports]
    return section, all(r.all_pass for r in reports)


def _check_json(r) -> dict:
    entry = {
        "check": r.check,
        "instance": r.instance,
        "trials": r.trials,
        "max_residual": _frac_str(max((abs(x) for x in r.residuals),
                                      default=Fraction(0))),
        "all_zero": r.all_zero,
        "elapsed": r.elapsed,
        "passed": r.all_pass,
    }
    if r.split_tolerance is not None:
        entry["max_split_deviation"] = max(r.split_deviations, default=0.0)
        entry["split_tolerance"] = r.split_tolerance
    return entry


# dispatch -----------------------------------------------------------------------


def run(subcommand: str, problem: ProblemFile, options: RunOptions) -> dict:
    """Execute a subcommand and return the report dictionary.

    The report always carries `schema_version`, the convention note, the
    condition verdicts, and an `exit_status` field implementing the 0/1
    contract (2 never appears here; usage errors are raised before run).
    """
    if subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    started = time.perf_counter()
    tolerance = (options.tolerance or problem.settings.get("tolerance")
                 or DEFAULT_SPLIT_TOLERANCE)
    built = _build(subcommand, problem, tolerance)
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "kind": built.kind,
        "convention_note": CONVENTION_NOTE,
        "conditions": [_condition_json(c) for c in built.conditions],
    }
    passed = all(c.passed for c in built.conditions)
    if built.boundary is not None:
        report["boundary"] = built.boundary
        if subcommand in ("split", "report"):
            if built.pairing is not None:
                section, ok = _split_section(
                    built.pairing, tolerance, options.two_point,
                    documenting=subcommand == "report")
                report["split"] = section
                passed = passed and ok
            elif subcommand == "split":
                raise SplitKindError(
                    "split applies to symmetric boundary pairings; this kind "
                    "carries a symplectic pairing (always in canonical form)")
        if subcommand in ("realize", "report"):
            section, ok = _realization_section(built.target, options.swap)
            report["realization"] = section
            passed = passed and ok
        if subcommand in ("verify", "report"):
            section, ok = _verification_section(problem, built.suite,
                                                options)
            report["verification"] = section
            passed = passed and ok

    report["elapsed"] = time.perf_counter() - started
    report["exit_status"] = 0 if passed else 1
    return report


# rendering ----------------------------------------------------------------------


def _render_matrix_lines(name: str, rows: list) -> list[str]:
    out = [f"  {name} ="]
    for row in rows:
        cells = []
        for entry in row:
            if isinstance(entry, list):
                cells.append(str(Poly([Fraction(c) for c in entry])))
            else:
                cells.append(str(entry))
        out.append("      [" + ", ".join(cells) + "]")
    return out


def render_text(report: dict) -> str:
    lines = [f"boundary-forge {report['subcommand']} (kind {report['kind']})"]
    lines.append("conditions:")
    for c in report["conditions"]:
        tag = "pass" if c["passed"] else "FAIL"
        witness = f" — {c['witness']}" if c.get("witness") else ""
        lines.append(f"  [{tag}] {c['name']}{witness}")
    boundary = report.get("boundary")
    if boundary:
        sizes = [f"{k}={tuple(v) if isinstance(v, list) else v}"
                 for k, v in boundary.items()
                 if k in ("n", "inertia", "n_j", "n_g", "inertia_J", "p")]
        lines.append("boundary: " + " ".join(sizes))
        for name in ("Z", "Sigma", "Z_J", "Sigma_J", "Z_G", "V_G", "W"):
            if name in boundary:
                lines.extend(_render_matrix_lines(name, boundary[name]))
    split = report.get("split")
    if split:
        if split.get("failed"):
            lines.append(f"split: FAILED — {split['witness']}")
        elif split.get("two_point"):
            lines.append(f"split (two-point): p={split['p']} "
                         f"residual={split['residual']:.3e}")
        elif split.get("balanced"):
            lines.append(f"split: p={split['p']} residual={split['residual']:.3e}")
        else:
            lines.append(f"split: unbalanced signature "
                         f"{tuple(split['inertia'])}"
                         + (" (two-point form included)"
                            if "two_point_fallback" in split else ""))
    realization = report.get("realization")
    if realization:
        if realization.get("failed"):
            lines.append(f"realization: FAILED — {realization['witness']}")
        else:
            lines.append(f"realization: n={realization['n']} m={realization['m']} "
                         f"swap={realization['swap']}")
            for name in ("A", "B", "C", "D"):
                lines.extend(_render_matrix_lines(name, realization[name]))
            for ident in realization["identities"]:
                tag = "pass" if ident["passed"] else "FAIL"
                lines.append(f"  [{tag}] {ident['name']} "
                             f"(residual {ident['residual']})")
    verification = report.get("verification")
    if verification:
        lines.append(f"verification: {verification['trials']} trials, "
                     f"degrees {verification['degrees']}, "
                     f"seed {verification['seed']}")
        if verification.get("failed"):
            lines.append(f"  FAILED — {verification['witness']}")
        for entry in verification["checks"]:
            tag = "pass" if entry["passed"] else "FAIL"
            extra = ""
            if "max_split_deviation" in entry:
                extra = (f", max split deviation "
                         f"{entry['max_split_deviation']:.3e}")
            lines.append(f"  [{tag}] {entry['check']}: "
                         f"max residual {entry['max_residual']}{extra}")
    lines.append(f"note: {report['convention_note']}")
    lines.append(f"exit status {report['exit_status']}")
    return "\n".join(lines)


# entry points -------------------------------------------------------------------


def _parse_swap(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(sorted({int(part) for part in text.split(",")}))
    except ValueError as exc:
        raise ParseError(f"--swap: expected comma-separated integers, "
                         f"got {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundary-forge",
        description="Exact boundary-structure synthesis and verification "
                    "for differential operator pairs on an interval.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("problem", help="path to a JSON problem file")
    parser.add_argument("--interval", nargs=2, metavar=("A", "B"),
                        help="integration interval endpoints (rationals)")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--degree", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--swap", type=str, default=None,
                        help="comma-separated 1-based ports to role-swap "
                             "(empty string forces the direct roles)")
    parser.add_argument("--two-point", action="store_true")
    parser.add_argument("--tolerance", type=float)
    parser.add_argument("--format", choices=("text", "structured"),
                        default="text")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        problem = parse_problem(args.problem)
        interval = None
        if args.interval is not None:
            a = _parse_rational(args.interval[0], "--interval A")
            b = _parse_rational(args.interval[1], "--interval B")
            if not a < b:
                raise ParseError("--interval: A must be less than B")
            interval = (a, b)
        if args.trials is not None and args.trials < 1:
            raise ParseError("--trials: must be at least 1")
        if args.degree is not None and args.degree < 0:
            raise ParseError("--degree: must be nonnegative")
        if args.tolerance is not None and not (
                args.tolerance > 0 and math.isfinite(args.tolerance)):
            raise ParseError("--tolerance: must be positive and finite")
        options = RunOptions(
            interval=interval,
            trials=args.trials,
            degree=args.degree,
            seed=args.seed,
            swap=_parse_swap(args.swap) if args.swap is not None else None,
            two_point=args.two_point,
            tolerance=args.tolerance,
        )
        report = run(args.subcommand, problem, options)
    except (ParseError, SplitKindError, SwapIndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "structured":
        print(json.dumps(report, indent=2))
    else:
        print(render_text(report))
    return report["exit_status"]


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
