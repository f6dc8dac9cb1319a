"""Per-layer measurement: a traced staged pipeline and an exact counting run.

The traced run calls the public stage functions of each layer in the order
`cli.run` uses them, with a span around every call, and checks that its
Z, Sigma, swap, A-D and verification verdicts equal those of `cli.run` on
the same problem.  Spans are kept in memory and written out at the end.
Nothing inside the package is instrumented.

The counting run executes the CLI entry point once per problem under the
standard-library profiler and reads exact call counts of named kernels.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import re
import statistics
import time
from fractions import Fraction

from boundary_forge import algebra, cli
from boundary_forge.algebra import PolyMatrix, inertia_congruence
from boundary_forge.constrained import (constrained_boundary,
                                        validate_skew_adjoint)
from boundary_forge.dirac import (DEFAULT_SPLIT_TOLERANCE, BoundaryStructure,
                                  DiracPair, UnbalancedSignatureError,
                                  canonical_power_split,
                                  dirac_condition_reports,
                                  image_representation, two_point_form)
from boundary_forge.harness import (DEFAULT_DEGREES, DEFAULT_TRIALS,
                                    constrained_suite, dirac_suite,
                                    lagrange_suite)
from boundary_forge.lagrange import (LagrangePair, lagrange_boundary,
                                     lagrange_condition_reports)
from boundary_forge.realize import (partition_search, realize,
                                    verify_realization_structure)
from boundary_forge.twovar import (TwoVarPolyMatrix, div_zeta_plus_eta,
                                   factor_symmetric)

LAYERS = ("cli", "dirac", "constrained", "lagrange", "twovar", "realize",
          "harness", "algebra")

# Stage spans reported as `<span>_s`, each the sum over a pass's problems.
STAGE_SPANS = (
    "constrained.validate", "dirac.validate", "lagrange.validate",
    "dirac.image_rep", "twovar.form", "twovar.divide", "twovar.factor",
    "algebra.inertia", "constrained.boundary", "lagrange.boundary",
    "dirac.split", "realize.search", "realize.realize", "realize.identities",
    "harness.verify",
)
CLI_SPANS = ("cli.parse", "cli.run", "cli.emit")

# The package re-exports the function `realize` under the module's name.
realize_mod = importlib.import_module("boundary_forge.realize")

# Kernels counted exactly by the profiler: metric name -> (owner, attribute).
COUNTED = {
    "det": (algebra.PolyMatrix, "det"),
    "full_rank": (algebra, "full_rank_everywhere"),
    "poly_mul": (algebra.Poly, "__mul__"),
    "inertia": (algebra, "inertia_congruence"),
    "solve_linear": (algebra, "solve_linear"),
    "realize": (realize_mod, "realize"),
    "partition_search": (realize_mod, "partition_search"),
    "identities": (realize_mod, "verify_realization_structure"),
}

_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


class Tracer:
    """Records spans (trace id, span id, parent id, name, start, end) and
    per-layer attempts and failures.  Disabled, it only calls through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.attempts = {layer: 0 for layer in LAYERS}
        self.failures = {layer: 0 for layer in LAYERS}
        self.trace_id = 0
        self.parent = None

    def open(self, trace_id, name):
        """Start the root span of one problem; later calls become its
        children until :meth:`close`."""
        self.trace_id = trace_id
        self.parent = len(self.spans)
        self.spans.append((trace_id, self.parent, None, name,
                           time.perf_counter(), None))
        return self.parent

    def close(self, span_id):
        trace_id, _, parent, name, start, _ = self.spans[span_id]
        self.spans[span_id] = (trace_id, span_id, parent, name, start,
                               time.perf_counter())
        self.parent = None

    def call(self, name, fn, *args, expected=()):
        if not self.enabled:
            return fn(*args)
        layer = name.split(".")[0]
        self.attempts[layer] += 1
        span_id = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()
        try:
            return fn(*args)
        except expected:
            raise
        except Exception:
            self.failures[layer] += 1
            raise
        finally:
            self.spans[span_id] = (self.trace_id, span_id, self.parent, name,
                                   start, time.perf_counter())


# -- serialization shared by the staged run and the cli report ----------------


def _poly(p):
    return [str(c) for c in p.coeffs] if not p.is_zero else ["0"]


def _pm(m):
    return [[_poly(e) for e in row] for row in m.entries]


def _rm(m):
    return [[str(v) for v in row] for row in m.entries]


def _residual(report):
    return str(max((abs(x) for x in report.residuals), default=Fraction(0)))


def cli_view(report: dict) -> dict:
    """The fields of a cli report that the staged run must reproduce."""
    view = {"conditions": [c["passed"] for c in report["conditions"]]}
    boundary = report.get("boundary")
    if boundary:
        view["boundary"] = {k: boundary[k] for k in
                            ("Z", "Sigma", "inertia", "W", "p", "Z_J",
                             "Sigma_J", "Z_G", "V_G") if k in boundary}
    realization = report.get("realization")
    if realization:
        view["realization"] = {k: realization.get(k) for k in
                               ("swap", "A", "B", "C", "D", "identities_pass")}
    verification = report.get("verification")
    if verification:
        view["verification"] = [(c["check"], c["max_residual"], c["passed"])
                                for c in verification["checks"]]
    return view


# -- the staged pipeline -----------------------------------------------------


def _boundary_structure(tr, pair):
    """`dirac.boundary_structure`, one span per public step."""
    rep = tr.call("dirac.image_rep", image_representation, pair)
    phi = tr.call("twovar.form", lambda: TwoVarPolyMatrix.outer(rep.N_e, rep.N_f)
                  + TwoVarPolyMatrix.outer(rep.N_f, rep.N_e))
    pi = tr.call("twovar.divide", div_zeta_plus_eta, phi)
    z, sigma = tr.call("twovar.factor", factor_symmetric, pi)
    inertia, _ = tr.call("algebra.inertia", inertia_congruence, sigma)
    return BoundaryStructure(pair, rep, pi, z, sigma, inertia)


def staged(tr, problem, trials, seed):
    """Run one parsed problem stage by stage; return (view, coeff_dim)."""
    kind, mats = problem.kind, problem.matrices
    settings = problem.settings
    trials = trials or settings.get("trials") or DEFAULT_TRIALS
    degree = settings.get("degree")
    degrees = (degree,) if degree is not None else DEFAULT_DEGREES
    interval = settings.get("interval")
    tolerance = settings.get("tolerance") or DEFAULT_SPLIT_TOLERANCE
    view: dict = {}
    coeff = []

    if kind == "dirac":
        reports = tr.call("dirac.validate", dirac_condition_reports,
                          mats["F"], mats["E"])
        view["conditions"] = [r.passed for r in reports]
        if not all(view["conditions"]):
            return view, 0
        structure = _boundary_structure(tr, DiracPair(mats["F"], mats["E"]))
    elif kind in ("skew_adjoint", "constrained"):
        ok, _ = tr.call("constrained.validate", validate_skew_adjoint, mats["J"])
        view["conditions"] = [ok]
        if not ok:
            return view, 0
        if kind == "skew_adjoint":
            f, e = PolyMatrix.identity(mats["J"].rows), -mats["J"]
            tr.call("dirac.validate", dirac_condition_reports, f, e)
            structure = _boundary_structure(tr, DiracPair(f, e))
        else:
            con = tr.call("constrained.boundary", constrained_boundary,
                          mats["J"], mats["G"])
            structure = con.j_structure
            coeff.append(con.xi)
    else:
        reports = tr.call("lagrange.validate", lagrange_condition_reports,
                          mats["P"], mats["S"])
        view["conditions"] = [r.passed for r in reports]
        if not all(view["conditions"]):
            return view, 0
        lag = tr.call("lagrange.boundary", lagrange_boundary,
                      LagrangePair(mats["P"], mats["S"]))
        coeff.append(lag.Lambda)
        view["boundary"] = {"W": _pm(lag.W), "p": lag.p}

    if kind != "lagrange":
        coeff.append(structure.pi)
        if kind == "constrained":
            view["boundary"] = {"Z_J": _pm(con.Z_J), "Sigma_J": _rm(con.Sigma_J),
                                "Z_G": _pm(con.Z_G), "V_G": _pm(con.V_G)}
        else:
            view["boundary"] = {"Z": _pm(structure.Z),
                                "Sigma": _rm(structure.Sigma),
                                "inertia": list(structure.inertia.as_tuple())}
        try:
            tr.call("dirac.split", canonical_power_split, structure.Sigma,
                    tolerance, expected=(UnbalancedSignatureError,))
        except UnbalancedSignatureError:
            tr.call("dirac.split", two_point_form, structure, tolerance)

    target = lag if kind == "lagrange" else structure
    swap = tr.call("realize.search", partition_search, target)
    r = tr.call("realize.realize", realize, target, swap)
    identities = tr.call("realize.identities", verify_realization_structure, r)
    view["realization"] = {"swap": list(r.swap), "A": _rm(r.A), "B": _rm(r.B),
                           "C": _rm(r.C), "D": _rm(r.D),
                           "identities_pass": identities.all_pass}

    if kind == "lagrange":
        suite = tr.call("harness.verify", lagrange_suite, lag, trials,
                        degrees, seed, interval)
    elif kind == "constrained":
        suite = tr.call("harness.verify", constrained_suite, con, trials,
                        degrees, seed, interval)
    else:
        suite = tr.call("harness.verify", dirac_suite, structure, trials,
                        degrees, seed, interval, tolerance)
    view["verification"] = [(v.check, _residual(v), v.all_pass) for v in suite]
    dim = max(c.to_coeff().mat.rows for c in coeff if not c.is_zero()) \
        if any(not c.is_zero() for c in coeff) else 0
    return view, dim


def _options(argv):
    """RunOptions for the `--trials N --seed S` arguments a problem carries."""
    args = dict(zip(argv[::2], argv[1::2]))
    trials = int(args["--trials"]) if "--trials" in args else None
    return cli.RunOptions(trials=trials, seed=int(args["--seed"]))


def max_bits(obj) -> int:
    """Largest numerator or denominator bit length among rational strings."""
    if isinstance(obj, dict):
        return max((max_bits(v) for v in obj.values()), default=0)
    if isinstance(obj, list):
        return max((max_bits(v) for v in obj), default=0)
    if isinstance(obj, str) and _RATIONAL.match(obj):
        q = Fraction(obj)
        return max(q.numerator.bit_length(), q.denominator.bit_length())
    return 0


# -- traced passes -----------------------------------------------------------


def traced_pass(problems, paths, check_report):
    """One pass over every problem: an untraced staged run, then the cli
    stages and the staged run under spans.  Returns a pass record."""
    record = {"totals": {name: 0.0 for name in STAGE_SPANS + CLI_SPANS},
              "untraced": 0.0, "traced": 0.0, "errors": [], "failed": 0,
              "max_bits": 0, "coeff_dim_max": 0, "trials": 0}
    tr = Tracer(True)
    overhead = 0.0
    for index, (p, path) in enumerate(zip(problems, paths)):
        root = tr.open(index, p["name"])
        try:
            errors, problem_overhead = _trace_problem(tr, p, path, record,
                                                      check_report)
        except Exception as exc:  # recorded as a failure, keep measuring
            errors, problem_overhead = [f"raised {exc!r}"], 0.0
        tr.close(root)
        overhead += problem_overhead
        record["failed"] += bool(errors)
        record["errors"] += [f"{p['name']}: {e}" for e in errors]
    for span in tr.spans:
        if span[3] in record["totals"]:
            record["totals"][span[3]] += span[5] - span[4]
    record["totals"]["cli.overhead"] = overhead
    record.update(spans=tr.spans, attempts=tr.attempts, failures=tr.failures)
    return record


def _trace_problem(tr, p, path, record, check_report):
    """Untraced staged run, traced cli stages, traced staged run; returns
    the oracle and agreement errors and the cli.run overhead."""
    options = _options(p["argv"])
    start = time.perf_counter()
    staged(Tracer(False), cli.parse_problem(path), options.trials,
           options.seed)
    before = time.perf_counter() - start
    record["untraced"] += before

    problem = tr.call("cli.parse", cli.parse_problem, path)
    run_span = len(tr.spans)
    report = tr.call("cli.run", cli.run, "report", problem, options)
    tr.call("cli.emit", lambda: json.dumps(report, indent=2))

    stage_start = len(tr.spans)
    start = time.perf_counter()
    view, dim = staged(tr, problem, options.trials, options.seed)
    record["traced"] += time.perf_counter() - start

    errors = check_report(p["expect"], report["exit_status"], report)
    if view != cli_view(report):
        errors.append("staged run disagrees with cli.run")
    record["max_bits"] = max(record["max_bits"], max_bits(report))
    record["coeff_dim_max"] = max(record["coeff_dim_max"], dim)
    record["trials"] += (report.get("verification") or {}).get("trials", 0)
    # the two staged runs bracket cli.run in time, so their mean cancels a
    # steady drift in machine speed
    run = tr.spans[run_span]
    after = sum(s[5] - s[4] for s in tr.spans[stage_start:])
    return errors, (run[5] - run[4]) - (before + after) / 2


# -- counting run ------------------------------------------------------------


def _label(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def count_calls(run_all) -> dict:
    """Exact call counts of the COUNTED kernels while `run_all()` runs."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run_all()
    finally:
        profiler.disable()
    profiler.create_stats()
    stats = profiler.stats
    counts = {}
    for name, (owner, attr) in COUNTED.items():
        cc, nc, _, _, _ = stats.get(_label(getattr(owner, attr)),
                                    (0, 0, 0, 0, {}))
        counts[name] = {"primitive": cc, "total": nc}

    def calls_from(callee, caller):
        callers = stats.get(_label(callee), (0, 0, 0, 0, {}))[4]
        return callers.get(_label(caller), (0,))[0]

    counts["det_from_full_rank"] = calls_from(algebra.PolyMatrix.det,
                                              algebra.full_rank_everywhere)
    counts["realize_from_search"] = calls_from(realize_mod.realize,
                                               realize_mod.partition_search)
    return counts


# -- metrics -----------------------------------------------------------------


def per_layer_metrics(passes, counts) -> dict:
    """Median of each per-pass figure, plus the exact counts."""
    med = statistics.median
    out = {}
    for name in STAGE_SPANS + CLI_SPANS + ("cli.overhead",):
        out[f"{name}_s"] = (med(p["totals"][name] for p in passes), "s")
    for layer in LAYERS:
        attempts = sum(p["attempts"][layer] for p in passes)
        failures = sum(p["failures"][layer] for p in passes)
        out[f"{layer}.failed"] = (failures / attempts if attempts else 0.0,
                                  "frac")
    verify_s = out["harness.verify_s"][0]
    out["harness.trials"] = (passes[0]["trials"], "count")
    out["harness.trials_per_s"] = (passes[0]["trials"] / verify_s
                                   if verify_s else 0.0, "1/s")
    out["twovar.coeff_dim_max"] = (passes[0]["coeff_dim_max"], "count")
    out["algebra.max_bits"] = (passes[0]["max_bits"], "bits")
    untraced = med(p["untraced"] for p in passes)
    traced = med(p["traced"] for p in passes)
    out["trace_overhead_frac"] = ((traced - untraced) / untraced, "frac")

    full_rank = counts["full_rank"]["total"]
    search_realize = counts["realize_from_search"]
    out["algebra.det.minors"] = (counts["det"]["primitive"], "count")
    out["algebra.det.calls"] = (counts["det"]["total"], "count")
    out["algebra.full_rank.calls"] = (full_rank, "count")
    out["algebra.full_rank.minors_per_check"] = (
        counts["det_from_full_rank"] / full_rank if full_rank else 0.0, "ratio")
    out["algebra.poly_mul.calls"] = (counts["poly_mul"]["total"], "count")
    out["algebra.inertia.calls"] = (counts["inertia"]["total"], "count")
    out["algebra.solve_linear.calls"] = (counts["solve_linear"]["total"],
                                         "count")
    out["realize.realize.calls"] = (counts["realize"]["total"], "count")
    out["realize.identities.calls"] = (counts["identities"]["total"], "count")
    out["realize.search_hit_ratio"] = (
        counts["partition_search"]["total"] / search_realize
        if search_realize else 0.0, "ratio")
    return out


def layer_shares(totals) -> dict:
    """Share of staged (non-cli) traced time held by each layer."""
    shares = {}
    for name in STAGE_SPANS:
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + totals[name]
    staged_total = sum(shares.values()) or 1.0
    return {layer: t / staged_total for layer, t in shares.items()}
