"""Smoke test of the benchmark at tiny sizes.

Checks that the oracles accept the reports of every family and reject a
wrong one, that the generator is deterministic for a seed, that the traced
staged run agrees with `cli.run`, and that the counting run repeats exactly.
Run with `PYTHONPATH=src python3 -m pytest -q perfbench`.
"""

import contextlib
import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import workloads  # noqa: E402
from boundary_forge import cli  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = {"chain": range(2, 4), "sI": range(2, 4), "rank_drop": range(2, 4),
        "lagrange_ports": range(2, 4), "constrained_chain": range(2, 4),
        "skew": range(1, 3), "lagrange": range(1, 3),
        "constrained": range(1, 3)}


def _tiny(workload, seed, tmp_path):
    problems = workloads.generate(workload, seed, ROOT, TINY)
    paths = []
    for p in problems:
        # two trials keep verify-trials quick; the oracle does not change
        p["argv"] = ["--trials", "2", "--seed", str(seed)]
        paths.append(str(tmp_path / f"{p['name']}.json"))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(p["data"], handle)
    return problems, paths


def _report(path, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(["report", path, "--format", "structured"] + argv)
    return status, json.loads(out.getvalue())


def test_generator_is_deterministic_for_a_seed():
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 7, ROOT, TINY)
        assert first == workloads.generate(workload, 7, ROOT, TINY)
    assert (workloads.generate("port-scaling", 7, ROOT, TINY)
            != workloads.generate("port-scaling", 8, ROOT, TINY))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracles_accept_every_family(workload, tmp_path):
    problems, paths = _tiny(workload, 3, tmp_path)
    for p, path in zip(problems, paths):
        status, report = _report(path, p["argv"])
        assert workloads.check_report(p["expect"], status, report) == [], \
            p["name"]


def test_oracle_rejects_a_wrong_answer(tmp_path):
    problems, paths = _tiny("port-scaling", 3, tmp_path)
    by_name = {p["name"]: (p, path) for p, path in zip(problems, paths)}
    p, path = by_name["sI_m3"]
    status, report = _report(path, p["argv"])
    report["boundary"]["n"] += 1
    assert workloads.check_report(p["expect"], status, report)
    p, path = by_name["rank_drop_m2"]
    status, report = _report(path, p["argv"])
    assert workloads.check_report(p["expect"], 0, report)
    assert workloads.check_report({"kind": "dirac", "n": 2}, status, report)


def test_traced_pass_agrees_with_cli_and_counts_repeat(tmp_path):
    problems, paths = _tiny("degree-scaling", 5, tmp_path)
    record = layers.traced_pass(problems, paths, workloads.check_report)
    assert record["errors"] == []
    assert record["totals"]["realize.search"] > 0

    def run_all():
        for p, path in zip(problems, paths):
            _report(path, p["argv"])

    counts = layers.count_calls(run_all)
    assert counts == layers.count_calls(run_all)
    assert counts["realize"]["total"] > 0
    metrics = layers.per_layer_metrics([record], counts)
    assert metrics["realize.search_hit_ratio"][0] > 0
