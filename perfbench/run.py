"""Benchmark of `boundary-forge report` over seeded problem families.

Run from the root of a checkout:

    python3 perfbench/run.py --workload port-scaling --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
runs the traced staged pipeline and the profiler counting run and reports
the per-layer metrics.  `--workload all` runs every workload, each in its
own process.  Human-readable lines come first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  A full record (environment, output digest, spans) is written to
perfbench/results/.  See perfbench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Fresh interpreters timed for setup_s, after one that writes bytecode.
SETUP_REPEATS = 9
SETUP_CODE = ("import time; t = time.perf_counter(); import boundary_forge.cli"
              " as m; print(time.perf_counter() - t); print(m.__file__)")
CHILD_TIMEOUT_S = 170
# Time figures are reported at the speed where reference() takes this long
# (about its time on an unloaded Xeon core under Python 3.11).
REFERENCE_S = 0.01
# Under the same change of load the program's time moves less than the
# kernel's (in log terms; fitted exponents 0.35-0.9 over the port-scaling
# problems).  Of the exponents 0.5, 0.75 and 1, applied to the same ten runs
# per workload, 0.75 gave the smallest worst-case spread between runs.
SPEED_EXPONENT = 0.75


def reference() -> float:
    """Seconds taken by a fixed exact-arithmetic kernel that shares no code
    with the package: Gauss-Jordan elimination of a small Fraction matrix.

    The machine this runs on changes speed by up to a factor of two over
    seconds to minutes, as other tenants come and go.  Each timed call is
    scaled by the mean of the reference times taken just before and after
    it (see `speed_scale`), so the figures follow the program more than the
    machine's load.
    """
    start = time.perf_counter()
    for rep in range(4):
        n = 9
        g = [[Fraction((7 * i + 3 * j + rep) % 11 - 5, 1 + (i + j) % 4)
              for j in range(n + 2)] for i in range(n)]
        for c in range(n):
            piv = next(i for i in range(c, n) if g[i][c] != 0)
            g[c], g[piv] = g[piv], g[c]
            g[c] = [v / g[c][c] for v in g[c]]
            for i in range(n):
                if i != c and g[i][c] != 0:
                    f = g[i][c]
                    g[i] = [a - f * b for a, b in zip(g[i], g[c])]
    return time.perf_counter() - start


def speed_scale(reference_s: float) -> float:
    """Factor that takes a time measured while reference() took
    `reference_s` to the reference speed."""
    return (REFERENCE_S / reference_s) ** SPEED_EXPONENT


def pin_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def measure_setup() -> tuple[float, float]:
    """Median import time of `boundary_forge.cli` in a fresh interpreter:
    (at reference speed, wall)."""
    wall, refs = [], [reference()]
    for attempt in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True).stdout.split("\n")
        if not os.path.abspath(out[1]).startswith(SRC + os.sep):
            raise RuntimeError(f"imported {out[1]}, not the checkout's src/")
        refs.append(reference())
        if attempt:
            wall.append(float(out[0]))
    # one speed for the whole block: a start-up is too short to bracket
    median = statistics.median(wall)
    return median * speed_scale(statistics.median(refs)), median


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "seed": seed,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def run_cli(cli, path: str, argv: list) -> tuple[int, str]:
    """`boundary-forge report --format structured` in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(["report", path, "--format", "structured"] + argv)
    return status, out.getvalue()


def end_to_end_pass(cli, problems, paths) -> dict:
    """One closed-loop pass; every report is checked against its oracle."""
    times, refs, outputs, errors = [], [reference()], [], []
    failed = 0
    for p, path in zip(problems, paths):
        t0 = time.perf_counter()
        try:
            status, text = run_cli(cli, path, p["argv"])
        except Exception as exc:  # a raising report is a failed operation
            status, text = None, f"raised {exc!r}"
        times.append(time.perf_counter() - t0)
        refs.append(reference())
        if status is None:
            problem_errors, report = [text], None
        else:
            try:
                report = json.loads(text)
            except ValueError:
                report = None
            problem_errors = workloads.check_report(p["expect"], status, report)
        failed += bool(problem_errors)
        errors += [f"{p['name']}: {e}" for e in problem_errors]
        outputs.append({"name": p["name"], "status": status,
                        "report": strip_elapsed(report)})
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True)
                            .encode()).hexdigest()
    scaled = [t * speed_scale((refs[i] + refs[i + 1]) / 2)
              for i, t in enumerate(times)]
    return {"times": times, "scaled": scaled, "refs": refs, "errors": errors,
            "failed": failed, "sha256": digest}


def repeat(seconds: float, one_pass) -> list:
    """Passes while the next one would end less than half a pass after
    `seconds` (at least one)."""
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        start = time.perf_counter()
        passes.append(one_pass())
        now = time.perf_counter()
        if now + (now - start) / 2 > deadline:
            return passes


def measure_end_to_end(cli, problems, paths, seconds) -> tuple[dict, dict]:
    passes = repeat(seconds, lambda: end_to_end_pass(cli, problems, paths))
    attempted = len(passes) * len(problems)
    failed = sum(p["failed"] for p in passes)
    digests = sorted({p["sha256"] for p in passes})
    errors = [e for p in passes for e in p["errors"]]
    if len(digests) > 1:
        errors.append("structured output differs between passes")
    # Per-problem medians across passes: a burst of load from outside that
    # hits one problem in one pass does not move the figures.
    def per_problem(key):
        return {p["name"]: statistics.median(q[key][i] for q in passes)
                for i, p in enumerate(problems)}

    scaled, wall = per_problem("scaled"), per_problem("times")
    metrics = {
        "batch_s": (sum(scaled.values()), "s"),
        "slowest_problem_s": (max(scaled.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    refs = [r for q in passes for r in q["refs"]]
    record = {"passes": len(passes), "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "output_sha256": digests[0],
              "errors": errors, "per_problem_s": scaled,
              "per_problem_wall_s": wall,
              "wall": {"batch_s": sum(wall.values()),
                       "slowest_problem_s": max(wall.values())},
              "speed_factor": REFERENCE_S / statistics.median(refs),
              "samples": [{"times": q["times"], "refs": q["refs"]}
                          for q in passes]}
    return metrics, record


def measure_layers(cli, problems, paths, seconds) -> tuple[dict, dict]:
    import layers

    passes = repeat(seconds, lambda: layers.traced_pass(
        problems, paths, workloads.check_report))

    def run_all():
        for p, path in zip(problems, paths):
            run_cli(cli, path, p["argv"])

    counts = layers.count_calls(run_all)
    metrics = layers.per_layer_metrics(passes, counts)
    errors = [e for p in passes for e in p["errors"]]
    failed = sum(p["failed"] for p in passes)
    attempted = len(passes) * len(problems)
    record = {"passes": len(passes), "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "errors": errors,
              "counts": counts,
              "shares": layers.layer_shares(passes[0]["totals"]),
              "spans": passes[0]["spans"]}
    return metrics, record


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "boundary_forge", "cli.py")):
        print(f"error: no boundary_forge package under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    setup = measure_setup() if not args.trace else None
    sys.path.insert(0, SRC)
    from boundary_forge import cli

    problems = workloads.generate(args.workload, args.seed, ROOT)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        paths = []
        for p in problems:
            paths.append(os.path.join(workdir, p["name"] + ".json"))
            with open(paths[-1], "w", encoding="utf-8") as handle:
                json.dump(p["data"], handle)
        if args.trace:
            metrics, record = measure_layers(cli, problems, paths, args.seconds)
        else:
            metrics, record = measure_end_to_end(cli, problems, paths,
                                                 args.seconds)
            metrics["setup_s"] = (setup[0], "s")
            record["wall"]["setup_s"] = setup[1]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(workload=args.workload, trace=args.trace,
                  env=environment(args.seed), problems=len(problems),
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {len(problems)} "
          f"problems x {record['passes']} passes, closed loop, one process")
    for key, (value, unit) in metrics.items():
        print(f"  {key:38s} {value:.6g} {unit}")
    print(f"  {'failed_frac':38s} {record['failed_frac']:.6g} "
          f"({record['failed']}/{record['attempted']})")
    for key, value in record.get("wall", {}).items():
        print(f"  {'wall ' + key:38s} {value:.6g} s "
              f"(machine speed {record['speed_factor']:.3g} x reference)")
    if "output_sha256" in record:
        print(f"  {'output_sha256':38s} {record['output_sha256']}")
    if "shares" in record:
        print("  traced time share: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(record["shares"].items(),
                                                key=lambda kv: -kv[1])))
    for error in record["errors"][:20]:
        print(f"  FAIL {error}")
    print(f"  env {json.dumps(record['env'])}")
    print(json.dumps({
        "correct": not record["errors"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"]}))
    return 0


def run_all_workloads(args) -> int:
    """Every workload in its own process; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = out.stdout.strip().split("\n")
        print("\n".join(lines[:-1]))
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{workload}/{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all_workloads(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
