"""Closed-loop benchmark of safeadp: four workloads, end-to-end metrics and an
outside-in per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload safe_study --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --runs 10 --seed 0 --out results.json

Each iteration of a workload runs in its own child process (child.py) with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1, importing safeadp from this
checkout's src/.  A run repeats iterations for --seconds and reports medians.
With --trace 1, traced and untraced iterations alternate; the traced ones
give the per-layer metrics and the untraced ones the tracing overhead.

Every operation (one closed-loop run or one gain synthesis) is fingerprinted
and compared bitwise with reference/fingerprints.json.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 1 when an output disagrees with its reference
and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import references
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_UNTRACED = 3          # iterations a run always measures untraced
MIN_TRACED = 2            # and traced, with --trace 1
PROBES_PER_ITERATION = 2  # setup-only children after each untraced iteration
ITERATION_TIMEOUT_S = 120
RUN_DEADLINE_S = 170      # no iteration starts that could end after this


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    return env


def wait_child(proc: subprocess.Popen, timeout: float):
    """Reap proc with its resource usage; kill it when it overruns."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_iteration(child_spec: dict, traced: bool, workdir: Path,
                  setup_only: bool = False) -> dict:
    """Run one iteration in a child process and collect its measurements.

    With setup_only the child stops at its first call into the measured
    work, which gives one more setup_s sample at little cost.
    """
    workdir.mkdir(parents=True)
    spec = dict(child_spec, trace=traced, setup_only=setup_only, src=str(SRC),
                result=str(workdir / "result.json"))
    if spec["kind"] == "cli":
        spec["out"] = str(workdir / "out")
        spec["argv"] = [*spec["argv"], "--out", spec["out"]]
    (workdir / "spec.json").write_text(json.dumps(spec))
    cmd = [sys.executable, str(HERE / "child.py"), str(workdir / "spec.json")]
    with open(workdir / "stdout.txt", "w") as out, \
            open(workdir / "stderr.txt", "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        code, usage = wait_child(proc, ITERATION_TIMEOUT_S)
    result_file = workdir / "result.json"
    it = {"traced": traced, "exit": code,
          "peak_rss_mib": usage.ru_maxrss / 1024.0}
    if code != 0 or not result_file.is_file():
        tail = (workdir / "stderr.txt").read_text()[-2000:]
        it["error"] = f"child exited with {code}: {tail.strip()}"
        shutil.rmtree(workdir, ignore_errors=True)
        return it
    res = json.loads(result_file.read_text())
    shutil.rmtree(workdir, ignore_errors=True)
    if res["t_work_start"] is None:
        it["error"] = "the iteration never called into sim.run or synthesize_gains"
        it.update(ops=res["ops"], checks=res["checks"])
        return it
    it.update(ops=res["ops"], checks=res["checks"], trace=res["trace"],
              setup_s=res["t_work_start"] - t_spawn,
              wall_s=res["t_work_end"] - res["t_work_start"])
    return it


def check_iteration(it: dict, refs: dict, expected: int) -> tuple[int, int, list]:
    """(attempted, failed, problems) of one iteration against the references."""
    problems = []
    if "error" in it:
        problems.append(it["error"])
    ops = it.get("ops")
    if ops is None:
        return expected, expected, problems
    failed = 0
    for op in ops:
        if op.get("failed"):
            failed += 1
        if op.get("problem"):
            problems.append(f"{op['key']}: {op['problem']}")
    for item in [*ops, *it.get("checks", [])]:
        ref = refs.get(item["key"])
        if ref is None:
            problems.append(f"{item['key']}: no reference fingerprint")
        elif item["digest"] != ref:
            problems.append(f"{item['key']}: fingerprint mismatch "
                            f"({item['digest']} != reference {ref})")
    if len(ops) != expected:
        problems.append(f"expected {expected} operations, got {len(ops)}")
    return len(ops), failed, problems


def median(values):
    """Median, or None when every iteration that would give a value failed."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(name: str, seed: int, seconds: float, trace: bool,
            refs: dict) -> dict:
    """One benchmark run of workload name: iterate for the given seconds."""
    child_spec = workloads.spec(name, seed)
    expected = workloads.expected_ops(child_spec)
    work = OUT_DIR / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    iterations, probes = [], []
    t0 = time.monotonic()
    try:
        while True:
            n_un = sum(not it["traced"] for it in iterations)
            n_tr = len(iterations) - n_un
            traced = trace and n_tr < n_un
            it = run_iteration(child_spec, traced,
                               work / f"it{len(iterations):03d}")
            iterations.append(it)
            if not trace:
                for _ in range(PROBES_PER_ITERATION):
                    probes.append(run_iteration(
                        child_spec, False, work / f"setup{len(probes):03d}",
                        setup_only=True))
            elapsed = time.monotonic() - t0
            per_iteration = elapsed / len(iterations)
            n_un = sum(not it["traced"] for it in iterations)
            n_tr = len(iterations) - n_un
            enough = n_un >= MIN_UNTRACED and (not trace or n_tr >= MIN_TRACED)
            if enough and elapsed + per_iteration > seconds:
                break
            if elapsed + 1.5 * per_iteration > RUN_DEADLINE_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(name, seed, trace, iterations, probes, refs, expected)


def summarize(name, seed, trace, iterations, probes, refs, expected) -> dict:
    attempted = failed = 0
    problems: list[str] = []
    ops = []
    for it in iterations:
        a, f, p = check_iteration(it, refs, expected)
        attempted, failed = attempted + a, failed + f
        problems += p
        ops += it.get("ops", [])
    problems += [probe["error"] for probe in probes if "error" in probe]
    setups = [it["setup_s"] for it in [*iterations, *probes]
              if "error" not in it and not it["traced"]]
    good = [it for it in iterations if "error" not in it]
    untraced = [it for it in good if not it["traced"]]
    traced = [it for it in good if it["traced"]]
    is_gain = name == "gain_design"

    def work_done(it):
        if is_gain:
            return len(it["ops"])
        return sum(op["steps"] for op in it["ops"])

    n_ops = max(len(ops), 1)
    record = {
        "workload": name, "seed": seed, "trace": int(trace),
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems[:20],
        "samples": {"untraced": len(untraced), "traced": len(traced),
                    "setup": len(setups)},
        "metrics": {
            "wall_s": median([it["wall_s"] for it in untraced]),
            "steps_per_s": median([work_done(it) / it["wall_s"]
                                   for it in untraced]),
            "setup_s": median(setups),
            "peak_rss_mib": median([it["peak_rss_mib"] for it in untraced]),
        },
        "outcomes": {
            "ops_failed_frac": failed / max(attempted, 1),
            "abort_frac": sum(op["abort"] is not None for op in ops) / n_ops,
            "unsafe_frac": sum(op["unsafe"] for op in ops) / n_ops,
            "envelope_breach_frac": sum(op["breach"] for op in ops) / n_ops,
        },
        "per_layer": None,
        "trace_table": None,
        "iterations": [{k: it.get(k) for k in ("traced", "wall_s", "setup_s",
                                               "peak_rss_mib")}
                       for it in iterations],
    }
    if trace and traced:
        per = [spans.layer_metrics(it["trace"]["rows"], it["trace"]["counters"],
                                   sum(op["steps"] for op in it["ops"]))
               for it in traced]
        layer = {k: median([p[k] for p in per]) for k in per[0]}
        untraced_wall = record["metrics"]["wall_s"]
        layer["trace.overhead_frac"] = (
            median([it["wall_s"] for it in traced]) / untraced_wall - 1.0
            if untraced_wall else None)
        layer["sim.abort_frac"] = record["outcomes"]["abort_frac"]
        layer["safety.unsafe_frac"] = record["outcomes"]["unsafe_frac"]
        layer["observer.envelope_breach_frac"] = \
            record["outcomes"]["envelope_breach_frac"]
        record["per_layer"] = layer
        record["trace_table"] = traced[0]["trace"]["rows"]
    return record


def git_stamp() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if rev else None
    return {"git_revision": rev or "unknown",
            "git_dirty": None if status is None else bool(status)}


def stamp(args, runs: int) -> dict:
    """Provenance fields that make two results files diffable."""
    os.environ.update(CHILD_ENV)
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **git_stamp(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed, "runs": runs, "seconds": args.seconds,
        "trace": args.trace,
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }


def fmt(value) -> str:
    if value is None:
        return "failed"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(record: dict, bench: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    s = record["samples"]
    print(f"== {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} untraced={s['untraced']} "
          f"traced={s['traced']}")
    for key, value in record["metrics"].items():
        n = s["setup"] if key == "setup_s" else s["untraced"]
        print(f"  {key:<30} {fmt(value):>14} {units[key]:<6} (median of {n})")
    o = record["outcomes"]
    print(f"  {'ops_failed_frac':<30} {fmt(o['ops_failed_frac']):>14} ratio  "
          f"({record['failed']}/{record['attempted']} operations)")
    applies = record["workload"] != "gain_design"
    for key in ("unsafe_frac", "envelope_breach_frac", "abort_frac"):
        value = fmt(o[key]) if applies else "n/a"
        print(f"  {key:<30} {value:>14} ratio")
    for key, value in (record["per_layer"] or {}).items():
        print(f"  {key:<30} {fmt(value):>14} {units.get(key, '')}")
    verdict = "yes" if record["correct"] else "NO"
    print(f"  correct: {verdict}")
    for p in record["problems"]:
        print(f"  problem: {p}", file=sys.stderr)


def result_line(records: list[dict], bench: dict, trace: bool) -> dict:
    """The contract line; with several runs a metric is their median."""
    group = "per_layer" if trace else "end_to_end"
    by_workload: dict[str, list] = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(
            (rec["per_layer"] if trace else rec["metrics"]) or {})
    metrics = {}
    for name, values in by_workload.items():
        prefix = "" if len(by_workload) == 1 else name + "/"
        for m in bench[group]:
            metrics[prefix + m["name"]] = {
                "value": median([v.get(m["name"]) for v in values]),
                "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(workloads.NAMES)}, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, with seeds seed, seed+1, ...")
    parser.add_argument("--out", help="results file (default under "
                        ".perfbench_out/results/)")
    args = parser.parse_args(argv)
    try:
        bench_file = ROOT / "BENCHMARK.json"
        if not bench_file.is_file():
            raise BenchError(f"{bench_file} is missing")
        if not (SRC / "safeadp" / "__init__.py").is_file():
            raise BenchError(f"no safeadp package under {SRC}")
        bench = json.loads(bench_file.read_text())
        names = (list(workloads.NAMES) if args.workload == "all"
                 else [args.workload])
        unknown = set(names) - set(workloads.NAMES)
        if unknown:
            raise BenchError(f"unknown workload {sorted(unknown)}")
        refs = references.load()
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    records = []
    for name in names:
        for k in range(args.runs):
            rec = measure(name, args.seed + k, args.seconds, bool(args.trace),
                          refs.get(name, {}))
            report(rec, bench)
            records.append(rec)
    out = Path(args.out) if args.out else (
        OUT_DIR / "results" / f"{args.workload}-seed{args.seed}"
        f"-runs{args.runs}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {"stamp": stamp(args, args.runs), "runs": records}
    out.write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(f"results file: {out}")
    line = result_line(records, bench, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
