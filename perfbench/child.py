"""One benchmark iteration, run in its own process.

Usage: python3 perfbench/child.py SPEC.json

The spec (written by run.py) names the source tree to import safeadp from,
the work to do and whether to trace it, or to stop at the end of setup.  The child records when the work
first calls into ``sim.run`` (or ``synthesize_gains``) and when it ends,
fingerprints every operation's outputs and writes a JSON result next to the
spec.  Exceptions that escape the package are recorded per operation, so a
traceback counts as a failed operation instead of ending the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import time
from pathlib import Path

import spans

SUMMARY_KEYS = ("terminal_x", "terminal_x_hat", "terminal_weights",
                "terminal_err", "min_h", "min_h_robust",
                "max_err_envelope_ratio", "gain_eig_min", "gain_eig_max",
                "gain_asym_max", "excitation_min", "steps", "abort_reason",
                "monitor_events")
_LOGGED = re.compile(r"(x|xhat|w|u)\d+|h")


def canon(value):
    """JSON-ready copy with every float as its exact hex form."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    return float(value).hex()


def digest(fingerprint) -> str:
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_fingerprint(columns, rows, summary: dict, stride: int) -> dict:
    """Every stride-th logged row of x, x_hat, W, u and h plus the summary."""
    keep = [i for i, c in enumerate(columns) if _LOGGED.fullmatch(c)]
    picked = [[float(row[i]).hex() for i in keep]
              for j, row in enumerate(rows) if j % stride == 0]
    return {"columns": [columns[i] for i in keep], "rows": picked,
            "summary": {k: canon(summary.get(k)) for k in SUMMARY_KEYS}}


def run_outcome(summary: dict) -> dict:
    """Closed-loop outcome flags and the non-finite-output failure check."""
    abort = summary.get("abort_reason")
    terminal = [*summary["terminal_x"], *summary["terminal_x_hat"],
                *summary["terminal_weights"]]
    failed = None
    if abort is None and not all(math.isfinite(v) for v in terminal):
        failed = "non-finite output"
    min_h = summary["min_h"]
    return {"steps": summary["steps"], "abort": abort,
            "unsafe": bool(min_h < 0), "breach":
            bool(summary["max_err_envelope_ratio"] > 1.0), "failed": failed}


class SetupDone(BaseException):
    """Ends a setup probe at its first call into the measured work."""


def first_call_stamp(fn, stamps: list, setup_only: bool):
    def stamped(*args, **kwargs):
        if not stamps:
            stamps.append(time.monotonic())
            if setup_only:
                raise SetupDone
        return fn(*args, **kwargs)
    stamped.__wrapped__ = fn
    return stamped


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def do_cli(spec, safeadp, tracer):
    """`safeadp run ...` through the console entry point, then its files."""
    out = Path(spec["out"])
    op = {"key": spec["key"]}
    if tracer is not None:
        tracer.enter("cli.main")
    try:
        code = safeadp.cli.main(spec["argv"])
        failed = None if code == 0 else f"exit code {code}"
    except Exception as exc:          # escaped the package: a failed run
        failed = _error(exc)
    finally:
        if tracer is not None:
            tracer.exit()
    t_end = time.monotonic()
    op["output_bytes"] = sum(p.stat().st_size for p in out.rglob("*")
                             if p.is_file())
    missing = [name for name in spec["outputs"] if not (out / name).is_file()]
    if failed is None and missing:
        failed = f"missing outputs {missing}"
    if (out / "trajectory.csv").is_file() and (out / "summary.json").is_file():
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "trajectory.csv") as f:
            columns = f.readline().strip().split(",")
            rows = (line.split(",") for line in f)
            fp = run_fingerprint(columns, rows, summary, spec["stride"])
        op.update(run_outcome(summary))
        op["failed"] = failed or op["failed"]
        op["digest"] = digest(fp)
    else:
        op.update(steps=0, abort=None, unsafe=False, breach=False,
                  failed=failed or "no outputs", digest=None)
    return [op], [], t_end


def do_members(spec, safeadp, tracer):
    """Sweep members through the library: from_dict, build_problem, run."""
    from safeadp.config import RunConfig
    done = []
    for member in spec["members"]:
        try:
            if tracer is not None:
                tracer.enter("config.from_dict")
            try:
                cfg = RunConfig.from_dict(member["config"])
            finally:
                if tracer is not None:
                    tracer.exit()
            problem, _ = safeadp.config.build_problem(cfg)
            done.append((member["key"], safeadp.sim.run(problem)))
        except Exception as exc:      # escaped the package: a failed run
            done.append((member["key"], exc))
    t_end = time.monotonic()
    ops = []
    for key, result in done:
        if isinstance(result, Exception):
            ops.append({"key": key, "steps": 0, "abort": None, "unsafe": False,
                        "breach": False, "failed": _error(result),
                        "digest": digest({"exception": type(result).__name__})})
            continue
        log, summary = result
        summ = json.loads(json.dumps(summary.to_json_dict()))
        op = {"key": key, **run_outcome(summ)}
        op["digest"] = digest(run_fingerprint(log.columns(), log.rows(), summ,
                                              spec["stride"]))
        ops.append(op)
    return ops, [], t_end


def do_gains(spec, safeadp, tracer):
    """Verify the preset gains, then synthesize and re-verify per case."""
    lmi = safeadp.lmi
    problems, checks = {}, []
    for name in spec["plants"]:
        cfg = safeadp.presets.preset(name)
        model = cfg.model.build()
        gains, _ = cfg.observer.build(model)
        problem = lmi.LmiProblem.from_model(model, cfg.observer.alpha)
        problems[name] = problem
        fp = {}
        for mode in ("theta_identity", "all_vertices"):
            cert = lmi.verify_gains(problem, gains.P, gains.R_lmi, gains.l1,
                                    gains.l2, mode=mode)
            fp[mode] = canon({"feasible": cert.feasible,
                              "max_eigenvalue": cert.max_eigenvalue,
                              "norms": [cert.norm_l1C, cert.norm_l2C]})
        checks.append({"key": f"verify/{name}", "digest": digest(fp)})
    results = []
    for case in spec["cases"]:
        try:
            out = lmi.synthesize_gains(problems[case["plant"]],
                                       search=lmi.SearchParams(seed=case["seed"]),
                                       mode=case["mode"])
            results.append((case, out))
        except Exception as exc:      # escaped the package: a failed synthesis
            results.append((case, exc))
    t_end = time.monotonic()
    ops = []
    for case, out in results:
        op = {"key": case["key"], "steps": 0, "abort": None, "unsafe": False,
              "breach": False, "failed": None}
        if isinstance(out, Exception):
            op.update(failed=_error(out),
                      digest=digest({"exception": type(out).__name__}))
            ops.append(op)
            continue
        P, l1, l2, l3, cert = out
        again = lmi.verify_gains(problems[case["plant"]], P, P @ l3, l1, l2,
                                 mode=case["mode"])
        lam, lam2 = cert.max_eigenvalue, again.max_eigenvalue
        values = [lam, *P.ravel().tolist(), *l1.ravel().tolist(),
                  *l2.ravel().tolist(), *l3.ravel().tolist()]
        if not all(math.isfinite(v) for v in values):
            op["failed"] = "non-finite output"
        if (again.feasible != cert.feasible
                or abs(lam2 - lam) > 1e-9 * max(1.0, abs(lam))):
            op["problem"] = (f"re-verification disagrees: {again.feasible} "
                             f"{lam2!r} vs {cert.feasible} {lam!r}")
        op["feasible"] = bool(cert.feasible)
        op["digest"] = digest(canon({
            "feasible": cert.feasible, "max_eigenvalue": lam,
            "reverified_max_eigenvalue": lam2, "P": P.ravel().tolist(),
            "l1": l1.ravel().tolist(), "l2": l2.ravel().tolist(),
            "l3": l3.ravel().tolist()}))
        ops.append(op)
    return ops, checks, t_end


KINDS = {"cli": do_cli, "members": do_members, "gains": do_gains}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import safeadp
    import safeadp.cli
    import safeadp.config
    import safeadp.lmi
    import safeadp.presets
    import safeadp.sim
    if src not in Path(safeadp.__file__).resolve().parents:
        print(f"safeadp imported from {safeadp.__file__}, not {src}",
              file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    stamps: list[float] = []
    for fn in (safeadp.sim.run, safeadp.lmi.synthesize_gains):
        spans.swap(fn, first_call_stamp(fn, stamps, spec["setup_only"]))

    try:
        ops, checks, t_end = KINDS[spec["kind"]](spec, safeadp, tracer)
    except SetupDone:
        ops, checks, t_end = [], [], stamps[0]
    result = {"t_work_start": stamps[0] if stamps else None,
              "t_work_end": t_end, "ops": ops, "checks": checks,
              "trace": None}
    if tracer is not None:
        tracer.count("cli.output_bytes",
                     sum(op.get("output_bytes", 0) for op in ops))
        result["trace"] = {"rows": tracer.rows(), "counters": tracer.counters}
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
