"""Command-line entry point: run experiments, verify and synthesize gains,
list presets, audit Jacobian bounds.

Artifacts per run: trajectory.csv (fixed column order), summary.json,
certificate.json (when an observer is configured), and plotdata/*.csv with
the state-space, weight, and control curves.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import lmi
from .config import (ConfigError, RunConfig, _invalid, build_problem,
                     load_config)
from .model import audit_jacobian_bounds
from .presets import PRESET_NAMES, preset
from .safety import lipschitz_audit
from .sim import run

EXIT_OK = 0
EXIT_RUN_FAILED = 1
EXIT_USAGE = 2


def _preset(name: str) -> RunConfig:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; "
                          f"known: {', '.join(PRESET_NAMES)}")
    return preset(name)


def _load_run_config(args) -> RunConfig:
    if args.config and args.preset:
        raise ConfigError("pass either --config or --preset, not both")
    if args.config:
        return load_config(args.config)
    if args.preset:
        return _preset(args.preset)
    raise ConfigError("a --config file or a --preset name is required")


# plotdata file -> the log fields it holds, in column order
_PLOTDATA = {"state_space.csv": ("x", "x_hat"),
             "weights.csv": ("t", "weights"), "control.csv": ("t", "u")}


def _write_plotdata(out: Path, log):
    pd = out / "plotdata"
    pd.mkdir(exist_ok=True)
    for name, attrs in _PLOTDATA.items():
        log.to_csv(pd / name, attrs)


def _certificates(problem) -> dict:
    """Verification certificate of the problem's observer gains per mode."""
    g = problem.gains
    problem_lmi = lmi.LmiProblem.from_model(problem.model, g.alpha)
    return {mode: lmi.verify_gains(problem_lmi, g.P, g.R_lmi, g.l1, g.l2,
                                   mode=mode)
            for mode in lmi.VERIFY_MODES}


def _check_writable(out: Path):
    """Raise OSError, creating nothing, unless a file can be made in the
    nearest existing ancestor of `out`."""
    existing = next(p for p in (out, *out.parents) if p.exists())
    try:
        tempfile.TemporaryFile(dir=existing).close()
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc.strerror}") from exc


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_run(args) -> int:
    overrides = {key: value for key, value in (
        ("dt", args.dt), ("T", args.horizon), ("monitor_action", args.monitor))
        if value is not None}
    cfg = _load_run_config(args).replace_sim(**overrides)
    problem, synth_cert = build_problem(cfg)
    certs = None
    if cfg.observer.enabled:
        certs = {mode: cert.to_json_dict()
                 for mode, cert in _certificates(problem).items()}
        if synth_cert is not None:
            certs["synthesis"] = synth_cert.to_json_dict()

    out = Path(args.out)
    _check_writable(out)
    try:
        log, summary = run(problem)
    except (ValueError, MemoryError) as exc:  # MemoryError: a log too large
        print(json.dumps({"error": "run_error", "reason": str(exc)}))
        return EXIT_RUN_FAILED
    out.mkdir(parents=True, exist_ok=True)
    if certs is not None:
        summary.certificate_file = "certificate.json"
        _write_json(out / summary.certificate_file, certs)
    log.to_csv(out / "trajectory.csv")
    _write_plotdata(out, log)

    _write_json(out / "summary.json", summary.to_json_dict())
    if summary.ok:
        print(f"run complete: {log.size} records, min h = {summary.min_h:.6g}, "
              f"terminal |x| = {np.linalg.norm(summary.terminal_x):.6g}")
        return EXIT_OK
    print(json.dumps({"error": "run_aborted", "reason": summary.abort_reason}))
    return EXIT_RUN_FAILED


def _cmd_verify_lmi(args) -> int:
    cfg = _load_run_config(args)
    problem, _ = build_problem(cfg)
    certs = _certificates(problem)
    for mode, cert in certs.items():
        verdict = "feasible" if cert.feasible else "infeasible"
        print(f"{mode}: {verdict} (max eigenvalue {cert.max_eigenvalue:.6g}, "
              f"|l1C| = {cert.norm_l1C:.4g}, |l2C| = {cert.norm_l2C:.4g})")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "certificate.json",
                {mode: cert.to_json_dict() for mode, cert in certs.items()})
    return EXIT_OK


def _cmd_synthesize(args) -> int:
    cfg = _load_run_config(args)
    # the flags passed, each an observer.synthesis key that overrides the config
    keys = ("mode", *(f.name for f in fields(lmi.SearchParams)))
    flags = {key: getattr(args, key) for key in keys
             if getattr(args, key) is not None}
    with _invalid("observer"):
        observer = replace(cfg.observer, gains="synthesize",
                           synthesis={**cfg.observer.synthesis, **flags})
    gains, cert = observer.build(cfg.model.build())
    verdict = "feasible" if cert.feasible else "infeasible"
    print(f"synthesis ({cert.mode}): {verdict}, "
          f"max eigenvalue {cert.max_eigenvalue:.6g}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "gains": {"P": gains.P.tolist(), "l1": gains.l1.ravel().tolist(),
                  "l2": gains.l2.ravel().tolist(),
                  "l3": gains.l3.ravel().tolist()},
        "certificate": cert.to_json_dict(),
    }
    _write_json(out / "synthesis.json", payload)
    return EXIT_OK if cert.feasible else EXIT_RUN_FAILED


def _cmd_presets(args) -> int:
    if args.name:
        cfg = _preset(args.name)
        print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True, default=str))
    else:
        for name in PRESET_NAMES:
            print(name)
    return EXIT_OK


def _cmd_audit_bounds(args) -> int:
    if args.grid < 2:
        raise ConfigError(f"--grid must be at least 2, got {args.grid}")
    if not args.tol >= 0:
        raise ConfigError(f"--tol must be nonnegative, got {args.tol}")
    cfg = _load_run_config(args)
    model = cfg.model.build()
    report = audit_jacobian_bounds(model, n_grid=args.grid, tol=args.tol)
    spec = cfg.safety.build()
    if spec is not None:
        report["lipschitz"] = lipschitz_audit(spec, model.domain, seed=args.seed)
        if not report["lipschitz"]["ok"]:
            print("warning: configured ell is smaller than the observed "
                  f"variation ratio {report['lipschitz']['observed_ratio_max']:.4g}",
                  file=sys.stderr)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "bounds_audit.json", report)
    return EXIT_OK if report["ok"] else EXIT_RUN_FAILED


def _add_common(p, out="results"):
    p.add_argument("--config", help="path to a JSON run configuration")
    p.add_argument("--preset", help=f"preset name ({', '.join(PRESET_NAMES)})")
    p.add_argument("--out", default=out, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safeadp",
        description="Safe output-feedback model-based RL simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate a closed-loop experiment")
    _add_common(p)
    p.add_argument("--dt", type=float, help="override step size")
    p.add_argument("--horizon", type=float, help="override horizon T")
    p.add_argument("--monitor", choices=("warn", "abort"),
                   help="override monitor action")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify-lmi", help="verify observer gains")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_lmi)

    p = sub.add_parser("synthesize", help="search for feasible observer gains")
    _add_common(p)
    for f in fields(lmi.SearchParams):
        p.add_argument(f"--{f.name}", type=type(f.default),
                       help=f"override observer.synthesis.{f.name} "
                            f"(default {f.default})")
    p.add_argument("--mode", choices=lmi.VERIFY_MODES,
                   help="override observer.synthesis.mode")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("presets", help="list presets or dump one as JSON")
    p.add_argument("--name", default=None)
    p.set_defaults(func=_cmd_presets)

    p = sub.add_parser("audit-bounds", help="finite-difference Jacobian audit")
    _add_common(p, out=None)
    p.add_argument("--grid", type=int, default=21, help="samples per axis")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the sampled Lipschitz audit")
    p.set_defaults(func=_cmd_audit_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config_error", "reason": str(exc)}),
              file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(json.dumps({"error": "io_error", "reason": str(exc)}),
              file=sys.stderr)
        return EXIT_RUN_FAILED


if __name__ == "__main__":
    sys.exit(main())
