"""Reference fingerprints the benchmark checks every operation against.

Usage, from the repository root:

    python3 perfbench/references.py --regen

rebuilds reference/ic_pool.json (the sweep's pool of initial conditions,
each marked with whether its reference run aborts) and
reference/fingerprints.json (a SHA-256 digest per operation input).  A digest
covers every 500th logged row of x, x_hat, W, u and h plus the terminal
summary of a run (every 50th row for the short sweep members), or the
verdicts, maximum eigenvalues and gains of a verification or synthesis, with
every float in its exact hex form.  Regenerate only in a change that says it
alters the numerics.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import workloads

FINGERPRINTS = workloads.REFERENCE_DIR / "fingerprints.json"


def load() -> dict:
    return json.loads(FINGERPRINTS.read_text())["fingerprints"]


def make_pool(src: Path, size: int = workloads.POOL_SIZE,
              seed: int = workloads.POOL_SEED) -> dict:
    """Seeded study1 initial conditions for the sweep.

    x0 is uniform in the domain box, kept where h(x0) > 0.  x_hat0 lies on
    the sphere ||x0 - x_hat0|| = eps0 at a uniform angle, kept where the
    robustified margin at t = 0, h(x_hat0) - ell * chi, is positive.
    """
    sys.path.insert(0, str(src))
    import numpy as np
    import safeadp
    cfg = safeadp.preset("study1")
    problem, _ = safeadp.build_problem(cfg)
    spec, gains = problem.spec, problem.gains
    half = cfg.model.box_halfwidth
    rng = np.random.default_rng(seed)
    members = []
    while len(members) < size:
        x0 = rng.uniform(-half, half, 2)
        if not spec.h(x0) > 0:
            continue
        for _ in range(64):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            x_hat0 = x0 + gains.eps0 * np.array([math.cos(angle),
                                                 math.sin(angle)])
            if spec.h(x_hat0) - spec.ell * gains.chi > 0:
                members.append({"x0": x0.tolist(), "x_hat0": x_hat0.tolist()})
                break
    return {"base_preset": "study1", "pool_seed": seed,
            "horizon": workloads.SWEEP_HORIZON,
            "base_config": json.loads(json.dumps(cfg.to_dict())),
            "members": members}


def regen() -> int:
    import run
    pool = make_pool(run.SRC)
    specs = {
        "safe_study": workloads.spec("safe_study", 0),
        "lq_oracle": workloads.spec("lq_oracle", 0),
        "ic_sweep": workloads.members_spec(pool, range(len(pool["members"]))),
        "gain_design": workloads.gains_spec([
            workloads.gain_case(plant, mode, s)
            for plant in workloads.GAIN_PLANTS for mode in workloads.GAIN_MODES
            for s in range(workloads.GAIN_SEEDS)]),
    }
    fingerprints = {}
    work = run.OUT_DIR / "regen"
    shutil.rmtree(work, ignore_errors=True)
    for name, child_spec in specs.items():
        it = run.run_iteration(child_spec, False, work / name)
        if "ops" not in it:
            print(f"{name}: {it.get('error')}", file=sys.stderr)
            return 1
        fingerprints[name] = {item["key"]: item["digest"]
                              for item in [*it["ops"], *it["checks"]]}
        failed = [op["key"] for op in it["ops"] if op.get("failed")]
        if name == "ic_sweep":
            for op in it["ops"]:
                member = pool["members"][int(op["key"].split("/")[1])]
                member["reference_abort"] = op["abort"] is not None
        print(f"{name}: {len(fingerprints[name])} fingerprints, "
              f"failed operations {failed}")
    shutil.rmtree(work, ignore_errors=True)
    workloads.POOL_FILE.write_text(json.dumps(pool, indent=1) + "\n")
    FINGERPRINTS.write_text(json.dumps(
        {"stamp": run.git_stamp(), "fingerprints": fingerprints},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(regen())
