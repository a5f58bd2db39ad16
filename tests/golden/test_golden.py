"""Golden trajectories: closed-loop runs compared bitwise with stored hex floats.

The cases cover paths that the benchmark workloads do not: the plain barrier,
the barrier switched off with fixed extrapolation points, the robust barrier
with a live point envelope, and a thinned log.  Regenerate the stored file
only in a change that deliberately alters the numerics, and say so in
CHANGES.md:

    PYTHONPATH=src python3 tests/golden/test_golden.py --regen

The stored file was generated from the source before the fused critic
evaluator replaced the three separate policy / Bellman-error code paths.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import safeadp as sa

GOLDEN_FILE = Path(__file__).resolve().parent / "fingerprints.json"
HORIZON = 0.3
STRIDE = 10                 # every 10th logged row
# log fields fingerprinted, in row order: x, x_hat, W, u, h, Bellman error,
# excitation level
LOGGED = ("x", "x_hat", "weights", "u", "h", "delta", "excitation")
SUMMARY_KEYS = ("terminal_x", "terminal_x_hat", "terminal_weights",
                "terminal_err", "min_h", "min_h_robust",
                "max_err_envelope_ratio", "gain_eig_min", "gain_eig_max",
                "gain_asym_max", "excitation_min", "steps", "abort_reason",
                "monitor_events")


def _config(name: str) -> sa.RunConfig:
    if name == "study1_live":
        cfg = sa.preset("study1")
        cfg = replace(cfg, learning=replace(cfg.learning,
                                            point_envelope="live"))
    elif name == "study2_log7":
        cfg = sa.preset("study2").replace_sim(log_every=7)
    else:
        cfg = sa.preset(name)
    return cfg.replace_sim(T=HORIZON)


CASES = ("study1_lcbf", "study2_nocbf", "study1_live", "study2_log7")


def _hex(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    return value


def fingerprint(name: str) -> dict:
    """Every STRIDE-th logged row as one line of hex floats, plus the summary."""
    problem, _ = sa.build_problem(_config(name))
    log, summary = sa.run(problem)
    rows = [" ".join(float(v).hex() for key in LOGGED
                     for v in np.ravel(getattr(log, key)[i]))
            for i in range(0, log.size, STRIDE)]
    s = summary.to_json_dict()
    return {"size": log.size, "rows": rows,
            "summary": {k: _hex(s[k]) for k in SUMMARY_KEYS}}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


@pytest.mark.parametrize("name", CASES)
def test_golden_trajectory_bitwise(name, golden):
    got = fingerprint(name)
    want = golden[name]
    assert got["size"] == want["size"]
    for j, (g, w) in enumerate(zip(got["rows"], want["rows"])):
        assert g == w, f"{name}: logged row {j * STRIDE} differs"
    assert got["summary"] == want["summary"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    GOLDEN_FILE.write_text(json.dumps({n: fingerprint(n) for n in CASES},
                                      indent=1, sort_keys=True) + "\n")
