"""Golden trajectories: closed-loop runs compared bitwise with stored hex floats.

The short cases cover paths that the benchmark workloads do not: the plain
barrier, the barrier switched off with fixed extrapolation points, the robust
barrier with a live point envelope, and a thinned log.  The full cases pin
the four presets that the session fixtures of tests/conftest.py run to their
horizon, T = 10, so those runs add no integration here.  Regenerate the
stored file only in a change that deliberately alters the numerics, and say
so in CHANGES.md:

    PYTHONPATH=src python3 tests/golden/test_golden.py --regen

The stored file was generated from the source before the fused critic
evaluator replaced the three separate policy / Bellman-error code paths.
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import safeadp as sa

GOLDEN_FILE = Path(__file__).resolve().parent / "fingerprints.json"
HORIZON = 0.3
STRIDE = 10                 # every 10th logged row of a short case
FULL_STRIDE = 500           # every 500th logged row of a full case
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
# full case -> (its preset, the session fixture that runs it)
FULL_CASES = {"study1_full": ("study1", "study1_run"),
              "study2_full": ("study2", "study2_run"),
              "study2_nocbf_full": ("study2_nocbf", "study2_nocbf_run"),
              "lq_oracle_full": ("lq_oracle", "oracle_run")}


def _hex(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    return value


def fingerprint(log, summary, stride: int) -> dict:
    """Every stride-th logged row as one line of hex floats, plus the
    summary."""
    rows = [" ".join(float(v).hex() for key in LOGGED
                     for v in np.ravel(getattr(log, key)[i]))
            for i in range(0, log.size, stride)]
    s = summary.to_json_dict()
    return {"size": log.size, "rows": rows,
            "summary": {k: _hex(s[k]) for k in SUMMARY_KEYS}}


def _run(config: sa.RunConfig):
    problem, _ = sa.build_problem(config)
    return sa.run(problem)


def _compare(name: str, log, got: dict, want: dict, stride: int) -> None:
    """Fail unless got is the stored fingerprint want, naming the first
    differing logged row and value, and the largest absolute deviation over
    the differing values, or the first differing summary key."""
    assert got["size"] == want["size"], \
        f"{name}: {got['size']} logged rows, stored {want['size']}"
    labels = [f"{key}[{j}]" for key in LOGGED
              for j in range(np.size(getattr(log, key)[0]))]
    diffs = [(j, k, float.fromhex(a), float.fromhex(b))
             for j, (g, w) in enumerate(zip(got["rows"], want["rows"]))
             for k, (a, b) in enumerate(zip(g.split(), w.split())) if a != b]
    if diffs:
        j, k, a, b = diffs[0]
        deviation = max((abs(a - b) for *_, a, b in diffs
                         if not math.isnan(a - b)), default=math.nan)
        pytest.fail(f"{name}: logged row {j * stride} differs first in "
                    f"{labels[k]} ({a!r}, stored {b!r}); largest deviation "
                    f"{deviation:.3g} over {len(diffs)} differing values")
    for key in SUMMARY_KEYS:
        assert got["summary"][key] == want["summary"][key], \
            f"{name}: summary {key} differs"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


@pytest.mark.parametrize("name", CASES)
def test_golden_trajectory_bitwise(name, golden):
    log, summary = _run(_config(name))
    _compare(name, log, fingerprint(log, summary, STRIDE), golden[name],
             STRIDE)


@pytest.mark.parametrize("name", FULL_CASES)
def test_full_horizon_run_bitwise(name, golden, request):
    run = request.getfixturevalue(FULL_CASES[name][1])
    _compare(name, run.log, fingerprint(run.log, run.summary, FULL_STRIDE),
             golden[name], FULL_STRIDE)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    cases = {n: fingerprint(*_run(_config(n)), STRIDE) for n in CASES}
    cases.update({n: fingerprint(*_run(sa.preset(p)), FULL_STRIDE)
                  for n, (p, _) in FULL_CASES.items()})
    GOLDEN_FILE.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
