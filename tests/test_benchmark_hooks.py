"""The package surface that the benchmark's outside-in tracer relies on.

perfbench/spans.py swaps timing wrappers into named module attributes of the
package and rebuilds Basis and SafetySpec with dataclasses.replace.  A rename
or a frozen field that blocks replace would break the traced benchmark run,
so this installs the tracer in a fresh interpreter and runs a short closed
loop under it.
"""

import json
import subprocess
import sys
from pathlib import Path

import safeadp as sa

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
import safeadp, safeadp.cli
tracer = spans.Tracer()
spans.install(tracer)
problem, _ = safeadp.build_problem(safeadp.preset("study2").replace_sim(T=0.02))
log, summary = safeadp.sim.run(problem)
names = sorted({row[0] for row in tracer.rows()})
print(json.dumps({"x": log.x.tolist(), "w": log.weights.tolist(),
                  "names": names}))
"""


def test_tracer_installs_and_keeps_the_numerics():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"),
         str(ROOT / "src")], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.strip().splitlines()[-1])
    problem, _ = sa.build_problem(sa.preset("study2").replace_sim(T=0.02))
    log, _ = sa.run(problem)
    assert traced["x"] == log.x.tolist()
    assert traced["w"] == log.weights.tolist()
    for name in ("sim.run", "critic.basis", "critic.critic_derivatives",
                 "model.drift", "observer.observer_rhs", "safety.h",
                 "safety.barrier_value_and_gradient"):
        assert name in traced["names"]
