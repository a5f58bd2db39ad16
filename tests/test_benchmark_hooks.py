"""The package surface that the benchmark's outside-in tracer relies on.

perfbench/spans.py swaps timing wrappers into named module attributes of the
package and rebuilds Basis and SafetySpec with dataclasses.replace.  A rename
or a frozen field that blocks replace would break the traced benchmark run,
so this installs the tracer in a fresh interpreter and runs a short closed
loop under it, then `safeadp run` through the CLI, whose output writers the
tracer also wraps.
"""

import json
import subprocess
import sys
from pathlib import Path

import safeadp as sa
from safeadp.cli import main

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
out = sys.argv[3]
import spans
import safeadp, safeadp.cli
tracer = spans.Tracer()
spans.install(tracer)
problem, _ = safeadp.build_problem(safeadp.preset("study2").replace_sim(T=0.02))
log, summary = safeadp.sim.run(problem)
code = safeadp.cli.main(["run", "--preset", "study2", "--horizon", "0.02",
                         "--out", out])
names = sorted({row[0] for row in tracer.rows()})
print(json.dumps({"x": log.x.tolist(), "w": log.weights.tolist(),
                  "names": names, "code": code}))
"""


def _files(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_tracer_installs_and_keeps_the_numerics(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"),
         str(ROOT / "src"), str(tmp_path / "traced")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.strip().splitlines()[-1])
    problem, _ = sa.build_problem(sa.preset("study2").replace_sim(T=0.02))
    log, _ = sa.run(problem)
    assert traced["x"] == log.x.tolist()
    assert traced["w"] == log.weights.tolist()
    for name in ("sim.run", "critic.basis", "critic.critic_derivatives",
                 "model.drift", "observer.observer_rhs", "safety.h",
                 "safety.barrier_value_and_gradient", "cli.output"):
        assert name in traced["names"]
    assert traced["code"] == 0
    assert main(["run", "--preset", "study2", "--horizon", "0.02",
                 "--out", str(tmp_path / "plain")]) == 0
    plain = _files(tmp_path / "plain")
    assert {"trajectory.csv", "summary.json", "certificate.json",
            "plotdata/state_space.csv"} <= set(plain)
    assert _files(tmp_path / "traced") == plain
