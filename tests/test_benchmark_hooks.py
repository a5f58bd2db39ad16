"""The package surface that the benchmark's outside-in tracer relies on.

perfbench/spans.py swaps timing wrappers into named module attributes of the
package and rebuilds Basis and SafetySpec with dataclasses.replace.  A rename
or a frozen field that blocks replace would break the traced benchmark run,
so this installs the tracer in a fresh interpreter and runs a short closed
loop under it, then `safeadp run` through the CLI, whose output writers the
tracer also wraps.  Gain verification and a short synthesis then run in two
more fresh interpreters, with and without the tracer, which counts calls to
`assemble_lmi_matrix` as `lmi.matrices`.
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


# Verifies the study1 preset gains and runs a 20-step synthesis in both modes,
# with the tracer installed when the last argument is "traced"; prints every
# output in exact form, the LMI kernel calls made and the lmi.matrices count.
LMI_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
import safeadp, safeadp.lmi as lmi
tracer = spans.Tracer()
if sys.argv[3] == "traced":
    spans.install(tracer)
evaluations = 0
top_eigenvalues = lmi._top_eigenvalues

def counted(*args, **kwargs):
    global evaluations
    evaluations += 1
    return top_eigenvalues(*args, **kwargs)

lmi._top_eigenvalues = counted
cfg = safeadp.preset("study1")
model = cfg.model.build()
gains, _ = cfg.observer.build(model)
problem = lmi.LmiProblem.from_model(model, cfg.observer.alpha)
out = {}
for mode in lmi.VERIFY_MODES:
    cert = lmi.verify_gains(problem, gains.P, gains.R_lmi, gains.l1, gains.l2,
                            mode=mode)
    out["verify/" + mode] = json.dumps(cert.to_json_dict())
    *arrays, cert = lmi.synthesize_gains(problem, lmi.SearchParams(budget=20),
                                         mode=mode)
    out["synthesize/" + mode] = ([a.tobytes().hex() for a in arrays]
                                 + [json.dumps(cert.to_json_dict())])
print(json.dumps({"out": out, "evaluations": evaluations,
                  "names": sorted({row[0] for row in tracer.rows()}),
                  "matrices": tracer.counters.get("lmi.matrices", 0)}))
"""


def _lmi_run(how: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", LMI_SCRIPT, str(ROOT / "perfbench"),
         str(ROOT / "src"), how],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tracer_counts_one_assembly_per_lmi_evaluation():
    traced, plain = _lmi_run("traced"), _lmi_run("plain")
    assert traced["out"] == plain["out"]
    assert {"lmi.verify", "lmi.synth"} <= set(traced["names"])
    # each kernel call assembles its whole stack of candidates once
    assert traced["evaluations"] == plain["evaluations"]
    assert traced["matrices"] == traced["evaluations"]
    # evaluated one at a time, the two verifications of the preset gains and
    # the two 20-candidate syntheses would take 2 + 2 * (1 + 20 + 1) calls;
    # batches take fewer
    assert traced["evaluations"] < 2 + 2 * (1 + 20 + 1)
