"""The gain_design fingerprints of the benchmark, checked in the test suite.

perfbench/reference/fingerprints.json holds a digest of every verification
and synthesis that the gain_design workload can run: both study plants, both
theta modes and the 16 search seeds.  This runs the benchmark's own gain code
(`child.do_gains`) over all of them, so that a change to the gain search that
moves a digest fails here and not only in a benchmark run.
"""

import importlib
from pathlib import Path

import safeadp

ROOT = Path(__file__).resolve().parent.parent


def test_gain_design_matches_the_benchmark_fingerprints(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    child, references, workloads = (importlib.import_module(name) for name in
                                    ("child", "references", "workloads"))
    spec = workloads.gains_spec([
        workloads.gain_case(plant, mode, seed)
        for plant in workloads.GAIN_PLANTS for mode in workloads.GAIN_MODES
        for seed in range(workloads.GAIN_SEEDS)])
    ops, checks, _ = child.do_gains(spec, safeadp, None)
    got = {item["key"]: item["digest"] for item in [*ops, *checks]}
    expected = references.load()["gain_design"]
    assert len(got) == 66
    assert [key for key in expected if got.get(key) != expected[key]] == []
    assert got.keys() == expected.keys()
