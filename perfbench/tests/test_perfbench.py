"""Tests of the benchmark's own code: inputs, tracing arithmetic, verdicts.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math

import pytest

import child
import compare
import references
import run
import spans
import workloads


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_same_inputs(name):
    assert workloads.spec(name, 7) == workloads.spec(name, 7)


@pytest.mark.parametrize("name", ["ic_sweep", "gain_design"])
def test_other_seeds_give_other_inputs(name):
    specs = [json.dumps(workloads.spec(name, s)) for s in range(5)]
    assert len(set(specs)) == 5


def test_sweep_members_come_from_the_pool_without_repeats():
    pool = workloads.load_pool()
    spec = workloads.spec("ic_sweep", 3)
    keys = [m["key"] for m in spec["members"]]
    assert len(keys) == len(set(keys)) == workloads.SWEEP_MEMBERS
    for member in spec["members"]:
        ic = pool["members"][int(member["key"].split("/")[1])]
        assert member["config"]["sim"]["x0"] == ic["x0"]
        assert member["config"]["sim"]["x_hat0"] == ic["x_hat0"]
        assert member["config"]["sim"]["T"] == workloads.SWEEP_HORIZON


def test_every_seed_draws_the_same_share_of_aborting_members():
    pool = workloads.load_pool()
    counts = {sum(pool["members"][i]["reference_abort"]
                  for i in workloads.sweep_indices(seed, pool))
              for seed in range(20)}
    assert len(counts) == 1 and 0 < counts.pop() < workloads.SWEEP_MEMBERS


def test_sweep_initial_conditions_on_the_eps0_sphere_and_safe():
    import numpy as np
    import safeadp
    pool = workloads.load_pool()
    stored = json.loads(json.dumps(pool))
    for ic in stored["members"]:
        del ic["reference_abort"]
    assert stored == references.make_pool(run.SRC)   # the generator reproduces it
    problem, _ = safeadp.build_problem(safeadp.preset(pool["base_preset"]))
    spec, gains = problem.spec, problem.gains
    half = pool["base_config"]["model"]["box_halfwidth"]
    assert len(pool["members"]) == workloads.POOL_SIZE
    for ic in pool["members"]:
        x0, x_hat0 = np.array(ic["x0"]), np.array(ic["x_hat0"])
        assert abs(np.linalg.norm(x0 - x_hat0) - gains.eps0) <= 1e-12
        assert np.all(np.abs(x0) <= half)
        assert spec.h(x0) > 0
        assert spec.h(x_hat0) - spec.ell * gains.chi > 0


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_duration_minus_child_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 6].
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    table = {(r[0], r[1]): r[2:] for r in tracer.rows()}
    assert table[("a", None)] == [1, 10, 6]
    assert table[("b", "a")] == [2, 4, 3]
    assert table[("c", "b")] == [1, 1, 1]


def test_layer_metrics_sum_self_time_by_layer():
    rows = [["sim.run", None, 1, 10.0, 4.0],
            ["critic.policy", "sim.run", 5, 3.0, 2.0],
            ["critic.basis", "critic.policy", 5, 1.0, 1.0],
            ["model.drift", "sim.run", 2, 3.0, 3.0]]
    m = spans.layer_metrics(rows, {"critic.extrap_distinct": 0}, steps=2)
    assert m["sim.self_s"] == 4.0
    assert m["critic.policy.self_s"] == 2.0
    assert m["critic.basis.calls"] == 5
    assert m["model.self_s"] == 3.0
    assert m["critic.calls_per_step"] == 2.5
    assert m["safety.calls"] == 0 and m["critic.extrap_distinct_frac"] == 0.0


def test_an_error_counts_once_per_layer():
    tracer = spans.Tracer()
    exc = RuntimeError("boom")
    tracer.error("model", exc)
    tracer.error("model", exc)
    tracer.error("critic", exc)
    assert tracer.counters == {"model.errors": 1, "critic.errors": 1}


def test_fingerprint_is_bitwise():
    cols = ["t", "x1", "xhat1", "w1", "u1", "h", "err_norm"]
    rows = [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            [0.1, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5],
            [0.2, 1.0 + 2 ** -52, 2.0, 3.0, 4.0, 5.0, 6.0]]
    summary = {"steps": 2, "min_h": math.nan}
    fp = child.run_fingerprint(cols, rows, summary, stride=2)
    assert fp["columns"] == ["x1", "xhat1", "w1", "u1", "h"]
    assert len(fp["rows"]) == 2
    other = [r[:] for r in rows]
    other[2][1] = 1.0
    assert child.digest(fp) != child.digest(
        child.run_fingerprint(cols, other, summary, stride=2))
    assert fp["summary"]["min_h"] == "nan"


def _verdict(parent, change, better="lower", bound=0.1):
    return compare.verdict(parent, change, better, bound)


def test_verdict_improved_needs_nine_tenths_of_ten_pairs():
    parent = [10.0 + 0.01 * i for i in range(10)]
    change = [9.0] * 9 + [11.0]
    assert _verdict(parent, change) == "improved"
    assert _verdict(parent, [9.0] * 8 + [11.0] * 2) != "improved"
    assert _verdict(parent[:9], change[:9]) == "unchanged"   # fewer than ten pairs


def test_verdict_improved_needs_medians_apart_by_the_parent_spread():
    parent = [9.0, 11.0] * 5
    change = [p - 0.01 for p in parent]       # wins every pair, by little
    assert _verdict(parent, change, bound=0.5) == "unchanged"


def test_verdict_regressed_beyond_the_bound():
    parent = [10.0] * 10
    assert _verdict(parent, [11.5] * 10) == "regressed"
    assert _verdict(parent, [10.5] * 10) == "unchanged"
    assert _verdict(parent, [8.5] * 10, better="higher") == "regressed"


def test_verdict_unresolved_when_spread_exceeds_the_bound():
    parent = [8.0, 12.0] * 5
    change = [9.0, 13.0] * 5
    assert _verdict(parent, change) == "unresolved"
    assert _verdict(parent, [7.0] * 10) == "unchanged"     # every run better


def test_traced_iteration_keeps_numerics_and_counts_the_loop(tmp_path):
    spec = workloads.cli_spec("probe", "study2", "0.02", True)
    plain = run.run_iteration(spec, False, tmp_path / "plain")
    traced = run.run_iteration(spec, True, tmp_path / "traced")
    assert "error" not in plain and "error" not in traced
    assert plain["ops"][0]["digest"] == traced["ops"][0]["digest"]
    assert plain["trace"] is None
    steps = traced["ops"][0]["steps"]
    assert steps == 20
    m = spans.layer_metrics(traced["trace"]["rows"],
                            traced["trace"]["counters"], steps)
    # four stages per step plus the start-of-step and final evaluations
    assert m["critic.policy.calls"] == 4 * steps + 1
    assert m["critic.bellman.calls"] == steps + 1
    assert m["critic.calls_per_step"] == (14 * steps + 5) / steps
    assert m["critic.extrap_distinct_frac"] == 1 / (4 * steps + 1)
    assert m["observer.rhs_calls"] == 4 * steps + 1
    assert m["lmi.verify.calls"] == 2 and m["cli.output_bytes"] > 0
