import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import safeadp as sa
from safeadp import sim
from safeadp.critic import LearningConfig, quadratic_basis_2d
from safeadp.observer import ObserverGains, observer_rhs
from safeadp.safety import parabola_interior
from safeadp.sim import (ControlProblem, SimConfig, _floor_gain, _make_rhs,
                         _rk4_step, run)

BASIS = quadratic_basis_2d()


def _problem(x0=(0.1, 0.1), x_hat0=None, eps0=2.5, mode="none", spec=None,
             T=0.5, dt=1e-2, points=((0.2, 0.1), (-0.1, 0.3)), l3=(0.0, 0.0),
             point_envelope="zero", monitor_action="warn", observer=True,
             Wc0=(0.5, 1.0, 0.8, 0.1, 0.1, 0.1), u_bar=10.0, halfwidth=3.0):
    model = sa.vamvoudakis2d(u_bar=u_bar, box_halfwidth=halfwidth)
    gains = ObserverGains(P=np.array([[0.27222, 0.15875], [0.15875, 0.40954]]),
                          l1=np.array([0.14719, 0.14719]),
                          l2=np.array([0.045396, 0.045396]),
                          l3=np.array(l3), alpha=2.0, eps0=eps0)
    learn = LearningConfig(k_c=5.0, gamma_c=1.0, beta=0.01, u_bar=u_bar,
                           R_u=np.array([[1.0]]), Q=np.eye(2),
                           points=np.array(points),
                           point_envelope=point_envelope)
    sim_cfg = SimConfig(dt=dt, T=T, x0=x0,
                        x_hat0=x_hat0 if x_hat0 is not None else x0,
                        Wc0=Wc0, Gamma0=np.eye(6), controller_mode=mode,
                        monitor_action=monitor_action)
    return ControlProblem(model=model, gains=gains, basis=BASIS, learn=learn,
                          spec=spec, sim=sim_cfg, observer_enabled=observer)


def test_fixed_point_step():
    # at the augmented origin with the extrapolation point pinned there, every
    # derivative vanishes except the forgetting-factor growth of the gain
    prob = _problem(x0=(0.0, 0.0), eps0=1e-12, points=((0.0, 0.0),))
    W0 = np.array([0.5, 1.0, 0.8, 0.1, 0.1, 0.1])
    x, xh, W, G, _, _ = _rk4_step(_make_rhs(prob), prob.sim.dt, 0.0,
                                  np.zeros(2), np.zeros(2), W0.copy(),
                                  np.eye(6))
    assert np.allclose(x, 0.0, atol=1e-12)
    assert np.allclose(xh, 0.0, atol=1e-12)
    assert np.allclose(W, W0, atol=1e-12)
    # RK4 on gain_dot = beta*gain reproduces exp(beta dt) to high order
    assert np.allclose(G, np.eye(6) * np.exp(0.01 * prob.sim.dt), atol=1e-12)


def test_two_runs_bit_identical(tmp_path):
    logs = []
    for i in range(2):
        prob = _problem(T=0.2)
        log, _ = run(prob)
        path = tmp_path / f"run{i}.csv"
        log.to_csv(path)
        logs.append(path.read_bytes())
    assert logs[0] == logs[1]


def test_zero_horizon_logs_initial_record_only():
    prob = _problem(T=0.0)
    log, summary = run(prob)
    assert log.size == 1
    assert summary.steps == 0
    assert log.t[0] == 0.0


def test_envelope_column_is_closed_form():
    prob = _problem(T=0.3)
    log, _ = run(prob)
    expected = prob.gains.chi * np.exp(-2.0 * log.t)
    assert np.array_equal(log.envelope, expected)


def test_initial_error_bound_enforced_with_slack():
    # error below the bound: fine
    run(_problem(x0=(0.0, 0.0), x_hat0=(0.5, 0.0), eps0=1.0, T=0.05))
    # within 2% slack: warning event, run proceeds
    _, summary = run(_problem(x0=(0.0, 0.0), x_hat0=(1.01, 0.0), eps0=1.0,
                              T=0.05))
    assert any(e["monitor"] == "initial_error_bound"
               for e in summary.monitor_events)
    # beyond slack: rejected
    with pytest.raises(ValueError):
        run(_problem(x0=(0.0, 0.0), x_hat0=(1.2, 0.0), eps0=1.0, T=0.05))


def test_envelope_monitor_warn_and_abort():
    # a do-nothing observer (all gains zero) against the unstable plant lets
    # the error grow while the envelope shrinks
    kw = dict(x0=(0.4, 0.4), x_hat0=(0.4, 0.9), eps0=0.6, T=1.5, dt=1e-3)
    _, warn = run(_problem(monitor_action="warn", **kw))
    assert warn.ok
    assert any(e["monitor"] == "error_envelope" for e in warn.monitor_events)
    _, aborted = run(_problem(monitor_action="abort", **kw))
    assert not aborted.ok
    assert "monitor_abort" in aborted.abort_reason
    assert aborted.steps < warn.steps


def test_barrier_domain_abort_reports():
    spec = parabola_interior(kappa=0.01, ell=0.1)
    # estimate starts outside the robustified set: margin < 0 at t = 0
    prob = _problem(x0=(0.9, 0.0), x_hat0=(0.95, 0.0), eps0=2.5, T=0.5,
                    mode="rlcbf", spec=spec)
    log, summary = run(prob)
    assert not summary.ok
    assert summary.abort_reason.startswith("barrier_domain")
    assert log.size == 0


def test_safety_event_recorded_in_none_mode():
    spec = parabola_interior(kappa=0.01, ell=0.1)
    # start outside the safe set with no barrier in the loop: the violation is
    # recorded but the run completes
    prob = _problem(x0=(1.5, 0.0), x_hat0=(1.5, 0.0), T=0.2, mode="none",
                    spec=spec)
    log, summary = run(prob)
    assert summary.ok
    assert any(e["monitor"] == "safety_h" for e in summary.monitor_events)
    assert summary.min_h < 0


def test_gain_floor_utility():
    bad = np.array([[1.0, 0.5], [0.2, -2.0]])
    fixed, asym, ev = _floor_gain(bad)
    assert asym == pytest.approx(0.3)
    assert np.allclose(fixed, fixed.T)
    assert np.linalg.eigvalsh(fixed)[0] >= 0.99e-8
    # the returned eigenvalues are those of the returned gain, bit for bit,
    # on the clipping path and on the pass-through path
    assert np.array_equal(ev, np.linalg.eigvalsh(fixed))
    good = np.array([[2.0, 0.3], [0.1, 1.0]])
    kept, _, ev = _floor_gain(good)
    assert np.array_equal(kept, 0.5 * (good + good.T))
    assert np.array_equal(ev, np.linalg.eigvalsh(kept))


def test_observer_disabled_tracks_state_exactly():
    prob = _problem(T=0.3, observer=False, x0=(0.5, -0.4))
    log, summary = run(prob)
    assert np.array_equal(log.x, log.x_hat)
    assert summary.terminal_err == 0.0


def test_log_every_thins_records():
    full, _ = run(_problem(T=0.2))
    prob = _problem(T=0.2)
    thin_cfg = SimConfig(**{**prob.sim.__dict__, "log_every": 5})
    thin, _ = run(ControlProblem(model=prob.model, gains=prob.gains,
                                 basis=prob.basis, learn=prob.learn,
                                 spec=prob.spec, sim=thin_cfg))
    assert thin.size == (full.size - 1) // 5 + 1
    assert np.allclose(thin.t, full.t[::5])


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=-1.0, T=1.0, x0=np.zeros(2), x_hat0=np.zeros(2),
                  Wc0=np.zeros(6), Gamma0=np.eye(6))
    with pytest.raises(ValueError):
        SimConfig(dt=1.0, T=0.5, x0=np.zeros(2), x_hat0=np.zeros(2),
                  Wc0=np.zeros(6), Gamma0=np.eye(6))
    with pytest.raises(ValueError):
        SimConfig(dt=1e-2, T=1.0, x0=np.zeros(2), x_hat0=np.zeros(2),
                  Wc0=np.zeros(6), Gamma0=np.eye(6), controller_mode="qp")
    with pytest.raises(ValueError):
        SimConfig(dt=1e-2, T=1.0, x0=np.zeros(2), x_hat0=np.zeros(2),
                  Wc0=np.zeros(6), Gamma0="eye")


# ---------------------------------------------------------------- evaluation errors

def _nan_beyond(x1_max, u_bar=100.0, box_halfwidth=3.0):
    """The benchmark plant with a drift that turns NaN where x1 > x1_max."""
    base = sa.vamvoudakis2d(u_bar=u_bar, box_halfwidth=box_halfwidth)

    def f(x):
        x = np.asarray(x, float)
        return np.where(x[..., :1] > x1_max, np.nan, base.f(x))

    return dataclasses.replace(base, f=f, name="nan_beyond")


def _oracle_problem(model, x0=(0.9, 2.5), T=0.5):
    cfg = sa.preset("lq_oracle").replace_sim(T=T, x0=x0, x_hat0=x0)
    problem, _ = sa.build_problem(cfg)
    return dataclasses.replace(problem, model=model)


ABORT = re.compile(r"evaluation_error at step (\d+), t=(\S+), RK4 stage "
                   r"([1-4]): (\w+): ")


def test_nonfinite_plant_mid_run_aborts_with_step_time_and_stage():
    # the state crosses x1 = 1.1 near t = 0.3; the points stop at x1 = 1
    log, summary = run(_oracle_problem(_nan_beyond(1.1)))
    assert not summary.ok
    m = ABORT.match(summary.abort_reason)
    assert m, summary.abort_reason
    k, t, stage, kind = int(m[1]), float(m[2]), int(m[3]), m[4]
    assert kind == "ModelEvaluationError"
    assert 100 < k < 500 and t == pytest.approx(k * 1e-3)
    assert summary.steps == k
    # a stage-1 failure stops before logging step k, a later stage after it
    assert log.size == (k if stage == 1 else k + 1)
    assert np.all(log.x[:, 0] <= 1.1)


def test_nonfinite_plant_at_the_points_aborts_at_the_first_stage():
    # x0 is fine, but the drift is NaN at extrapolation points with x1 > 0.5
    log, summary = run(_oracle_problem(_nan_beyond(0.5), x0=(0.0, 0.0)))
    assert summary.abort_reason.startswith(
        "evaluation_error at step 0, t=0, RK4 stage 1: ModelEvaluationError")
    # the reason names the first offending point, not the whole point set
    assert summary.abort_reason.count("[") == 1
    assert log.size == 0 and summary.steps == 0


def test_nonfinite_observer_aborts_with_its_stage(monkeypatch):
    calls = []

    def failing_observer(*args):
        calls.append(args)
        if len(calls) == 6:             # step 1, stage 2
            raise sim.ObserverEvaluationError("observer right-hand side "
                                              "is non-finite")
        return observer_rhs(*args)

    monkeypatch.setattr(sim, "observer_rhs", failing_observer)
    log, summary = run(_problem(T=0.1))
    assert summary.abort_reason.startswith(
        "evaluation_error at step 1, t=0.01, RK4 stage 2: "
        "ObserverEvaluationError")
    assert log.size == 2 and summary.steps == 1


# ---------------------------------------------------------------- abort reasons

POOL = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
        / "ic_pool.json")


def test_pool_member_margin_abort_reason():
    # member 8 of the benchmark's study1 pool: the robustified margin goes
    # nonpositive inside an RK4 stage of step 144
    pool = json.loads(POOL.read_text())
    raw = pool["base_config"]
    raw["sim"].update(x0=pool["members"][8]["x0"],
                      x_hat0=pool["members"][8]["x_hat0"], T=pool["horizon"])
    problem, _ = sa.build_problem(sa.RunConfig.from_dict(raw))
    log, summary = run(problem)
    assert summary.abort_reason == ("integration_abort: robustified margin "
                                    "nonpositive (min -0.00199131)")
    assert summary.steps == 144 and log.size == 145


def test_nonfinite_gain_derivative_aborts_as_divergence(monkeypatch):
    make_rhs = sim._make_rhs

    def nan_gain_rhs(problem):
        rhs = make_rhs(problem)

        def wrapped(tau, x, xh, W, G, with_delta=False):
            # the critic sees a finite gain, so only the gain derivative and
            # with it the RK4 sum of the gain are NaN
            (x_dot, xh_dot, w_dot, g_dot), out = rhs(
                tau, x, xh, W, np.eye(len(W)), with_delta)
            return (x_dot, xh_dot, w_dot, np.full_like(g_dot, np.nan)), out

        return wrapped

    monkeypatch.setattr(sim, "_make_rhs", nan_gain_rhs)
    log, summary = run(_problem(T=0.1))
    assert summary.abort_reason == ("integration_abort: integration diverged "
                                    "at t=0")
    assert log.size == 1 and summary.steps == 0


def test_monitor_events_one_record_per_monitor_in_first_hit_order():
    # a do-nothing observer lets the error outgrow the envelope, starting
    # within the initial-error slack; the horizon is past the ultimate bound
    kw = dict(x0=(0.4, 0.4), x_hat0=(0.4, 1.005), eps0=0.6, T=0.5, dt=1e-3)
    prob = _problem(**kw)
    prob = dataclasses.replace(prob, sim=dataclasses.replace(
        prob.sim, ultimate_bound_x=1e-9, excitation_warn=np.inf))
    log, summary = run(prob)
    assert summary.ok
    names = [e["monitor"] for e in summary.monitor_events]
    assert names[0] == "initial_error_bound" and names[-1] == "ultimate_bound_x"
    assert len(names) == len(set(names))
    assert "excitation" in names and "error_envelope" in names
    by_name = {e["monitor"]: e for e in summary.monitor_events}
    for e in summary.monitor_events:
        assert set(e) == {"monitor", "first_t", "last_t", "count", "detail"}
        assert e["first_t"] <= e["last_t"]
    # every logged step hits the excitation monitor; the envelope monitor
    # counts the logged steps whose error exceeds the envelope
    assert by_name["excitation"]["count"] == log.size
    assert by_name["error_envelope"]["count"] == int(np.sum(
        log.err > log.envelope * (1.0 + 1e-9)))
