import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeadp.model import DomainSet
from safeadp.observer import ObserverGains
from safeadp.safety import (BarrierDomainError, barrier_value_and_gradient,
                            circular_obstacle, parabola_interior)
from safeadp.sim import TrajectoryLog, _safety

STUDY1_P = np.array([[0.27222, 0.15875], [0.15875, 0.40954]])
SPEC1 = parabola_interior(kappa=0.01, ell=0.1)
SPEC2 = circular_obstacle(center=[-0.5, 0.6], radius=0.2, kappa=2.5, ell=0.15)
GAINS1 = ObserverGains(P=STUDY1_P, l1=np.zeros(2), l2=np.zeros(2),
                       l3=np.zeros(2), alpha=2.0, eps0=2.5)


def _log_barrier(kappa, margin):
    # independent transcription: -ln(kappa*m / (kappa*m + 1))
    return -np.log(kappa * margin / (kappa * margin + 1.0))


def test_h_values_keep_in_set():
    assert SPEC1.h([0.0, 0.0]) == pytest.approx(1.0)
    assert SPEC1.h([1.0, 0.0]) == pytest.approx(0.0)


def test_h_values_obstacle():
    assert SPEC2.h([-0.5, 0.6]) == pytest.approx(-0.04)
    assert SPEC2.h([-0.5, 0.8]) == pytest.approx(0.0)


def test_barrier_cost_zero_at_origin():
    for spec in (SPEC1, SPEC2):
        val, _ = barrier_value_and_gradient(spec, np.zeros(3))
        assert val == pytest.approx(0.0, abs=1e-15)


def test_barrier_cost_blows_up_at_boundary():
    near = barrier_value_and_gradient(SPEC1, [1.0 - 1e-9, 0.0, 0.0])[0]
    nearer = barrier_value_and_gradient(SPEC1, [1.0 - 1e-12, 0.0, 0.0])[0]
    assert nearer > near > 1e2
    with pytest.raises(BarrierDomainError):
        barrier_value_and_gradient(SPEC1, [1.0, 0.0, 0.0])
    with pytest.raises(BarrierDomainError):
        barrier_value_and_gradient(SPEC1, [2.0, 0.0, 0.0])


def test_barrier_cost_frozen_value():
    # x = 0 with the full initial envelope: margin = 1 - 0.1*chi;
    # recentering margin = 1.  Evaluated through an independent transcription.
    chi = GAINS1.chi
    zeta = np.array([0.0, 0.0, chi])
    expected = (_log_barrier(0.01, 1.0 - 0.1 * chi) - _log_barrier(0.01, 1.0)) ** 2
    val, _ = barrier_value_and_gradient(SPEC1, zeta)
    assert val == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.326, abs=1e-3)


def test_barrier_gradient_zero_at_origin():
    assert np.allclose(barrier_value_and_gradient(SPEC1, np.zeros(3))[1], 0.0)


@pytest.mark.parametrize("spec,sampler", [
    (SPEC1, lambda r: np.array([r.uniform(-1.5, 0.5), r.uniform(-0.6, 0.6),
                                r.uniform(0.0, 1.0)])),
    (SPEC2, lambda r: np.array([r.uniform(0.2, 1.0), r.uniform(-1.0, -0.2),
                                r.uniform(0.0, 1.0)])),
], ids=["keep_in", "obstacle"])
def test_barrier_gradient_matches_finite_differences(spec, sampler, rng):
    eps = 1e-6
    checked = 0
    while checked < 100:
        zeta = sampler(rng)
        margin = spec.h(zeta[:2]) - spec.ell * zeta[2]
        if margin < 0.05:
            continue
        _, grad = barrier_value_and_gradient(spec, zeta)
        for i in range(3):
            step = np.zeros(3)
            step[i] = eps
            up, _ = barrier_value_and_gradient(spec, zeta + step)
            down, _ = barrier_value_and_gradient(spec, zeta - step)
            fd = (up - down) / (2 * eps)
            scale = max(abs(fd), abs(grad[i]), 1e-8)
            assert abs(grad[i] - fd) / scale <= 1e-5
        checked += 1


def test_barrier_envelope_component_sign():
    # on the unsafe side of the recentering point, inflating the envelope
    # inflates the cost
    zeta = np.array([0.5, 0.3, 1.0])          # margin < recenter margin
    _, g = barrier_value_and_gradient(SPEC1, zeta)
    assert g[2] > 0
    up, _ = barrier_value_and_gradient(SPEC1, zeta + [0, 0, 1e-6])
    down, _ = barrier_value_and_gradient(SPEC1, zeta - [0, 0, 1e-6])
    assert up > down


def test_clamp_floor_value_and_flat_gradient():
    zeta = np.array([5.0, 0.0, 0.0])          # far outside the safe set
    val, grad = barrier_value_and_gradient(SPEC1, zeta, floor=1e-6)
    expected = (_log_barrier(0.01, 1e-6) - _log_barrier(0.01, 1.0)) ** 2
    assert val == pytest.approx(expected, rel=1e-12)
    assert np.allclose(grad, 0.0)


def test_plain_mode_ignores_envelope():
    zeta = np.array([0.3, 0.2, 5.0])
    plain, grad = barrier_value_and_gradient(SPEC1, zeta, use_envelope=False)
    moved, _ = barrier_value_and_gradient(SPEC1, zeta + [0, 0, 3.0],
                                          use_envelope=False)
    assert plain == pytest.approx(moved)
    assert grad[2] == 0.0


def test_barrier_nonnegative_and_recentered(rng):
    # zero exactly at the augmented origin, positive elsewhere; grid argmin
    # sits at the origin for both study barriers
    for spec, half in ((SPEC1, 0.45), (SPEC2, 0.28)):
        axis = np.linspace(-half, half, 50)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel(), np.zeros(X.size)], axis=1)
        vals = np.array([barrier_value_and_gradient(spec, p)[0] for p in pts])
        assert np.all(vals >= 0)
        origin, _ = barrier_value_and_gradient(spec, np.zeros(3))
        assert origin <= vals.min() + 1e-15
        off = pts[np.linalg.norm(pts[:, :2], axis=1) > 1e-9]
        assert all(barrier_value_and_gradient(spec, p)[0] > 0
                   for p in off[:50])


_point = st.tuples(st.floats(-3, 3), st.floats(-3, 3))


@given(_point, st.tuples(st.floats(0.05, 3), st.floats(0.05, 3)), _point,
       st.floats(0.05, 2))
@settings(max_examples=100, deadline=None)
def test_lipschitz_bound_is_the_max_gradient_norm_on_the_box(
        box_center, halfwidths, disk_center, radius):
    box = DomainSet(center=box_center, halfwidths=halfwidths)
    lo, hi = box.center - box.halfwidths, box.center + box.halfwidths
    a, b = np.random.default_rng(0).uniform(lo, hi, size=(2, 500, 2))
    grid = box.grid(101)                    # its edges hold the box corners
    for spec in (parabola_interior(kappa=1.0, ell=1.0),
                 circular_obstacle(disk_center, radius, kappa=1.0, ell=1.0)):
        bound = spec.lipschitz(box)
        ratio = np.abs(spec.h(a) - spec.h(b)) / np.linalg.norm(a - b, axis=1)
        assert ratio.max() <= bound + 1e-9
        grad_max = np.linalg.norm(spec.grad_h(grid), axis=1).max()
        assert grad_max - 1e-9 <= bound <= grad_max + 1e-9


def _log(t, x, envelope=0.0):
    """A hand-filled log of the states x at the times t, with h and the
    robust margin of SPEC1 at a constant envelope, as the loop logs them."""
    log = TrajectoryLog(n=2, m=1, L=6, capacity=len(t))
    for ti, xi in zip(t, x):
        h = float(SPEC1.h(xi))
        log.append(t=ti, x=xi, h=h, h_robust=h - SPEC1.ell * envelope)
    log.truncate()
    return log


def test_safety_summary_all_safe():
    t = np.linspace(0, 1, 11)
    x = np.stack([np.linspace(-1, 0, 11), np.zeros(11)], axis=1)
    safety = _safety(_log(t, x))
    assert safety["first_violation_time"] is None
    assert safety["first_margin_violation_time"] is None
    assert safety["min_h_time"] == 1.0        # h = 1 - x1 is least at x1 = 0
    assert not safety["violated"]


def test_safety_summary_detects_breach():
    t = np.linspace(0, 1, 11)
    x = np.stack([np.linspace(0.5, 1.5, 11), np.zeros(11)], axis=1)
    safety = _safety(_log(t, x, envelope=1.5))
    assert safety["violated"]
    assert safety["first_violation_time"] == pytest.approx(
        t[np.argmax(x[:, 0] > 1.0)])
    # the margin 1 - x1 - 0.15 is first negative at x1 = 0.9, t = 0.4
    assert safety["first_margin_violation_time"] == pytest.approx(0.4)


def test_safety_summary_single_point():
    safety = _safety(_log([0.0], np.zeros((1, 2))))
    assert safety["min_h_time"] == 0.0
    assert not safety["violated"]


def test_run_summary_safety_keys_are_not_top_level_keys(study1_run):
    summary = study1_run.summary.to_json_dict()
    assert summary["safety"]
    assert not set(summary["safety"]) & set(summary)


def test_safety_lemma_chain(study1_run):
    """Premises margin >= 0 and err <= envelope at every step imply the true
    state is safe at every step on the robust-barrier study run."""
    log = study1_run.log
    margin_ok = log.h_robust >= 0
    env_ok = log.err <= log.envelope * (1 + 1e-9)
    assert np.all(log.h[margin_ok & env_ok] >= 0)
