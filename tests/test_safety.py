import numpy as np
import pytest

from safeadp.model import DomainSet
from safeadp.observer import ObserverGains
from safeadp.safety import (BarrierDomainError, barrier_cost,
                            barrier_cost_gradient, barrier_value_and_gradient,
                            circular_obstacle, h_eval, lipschitz_audit,
                            monitor_safety, parabola_interior)

STUDY1_P = np.array([[0.27222, 0.15875], [0.15875, 0.40954]])
SPEC1 = parabola_interior(kappa=0.01, ell=0.1)
SPEC2 = circular_obstacle(center=[-0.5, 0.6], radius=0.2, kappa=2.5, ell=0.15)
GAINS1 = ObserverGains(P=STUDY1_P, l1=np.zeros(2), l2=np.zeros(2),
                       l3=np.zeros(2), alpha=2.0, eps0=2.5)


def _log_barrier(kappa, margin):
    # independent transcription: -ln(kappa*m / (kappa*m + 1))
    return -np.log(kappa * margin / (kappa * margin + 1.0))


def test_h_values_keep_in_set():
    assert h_eval(SPEC1, [0.0, 0.0]) == pytest.approx(1.0)
    assert h_eval(SPEC1, [1.0, 0.0]) == pytest.approx(0.0)


def test_h_values_obstacle():
    assert h_eval(SPEC2, [-0.5, 0.6]) == pytest.approx(-0.04)
    assert h_eval(SPEC2, [-0.5, 0.8]) == pytest.approx(0.0)


def test_barrier_cost_zero_at_origin():
    assert barrier_cost(SPEC1, np.zeros(3)) == pytest.approx(0.0, abs=1e-15)
    assert barrier_cost(SPEC2, np.zeros(3)) == pytest.approx(0.0, abs=1e-15)


def test_barrier_cost_blows_up_at_boundary():
    near = barrier_cost(SPEC1, [1.0 - 1e-9, 0.0, 0.0])
    nearer = barrier_cost(SPEC1, [1.0 - 1e-12, 0.0, 0.0])
    assert nearer > near > 1e2
    with pytest.raises(BarrierDomainError):
        barrier_cost(SPEC1, [1.0, 0.0, 0.0])
    with pytest.raises(BarrierDomainError):
        barrier_cost(SPEC1, [2.0, 0.0, 0.0])


def test_barrier_cost_frozen_value():
    # x = 0 with the full initial envelope: margin = 1 - 0.1*chi;
    # recentering margin = 1.  Evaluated through an independent transcription.
    chi = GAINS1.chi
    zeta = np.array([0.0, 0.0, chi])
    expected = (_log_barrier(0.01, 1.0 - 0.1 * chi) - _log_barrier(0.01, 1.0)) ** 2
    assert barrier_cost(SPEC1, zeta) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.326, abs=1e-3)


def test_barrier_gradient_zero_at_origin():
    assert np.allclose(barrier_cost_gradient(SPEC1, np.zeros(3)), 0.0)


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
        grad = barrier_cost_gradient(spec, zeta)
        for i in range(3):
            step = np.zeros(3)
            step[i] = eps
            fd = (barrier_cost(spec, zeta + step)
                  - barrier_cost(spec, zeta - step)) / (2 * eps)
            scale = max(abs(fd), abs(grad[i]), 1e-8)
            assert abs(grad[i] - fd) / scale <= 1e-5
        checked += 1


def test_barrier_envelope_component_sign():
    # on the unsafe side of the recentering point, inflating the envelope
    # inflates the cost
    zeta = np.array([0.5, 0.3, 1.0])          # margin < recenter margin
    g = barrier_cost_gradient(SPEC1, zeta)
    assert g[2] > 0
    up = barrier_cost(SPEC1, zeta + [0, 0, 1e-6])
    down = barrier_cost(SPEC1, zeta - [0, 0, 1e-6])
    assert up > down


def test_clamp_floor_value_and_flat_gradient():
    zeta = np.array([5.0, 0.0, 0.0])          # far outside the safe set
    val, grad = barrier_value_and_gradient(SPEC1, zeta, floor=1e-6)
    expected = (_log_barrier(0.01, 1e-6) - _log_barrier(0.01, 1.0)) ** 2
    assert val == pytest.approx(expected, rel=1e-12)
    assert np.allclose(grad, 0.0)


def test_plain_mode_ignores_envelope():
    zeta = np.array([0.3, 0.2, 5.0])
    plain = barrier_cost(SPEC1, zeta, use_envelope=False)
    moved = barrier_cost(SPEC1, zeta + [0, 0, 3.0], use_envelope=False)
    assert plain == pytest.approx(moved)
    assert barrier_cost_gradient(SPEC1, zeta, use_envelope=False)[2] == 0.0


def test_barrier_nonnegative_and_recentered(rng):
    # zero exactly at the augmented origin, positive elsewhere; grid argmin
    # sits at the origin for both study barriers
    for spec, half in ((SPEC1, 0.45), (SPEC2, 0.28)):
        axis = np.linspace(-half, half, 50)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel(), np.zeros(X.size)], axis=1)
        vals = np.array([barrier_cost(spec, p) for p in pts])
        assert np.all(vals >= 0)
        assert barrier_cost(spec, np.zeros(3)) <= vals.min() + 1e-15
        off = pts[np.linalg.norm(pts[:, :2], axis=1) > 1e-9]
        assert all(barrier_cost(spec, p) > 0 for p in off[:50])


def test_lipschitz_audit_flags_small_ell():
    box = DomainSet(center=np.zeros(2), halfwidths=np.full(2, 3.0))
    report = lipschitz_audit(SPEC1, box, n_pairs=500, seed=1)
    assert not report["ok"]                 # 0.1 is far below the true slope
    generous = parabola_interior(kappa=0.01, ell=10.0)
    assert lipschitz_audit(generous, box, n_pairs=500, seed=1)["ok"]


def test_monitor_safety_all_safe():
    t = np.linspace(0, 1, 11)
    x = np.stack([np.linspace(-1, 0, 11), np.zeros(11)], axis=1)
    report = monitor_safety(SPEC1, t, x)
    assert report.first_violation_time is None
    assert report.min_h > 0
    assert not report.violated


def test_monitor_safety_detects_breach():
    t = np.linspace(0, 1, 11)
    x = np.stack([np.linspace(0.5, 1.5, 11), np.zeros(11)], axis=1)
    report = monitor_safety(SPEC1, t, x)
    assert report.violated
    assert report.first_violation_time == pytest.approx(
        t[np.argmax(x[:, 0] > 1.0)])


def test_monitor_safety_single_point():
    report = monitor_safety(SPEC1, [0.0], np.zeros((1, 2)))
    assert report.min_h == pytest.approx(1.0)


def test_monitor_safety_lemma_chain(study1_run):
    """Premises margin >= 0 and err <= envelope at every step imply the true
    state is safe at every step on the robust-barrier study run."""
    log = study1_run.log
    margin_ok = log.h_robust >= 0
    env_ok = log.err <= log.envelope * (1 + 1e-9)
    assert np.all(log.h[margin_ok & env_ok] >= 0)
