import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safeadp as sa
from safeadp.model import (DomainSet, augmented_dynamics,
                           audit_jacobian_bounds, drift, effectiveness)


def test_drift_vanishes_at_origin(study_model):
    assert np.allclose(drift(study_model, np.zeros(2)), 0.0)


def test_drift_known_points(study_model):
    # f1 = -x1 + x2, f2 = -x1/2 - x2 (1 - (cos 2x1 + 2)^2) / 2, evaluated by hand
    assert np.allclose(drift(study_model, [1.0, 0.0]), [-1.0, -0.5])
    assert np.allclose(drift(study_model, [0.0, 1.0]), [1.0, 4.0])


def test_effectiveness_known_points(study_model):
    g0 = effectiveness(study_model, [0.0, 0.0])
    assert g0.shape == (2, 1)
    assert np.allclose(g0[:, 0], [0.0, 3.0])
    gp = effectiveness(study_model, [np.pi / 2.0, 0.0])
    assert np.allclose(gp[:, 0], [0.0, 1.0])


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_effectiveness_first_row_zero(x1, x2):
    model = sa.vamvoudakis2d()
    assert effectiveness(model, [x1, x2])[0, 0] == 0.0


def test_augmented_dynamics_origin(study_model):
    out = augmented_dynamics(study_model, np.zeros(3), np.zeros(1), alpha=2.0)
    assert np.allclose(out, 0.0)


def test_augmented_dynamics_known_point(study_model):
    out = augmented_dynamics(study_model, [1.0, 0.0, 1.0], [0.0], alpha=2.0)
    assert np.allclose(out, [-1.0, -0.5, -2.0])


@given(st.floats(-2, 2), st.floats(0, 3), st.floats(-9, 9))
@settings(max_examples=50, deadline=None)
def test_envelope_row_ignores_control(x1, xi, u):
    model = sa.vamvoudakis2d()
    out = augmented_dynamics(model, [x1, 0.5, xi], [u], alpha=2.0)
    assert out[-1] == pytest.approx(-2.0 * xi, abs=1e-12)


def test_augmented_dynamics_affine_in_control(study_model, rng):
    zeta = np.array([0.3, -0.8, 1.2])
    for _ in range(20):
        u1 = rng.uniform(-5, 5, 1)
        u2 = rng.uniform(-5, 5, 1)
        lam = rng.uniform()
        lhs = augmented_dynamics(study_model, zeta, lam * u1 + (1 - lam) * u2, 2.0)
        rhs = (lam * augmented_dynamics(study_model, zeta, u1, 2.0)
               + (1 - lam) * augmented_dynamics(study_model, zeta, u2, 2.0))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_saturation_violation_rejected(study_model):
    with pytest.raises(ValueError, match="saturation box"):
        augmented_dynamics(study_model, np.zeros(3), [10.5], alpha=2.0)


def test_bound_matrices_ordered(study_model):
    assert np.all(study_model.Kf1 <= study_model.Kf2)
    assert np.all(study_model.Kg1 <= study_model.Kg2)


@pytest.mark.parametrize("halfwidth", [3.0, 2.0])
def test_jacobian_bounds_hold_on_stated_box(halfwidth):
    model = sa.vamvoudakis2d(u_bar=10.0, box_halfwidth=halfwidth)
    report = audit_jacobian_bounds(model, n_grid=41, n_u=5, tol=1e-6)
    assert report["ok"], report
    assert report["f_ok"] and report["g_ok"]


def test_audit_detects_bad_bounds():
    model = sa.vamvoudakis2d()
    bad = sa.SystemModel(
        n=2, m=1, q=1, f=model.f, g=model.g, C=model.C,
        Kf1=model.Kf1, Kf2=np.array([[-1.0, 1.0], [0.0, 4.0]]),
        Kg1=model.Kg1, Kg2=model.Kg2, u_bar=10.0, domain=model.domain)
    report = audit_jacobian_bounds(bad, n_grid=21, n_u=3)
    assert not report["f_ok"]


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSet(center=[0, 0], halfwidths=[1, -1])
