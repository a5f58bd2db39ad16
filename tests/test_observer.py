import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safeadp as sa
from safeadp.model import DomainSet
from safeadp.observer import ObserverGains, error_envelope, observer_rhs

STUDY1_P = np.array([[0.27222, 0.15875], [0.15875, 0.40954]])
STUDY1_L1 = np.array([0.14719, 0.14719])
STUDY1_L2 = np.array([0.045396, 0.045396])
STUDY1_L3 = np.array([-8.82113, 11.5823])

BOX3 = DomainSet(center=np.zeros(2), halfwidths=np.full(2, 3.0))


def _gains(l3=STUDY1_L3, eps0=2.5):
    return ObserverGains(P=STUDY1_P, l1=STUDY1_L1, l2=STUDY1_L2, l3=l3,
                         alpha=2.0, eps0=eps0)


def test_projection_interior_fixed_point():
    assert np.allclose(BOX3.project([1.0, -2.0]), [1.0, -2.0])


def test_projection_box_clamp():
    assert np.allclose(BOX3.project([5.0, 0.0]), [3.0, 0.0])


@pytest.mark.parametrize("domain", [BOX3], ids=["box"])
def test_projection_idempotent_and_nonexpansive(domain, rng):
    for _ in range(1000):
        a = rng.uniform(-8, 8, 2)
        b = rng.uniform(-8, 8, 2)
        pa, pb = domain.project(a), domain.project(b)
        assert np.allclose(domain.project(pa), pa, atol=1e-12)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


@given(st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=200, deadline=None)
def test_scalar_projection_monotone_slope(a, b):
    # box projection acts per coordinate; the difference quotient of the
    # scalar clamp lies in [0, 1]
    if abs(a - b) < 1e-9:
        return
    dom = DomainSet(center=np.zeros(1), halfwidths=np.ones(1))
    slope = float((dom.project([a])[0] - dom.project([b])[0]) / (a - b))
    assert -1e-12 <= slope <= 1.0 + 1e-12


def test_envelope_initial_value_matches_eigens():
    # independent 2x2 eigenvalue computation via trace/determinant
    tr = STUDY1_P[0, 0] + STUDY1_P[1, 1]
    det = STUDY1_P[0, 0] * STUDY1_P[1, 1] - STUDY1_P[0, 1] ** 2
    disc = np.sqrt(tr * tr - 4 * det)
    lam_max, lam_min = (tr + disc) / 2, (tr - disc) / 2
    expected = np.sqrt(lam_max / lam_min) * 2.5
    g = _gains()
    assert error_envelope(g, 0.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(4.373, abs=5e-4)


def test_envelope_exponential_law():
    g = _gains()
    t1, t2 = 0.7, 2.3
    ratio = error_envelope(g, t2) / error_envelope(g, t1)
    assert ratio == pytest.approx(np.exp(-g.alpha * (t2 - t1)), rel=1e-12)
    assert error_envelope(g, 1e3) < 1e-300 or error_envelope(g, 1e3) >= 0.0


def test_observer_rhs_zero_innovation(study_model):
    g = _gains()
    x = np.array([0.5, -1.0])
    u = np.array([2.0])
    y = study_model.C @ x
    out = observer_rhs(study_model, g, x, y, u)
    expected = (sa.drift(study_model, x)
                + sa.effectiveness(study_model, x) @ u)
    assert np.allclose(out, expected, atol=1e-12)


def test_observer_rhs_l3_zero_reduces_to_drift(study_model):
    g = _gains(l3=np.zeros(2))
    x = np.array([1.2, 0.3])
    out = observer_rhs(study_model, g, x, study_model.C @ x, np.zeros(1))
    assert np.allclose(out, sa.drift(study_model, x), atol=1e-12)


def test_observer_rhs_matches_independent_evaluation(study_model):
    # literal transcription of the estimate derivative, evaluated by hand
    g = _gains()
    x = np.array([-3.0, 1.5])
    x_hat = np.array([-1.5, 1.0])
    u = np.array([0.0])
    y = study_model.C @ x

    pr = np.clip(x_hat, -3.0, 3.0)                     # interior: no-op
    innov = float(y[0] - pr[1])                        # C = [0, 1]
    a1 = pr + STUDY1_L1 * innov
    c = np.cos(2.0 * a1[0]) + 2.0
    f_a1 = np.array([-a1[0] + a1[1],
                     -0.5 * a1[0] - 0.5 * a1[1] * (1.0 - c * c)])
    expected = f_a1 + STUDY1_L3 * innov                # u = 0 drops the g term

    out = observer_rhs(study_model, g, x_hat, y, u)
    assert np.allclose(out, expected, rtol=1e-12)


def test_gains_cache_and_consistency():
    g = _gains()
    assert np.allclose(g.R_lmi, STUDY1_P @ STUDY1_L3.reshape(2, 1))
    ev = np.linalg.eigvalsh(STUDY1_P)
    assert g.chi == pytest.approx(np.sqrt(ev[-1] / ev[0]) * 2.5)


def test_gains_are_read_as_n_rows_like_the_lmi():
    # a flat list is a column, and any n q entries are n rows of q, as
    # LmiProblem reads them; verify-lmi and run then check the same gains
    for l3 in (STUDY1_L3, STUDY1_L3[None], STUDY1_L3[:, None]):
        assert np.array_equal(_gains(l3=l3).l3, STUDY1_L3.reshape(2, 1))


def test_gains_validation():
    with pytest.raises(ValueError):
        ObserverGains(P=np.array([[1.0, 0.5], [0.0, 1.0]]), l1=STUDY1_L1,
                      l2=STUDY1_L2, l3=STUDY1_L3, alpha=2.0, eps0=1.0)
    with pytest.raises(ValueError):
        ObserverGains(P=-np.eye(2), l1=STUDY1_L1, l2=STUDY1_L2, l3=STUDY1_L3,
                      alpha=2.0, eps0=1.0)
    with pytest.raises(ValueError):
        _gains(eps0=-1.0)
