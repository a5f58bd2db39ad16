import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import safeadp as sa
from safeadp.critic import (CriticEvaluator, LearningConfig, PointsConfig,
                            bellman_error, critic_derivatives,
                            excitation_level, extrapolation_terms,
                            quadratic_basis_2d, saturated_policy,
                            _saturation_penalty_preact)
from safeadp.safety import (BarrierDomainError, barrier_value_and_gradient,
                            parabola_interior)

BASIS = quadratic_basis_2d()
ROBUST = "rlcbf"
OFF = "none"
SPEC1 = parabola_interior(kappa=0.01, ell=0.1)


def _learn(gamma_c=1.0, points=((0.1, 0.2),), envelope="zero", R_u=1.0,
           beta=0.01):
    return LearningConfig(k_c=5.0, gamma_c=gamma_c, beta=beta,
                          R_u=np.array([[R_u]]), Q=np.eye(2),
                          points=PointsConfig(kind="explicit",
                                              values=np.array(points)),
                          point_envelope=envelope)


def _quad_oracle(u, u_bar, r):
    total = 0.0
    for uk, rk in zip(np.atleast_1d(u), np.atleast_1d(r)):
        val, _ = quad(lambda v: u_bar * np.arctanh(v / u_bar) * rk, 0.0, uk)
        total += 2.0 * val
    return total


# ---------------------------------------------------------------- basis

def test_basis_vanishes_at_origin():
    assert np.allclose(BASIS.phi(np.zeros(3)), 0.0)
    assert np.allclose(BASIS.grad_phi(np.zeros(3)), 0.0)


def test_basis_jacobian_matches_finite_differences(rng):
    eps = 1e-6
    for _ in range(100):
        z = rng.uniform(-2, 2, 3)
        jac = BASIS.grad_phi(z)
        for i in range(3):
            step = np.zeros(3)
            step[i] = eps
            fd = (BASIS.phi(z + step) - BASIS.phi(z - step)) / (2 * eps)
            scale = np.maximum(np.abs(fd), 1e-8)
            assert np.all(np.abs(jac[:, i] - fd) / scale <= 1e-6)


def test_learning_config_is_the_learning_section(study_model):
    # the eight keys of the section and nothing derived, u_bar included;
    # the evaluator derives the inverse control weight and the points
    assert [f.name for f in dataclasses.fields(LearningConfig)] == [
        "k_c", "gamma_c", "beta", "R_u", "Q", "points", "point_envelope",
        "margin_floor"]
    learn = _learn(R_u=2.0)
    with pytest.raises(TypeError):
        LearningConfig(**{**vars(learn), "u_bar": 10.0})
    ev = CriticEvaluator(study_model, BASIS, None, OFF, learn)
    assert np.array_equal(ev._R_u_inv, [[0.5]])
    again = dataclasses.replace(learn, R_u=np.array([[4.0]]))
    ev = CriticEvaluator(study_model, BASIS, None, OFF, again)
    assert np.array_equal(ev._R_u_inv, [[0.25]])
    assert np.array_equal(ev.points, [[0.1, 0.2]])


# ---------------------------------------------------------------- penalty

def saturation_penalty(ub: float, r, u) -> float:
    """Reference u-space form of the running-cost penalty whose minimizing
    feedback respects |u_k| < u_bar.

    Closed form of 2 * int_0^u (u_bar * atanh(v/u_bar))' R dv, integrated
    component-wise:
        2 * sum_k r_k * u_bar * [u_k atanh(u_k/u_bar)
                                 + (u_bar/2) ln(1 - u_k^2/u_bar^2)].
    The loop evaluates the penalty through _saturation_penalty_preact.
    """
    u = np.atleast_1d(np.asarray(u, float))
    if np.any(np.abs(u) >= ub):
        raise ValueError(f"saturation penalty undefined at |u| >= {ub}")
    ratio = u / ub
    term = u * np.arctanh(ratio) + (ub / 2.0) * np.log1p(-ratio * ratio)
    return float(2.0 * ub * np.sum(r * term))


def test_penalty_zero_at_zero():
    assert saturation_penalty(10.0, [1.0], np.zeros(1)) == 0.0


@given(st.floats(-9.5, 9.5))
@settings(max_examples=100, deadline=None)
def test_penalty_even(u):
    assert saturation_penalty(10.0, [1.0], [u]) == pytest.approx(
        saturation_penalty(10.0, [1.0], [-u]), rel=1e-12, abs=1e-15)


def test_penalty_matches_quadrature():
    assert saturation_penalty(10.0, [1.0], [5.0]) == pytest.approx(
        _quad_oracle([5.0], 10.0, [1.0]), abs=1e-8)


def test_penalty_domain_error():
    with pytest.raises(ValueError):
        saturation_penalty(10.0, [1.0], [10.0])
    with pytest.raises(ValueError):
        saturation_penalty(10.0, [1.0], [-11.0])


def test_penalty_preactivation_form_consistent(rng):
    r = np.array([2.5])
    for _ in range(50):
        d = rng.uniform(-3, 3, 1)
        u = -7.0 * np.tanh(d)
        direct = saturation_penalty(7.0, r, u)
        via_pre = float(_saturation_penalty_preact(7.0, r, d))
        assert via_pre == pytest.approx(direct, rel=1e-10, abs=1e-12)
    # the penalty saturates at 2 r u_bar^2 ln 2 as the control approaches
    # the box edge; the preactivation form must hit that limit without
    # overflowing
    limit = 2.0 * 2.5 * 7.0 ** 2 * np.log(2.0)
    big = float(_saturation_penalty_preact(7.0, r, np.array([40.0])))
    assert np.isfinite(big)
    assert big == pytest.approx(limit, rel=1e-10)


# ---------------------------------------------------------------- value / policy

def test_policy_zero_at_origin(study_model, rng):
    cfg = _learn()
    u = saturated_policy(study_model, BASIS, SPEC1, ROBUST, cfg, np.zeros(3),
                         rng.normal(size=6))
    assert np.allclose(u, 0.0)


def test_policy_strictly_saturated(study_model, rng):
    cfg = _learn()
    count = 0
    while count < 1000:
        zeta = np.array([rng.uniform(-1, 0.5), rng.uniform(-1, 1),
                         rng.uniform(0, 2)])
        if SPEC1.h(zeta[:2]) - SPEC1.ell * zeta[2] <= 1e-3:
            continue
        w = rng.normal(scale=5.0, size=6)
        u = saturated_policy(study_model, BASIS, SPEC1, ROBUST, cfg, zeta, w)
        # tanh rounds to exactly 1.0 for huge preactivations near the
        # barrier boundary; the box bound itself is never exceeded
        assert np.all(np.abs(u) <= 10.0)
        if SPEC1.h(zeta[:2]) - SPEC1.ell * zeta[2] >= 0.3 and np.max(np.abs(w)) < 2:
            assert np.all(np.abs(u) < 10.0)
        count += 1


def test_policy_unconstrained_limit():
    # loose saturation, solution weights, no barrier: at x = (0, 1) the
    # feedback is -(cos 0 + 2) * dV/dx2 / 2 = -3
    model = sa.vamvoudakis2d(u_bar=100.0)
    cfg = _learn()
    w = np.array([0.5, 0.0, 1.0, 0.0, 0.0, 0.0])
    u = saturated_policy(model, BASIS, None, OFF, cfg, [0.0, 1.0, 0.0], w)
    assert float(u[0]) == pytest.approx(-100.0 * np.tanh(0.03), rel=1e-12)
    assert float(u[0]) == pytest.approx(-3.0, abs=2e-3)


# ---------------------------------------------------------------- Bellman error

def test_bellman_error_zero_at_origin(study_model, rng):
    cfg = _learn()
    val = bellman_error(study_model, BASIS, SPEC1, ROBUST, cfg, np.zeros(3),
                        rng.normal(size=6), alpha=2.0)
    assert val == pytest.approx(0.0, abs=1e-14)


def test_bellman_error_matches_independent_transcription(study_model):
    """Term-by-term transcription at an interior point with zero weights."""
    cfg = _learn()
    zeta = np.array([0.5, 0.25, 0.0])
    kappa, ell = 0.01, 0.1

    hx = 1.0 - zeta[0] - zeta[1] ** 2
    b = -np.log(kappa * hx / (kappa * hx + 1.0))
    b0 = -np.log(kappa * 1.0 / (kappa * 1.0 + 1.0))
    B = (b - b0) ** 2
    dbdh = -1.0 / (hx * (kappa * hx + 1.0))
    gB = 2.0 * (b - b0) * dbdh * np.array([-1.0, -2.0 * zeta[1], -ell])

    c = np.cos(2.0 * zeta[0]) + 2.0
    F = np.array([-zeta[0] + zeta[1],
                  -0.5 * zeta[0] - 0.5 * zeta[1] * (1.0 - c * c), 0.0])
    G = np.array([0.0, c, 0.0])
    pre = float(G @ gB) / 20.0
    u = -10.0 * np.tanh(pre)
    U = 2.0 * 10.0 * (u * np.arctanh(u / 10.0)
                      + 5.0 * np.log1p(-(u / 10.0) ** 2))
    expected = float(gB @ (F + G * u)) + (zeta[0] ** 2 + zeta[1] ** 2) + U + B

    val = bellman_error(study_model, BASIS, SPEC1, ROBUST, cfg, zeta,
                        np.zeros(6), alpha=2.0)
    assert val == pytest.approx(expected, rel=1e-10)


def test_bellman_error_boundary_point_raises_or_clamps(study_model):
    cfg = _learn()
    zeta = np.array([1.0, 0.0, 0.0])         # exactly on the set boundary
    with pytest.raises(BarrierDomainError):
        bellman_error(study_model, BASIS, SPEC1, ROBUST, cfg, zeta,
                      np.zeros(6), alpha=2.0)
    clamped = bellman_error(study_model, BASIS, SPEC1, ROBUST, cfg, zeta,
                            np.zeros(6), alpha=2.0, floor=1e-6)
    assert np.isfinite(clamped)


def test_bellman_error_near_zero_at_solution_weights():
    """The closed-form value of the unconstrained benchmark leaves only the
    saturation residual, u_bar^2 (D^2 - 2 ln cosh D) with D the normalized
    unconstrained feedback.  At u_bar = 100 that is at most ~1.4e-3 on the
    unit square (max |u*| just under 3) and the pointwise residual must match
    the analytic expression."""
    model = sa.vamvoudakis2d(u_bar=100.0)
    cfg = _learn()
    w = np.array([0.5, 0.0, 1.0, 0.0, 0.0, 0.0])
    axis = np.linspace(-1, 1, 11)
    worst = 0.0
    for x1 in axis:
        for x2 in axis:
            val = bellman_error(model, BASIS, None, OFF, cfg,
                                [x1, x2, 0.0], w, alpha=2.0)
            d = (np.cos(2.0 * x1) + 2.0) * (2.0 * x2) / 200.0
            analytic = 100.0 ** 2 * (d * d - 2.0 * np.log(np.cosh(d)))
            assert val == pytest.approx(analytic, rel=1e-3, abs=1e-11)
            worst = max(worst, abs(val))
    assert worst <= 1.5e-3


def test_bellman_decomposition_without_policy_term(study_model):
    # zero weights and a point where the actuated direction of the barrier
    # gradient vanishes: policy is exactly zero and the residual reduces to
    # gradB . F + state cost + barrier
    cfg = _learn()
    zeta = np.array([0.4, 0.0, 0.3])          # x2 = 0 kills the g-component
    B, gB = barrier_value_and_gradient(SPEC1, zeta)
    F = np.array([*sa.drift(study_model, zeta[:2]), -2.0 * zeta[2]])
    expected = float(gB @ F) + 0.16 + float(B)
    val = bellman_error(study_model, BASIS, SPEC1, ROBUST, cfg, zeta,
                        np.zeros(6), alpha=2.0)
    assert val == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- extrapolation

def test_extrapolation_shapes_and_rho(study_model, rng):
    pts = rng.uniform(-0.4, 0.4, (25, 2))
    cfg = _learn(points=pts, envelope="live")
    omega, rho, delta = extrapolation_terms(study_model, BASIS, SPEC1, ROBUST,
                                            cfg, envelope_now=1.3,
                                            weights=rng.normal(size=6),
                                            alpha=2.0)
    assert omega.shape == (25, 6) and rho.shape == (25,) and delta.shape == (25,)
    assert np.all(rho >= 1.0)


def test_extrapolation_regressor_reduces_without_policy(study_model):
    # zero weights, no barrier: regressor is the feature Jacobian against the
    # uncontrolled flow
    pts = np.array([[0.3, -0.2], [0.1, 0.4]])
    cfg = _learn(points=pts, envelope="live")
    omega, _, _ = extrapolation_terms(study_model, BASIS, None, OFF, cfg,
                                      envelope_now=0.8, weights=np.zeros(6),
                                      alpha=2.0)
    zk = np.concatenate([pts, np.full((2, 1), 0.8)], axis=1)
    F = np.concatenate([sa.drift(study_model, pts),
                        np.full((2, 1), -1.6)], axis=1)
    expected = np.einsum("nli,ni->nl", BASIS.grad_phi(zk), F)
    assert np.allclose(omega, expected, atol=1e-12)


def test_normalized_regressor_bound(study_model, rng):
    for gamma_c in (0.5, 1.0, 4.0):
        pts = rng.uniform(-1, 1, (50, 2))
        cfg = _learn(points=pts, gamma_c=gamma_c, envelope="live")
        omega, rho, _ = extrapolation_terms(study_model, BASIS, SPEC1, ROBUST,
                                            cfg, envelope_now=0.6,
                                            weights=rng.normal(size=6),
                                            alpha=2.0)
        norms = np.linalg.norm(omega / rho[:, None], axis=1)
        assert np.all(norms <= 1.0 / (2.0 * np.sqrt(gamma_c)) + 1e-12)


def test_points_fixed_envelope_zero(study_model):
    cfg = _learn(points=[[0.2, 0.1]], envelope="zero")
    omega_a, _, delta_a = extrapolation_terms(study_model, BASIS, SPEC1, ROBUST,
                                              cfg, envelope_now=3.0,
                                              weights=np.zeros(6), alpha=2.0)
    omega_b, _, delta_b = extrapolation_terms(study_model, BASIS, SPEC1, ROBUST,
                                              cfg, envelope_now=0.0,
                                              weights=np.zeros(6), alpha=2.0)
    assert np.allclose(omega_a, omega_b) and np.allclose(delta_a, delta_b)


# ---------------------------------------------------------------- update laws

def test_zero_errors_freeze_weights(rng):
    cfg = _learn()
    omega = rng.normal(size=(7, 6))
    rho = 1.0 + np.sum(omega ** 2, axis=1)
    w_dot, _, _ = critic_derivatives(omega, rho, np.zeros(7), np.eye(6), cfg)
    assert np.allclose(w_dot, 0.0)


def test_gain_update_contracts_without_forgetting(rng):
    cfg = _learn(beta=0.0)
    omega = rng.normal(size=(10, 6))
    rho = 1.0 + np.sum(omega ** 2, axis=1)
    gain = np.eye(6) * 0.8
    _, g_dot, _ = critic_derivatives(omega, rho, rng.normal(size=10), gain,
                                     cfg)
    assert np.all(np.linalg.eigvalsh(0.5 * (g_dot + g_dot.T)) <= 1e-12)


def test_single_term_hand_value():
    cfg = LearningConfig(k_c=5.0, gamma_c=1.0, beta=0.01,
                         R_u=np.array([[1.0]]), Q=np.eye(2),
                         points=PointsConfig(kind="explicit",
                                             values=((0.1, 0.1),)))
    omega = np.array([[2.0]])
    rho = np.array([3.0])
    delta = np.array([1.5])
    gain = np.array([[0.5]])
    w_dot, g_dot, _ = critic_derivatives(omega, rho, delta, gain, cfg)
    assert w_dot[0] == pytest.approx(-5.0 * 0.5 * (2.0 / 3.0) * 1.5)
    assert g_dot[0, 0] == pytest.approx(0.01 * 0.5 - 5.0 * 0.5 * (4.0 / 9.0) * 0.5)


def test_excitation_level_matches_min_eigenvalue(rng):
    omega = rng.normal(size=(30, 6))
    rho = 1.0 + np.sum(omega ** 2, axis=1)
    normalized = omega / rho[:, None]
    S = normalized.T @ normalized / 30
    *_, S_sum = critic_derivatives(omega, rho, np.zeros(30), np.eye(6),
                                   _learn())
    assert excitation_level(S_sum, 30) == pytest.approx(
        float(np.linalg.eigvalsh(S)[0]), rel=1e-12, abs=1e-15)


def test_oracle_full_weight_vector_converges(oracle_run):
    # the envelope-coupled weights decay toward zero alongside the x-block
    w = np.array(oracle_run.summary.terminal_weights)
    target = np.array([0.5, 0.0, 1.0, 0.0, 0.0, 0.0])
    assert np.linalg.norm(w - target) <= 0.15
