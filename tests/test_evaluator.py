"""CriticEvaluator against a frozen copy of the original, unfused chain.

The reference below is the policy / Bellman-error / extrapolation code as it
stood before the evaluator and its point cache existed, together with the
plant, basis and barrier helpers it called.  The evaluator must reproduce it
bit for bit: same u and delta at the estimate, same omega, rho and delta at
the points, whatever the weights, the barrier mode, the point-envelope rule
and the sequence of envelope values it is called with.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import safeadp as sa
from safeadp.critic import (CriticEvaluator, LearningConfig, PointsConfig,
                            quadratic_basis_2d)
from safeadp.safety import (BarrierDomainError, circular_obstacle,
                            parabola_interior)

ALPHA = 2.0


# ---------------------------------------------------------------- frozen chain

def _ref_f(x):
    x = np.asarray(x, float)
    x1, x2 = x[..., 0], x[..., 1]
    c = np.cos(2.0 * x1) + 2.0
    return np.stack([-x1 + x2, -0.5 * x1 - 0.5 * x2 * (1.0 - c * c)], axis=-1)


def _ref_g(x):
    x = np.asarray(x, float)
    x1 = x[..., 0]
    zero = np.zeros_like(x1)
    return np.stack([zero, np.cos(2.0 * x1) + 2.0], axis=-1)[..., None]


def _ref_grad_phi(z):
    z = np.asarray(z, float)
    z1, z2, z3 = z[..., 0], z[..., 1], z[..., 2]
    o = np.zeros_like(z1)
    rows = [(2 * z1, o, o), (z2, z1, o), (o, 2 * z2, o), (z3, o, z1),
            (o, z3, z2), (o, o, 2 * z3)]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def _ref_aug_drift(model, zeta, alpha):
    fx = np.asarray(model.f(zeta[..., :-1]), float)
    return np.concatenate([fx, -alpha * zeta[..., -1:]], axis=-1)


def _ref_aug_effectiveness(model, zeta):
    gx = np.asarray(model.g(zeta[..., :-1]), float)
    zrow = np.zeros(zeta.shape[:-1] + (1, model.m))
    return np.concatenate([gx, zrow], axis=-2)


def _ref_barrier(spec, zeta, use_envelope, floor):
    hx = np.asarray(spec.h(zeta[..., :-1]), float)
    margin = hx - spec.ell * zeta[..., -1] if use_envelope else hx
    clamped = None
    if floor is None:
        if np.any(margin <= 0):
            raise BarrierDomainError("margin")
    else:
        clamped = margin < floor
        margin = np.maximum(margin, floor)
    h0 = float(spec.h(np.zeros(zeta.shape[-1] - 1)))
    b0 = np.log1p(1.0 / (spec.kappa * np.asarray(h0, float)))
    b = np.log1p(1.0 / (spec.kappa * np.asarray(margin, float)))
    recentered = b - b0
    val = recentered ** 2
    dbd_margin = -1.0 / (margin * (spec.kappa * margin + 1.0))
    gh = np.asarray(spec.grad_h(zeta[..., :-1]), float)
    denv = np.full(np.shape(margin), -spec.ell if use_envelope else 0.0)
    grad_margin = np.concatenate([gh, np.asarray(denv)[..., None]], axis=-1)
    grad = (2.0 * recentered * dbd_margin)[..., None] * grad_margin
    if clamped is not None:
        grad = np.where(np.asarray(clamped)[..., None], 0.0, grad)
    return val, grad


def _ref_penalty(cfg, preact):
    d = np.asarray(preact, float)
    r = np.diag(cfg.R_u)
    a = np.abs(d)
    log_cosh = a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)
    term = d * np.tanh(d) - log_cosh
    return 2.0 * cfg.u_bar ** 2 * np.sum(r * term, axis=-1)


def _ref_barrier_terms(spec, mode, zeta, floor=None):
    if spec is None or mode == "none":
        return (np.zeros(zeta.shape[:-1]),
                np.zeros(zeta.shape[:-1] + (zeta.shape[-1],)))
    val, grad = _ref_barrier(spec, zeta, mode == "rlcbf", floor)
    return np.asarray(val, float), grad


def _ref_config(cfg, model):
    """cfg as the frozen chain read it: with its arrays built, the inverse
    control weight and the plant's saturation level."""
    R_u = np.atleast_2d(np.asarray(cfg.R_u, float))
    return SimpleNamespace(**{**vars(cfg), "R_u": R_u,
                              "R_u_inv": np.linalg.inv(R_u),
                              "Q": np.atleast_2d(np.asarray(cfg.Q, float)),
                              "points": cfg.points.build(),
                              "u_bar": model.u_bar})


def _ref_bellman(model, spec, mode, cfg, zeta, weights, alpha):
    """(u, delta) at one augmented state, as the unfused chain computed them."""
    gp = _ref_grad_phi(zeta)
    Bval, gB = _ref_barrier_terms(spec, mode, zeta)
    vgrad = np.einsum("...li,l->...i", gp, weights) + gB
    G = _ref_aug_effectiveness(model, zeta)
    pre = (np.einsum("...i,...im->...m", vgrad, G) @ cfg.R_u_inv.T
           / (2.0 * cfg.u_bar))
    u = -cfg.u_bar * np.tanh(pre)
    F = _ref_aug_drift(model, zeta, alpha)
    flow = F + np.einsum("...im,...m->...i", G, u)
    x = zeta[..., :-1]
    qcost = np.einsum("...i,ij,...j->...", x, cfg.Q, x)
    out = (np.einsum("...i,...i->...", vgrad, flow) + qcost
           + _ref_penalty(cfg, pre) + Bval)
    return u, float(out)


def _ref_extrapolation(model, spec, mode, cfg, env_now, weights, alpha):
    pts = cfg.points
    env = env_now if cfg.point_envelope == "live" else 0.0
    zk = np.concatenate([pts, np.full((len(pts), 1), env)], axis=1)
    gp = _ref_grad_phi(zk)
    Bval, gB = _ref_barrier_terms(spec, mode, zk, floor=cfg.margin_floor)
    vgrad = np.einsum("nli,l->ni", gp, weights) + gB
    G = _ref_aug_effectiveness(model, zk)
    pre = np.einsum("ni,nim->nm", vgrad, G) @ cfg.R_u_inv.T / (2.0 * cfg.u_bar)
    u = -cfg.u_bar * np.tanh(pre)
    F = _ref_aug_drift(model, zk, alpha)
    flow = F + np.einsum("nim,nm->ni", G, u)
    omega = np.einsum("nli,ni->nl", gp, flow)
    rho = 1.0 + cfg.gamma_c * np.einsum("nl,nl->n", omega, omega)
    qcost = np.einsum("ni,ij,nj->n", pts, cfg.Q, pts)
    delta = (np.einsum("ni,ni->n", vgrad, flow) + qcost
             + _ref_penalty(cfg, pre) + Bval)
    return omega, rho, delta


# ---------------------------------------------------------------- property

MODEL = sa.vamvoudakis2d(u_bar=10.0, box_halfwidth=3.0)
REF_MODEL = dataclasses.replace(MODEL, f=_ref_f, g=_ref_g)
SPECS = {"parabola": parabola_interior(kappa=0.01, ell=0.1),
         "circle": circular_obstacle((-0.5, 0.6), 0.2, kappa=2.5, ell=0.15)}


def _same(a, b) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


coord = st.floats(-1.5, 1.5, allow_nan=False)
weights = st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=6,
                   max_size=6).map(np.array)
envelope = st.floats(0.0, 2.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(["rlcbf", "lcbf", "none"]),
       point_envelope=st.sampled_from(["zero", "live"]),
       spec_name=st.sampled_from(sorted(SPECS)),
       points=st.lists(st.tuples(coord, coord), min_size=1, max_size=12),
       calls=st.lists(st.tuples(envelope, coord, coord, weights), min_size=1,
                      max_size=5))
def test_evaluator_matches_frozen_chain(mode, point_envelope, spec_name,
                                        points, calls):
    spec = SPECS[spec_name]
    cfg = LearningConfig(k_c=5.0, gamma_c=1.0, beta=0.01,
                         R_u=np.array([[1.0]]), Q=np.eye(2),
                         points=PointsConfig(kind="explicit", values=points),
                         point_envelope=point_envelope)
    ev = CriticEvaluator(MODEL, quadratic_basis_2d(), spec, mode, cfg, ALPHA)
    ref = _ref_config(cfg, MODEL)
    # revisit the first envelope value last: a stale cache would show there
    for env, x1, x2, W in [*calls, calls[0]]:
        zeta = np.array([x1, x2, env])
        try:
            u_ref, delta_ref = _ref_bellman(REF_MODEL, spec, mode, ref, zeta,
                                            W, ALPHA)
        except BarrierDomainError:
            try:
                ev.at(zeta, W, with_delta=True)
            except BarrierDomainError:
                pass
            else:
                raise AssertionError("evaluator accepted a nonpositive margin")
        else:
            u, delta, _, _ = ev.at(zeta, W, with_delta=True)
            u_policy, none, _, no_drift = ev.at(zeta, W)
            assert none is None and no_drift is None
            assert _same(u, u_ref) and _same(u_policy, u_ref)
            assert float(delta).hex() == delta_ref.hex()
        got = ev.extrapolate(env, W)
        want = _ref_extrapolation(REF_MODEL, spec, mode, ref, env, W, ALPHA)
        for name, g, w in zip(("omega", "rho", "delta"), got, want):
            assert _same(g, w), f"{name} differs at envelope {env!r}"


def test_live_envelope_refreshes_cached_points():
    cfg = LearningConfig(k_c=5.0, gamma_c=1.0, beta=0.01,
                         R_u=np.array([[1.0]]), Q=np.eye(2),
                         points=PointsConfig(kind="explicit",
                                             values=((0.2, 0.1), (-0.3, 0.4))),
                         point_envelope="live")
    ev = CriticEvaluator(MODEL, quadratic_basis_2d(), SPECS["parabola"],
                         "rlcbf", cfg, ALPHA)
    W = np.linspace(-1.0, 1.0, 6)
    first = ev.extrapolate(0.5, W)
    moved = ev.extrapolate(1.5, W)
    again = ev.extrapolate(0.5, W)
    assert not _same(first[2], moved[2])
    assert all(_same(a, b) for a, b in zip(first, again))
