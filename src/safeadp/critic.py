"""Value-function approximation, saturated policy, Bellman-error machinery.

The value estimate is a weighted feature expansion plus the barrier cost; the
policy is a tanh-saturated feedback derived from its gradient.  Weights adapt
online from Bellman errors extrapolated over a fixed set of points, with a
forgetting-factor least-squares gain matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import SystemModel, augmented_drift, augmented_effectiveness
from .safety import SafetySpec, barrier_value_and_gradient


@dataclass(frozen=True)
class Basis:
    """Feature map phi with analytic Jacobian; both vanish at the origin."""

    L: int
    phi: Callable[[np.ndarray], np.ndarray]
    grad_phi: Callable[[np.ndarray], np.ndarray]


def quadratic_basis_2d() -> Basis:
    """The six distinct degree-2 monomials of (x1, x2, envelope)."""
    pairs = ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))
    # d(z_a z_b)/dz_i = sum_j T[l, i, j] z_j; grad_phi contracts z with T.
    T = np.zeros((len(pairs), 3, 3))
    for l, (a, b) in enumerate(pairs):
        T[l, a, b] += 1.0
        T[l, b, a] += 1.0
    T_flat = T.reshape(-1, 3).T.copy()

    def phi(z):
        z = np.asarray(z, float)
        z1, z2, z3 = z[..., 0], z[..., 1], z[..., 2]
        return np.stack([z1 * z1, z1 * z2, z2 * z2, z1 * z3, z2 * z3, z3 * z3],
                        axis=-1)

    def grad_phi(z):
        z = np.asarray(z, float)
        return (z @ T_flat).reshape(z.shape[:-1] + T.shape[:2])

    return Basis(L=len(pairs), phi=phi, grad_phi=grad_phi)


# How the barrier enters cost and policy: "rlcbf" with the margin h(x) minus
# ell times the live envelope component, "lcbf" with the margin h(x) alone,
# "none" not at all.
CONTROLLER_MODES = ("rlcbf", "lcbf", "none")


@dataclass(frozen=True)
class LearningConfig:
    """Gains and data for the extrapolated-Bellman-error update laws."""

    k_c: float
    gamma_c: float
    beta: float
    u_bar: float
    R_u: np.ndarray            # (m, m) diagonal control weight
    Q: np.ndarray              # (n, n) PSD state weight, cost x' Q x
    points: np.ndarray         # (N, n) fixed extrapolation locations
    point_envelope: str = "live"   # "live": envelope component tracks t; "zero": fixed 0
    margin_floor: float = 1e-6     # clamp for extrapolation points only
    R_u_inv: np.ndarray = field(init=False)   # derived from R_u

    def __post_init__(self):
        object.__setattr__(self, "R_u", np.atleast_2d(np.asarray(self.R_u, float)))
        object.__setattr__(self, "Q", np.atleast_2d(np.asarray(self.Q, float)))
        object.__setattr__(self, "points", np.atleast_2d(np.asarray(self.points, float)))
        if not (self.k_c > 0 and self.gamma_c > 0 and self.beta >= 0):
            raise ValueError("adaptation and normalization gains must be "
                             "positive, forgetting factor nonnegative")
        if not self.u_bar > 0:
            raise ValueError("saturation level must be positive")
        d = np.diag(self.R_u)
        if not np.all((0 < d) & (d < np.inf)) or np.any(self.R_u != np.diag(d)):
            raise ValueError("R_u must be diagonal with positive finite entries")
        if not (np.isfinite(self.Q).all() and np.linalg.eigvalsh(
                self.Q + self.Q.T)[0] >= -1e-12 * np.abs(self.Q).max()):
            raise ValueError("Q must be finite and positive semidefinite")
        if not 0 < self.margin_floor < np.inf:
            raise ValueError("margin_floor must be positive and finite")
        if self.point_envelope not in ("live", "zero"):
            raise ValueError("point_envelope must be 'live' or 'zero'")
        if len(self.points) < 1:
            raise ValueError("need at least one extrapolation point")
        object.__setattr__(self, "R_u_inv", np.linalg.inv(self.R_u))


# ---------------------------------------------------------------------------
# Saturation penalty


_LOG_2 = np.log(2.0)


def _log_cosh(d):
    a = np.abs(d)
    return a + np.log1p(np.exp(-2.0 * a)) - _LOG_2


def _saturation_penalty_preact(config: LearningConfig, preact,
                               tanh_preact=None) -> np.ndarray:
    """Penalty evaluated at u = -u_bar*tanh(preact); stable for large preact.

    Uses atanh(u/u_bar) = -preact and ln(1 - tanh^2) = -2 ln cosh, so the
    closed form never touches the atanh singularity when tanh saturates.
    A caller that already has tanh(preact) passes it in.
    """
    d = np.asarray(preact, float)
    t = np.tanh(d) if tanh_preact is None else tanh_preact
    term = d * t - _log_cosh(d)
    return 2.0 * config.u_bar ** 2 * (config.R_u.diagonal() * term).sum(axis=-1)


# ---------------------------------------------------------------------------
# Value estimate, policy, Bellman error


def _barrier_terms(spec, mode: str, zeta, floor=None):
    zeta = np.asarray(zeta, float)
    if spec is None or mode == "none":
        val = np.zeros(zeta.shape[:-1])
        grad = np.zeros(zeta.shape[:-1] + (zeta.shape[-1],))
        return val, grad
    val, grad = barrier_value_and_gradient(spec, zeta,
                                           use_envelope=mode == "rlcbf",
                                           floor=floor)
    return np.asarray(val, float), grad


class CriticEvaluator:
    """The policy and Bellman-error chain of one closed loop.

    One implementation serves the policy at the estimate, the Bellman error
    there, and the extrapolation terms at the fixed points.  The point terms
    that do not depend on the weights (grad phi, barrier value and gradient,
    F, G, x'Qx) are computed at the first extrapolation and kept.  With
    point_envelope "zero" they never change.  With "live", only the parts
    that depend on the envelope component are refreshed when it moves: grad
    phi, the robust barrier, and the last component of F, which is affine in
    the envelope.  alpha, the envelope decay rate, enters F only; a policy-only
    evaluator may leave it None.
    """

    def __init__(self, model: SystemModel, basis: Basis,
                 spec: SafetySpec | None, mode: str,
                 config: LearningConfig, alpha: float | None = None):
        if mode not in CONTROLLER_MODES:
            raise ValueError(f"unknown controller mode {mode!r}")
        self.model, self.basis, self.spec, self.mode = model, basis, spec, mode
        self.config, self.alpha = config, alpha
        self._env = None            # envelope component of the cached points
        self._points = None         # (gp, Bval, gB, G, F, qcost)

    def _chain(self, gp, Bval, gB, G, weights, F=None, qcost=None):
        """Policy at the given terms; with F also the flow and Bellman error.

        grad(V_hat) (F + G u_hat) + x'Qx + saturation penalty + barrier cost,
        with u_hat = -u_bar tanh((R^-1 G' / 2u_bar)(grad_phi' W + grad_B')).
        """
        cfg = self.config
        vgrad = np.einsum("...li,l->...i", gp, np.asarray(weights, float)) + gB
        pre = (np.einsum("...i,...im->...m", vgrad, G) @ cfg.R_u_inv.T
               / (2.0 * cfg.u_bar))
        tanh_pre = np.tanh(pre)
        u = -cfg.u_bar * tanh_pre
        if F is None:
            return u, None, None
        flow = F + np.einsum("...im,...m->...i", G, u)
        delta = (np.einsum("...i,...i->...", vgrad, flow) + qcost
                 + _saturation_penalty_preact(cfg, pre, tanh_pre) + Bval)
        return u, flow, delta

    def at(self, zeta, weights, with_delta: bool = False,
           floor: float | None = None, plant: bool = False):
        """(u, delta) at augmented state(s) zeta; delta is None unless asked.

        Without `floor`, a nonpositive barrier margin raises
        BarrierDomainError; with it, margins are clamped.  With `plant`, the
        augmented effectiveness and drift evaluated at zeta follow (the drift
        is None unless delta was asked), for a caller that needs the plant at
        the same state.
        """
        zeta = np.asarray(zeta, float)
        gp = np.asarray(self.basis.grad_phi(zeta), float)
        Bval, gB = _barrier_terms(self.spec, self.mode, zeta, floor=floor)
        G = augmented_effectiveness(self.model, zeta)
        F = qcost = None
        if with_delta:
            F = augmented_drift(self.model, zeta, self.alpha)
            x = zeta[..., :-1]
            qcost = np.einsum("...i,ij,...j->...", x, self.config.Q, x)
        u, _, delta = self._chain(gp, Bval, gB, G, weights, F, qcost)
        return (u, delta, G, F) if plant else (u, delta)

    def _point_terms(self, envelope_now: float):
        cfg = self.config
        env = envelope_now if cfg.point_envelope == "live" else 0.0
        if self._points is not None and env == self._env:
            return self._points
        pts = cfg.points
        zk = np.concatenate([pts, np.full((len(pts), 1), env)], axis=1)
        gp = np.asarray(self.basis.grad_phi(zk), float)
        if self._points is None:
            Bval, gB = _barrier_terms(self.spec, self.mode, zk,
                                      floor=cfg.margin_floor)
            G = augmented_effectiveness(self.model, zk)
            F = augmented_drift(self.model, zk, self.alpha)
            qcost = np.einsum("ni,ij,nj->n", pts, cfg.Q, pts)
        else:
            _, Bval, gB, G, F, qcost = self._points
            if self.mode == "rlcbf":
                Bval, gB = _barrier_terms(self.spec, self.mode, zk,
                                          floor=cfg.margin_floor)
            F[:, -1] = -self.alpha * env
        self._env, self._points = env, (gp, Bval, gB, G, F, qcost)
        return self._points

    def extrapolate(self, envelope_now: float, weights):
        """Regressors, normalizers and Bellman errors at the extrapolation points.

        Returns (omega, rho, delta): omega is (N, L), rho (N,) with rho >= 1,
        delta (N,).  The envelope component of each point is the live value
        or a fixed zero per the config; margins below the floor are clamped
        with zero barrier gradient, so the terms stay finite on points outside
        the current robustified set.
        """
        gp, Bval, gB, G, F, qcost = self._point_terms(envelope_now)
        _, flow, delta = self._chain(gp, Bval, gB, G, weights, F, qcost)
        omega = np.einsum("nli,ni->nl", gp, flow)
        rho = 1.0 + self.config.gamma_c * np.einsum("nl,nl->n", omega, omega)
        return omega, rho, delta


def saturated_policy(model: SystemModel, basis: Basis, spec: SafetySpec | None,
                     mode: str, config: LearningConfig, zeta,
                     weights) -> np.ndarray:
    """Feedback -u_bar * tanh(preactivation); strictly inside the box."""
    return CriticEvaluator(model, basis, spec, mode, config).at(zeta, weights)[0]


def bellman_error(model: SystemModel, basis: Basis, spec: SafetySpec | None,
                  mode: str, config: LearningConfig, zeta, weights,
                  alpha: float, floor: float | None = None) -> float:
    """Residual of the approximate optimality equation at augmented state(s)."""
    _, out = CriticEvaluator(model, basis, spec, mode, config, alpha).at(
        zeta, weights, with_delta=True, floor=floor)
    return float(out) if np.ndim(out) == 0 else out


def extrapolation_terms(model: SystemModel, basis: Basis,
                        spec: SafetySpec | None, mode: str,
                        config: LearningConfig, envelope_now: float, weights,
                        alpha: float):
    """(omega, rho, delta) at the extrapolation points; see
    CriticEvaluator.extrapolate."""
    return CriticEvaluator(model, basis, spec, mode, config,
                           alpha).extrapolate(envelope_now, weights)


def critic_derivatives(omega, rho, delta, weights, gain,
                       config: LearningConfig):
    """Normalized-gradient weight update and forgetting-factor gain update.

    weights_dot = -(k_c/N) * gain @ sum_k (omega_k/rho_k) delta_k
    gain_dot    = beta*gain - (k_c/N) * gain @ S @ gain
    with S = sum_k omega_k omega_k'/rho_k^2, which is returned third for the
    excitation monitor.
    """
    omega = np.asarray(omega, float)
    rho = np.asarray(rho, float)
    delta = np.asarray(delta, float)
    gain = np.asarray(gain, float)
    N = len(rho)
    w_dot = -(config.k_c / N) * gain @ (omega.T @ (delta / rho))
    normalized = omega / rho[:, None]
    S = normalized.T @ normalized
    gain_dot = config.beta * gain - (config.k_c / N) * gain @ S @ gain
    return w_dot, gain_dot, S


def excitation_level(S, N: int) -> float:
    """Smallest eigenvalue of S / N, the averaged normalized outer-product sum
    of the N extrapolation points that critic_derivatives returns.

    The online-checkable stand-in for a persistence-of-excitation condition;
    a value near zero means some weight directions receive no information.
    """
    return float(np.linalg.eigvalsh(S / N)[0])
