"""Plant definition: control-affine dynamics, Jacobian bound data, state domain.

The plant is ``xdot = f(x) + g(x) u`` with linear output ``y = C x``.  Bound
matrices ``Kf1 <= df/dx <= Kf2`` and ``Kg1 <= d(g u)/dx <= Kg2`` (element-wise,
over the stated domain box and control box) are user-supplied data; they are
consumed by the LMI machinery and can be audited against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class ModelEvaluationError(RuntimeError):
    """Raised when f or g produces a non-finite value."""


@dataclass(frozen=True)
class DomainSet:
    """Axis-aligned box ``center +- halfwidths``: the state domain, or any
    other box a grid is laid over."""

    center: np.ndarray
    halfwidths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, float))
        hw = np.asarray(self.halfwidths, float)
        if not np.all((0 < hw) & (hw < np.inf)):
            raise ValueError("box halfwidths must be positive and finite")
        object.__setattr__(self, "halfwidths", hw)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def project(self, x) -> np.ndarray:
        """Nearest point in the box (per-coordinate clamp)."""
        return np.asarray(x, float).clip(self.center - self.halfwidths,
                                         self.center + self.halfwidths)

    def grid(self, num: int) -> np.ndarray:
        """The num**dim points of the regular grid over the box, one per row,
        num samples per axis from edge to edge, the last axis fastest."""
        axes = [np.linspace(c - h, c + h, num)
                for c, h in zip(self.center, self.halfwidths)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class SystemModel:
    """Control-affine plant with output matrix and Jacobian bound data.

    ``f`` and ``g`` must broadcast over leading axes: f maps (..., n) to
    (..., n) and g maps (..., n) to (..., n, m).
    """

    n: int
    m: int
    q: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    C: np.ndarray
    Kf1: np.ndarray
    Kf2: np.ndarray
    Kg1: np.ndarray
    Kg2: np.ndarray
    u_bar: float
    domain: DomainSet

    def __post_init__(self):
        for attr in ("C", "Kf1", "Kf2", "Kg1", "Kg2"):
            object.__setattr__(self, attr, np.asarray(getattr(self, attr), float))
        if self.C.shape != (self.q, self.n):
            raise ValueError(f"C must be {(self.q, self.n)}, got {self.C.shape}")
        for attr in ("Kf1", "Kf2", "Kg1", "Kg2"):
            if getattr(self, attr).shape != (self.n, self.n):
                raise ValueError(f"{attr} must be {(self.n, self.n)}")
            if not np.isfinite(getattr(self, attr)).all():
                raise ValueError(f"Jacobian bound {attr} must be finite")
        if np.any(self.Kf1 > self.Kf2) or np.any(self.Kg1 > self.Kg2):
            raise ValueError("lower Jacobian bounds exceed upper bounds")
        if not 0 < self.u_bar < np.inf:
            raise ValueError("saturation level must be positive and finite")
        if self.domain.dim != self.n:
            raise ValueError("domain dimension does not match state dimension")


def _checked(out: np.ndarray, x, what: str) -> np.ndarray:
    """out, or ModelEvaluationError naming the first point where it is not finite."""
    if not np.isfinite(out).all():
        x = np.asarray(x, float)
        first = np.argwhere(~np.isfinite(out))[0]
        at = x[tuple(first[:x.ndim - 1])]
        raise ModelEvaluationError(f"{what} produced non-finite values at x={at}")
    return out


def drift(model: SystemModel, x) -> np.ndarray:
    """Evaluate the drift f(x)."""
    return _checked(np.asarray(model.f(np.asarray(x, float)), float), x, "drift")


def effectiveness(model: SystemModel, x) -> np.ndarray:
    """Evaluate the control-effectiveness matrix g(x), shape (..., n, m)."""
    return _checked(np.asarray(model.g(np.asarray(x, float)), float), x,
                    "effectiveness")


def augmented_drift(model: SystemModel, zeta, alpha: float) -> np.ndarray:
    """Drift of the (x, envelope) augmentation: last component decays at rate alpha."""
    zeta = np.asarray(zeta, float)
    out = np.empty(zeta.shape)
    out[..., :-1] = drift(model, zeta[..., :-1])
    out[..., -1] = -alpha * zeta[..., -1]
    return out


def augmented_effectiveness(model: SystemModel, zeta) -> np.ndarray:
    """Effectiveness of the augmentation: zero row for the envelope component."""
    zeta = np.asarray(zeta, float)
    out = np.zeros(zeta.shape + (model.m,))
    out[..., :-1, :] = effectiveness(model, zeta[..., :-1])
    return out


def augmented_dynamics(model: SystemModel, zeta, u, alpha: float) -> np.ndarray:
    """Right-hand side of the augmented system, affine in u; ValueError if
    some |u_i| exceeds u_bar."""
    u = np.atleast_1d(np.asarray(u, float))
    if np.any(np.abs(u) > model.u_bar):
        raise ValueError(f"control {u} outside saturation box |u|<={model.u_bar}")
    F = augmented_drift(model, zeta, alpha)
    G = augmented_effectiveness(model, zeta)
    return F + G @ u


def _central_jacobian(fn, pts: np.ndarray, step: float) -> np.ndarray:
    """Central-difference Jacobians of fn at the rows of pts, (P, n, n)."""
    cols = [(fn(pts + e) - fn(pts - e)) / (2 * step)
            for e in step * np.eye(pts.shape[1])]
    return np.stack(cols, axis=-1)


def audit_jacobian_bounds(model: SystemModel, n_grid: int = 21, n_u: int = 5,
                          tol: float = 1e-6, fd_step: float = 1e-6) -> dict:
    """Check the supplied bound matrices against finite-difference Jacobians.

    Samples an n_grid x ... grid over the domain box and control values on a
    grid over [-u_bar, u_bar]^m, central-differences f and g*u, and reports the
    worst element-wise margin against [Kf1, Kf2] / [Kg1, Kg2].
    """
    pts = model.domain.grid(n_grid)
    u_box = DomainSet(np.zeros(model.m), np.full(model.m, model.u_bar))
    u_vals = u_box.grid(n_u)
    jac_f = _central_jacobian(lambda p: drift(model, p), pts, fd_step)
    jac_gu = np.concatenate([
        _central_jacobian(lambda p: effectiveness(model, p) @ u, pts, fd_step)
        for u in u_vals])
    f_lo, f_hi = jac_f.min(axis=0), jac_f.max(axis=0)
    g_lo, g_hi = jac_gu.min(axis=0), jac_gu.max(axis=0)

    f_margin = min(float((f_lo - model.Kf1).min()), float((model.Kf2 - f_hi).min()))
    g_margin = min(float((g_lo - model.Kg1).min()), float((model.Kg2 - g_hi).min()))
    return {
        "n_points": int(len(pts)),
        "n_controls": int(len(u_vals)),
        "f_jacobian_min": f_lo.tolist(),
        "f_jacobian_max": f_hi.tolist(),
        "gu_jacobian_min": g_lo.tolist(),
        "gu_jacobian_max": g_hi.tolist(),
        "f_margin": f_margin,
        "g_margin": g_margin,
        "f_ok": bool(f_margin >= -tol),
        "g_ok": bool(g_margin >= -tol),
        "ok": bool(f_margin >= -tol and g_margin >= -tol),
    }


# ---------------------------------------------------------------------------
# Built-in models


def _sin_amp_peak() -> float:
    # extreme value of sin(w)*(cos(w)+2) over a full period
    c = (np.sqrt(3.0) - 1.0) / 2.0
    return float(np.sqrt(1.0 - c * c) * (c + 2.0))


def vamvoudakis2d(u_bar: float = 10.0, box_halfwidth: float = 3.0) -> SystemModel:
    """Two-state benchmark plant with cos-modulated actuation on the second state.

    Only the second state is measured.  Jacobian bounds are the analytic
    extremes of df/dx and d(g u)/dx over the stated box and |u| <= u_bar,
    padded slightly outward.
    """

    def f(x):
        x = np.asarray(x, float)
        x1, x2 = x[..., 0], x[..., 1]
        c = np.cos(2.0 * x1) + 2.0
        out = np.empty(x.shape[:-1] + (2,))
        out[..., 0] = -x1 + x2
        out[..., 1] = -0.5 * x1 - 0.5 * x2 * (1.0 - c * c)
        return out

    def g(x):
        x = np.asarray(x, float)
        out = np.zeros(x.shape[:-1] + (2, 1))
        out[..., 1, 0] = np.cos(2.0 * x[..., 0]) + 2.0
        return out

    pad = 1e-9
    m = 2.0 * box_halfwidth * _sin_amp_peak()
    Kf1 = np.array([[-1.0, 1.0], [-0.5 - m - pad, 0.0 - pad]])
    Kf2 = np.array([[-1.0, 1.0], [-0.5 + m + pad, 4.0 + pad]])
    Kg1 = np.array([[0.0, 0.0], [-2.0 * u_bar - pad, 0.0]])
    Kg2 = np.array([[0.0, 0.0], [2.0 * u_bar + pad, 0.0]])
    domain = DomainSet(center=np.zeros(2), halfwidths=np.full(2, box_halfwidth))
    return SystemModel(n=2, m=1, q=1, f=f, g=g, C=np.array([[0.0, 1.0]]),
                       Kf1=Kf1, Kf2=Kf2, Kg1=Kg1, Kg2=Kg2,
                       u_bar=u_bar, domain=domain)


MODEL_REGISTRY: dict[str, Callable[..., SystemModel]] = {
    "vamvoudakis2d": vamvoudakis2d,
}
