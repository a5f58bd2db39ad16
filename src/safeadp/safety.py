"""Barrier function, its robustified form, and the recentered squared log barrier.

The safe set is the zero super-level set of a scalar function h.  Feeding back
state estimates shrinks the certifiable region: the robustified margin
subtracts ell times the current estimation-error envelope from h.  The cost
term is a squared, recentered log barrier of that margin: zero at the origin,
growing without bound at the robustified boundary, and saturating far away so
the origin stays the minimizer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import DomainSet


class BarrierDomainError(RuntimeError):
    """Evaluation outside the robustified safe set without a clamp."""


@dataclass(frozen=True)
class SafetySpec:
    """Barrier h with analytic gradient, Lipschitz-style constant, barrier gain."""

    h: Callable[[np.ndarray], np.ndarray]
    grad_h: Callable[[np.ndarray], np.ndarray]
    ell: float
    kappa: float
    name: str = "custom"

    def __post_init__(self):
        if self.ell <= 0 or self.kappa <= 0:
            raise ValueError("ell and kappa must be positive")


def parabola_interior(kappa: float, ell: float) -> SafetySpec:
    """Safe set bounded by a parabola: h(x) = 1 - x1 - x2^2."""

    def h(x):
        x = np.asarray(x, float)
        return -x[..., 1] ** 2 - x[..., 0] + 1.0

    def grad_h(x):
        x = np.asarray(x, float)
        out = np.empty(x.shape[:-1] + (2,))
        out[..., 0] = -1.0
        out[..., 1] = -2.0 * x[..., 1]
        return out

    return SafetySpec(h=h, grad_h=grad_h, ell=ell, kappa=kappa,
                      name="parabola_interior")


def circular_obstacle(center, radius: float, kappa: float, ell: float) -> SafetySpec:
    """Safe set outside a disk: h(x) = ||x - center||^2 - radius^2."""
    center = np.asarray(center, float)
    if radius <= 0:
        raise ValueError("obstacle radius must be positive")

    def h(x):
        d = np.asarray(x, float) - center
        return (d * d).sum(axis=-1) - radius ** 2

    def grad_h(x):
        return 2.0 * (np.asarray(x, float) - center)

    return SafetySpec(h=h, grad_h=grad_h, ell=ell, kappa=kappa,
                      name="circular_obstacle")


def _recenter_log(spec: SafetySpec, margin):
    """-(log of kappa*m/(kappa*m+1)); diverges as the margin vanishes."""
    return np.log1p(1.0 / (spec.kappa * np.asarray(margin, float)))


@functools.lru_cache(maxsize=64)
def _origin_term(spec: SafetySpec, state_dim: int):
    """Log barrier at the origin with zero envelope: the recentering constant."""
    h0 = float(spec.h(np.zeros(state_dim)))
    if h0 <= 0:
        raise BarrierDomainError("origin lies outside the safe set")
    return _recenter_log(spec, h0)


def barrier_value_and_gradient(spec: SafetySpec, zeta, use_envelope: bool = True,
                               floor: float | None = None):
    """Cost and gradient in one pass (single margin evaluation).

    On clamped points the gradient is zero (the clamped cost is locally
    constant), which keeps extrapolation updates finite.
    """
    zeta = np.asarray(zeta, float)
    x = zeta[..., :-1]
    margin = np.asarray(spec.h(x), float)
    if use_envelope:
        margin = margin - spec.ell * zeta[..., -1]
    clamped = None
    if floor is None:
        if (margin <= 0).any():
            raise BarrierDomainError(
                f"robustified margin nonpositive (min {np.min(margin):.6g})")
    else:
        clamped = margin < floor
        margin = np.maximum(margin, floor)
    recentered = _recenter_log(spec, margin) - _origin_term(spec, x.shape[-1])
    val = recentered ** 2
    dbd_margin = -1.0 / (margin * (spec.kappa * margin + 1.0))
    coef = 2.0 * recentered * dbd_margin
    grad = np.empty(zeta.shape)
    grad[..., :-1] = coef[..., None] * np.asarray(spec.grad_h(x), float)
    grad[..., -1] = coef * (-spec.ell if use_envelope else 0.0)
    if clamped is not None:
        grad[clamped] = 0.0
    return val, grad


def lipschitz_audit(spec: SafetySpec, domain: DomainSet, n_pairs: int = 1000,
                    seed: int = 0) -> dict:
    """Sampled check of |h(a)-h(b)| <= ell*||a-b|| on the simulation domain.

    The configured ell values are design constants, not certified Lipschitz
    bounds; a violation here is reported as a warning, not an error.
    """
    rng = np.random.default_rng(seed)
    n = domain.dim
    lo = domain.center - domain.halfwidths
    hi = domain.center + domain.halfwidths
    a = rng.uniform(lo, hi, size=(n_pairs, n))
    b = rng.uniform(lo, hi, size=(n_pairs, n))
    dist = np.linalg.norm(a - b, axis=1)
    keep = dist > 1e-12
    ratio = np.abs(spec.h(a[keep]) - spec.h(b[keep])) / dist[keep]
    worst = float(ratio.max())
    return {
        "configured_ell": spec.ell,
        "observed_ratio_max": worst,
        "ok": bool(worst <= spec.ell),
        "n_pairs": int(keep.sum()),
    }
