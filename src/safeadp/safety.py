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
    """Barrier h with analytic gradient, the Lipschitz constant of h over a
    box, the configured constant ell of the robust margin, barrier gain."""

    h: Callable[[np.ndarray], np.ndarray]
    grad_h: Callable[[np.ndarray], np.ndarray]
    lipschitz: Callable[[DomainSet], float]
    ell: float
    kappa: float

    def __post_init__(self):
        if not (0 < self.ell < np.inf and 0 < self.kappa < np.inf):
            raise ValueError("ell and kappa must be positive and finite")


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

    def lipschitz(box):
        # |grad h| = sqrt(1 + 4 x2^2) peaks where |x2| does
        x2_max = abs(box.center[1]) + box.halfwidths[1]
        return float(np.sqrt(1.0 + 4.0 * x2_max ** 2))

    return SafetySpec(h=h, grad_h=grad_h, lipschitz=lipschitz, ell=ell,
                      kappa=kappa)


def circular_obstacle(center, radius: float, kappa: float, ell: float) -> SafetySpec:
    """Safe set outside a disk: h(x) = ||x - center||^2 - radius^2."""
    center = np.asarray(center, float)
    if not radius > 0:
        raise ValueError("obstacle radius must be positive")

    def h(x):
        d = np.asarray(x, float) - center
        return (d * d).sum(axis=-1) - radius ** 2

    def grad_h(x):
        return 2.0 * (np.asarray(x, float) - center)

    def lipschitz(box):
        # |grad h| = 2 |x - center| peaks at the box corner farthest away
        return float(2.0 * np.linalg.norm(np.abs(box.center - center)
                                          + box.halfwidths))

    return SafetySpec(h=h, grad_h=grad_h, lipschitz=lipschitz, ell=ell,
                      kappa=kappa)


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
