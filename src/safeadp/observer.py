"""Projection-based nonlinear state observer and its error-bound envelope.

The observer clamps the running estimate onto the state domain before every
evaluation of f and g, injects the output innovation into their arguments, and
adds a linear correction.  The envelope is the exponentially decaying bound on
the estimation error implied by the gain design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import SystemModel, drift, effectiveness


class ObserverEvaluationError(RuntimeError):
    """Raised when the observer right-hand side becomes non-finite."""


@dataclass(frozen=True)
class ObserverGains:
    """Observer gain set plus derived envelope parameters.

    chi = ``sqrt(lmax(P)/lmin(P)) * eps0`` is the initial value of the error
    envelope.  R_lmi = P @ l3 is the variable the gain verification works
    with (named to avoid clashing with the control-cost weight).
    """

    P: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    l3: np.ndarray
    alpha: float
    eps0: float
    R_lmi: np.ndarray = field(init=False)
    chi: float = field(init=False)

    def __post_init__(self):
        P = np.asarray(self.P, float)
        object.__setattr__(self, "P", P)
        for attr in ("l1", "l2", "l3"):     # n rows of q, as the LMI reads them
            object.__setattr__(self, attr, np.asarray(
                getattr(self, attr), float).reshape(len(P), -1))
        if not 0 < self.alpha < np.inf:
            raise ValueError("decay rate must be positive and finite")
        if not 0 < self.eps0 < np.inf:
            raise ValueError("initial error bound must be positive and finite")
        if not np.allclose(P, P.T, atol=1e-12):
            raise ValueError("P must be symmetric")
        ev = np.linalg.eigvalsh(P)
        if ev[0] <= 0:
            raise ValueError("P must be positive definite")
        object.__setattr__(self, "chi",
                           float(np.sqrt(ev[-1] / ev[0]) * self.eps0))
        object.__setattr__(self, "R_lmi", P @ self.l3)


def error_envelope(gains: ObserverGains, t) -> np.ndarray | float:
    """Decaying bound on the estimation error norm; equals chi at t = 0."""
    t = np.asarray(t, float)
    out = gains.chi * np.exp(-gains.alpha * t)
    return float(out) if out.ndim == 0 else out


def observer_rhs(model: SystemModel, gains: ObserverGains, x_hat, y, u) -> np.ndarray:
    """Estimate derivative: f and g evaluated at innovation-shifted projections,
    plus the linear correction."""
    x_hat = np.asarray(x_hat, float)
    y = np.atleast_1d(np.asarray(y, float))
    u = np.atleast_1d(np.asarray(u, float))
    pr = model.domain.project(x_hat)
    innov = y - model.C @ pr
    a1 = pr + gains.l1 @ innov
    a2 = pr + gains.l2 @ innov
    out = drift(model, a1) + effectiveness(model, a2) @ u + gains.l3 @ innov
    if not np.isfinite(out).all():
        raise ObserverEvaluationError("observer right-hand side is non-finite")
    return out
