"""Experiment presets for the two safety studies and the analytic benchmark.

Both studies share the benchmark plant, the degree-2 feature basis, and the
learning gains; they differ in barrier, domain box, initial conditions, and
observer parameters.  The *_nocbf and *_lcbf variants differ from the base
study only in the controller mode.
"""

from __future__ import annotations

from .config import (GainsConfig, LearningSettings, ModelConfig,
                     ObserverConfig, PointsConfig, RunConfig, SafetyConfig)
from .sim import SimConfig

# Lyapunov matrices and injection gains for the two studies.  The correction
# gain l3 = (-10, 9) places the origin-linearized error poles near -3: fast
# enough to outrun the alpha = 2 envelope, gentle enough that the correction
# does not slew the unmeasured estimate component through a large transient
# (aggressive corrections steer the plant into the obstacle in study 2 and
# break the error envelope in study 1).
STUDY1_P = ((0.27222, 0.15875), (0.15875, 0.40954))
STUDY1_L1 = (0.14719, 0.14719)
STUDY1_L2 = (0.045396, 0.045396)
STUDY2_P = ((0.47897, 1.0306), (1.0306, 2.6555))
STUDY2_L1 = (0.3956, 0.13187)
STUDY2_L2 = (0.15735, 0.15735)
TUNED_L3 = (-10.0, 9.0)

WC0 = (0.5, 1.0, 0.8, 0.1, 0.1, 0.1)


def _study1() -> RunConfig:
    return RunConfig(
        model=ModelConfig(name="vamvoudakis2d", u_bar=10.0, box_halfwidth=3.0),
        observer=ObserverConfig(
            alpha=2.0, eps0=2.5,
            gains=GainsConfig(P=STUDY1_P, l1=STUDY1_L1, l2=STUDY1_L2,
                              l3=TUNED_L3)),
        safety=SafetyConfig(kind="parabola_interior", kappa=0.01, ell=0.1),
        learning=LearningSettings(
            k_c=5.0, gamma_c=1.0, beta=0.01,
            R_u=((1.0,),), Q=((1.0, 0.0), (0.0, 1.0)),
            points=PointsConfig(kind="grid", halfwidth=0.25, per_axis=10),
            point_envelope="zero"),
        sim=SimConfig(dt=1e-3, T=10.0, x0=(-3.0, 1.5), x_hat0=(-1.5, 1.0),
                      Wc0=WC0, controller_mode="rlcbf",
                      ultimate_bound_x=0.1, ultimate_bound_err=0.05))


def _study2() -> RunConfig:
    center = (-0.5, 0.6)
    return RunConfig(
        model=ModelConfig(name="vamvoudakis2d", u_bar=10.0, box_halfwidth=2.0),
        observer=ObserverConfig(
            alpha=2.0, eps0=0.7,
            gains=GainsConfig(P=STUDY2_P, l1=STUDY2_L1, l2=STUDY2_L2,
                              l3=TUNED_L3)),
        safety=SafetyConfig(kind="circular_obstacle", kappa=2.5, ell=0.15,
                            center=center, radius=0.2),
        learning=LearningSettings(
            k_c=5.0, gamma_c=1.0, beta=0.01,
            R_u=((1.0,),), Q=((1.0, 0.0), (0.0, 1.0)),
            points=PointsConfig(kind="grid", halfwidth=1.0, per_axis=10,
                                repel_center=center, repel_radius=0.5),
            point_envelope="zero"),
        sim=SimConfig(dt=1e-3, T=10.0, x0=(-1.0, 1.0), x_hat0=(-1.5, 1.5),
                      Wc0=WC0, controller_mode="rlcbf",
                      ultimate_bound_x=0.1, ultimate_bound_err=0.05))


def _lq_oracle() -> RunConfig:
    """Unconstrained full-state variant with a known closed-form solution.

    No barrier, saturation level high enough to be inactive, estimate equal to
    the state.  The weight x-block should converge to (0.5, 0, 1): the value
    0.5 x1^2 + x2^2 solves the optimality equation of the benchmark plant with
    unit quadratic costs exactly.
    """
    return RunConfig(
        model=ModelConfig(name="vamvoudakis2d", u_bar=100.0, box_halfwidth=3.0),
        observer=ObserverConfig(
            alpha=2.0, eps0=2.5, enabled=False,
            gains=GainsConfig(P=STUDY1_P, l1=(0.0, 0.0), l2=(0.0, 0.0),
                              l3=(0.0, 0.0))),
        safety=SafetyConfig(kind="none"),
        learning=LearningSettings(
            k_c=5.0, gamma_c=1.0, beta=0.01,
            R_u=((1.0,),), Q=((1.0, 0.0), (0.0, 1.0)),
            points=PointsConfig(kind="grid", halfwidth=1.0, per_axis=10),
            point_envelope="live"),
        sim=SimConfig(dt=1e-3, T=10.0, x0=(-1.0, 1.0), x_hat0=(-1.0, 1.0),
                      Wc0=WC0, controller_mode="none"))


_BUILDERS = {
    "study1": _study1,
    "study2": _study2,
    "study1_nocbf": lambda: _study1().replace_sim(controller_mode="none"),
    "study2_nocbf": lambda: _study2().replace_sim(controller_mode="none"),
    "study1_lcbf": lambda: _study1().replace_sim(controller_mode="lcbf"),
    "study2_lcbf": lambda: _study2().replace_sim(controller_mode="lcbf"),
    "lq_oracle": _lq_oracle,
}

PRESET_NAMES = tuple(_BUILDERS)


def preset(name: str) -> RunConfig:
    """Fully populated run configuration for a named experiment; an unknown
    name raises KeyError."""
    return _BUILDERS[name]()
