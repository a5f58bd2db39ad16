"""Experiment presets for the two safety studies and the analytic benchmark.

Both studies share the benchmark plant, the degree-2 feature basis, and the
learning gains; they differ in barrier, domain box, initial conditions, and
observer parameters.  The *_nocbf and *_lcbf variants differ from the base
study only in the controller mode.
"""

from __future__ import annotations

from .config import (GainsConfig, ModelConfig, ObserverConfig, RunConfig,
                     SafetyConfig)
from .critic import LearningConfig, PointsConfig
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
STUDY_BOUNDS = {"ultimate_bound_x": 0.1, "ultimate_bound_err": 0.05}


def _benchmark_plant(box: float, observer: ObserverConfig,
                     safety: SafetyConfig, points: PointsConfig, x0, x_hat0,
                     u_bar: float = 10.0, point_envelope: str = "zero",
                     **sim) -> RunConfig:
    """A run of the benchmark plant with the learning gains, initial weights,
    step and horizon that every preset shares; sim holds the other sim keys."""
    return RunConfig(
        model=ModelConfig(name="vamvoudakis2d", u_bar=u_bar, box_halfwidth=box),
        observer=observer, safety=safety,
        learning=LearningConfig(
            k_c=5.0, gamma_c=1.0, beta=0.01,
            R_u=((1.0,),), Q=((1.0, 0.0), (0.0, 1.0)),
            points=points, point_envelope=point_envelope),
        sim=SimConfig(dt=1e-3, T=10.0, x0=x0, x_hat0=x_hat0, Wc0=WC0, **sim))


def _study1() -> RunConfig:
    return _benchmark_plant(
        3.0, ObserverConfig(alpha=2.0, eps0=2.5, gains=GainsConfig(
            P=STUDY1_P, l1=STUDY1_L1, l2=STUDY1_L2, l3=TUNED_L3)),
        SafetyConfig(kind="parabola_interior", kappa=0.01, ell=0.1),
        PointsConfig(kind="grid", halfwidth=0.25, per_axis=10),
        (-3.0, 1.5), (-1.5, 1.0), **STUDY_BOUNDS)


def _study2() -> RunConfig:
    center = (-0.5, 0.6)
    return _benchmark_plant(
        2.0, ObserverConfig(alpha=2.0, eps0=0.7, gains=GainsConfig(
            P=STUDY2_P, l1=STUDY2_L1, l2=STUDY2_L2, l3=TUNED_L3)),
        SafetyConfig(kind="circular_obstacle", kappa=2.5, ell=0.15,
                     center=center, radius=0.2),
        PointsConfig(kind="grid", halfwidth=1.0, per_axis=10,
                     repel_center=center, repel_radius=0.5),
        (-1.0, 1.0), (-1.5, 1.5), **STUDY_BOUNDS)


def _lq_oracle() -> RunConfig:
    """Unconstrained full-state variant with a known closed-form solution.

    No barrier, saturation level high enough to be inactive, estimate equal to
    the state.  The weight x-block should converge to (0.5, 0, 1): the value
    0.5 x1^2 + x2^2 solves the optimality equation of the benchmark plant with
    unit quadratic costs exactly.
    """
    return _benchmark_plant(
        3.0, ObserverConfig(alpha=2.0, eps0=2.5, enabled=False,
                            gains=GainsConfig(P=STUDY1_P, l1=(0.0, 0.0),
                                              l2=(0.0, 0.0), l3=(0.0, 0.0))),
        SafetyConfig(kind="none"),
        PointsConfig(kind="grid", halfwidth=1.0, per_axis=10),
        (-1.0, 1.0), (-1.0, 1.0), u_bar=100.0, point_envelope="live",
        controller_mode="none")


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
