"""Run configuration: strict schema, JSON ingestion, problem assembly.

A run is described by one JSON document with five sections (model, observer,
safety, learning, sim).  Unknown keys are rejected before any computation.
Observer gains are either explicit matrices or the string "synthesize", in
which case the gain search runs at build time and its certificate is attached.
"""

from __future__ import annotations

import json
from dataclasses import (asdict, dataclass, field, fields, is_dataclass,
                         replace)
from typing import Any

import numpy as np

from . import lmi
from .critic import LearningConfig, quadratic_basis_2d
from .model import MODEL_REGISTRY, SystemModel
from .observer import ObserverGains
from .safety import SafetySpec, circular_obstacle, parabola_interior
from .sim import ControlProblem, SimConfig


class ConfigError(ValueError):
    """Configuration file fails schema validation."""


def _check_keys(section: dict, allowed, required: set[str], ctx: str):
    """Reject unknown and missing keys; allowed is a set of names or a
    dataclass, whose field names are then the allowed keys."""
    if is_dataclass(allowed):
        allowed = {f.name for f in fields(allowed)}
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{ctx}: missing keys {sorted(missing)}")


@dataclass(frozen=True)
class ModelConfig:
    name: str = "vamvoudakis2d"
    u_bar: float = 10.0
    box_halfwidth: float = 3.0

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        _check_keys(d, cls, {"name"}, "model")
        if d["name"] not in MODEL_REGISTRY:
            raise ConfigError(f"model: unknown model {d['name']!r}; "
                              f"known: {sorted(MODEL_REGISTRY)}")
        return cls(**d)

    def build(self) -> SystemModel:
        return MODEL_REGISTRY[self.name](u_bar=self.u_bar,
                                         box_halfwidth=self.box_halfwidth)


@dataclass(frozen=True)
class ObserverConfig:
    alpha: float
    eps0: float
    gains: Any = "synthesize"      # dict of matrices, or "synthesize"
    enabled: bool = True
    synthesis: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "ObserverConfig":
        _check_keys(d, cls, {"alpha", "eps0", "gains"}, "observer")
        gains = d["gains"]
        if isinstance(gains, dict):
            _check_keys(gains, {"P", "l1", "l2", "l3"},
                        {"P", "l1", "l2", "l3"}, "observer.gains")
            d = dict(d)
            d["gains"] = {
                "P": tuple(tuple(float(v) for v in row)
                           for row in np.atleast_2d(np.asarray(gains["P"], float))),
                "l1": tuple(np.ravel(np.asarray(gains["l1"], float)).tolist()),
                "l2": tuple(np.ravel(np.asarray(gains["l2"], float)).tolist()),
                "l3": tuple(np.ravel(np.asarray(gains["l3"], float)).tolist()),
            }
        elif gains != "synthesize":
            raise ConfigError("observer.gains must be a matrix dict or 'synthesize'")
        if "synthesis" in d:
            _check_keys(d["synthesis"], {"budget", "step", "seed", "tol", "mode"},
                        set(), "observer.synthesis")
        return cls(**d)

    def build(self, model: SystemModel):
        """Returns (ObserverGains, certificate-or-None)."""
        if isinstance(self.gains, dict):
            g = ObserverGains(P=np.array(self.gains["P"], float),
                              l1=np.array(self.gains["l1"], float),
                              l2=np.array(self.gains["l2"], float),
                              l3=np.array(self.gains["l3"], float),
                              alpha=self.alpha, eps0=self.eps0)
            return g, None
        problem = lmi.LmiProblem.from_model(model, self.alpha)
        synth = dict(self.synthesis)
        mode = synth.pop("mode", "theta_identity")
        params = lmi.SearchParams(**synth) if synth else lmi.SearchParams()
        P, l1, l2, l3, cert = lmi.synthesize_gains(problem, search=params,
                                                   mode=mode)
        g = ObserverGains(P=P, l1=l1, l2=l2, l3=l3,
                          alpha=self.alpha, eps0=self.eps0)
        return g, cert


@dataclass(frozen=True)
class SafetyConfig:
    kind: str = "none"             # parabola_interior | circular_obstacle | none
    kappa: float = 1.0
    ell: float = 0.1
    center: tuple = (0.0, 0.0)
    radius: float = 0.2

    @classmethod
    def from_dict(cls, d: dict) -> "SafetyConfig":
        _check_keys(d, cls, {"kind"}, "safety")
        if d["kind"] not in ("parabola_interior", "circular_obstacle", "none"):
            raise ConfigError(f"safety: unknown kind {d['kind']!r}")
        if "center" in d:
            d = dict(d)
            d["center"] = tuple(d["center"])
        return cls(**d)

    def build(self) -> SafetySpec | None:
        if self.kind == "none":
            return None
        if self.kind == "parabola_interior":
            return parabola_interior(kappa=self.kappa, ell=self.ell)
        return circular_obstacle(center=np.array(self.center), radius=self.radius,
                                 kappa=self.kappa, ell=self.ell)


def grid_points(halfwidth: float, per_axis: int, repel_center=None,
                repel_radius: float | None = None) -> np.ndarray:
    """Uniform square grid of extrapolation points.

    Points closer than repel_radius to repel_center are pushed radially out to
    that ring and clamped back into the square, so the point count is
    preserved while no point sits inside the repulsion disk interior.
    """
    axis = np.linspace(-halfwidth, halfwidth, per_axis)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    if repel_center is not None and repel_radius is not None:
        c = np.asarray(repel_center, float)
        d = np.linalg.norm(pts - c, axis=1)
        close = d < repel_radius
        safe_d = np.maximum(d[close], 1e-12)
        pts[close] = c + (pts[close] - c) / safe_d[:, None] * repel_radius
        pts = np.clip(pts, -halfwidth, halfwidth)
    return pts


@dataclass(frozen=True)
class PointsConfig:
    kind: str = "grid"
    halfwidth: float = 0.5
    per_axis: int = 10
    repel_center: tuple | None = None
    repel_radius: float | None = None
    values: tuple = ()

    @classmethod
    def from_dict(cls, d: dict) -> "PointsConfig":
        _check_keys(d, cls, {"kind"}, "learning.points")
        d = dict(d)
        if d.get("repel_center") is not None:
            d["repel_center"] = tuple(d["repel_center"])
        if "values" in d:
            d["values"] = tuple(tuple(v) for v in d["values"])
        if d["kind"] not in ("grid", "explicit"):
            raise ConfigError("learning.points.kind must be 'grid' or 'explicit'")
        return cls(**d)

    def build(self) -> np.ndarray:
        if self.kind == "explicit":
            return np.array(self.values, float)
        return grid_points(self.halfwidth, self.per_axis,
                           self.repel_center, self.repel_radius)


@dataclass(frozen=True)
class LearningSettings:
    k_c: float = 5.0
    gamma_c: float = 1.0
    beta: float = 0.01
    R_u: tuple = ((1.0,),)
    Q: tuple = ((1.0, 0.0), (0.0, 1.0))
    points: PointsConfig = field(default_factory=PointsConfig)
    point_envelope: str = "live"
    margin_floor: float = 1e-6

    @classmethod
    def from_dict(cls, d: dict) -> "LearningSettings":
        _check_keys(d, cls, {"k_c", "gamma_c", "beta", "R_u", "Q", "points"},
                    "learning")
        d = dict(d)
        d["R_u"] = tuple(tuple(r) for r in d["R_u"])
        d["Q"] = tuple(tuple(r) for r in d["Q"])
        d["points"] = PointsConfig.from_dict(d["points"])
        return cls(**d)

    def build(self, u_bar: float) -> LearningConfig:
        return LearningConfig(k_c=self.k_c, gamma_c=self.gamma_c, beta=self.beta,
                              u_bar=u_bar, R_u=np.array(self.R_u, float),
                              Q=np.array(self.Q, float),
                              points=self.points.build(),
                              point_envelope=self.point_envelope,
                              margin_floor=self.margin_floor)


@dataclass(frozen=True)
class SimSettings:
    dt: float = 1e-3
    T: float = 10.0
    x0: tuple = (0.0, 0.0)
    x_hat0: tuple = (0.0, 0.0)
    Wc0: tuple = (0.0,) * 6
    Gamma0: Any = "identity"
    controller_mode: str = "rlcbf"
    monitor_action: str = "warn"
    log_every: int = 1
    ultimate_bound_x: float | None = None
    ultimate_bound_err: float | None = None
    excitation_warn: float = 0.0

    @classmethod
    def from_dict(cls, d: dict) -> "SimSettings":
        _check_keys(d, cls, {"dt", "T", "x0", "x_hat0", "Wc0"}, "sim")
        d = dict(d)
        for key in ("x0", "x_hat0", "Wc0"):
            d[key] = tuple(d[key])
        if "Gamma0" in d and d["Gamma0"] != "identity":
            d["Gamma0"] = tuple(tuple(r) for r in d["Gamma0"])
        return cls(**d)

    def build(self, L: int, observer_enabled: bool) -> SimConfig:
        gamma0 = (np.eye(L) if self.Gamma0 == "identity"
                  else np.array(self.Gamma0, float))
        return SimConfig(dt=self.dt, T=self.T, x0=np.array(self.x0, float),
                         x_hat0=np.array(self.x_hat0, float),
                         Wc0=np.array(self.Wc0, float), Gamma0=gamma0,
                         controller_mode=self.controller_mode,
                         monitor_action=self.monitor_action,
                         observer_enabled=observer_enabled,
                         log_every=self.log_every,
                         ultimate_bound_x=self.ultimate_bound_x,
                         ultimate_bound_err=self.ultimate_bound_err,
                         excitation_warn=self.excitation_warn)


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    observer: ObserverConfig
    safety: SafetyConfig
    learning: LearningSettings
    sim: SimSettings

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        _check_keys(d, cls, {"model", "observer", "safety", "learning", "sim"},
                    "config")
        return cls(model=ModelConfig.from_dict(d["model"]),
                   observer=ObserverConfig.from_dict(d["observer"]),
                   safety=SafetyConfig.from_dict(d["safety"]),
                   learning=LearningSettings.from_dict(d["learning"]),
                   sim=SimSettings.from_dict(d["sim"]))

    def to_dict(self) -> dict:
        return asdict(self)

    def replace_sim(self, **kw) -> "RunConfig":
        return replace(self, sim=replace(self.sim, **kw))


def load_config(path) -> RunConfig:
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)


def build_problem(config: RunConfig):
    """Assemble the closed-loop problem.  Returns (problem, synth_certificate)."""
    model = config.model.build()
    gains, cert = config.observer.build(model)
    spec = config.safety.build()
    basis = quadratic_basis_2d()
    learn = config.learning.build(u_bar=model.u_bar)
    sim_cfg = config.sim.build(L=basis.L, observer_enabled=config.observer.enabled)
    problem = ControlProblem(model=model, gains=gains, basis=basis,
                             learn=learn, spec=spec, sim=sim_cfg)
    return problem, cert
