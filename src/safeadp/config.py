"""Run configuration: strict schema, JSON ingestion, problem assembly.

A run is described by one JSON document with five sections (model, observer,
safety, learning, sim).  Unknown keys are rejected before any computation.
Observer gains are either explicit matrices or the string "synthesize", in
which case the gain search runs at build time and its certificate is attached.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
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


@contextmanager
def _invalid(ctx: str):
    """Re-raise a ValueError or TypeError about a config value as a
    ConfigError naming its section."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


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
        with _invalid("model"):
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
                **{k: tuple(np.ravel(np.asarray(gains[k], float)).tolist())
                   for k in ("l1", "l2", "l3")}}
        elif gains != "synthesize":
            raise ConfigError("observer.gains must be a matrix dict or 'synthesize'")
        if "synthesis" in d:
            _check_keys(d["synthesis"], {"budget", "step", "seed", "tol", "mode"},
                        set(), "observer.synthesis")
        return cls(**d)

    def build(self, model: SystemModel):
        """Returns (ObserverGains, certificate-or-None)."""
        with _invalid("observer"):
            if isinstance(self.gains, dict):
                arrays = {k: np.array(v, float) for k, v in self.gains.items()}
                return ObserverGains(**arrays, alpha=self.alpha,
                                     eps0=self.eps0), None
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
        with _invalid("safety"):
            if self.kind == "parabola_interior":
                return parabola_interior(kappa=self.kappa, ell=self.ell)
            return circular_obstacle(center=np.array(self.center),
                                     radius=self.radius, kappa=self.kappa,
                                     ell=self.ell)


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
        with _invalid("learning"):
            return LearningConfig(k_c=self.k_c, gamma_c=self.gamma_c,
                                  beta=self.beta, u_bar=u_bar,
                                  R_u=np.array(self.R_u, float),
                                  Q=np.array(self.Q, float),
                                  points=self.points.build(),
                                  point_envelope=self.point_envelope,
                                  margin_floor=self.margin_floor)


def _sim_from_dict(d: dict) -> SimConfig:
    _check_keys(d, SimConfig, {"dt", "T", "x0", "x_hat0", "Wc0"}, "sim")
    d = dict(d)
    for key in ("x0", "x_hat0", "Wc0"):
        d[key] = tuple(d[key])
    if not isinstance(d.get("Gamma0", "identity"), str):
        d["Gamma0"] = tuple(tuple(r) for r in d["Gamma0"])
    return SimConfig(**d)


_SECTIONS = {"model": ModelConfig.from_dict,
             "observer": ObserverConfig.from_dict,
             "safety": SafetyConfig.from_dict,
             "learning": LearningSettings.from_dict,
             "sim": _sim_from_dict}


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    observer: ObserverConfig
    safety: SafetyConfig
    learning: LearningSettings
    sim: SimConfig

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        with _invalid("config"):
            _check_keys(d, cls, set(_SECTIONS), "config")
        parts = {}
        for name, parse in _SECTIONS.items():
            with _invalid(name):
                parts[name] = parse(d[name])
        return cls(**parts)

    def to_dict(self) -> dict:
        return asdict(self)

    def replace_sim(self, **kw) -> "RunConfig":
        with _invalid("sim"):
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
    problem = ControlProblem(model=model, gains=gains, basis=basis,
                             learn=learn, spec=spec, sim=config.sim,
                             observer_enabled=config.observer.enabled)
    return problem, cert
