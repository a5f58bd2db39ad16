"""Run configuration: strict schema, JSON ingestion, problem assembly.

A run is described by one JSON document with five sections (model, observer,
safety, learning, sim), each a dataclass whose fields are its keys; unknown
and missing keys are rejected before any computation.  Observer gains are
either explicit matrices or the string "synthesize", in which case the gain
search runs at build time and its certificate is attached.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import (MISSING, asdict, dataclass, field, fields,
                         is_dataclass, replace)
from functools import cache
from typing import get_args, get_type_hints

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


_field_types = cache(get_type_hints)


def _tuples(value):
    """value with every JSON list in it turned into a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _parse(cls, obj, ctx: str):
    """The dataclass cls from the JSON object obj, named ctx in errors ("" is
    the whole document).  Its fields are the allowed keys, those without a
    default the required ones; an object under a dataclass-typed field is
    parsed into it, lists become tuples, and cls checks the values."""
    where = ctx or "config"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    keys = {f.name: f for f in fields(cls)}
    required = {name for name, f in keys.items()
                if f.default is MISSING and f.default_factory is MISSING}
    for problem, names in (("unknown", set(obj) - set(keys)),
                           ("missing", required - set(obj))):
        if names:
            raise ConfigError(f"{where}: {problem} keys {sorted(names)}")
    types, kwargs = _field_types(cls), {}
    for name in (name for name in keys if name in obj):
        value, hint = obj[name], types[name]
        nested = next((t for t in (hint, *get_args(hint)) if is_dataclass(t)),
                      None)
        if nested is not None and (hint is nested or isinstance(value, dict)):
            kwargs[name] = _parse(nested, value, f"{ctx}.{name}".lstrip("."))
        else:
            kwargs[name] = _tuples(value)
    with _invalid(where):
        return cls(**kwargs)


@dataclass(frozen=True)
class ModelConfig:
    name: str
    u_bar: float = 10.0
    box_halfwidth: float = 3.0

    def __post_init__(self):
        if self.name not in MODEL_REGISTRY:
            raise ValueError(f"unknown model {self.name!r}; "
                             f"known: {sorted(MODEL_REGISTRY)}")

    def build(self) -> SystemModel:
        with _invalid("model"):
            return MODEL_REGISTRY[self.name](u_bar=self.u_bar,
                                             box_halfwidth=self.box_halfwidth)


@dataclass(frozen=True)
class GainsConfig:
    P: tuple
    l1: tuple
    l2: tuple
    l3: tuple


@dataclass(frozen=True)
class ObserverConfig:
    alpha: float
    eps0: float
    gains: GainsConfig | str       # explicit matrices, or "synthesize"
    enabled: bool = True
    synthesis: dict = field(default_factory=dict)  # SearchParams and "mode"

    def __post_init__(self):
        if not (isinstance(self.gains, GainsConfig)
                or self.gains == "synthesize"):
            raise ValueError("gains must be a matrix dict or 'synthesize'")
        allowed = {f.name for f in fields(lmi.SearchParams)} | {"mode"}
        if not (isinstance(self.synthesis, dict)
                and set(self.synthesis) <= allowed):
            raise ValueError(f"synthesis takes only {sorted(allowed)}")

    def build(self, model: SystemModel):
        """Returns (ObserverGains, certificate-or-None)."""
        with _invalid("observer"):
            if isinstance(self.gains, GainsConfig):
                return ObserverGains(**asdict(self.gains), alpha=self.alpha,
                                     eps0=self.eps0), None
            problem = lmi.LmiProblem.from_model(model, self.alpha)
            synth = dict(self.synthesis)
            mode = synth.pop("mode", "theta_identity")
            P, l1, l2, l3, cert = lmi.synthesize_gains(
                problem, search=lmi.SearchParams(**synth), mode=mode)
            return ObserverGains(P=P, l1=l1, l2=l2, l3=l3, alpha=self.alpha,
                                 eps0=self.eps0), cert


@dataclass(frozen=True)
class SafetyConfig:
    kind: str
    kappa: float = 1.0
    ell: float = 0.1
    center: tuple = (0.0, 0.0)
    radius: float = 0.2

    def __post_init__(self):
        if self.kind not in ("parabola_interior", "circular_obstacle", "none"):
            raise ValueError(f"unknown kind {self.kind!r}")

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
    kind: str                      # grid | explicit
    halfwidth: float = 0.5
    per_axis: int = 10
    repel_center: tuple | None = None
    repel_radius: float | None = None
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("grid", "explicit"):
            raise ValueError("kind must be 'grid' or 'explicit'")

    def build(self) -> np.ndarray:
        if self.kind == "explicit":
            return np.array(self.values, float)
        return grid_points(self.halfwidth, self.per_axis,
                           self.repel_center, self.repel_radius)


@dataclass(frozen=True)
class LearningSettings:
    k_c: float
    gamma_c: float
    beta: float
    R_u: tuple
    Q: tuple
    points: PointsConfig
    point_envelope: str = "live"
    margin_floor: float = 1e-6

    def build(self, u_bar: float) -> LearningConfig:
        """The fields are LearningConfig's, with the points built."""
        with _invalid("learning"):
            return LearningConfig(**{**vars(self), "points": self.points.build(),
                                     "u_bar": u_bar})


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    observer: ObserverConfig
    safety: SafetyConfig
    learning: LearningSettings
    sim: SimConfig

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return _parse(cls, d, "")

    def to_dict(self) -> dict:
        return asdict(self)

    def replace_sim(self, **kw) -> "RunConfig":
        with _invalid("sim"):
            return replace(self, sim=replace(self.sim, **kw))


def _nonfinite(name: str):
    raise ConfigError(f"config: {name} is not a finite number")


def load_config(path) -> RunConfig:
    """The run config in the JSON file at path; NaN, Infinity and -Infinity,
    which Python's json accepts, are rejected wherever they appear."""
    with open(path) as f:
        try:
            raw = json.load(f, parse_constant=_nonfinite)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)


def _check_shapes(config: RunConfig, model: SystemModel, L: int):
    """Reject, before any gain synthesis runs, a vector or matrix that does
    not fit the plant (n states, m inputs, q outputs) or the basis (L
    weights).  The injection gains l1, l2, l3 are read as n rows of q, so
    only their size is checked: an int want is a size, a tuple a shape."""
    n, m, q = model.n, model.m, model.q
    sim, learning, gains = config.sim, config.learning, config.observer.gains
    with _invalid("learning.points"):
        points = learning.points.build()
    gamma0 = np.eye(L) if isinstance(sim.Gamma0, str) else sim.Gamma0
    checks = [("sim.x0", sim.x0, (n,)), ("sim.x_hat0", sim.x_hat0, (n,)),
              ("sim.Wc0", sim.Wc0, (L,)), ("sim.Gamma0", gamma0, (L, L)),
              ("learning.R_u", learning.R_u, (m, m)),
              ("learning.Q", learning.Q, (n, n)),
              ("learning.points", points, (*np.shape(points)[:1], n))]
    if isinstance(gains, GainsConfig):
        checks += [("observer.gains.P", gains.P, (n, n)),
                   *((f"observer.gains.{key}", getattr(gains, key), n * q)
                     for key in ("l1", "l2", "l3"))]
    for key, value, want in checks:
        with _invalid(key):
            array = np.asarray(value, float)
        what = "size" if isinstance(want, int) else "shape"
        if getattr(array, what) != want:
            raise ConfigError(f"{key}: {what} {getattr(array, what)}, "
                              f"expected {want}")


def build_problem(config: RunConfig):
    """Assemble the closed-loop problem.  Returns (problem, synth_certificate)."""
    model = config.model.build()
    basis = quadratic_basis_2d()
    _check_shapes(config, model, basis.L)
    gains, cert = config.observer.build(model)
    spec = config.safety.build()
    learn = config.learning.build(u_bar=model.u_bar)
    problem = ControlProblem(model=model, gains=gains, basis=basis,
                             learn=learn, spec=spec, sim=config.sim,
                             observer_enabled=config.observer.enabled)
    return problem, cert
