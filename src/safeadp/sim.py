"""Deterministic fixed-step closed-loop integration with monitors and logging.

One run couples the plant, the projection observer, and the critic update
laws in a single RK4-integrated state (x, x_hat, weights, gain matrix).  The
error envelope is evaluated in closed form at stage times, and the control is
recomputed at every RK4 stage from the stage estimate.  Identical configs
produce bit-identical logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .critic import (CONTROLLER_MODES, Basis, CriticEvaluator,
                     LearningConfig, critic_derivatives, excitation_level)
from .model import ModelEvaluationError, SystemModel, drift, effectiveness
from .observer import (ObserverEvaluationError, ObserverGains, error_envelope,
                       observer_rhs)
from .safety import BarrierDomainError, SafetySpec

EPS0_SLACK = 1.02   # relative slack on the initial-error bound check
GAIN_FLOOR = 1e-8   # smallest eigenvalue the critic gain matrix may reach
# The floating-point rule of the step loop and of the config build: an
# overflow, invalid operation or division by zero raises FloatingPointError;
# underflow, which the log-cosh cost meets, does not.
FP_RAISE = {"over": "raise", "invalid": "raise", "divide": "raise"}


@dataclass(frozen=True)
class SimConfig:
    """The `sim` section of a run; its fields are the JSON keys.  Vectors
    are kept as given and `run` converts them; Gamma0 is a matrix or
    "identity" (the identity of the weight size)."""

    dt: float
    T: float
    x0: Any
    x_hat0: Any
    Wc0: Any
    Gamma0: Any = "identity"
    controller_mode: str = "rlcbf"
    monitor_action: str = "warn"
    log_every: int = 1
    ultimate_bound_x: float | None = None
    ultimate_bound_err: float | None = None
    excitation_warn: float = 0.0

    def __post_init__(self):
        if (self.Gamma0 != "identity" if isinstance(self.Gamma0, str)
                else not np.isfinite(np.asarray(self.Gamma0, float)).all()):
            raise ValueError("Gamma0 must be 'identity' or a finite matrix")
        for name in ("x0", "x_hat0", "Wc0"):
            if not np.isfinite(np.asarray(getattr(self, name), float)).all():
                raise ValueError(f"{name} must be finite")
        # written so that NaN fails them
        if not 0 < self.dt < float("inf"):
            raise ValueError("dt must be positive and finite")
        if not 0 <= self.T < float("inf"):
            raise ValueError("horizon must be nonnegative and finite")
        if self.T > 0 and self.T <= self.dt:
            raise ValueError("horizon must exceed the step size")
        if not self.T / self.dt < float("inf"):
            raise ValueError("the step count T / dt must be finite")
        if self.controller_mode not in CONTROLLER_MODES:
            raise ValueError(f"unknown controller mode {self.controller_mode!r}")
        if self.monitor_action not in ("warn", "abort"):
            raise ValueError("monitor_action must be 'warn' or 'abort'")
        if not (isinstance(self.log_every, (int, np.integer))
                and self.log_every >= 1):
            raise ValueError("log_every must be an integer >= 1")
        # +-inf never or always warns
        if not -np.inf <= self.excitation_warn <= np.inf:
            raise ValueError("excitation_warn must not be NaN")
        for name in ("ultimate_bound_x", "ultimate_bound_err"):
            bound = getattr(self, name)
            if bound is not None and not bound >= 0:
                raise ValueError(f"{name} must be None or >= 0")


@dataclass(frozen=True)
class ControlProblem:
    """Everything a closed-loop run needs."""

    model: SystemModel
    gains: ObserverGains
    basis: Basis
    learn: LearningConfig
    spec: SafetySpec | None
    sim: SimConfig
    observer_enabled: bool = True


class TrajectoryLog:
    """Fixed-schema per-step record of a run."""

    # attribute -> CSV column, in column order.  The vector fields x, x_hat, u
    # and weights take one numbered column per component: x1, x2, ...
    FIELDS = {"t": "t", "x": "x", "x_hat": "xhat", "envelope": "envelope",
              "u": "u", "weights": "w", "delta": "bellman_error", "h": "h",
              "h_robust": "h_robust", "err": "err_norm",
              "gain_min": "gain_eig_min", "gain_max": "gain_eig_max",
              "gain_asym": "gain_asym", "excitation": "excitation"}

    def __init__(self, n: int, m: int, L: int, capacity: int):
        self._width = {"x": n, "x_hat": n, "u": m, "weights": L}
        for attr in self.FIELDS:
            width = self._width.get(attr)
            setattr(self, attr, np.zeros(capacity if width is None
                                         else (capacity, width)))
        self.size = 0

    def append(self, **kw):
        i = self.size
        for key, val in kw.items():
            getattr(self, key)[i] = val
        self.size += 1

    def truncate(self):
        for attr in self.FIELDS:
            setattr(self, attr, getattr(self, attr)[:self.size])

    def columns(self, attrs=None) -> list[str]:
        """CSV column names of the given fields (default: all of them)."""
        cols = []
        for attr in attrs or self.FIELDS:
            col, width = self.FIELDS[attr], self._width.get(attr)
            cols += [col] if width is None else [f"{col}{i+1}"
                                                 for i in range(width)]
        return cols

    def rows(self, attrs=None):
        """Logged rows of the given fields (default: all) as float lists."""
        cols = [getattr(self, attr)[:self.size].reshape(
                    self.size, self._width.get(attr, 1))
                for attr in attrs or self.FIELDS]
        for i in range(0, self.size, 256):  # a block at a time bounds memory
            for row in np.concatenate([c[i:i + 256] for c in cols], axis=1):
                yield row.tolist()

    def to_csv(self, path, attrs=None):
        with open(path, "w", newline="") as f:
            f.write(",".join(self.columns(attrs)) + "\n")
            for row in self.rows(attrs):
                f.write(",".join(map(repr, row)) + "\n")


@dataclass
class RunSummary:
    terminal_x: list
    terminal_x_hat: list
    terminal_weights: list
    terminal_err: float
    min_h: float
    min_h_robust: float
    max_err_envelope_ratio: float
    gain_eig_min: float
    gain_eig_max: float
    gain_asym_max: float
    excitation_min: float
    steps: int
    dt: float
    T: float
    controller_mode: str
    monitor_events: list = field(default_factory=list)
    abort_reason: str | None = None
    certificate_file: str | None = None
    safety: dict | None = None

    @property
    def ok(self) -> bool:
        return self.abort_reason is None

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def _floor_gain(G: np.ndarray):
    """Symmetrize, record the asymmetry drift, clip eigenvalues at GAIN_FLOOR.

    Returns (G, asym, eigenvalues of the returned G).  The eigenvectors are
    computed only when the floor clips.
    """
    asym = float(np.max(np.abs(G - G.T))) if G.size else 0.0
    G = 0.5 * (G + G.T)
    ev = np.linalg.eigvalsh(G)
    if ev[0] < GAIN_FLOOR:
        ev, V = np.linalg.eigh(G)
        G = (V * np.maximum(ev, GAIN_FLOOR)) @ V.T
        G = 0.5 * (G + G.T)
        ev = np.linalg.eigvalsh(G)
    return G, asym, ev


def _make_rhs(problem: ControlProblem, critic: CriticEvaluator):
    """Coupled right-hand side, with critic the problem's evaluator.

    rhs(tau, x, x_hat, W, G, with_delta) returns the four derivatives and
    (u, delta, S, envelope): the stage control, the Bellman error at the
    estimate (None unless asked), the normalized outer-product sum of the
    extrapolation regressors, and the envelope at tau.
    """
    model, gains, learn = problem.model, problem.gains, problem.learn
    observer_enabled = problem.observer_enabled

    def rhs(tau, x, xh, W, G, with_delta=False):
        env = error_envelope(gains, tau)
        u, delta, g_aug, f_aug = critic.at(np.concatenate([xh, [env]]), W,
                                           with_delta)
        if observer_enabled:
            x_dot = drift(model, x) + effectiveness(model, x) @ u
            y = model.C @ x
            xh_dot = observer_rhs(model, gains, xh, y, u)
        else:
            # x_hat is x bit for bit, so the critic has already evaluated
            # g(x), and f(x) too when it formed the Bellman error
            f_x = drift(model, x) if f_aug is None else f_aug[:-1]
            x_dot = xh_dot = f_x + g_aug[:-1] @ u
        omega, rho, delta_pts = critic.extrapolate(env, W)
        w_dot, g_dot, S = critic_derivatives(omega, rho, delta_pts, G, learn)
        return (x_dot, xh_dot, w_dot, g_dot), (u, delta, S, env)

    return rhs


class _Abort(Exception):
    """Ends a run; its message is the finished abort reason."""


def _stage(rhs, k: int, t: float, stage: int, tau: float, *args):
    """rhs(tau, *args) as RK4 stage `stage` of step k, which starts at t.  A
    barrier-domain, evaluation or floating-point error there ends the run."""
    try:
        return rhs(tau, *args)
    except BarrierDomainError as exc:
        kind = "barrier_domain" if stage == 1 else "integration_abort"
        raise _Abort(f"{kind}: {exc}") from exc
    except (ModelEvaluationError, ObserverEvaluationError,
            FloatingPointError) as exc:
        raise _Abort(f"evaluation_error at step {k}, t={t:.6g}, RK4 stage "
                     f"{stage}: {type(exc).__name__}: {exc}") from exc


def _rk4_step(rhs, dt: float, t: float, x, x_hat, weights, gain, k1, k: int):
    """Step k of (x, x_hat, weights, gain) from t, given the stage-1 slopes."""
    state = (x, x_hat, weights, gain)
    h = dt / 2.0
    k2, _ = _stage(rhs, k, t, 2, t + h, *(s + h * d for s, d in zip(state, k1)))
    k3, _ = _stage(rhs, k, t, 3, t + h, *(s + h * d for s, d in zip(state, k2)))
    k4, _ = _stage(rhs, k, t, 4, t + dt,
                   *(s + dt * d for s, d in zip(state, k3)))
    new = [s + dt / 6.0 * (a + 2 * b + 2 * c + d)
           for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
    # checked before the gain is decomposed, which a non-finite gain fails
    if not all(np.isfinite(v).all() for v in new):
        raise _Abort(f"integration_abort: integration diverged at t={t:.6g}")
    return (*new[:3], *_floor_gain(new[3]))


def _safety(log: TrajectoryLog) -> dict:
    """Time of the minimum of h, and first violation of h and of the robust
    margin, read off the logged rows.  The minima themselves are the
    summary's min_h and min_h_robust."""
    def first_negative(v):
        i = np.flatnonzero(v < 0)
        return float(log.t[i[0]]) if i.size else None

    breach = first_negative(log.h)
    return {"min_h_time": float(log.t[np.argmin(log.h)]),
            "first_violation_time": breach,
            "first_margin_violation_time": first_negative(log.h_robust),
            "violated": breach is not None}


def run(problem: ControlProblem) -> tuple[TrajectoryLog, RunSummary]:
    """Integrate to the horizon, returning the full log and a summary.

    Monitor violations are recorded as events; with monitor_action "abort"
    the run stops at the offending step.  A barrier-domain violation along
    the estimate trajectory always stops the run with a report.  With the
    observer off the estimate starts at the state and follows it exactly.
    """
    model, gains, basis = problem.model, problem.gains, problem.basis
    spec, cfg = problem.spec, problem.sim
    observer_enabled = problem.observer_enabled
    x0, x_hat0, W0 = (np.asarray(v, float)
                      for v in (cfg.x0, cfg.x_hat0, cfg.Wc0))
    gamma0 = (np.eye(len(W0)) if isinstance(cfg.Gamma0, str)
              else np.atleast_2d(np.asarray(cfg.Gamma0, float)))

    # monitor name -> its record; insertion order is first-hit order
    events: dict[str, dict] = {}
    stopping = (("error_envelope", "safety_h", "saturation")
                if cfg.monitor_action == "abort" else ())

    def emit(name: str, t: float, detail: str):
        """Record a monitor hit: first and last time, count and the first
        detail.  With monitor_action "abort" the in-loop safety monitors
        stop the run."""
        rec = events.setdefault(name, {"monitor": name, "first_t": float(t),
                                       "last_t": float(t), "count": 0,
                                       "detail": detail})
        rec["last_t"] = float(t)
        rec["count"] += 1
        if name in stopping:
            raise _Abort(f"monitor_abort at t={t:.6g}")

    with np.errstate(over="ignore"):    # a huge error is inf > eps0
        err0 = float(np.linalg.norm(x0 - x_hat0))
    if observer_enabled and err0 > gains.eps0:
        if err0 > gains.eps0 * EPS0_SLACK:
            raise ValueError(
                f"initial estimate error {err0:.6g} exceeds eps0={gains.eps0}")
        emit("initial_error_bound", 0.0,
             f"||x0-xhat0||={err0:.6g} > eps0={gains.eps0}")

    steps = int(round(cfg.T / cfg.dt)) if cfg.T > 0 else 0
    n_log = steps // cfg.log_every + 1
    log = TrajectoryLog(model.n, model.m, basis.L, n_log)

    x = x0.copy()
    xh = x_hat0.copy() if observer_enabled else x0.copy()
    W = W0.copy()
    G, _, gev = _floor_gain(gamma0)
    asym_last = 0.0
    abort_reason = None
    critic = CriticEvaluator(model, basis, spec, cfg.controller_mode,
                             problem.learn, gains.alpha)
    rhs = _make_rhs(problem, critic)

    # a FloatingPointError anywhere in a step ends the run
    try:
        with np.errstate(**FP_RAISE):
            for k in range(steps + 1):
                t = k * cfg.dt
                k1, (u, delta, S, env) = _stage(rhs, k, t, 1, t, x, xh, W, G,
                                                True)
                excite = excitation_level(S, len(critic.points))
                err = float(np.linalg.norm(x - xh))
                hx = float(spec.h(x)) if spec is not None else float("nan")
                hr = ((float(spec.h(xh)) - spec.ell * env) if spec is not None
                      else float("nan"))

                if k % cfg.log_every == 0:
                    log.append(t=t, x=x, x_hat=xh, envelope=env, u=u,
                               weights=W, delta=delta, h=hx, h_robust=hr,
                               err=err, gain_min=gev[0], gain_max=gev[-1],
                               gain_asym=asym_last, excitation=excite)

                if observer_enabled and err > env * (1.0 + 1e-9):
                    emit("error_envelope", t,
                         f"err={err:.6g} > envelope={env:.6g}")
                if spec is not None and hx < 0:
                    emit("safety_h", t, f"h(x)={hx:.6g} < 0")
                if np.any(np.abs(u) >= model.u_bar):
                    emit("saturation", t, f"|u|={np.max(np.abs(u)):.6g}")
                if excite < cfg.excitation_warn:
                    emit("excitation", t, f"excitation={excite:.3e}")  # warn-only
                if k < steps:
                    x, xh, W, G, asym_last, gev = _rk4_step(
                        rhs, cfg.dt, t, x, xh, W, G, k1, k)
    except _Abort as exc:
        abort_reason = str(exc)
    except FloatingPointError:
        abort_reason = f"integration_abort: integration diverged at t={t:.6g}"
    else:
        term_x = float(np.linalg.norm(x))
        if cfg.ultimate_bound_x is not None and term_x > cfg.ultimate_bound_x:
            emit("ultimate_bound_x", cfg.T,
                 f"|x(T)|={term_x:.6g} > {cfg.ultimate_bound_x}")
        term_e = float(np.linalg.norm(x - xh))
        if (cfg.ultimate_bound_err is not None
                and term_e > cfg.ultimate_bound_err):
            emit("ultimate_bound_err", cfg.T,
                 f"|err(T)|={term_e:.6g} > {cfg.ultimate_bound_err}")

    log.truncate()
    ratio = (log.err / np.maximum(log.envelope, 1e-300)) if log.size else np.array([0.0])
    summary = RunSummary(
        terminal_x=[float(v) for v in x],
        terminal_x_hat=[float(v) for v in xh],
        terminal_weights=[float(v) for v in W],
        terminal_err=float(np.linalg.norm(x - xh)),
        min_h=float(np.min(log.h)) if log.size else float("nan"),
        min_h_robust=float(np.min(log.h_robust)) if log.size else float("nan"),
        max_err_envelope_ratio=float(np.max(ratio)),
        gain_eig_min=float(np.min(log.gain_min)) if log.size else float("nan"),
        gain_eig_max=float(np.max(log.gain_max)) if log.size else float("nan"),
        gain_asym_max=float(np.max(log.gain_asym)) if log.size else float("nan"),
        excitation_min=float(np.min(log.excitation)) if log.size else float("nan"),
        steps=int(k),
        dt=cfg.dt, T=cfg.T, controller_mode=cfg.controller_mode,
        monitor_events=list(events.values()), abort_reason=abort_reason,
        safety=_safety(log) if spec is not None and log.size else None)
    return log, summary
