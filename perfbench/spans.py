"""Outside-in span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files: timing wrappers are
swapped into the ``safeadp`` module namespaces the callers look names up in,
and into the ``grad_phi``, ``h`` and ``grad_h`` closures that ``Basis`` and
``SafetySpec`` hold.  Nothing under ``src/`` changes.

Each span has a name, a start, an end and a parent (the span open when it
started).  Spans stay in memory, aggregated by (name, parent) as they close,
because a traced closed-loop iteration opens several hundred thousand of
them.  A span's self time is its duration minus the time its child spans
cover; the loop is single-threaded, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import sys
import time

# Layer metric groups: metric prefix -> span names that belong to it.
LAYERS = {
    "model": ("model.drift", "model.effectiveness", "model.augmented_drift",
              "model.augmented_effectiveness", "model.augmented_dynamics"),
    "observer": ("observer.observer_rhs", "observer.error_envelope"),
    "safety": ("safety.barrier_value_and_gradient", "safety.h",
               "safety.grad_h"),
    "critic.policy": ("critic.policy",),
    "critic.bellman": ("critic.bellman",),
    "critic.extrapolation": ("critic.extrapolation",),
    "critic.basis": ("critic.basis",),
    "critic.update": ("critic.critic_derivatives", "critic.excitation_level"),
    "sim": ("sim.run",),
    "config": ("config.preset", "config.from_dict", "config.load_config",
               "config.build_problem"),
    "cli.output": ("cli.output",),
    "lmi.verify": ("lmi.verify",),
    "lmi.synth": ("lmi.synth",),
}

# Calls the closed loop makes into the critic from sim (grad_phi is nested).
CRITIC_ENTRY = ("critic.policy", "critic.bellman", "critic.extrapolation",
                "critic.update")


class Tracer:
    """Stack of open spans plus the (name, parent) aggregate of closed ones."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []          # [name, start, child_time]
        self.table: dict[tuple, list] = {}   # (name, parent) -> [calls, total, self]
        self.counters: dict[str, float] = {}
        self._extrap_inputs: dict[tuple, object] = {}

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        name, start, child = self.stack.pop()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        key = (name, parent[0] if parent is not None else None)
        rec = self.table.get(key)
        if rec is None:
            self.table[key] = [1, duration, duration - child]
        else:
            rec[0] += 1
            rec[1] += duration
            rec[2] += duration - child

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def error(self, layer: str, exc: BaseException) -> None:
        """Count an exception once per layer it passes through."""
        seen = getattr(exc, "_perfbench_layers", None)
        if seen is None:
            seen = set()
            try:
                exc._perfbench_layers = seen
            except AttributeError:
                pass
        if layer not in seen:
            seen.add(layer)
            self.count(layer + ".errors")

    def rows(self) -> list[list]:
        self.counters["critic.extrap_distinct"] = len(self._extrap_inputs)
        return [[name, parent, *rec] for (name, parent), rec in
                sorted(self.table.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))]


def wrap(tracer: Tracer, name: str, fn, layer: str, before=None, after=None):
    """Return fn wrapped in a span; before/after observe arguments/results."""
    enter, exit_ = tracer.enter, tracer.exit

    def traced(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        enter(name)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            tracer.error(layer, exc)
            raise
        finally:
            exit_()
        if after is not None:
            after(out)
        return out

    traced.__wrapped__ = fn
    return traced


def swap(original, replacement) -> int:
    """Rebind every name in the loaded safeadp modules that refers to original."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "safeadp"
                               or mod_name.startswith("safeadp.")):
            continue
        names = [k for k, v in vars(mod).items() if v is original]
        for k in names:
            setattr(mod, k, replacement)
            n += 1
    return n


def _points(arr) -> int:
    shape = getattr(arr, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    n = 1
    for s in shape[:-1]:
        n *= int(s)
    return n


def install(tracer: Tracer) -> None:
    """Swap timing wrappers into every layer of the loaded safeadp package."""
    import safeadp.cli as cli
    import safeadp.config as config
    import safeadp.critic as critic
    import safeadp.lmi as lmi
    import safeadp.model as model
    import safeadp.observer as observer
    import safeadp.presets as presets
    import safeadp.safety as safety
    import safeadp.sim as sim

    def put(mod, attr, name, layer, before=None, after=None):
        fn = getattr(mod, attr)
        swap(fn, wrap(tracer, name, fn, layer, before, after))

    for attr in ("drift", "effectiveness", "augmented_drift",
                 "augmented_effectiveness", "augmented_dynamics"):
        put(model, attr, "model." + attr, "model")
    for attr in ("observer_rhs", "error_envelope"):
        put(observer, attr, "observer." + attr, "observer")

    def count_points(args, kwargs):
        zeta = args[1] if len(args) > 1 else kwargs.get("zeta")
        tracer.count("safety.points", _points(zeta))

    put(safety, "barrier_value_and_gradient",
        "safety.barrier_value_and_gradient", "safety", before=count_points)

    def count_h_points(args, kwargs):
        tracer.count("safety.points", _points(args[0]))

    def traced_spec(spec):
        if spec is None:
            return None
        return dataclasses.replace(
            spec,
            h=wrap(tracer, "safety.h", spec.h, "safety", before=count_h_points),
            grad_h=wrap(tracer, "safety.grad_h", spec.grad_h, "safety",
                        before=count_h_points))

    for factory in (safety.parabola_interior, safety.circular_obstacle):
        swap(factory, _returning(factory, traced_spec))

    def traced_basis(basis):
        return dataclasses.replace(
            basis, grad_phi=wrap(tracer, "critic.basis", basis.grad_phi,
                                 "critic"))

    swap(critic.quadratic_basis_2d,
         _returning(critic.quadratic_basis_2d, traced_basis))

    def extrap_input(args, kwargs):
        # The W-independent point set is fixed by the learning config and the
        # envelope value after the point_envelope rule.
        cfg, env = args[4], args[5]
        value = env if cfg.point_envelope == "live" else 0.0
        tracer._extrap_inputs.setdefault((id(cfg), float(value).hex()), cfg)

    put(critic, "saturated_policy", "critic.policy", "critic")
    put(critic, "bellman_error", "critic.bellman", "critic")
    put(critic, "extrapolation_terms", "critic.extrapolation", "critic",
        before=extrap_input)
    put(critic, "critic_derivatives", "critic.critic_derivatives", "critic")
    put(critic, "excitation_level", "critic.excitation_level", "critic")

    put(sim, "run", "sim.run", "sim")
    put(presets, "preset", "config.preset", "config")
    put(config, "load_config", "config.load_config", "config")
    put(config, "build_problem", "config.build_problem", "config")

    def feasible(cert):
        tracer.count("lmi.feasible", 1 if cert.feasible else 0)

    put(lmi, "verify_gains", "lmi.verify", "lmi", after=feasible)
    put(lmi, "synthesize_gains", "lmi.synth", "lmi")
    assemble = lmi.assemble_lmi_matrix

    def counted_assemble(*args, **kwargs):
        tracer.count("lmi.matrices")
        return assemble(*args, **kwargs)

    swap(assemble, counted_assemble)

    sim.TrajectoryLog.to_csv = wrap(tracer, "cli.output",
                                    sim.TrajectoryLog.to_csv, "cli")
    put(cli, "_write_plotdata", "cli.output", "cli")
    cli.Path = _traced_path_class(tracer, cli.Path)


def _returning(factory, transform):
    def wrapped(*args, **kwargs):
        return transform(factory(*args, **kwargs))
    wrapped.__wrapped__ = factory
    return wrapped


def _traced_path_class(tracer: Tracer, path_cls):
    """Path subclass whose write_text is a cli.output span."""

    class TracedPath(type(path_cls())):
        def write_text(self, *args, **kwargs):
            tracer.enter("cli.output")
            try:
                return super().write_text(*args, **kwargs)
            finally:
                tracer.exit()

    return TracedPath


def layer_metrics(rows, counters: dict, steps: int) -> dict:
    """Per-layer metric values of one traced iteration.

    rows are [name, parent, calls, total_s, self_s] aggregates; counters hold
    the point, matrix, feasibility, error and distinct-input counts.
    """
    calls = {g: 0 for g in LAYERS}
    self_s = {g: 0.0 for g in LAYERS}
    group_of = {name: g for g, names in LAYERS.items() for name in names}
    for name, _parent, n, _total, own in rows:
        g = group_of.get(name)
        if g is not None:
            calls[g] += n
            self_s[g] += own
    c = counters
    entry = sum(calls[g] for g in CRITIC_ENTRY)
    out = {}
    for g in ("model", "observer", "safety"):
        out[g + ".calls"] = calls[g]
        out[g + ".self_s"] = self_s[g]
        out[g + ".errors"] = c.get(g + ".errors", 0)
    out["observer.rhs_calls"] = sum(r[2] for r in rows
                                    if r[0] == "observer.observer_rhs")
    out["safety.points_per_call"] = (c.get("safety.points", 0) / calls["safety"]
                                     if calls["safety"] else 0.0)
    for g in ("critic.policy", "critic.bellman", "critic.extrapolation",
              "critic.basis", "critic.update"):
        out[g + ".calls"] = calls[g]
        out[g + ".self_s"] = self_s[g]
    out["critic.calls_per_step"] = entry / steps if steps else 0.0
    extrap = calls["critic.extrapolation"]
    out["critic.extrap_distinct_frac"] = (c.get("critic.extrap_distinct", 0)
                                          / extrap if extrap else 0.0)
    out["sim.steps"] = steps
    out["sim.self_s"] = self_s["sim"]
    out["config.calls"] = calls["config"]
    out["config.self_s"] = self_s["config"]
    out["cli.output.self_s"] = self_s["cli.output"]
    out["cli.output_bytes"] = c.get("cli.output_bytes", 0)
    for g in ("lmi.verify", "lmi.synth"):
        out[g + ".calls"] = calls[g]
        out[g + ".self_s"] = self_s[g]
    out["lmi.matrices"] = c.get("lmi.matrices", 0)
    verify = calls["lmi.verify"]
    out["lmi.feasible_frac"] = (c.get("lmi.feasible", 0) / verify
                                if verify else 0.0)
    return out
