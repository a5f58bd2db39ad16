import dataclasses
import json
import re

import numpy as np
import pytest

from safeadp.cli import main
from safeadp.config import (ConfigError, RunConfig, build_problem, grid_points,
                            load_config)
from safeadp.model import MODEL_REGISTRY, vamvoudakis2d
from safeadp.presets import PRESET_NAMES, preset


def test_presets_are_pure_data():
    for name in PRESET_NAMES:
        assert preset(name) == preset(name)
        assert preset(name).to_dict() == preset(name).to_dict()


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        preset("study3")


def test_mode_variants_differ_only_in_controller_mode():
    base = preset("study1").to_dict()
    variant = preset("study1_nocbf").to_dict()
    assert variant["sim"]["controller_mode"] == "none"
    variant["sim"]["controller_mode"] = base["sim"]["controller_mode"]
    assert base == variant
    lcbf = preset("study2_lcbf").to_dict()
    assert lcbf["sim"]["controller_mode"] == "lcbf"


def test_study1_preset_values():
    cfg = preset("study1")
    assert cfg.safety.kappa == 0.01
    assert cfg.safety.ell == 0.1
    assert cfg.observer.eps0 == 2.5
    assert cfg.observer.alpha == 2.0
    assert cfg.sim.x0 == (-3.0, 1.5)
    assert cfg.sim.x_hat0 == (-1.5, 1.0)
    assert cfg.sim.Wc0 == (0.5, 1.0, 0.8, 0.1, 0.1, 0.1)
    assert cfg.sim.Gamma0 == "identity"
    assert cfg.model.u_bar == 10.0
    assert cfg.learning.k_c == 5.0
    assert cfg.learning.beta == 0.01


def test_study2_preset_values():
    cfg = preset("study2")
    assert cfg.safety.kind == "circular_obstacle"
    assert cfg.safety.center == (-0.5, 0.6)
    assert cfg.safety.radius == 0.2
    assert cfg.safety.kappa == 2.5
    assert cfg.safety.ell == 0.15
    assert cfg.observer.eps0 == 0.7
    assert cfg.sim.x0 == (-1.0, 1.0)
    assert cfg.sim.x_hat0 == (-1.5, 1.5)


def test_oracle_preset_values():
    cfg = preset("lq_oracle")
    assert cfg.model.u_bar == 100.0
    assert not cfg.observer.enabled
    assert cfg.safety.kind == "none"
    assert cfg.sim.controller_mode == "none"


def test_grid_points_repulsion():
    pts = grid_points(1.0, 10, repel_center=[-0.5, 0.6], repel_radius=0.5)
    assert pts.shape == (100, 2)
    d = np.linalg.norm(pts - np.array([-0.5, 0.6]), axis=1)
    # the box clamp can pull ring points slightly back inside, but never into
    # the obstacle itself
    assert d.min() >= 0.4
    assert np.all(np.abs(pts) <= 1.0)


def test_config_roundtrip():
    for name in PRESET_NAMES:
        cfg = preset(name)
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg


def test_unknown_keys_rejected():
    raw = preset("study1").to_dict()
    raw["model"]["typo_key"] = 1
    with pytest.raises(ConfigError):
        RunConfig.from_dict(raw)
    raw = preset("study1").to_dict()
    raw["extra_section"] = {}
    with pytest.raises(ConfigError):
        RunConfig.from_dict(raw)


# The schema, written out: the keys each object of a run config requires and
# those it may omit ("" is the whole document).
REQUIRED_KEYS = {
    "": {"model", "observer", "safety", "learning", "sim"},
    "model": {"name"},
    "observer": {"alpha", "eps0", "gains"},
    "observer.gains": {"P", "l1", "l2", "l3"},
    "safety": {"kind"},
    "learning": {"k_c", "gamma_c", "beta", "R_u", "Q", "points"},
    "learning.points": {"kind"},
    "sim": {"dt", "T", "x0", "x_hat0", "Wc0"},
}
OPTIONAL_KEYS = {
    "": set(),
    "model": {"u_bar", "box_halfwidth"},
    "observer": {"enabled", "synthesis"},
    "observer.gains": set(),
    "safety": {"kappa", "ell", "center", "radius"},
    "learning": {"point_envelope", "margin_floor"},
    "learning.points": {"halfwidth", "per_axis", "repel_center",
                        "repel_radius", "values"},
    "sim": {"Gamma0", "controller_mode", "monitor_action", "log_every",
            "ultimate_bound_x", "ultimate_bound_err", "excitation_warn"},
}


def _object(raw: dict, path: str) -> dict:
    for name in filter(None, path.split(".")):
        raw = raw[name]
    return raw


def _keys(table):
    return [(path, key) for path in table for key in sorted(table[path])]


def test_schema_tables_cover_every_key():
    raw = preset("study1").to_dict()
    for path in REQUIRED_KEYS:
        assert set(_object(raw, path)) == (REQUIRED_KEYS[path]
                                           | OPTIONAL_KEYS[path])


@pytest.mark.parametrize("path, key", _keys(REQUIRED_KEYS),
                         ids=[f"{p}.{k}".lstrip(".")
                              for p, k in _keys(REQUIRED_KEYS)])
def test_missing_keys_rejected(path, key):
    raw = preset("study1").to_dict()
    del _object(raw, path)[key]
    message = f"{path or 'config'}: missing keys ['{key}']"
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunConfig.from_dict(raw)


@pytest.mark.parametrize("path, key", _keys(OPTIONAL_KEYS),
                         ids=[f"{p}.{k}" for p, k in _keys(OPTIONAL_KEYS)])
def test_optional_keys_may_be_omitted(path, key):
    raw = preset("study1").to_dict()
    del _object(raw, path)[key]
    RunConfig.from_dict(raw)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(preset("study1").to_dict()))
    cfg = load_config(path)
    assert cfg == preset("study1")
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


# ---------------------------------------------------------------- CLI

def test_cli_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == list(PRESET_NAMES)


def test_cli_presets_dump(capsys):
    assert main(["presets", "--name", "study2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["safety"]["radius"] == 0.2


def test_cli_presets_unknown_name_is_a_config_error(capsys):
    assert main(["presets", "--name", "bogus"]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "config_error",
                       "reason": "unknown preset 'bogus'; known: "
                                 + ", ".join(PRESET_NAMES)}


def test_cli_internal_key_error_is_not_a_config_error(tmp_path, monkeypatch):
    def lookup_fails(config):
        raise KeyError("internal")

    monkeypatch.setattr("safeadp.cli.build_problem", lookup_fails)
    with pytest.raises(KeyError, match="internal"):
        main(["verify-lmi", "--preset", "study1", "--out", str(tmp_path)])


def test_cli_run_artifacts(tmp_path, capsys):
    out = tmp_path / "runout"
    code = main(["run", "--preset", "study1", "--out", str(out),
                 "--dt", "0.005", "--horizon", "0.1"])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "certificate.json").exists()
    for name in ("state_space.csv", "weights.csv", "control.csv"):
        assert (out / "plotdata" / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["abort_reason"] is None
    assert summary["controller_mode"] == "rlcbf"
    assert summary["safety"]["min_h"] > 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.split(",")[:6] == ["t", "x1", "x2", "xhat1", "xhat2",
                                     "envelope"]
    cert = json.loads((out / "certificate.json").read_text())
    assert set(cert) >= {"theta_identity", "all_vertices"}


def test_cli_invalid_config_exits_without_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    raw = preset("study1").to_dict()
    raw["learning"]["unknown_gain"] = 3.0
    bad.write_text(json.dumps(raw))
    out = tmp_path / "never"
    code = main(["run", "--config", str(bad), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config_error" in err


def test_cli_requires_config_or_preset(capsys):
    assert main(["run", "--out", "/tmp/nope"]) == 2
    assert main(["run", "--preset", "study1", "--config", "x.json",
                 "--out", "/tmp/nope"]) == 2
    assert main(["run", "--preset", "studyX", "--out", "/tmp/nope"]) == 2


def test_cli_verify_lmi(tmp_path, capsys):
    out = tmp_path / "cert"
    code = main(["verify-lmi", "--preset", "study1", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "theta_identity" in text and "all_vertices" in text
    cert = json.loads((out / "certificate.json").read_text())
    assert np.isfinite(cert["theta_identity"]["max_eigenvalue"])


def test_cli_synthesize_writes_result(tmp_path, capsys):
    out = tmp_path / "synth"
    code = main(["synthesize", "--preset", "study1", "--out", str(out),
                 "--budget", "30"])
    payload = json.loads((out / "synthesis.json").read_text())
    assert "gains" in payload and "certificate" in payload
    # the study bound gaps are too wide for feasibility; the verdict is an
    # honest infeasible certificate, reported through the exit code
    assert code == 1
    assert payload["certificate"]["feasible"] is False


def test_cli_audit_bounds(tmp_path, capsys):
    out = tmp_path / "audit"
    code = main(["audit-bounds", "--preset", "study1", "--out", str(out),
                 "--grid", "15"])
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["ok"] is True
    assert "lipschitz" in report
    assert not report["lipschitz"]["ok"]
    assert "warning" in captured.err
    assert (out / "bounds_audit.json").exists()


def test_cli_audit_bounds_writes_no_file_without_out(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["audit-bounds", "--preset", "study1", "--grid", "5"]) == 0
    assert list(tmp_path.iterdir()) == []


def _synthesis_config(tmp_path, **synthesis) -> str:
    raw = preset("study1").to_dict()
    raw["observer"].update(gains="synthesize", synthesis=synthesis)
    path = tmp_path / f"seed{synthesis['seed']}.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _synthesized_certificate(out, cfg_file, *flags) -> dict:
    # a 20-candidate search stays infeasible on study1: exit 1
    assert main(["synthesize", "--config", cfg_file, *flags,
                 "--out", str(out)]) == 1
    return json.loads((out / "synthesis.json").read_text())["certificate"]


def test_cli_synthesize_reads_observer_synthesis_like_run(tmp_path, capsys):
    cfg_file = _synthesis_config(tmp_path, budget=20, seed=3)
    out = tmp_path / "run"
    # the infeasible gains abort the run at once; it still writes certificates
    assert main(["run", "--config", cfg_file, "--horizon", "0.01",
                 "--out", str(out)]) == 1
    run_cert = json.loads((out / "certificate.json").read_text())["synthesis"]
    assert _synthesized_certificate(tmp_path / "a", cfg_file) == run_cert
    # a passed flag overrides the config's key of the same name
    seed5 = _synthesized_certificate(
        tmp_path / "b", _synthesis_config(tmp_path, budget=20, seed=5))
    assert seed5 != run_cert
    assert _synthesized_certificate(tmp_path / "c", cfg_file,
                                    "--seed", "5") == seed5


# a flag the subcommand does not read is refused by argparse
@pytest.mark.parametrize("argv", [
    ["verify-lmi", "--dt", "0.01"],
    ["synthesize", "--horizon", "0.01", "--budget", "5"],
    ["audit-bounds", "--monitor", "warn", "--grid", "5"],
    ["run", "--seed", "1", "--horizon", "0.01"],
], ids=lambda argv: " ".join(argv[:2]))
def test_cli_unread_flag_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--preset", "study1", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_cli_run_abort_is_machine_readable(tmp_path, capsys):
    # estimate starting outside the robustified safe set aborts with a report
    raw = preset("study1").to_dict()
    raw["sim"]["x0"] = [0.5, 0.0]
    raw["sim"]["x_hat0"] = [0.95, 0.0]
    raw["sim"]["T"] = 0.5
    cfg_file = tmp_path / "abort.json"
    cfg_file.write_text(json.dumps(raw))
    out = tmp_path / "aborted"
    code = main(["run", "--config", str(cfg_file), "--out", str(out)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "run_aborted"
    assert "barrier_domain" in payload["reason"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["abort_reason"].startswith("barrier_domain")


def test_cli_run_initial_error_beyond_slack(tmp_path, capsys):
    raw = preset("study1").to_dict()
    raw["sim"]["x_hat0"] = [3.0, 1.5]      # error 6, eps0 2.5
    cfg_file = tmp_path / "badinit.json"
    cfg_file.write_text(json.dumps(raw))
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg_file), "--out", str(out)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "run_error"
    # the certificates are computed before the run but written only after it
    assert not out.exists()


def test_cli_run_oversized_log_is_a_run_error(tmp_path, capsys):
    # 1e17 steps: the preallocated log needs more memory than any address
    # space holds, so numpy refuses it at once on every machine
    out = tmp_path / "o"
    code = main(["run", "--preset", "study1", "--horizon", "1e14",
                 "--out", str(out)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "run_error"
    assert not out.exists()


def test_cli_run_nonfinite_plant_is_machine_readable(tmp_path, capsys,
                                                     monkeypatch):
    # a registered plant whose drift turns NaN where x1 > 1.1, which the
    # oracle run from x0 = (0.9, 2.5) crosses near t = 0.2
    def nan_beyond(u_bar, box_halfwidth):
        base = vamvoudakis2d(u_bar=u_bar, box_halfwidth=box_halfwidth)

        def f(x):
            x = np.asarray(x, float)
            return np.where(x[..., :1] > 1.1, np.nan, base.f(x))

        return dataclasses.replace(base, f=f, name="nan_beyond")

    monkeypatch.setitem(MODEL_REGISTRY, "nan_beyond", nan_beyond)
    raw = preset("lq_oracle").to_dict()
    raw["model"]["name"] = "nan_beyond"
    raw["sim"].update(x0=[0.9, 2.5], x_hat0=[0.9, 2.5], T=0.5)
    cfg_file = tmp_path / "nan.json"
    cfg_file.write_text(json.dumps(raw))
    out = tmp_path / "nan"
    code = main(["run", "--config", str(cfg_file), "--out", str(out)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "run_aborted"
    assert payload["reason"].startswith("evaluation_error at step ")
    assert "RK4 stage" in payload["reason"]
    assert "ModelEvaluationError" in payload["reason"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["abort_reason"] == payload["reason"]


def _fail_if_called(*args, **kwargs):
    raise AssertionError("the closed loop was started")


@pytest.mark.parametrize("out_under_file", [False, True],
                         ids=["out_is_a_file", "out_under_a_file"])
def test_cli_run_unwritable_out_fails_before_the_run(tmp_path, capsys,
                                                      monkeypatch,
                                                      out_under_file):
    monkeypatch.setattr("safeadp.cli.run", _fail_if_called)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out" if out_under_file else blocker
    code = main(["run", "--preset", "study2", "--horizon", "2",
                 "--out", str(out)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "io_error"
    assert blocker.read_text() == ""


SYNTHESIZE = ("observer", "gains", "synthesize")
HORIZON = ["--horizon", "0.01"]

# (command, (object, key, value) or a tuple of them written into a study1
# config file, or None for a preset run, extra arguments)
INVALID_VALUES = [
    ("run", ("sim", "dt", -1.0), []),
    ("run", ("sim", "log_every", 0), []),
    ("run", ("sim", "controller_mode", "xyz"), []),
    ("run", ("sim", "T", "abc"), []),
    ("run", ("learning", "k_c", 0.0), []),
    ("run", ("learning", "point_envelope", "maybe"), []),
    ("run", ("safety", "ell", -0.1), []),
    ("run", ("model", "u_bar", -1.0), []),
    ("run", ("model", "box_halfwidth", 0.0), []),
    ("run", ("observer", "alpha", 0.0), []),
    ("run", None, ["--preset", "study1", "--dt", "-1"]),
    ("synthesize", ("model", "u_bar", -1.0), ["--budget", "5"]),
    ("audit-bounds", ("model", "box_halfwidth", 0.0), []),
    # synthesize builds its gains through the observer section, as run does,
    # and an audit grid needs two samples per axis to span the box
    ("synthesize", ("observer", "alpha", -1.0), ["--budget", "5"]),
    ("synthesize", ("observer", "eps0", 0.0), ["--budget", "5"]),
    ("audit-bounds", None, ["--preset", "study1", "--grid", "0"]),
    ("audit-bounds", None, ["--preset", "study1", "--grid", "1"]),
    # a negative tolerance fails bounds that hold to rounding
    ("audit-bounds", None, ["--preset", "study1", "--grid", "5", "--tol", "-1"]),
    # shapes that do not fit the plant (n = 2, m = 1, q = 1) or the basis
    # (L = 6 weights)
    ("run", ("sim", "x0", [-3.0, 1.5, 0.0]), []),
    ("run", ("sim", "x_hat0", [-1.5]), []),
    ("run", ("sim", "Wc0", [0.5, 1.0, 0.8, 0.1, 0.1]), []),
    ("run", ("sim", "Gamma0", [[1.0, 0.0], [0.0, 1.0]]), []),
    ("run", ("learning", "R_u", [[1.0, 0.0], [0.0, 1.0]]), []),
    ("run", ("learning", "Q", [[1.0]]), []),
    ("run", ("learning", "points",
             {"kind": "explicit", "values": [[0.1, 0.2, 0.0]]}), []),
    ("run", ("observer.gains", "l1", [0.1, 0.2, 0.3]), []),
    ("verify-lmi", ("observer.gains", "l2", [0.1, 0.2, 0.3]), []),
    ("verify-lmi", ("observer.gains", "P", np.eye(3).tolist()), []),
    # a gain search needs tol >= 0 (a negative one certifies a positive
    # eigenvalue), budget >= 0 and step > 0
    ("synthesize", None, ["--preset", "study1", "--tol", "-100",
                          "--budget", "0"]),
    ("synthesize", None, ["--preset", "study1", "--budget", "-5"]),
    ("synthesize", ("observer.synthesis", "step", 0.0), []),
    ("run", (SYNTHESIZE, ("observer.synthesis", "tol", -100.0)), HORIZON),
    ("run", (SYNTHESIZE, ("observer.synthesis", "budget", -5)), HORIZON),
    ("run", (SYNTHESIZE, ("observer.synthesis", "step", 0.0)), HORIZON),
    # non-finite numbers, from a flag or as a JSON NaN/Infinity constant,
    # which json.dumps writes and Python's json reads
    ("run", None, ["--preset", "study1", "--horizon", "inf"]),
    ("run", None, ["--preset", "study1", "--horizon", "nan"]),
    ("run", None, ["--preset", "study1", "--dt", "nan"]),
    ("synthesize", None, ["--preset", "study1", "--tol", "nan",
                          "--budget", "5"]),
    ("synthesize", None, ["--preset", "study1", "--step", "inf",
                          "--budget", "5"]),
    ("verify-lmi", ("observer", "alpha", float("nan")), []),
    # the extrapolation clamp must be positive, Q positive semidefinite
    ("run", ("learning", "margin_floor", 0.0), HORIZON),
    ("verify-lmi", ("learning", "margin_floor", -1.0), []),
    ("verify-lmi", ("learning", "Q", [[1.0, 0.0], [0.0, -1.0]]), []),
]


def _edits(edit):
    """The (object, key, value) triples of an INVALID_VALUES edit."""
    return edit if isinstance(edit[0], tuple) else (edit,)


@pytest.mark.parametrize(
    "command, edit, extra", INVALID_VALUES,
    ids=[f"{c}-{'.'.join(map(str, _edits(e)[-1][:2])) if e else ' '.join(x)}"
         for c, e, x in INVALID_VALUES])
def test_cli_invalid_value_is_a_config_error(tmp_path, capsys, command, edit,
                                             extra):
    argv = [command, *extra]
    if edit is not None:
        raw = preset("study1").to_dict()
        for path, key, value in _edits(edit):
            _object(raw, path)[key] = value
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps(raw))
        argv += ["--config", str(cfg_file)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "config_error"
    assert "Traceback" not in err
    assert not out.exists()


# (preset, section, key): a range check that NaN must fail, for configs that
# arrive as a dict and never meet load_config's rejection of NaN literals
NAN_FIELDS = [
    ("study1", "observer", "alpha"),
    ("study1", "observer", "eps0"),
    ("study1", "safety", "ell"),
    ("study1", "safety", "kappa"),
    ("study2", "safety", "radius"),
    ("study1", "model", "u_bar"),
    ("study1", "model", "box_halfwidth"),
    ("study1", "learning", "k_c"),
    ("study1", "learning", "gamma_c"),
    ("study1", "learning", "beta"),
    ("study1", "learning", "margin_floor"),
]


@pytest.mark.parametrize("name, section, key", NAN_FIELDS,
                         ids=[f"{s}.{k}" for _, s, k in NAN_FIELDS])
def test_nan_field_is_a_config_error(name, section, key):
    raw = preset(name).to_dict()
    raw[section][key] = float("nan")
    with pytest.raises(ConfigError, match=section):
        build_problem(RunConfig.from_dict(raw))


INF, NAN = float("inf"), float("nan")
# (section, key, value, id): a non-finite value or matrix entry, which a
# config file cannot spell but a dict can
NONFINITE_VALUES = [
    ("learning", "margin_floor", INF, "learning.margin_floor-inf"),
    ("learning", "R_u", ((INF,),), "learning.R_u-inf"),
    ("learning", "Q", ((1.0, 0.0), (0.0, INF)), "learning.Q-inf"),
    ("learning", "Q", ((NAN, 0.0), (0.0, 1.0)), "learning.Q-nan"),
    ("sim", "Gamma0", np.diag([1.0, 1.0, NAN, 1.0, 1.0, 1.0]).tolist(),
     "sim.Gamma0-nan"),
]


@pytest.mark.parametrize("section, key, value", [r[:3] for r in NONFINITE_VALUES],
                         ids=[r[3] for r in NONFINITE_VALUES])
def test_nonfinite_value_is_a_config_error(section, key, value):
    raw = preset("study1").to_dict()
    raw[section][key] = value
    with pytest.raises(ConfigError, match=section):
        build_problem(RunConfig.from_dict(raw))


@pytest.mark.parametrize("key, value", [("margin_floor", "BIG"),
                                        ("R_u", [["BIG"]])],
                         ids=["margin_floor", "R_u"])
def test_cli_overflowing_number_is_a_config_error(tmp_path, capsys, key,
                                                  value):
    # json reads 1e400 as inf without calling parse_constant
    raw = preset("study1").to_dict()
    raw["learning"][key] = value
    cfg_file = tmp_path / "big.json"
    cfg_file.write_text(json.dumps(raw).replace('"BIG"', "1e400"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_file), *HORIZON,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "config_error"
    assert not out.exists()


def test_nan_decay_rate_stops_gain_synthesis():
    # with synthesized gains the decay rate reaches the LMI problem first
    raw = preset("study1").to_dict()
    raw["observer"].update(alpha=float("nan"), gains="synthesize")
    with pytest.raises(ConfigError, match="observer: decay rate"):
        build_problem(RunConfig.from_dict(raw))
