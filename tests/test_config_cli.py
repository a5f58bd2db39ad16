import dataclasses
import json
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from safeadp.cli import main
from safeadp.config import ConfigError, RunConfig, build_problem, load_config
from safeadp.critic import grid_points
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
    assert summary["min_h"] > 0
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
    # |grad h| = sqrt(1 + 4 x2^2) on the box |x2| <= 3 peaks at sqrt(37)
    assert report["lipschitz"] == {"configured_ell": 0.1,
                                   "bound": np.sqrt(37.0), "ok": False}
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
    ["audit-bounds", "--seed", "0", "--grid", "5"],
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


def test_cli_run_unallocatable_point_grid_is_a_config_error(tmp_path, capsys):
    # (5e6)^2 points: the grid needs more memory than any address space
    # holds, so numpy refuses it at once on every machine
    raw = preset("study1").to_dict()
    raw["learning"]["points"]["per_axis"] = 5_000_000
    cfg_file = tmp_path / "big.json"
    cfg_file.write_text(json.dumps(raw))
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg_file), "--out", str(out)])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config_error"
    assert payload["reason"].startswith("learning.points: ")
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

        return dataclasses.replace(base, f=f)

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


# finite closed-loop parameters that pass their range checks but overflow the
# first steps' arithmetic
OVERFLOWING_FIELDS = [("learning", "k_c"), ("learning", "gamma_c"),
                      ("learning", "beta"), ("learning", "margin_floor"),
                      ("observer", "eps0"), ("safety", "ell")]


@pytest.mark.parametrize("section, key", OVERFLOWING_FIELDS,
                         ids=[f"{s}.{k}" for s, k in OVERFLOWING_FIELDS])
def test_cli_run_overflow_is_a_run_abort(tmp_path, capsys, section, key):
    raw = preset("study1").to_dict()
    raw[section][key] = 1e308
    cfg_file = tmp_path / "huge.json"
    cfg_file.write_text(json.dumps(raw))
    code = main(["run", "--config", str(cfg_file), "--horizon", "0.05",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "run_aborted"
    assert "FloatingPointError" in payload["reason"]


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


def test_cli_run_failed_write_leaves_no_out(tmp_path, capsys, monkeypatch):
    # the files go to a staging directory that becomes `out` only at the
    # end, so a write that fails after the first file leaves nothing behind
    def full_disk(out, log):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("safeadp.cli._write_plotdata", full_disk)
    out = tmp_path / "out"
    code = main(["run", "--preset", "study2", "--horizon", "0.02",
                 "--out", str(out)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "io_error"
    assert list(tmp_path.iterdir()) == []


def test_cli_run_into_an_existing_out_replaces_its_files(tmp_path):
    out = tmp_path / "out"
    (out / "plotdata").mkdir(parents=True)
    (out / "summary.json").write_text("stale")
    (out / "notes.txt").write_text("kept")
    argv = ["run", "--preset", "study2", "--horizon", "0.02"]
    assert main([*argv, "--out", str(out)]) == 0
    assert main([*argv, "--out", str(tmp_path / "fresh")]) == 0
    fresh = {p.relative_to(tmp_path / "fresh"): p.read_bytes()
             for p in (tmp_path / "fresh").rglob("*") if p.is_file()}
    files = {p.relative_to(out): p.read_bytes()
             for p in out.rglob("*") if p.is_file()}
    assert files == {**fresh, Path("notes.txt"): b"kept"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "out"]


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
    # (5e6)^2 points need more memory than any address space holds
    ("audit-bounds", None, ["--preset", "study1", "--grid", "5000000"]),
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
    # the obstacle center has n entries whether or not the safe set uses it,
    # and the log stride is an integer
    ("run", ("safety", "center", [-0.5, 0.6, 0.0]), []),
    ("run", ("sim", "log_every", 1.5), []),
    # audit-bounds checks shapes as run and verify-lmi do; the Lipschitz
    # bound of a disk reads its center
    ("audit-bounds", (("safety", "kind", "circular_obstacle"),
                      ("safety", "center", [-0.5, 0.6, 0.0])), []),
    ("audit-bounds", ("sim", "x0", [-3.0, 1.5, 0.0]), []),
    # a flag takes a JSON boolean and a count a JSON integer, never a string
    # or a boolean in its place
    ("run", ("observer", "enabled", "false"), HORIZON),
    ("run", ("sim", "log_every", True), HORIZON),
    ("run", ("learning.points", "per_axis", True), HORIZON),
    ("run", (SYNTHESIZE, ("observer.synthesis", "budget", True)), HORIZON),
    ("synthesize", ("observer.synthesis", "seed", True), ["--budget", "5"]),
    # the repulsion center has n entries whether or not the points use it
    ("run", (("learning.points", "kind", "explicit"),
             ("learning.points", "values", [[0.1, 0.2]]),
             ("learning.points", "repel_center", [0.0, 0.0, 0.0])), HORIZON),
    # a step count T / dt that overflows to infinity
    ("run", None, ["--preset", "study1", "--dt", "5e-324"]),
    ("run", ("sim", "T", 1e308), []),
    # finite values whose Jacobian bounds or decay term overflow the
    # verification matrix
    ("run", ("model", "u_bar", 1e308), []),
    ("verify-lmi", ("model", "u_bar", 1e308), []),
    ("run", ("model", "box_halfwidth", 1e308), []),
    ("verify-lmi", ("model", "box_halfwidth", 1e308), []),
    ("audit-bounds", ("model", "box_halfwidth", 1e308), []),
    ("run", ("observer", "alpha", 1e308), []),
    ("verify-lmi", ("observer", "alpha", 1e308), []),
    ("synthesize", ("observer", "alpha", 1e308), ["--budget", "5"]),
    # finite gains, or a decay rate that passes at the search's starting
    # point, whose verification matrix overflows: the config build keeps the
    # step loop's floating-point rule
    ("verify-lmi", ("observer.gains", "l1", [1e308, 1e308]), []),
    ("verify-lmi", ("observer.gains", "P", [[1e308, 0.0], [0.0, 1e308]]), []),
    ("run", ("observer.gains", "l3", [1e308, 1e308]), ["--horizon", "0.05"]),
    ("synthesize", ("observer", "alpha", 4e307), ["--budget", "300"]),
]


def _edits(edit):
    """The (object, key, value) triples of an INVALID_VALUES edit."""
    return edit if isinstance(edit[0], tuple) else (edit,)


def _row_ids(rows):
    """One id per row: the command and the flags, or the command and the field
    of the last edit, followed by its value when an earlier row already has
    that command and field, so a later row never renames an earlier one."""
    ids = []
    for command, edit, extra in rows:
        if edit is None:
            ids.append(f"{command}-{' '.join(extra)}")
            continue
        path, key, value = _edits(edit)[-1]
        field = f"{command}-{path}.{key}"
        ids.append(field if field not in ids
                   else f"{field}={json.dumps(value)}")
    return ids


def test_invalid_value_ids_are_unique():
    rows = [("run", ("learning", "Q", [[1.0]]), []),
            ("run", ("learning", "Q", [[-1.0]]), HORIZON),
            ("run", None, ["--dt", "-1"])]
    assert _row_ids(rows) == ["run-learning.Q", "run-learning.Q=[[-1.0]]",
                              "run---dt -1"]
    ids = _row_ids(INVALID_VALUES)
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("command, edit, extra", INVALID_VALUES,
                         ids=_row_ids(INVALID_VALUES))
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


@pytest.mark.parametrize("argv", [["run"], ["verify-lmi"],
                                  ["synthesize", "--budget", "5"]],
                         ids=["run", "verify-lmi", "synthesize"])
def test_overflowing_decay_rate_is_named(tmp_path, capsys, argv):
    raw = preset("study1").to_dict()
    raw["observer"]["alpha"] = 1e308
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps(raw))
    assert main([*argv, "--config", str(cfg_file),
                 "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "config_error",
                       "reason": "observer: decay rate 1e+308 overflows the "
                                 "verification matrix"}


# (edit as in INVALID_VALUES, the reason of the config_error): a value that
# numpy would reject with a message of its own ends on the rule it breaks
NAMED_RULES = [
    ((SYNTHESIZE, ("observer.synthesis", "budget", 2.5)),
     "observer.synthesis: budget must be an integer, got 2.5"),
    ((("learning.points", "repel_center", [0.0, 0.0, 0.0]),
      ("learning.points", "repel_radius", 0.1)),
     "learning.points.repel_center: shape (3,), expected (2,)"),
    ((("learning.points", "kind", "explicit"),
      ("learning.points", "values", [[0.1, 0.2]]),
      ("learning.points", "repel_center", [0.0])),
     "learning.points.repel_center: shape (1,), expected (2,)"),
]


@pytest.mark.parametrize("edit, reason", NAMED_RULES,
                         ids=["budget", "repel_center-grid",
                              "repel_center-explicit"])
def test_config_error_names_the_rule(tmp_path, capsys, edit, reason):
    raw = preset("study1").to_dict()
    for path, key, value in _edits(edit):
        _object(raw, path)[key] = value
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_file), *HORIZON,
                 "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "config_error", "reason": reason}
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
# config file cannot spell but a dict can, or a finite value out of range
NONFINITE_VALUES = [
    ("learning", "margin_floor", INF, "learning.margin_floor-inf"),
    ("learning", "R_u", ((INF,),), "learning.R_u-inf"),
    ("learning", "Q", ((1.0, 0.0), (0.0, INF)), "learning.Q-inf"),
    ("learning", "Q", ((NAN, 0.0), (0.0, 1.0)), "learning.Q-nan"),
    ("sim", "Gamma0", np.diag([1.0, 1.0, NAN, 1.0, 1.0, 1.0]).tolist(),
     "sim.Gamma0-nan"),
    ("observer", "alpha", INF, "observer.alpha-inf"),
    ("observer", "eps0", INF, "observer.eps0-inf"),
    ("safety", "ell", INF, "safety.ell-inf"),
    ("safety", "kappa", INF, "safety.kappa-inf"),
    ("model", "u_bar", INF, "model.u_bar-inf"),
    ("model", "box_halfwidth", INF, "model.box_halfwidth-inf"),
    ("learning", "k_c", INF, "learning.k_c-inf"),
    ("learning", "gamma_c", INF, "learning.gamma_c-inf"),
    ("learning", "beta", INF, "learning.beta-inf"),
    # +-inf keeps its meaning for the excitation threshold (never or always
    # warn); an ultimate bound is None or >= 0
    ("sim", "excitation_warn", NAN, "sim.excitation_warn-nan"),
    ("sim", "ultimate_bound_x", NAN, "sim.ultimate_bound_x-nan"),
    ("sim", "ultimate_bound_err", NAN, "sim.ultimate_bound_err-nan"),
    ("sim", "ultimate_bound_x", -1.0, "sim.ultimate_bound_x--1"),
    ("sim", "ultimate_bound_err", -1.0, "sim.ultimate_bound_err--1"),
    # the obstacle and the point grid are checked where they are parsed,
    # whether or not the preset's safe set or point kind uses them
    ("safety", "center", (INF, 0.6), "safety.center-inf"),
    ("safety", "center", (NAN, 0.6), "safety.center-nan"),
    ("safety", "radius", INF, "safety.radius-inf"),
    ("learning.points", "halfwidth", INF, "learning.points.halfwidth-inf"),
    ("learning.points", "halfwidth", NAN, "learning.points.halfwidth-nan"),
    ("learning.points", "halfwidth", -1.0, "learning.points.halfwidth--1"),
    ("learning.points", "repel_center", (NAN, 0.6),
     "learning.points.repel_center-nan"),
    ("learning.points", "repel_radius", NAN,
     "learning.points.repel_radius-nan"),
    # explicit observer gains, the initial state, estimate and weights are
    # finite, and the log stride is an integer
    ("observer.gains", "l1", (NAN, 0.14719), "observer.gains.l1-nan"),
    ("observer.gains", "l3", (INF, 9.0), "observer.gains.l3-inf"),
    ("sim", "x0", (NAN, 1.5), "sim.x0-nan"),
    ("sim", "x_hat0", (-1.5, INF), "sim.x_hat0-inf"),
    ("sim", "Wc0", (NAN, 1.0, 0.8, 0.1, 0.1, 0.1), "sim.Wc0-nan"),
    ("sim", "log_every", NAN, "sim.log_every-nan"),
]


@pytest.mark.parametrize("section, key, value", [r[:3] for r in NONFINITE_VALUES],
                         ids=[r[3] for r in NONFINITE_VALUES])
def test_nonfinite_value_is_a_config_error(section, key, value):
    raw = preset("study1").to_dict()
    _object(raw, section)[key] = value
    with pytest.raises(ConfigError, match=section):
        build_problem(RunConfig.from_dict(raw))


OVERFLOWING = [
    ("learning", "margin_floor", "BIG", "margin_floor"),
    ("learning", "R_u", [["BIG"]], "R_u"),
    ("learning", "gamma_c", "BIG", "gamma_c"),
    ("observer.gains", "P", [["BIG", 0.15875], [0.15875, 0.40954]],
     "observer.gains.P"),
    ("observer.gains", "l3", ["BIG", 9.0], "observer.gains.l3"),
    ("sim", "x0", ["BIG", 1.5], "sim.x0"),
    ("sim", "x_hat0", [-1.5, "BIG"], "sim.x_hat0"),
    ("sim", "Wc0", ["BIG", 1.0, 0.8, 0.1, 0.1, 0.1], "sim.Wc0"),
    ("sim", "log_every", "BIG", "sim.log_every"),
]


@pytest.mark.parametrize("path, key, value", [r[:3] for r in OVERFLOWING],
                         ids=[r[3] for r in OVERFLOWING])
def test_cli_overflowing_number_is_a_config_error(tmp_path, capsys, path, key,
                                                  value):
    # json reads 1e400 as inf without calling parse_constant
    raw = preset("study1").to_dict()
    _object(raw, path)[key] = value
    cfg_file = tmp_path / "big.json"
    cfg_file.write_text(json.dumps(raw).replace('"BIG"', "1e400"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_file), *HORIZON,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "config_error"
    assert not out.exists()


def test_infinite_decay_rate_stops_gain_synthesis():
    raw = preset("study1").to_dict()
    raw["observer"].update(alpha=float("inf"), gains="synthesize")
    with pytest.raises(ConfigError, match="observer: decay rate"):
        build_problem(RunConfig.from_dict(raw))


def test_nan_decay_rate_stops_gain_synthesis():
    # with synthesized gains the decay rate reaches the LMI problem first
    raw = preset("study1").to_dict()
    raw["observer"].update(alpha=float("nan"), gains="synthesize")
    with pytest.raises(ConfigError, match="observer: decay rate"):
        build_problem(RunConfig.from_dict(raw))


# ---------------------------------------------------------------- fuzz

# the numbers README lets be infinite; every other one must be finite
MAY_BE_INFINITE = {("sim", "excitation_warn"), ("sim", "ultimate_bound_x"),
                   ("sim", "ultimate_bound_err")}
# what the fuzz puts into one number: text spliced into the config file in
# its place (json reads 1e400 as inf), or NaN, which a file cannot spell,
# handed to RunConfig.from_dict
FUZZ_VALUES = ("1e400", "-1e400", "nan", "0", "-1")
FUZZED = "__fuzzed__"
# a few steps: the checks under test act before the first step or at it
FUZZ_HORIZON = 0.003


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric_leaves(obj, path=()):
    """(path, is_vector) of every number in obj and of every list of
    numbers: a vector or a matrix row."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _numeric_leaves(value, (*path, key))
    elif isinstance(obj, list):
        if obj and all(map(_is_number, obj)):
            yield path, True
        for i, value in enumerate(obj):
            yield from _numeric_leaves(value, (*path, i))
    elif _is_number(obj):
        yield path, False


def _fuzz_cases(name):
    """(path, value, raw config) for each FUZZ_VALUES entry put into each
    number of the preset, and for one extra entry on each of its vectors."""
    base = json.loads(json.dumps(preset(name).to_dict()))
    base["sim"]["T"] = FUZZ_HORIZON
    for path, is_vector in _numeric_leaves(base):
        for value in ["extra entry"] if is_vector else FUZZ_VALUES:
            raw = json.loads(json.dumps(base))
            parent = raw
            for step in path[:-1]:
                parent = parent[step]
            key = path[-1]
            if is_vector:
                parent[key].append(parent[key][-1])
            else:
                parent[key] = NAN if value == "nan" else FUZZED
            yield path, value, raw


def _fuzz_verdict(tmp_path, capsys, raw, value, must_reject):
    """None if `safeadp run` on raw ends as allowed, else what went wrong."""
    cfg_file, out = tmp_path / "fuzz.json", tmp_path / "out"
    cfg_file.write_text(json.dumps(raw).replace(f'"{FUZZED}"', value))
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        if value == "nan":
            mp.setattr("safeadp.cli.load_config",
                       lambda path: RunConfig.from_dict(raw))
        try:
            code = main(["run", "--config", str(cfg_file), "--out", str(out)])
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"
        finally:
            captured = capsys.readouterr()
    wrote = out.exists()
    shutil.rmtree(out, ignore_errors=True)
    lines = (captured.err if code == 2 else captured.out).strip().splitlines()
    report = json.loads(lines[-1]) if code and lines else {}
    if must_reject and code != 2:
        return f"exit {code} on a number that must be finite"
    if code == 2:
        ok = report.get("error") == "config_error" and not wrote
    elif code == 1 and report.get("error") == "run_error":
        ok = (report["reason"].startswith("initial estimate error")
              and not wrote)
    elif code == 1:
        ok = report.get("error") == "run_aborted" and bool(report["reason"])
    else:
        ok = code == 0
    return None if ok else f"exit {code}: {lines[-1:]}"


@pytest.mark.parametrize("name", ["study1", "study2", "lq_oracle"])
def test_fuzzed_number_ends_in_a_run_or_a_config_error(tmp_path, capsys,
                                                       name):
    failures = []
    for path, value, raw in _fuzz_cases(name):
        must_reject = (value in ("1e400", "-1e400", "nan")
                       and path[:2] not in MAY_BE_INFINITE)
        verdict = _fuzz_verdict(tmp_path, capsys, raw, value, must_reject)
        if verdict is not None:
            failures.append(f"{'.'.join(map(str, path))} = {value}: {verdict}")
    assert not failures, "\n".join(failures)
