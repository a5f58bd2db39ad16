"""Golden CLI outputs: the SHA-256 of every file a command writes.

`trajectory.csv` beyond its first columns, `plotdata/*.csv` and the content of
`certificate.json` are checked nowhere else.  The cases are a full run with a
certificate, a run without an observer, a run without a barrier that leaves
the safe set (so the summary's violation times are not null), `verify-lmi`,
and a run that aborts at step 0, whose CSV files hold only their header rows.  The JSON dump of every
preset (`safeadp presets --name <p>`) is hashed as well, so the accepted
config schema and the preset values cannot drift.  Regenerate the stored file
only in a change that deliberately alters an output, and say so in CHANGES.md:

    PYTHONPATH=src python3 tests/golden/test_cli_outputs.py --regen
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from safeadp.cli import main
from safeadp.presets import PRESET_NAMES, preset

GOLDEN_FILE = Path(__file__).resolve().parent / "cli_outputs.json"


def _abort_config(path: Path) -> str:
    # the estimate starts outside the robustified safe set: barrier abort at
    # step 0 with an empty log
    raw = preset("study1").to_dict()
    raw["sim"].update(x0=[0.5, 0.0], x_hat0=[0.95, 0.0], T=0.5)
    cfg = path / "abort.json"
    cfg.write_text(json.dumps(raw))
    return str(cfg)


CASES = {
    "run_study2_lcbf": (0, lambda tmp: ["run", "--preset", "study2_lcbf",
                                        "--horizon", "0.05"]),
    "run_lq_oracle": (0, lambda tmp: ["run", "--preset", "lq_oracle",
                                      "--horizon", "0.05"]),
    "run_study2_nocbf": (0, lambda tmp: ["run", "--preset", "study2_nocbf",
                                         "--horizon", "0.3"]),
    "verify_lmi_study1": (0, lambda tmp: ["verify-lmi", "--preset", "study1"]),
    "run_step0_abort": (1, lambda tmp: ["run", "--config",
                                        _abort_config(tmp)]),
}


def outputs(name: str) -> dict:
    """Exit code and {relative path: SHA-256} of the files the case writes."""
    want_code, argv = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv(tmp), "--out", str(out)])
        files = {p.relative_to(out).as_posix():
                 hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(out.rglob("*")) if p.is_file()}
    assert code == want_code
    return {"exit_code": code, "files": files}


def preset_dumps() -> dict:
    """{preset name: SHA-256 of `safeadp presets --name <name>` stdout}."""
    digests = {}
    for name in PRESET_NAMES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["presets", "--name", name]) == 0
        digests[name] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


@pytest.mark.parametrize("name", CASES)
def test_cli_outputs_bytewise(name, golden):
    got = outputs(name)
    want = golden[name]
    assert got["exit_code"] == want["exit_code"]
    assert sorted(got["files"]) == sorted(want["files"])
    for path, digest in want["files"].items():
        assert got["files"][path] == digest, f"{name}: {path} differs"


def test_preset_dumps_bytewise(golden):
    assert preset_dumps() == golden["preset_dumps"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    GOLDEN_FILE.write_text(json.dumps(
        {**{n: outputs(n) for n in CASES}, "preset_dumps": preset_dumps()},
        indent=1, sort_keys=True) + "\n")
