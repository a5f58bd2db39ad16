"""scripts/bench_pairs.py stops on a benchmark run that fails.

The script exports revisions of the repository it lives in, so it is copied
into a temporary git repository whose stub perfbench/run.py exits with a
fixed code: no benchmark runs.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git(repo: Path, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], cwd=repo, check=True, capture_output=True)


@pytest.mark.parametrize("code", [1, 2])
def test_a_failing_run_stops_the_pairs(tmp_path, code):
    repo = tmp_path / "repo"
    (repo / "scripts").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    shutil.copy(ROOT / "scripts" / "bench_pairs.py", repo / "scripts")
    (repo / "perfbench" / "run.py").write_text(
        f"import sys\nsys.exit({code})\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "stub")
    proc = subprocess.run(
        [sys.executable, "scripts/bench_pairs.py", "HEAD", "HEAD",
         "--workload", "gain_design", "--pairs", "2", "--seed", "7",
         "--out", str(tmp_path / "out")],
        cwd=repo, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert (f"the parent run of pair 0 (seed 7) exited {code}"
            in proc.stderr)
    assert not (tmp_path / "out" / "parent.json").exists()
