#!/usr/bin/env python3
"""Benchmark two revisions over alternating pairs of runs and compare them.

    python3 scripts/bench_pairs.py PARENT_REV CHANGE_REV --workload W \\
        --pairs N [--seed S] [--out DIR]

Both revisions are exported with ``git archive`` into a temporary directory.
Pair i runs ``perfbench/run.py --workload W --runs 1 --seed S+i`` in each,
the parent first for even i.  Each side's runs go to DIR/parent.json and
DIR/change.json (default ``.perfbench_out/pairs``); the change's
``perfbench/compare.py`` compares them, and its exit code is returned.
A run that exits 1 (an output disagrees with its reference fingerprint) or 2
(the benchmark cannot run) stops the script with that code, naming the side,
the pair index and the seed.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> str:
    """Extract the tree of a revision into dest; returns its commit hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return sha


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("change_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path,
                        default=ROOT / ".perfbench_out" / "pairs")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: export(rev, sides[side]) for side, rev in
                (("parent", args.parent_rev), ("change", args.change_rev))}
        results = {side: {"stamp": None, "runs": []} for side in sides}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = Path(tmp) / f"{side}-{i}.json"
                code = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload",
                     args.workload, "--runs", "1", "--seed", str(args.seed + i),
                     "--out", str(out)],
                    cwd=sides[side]).returncode
                if code in (1, 2):
                    print(f"bench_pairs: the {side} run of pair {i} (seed "
                          f"{args.seed + i}) exited {code}", file=sys.stderr)
                    return code
                payload = json.loads(out.read_text())
                results[side]["stamp"] = {**payload["stamp"], "seed": args.seed,
                                          "git_revision": shas[side],
                                          "runs": args.pairs}
                results[side]["runs"] += payload["runs"]
        for side, payload in results.items():
            (args.out / f"{side}.json").write_text(
                json.dumps(payload, indent=1, sort_keys=True))
        return subprocess.run(
            [sys.executable, str(sides["change"] / "perfbench" / "compare.py"),
             str(args.out / "parent.json"), str(args.out / "change.json")]
        ).returncode


if __name__ == "__main__":
    sys.exit(main())
