"""Compare two benchmark results files: a parent and a change.

Usage, from the repository root:

    python3 perfbench/compare.py PARENT.json CHANGE.json

Both files come from ``perfbench/run.py --workload all --runs N`` (or single
runs), measured with the same benchmark code and settings.  Runs are paired
in file order, so run them alternating which side goes first.  For each
workload and metric the comparison prints each side's median and quartiles
and, for end-to-end metrics, a verdict:

- improved: at least ten pairs, the change wins at least nine tenths of them
  (ties count for neither side), and the medians differ by more than the
  distance between the parent's quartiles;
- unresolved: either side's quartile distance, as a share of its median, is
  wider than the metric's bound, unless every change run beats every parent
  run;
- regressed: the change's median is worse than the parent's by more than the
  bound, as a share of the parent's median;
- unchanged: otherwise.

The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAMP_KEYS = ("git_revision", "git_dirty", "python", "numpy", "blas", "nproc",
              "seed", "runs", "seconds")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better: str, bound: float) -> str:
    """Verdict of change against parent for one metric (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (mc - mp) > q3 - q1):
        return "improved"
    spread = max((q3 - q1) / (abs(mp) or 1.0),
                 (quartiles(change)[1] - quartiles(change)[0]) / (abs(mc) or 1.0))
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (mp - mc) > bound * (abs(mp) or 1.0):
        return "regressed"
    return "unchanged"


def by_workload(payload: dict, traced: bool) -> dict:
    out: dict[str, list] = {}
    for rec in payload["runs"]:
        if bool(rec["trace"]) == traced:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def describe(values) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def compare(parent: dict, change: dict, bench: dict) -> tuple[list, bool]:
    rows, regressed = [], False
    for group, traced in (("end_to_end", False), ("per_layer", True)):
        p_runs, c_runs = by_workload(parent, traced), by_workload(change, traced)
        for name in sorted(set(p_runs) & set(c_runs)):
            for m in bench[group]:
                key = "metrics" if group == "end_to_end" else "per_layer"
                p = [r[key][m["name"]] for r in p_runs[name]]
                c = [r[key][m["name"]] for r in c_runs[name]]
                v = (verdict(p, c, m["better"], m["bound"])
                     if group == "end_to_end" else "-")
                regressed |= v == "regressed"
                rows.append((name, m["name"], m["unit"], describe(p),
                             describe(c), f"{len(p)}/{len(c)}", v))
    return rows, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(a).read_text()) for a in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in STAMP_KEYS:
        print(f"{key:<14} parent={parent['stamp'].get(key)!s:<42} "
              f"change={change['stamp'].get(key)}")
    rows, regressed = compare(parent, change, bench)
    header = ("workload", "metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "runs", "verdict")
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(7)]
    for r in [header, *rows]:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    failed = [r for r in (parent, change)
              if not all(run["correct"] for run in r["runs"])]
    if failed:
        print("warning: a results file holds runs with incorrect outputs",
              file=sys.stderr)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
