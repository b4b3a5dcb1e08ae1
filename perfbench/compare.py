"""Compare benchmark runs of a parent commit and a change.

Save the standard output of each ``run.py`` call, appending several runs
of every workload to one log per side, then:

    python3 perfbench/compare.py parent.log change.log

For each workload and end-to-end metric it prints both sides' medians
and quartiles and a verdict. "better" or "worse" needs at least ten
pairs (runs matched in order), one side winning at least nine tenths of
them with ties counting for neither, and medians further apart than the
distance between the parent's own quartiles; anything else is
"unresolved". Runs stamped with different backends are not compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def read_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced runs in a log, by workload: {"env": stamp, "metrics": {name: value}}."""
    runs: dict[str, list[dict]] = defaultdict(list)
    stamp = None
    for line in path.read_text().splitlines():
        if line.startswith("perfbench-env "):
            stamp = json.loads(line[len("perfbench-env "):])
        elif line.startswith("{") and stamp is not None:
            result = json.loads(line)
            if not stamp["trace"]:
                runs[stamp["workload"]].append({
                    "env": stamp["env"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                })
            stamp = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], higher_is_better: bool) -> str:
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    sign = 1 if higher_is_better else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    gap = abs(statistics.median(change) - pm) > p3 - p1
    if wins >= WIN_SHARE * len(pairs) and gap:
        return "better"
    if losses >= WIN_SHARE * len(pairs) and gap:
        return "worse"
    return "unresolved"


def backends(runs: dict[str, list[dict]]) -> set[tuple]:
    return {(r["env"]["backend"], r["env"]["compiled_available"])
            for rs in runs.values() for r in rs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    parent, change = read_runs(args.parent), read_runs(args.change)
    seen = backends(parent) | backends(change)
    if len(seen) > 1:
        print(f"compare: runs use different backends {sorted(seen)}; refusing to compare",
              file=sys.stderr)
        return 2

    header = f"{'workload':16} {'metric':14} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'n':>5}  verdict"
    print(header)
    print("-" * len(header))
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload:16} (no runs on {'parent' if not p_runs else 'change'})")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name] for r in p_runs]
            c = [r["metrics"][name] for r in c_runs]
            cells = ["/".join(f"{v:.4g}" for v in quartiles(side)) for side in (p, c)]
            print(f"{workload:16} {name:14} {cells[0]:>30} {cells[1]:>30} "
                  f"{min(len(p), len(c)):>5}  {verdict(p, c, metric['better'] == 'higher')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
