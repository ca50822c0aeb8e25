"""Compare two result sets of ``run.py --save``, metric by metric.

    python3 perfbench/compare.py base.jsonl change.jsonl

For every workload and end-to-end metric it prints both medians and
quartiles, the share of seed-matched pairs the change wins, and a verdict
under the bound in BENCHMARK.json:

* ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the bound, and not every change run beats every base run;
* ``worse``: the change's median is worse than the base's by more than the
  bound;
* ``better``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the base's quartile spread;
* ``unchanged``: anything else.

Metrics are never merged into one score.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load(path: Path) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> seed -> value, from untraced runs only."""
    table: dict[tuple[str, str], dict[int, float]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace"):
            continue
        for metric, body in record["metrics"].items():
            table.setdefault((record["workload"], metric), {})[record["seed"]] = body["value"]
    return table


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> dict:
    sign = 1.0 if lower_is_better else -1.0
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    win_share = wins / len(pairs) if pairs else float("nan")
    worse_by = sign * (cmed - bmed) / bmed
    spread = max((bq3 - bq1) / bmed, (cq3 - cq1) / cmed)
    all_better = all(sign * (c - b) < 0 for b in base for c in change)
    if spread > bound and not all_better:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "worse"
    elif win_share >= 0.9 and -worse_by * bmed > (bq3 - bq1):
        outcome = "better"
    else:
        outcome = "unchanged"
    return {
        "base": (bq1, bmed, bq3),
        "change": (cq1, cmed, cq3),
        "win_share": win_share,
        "pairs": len(pairs),
        "verdict": outcome,
    }


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, change = load(args.base), load(args.change)
    print(f"{'workload':<16} {'metric':<12} {'base q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'wins':>9} verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in change:
                continue
            a, b = base[key], change[key]
            pairs = [(a[seed], b[seed]) for seed in sorted(a.keys() & b.keys())]
            row = verdict(list(a.values()), list(b.values()), pairs, metric["bound"],
                          metric["better"] == "lower")
            print(f"{workload:<16} {metric['name']:<12} {_fmt(row['base']):>32} "
                  f"{_fmt(row['change']):>32} {row['win_share']:>5.0%} of {row['pairs']:<2} "
                  f"{row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
