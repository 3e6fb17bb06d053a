"""Compare the untraced results of two checkouts, run for run.

    python3 perfbench/compare.py PARENT/.bench_out CHANGE/.bench_out

Reads every ``<workload>-seed<n>-trace0.json`` in both directories, pairs
runs by workload and seed, and prints for each workload and end-to-end
metric: both medians, the parent's quartile spread as a share of its median,
the change of the median against the bound in BENCHMARK.json, and how many
pairs the change won.  The verdict follows the rule in the README: a gain
needs nine tenths of the pairs and a median shift larger than the parent's
spread; a loss beyond the bound is a regression; otherwise the metric is
unchanged when the spread is inside the bound and unresolved when it is not.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory: str) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in Path(directory).glob("*-trace0.json"):
        record = json.loads(path.read_text())
        runs[(record["workload"], record["environment"]["seed"])] = record["metrics"]
    return runs


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(parent, change, better, bound) -> tuple[str, int]:
    """(verdict, pairs the change won) for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    worse = sign * (mc - mp) / mp
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    if wins >= 0.9 * len(parent) and -worse > spread(parent):
        return "gain", wins
    if worse > bound:
        return "REGRESSION", wins
    return ("unchanged" if spread(parent) <= bound else "unresolved"), wins


def main(parent_dir: str, change_dir: str) -> int:
    parent, change = load(parent_dir), load(change_dir)
    pairs = sorted(set(parent) & set(change))
    code = 0
    print(f"{'workload':<14} {'metric':<12} {'parent':>11} {'change':>11} {'delta':>8} "
          f"{'spread':>7} {'bound':>6} {'wins':>6}  verdict")
    for workload in sorted({w for w, _ in pairs}):
        keys = [k for k in pairs if k[0] == workload]
        for metric in BENCHMARK["end_to_end"]:
            name, better = metric["name"], metric["better"]
            p = [parent[k][name] for k in keys]
            c = [change[k][name] for k in keys]
            v, wins = verdict(p, c, better, metric["bound"])
            code |= v == "REGRESSION"
            mp, mc = statistics.median(p), statistics.median(c)
            print(f"{workload:<14} {name:<12} {mp:>11.5g} {mc:>11.5g} {(mc - mp) / mp:>+8.1%} "
                  f"{spread(p):>7.1%} {metric['bound']:>6.0%} {wins:>3}/{len(keys):<2}  {v}")
    return int(code)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
