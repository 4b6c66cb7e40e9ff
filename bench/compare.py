"""Compare two sets of benchmark records, parent against change.

    python3 bench/compare.py --parent PARENT_DIR --change CHANGE_DIR

Each side is a directory (or list of files) of records that ``run.py`` wrote
to ``.bench_runs/``.  Prints one row per workload and metric: each side's
median and quartiles, the share of pairs the change wins (runs are paired by
seed, ties count for neither), and a verdict:

* improved - the change wins at least 9 of 10 pairs and the medians differ
  by more than the parent's own spread (its interquartile distance);
* worse - the change's median is worse than the parent's by more than the
  metric's bound in ``BENCHMARK.json`` (metrics without a bound: the mirror
  of the improved rule);
* unresolved - the parent's spread is wider than the bound and not every
  change run beats every parent run, or the change is better by more than
  the spread without winning 9 in 10 (for metrics without a bound: better or
  worse);
* unchanged - otherwise; for a metric with a bound, no worse than the bound.

Run at least ten pairs, alternating which side runs first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load_records(paths: list) -> list:
    files = []
    for p in map(Path, paths):
        files += sorted(p.glob("*.json")) if p.is_dir() else [p]
    records = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def metric_table(records: list) -> dict:
    """(workload, metric) -> {seed: value}; per-layer values from traced runs."""
    out = {}
    for rec in records:
        values = dict(rec["per_layer"]) if rec["trace"] else \
            {**rec["end_to_end"], **rec["record_only"]}
        for name, value in values.items():
            if name.endswith("_percentile"):
                continue
            out.setdefault((rec["workload"], name), {})[rec["seed"]] = value
    return out


def direction(name: str, spec: dict) -> str:
    if name in spec:
        return spec[name]["better"]
    higher = ("_per_s", "hit_ratio", "yield")
    return "higher" if name.endswith(higher) else "lower"


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def verdict(p: dict, c: dict, better: str, bound) -> tuple:
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(p) & set(c))
    pairs = [(p[s], c[s]) for s in seeds] or list(zip(p.values(), c.values()))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    pv, cv = list(p.values()), list(c.values())
    mp, mc = statistics.median(pv), statistics.median(cv)
    q1, q3 = quartiles(pv)
    spread = q3 - q1
    gain = sign * (mc - mp)
    n = len(pairs)
    if n and wins >= WIN_SHARE * n and gain > spread:
        v = "improved"
    elif bound is not None and -gain > bound * abs(mp):
        v = "worse"
    elif bound is None and n and losses >= WIN_SHARE * n and -gain > spread:
        v = "worse"
    elif bound is not None and mp and spread / abs(mp) > bound and not (
            min(sign * x for x in cv) > max(sign * x for x in pv)):
        v = "unresolved"
    elif gain > spread or (bound is None and -gain > spread):
        v = "unresolved"            # a difference beyond the spread, without 9 in 10
    else:
        v = "unchanged"             # for a bounded metric: no worse than its bound
    return v, wins, n, mp, mc, (q1, q3), quartiles(cv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/compare.py")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent = metric_table(load_records(args.parent))
    change = metric_table(load_records(args.change))
    print(f"{'workload':<15} {'metric':<30} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'delta':>8} {'wins':>6}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        v, wins, n, mp, mc, qp, qc = verdict(parent[key], change[key], direction(name, spec),
                                             spec.get(name, {}).get("bound"))
        delta = f"{100.0 * (mc - mp) / mp:+.1f}%" if mp else "n/a"
        print(f"{workload:<15} {name:<30} {mp:>12.5g} [{qp[0]:.4g}, {qp[1]:.4g}]"
              f"{'':>2} {mc:>12.5g} [{qc[0]:.4g}, {qc[1]:.4g}] {delta:>8} "
              f"{wins:>2}/{n:<3}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
