"""Compare two sets of benchmark records, one row per workload and metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the JSON records run.py saves under .perfbench/results/
(copy them out of each checkout).  Records pair up by workload, trace mode
and seed, in the order they were made.  For every metric the row gives each
side's median and quartiles, the share of pairs each side won (ties count for
neither) and a verdict:

- improved: the change wins at least nine tenths of the pairs and the medians
  differ, in the better direction, by more than the base's own quartile spread;
- worse: the same test with the sides swapped, or for a bounded metric a
  change median worse than the base median by more than the bound;
- unresolved: a bounded metric whose spread on either side exceeds its bound,
  unless every change run reads better than every base run; an unbounded
  metric whose median moved the wrong way without meeting the worse test;
- no worse: otherwise.

Bounds and directions come from BENCHMARK.json.  The named per-command
metrics (excursions_s, approx_s, ...) take the bound of their cmd1_s/cmd2_s
slot; fail_rate must not rise at all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def load_records(directory) -> dict:
    """(workload, trace) -> {seed: [metrics dict, ...]} in file-name order."""
    out = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as fh:
            rec = json.load(fh)
        metrics = dict(rec["metrics"])
        if not rec["trace"]:
            metrics.update(rec["named_metrics"])
        out[(rec["workload"], rec["trace"])][rec["seed"]].append(metrics)
    return out


def metric_rules(spec: dict) -> dict:
    """name -> (better, bound or None)."""
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    for slot_names in workloads.GROUPS.values():
        for named, slot in zip(slot_names, ("cmd1_s", "cmd2_s")):
            rules[named] = rules[slot]
    rules["fail_rate"] = ("lower", 0.0)
    return rules


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better: str, bound) -> tuple[str, float, float]:
    """(verdict, share of pairs base won, share change won); pairs are zipped."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, change))
    n = len(pairs)
    change_wins = sum(sign * (c - b) < 0 for b, c in pairs)
    base_wins = sum(sign * (c - b) > 0 for b, c in pairs)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (bmed - cmed)  # > 0 when the change is better
    if n and change_wins >= 0.9 * n and gain > bq3 - bq1:
        result = "improved"
    elif n and base_wins >= 0.9 * n and -gain > cq3 - cq1:
        result = "worse"
    elif bound is None:
        result = "no worse" if gain >= 0 else "unresolved"
    elif bound == 0:  # fail_rate: any rise is worse, whatever the spread
        result = "worse" if sum(change) / len(change) > sum(base) / len(base) else "no worse"
    else:
        all_better = all(sign * (c - b) < 0 for b in base for c in change)
        spread = max(_rel(bq3 - bq1, bmed), _rel(cq3 - cq1, cmed))
        if spread > bound and not all_better:
            result = "unresolved"
        elif _rel(-gain, bmed) > bound:
            result = "worse"
        else:
            result = "no worse"
    return result, base_wins / n if n else 0.0, change_wins / n if n else 0.0


def _rel(delta: float, ref: float) -> float:
    if ref == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(ref)


def report(base_dir, change_dir, spec: dict) -> list[str]:
    rules = metric_rules(spec)
    base, change = load_records(base_dir), load_records(change_dir)
    lines = [f"{'workload':9} {'metric':42} {'base median [q1, q3]':>32} "
             f"{'change median [q1, q3]':>32} {'base won':>8} {'chg won':>8}  verdict"]
    for key in sorted(set(base) & set(change)):
        workload = key[0]
        b_runs, c_runs = [], []
        for seed in sorted(set(base[key]) & set(change[key])):
            k = min(len(base[key][seed]), len(change[key][seed]))
            b_runs += base[key][seed][:k]
            c_runs += change[key][seed][:k]
        if not b_runs:
            continue
        for name in sorted(set(b_runs[0]) & set(c_runs[0]) & set(rules)):
            better, bound = rules[name]
            b_vals = [r[name] for r in b_runs]
            c_vals = [r[name] for r in c_runs]
            v, b_won, c_won = verdict(b_vals, c_vals, better, bound)
            bq = quartiles(b_vals)
            cq = quartiles(c_vals)
            lines.append(
                f"{workload:9} {name:42} {bq[1]:12.6g} [{bq[0]:.6g}, {bq[2]:.6g}] "
                f"{cq[1]:12.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {b_won:8.0%} {c_won:8.0%}  {v}"
            )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two sets of benchmark records")
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    lines = report(args.base, args.change, spec)
    if len(lines) == 1:
        print("no workload has records with matching seeds on both sides", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
