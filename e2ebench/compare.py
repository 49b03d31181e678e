#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs: parent and change.

    python3 e2ebench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records `run.py --out DIR` writes, ten or more
untraced runs per workload, made alternately with the other side. Runs
pair up in the order they were made. For every (workload, metric) pair
the script prints each side's median and quartiles, the share of pairs the
change wins (ties count for neither), and a verdict under the bound
BENCHMARK.json fixes for the metric:

  improved    the change wins >= 90% of the pairs and the medians differ,
              in its favour, by more than the parent's quartile spread
  unresolved  the parent's own quartile spread is wider than the bound,
              and not every run of the change beats every parent run
  regressed   the change's median is worse than the parent's by more than
              the bound
  unchanged   otherwise

Exits 1 if any pair regressed, else 0.
"""
import collections
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """{(workload, metric): [values in run order]} of untraced records."""
    runs = collections.defaultdict(list)
    records = []
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path) as f:
            record = json.load(f)
        if not record.get("traced"):
            records.append((os.path.getmtime(path), path, record))
    for _, _, record in sorted(records, key=lambda r: (r[0], r[1])):
        for name, m in record["metrics"].items():
            runs[(record["workload"], name)].append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (pm - cm)  # > 0: the change is better
    if win_rate >= 0.9 and gain > p3 - p1:
        return win_rate, "improved"
    if pm != 0 and (p3 - p1) / abs(pm) > bound:
        all_better = all(sign * (p - c) > 0 for p in parent for c in change)
        return win_rate, "improved" if all_better else "unresolved"
    if pm != 0 and -gain / abs(pm) > bound:
        return win_rate, "regressed"
    return win_rate, "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent = load_runs(sys.argv[1])
    change = load_runs(sys.argv[2])
    workloads = [w["name"] for w in spec["workloads"]]
    print("%-16s %-18s %28s %28s %5s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    regressed = False
    for w in workloads:
        for m in spec["end_to_end"]:
            key = (w, m["name"])
            if not parent.get(key) or not change.get(key):
                print("%-16s %-18s missing runs" % key)
                continue
            p, c = parent[key], change[key]
            win_rate, v = verdict(p, c, m["bound"], m["better"] == "lower")
            regressed |= v == "regressed"
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            print("%-16s %-18s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] "
                  "%4.0f%%  %s (n=%d/%d)" % (w, m["name"], pm, p1, p3, cm, c1,
                                             c3, 100 * win_rate, v, len(p),
                                             len(c)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
