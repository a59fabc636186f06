#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR [--layers]

Each directory holds at least ten result files from runs of one
commit. A file is either the --out file of `benchmark/run.sh`
({"seed": N, "workloads": {"<workload>": <result>}}) or one taskpoint_bench
result line saved as `<workload>[anything].json`. Files pair up in
name order, so name them by run number and alternate which side runs
first.

For every (workload, metric) pair the report gives each side's median
and quartiles (statistics.quantiles, n=4), the fraction of pairs the
change wins (ties count for neither) and a verdict:

  gain        the change wins at least 9 in 10 pairs and the medians
              differ by more than the parent's interquartile range
  regression  the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  either side's interquartile range, as a share of its
              median, exceeds the bound, unless every change run beats
              every parent run
  unchanged   otherwise

End-to-end metrics and bounds come from BENCHMARK.json; --layers adds
the per-layer metrics, which have no bound, so they can only read as
gain or unchanged. Exits 1 when any regression is found, 2 on bad
input.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_RUNS = 10


def load_side(directory, workloads):
    """Return {workload: [metrics dict per run]} in file-name order."""
    runs = {w: [] for w in workloads}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            continue
        data = json.loads(lines[-1])
        if "workloads" in data:
            for w, result in data["workloads"].items():
                if w in runs:
                    runs[w].append(result["metrics"])
            continue
        for w in sorted(workloads, key=len, reverse=True):
            if name.startswith(w):
                runs[w].append(data["metrics"])
                break
    return runs


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values):
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent, change, better, bound):
    pairs = list(zip(parent, change))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_med, p_q1, p_q3 = summary(parent)
    c_med = summary(change)[0]
    gap = sign * (c_med - p_med)
    dominates = all(sign * (c - p) > 0 for c in change for p in parent)
    if gap > 0 and wins >= 0.9 * len(pairs) and gap > p_q3 - p_q1:
        return wins, len(pairs), "gain"
    if bound is not None:
        if -gap > bound * abs(p_med):
            return wins, len(pairs), "regression"
        if max(spread(parent), spread(change)) > bound and not dominates:
            return wins, len(pairs), "unresolved"
    return wins, len(pairs), "unchanged"


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    if len(args) != 2 or any(a not in ("--layers",)
                             for a in argv[1:] if a.startswith("--")):
        print("usage: compare.py PARENT_DIR CHANGE_DIR [--layers]",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [(m["name"], m["unit"], m["better"], m["bound"])
               for m in bench["end_to_end"]]
    if "--layers" in argv:
        metrics += [(m["name"], m["unit"], m["better"], None)
                    for m in bench["per_layer"]]
    parent = load_side(args[0], workloads)
    change = load_side(args[1], workloads)

    header = ("workload", "metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "wins", "verdict")
    rows = []
    regressions = 0
    for w in workloads:
        for side, runs in (("parent", parent[w]), ("change", change[w])):
            if len(runs) < MIN_RUNS:
                print(f"{w}: {len(runs)} {side} runs, need {MIN_RUNS}",
                      file=sys.stderr)
                return 2
        for name, unit, better, bound in metrics:
            p = [r[name]["value"] for r in parent[w] if name in r]
            c = [r[name]["value"] for r in change[w] if name in r]
            if len(p) < MIN_RUNS or len(c) < MIN_RUNS:
                continue
            wins, pairs, v = verdict(p, c, better, bound)
            regressions += v == "regression"
            rows.append((w, name, unit,
                         "%.6g [%.6g, %.6g]" % summary(p),
                         "%.6g [%.6g, %.6g]" % summary(c),
                         f"{wins}/{pairs}", v))
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(x).ljust(widths[i])
                        for i, x in enumerate(r)).rstrip())
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
