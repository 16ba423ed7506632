#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 focbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by run.py (.focbench/results/
collects them; copy the runs of each side into a directory of its own).
For every workload and metric the two sides share, prints each side's
median and quartiles, the share of same-seed pairs the change wins (ties
count for neither) and a verdict against BENCHMARK.json:

  worse       the change's median is worse than the base's by more than
              the metric's bound
  unresolved  the base's own spread (quartile distance / median) exceeds
              the bound and not every change run beats every base run
  better      the change wins >= 90% of pairs and the medians differ by
              more than the base's quartile distance
  same        otherwise

Per-layer metrics have no bound and get no worse/unresolved verdict.
Runs whose inputs digest differs between the sides for the same workload
and seed are reported: they did not measure the same inputs.
"""

import json
import os
import statistics
import sys


def load(d):
    runs = []
    for name in sorted(os.listdir(d)):
        if name.endswith(".json"):
            with open(os.path.join(d, name)) as fh:
                runs.append(json.load(fh))
    return runs


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], q[1], q[2]


def table(runs):
    """{(workload, metric): {seed: value}} plus {(workload, seed): digest}"""
    out, digests = {}, {}
    for r in runs:
        meta, res = r["meta"], r["result"]
        digests[(meta["workload"], meta["seed"])] = meta.get("inputs_digest")
        for name, m in res["metrics"].items():
            out.setdefault((meta["workload"], name), {})[meta["seed"]] = m["value"]
    return out, digests


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, base_dig = table(load(sys.argv[1]))
    change, change_dig = table(load(sys.argv[2]))

    for key in sorted(set(base_dig) & set(change_dig)):
        if base_dig[key] != change_dig[key]:
            print("!! inputs differ for %s seed %d" % key)

    print("%-12s %-34s %12s %25s %12s %25s %6s  %s" % (
        "workload", "metric", "base med", "base q1..q3", "change med", "change q1..q3", "wins", "verdict"))
    regressions = 0
    for key in sorted(set(base) & set(change)):
        workload, name = key
        m = spec.get(name, {"better": "lower"})
        sign = 1 if m["better"] == "lower" else -1
        b, c = base[key], change[key]
        bv, cv = list(b.values()), list(c.values())
        bq1, bmed, bq3 = quartiles(bv)
        cq1, cmed, cq3 = quartiles(cv)
        pairs = [(b[s], c[s]) for s in b if s in c]
        wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
        share = wins / len(pairs) if pairs else float("nan")
        verdict = "same"
        bound = m.get("bound")
        worse_by = sign * (cmed - bmed) / abs(bmed) if bmed else 0.0
        spread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
        all_better = all(sign * (x - y) > 0 for x in bv for y in cv)
        if bound is not None and worse_by > bound:
            verdict = "worse"
            regressions += 1
        elif bound is not None and spread > bound and not all_better:
            verdict = "unresolved"
        elif pairs and share >= 0.9 and abs(cmed - bmed) > (bq3 - bq1):
            verdict = "better" if sign * (bmed - cmed) > 0 else "worse-by-pairs"
        print("%-12s %-34s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g %5.0f%%  %s" % (
            workload, name, bmed, bq1, bq3, cmed, cq1, cq3, 100 * share, verdict))
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
