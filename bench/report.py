"""Report benchmark results, and compare two sets of them.

    python3 bench/report.py [RESULTS]          # report one results file
    python3 bench/report.py RESULTS BASELINE   # report both, then compare

A results file is the JSONL that bench/run.py appends to (by default
.bench_out/results.jsonl): one record per run.  For every workload the
report prints each end-to-end metric of BENCHMARK.json by name and unit,
with the median, the quartiles and the number of runs, followed by the
correctness figures (failed_frac, limit_rel_err) and the tracing
overhead when traced runs are present.

The comparison marks each (workload, metric) pair as
  better      every run beats every baseline run, or the median improved
              by more than the baseline's own spread;
  worse       the median is worse by more than the metric's bound;
  unresolved  the spread of either side, (q3 - q1) / median, exceeds the
              bound, so the two cannot be told apart;
  unchanged   otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path):
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[rec["workload"], rec["trace"]].append(rec)
    return runs


def summary(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def report(path, bench):
    runs = load(path)
    print(f"== {path}")
    for wl in bench["workloads"]:
        name = wl["name"]
        plain, traced = runs.get((name, 0), []), runs.get((name, 1), [])
        if not plain and not traced:
            print(f"{name}: no runs")
            continue
        attempted = sum(r["attempted"] for r in plain + traced)
        failed = sum(r["failed"] for r in plain + traced)
        print(f"{name}: {len(plain)} runs, {len(traced)} traced runs, "
              f"failed_frac {failed}/{attempted} = {failed / attempted:.3g}")
        for m in bench["end_to_end"]:
            vals = metric_values(plain, m["name"])
            if vals:
                med, q1, q3 = summary(vals)
                print(f"  {m['name']:<14} {med:12.6g} {m['unit']:<6} "
                      f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread(vals):.3f}  n {len(vals)}")
        errs = [r["limit_rel_err"] for r in plain + traced if r["limit_rel_err"] is not None]
        if errs:
            print(f"  {'limit_rel_err':<14} {statistics.median(errs):12.6g} 1      "
                  f"min {min(errs):.6g}  max {max(errs):.6g}  n {len(errs)}")
        for key in ("trace.overhead_s", "trace.attributed_frac"):
            vals = metric_values(traced, key)
            if vals:
                med, q1, q3 = summary(vals)
                print(f"  {key:<22} {med:10.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(vals)}")
    return runs


def verdict(new, base, metric):
    lower = metric["better"] == "lower"
    if (max(new) < min(base)) if lower else (min(new) > max(base)):
        return "better"
    if max(spread(new), spread(base)) > metric["bound"]:
        return "unresolved"
    m1, m0 = summary(new)[0], summary(base)[0]
    worse_by = (m1 - m0) / abs(m0) * (1.0 if lower else -1.0)
    if worse_by > metric["bound"]:
        return "worse"
    if -worse_by > spread(base):
        return "better"
    return "unchanged"


def compare(new_runs, base_runs, bench):
    print("== comparison (first file against the baseline)")
    for wl in bench["workloads"]:
        new, base = new_runs.get((wl["name"], 0), []), base_runs.get((wl["name"], 0), [])
        for m in bench["end_to_end"]:
            nv, bv = metric_values(new, m["name"]), metric_values(base, m["name"])
            if not nv or not bv:
                continue
            change = (summary(nv)[0] - summary(bv)[0]) / abs(summary(bv)[0])
            print(f"  {wl['name']:<26} {m['name']:<14} {change:+8.2%}  bound {m['bound']:.0%}  "
                  f"{verdict(nv, bv, m)}")


def main(argv):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    paths = argv or [str(ROOT / ".bench_out" / "results.jsonl")]
    if len(paths) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs = [report(p, bench) for p in paths]
    if len(runs) == 2:
        compare(runs[0], runs[1], bench)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
