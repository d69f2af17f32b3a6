"""Summarize a set of benchmark results files into one record.

    python3 bench/summarize.py bench/out --out bench/baseline.json

Reads every `<workload>-seed<n>-trace<0|1>.json` in the directory and
reports, per workload: each end-to-end metric's median, quartiles and
spread (interquartile distance over the median) across the untraced runs,
the failures by type summed over them, the median of each per-layer metric
over the traced runs, and the tracing overhead: for each seed run both
traced and untraced, traced over untraced op_p50_s, minus 1.  Run the two
back to back, since this host's speed drifts by several percent over
minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path


def _spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def summarize(paths):
    runs = defaultdict(lambda: {0: [], 1: []})
    for path in sorted(paths):
        res = json.loads(Path(path).read_text())
        runs[res["workload"]][res["trace"]].append(res)
    out = {}
    machine = None
    for workload, by_trace in sorted(runs.items()):
        plain, traced = by_trace[0], by_trace[1]
        entry = {"seeds": sorted(r["seed"] for r in plain),
                 "traced_seeds": sorted(r["seed"] for r in traced)}
        if plain:
            machine = plain[0]["machine"]
            entry["seconds"] = plain[0]["seconds"]
            entry["end_to_end"] = {
                name: dict(_spread([r["end_to_end"][name]["value"] for r in plain]), unit=v["unit"])
                for name, v in plain[0]["end_to_end"].items()}
            entry["fail_frac"] = _spread([r["fail_frac"] for r in plain])
            entry["tail_percentile"] = _spread([r["tail_percentile"] for r in plain])
            entry["tail_samples"] = _spread([r["tail_samples"] for r in plain])
            entry["attempted"] = sum(r["attempted"] for r in plain)
            entry["failed"] = sum(r["failed"] for r in plain)
            entry["failures_by_type"] = dict(sorted(sum(
                (Counter(r["failures_by_type"]) for r in plain), Counter()).items()))
            entry["exceptions_by_type"] = dict(sorted(sum(
                (Counter(r["exceptions_by_type"]) for r in plain), Counter()).items()))
            entry["correct"] = all(r["correct"] for r in plain)
            if "domain_grid" in plain[0]:
                entry["domain_grid"] = plain[0]["domain_grid"]
        if traced:
            entry["per_layer"] = {
                name: {"median": statistics.median(r["per_layer"][name]["value"] for r in traced),
                       "unit": v["unit"]}
                for name, v in traced[0]["per_layer"].items()}
            untraced = {r["seed"]: r["end_to_end"]["op_p50_s"]["value"] for r in plain}
            ratios = [r["per_layer"]["trace.op_p50_s"]["value"] / untraced[r["seed"]]
                      for r in traced if r["seed"] in untraced]
            if ratios:
                entry["tracing_overhead"] = {"pairs": len(ratios),
                                             "median": statistics.median(ratios) - 1.0,
                                             "each": [x - 1.0 for x in ratios]}
        out[workload] = entry
    return {"machine": machine, "workloads": out}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("directory", type=Path)
    ap.add_argument("--out", type=Path, help="write here instead of stdout")
    args = ap.parse_args(argv)
    paths = [p for p in args.directory.glob("*-seed*-trace[01].json")]
    if not paths:
        print("no results files in %s" % args.directory, file=sys.stderr)
        return 2
    text = json.dumps(summarize(paths), indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
