"""Median, quartiles and spread of each metric over the records in .bench_results/.

    python3 perfbench/summarize.py [--trace 0|1] [--json FILE]

Groups the records that run.py wrote by workload and prints, per metric,
the number of runs, the median, the first and third quartiles, and the
spread: (q3 - q1) / median, with quartiles as `statistics.quantiles(n=4)`
gives them.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".bench_results"


def _build(child: dict) -> dict:
    """Python, numpy and BLAS/LAPACK identity, without install paths."""
    keys = ("name", "version", "openblas configuration")
    return {"python": child.get("python"), "numpy": child.get("numpy"),
            **{lib: {k: v for k, v in info.items() if k in keys}
               for lib, info in child.get("blas", {}).items()}}


def summarize(trace: int) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    threads, provenance = {}, {}
    for path in sorted(RESULTS.glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        provenance = record["provenance"]
        seeds[record["workload"]].append(provenance["seed"])
        threads[record["workload"]] = {
            "nproc": provenance["machine"]["nproc"],
            "layer_workers": provenance["child"]["layer_workers"],
            "blas_threads": provenance["child"]["blas_threads"]}
        for name, metric in record["result"]["metrics"].items():
            values[record["workload"]][name].append(metric["value"])
    summary = {"machine": provenance.get("machine"),
               "build": _build(provenance.get("child", {})),
               "git_commit": provenance.get("git_commit"),
               "workloads": {}}
    for workload, metrics in values.items():
        entry = {"seeds": sorted(seeds[workload]), "threads": threads[workload], "metrics": {}}
        summary["workloads"][workload] = entry
        for name, vals in metrics.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            entry["metrics"][name] = {
                "n": len(vals), "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else None}
    return summary


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="also write the summary here")
    args = ap.parse_args()
    summary = summarize(args.trace)
    for workload, entry in summary["workloads"].items():
        print(f"{workload}  ({len(entry['seeds'])} runs, threads {entry['threads']})")
        for name, m in entry["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:<42} median {m['median']:>12.6g}  q1 {m['q1']:>12.6g}  "
                  f"q3 {m['q3']:>12.6g}  spread {spread}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
