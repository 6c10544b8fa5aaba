"""pivotmerge benchmark: one client drives the `pivotmerge` CLI in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the repository root. The program is run from `src/` as
`python3 -m pivotmerge.cli`, one child process at a time; the next starts
only after the previous one exits. Inputs come from the seed alone (see
workloads.py) and children get an environment without thread settings, so
the program's own threading defaults are measured.

--trace 0 builds the inputs several times (`setup_s` is the median),
runs one untimed warm-up invocation, then invocations until --seconds have
passed, and reports the medians of the end-to-end metrics. --trace 1 runs,
until --seconds have passed, pairs of in-process invocations, one plain and
one under the span tracer (tracer.py), and reports the per-layer metrics.
Every invocation's outputs are checked (checks.py); a failure counts toward
`error_rate`. The last stdout line is the JSON result; the full record,
with provenance and every sample, goes to .bench_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Besides every *_NUM_THREADS variable.
THREAD_ENV = ("PIVOTMERGE_THREADS", "VECLIB_MAXIMUM_THREADS")


def clean_environ(environ) -> dict:
    """`environ` without thread settings, with the checkout's sources on PYTHONPATH."""
    env = {k: v for k, v in environ.items()
           if k not in THREAD_ENV and not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pivotmerge closed-loop CLI benchmark")
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pivotmerge" / "cli.py").is_file():
        print(f"error: no pivotmerge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = clean_environ(os.environ)
    # numpy reads its thread settings at import, so this process drops them too.
    for name in set(os.environ) - set(env):
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import pivotmerge

    workloads = harness.WORKLOADS
    try:
        if Path(pivotmerge.__file__).resolve().parent != ROOT / "src" / "pivotmerge":
            raise harness.SetupError(
                f"imported pivotmerge from {pivotmerge.__file__}, not {ROOT / 'src'}")
        spec = harness.load_spec()
        if args.workload == "all":
            chosen = list(workloads.values())
        elif args.workload in workloads:
            chosen = [workloads[args.workload]]
        else:
            raise harness.SetupError(f"unknown workload {args.workload!r}; choose from "
                                     f"{', '.join(workloads)} or all")
        results = {w.name: harness.run_workload(w, args, spec, env) for w in chosen}
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
