"""One invocation of a workload inside this process, traced or not.

    python3 perfbench/inproc.py --workload NAME --seed N --inputs DIR --out DIR \
        --result FILE [--spans FILE]

It builds the workload's inputs from the seed into DIR, runs the workload's
CLI commands on them and writes their wall time to FILE. With --spans the
tracer is installed first, the set-up and the commands run under
`bench.setup` and `bench.invocation` spans, the spans go to the --spans
file and the per-layer metrics to FILE. Both kinds of run do the same
work, so their difference in wall time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pivotmerge.cli  # noqa: E402  (imported before timing starts)

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, build_inputs, command_lines  # noqa: E402


def run_commands(lines: list[list[str]]) -> list[int]:
    # Looked up on the module at call time, so the traced wrapper is used.
    return [pivotmerge.cli.main(line) for line in lines]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)

    tracer = tracing.Tracer()
    if args.spans is not None:
        tracer.install()
    try:
        with tracer.span("bench.setup"):
            inputs, _ = build_inputs(workload, args.seed, args.inputs)
        lines = command_lines(workload, inputs, args.out)
        with tracer.span("bench.invocation") as window:
            codes = run_commands(lines)
    finally:
        tracer.uninstall()
    result = {"wall_s": window.seconds, "returncodes": codes}
    if args.spans is not None:
        result["metrics"] = tracing.layer_metrics(tracer.spans, window, tracer.errors)
        spans = sorted(tracer.spans, key=lambda s: s.start)
        args.spans.write_text(json.dumps([dataclasses.asdict(s) for s in spans]),
                              encoding="utf-8")
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
