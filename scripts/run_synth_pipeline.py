"""End-to-end demo: generate synthetic experts, merge them every way, score recovery.

Usage:
    python scripts/run_synth_pipeline.py --workdir /tmp/pivot-demo [--seed 7]

Writes the synthetic inputs, runs every merge method plus the analysis modes
through the CLI, and prints recovery angles against the planted core.
It imports numpy before pivotmerge, so pivotmerge's OPENBLAS_THREAD_TIMEOUT
default does not apply here (outputs are the same either way).
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pivotmerge import load_checkpoint, load_ground_truth, read_container, recovery_score
from pivotmerge.cli import main as cli


def run(args):
    work = Path(args.workdir)
    assert cli(["synth", "--out", str(work / "inputs"), "--seed", str(args.seed),
                "--dims", args.dims, "--core-rank", str(args.core_rank),
                "--residual-scale", str(args.residual_scale),
                "--shared-fraction", str(args.shared_fraction)]) == 0

    inputs = work / "inputs"
    experts = sorted(str(p) for p in inputs.glob("expert*.tensors"))
    expert_flags = [flag for p in experts for flag in ("--expert", p)]
    base_flag = ["--base", str(inputs / "base.tensors")]

    merged_paths = {}
    for method in ("average", "task-arithmetic", "ties", "dare-ties", "pivot"):
        out = work / f"merged_{method}.tensors"
        cmd = ["merge", "--method", method, *base_flag, *expert_flags, "--out", str(out)]
        if method == "pivot":
            cmd += ["--rank", str(args.rank), "--scores", str(inputs / "scores.json"),
                    "--diagnostics", str(work / "pivot_diagnostics.json")]
        assert cli(cmd) == 0
        merged_paths[method] = out

    for mode in ("residual-sim", "principal-angles"):
        assert cli(["analyze", "--mode", mode, *base_flag, *expert_flags,
                    "--out", str(work / mode), "--rank", str(args.rank)]) == 0
    assert cli(["analyze", "--mode", "layer-weights",
                "--scores", str(inputs / "scores.json"),
                "--out", str(work / "layer-weights")]) == 0

    base = load_checkpoint(inputs / "base.tensors")
    cores = load_ground_truth(read_container(inputs / "ground_truth.tensors"))
    print("\nrecovery angle to planted core (mean degrees, lower is better):")
    for path in experts:
        ck = load_checkpoint(path)
        print(f"  {ck.id:>14}: {np.mean(recovery_score(ck, base, cores)):7.3f}")
    for method, path in merged_paths.items():
        ck = load_checkpoint(path)
        print(f"  {method:>14}: {np.mean(recovery_score(ck, base, cores)):7.3f}")

    summary = json.loads((work / "residual-sim" / "summary.json").read_text())
    print(f"\nresidual similarity before filtering: {summary['mean_offdiagonal_before']:.4f}")
    print(f"residual similarity after filtering:  {summary['mean_offdiagonal_after']:.4f}")
    print(f"\nartifacts under {work}")


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", default="/tmp/pivotmerge-demo")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--dims", default="12,32")
    ap.add_argument("--core-rank", type=int, default=4)
    ap.add_argument("--rank", type=int, default=4)
    ap.add_argument("--residual-scale", type=float, default=1.0)
    ap.add_argument("--shared-fraction", type=float, default=0.3)
    return ap.parse_args()


if __name__ == "__main__":
    run(parse_args())
