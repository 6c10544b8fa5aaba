"""Sweep synthetic-generator settings and compare merge methods on core recovery.

Usage:
    python scripts/recovery_sweep.py [--seeds 10] [--chain 24,48]

For each (residual_scale, shared_fraction) cell the table reports the mean
recovery angle of the pivot merge, plain weight averaging, and the best
single expert, plus how often the pivot merge beats that best expert. This
is the harness used to choose the frozen settings in the acceptance suite.
It imports numpy before pivotmerge, so pivotmerge's OPENBLAS_THREAD_TIMEOUT
default does not apply here (outputs are the same either way).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pivotmerge import (
    MergeOperator,
    PivotConfig,
    ScoreTable,
    SynthSpec,
    generate,
    merge_checkpoint_deltas,
    pivot_merge,
    recovery_score,
)


def one_cell(chain, experts, core_rank, residual_scale, fraction, seeds, inner):
    rows = []
    for seed in range(seeds):
        spec = SynthSpec.from_chain(chain, experts=experts, core_rank=core_rank,
                                    residual_scale=residual_scale,
                                    shared_residual_fraction=fraction,
                                    noise_scale=0.0, seed=seed)
        base, models, cores = generate(spec)
        table = ScoreTable(expert_ids=tuple(m.id for m in models),
                           scores=np.zeros((experts, spec.layers)))
        config = PivotConfig(rank=core_rank, inner=inner)
        merged, _ = pivot_merge(models, base, table, config)
        wa = merge_checkpoint_deltas(models, base, MergeOperator.average())
        rows.append((
            np.mean(recovery_score(merged, base, cores)),
            np.mean(recovery_score(wa, base, cores)),
            min(np.mean(recovery_score(m, base, cores)) for m in models),
        ))
    rows = np.array(rows)
    return (rows[:, 0].mean(), rows[:, 1].mean(), rows[:, 2].mean(),
            int((rows[:, 0] < rows[:, 2]).sum()))


def run(args):
    chain = [int(d) for d in args.chain.split(",")]
    inner = (MergeOperator.ties(1.0) if args.inner == "ties"
             else MergeOperator.average())
    print(f"chain={chain} experts={args.experts} core_rank={args.core_rank} "
          f"inner={args.inner} seeds={args.seeds}")
    print(f"{'resid':>6} {'shared':>7} | {'pivot':>8} {'wavg':>8} {'best':>8} "
          f"{'beats best':>10}")
    for residual_scale in args.residual_scales:
        for fraction in args.fractions:
            pivot_m, wa_m, best_m, beat = one_cell(
                chain, args.experts, args.core_rank, residual_scale, fraction,
                args.seeds, inner)
            print(f"{residual_scale:6.2f} {fraction:7.2f} | {pivot_m:8.3f} "
                  f"{wa_m:8.3f} {best_m:8.3f} {beat:>7}/{args.seeds}")


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--chain", default="24,48")
    ap.add_argument("--experts", type=int, default=3)
    ap.add_argument("--core-rank", type=int, default=4)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--inner", choices=("ties", "average"), default="ties")
    ap.add_argument("--residual-scales", type=float, nargs="+",
                    default=[0.3, 0.5, 0.8])
    ap.add_argument("--fractions", type=float, nargs="+", default=[0.0, 0.3, 0.5, 0.7])
    return ap.parse_args()


if __name__ == "__main__":
    run(parse_args())
