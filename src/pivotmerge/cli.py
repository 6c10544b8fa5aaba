"""Command-line interface.

Subcommands::

    pivotmerge synth   --out DIR [generator flags]
    pivotmerge merge   --method METHOD --base PATH --expert PATH ... --out PATH [flags]
    pivotmerge analyze --mode MODE --base PATH --expert PATH ... --out DIR [flags]

Exit codes: 0 on success, 1 on computation failure, 2 on usage errors,
including an expert set with duplicate ids or a layout that does not match
the base. Experts are always processed in lexicographic id order regardless
of flag order. Layers run serially; BLAS threads are the only parallelism,
and output is byte-identical run to run at a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis
from .linalg import NumericalError
from .operators import MergeOperator, merge_checkpoint_deltas
from .pivot import PivotConfig, pivot_merge
from .scores import DEFAULT_BETA, ScoreTable, layer_weights, read_scores, score_increments, write_scores
from .synth import SynthSpec, generate, ground_truth_tensors
from .tensorstore import (ContainerError, load_checkpoint, save_checkpoint, sorted_experts,
                          write_container)

METHODS = ("average", "task-arithmetic", "ties", "dare-ties", "pivot")
INNER_METHODS = ("average", "task-arithmetic", "ties", "dare-ties")
ANALYZE_MODES = ("residual-sim", "principal-angles", "layer-weights")

_KIND_BY_METHOD = {
    "average": "weight_average",
    "task-arithmetic": "task_arithmetic",
    "ties": "ties",
    "dare-ties": "dare_ties",
}
# Baseline TIES trims at 0.2 by default; inside the pivot pipeline the inner
# operator keeps everything unless --trim says otherwise.
BASELINE_TRIM = 0.2
PIVOT_INNER_TRIM = 1.0
DEFAULT_DROP = 0.5


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _add_checkpoint_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--base", required=True, help="base (shared initialization) checkpoint")
    sub.add_argument("--expert", action="append", required=True, metavar="PATH",
                     help="expert checkpoint (repeat for each expert)")


def _add_pipeline_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scores", help="score JSON file (required for pivot)")
    sub.add_argument("--rank", type=_positive_int, default=64, help="core rank (default 64)")
    sub.add_argument("--gamma", type=float, default=20.0, help="mask sharpness (default 20.0)")
    sub.add_argument("--rho", type=float, default=0.5, help="retention ratio (default 0.5)")
    sub.add_argument("--beta", type=float, default=None,
                     help="softmax temperature (default: score file value, else 0.05)")
    sub.add_argument("--trim", type=float, default=None,
                     help="ties trim fraction (default 0.2 baseline, 1.0 inside pivot)")
    sub.add_argument("--lambda", dest="lam", type=float, default=1.0,
                     help="task-arithmetic scale (default 1.0)")
    sub.add_argument("--drop", type=float, default=DEFAULT_DROP,
                     help=f"dare drop rate (default {DEFAULT_DROP})")
    sub.add_argument("--seed", type=int, default=0, help="dare seed (default 0)")
    sub.add_argument("--inner", choices=INNER_METHODS, default="ties",
                     help="inner operator for pivot (default ties)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pivotmerge",
                                     description="Merge multi-layer projector checkpoints.")
    subs = parser.add_subparsers(dest="command", required=True)

    merge = subs.add_parser("merge", help="merge expert checkpoints into one")
    merge.add_argument("--method", choices=METHODS, required=True)
    _add_checkpoint_flags(merge)
    merge.add_argument("--out", required=True, help="output checkpoint path")
    _add_pipeline_flags(merge)
    merge.add_argument("--diagnostics", help="write a diagnostics JSON here")
    merge.set_defaults(handler=cmd_merge)

    analyze = subs.add_parser("analyze", help="emit similarity / angle / weight reports")
    analyze.add_argument("--mode", choices=ANALYZE_MODES, required=True)
    analyze.add_argument("--base", help="base checkpoint (required except for layer-weights)")
    analyze.add_argument("--expert", action="append", metavar="PATH",
                         help="expert checkpoint (repeat for each expert)")
    analyze.add_argument("--out", required=True, help="output directory")
    _add_pipeline_flags(analyze)
    analyze.set_defaults(handler=cmd_analyze)

    synth = subs.add_parser("synth", help="generate synthetic experts with a planted core")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--experts", type=_positive_int, default=5)
    synth.add_argument("--dims", default="8,16,16",
                       help="dimension chain d0,d1,...,dL (default 8,16,16)")
    synth.add_argument("--core-rank", type=_positive_int, default=4)
    synth.add_argument("--residual-scale", type=float, default=0.5)
    synth.add_argument("--shared-fraction", type=float, default=0.0)
    synth.add_argument("--noise-scale", type=float, default=0.01)
    synth.add_argument("--seed", type=int, default=7)
    synth.set_defaults(handler=cmd_synth)

    return parser


def _check_pipeline_flags(parser: argparse.ArgumentParser, args) -> None:
    if not 0.0 < args.rho < 1.0:
        parser.error(f"--rho must be in (0, 1), got {args.rho}")
    if not args.gamma > 0.0:
        parser.error(f"--gamma must be positive, got {args.gamma}")
    if args.beta is not None and not args.beta > 0.0:
        parser.error(f"--beta must be positive, got {args.beta}")
    if args.trim is not None and not 0.0 < args.trim <= 1.0:
        parser.error(f"--trim must be in (0, 1], got {args.trim}")
    if not 0.0 <= args.drop < 1.0:
        parser.error(f"--drop must be in [0, 1), got {args.drop}")
    if not args.lam > 0.0:
        parser.error(f"--lambda must be positive, got {args.lam}")


def _operator_for(method: str, args, is_inner: bool) -> MergeOperator:
    kind = _KIND_BY_METHOD[method]
    trim_default = PIVOT_INNER_TRIM if is_inner else BASELINE_TRIM
    trim = args.trim if args.trim is not None else trim_default
    if kind == "weight_average":
        return MergeOperator.average()
    if kind == "task_arithmetic":
        return MergeOperator.arithmetic(args.lam)
    if kind == "ties":
        return MergeOperator.ties(trim)
    return MergeOperator.dare_ties(trim, args.drop, args.seed)


def _load_experts(parser: argparse.ArgumentParser, paths, base) -> list:
    experts = [load_checkpoint(p) for p in paths]
    try:
        return sorted_experts(experts, base)
    except ValueError as exc:
        parser.error(f"--expert: {exc}")


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_merge(parser: argparse.ArgumentParser, args) -> int:
    _check_pipeline_flags(parser, args)
    if args.method == "pivot" and not args.scores:
        parser.error("--scores is required when --method is pivot")
    base = load_checkpoint(args.base)
    experts = _load_experts(parser, args.expert, base)

    if args.method == "pivot":
        table = read_scores(args.scores)
        config = PivotConfig(rank=args.rank, gamma=args.gamma, rho=args.rho, beta=args.beta,
                             inner=_operator_for(args.inner, args, is_inner=True))
        merged, diagnostics = pivot_merge(experts, base, table, config)
    else:
        op = _operator_for(args.method, args, is_inner=False)
        merged = merge_checkpoint_deltas(experts, base, op)
        diagnostics = {
            "method": args.method,
            "expert_ids": [e.id for e in experts],
            "params": {
                "trim_fraction": op.trim_fraction,
                "scale": op.scale,
                "drop_rate": op.drop_rate,
                "seed": op.seed,
            },
        }
    save_checkpoint(args.out, merged)
    if args.diagnostics:
        _write_json(args.diagnostics, diagnostics)
    print(f"wrote merged checkpoint to {args.out}")
    return 0


def cmd_analyze(parser: argparse.ArgumentParser, args) -> int:
    _check_pipeline_flags(parser, args)
    if args.mode == "layer-weights":
        if not args.scores:
            parser.error("--scores is required for --mode layer-weights")
        table = read_scores(args.scores)
        beta = args.beta if args.beta is not None else table.beta
        alpha = layer_weights(score_increments(table.scores), beta).alpha
        analysis.emit_report(
            {"mode": args.mode, "expert_ids": list(table.expert_ids), "beta": beta,
             "alpha": [[float(v) for v in row] for row in alpha]},
            {"layer_weights": alpha}, args.out)
        print(f"wrote layer-weight report to {args.out}")
        return 0

    if not args.base or not args.expert:
        parser.error(f"--base and --expert are required for --mode {args.mode}")
    if len(args.expert) < 2:
        parser.error(f"--mode {args.mode} needs at least two --expert checkpoints")
    base = load_checkpoint(args.base)
    experts = _load_experts(parser, args.expert, base)
    config = PivotConfig(rank=args.rank, gamma=args.gamma, rho=args.rho,
                         inner=_operator_for(args.inner, args, is_inner=True))
    ids = [e.id for e in experts]

    if args.mode == "residual-sim":
        raw, filtered, layer_stats = analysis.collect_residuals(experts, base, config)
        before = analysis.residual_similarity(raw)
        after = analysis.residual_similarity(filtered)
        analysis.emit_report(
            {"mode": args.mode, "expert_ids": ids,
             "mean_offdiagonal_before": analysis.mean_offdiagonal(before),
             "mean_offdiagonal_after": analysis.mean_offdiagonal(after),
             "layers": layer_stats},
            {"residual_similarity_before": before, "residual_similarity_after": after},
            args.out)
    else:
        raw, filtered = analysis.collect_coefficients(experts, base, config)
        before = analysis.pairwise_principal_angles(raw)
        after = analysis.pairwise_principal_angles(filtered)
        analysis.emit_report(
            {"mode": args.mode, "expert_ids": ids,
             "mean_angle_raw": analysis.mean_offdiagonal(before),
             "mean_angle_filtered": analysis.mean_offdiagonal(after)},
            {"principal_angles_raw": before, "principal_angles_filtered": after},
            args.out)
    print(f"wrote {args.mode} report to {args.out}")
    return 0


def cmd_synth(parser: argparse.ArgumentParser, args) -> int:
    try:
        chain = [int(part) for part in args.dims.split(",")]
    except ValueError:
        parser.error(f"--dims must be a comma-separated integer chain, got {args.dims!r}")
    if not 0.0 <= args.shared_fraction <= 1.0:
        parser.error(f"--shared-fraction must be in [0, 1], got {args.shared_fraction}")
    if args.residual_scale < 0 or args.noise_scale < 0:
        parser.error("--residual-scale and --noise-scale must be non-negative")
    try:
        spec = SynthSpec.from_chain(chain, experts=args.experts, core_rank=args.core_rank,
                                    residual_scale=args.residual_scale,
                                    shared_residual_fraction=args.shared_fraction,
                                    noise_scale=args.noise_scale, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base, experts, core_bases = generate(spec)
    save_checkpoint(out / "base.tensors", base)
    for ck in experts:
        save_checkpoint(out / f"{ck.id}.tensors", ck)
    write_container(out / "ground_truth.tensors", ground_truth_tensors(core_bases))
    _write_json(out / "spec.json", spec.to_dict())
    # Flat scores give uniform layer weights; replace with measured scores when available.
    table = ScoreTable(expert_ids=tuple(ck.id for ck in experts),
                       scores=[[0.0] * spec.layers for _ in experts], beta=DEFAULT_BETA)
    write_scores(out / "scores.json", table)
    print(f"wrote base + {len(experts)} experts + ground truth to {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(parser, args)
    except (ValueError, ContainerError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
