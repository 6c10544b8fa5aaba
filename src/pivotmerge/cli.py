"""Command-line interface.

Subcommands::

    pivotmerge synth   --out DIR [generator flags]
    pivotmerge merge   --method METHOD --base PATH --expert PATH ... --out PATH [flags]
    pivotmerge analyze --mode MODE --base PATH --expert PATH ... --out DIR [flags]

Exit codes: 0 on success, 1 on computation failure, 2 on usage errors,
including an expert set with duplicate ids, a layout that does not match
the base, a `--scores` file that lacks an expert's id or has the wrong
number of layers, a merge output (`--out` or `--diagnostics`) that is
another output or one of the inputs (`--base`, an `--expert`, `--scores`),
a merge output file that names a directory or lies in a missing one, or an
analyze or synth `--out` that exists and is not a directory; each output
path is checked before any input is opened. Each warning is printed to
stderr on one line, `warning: <message>`. Each value is checked once, by
the object that holds it: the `PivotConfig`, `MergeOperator` or `SynthSpec`
built from the flags before any input is opened, whose rejection is a usage
error naming the flag, or the `ScoreTable` read from the score file.
Experts are always processed in lexicographic id order regardless of flag
order. Layers run serially; BLAS threads are the only parallelism, and
output is byte-identical run to run at a fixed BLAS thread count. A
factorization of a matrix with no dimension above 128 runs on one OpenBLAS
thread (`linalg._ONE_THREAD_ORDER`), where 1 and 2 threads give the same
bytes, and the count is restored after it. Importing the package first sets
OPENBLAS_THREAD_TIMEOUT=18, so an idle OpenBLAS worker sleeps after 2^18
cycles instead of spinning 2^28 between the kernel's LAPACK calls. It acts
only when numpy is not loaded yet, a value in the environment wins, and it
changes no output.

`merge` and `analyze` open the base and every expert with
`tensorstore.open_checkpoint` under one `contextlib.ExitStack`, so every
header is checked before any layer is computed, and each kernel reads each
layer of each input once, when it needs it. A fault in a layer's bytes (a
NaN or Inf, or a file cut after it was opened) exits 1 naming the file and
the layer or tensor; nothing is written then. Running out of memory exits
1 with one line, `error: out of memory: <message>`, and writes nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import warnings
from pathlib import Path

from . import analysis
from .linalg import NumericalError
from .operators import MergeOperator, merge_checkpoint_deltas
from .pivot import PivotConfig, pivot_merge
from .scores import DEFAULT_BETA, ScoreTable, layer_weights, read_scores, score_increments, write_scores
from .synth import SynthSpec, generate, ground_truth_tensors
from .tensorstore import (ContainerError, open_checkpoint, save_checkpoint, sorted_experts,
                          write_container, write_json)

METHODS = ("average", "task-arithmetic", "ties", "dare-ties", "pivot")
INNER_METHODS = ("average", "task-arithmetic", "ties", "dare-ties")
ANALYZE_MODES = ("residual-sim", "principal-angles", "layer-weights")
PIPELINE_FLAGS = ("scores", "rank", "gamma", "rho", "beta")
OPERATOR_FLAGS = ("trim", "lambda", "drop", "seed", "inner")
# The optional flags each merge method, pivot inner operator and analyze mode
# reads; giving any other is a usage error. Pivot also reads its inner's flags.
READS = {"average": (), "task-arithmetic": ("lambda",), "ties": ("trim",),
         "dare-ties": ("trim", "drop", "seed"), "pivot": PIPELINE_FLAGS + ("inner",),
         "residual-sim": ("base", "expert", "rank", "gamma", "rho"),
         "principal-angles": ("base", "expert", "rank", "gamma", "rho"),
         "layer-weights": ("scores", "beta")}

# Baseline TIES trims at 0.2 by default; inside the pivot pipeline the inner
# operator keeps everything unless --trim says otherwise.
BASELINE_TRIM = 0.2
PIVOT_INNER_TRIM = 1.0
DEFAULT_LAMBDA = 1.0
DEFAULT_DROP = 0.5
DEFAULT_SEED = 0
DEFAULT_INNER = "ties"
# The flag that sets each field of PivotConfig, MergeOperator and SynthSpec.
FLAGS = {"rank": "--rank", "gamma": "--gamma", "rho": "--rho", "beta": "--beta",
         "trim_fraction": "--trim", "scale": "--lambda", "drop_rate": "--drop",
         "dims": "--dims", "experts": "--experts", "core_rank": "--core-rank",
         "residual_scale": "--residual-scale", "shared_residual_fraction": "--shared-fraction",
         "noise_scale": "--noise-scale"}


def _add_checkpoint_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--base", required=True, help="base (shared initialization) checkpoint")
    sub.add_argument("--expert", action="append", required=True, metavar="PATH",
                     help="expert checkpoint (repeat for each expert)")


def _add_pipeline_flags(sub: argparse.ArgumentParser) -> None:
    """Decompose and score flags, read by both merge and analyze."""
    sub.add_argument("--scores", help="score JSON file (required for pivot and layer-weights)")
    sub.add_argument("--rank", type=int,
                     help=f"core rank (default {PivotConfig.rank})")
    sub.add_argument("--gamma", type=float,
                     help=f"mask sharpness (default {PivotConfig.gamma})")
    sub.add_argument("--rho", type=float, help=f"retention ratio (default {PivotConfig.rho})")
    sub.add_argument("--beta", type=float, default=None,
                     help="softmax temperature (default: score file value, else 0.05)")


def _add_operator_flags(sub: argparse.ArgumentParser) -> None:
    """Merge-operator flags, read by merge only."""
    sub.add_argument("--trim", type=float, default=None,
                     help="ties trim fraction (default 0.2 baseline, 1.0 inside pivot)")
    sub.add_argument("--lambda", type=float,
                     help=f"task-arithmetic scale (default {DEFAULT_LAMBDA})")
    sub.add_argument("--drop", type=float, help=f"dare drop rate (default {DEFAULT_DROP})")
    sub.add_argument("--seed", type=int, help=f"dare seed (default {DEFAULT_SEED})")
    sub.add_argument("--inner", choices=INNER_METHODS,
                     help=f"inner operator for pivot (default {DEFAULT_INNER})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pivotmerge",
                                     description="Merge multi-layer projector checkpoints.")
    subs = parser.add_subparsers(dest="command", required=True)

    merge = subs.add_parser("merge", help="merge expert checkpoints into one")
    merge.add_argument("--method", choices=METHODS, required=True)
    _add_checkpoint_flags(merge)
    merge.add_argument("--out", required=True, help="output checkpoint path")
    _add_pipeline_flags(merge)
    _add_operator_flags(merge)
    merge.add_argument("--diagnostics", help="write a diagnostics JSON here")
    merge.set_defaults(handler=cmd_merge, parser=merge)

    analyze = subs.add_parser("analyze", help="emit similarity / angle / weight reports")
    analyze.add_argument("--mode", choices=ANALYZE_MODES, required=True)
    analyze.add_argument("--base", help="base checkpoint (required except for layer-weights)")
    analyze.add_argument("--expert", action="append", metavar="PATH",
                         help="expert checkpoint (repeat for each expert)")
    analyze.add_argument("--out", required=True, help="output directory")
    _add_pipeline_flags(analyze)
    analyze.set_defaults(handler=cmd_analyze, parser=analyze)

    synth = subs.add_parser("synth", help="generate synthetic experts with a planted core")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--experts", type=int, default=5)
    synth.add_argument("--dims", default="8,16,16",
                       help="dimension chain d0,d1,...,dL (default 8,16,16)")
    synth.add_argument("--core-rank", type=int, default=4)
    synth.add_argument("--residual-scale", type=float, default=0.5)
    synth.add_argument("--shared-fraction", type=float, default=0.0)
    synth.add_argument("--noise-scale", type=float, default=0.01)
    synth.add_argument("--seed", type=int, default=7)
    synth.set_defaults(handler=cmd_synth, parser=synth)

    return parser


def _reject_unread_flags(parser: argparse.ArgumentParser, args, flags, reads, reader: str) -> None:
    for name in flags:
        if getattr(args, name) is not None and name not in reads:
            parser.error(f"--{name} is not read by {reader}")


@contextlib.contextmanager
def _flag_errors(parser: argparse.ArgumentParser):
    """Turn a settings object's ValueError, which begins with the field, into one naming the flag."""
    try:
        yield
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        parser.error(f"{FLAGS.get(field, field)} {rest}")


def _pivot_config(args, **fields) -> PivotConfig:
    """PivotConfig from the pipeline flags given; PivotConfig holds the defaults."""
    given = {name: getattr(args, name) for name in ("rank", "gamma", "rho", "beta")
             if getattr(args, name) is not None}
    return PivotConfig(**given, **fields)


def _given(value, default):
    return default if value is None else value


def _operator_for(method: str, args, is_inner: bool) -> MergeOperator:
    """The operator `method` names, its flags resolved against their defaults."""
    if method == "average":
        return MergeOperator.average()
    if method == "task-arithmetic":
        return MergeOperator.arithmetic(_given(getattr(args, "lambda"), DEFAULT_LAMBDA))
    trim = _given(args.trim, PIVOT_INNER_TRIM if is_inner else BASELINE_TRIM)
    if method == "ties":
        return MergeOperator.ties(trim)
    return MergeOperator.dare_ties(trim, _given(args.drop, DEFAULT_DROP),
                                   _given(args.seed, DEFAULT_SEED))


def _open_inputs(parser: argparse.ArgumentParser, stack: contextlib.ExitStack, args) -> tuple:
    """The base and the experts in id order, opened on `stack` with every header checked.

    No layer is read here: a malformed file, duplicate ids or a layout that
    does not match the base fail before any layer is computed.
    """
    base = stack.enter_context(open_checkpoint(args.base))
    experts = [stack.enter_context(open_checkpoint(p)) for p in args.expert]
    try:
        return base, sorted_experts(experts, base)
    except ValueError as exc:
        parser.error(f"--expert: {exc}")


def _same_file(a, b) -> bool:
    """Whether paths `a` and `b` name one file: the same real path, or one existing file."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # either one does not exist yet
        return False


def _check_output_file(parser: argparse.ArgumentParser, flag: str, path: str) -> None:
    """Reject a file output that names a directory or whose directory does not exist."""
    target = os.path.realpath(path)  # atomic_write replaces a symlink's target
    if os.path.isdir(target):
        parser.error(f"{flag} {path} is a directory")
    parent = os.path.dirname(target)
    if not os.path.isdir(parent):
        parser.error(f"{flag} {path}: directory {parent} does not exist")


def _check_output_dir(parser: argparse.ArgumentParser, path: str) -> None:
    """Reject a directory output `--out` that exists and is not a directory."""
    if os.path.exists(path) and not os.path.isdir(path):
        parser.error(f"--out {path} exists and is not a directory")


def cmd_merge(parser: argparse.ArgumentParser, args) -> int:
    inner = _given(args.inner, DEFAULT_INNER)
    reads, reader = READS[args.method], f"--method {args.method}"
    if args.method == "pivot":
        reads, reader = reads + READS[inner], f"{reader} --inner {inner}"
    _reject_unread_flags(parser, args, PIPELINE_FLAGS + OPERATOR_FLAGS, reads, reader)
    # No output may replace another output or an input.
    outputs = [("--out", args.out)]
    if args.diagnostics:
        outputs.append(("--diagnostics", args.diagnostics))
    inputs = [("--base", args.base)] + [("--expert", path) for path in args.expert]
    if args.scores:
        inputs.append(("--scores", args.scores))
    for i, (flag, path) in enumerate(outputs):
        _check_output_file(parser, flag, path)
        for other, other_path in outputs[:i] + inputs:
            if _same_file(path, other_path):
                parser.error(f"{flag} {path} names the same file as {other} {other_path}")
    pivot = args.method == "pivot"
    with _flag_errors(parser):
        op = _operator_for(inner if pivot else args.method, args, is_inner=pivot)
        config = _pivot_config(args, inner=op) if pivot else None
    if pivot and not args.scores:
        parser.error("--scores is required when --method is pivot")
    with contextlib.ExitStack() as stack:
        base, experts = _open_inputs(parser, stack, args)
        if pivot:
            table = read_scores(args.scores)
            try:
                table.rows_for([e.id for e in experts], base.num_layers)
            except ValueError as exc:
                parser.error(f"--scores {args.scores}: {exc}")
            merged, diagnostics = pivot_merge(experts, base, table, config)
        else:
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
        write_json(args.diagnostics, diagnostics)
    print(f"wrote merged checkpoint to {args.out}")
    return 0


def cmd_analyze(parser: argparse.ArgumentParser, args) -> int:
    _reject_unread_flags(parser, args, ("base", "expert") + PIPELINE_FLAGS, READS[args.mode],
                         f"--mode {args.mode}")
    _check_output_dir(parser, args.out)
    with _flag_errors(parser):
        config = _pivot_config(args)
    if args.mode == "layer-weights":
        if not args.scores:
            parser.error("--scores is required for --mode layer-weights")
        table = read_scores(args.scores)
        beta = _given(config.beta, table.beta)
        alpha = layer_weights(score_increments(table.scores), beta)
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
    with contextlib.ExitStack() as stack:
        base, experts = _open_inputs(parser, stack, args)
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
    _check_output_dir(parser, args.out)
    try:
        chain = [int(part) for part in args.dims.split(",")]
    except ValueError:
        parser.error(f"--dims must be a comma-separated integer chain, got {args.dims!r}")
    with _flag_errors(parser):
        spec = SynthSpec.from_chain(chain, experts=args.experts, core_rank=args.core_rank,
                                    residual_scale=args.residual_scale,
                                    shared_residual_fraction=args.shared_fraction,
                                    noise_scale=args.noise_scale, seed=args.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base, experts, core_bases = generate(spec)
    save_checkpoint(out / "base.tensors", base)
    for ck in experts:
        save_checkpoint(out / f"{ck.id}.tensors", ck)
    write_container(out / "ground_truth.tensors", ground_truth_tensors(core_bases))
    write_json(out / "spec.json", spec.to_dict())
    # Flat scores give uniform layer weights; replace with measured scores when available.
    table = ScoreTable(expert_ids=tuple(ck.id for ck in experts),
                       scores=[[0.0] * spec.layers for _ in experts], beta=DEFAULT_BETA)
    write_scores(out / "scores.json", table)
    print(f"wrote base + {len(experts)} experts + ground truth to {out}")
    return 0


@contextlib.contextmanager
def _one_line_warnings():
    """Show each warning as `warning: <message>`, without Python's file, line and source line."""
    default = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        yield
    finally:
        warnings.formatwarning = default


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # The handler's usage errors come from its subcommand's parser.
        with _one_line_warnings():
            return args.handler(args.parser, args)
    except (ValueError, ContainerError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
