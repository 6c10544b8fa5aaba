"""Correctness checks on the files one invocation writes.

An invocation passes when its outputs are well formed and byte-identical
to the reference invocation of the same run. Any failure is counted
against `error_rate`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from pivotmerge import synth, tensorstore

from workloads import Workload

# The matrices each analysis mode writes, one CSV each.
ANALYZE_CSVS = {
    "residual-sim": ("residual_similarity_before", "residual_similarity_after"),
    "principal-angles": ("principal_angles_raw", "principal_angles_filtered"),
}


class CheckFailed(Exception):
    """An output is missing, malformed, or differs from the reference."""


def output_digest(out_dir: Path) -> str:
    """sha256 over every file under `out_dir`: relative path, then contents."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_merged(out_dir: Path, base: tensorstore.ProjectorCheckpoint):
    """Reload the merged checkpoint; it must have the base layout and finite values."""
    path = out_dir / "merged.tensors"
    try:
        merged = tensorstore.load_checkpoint(path)
    except (ValueError, OSError) as exc:
        raise CheckFailed(f"merged checkpoint does not reload: {exc}") from exc
    if (merged.layer_shapes() != base.layer_shapes() or merged.has_bias != base.has_bias
            or merged.dtype != base.dtype):
        raise CheckFailed(
            f"merged layout {merged.layer_shapes()} bias={merged.has_bias} {merged.dtype} "
            f"differs from base {base.layer_shapes()} bias={base.has_bias} {base.dtype}")
    for i, layer in enumerate(merged.layers, start=1):
        if not np.isfinite(layer.weight).all() or (
                layer.bias is not None and not np.isfinite(layer.bias).all()):
            raise CheckFailed(f"merged layer {i} has non-finite values")
    return merged


def check_reports(out_dir: Path, workload: Workload) -> None:
    """Parse every analysis report; matrices must be square, symmetric and finite."""
    for command in workload.commands:
        mode = command[-1]
        report = out_dir / mode
        try:
            summary = json.loads((report / "summary.json").read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckFailed(f"{mode}: summary.json does not parse: {exc}") from exc
        if not isinstance(summary, dict) or summary.get("mode") != mode:
            raise CheckFailed(f"{mode}: summary.json is not a {mode} report")
        for name in ANALYZE_CSVS[mode]:
            try:
                matrix = np.loadtxt(report / f"{name}.csv", delimiter=",", ndmin=2)
            except (OSError, ValueError) as exc:
                raise CheckFailed(f"{mode}: {name}.csv does not parse: {exc}") from exc
            n = workload.experts
            if matrix.shape != (n, n):
                raise CheckFailed(f"{mode}: {name}.csv has shape {matrix.shape}, expected {(n, n)}")
            if not np.isfinite(matrix).all() or not np.array_equal(matrix, matrix.T):
                raise CheckFailed(f"{mode}: {name}.csv is not a finite symmetric matrix")


def check_invocation(workload: Workload, out_dir: Path, base, reference: str | None) -> str:
    """Validate one invocation's outputs and return their digest.

    With a `reference` digest, the outputs must match it byte for byte.
    """
    if workload.merges:
        load_merged(out_dir, base)
    else:
        check_reports(out_dir, workload)
    digest = output_digest(out_dir)
    if reference is not None and digest != reference:
        raise CheckFailed(f"outputs differ from the reference invocation ({digest[:12]} "
                          f"vs {reference[:12]})")
    return digest


def recovery_deg(out_dir: Path, base, core_bases) -> float:
    """Mean principal angle (degrees) between the merged layer deltas and the planted cores."""
    merged = load_merged(out_dir, base)
    return float(np.mean(synth.recovery_score(merged, base, core_bases)))
