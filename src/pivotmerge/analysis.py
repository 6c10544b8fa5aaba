"""Diagnostics over residuals and subspaces, emitted as CSV matrices plus a JSON summary.

The two core measurements are the pairwise cosine similarity of flattened
residuals and the pairwise mean principal angle between model-level
subspaces. Model-level subspaces are built by horizontally concatenating a
model's per-layer matrices (this requires a uniform row count across layers)
and orthonormalizing.

Both measurements read one collector pass (`_collect`). It calls the merge
kernel's stage functions layer by layer, in the kernel's order, and keeps only
what the report reads: the raw and filtered residuals, or the raw deltas
and the filtered coefficients. Each model's parts are then joined one model
at a time.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .linalg import ZERO_NORM, _basis_angles, cosine, orthonormal_basis
from .pivot import (PivotConfig, _dense, _warn_ranks, decouple, filter_residuals,
                    joint_decompose, task_vectors)
from .tensorstore import ProjectorCheckpoint, atomic_write, sorted_experts, write_json


def residual_similarity(residuals: Sequence) -> np.ndarray:
    """Pairwise cosine similarity of flattened residual matrices.

    Diagonal entries are 1, or 0 (with a warning) for all-zero inputs.
    """
    if len(residuals) < 2:
        raise ValueError("need at least two residuals")
    flats = [np.asarray(b, dtype=np.float64).ravel() for b in residuals]
    size = flats[0].size
    for i, f in enumerate(flats):
        if f.size != size:
            raise ValueError(f"residual {i} has {f.size} entries, expected {size}")
    n = len(flats)
    sim = np.eye(n)
    for i in range(n):
        if np.linalg.norm(flats[i]) < ZERO_NORM:
            warnings.warn(f"residual {i} is zero; its self-similarity is reported as 0")
            sim[i, i] = 0.0
        for j in range(i + 1, n):
            sim[i, j] = sim[j, i] = cosine(flats[i], flats[j])
    return sim


def pairwise_principal_angles(sources: Sequence) -> np.ndarray:
    """Symmetric matrix of mean principal angles between column spaces.

    Each non-zero source is orthonormalized once and its basis reused for
    every pair. A source is zero only when every entry is exactly zero, so
    scaling the sources by any power of two leaves the angles unchanged.
    Zero-matrix inputs produce NaN rows/columns with a warning; the
    diagonal is 0 for valid inputs.
    """
    if len(sources) < 2:
        raise ValueError("need at least two subspace sources")
    mats = [np.asarray(m, dtype=np.float64) for m in sources]
    n = len(mats)
    out = np.zeros((n, n))
    bases = []
    for i, m in enumerate(mats):
        if m.any():
            bases.append(orthonormal_basis(m))
        else:
            warnings.warn(f"subspace source {i} is zero; its angles are reported as NaN")
            out[i, :] = np.nan
            out[:, i] = np.nan
            bases.append(None)
    for i in range(n):
        if bases[i] is None:
            continue
        out[i, i] = 0.0
        for j in range(i + 1, n):
            if bases[j] is not None:
                out[i, j] = out[j, i] = float(np.mean(_basis_angles(bases[i], bases[j])))
    return out


def model_subspace(layer_mats: Sequence) -> np.ndarray:
    """Horizontally concatenate a model's per-layer matrices into one subspace source."""
    mats = [np.asarray(m, dtype=np.float64) for m in layer_mats]
    if not mats:
        raise ValueError("need at least one layer matrix")
    _require_uniform_rows(m.shape[0] for m in mats)
    return np.hstack(mats)


def _require_uniform_rows(rows) -> None:
    rows = sorted(set(rows))
    if len(rows) != 1:
        raise ValueError(
            f"model-level subspaces need a uniform row count across layers, got {rows}")


def mean_offdiagonal(matrix: np.ndarray) -> float | None:
    """Mean of the off-diagonal entries, NaNs skipped; None when none is finite."""
    m = np.asarray(matrix, dtype=np.float64)
    off = m[~np.eye(m.shape[0], dtype=bool)]
    return float(np.nanmean(off)) if np.isfinite(off).any() else None


def collect_residuals(experts: Sequence[ProjectorCheckpoint], base: ProjectorCheckpoint,
                      config: PivotConfig
                      ) -> tuple[list[np.ndarray], list[np.ndarray], list[dict]]:
    """Per-model flattened residuals before and after filtering, plus per-layer filter stats.

    Residual vectors concatenate all layers per model, in the pass of
    `_collect`: only each layer's raw and filtered residuals outlive its
    decomposition.
    """
    raw_parts, filt_parts, layer_stats = _collect(experts, base, config, sources=False)
    return _join(raw_parts, np.concatenate), _join(filt_parts, np.concatenate), layer_stats


def collect_coefficients(experts: Sequence[ProjectorCheckpoint], base: ProjectorCheckpoint,
                         config: PivotConfig) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-model subspace sources: raw deltas and filtered coefficients (core + residual).

    Each source concatenates all layers per model (`model_subspace`), in the
    pass of `_collect`. A chain whose layers differ in d_out or in the joint
    rank min(d_out, N * (d_in + bias)) (a tall layer) is rejected before any
    layer is decomposed; an all-zero layer (joint rank 0) is rejected, by
    name, once its joint step is done.
    """
    raw_parts, filt_parts, _ = _collect(experts, base, config, sources=True)
    return _join(raw_parts, model_subspace), _join(filt_parts, model_subspace)


def _collect(experts: Sequence[ProjectorCheckpoint], base: ProjectorCheckpoint,
             config: PivotConfig, sources: bool
             ) -> tuple[list[list[np.ndarray]], list[list[np.ndarray]], list[dict]]:
    """The one per-layer pass behind both analysis modes: per-model parts and filter stats.

    Experts are handled in lexicographic id order, matching the merge. Each
    layer's delta stack (`pivot.task_vectors`) goes through the joint step
    (`pivot.joint_decompose`) and is dropped with U, so only one layer's deltas
    are alive at a time; then decoupling (`pivot.decouple`) and filtering
    (`pivot.filter_residuals`) overwrite the blocks. Without
    `sources` (residual-sim) the cores go, each model keeps a flattened copy
    of its raw residual, and the residuals are filtered in place. With
    `sources` (principal-angles) each model keeps a copy of its layer's
    slice of the stack as the raw part; each residual is filtered in
    place, then becomes core + filtered in place, and the cores go. After
    the pass one warning names every layer whose block rank limit clamped
    the rank and every all-zero layer (`pivot._warn_ranks`).
    """
    ordered = sorted_experts(experts, base)
    if sources:
        shapes = [(d_out, d_in + base.has_bias) for d_out, d_in in base.layer_shapes()]
        _require_uniform_rows(d_out for d_out, _ in shapes)
        ranks = [min(d_out, len(ordered) * width) for d_out, width in shapes]
        if len(set(ranks)) > 1:
            tall = [f"layer {li} of shape {shape}" for li, shape in enumerate(shapes, start=1)
                    if ranks[li - 1] < shape[0]]
            raise ValueError("model-level subspaces need a uniform joint rank min(d_out, N * (d_in"
                             f" + bias)) across layers, got {ranks}; tall: {', '.join(tall)}")
    raw_parts = [[] for _ in ordered]
    filt_parts = [[] for _ in ordered]
    layer_stats = []
    effective_ranks = []
    for li in range(base.num_layers):
        stack = task_vectors(ordered, base.layers[li], li)
        if sources:
            for i, parts in enumerate(raw_parts):
                parts.append(stack[:, i].copy())
        blocks = joint_decompose(stack)[1]
        del stack
        if sources and not blocks[0].shape[0]:
            raise ValueError(f"layer {li + 1}: all task vectors are zero, so its joint rank is 0;"
                             " model-level subspaces need a uniform joint rank across layers")
        cores, effective_rank = decouple(blocks, config.rank)[:2]
        effective_ranks.append(effective_rank)
        if sources:
            mask, _, tau, _ = filter_residuals(blocks, config.gamma, config.rho)
            for core, block in zip(cores, blocks):
                # IEEE addition commutes: the bits of core + block.
                block += _dense(core)
            del cores
            for parts, block in zip(filt_parts, blocks):
                parts.append(block)
        else:
            del cores
            for parts, block in zip(raw_parts, blocks):
                parts.append(block.ravel().copy())
            mask, _, tau, _ = filter_residuals(blocks, config.gamma, config.rho)
            for parts, block in zip(filt_parts, blocks):
                parts.append(block.ravel())
        layer_stats.append({
            "layer": li + 1,
            "tau": None if tau is None else float(tau),
            "mask_mean": float(mask.mean()) if mask.size else None,
            "mask_min": float(mask.min()) if mask.size else None,
            "mask_max": float(mask.max()) if mask.size else None,
        })
    _warn_ranks(config.rank, effective_ranks)
    return raw_parts, filt_parts, layer_stats


def _join(model_parts: list[list[np.ndarray]], join) -> list[np.ndarray]:
    """Join each model's parts, popping them so they are freed as its output is built.

    The parts and the outputs are held twice over for one model at most.
    """
    return [join(model_parts.pop(0)) for _ in range(len(model_parts))]


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    """Plain numeric CSV with full float precision (17 significant digits)."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    lines = [",".join(format(v, ".17g") for v in row) for row in m]
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def emit_report(diagnostics: dict, matrices: dict[str, np.ndarray], out_dir) -> None:
    """Write one CSV per named matrix plus a summary.json with the diagnostics.

    Each file is written atomically; a failure leaves no partial file behind.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, matrix in matrices.items():
        write_matrix_csv(out / f"{name}.csv", matrix)
    write_json(out / "summary.json", diagnostics)
