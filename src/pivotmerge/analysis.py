"""Diagnostics over residuals and subspaces, emitted as CSV matrices plus a JSON summary.

The two core measurements are the pairwise cosine similarity of flattened
residuals and the pairwise mean principal angle between model-level
subspaces. Model-level subspaces are built by horizontally concatenating a
model's per-layer matrices (this requires a uniform row count across layers)
and orthonormalizing.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .linalg import ZERO_NORM, _basis_angles, cosine, orthonormal_basis
from .pivot import PivotConfig, decompose_layer, task_vectors
from .tensorstore import (ProjectorCheckpoint, atomic_write, layer_deltas, sorted_experts,
                          write_json)


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
    every pair. Zero-matrix inputs produce NaN rows/columns with a warning;
    the diagonal is 0 for valid inputs.
    """
    if len(sources) < 2:
        raise ValueError("need at least two subspace sources")
    mats = [np.asarray(m, dtype=np.float64) for m in sources]
    n = len(mats)
    out = np.zeros((n, n))
    bases = []
    for i, m in enumerate(mats):
        if np.linalg.norm(m) >= ZERO_NORM:
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
    rows = {m.shape[0] for m in mats}
    if len(rows) != 1:
        raise ValueError(
            f"model-level subspaces need a uniform row count across layers, got {sorted(rows)}")
    return np.hstack(mats)


def mean_offdiagonal(matrix: np.ndarray) -> float:
    m = np.asarray(matrix, dtype=np.float64)
    n = m.shape[0]
    mask = ~np.eye(n, dtype=bool)
    return float(np.nanmean(m[mask]))


def collect_residuals(experts: Sequence[ProjectorCheckpoint], base: ProjectorCheckpoint,
                      config: PivotConfig
                      ) -> tuple[list[np.ndarray], list[np.ndarray], list[dict]]:
    """Per-model flattened residuals before and after filtering, plus per-layer filter stats.

    Residual vectors concatenate all layers per model; experts are handled in
    lexicographic id order, matching the merge. Each layer's deltas are built
    just before it is decomposed, so only one layer's deltas are alive at a time,
    and only its raw and filtered residuals outlive its decomposition. Each
    model's vector is concatenated and its blocks released before the next,
    so the blocks and the vectors are held twice over for one model at most.
    """
    ordered = sorted_experts(experts, base)
    raw_parts = [[] for _ in ordered]
    filt_parts = [[] for _ in ordered]
    layer_stats = []
    for li in range(base.num_layers):
        dec = decompose_layer(layer_deltas(ordered, base, li), config)[1]
        mask = dec.mask
        layer_stats.append({
            "layer": li + 1,
            "tau": None if dec.tau is None else float(dec.tau),
            "mask_mean": float(mask.mean()) if mask.size else None,
            "mask_min": float(mask.min()) if mask.size else None,
            "mask_max": float(mask.max()) if mask.size else None,
        })
        for parts, block in zip(raw_parts + filt_parts, dec.residuals + dec.filtered):
            parts.append(block.ravel())
        # Only the residuals are kept: free the cores before the next layer.
        del dec
    # Popping a model's blocks frees them as soon as its vector is built.
    raw = [np.concatenate(raw_parts.pop(0)) for _ in ordered]
    filt = [np.concatenate(filt_parts.pop(0)) for _ in ordered]
    return raw, filt, layer_stats


def collect_coefficients(experts: Sequence[ProjectorCheckpoint], base: ProjectorCheckpoint,
                         config: PivotConfig) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-model subspace sources: raw deltas and filtered coefficients (core + residual)."""
    delta_layers = task_vectors(experts, base)
    coeff_layers = []
    for deltas in delta_layers:
        _, dec = decompose_layer(deltas, config)
        coeff_layers.append([a + b for a, b in zip(dec.cores, dec.filtered)])
    raw = [model_subspace(parts) for parts in zip(*delta_layers)]
    filt = [model_subspace(parts) for parts in zip(*coeff_layers)]
    return raw, filt


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
