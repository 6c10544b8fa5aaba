"""Diagnostics over residuals and subspaces, emitted as CSV matrices plus a JSON summary.

The two core measurements are the pairwise cosine similarity of flattened
residuals and the pairwise mean principal angle between model-level
subspaces. Model-level subspaces are built by horizontally concatenating a
model's per-layer matrices (this requires a uniform row count across layers)
and orthonormalizing.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .linalg import ZERO_NORM, cosine, principal_angles
from .pivot import PivotConfig, decompose_layer, task_vectors
from .tensorstore import ProjectorCheckpoint


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

    Zero-matrix inputs produce NaN rows/columns with a warning; the diagonal
    is 0 for valid inputs.
    """
    if len(sources) < 2:
        raise ValueError("need at least two subspace sources")
    mats = [np.asarray(m, dtype=np.float64) for m in sources]
    n = len(mats)
    out = np.zeros((n, n))
    valid = []
    for i, m in enumerate(mats):
        is_valid = np.linalg.norm(m) >= ZERO_NORM
        if not is_valid:
            warnings.warn(f"subspace source {i} is zero; its angles are reported as NaN")
            out[i, :] = np.nan
            out[:, i] = np.nan
        valid.append(is_valid)
    for i in range(n):
        if valid[i]:
            out[i, i] = 0.0
        for j in range(i + 1, n):
            if valid[i] and valid[j]:
                out[i, j] = out[j, i] = float(np.mean(principal_angles(mats[i], mats[j])))
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
    lexicographic id order, matching the merge.
    """
    raw_layers, filt_layers, layer_stats = [], [], []
    for li, deltas in enumerate(task_vectors(experts, base), start=1):
        _, dec = decompose_layer(deltas, config)
        mask = dec.mask
        layer_stats.append({
            "layer": li,
            "tau": None if dec.tau is None else float(dec.tau),
            "mask_mean": float(mask.mean()) if mask.size else None,
            "mask_min": float(mask.min()) if mask.size else None,
            "mask_max": float(mask.max()) if mask.size else None,
        })
        raw_layers.append([b.ravel() for b in dec.residuals])
        filt_layers.append([b.ravel() for b in dec.filtered])
    raw = [np.concatenate(parts) for parts in zip(*raw_layers)]
    filt = [np.concatenate(parts) for parts in zip(*filt_layers)]
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_report(diagnostics: dict, matrices: dict[str, np.ndarray], out_dir) -> None:
    """Write one CSV per named matrix plus a summary.json with the diagnostics."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, matrix in matrices.items():
        write_matrix_csv(out / f"{name}.csv", matrix)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(diagnostics, fh, indent=2, sort_keys=True)
        fh.write("\n")
