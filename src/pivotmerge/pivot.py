"""The pivot merge pipeline.

Each projector layer is merged independently through five stages:

1. task vectors: per-expert deltas from the shared initialization, computed
   on bias-augmented matrices;
2. joint decomposition: one thin SVD of the column-wise concatenation of all
   deltas, giving a shared basis U, spectrum S, and one coefficient block
   per expert;
3. decoupling: each coefficient block splits into a rank-r core (its best
   rank-r approximation) plus a residual;
4. consistency-aware residual filtering: per basis direction, residual rows
   are scored by mean cross-expert cosine, gated by a sigmoid around an
   order-statistic threshold, and rescaled so each expert's entrywise L1
   mass is preserved;
5. merging and reconstruction: cores merge under per-layer softmax weights,
   filtered residuals merge under uniform weights, and the summed
   coefficients are mapped back through U * S onto the base layer.

For magnitude-based inner operators (ties, dare_ties) both branches are
pre-scaled row-wise by S before merging and un-scaled afterwards, because
scale information lives in the spectrum rather than the coefficients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .linalg import RANK_RTOL, ZERO_NORM, sigmoid, thin_svd, truncate_rank
from .operators import MergeOperator, merge_weighted
from .scores import ScoreTable, layer_weights, score_increments, threshold_from_ratio
from .tensorstore import Layer, ProjectorCheckpoint, add_delta, layer_deltas, sorted_experts

# Rows whose singular value falls below this pass through as zero when
# un-scaling from the spectrum-weighted space.
SPECTRUM_FLOOR = 1e-12


@dataclass(frozen=True)
class SharedSpaceLayer:
    """Joint-SVD factors for one layer: shared basis, spectrum, and per-expert blocks."""

    u: np.ndarray                    # (d_out, k)
    s: np.ndarray                    # (k,)
    coeffs: tuple[np.ndarray, ...]   # N blocks, each (k, w)

    @property
    def degenerate(self) -> bool:
        return self.s.size == 0


@dataclass(frozen=True)
class DecoupledLayer:
    """Per-expert cores and residuals, plus filtering outputs once applied."""

    cores: tuple[np.ndarray, ...]
    residuals: tuple[np.ndarray, ...]
    effective_rank: int
    filtered: tuple[np.ndarray, ...] | None = None
    mask: np.ndarray | None = None
    consistencies: np.ndarray | None = None
    tau: float | None = None


@dataclass(frozen=True)
class PivotConfig:
    """Pipeline hyperparameters. beta=None defers to the score table's temperature."""

    rank: int = 64
    gamma: float = 20.0
    rho: float = 0.5
    beta: float | None = None
    inner: MergeOperator = field(default_factory=lambda: MergeOperator.ties(1.0))

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if self.beta is not None and not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    @property
    def use_magnitude_space(self) -> bool:
        """Spectrum-space merging, exactly for the magnitude-based inner operators."""
        return self.inner.kind in ("ties", "dare_ties")


def task_vectors(experts: Sequence[ProjectorCheckpoint],
                 base: ProjectorCheckpoint) -> list[list[np.ndarray]]:
    """Per-layer lists of augmented deltas (expert minus base), experts in id order."""
    ordered = sorted_experts(experts, base)
    return [layer_deltas(ordered, base, li) for li in range(base.num_layers)]


def joint_decompose(deltas: Sequence[np.ndarray]) -> SharedSpaceLayer:
    """Thin SVD of [D_1, ..., D_N] with one coefficient block per expert.

    Blocks are computed by projecting each delta through the shared basis
    (inv(S) U^T D_i) rather than slicing the stacked right factor. The two
    agree to rounding, but the projection makes blocks a pure function of
    (U, S, D_i): bit-identical deltas give bit-identical blocks even where
    the spectrum is degenerate. Rows at numerically-zero singular values
    carry no reconstruction content and are set to zero.
    """
    n = len(deltas)
    if n < 1:
        raise ValueError("need at least one delta matrix")
    mats = [np.asarray(d, dtype=np.float64) for d in deltas]
    d_out, width = mats[0].shape
    for i, m in enumerate(mats):
        if m.shape != (d_out, width):
            raise ValueError(f"delta {i} has shape {m.shape}, expected {(d_out, width)}")
    concat = np.concatenate(mats, axis=1)
    if not concat.any():
        warnings.warn("all task vectors are zero; layer has an empty shared space")
        return SharedSpaceLayer(
            u=np.zeros((d_out, 0)), s=np.zeros(0),
            coeffs=tuple(np.zeros((0, width)) for _ in range(n)))
    factors = thin_svd(concat)
    live = factors.s > RANK_RTOL * factors.s[0]
    inv_s = np.zeros_like(factors.s)
    inv_s[live] = 1.0 / factors.s[live]
    coeffs = tuple(inv_s[:, None] * (factors.u.T @ m) for m in mats)
    return SharedSpaceLayer(u=factors.u, s=factors.s, coeffs=coeffs)


def decouple(coeffs: Sequence[np.ndarray], rank: int) -> DecoupledLayer:
    """Split each coefficient block into a rank-`rank` core plus residual.

    Ranks beyond min(k, w) are clamped with a warning so small layers still
    decompose.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    blocks = [np.asarray(c, dtype=np.float64) for c in coeffs]
    k, w = blocks[0].shape
    max_rank = min(k, w)
    if max_rank == 0:
        zero = tuple(np.zeros((k, w)) for _ in blocks)
        return DecoupledLayer(cores=zero, residuals=tuple(b.copy() for b in blocks),
                              effective_rank=0)
    eff = rank
    if rank > max_rank:
        warnings.warn(f"rank {rank} exceeds block rank limit {max_rank}; clamping")
        eff = max_rank
    cores = tuple(truncate_rank(b, eff) for b in blocks)
    residuals = tuple(b - a for b, a in zip(blocks, cores))
    return DecoupledLayer(cores=cores, residuals=residuals, effective_rank=eff)


def filter_residuals(residuals: Sequence[np.ndarray], gamma: float, rho: float
                     ) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, float | None]:
    """Consistency-gated residual filtering with L1-mass compensation.

    Returns (filtered residuals, mask, consistencies, tau). With a single
    expert the residuals pass through untouched (mask of ones, tau None).
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    mats = [np.asarray(b, dtype=np.float64) for b in residuals]
    n = len(mats)
    if n < 1:
        raise ValueError("need at least one residual")
    k = mats[0].shape[0]
    if n == 1 or k == 0:
        ones = np.ones(k)
        return tuple(m.copy() for m in mats), ones, ones.copy(), None

    stack = np.stack(mats)                       # (N, k, w)
    norms = np.linalg.norm(stack, axis=2)        # (N, k)
    unit = np.zeros_like(stack)
    ok = norms >= ZERO_NORM
    unit[ok] = stack[ok] / norms[ok][:, None]
    gram = np.einsum("ikw,jkw->kij", unit, unit)  # (k, N, N)
    pair_sum = gram.sum(axis=(1, 2)) - np.einsum("kii->k", gram)
    consistencies = np.clip(pair_sum / (n * (n - 1)), -1.0, 1.0)

    tau = threshold_from_ratio(consistencies, rho)
    mask = sigmoid(gamma * (consistencies - tau))

    filtered = []
    for b in mats:
        masked = mask[:, None] * b
        total = np.abs(b).sum()
        masked_total = np.abs(masked).sum()
        if masked_total < 1e-12:
            warnings.warn("masked residual mass is near zero; skipping L1 compensation")
            filtered.append(masked)
        else:
            filtered.append(masked * (total / masked_total))
    return tuple(filtered), mask, consistencies, tau


def decompose_layer(deltas: Sequence[np.ndarray], config: PivotConfig
                    ) -> tuple[SharedSpaceLayer, DecoupledLayer]:
    """Stages 2-4 for one layer: joint SVD, decoupling, then residual filtering."""
    shared = joint_decompose(deltas)
    dec = decouple(shared.coeffs, config.rank)
    filtered, mask, consistencies, tau = filter_residuals(dec.residuals, config.gamma, config.rho)
    return shared, replace(dec, filtered=filtered, mask=mask, consistencies=consistencies,
                           tau=tau)


def merge_layer(shared: SharedSpaceLayer, dec: DecoupledLayer, alphas: Sequence[float],
                op: MergeOperator, magnitude_space: bool) -> np.ndarray:
    """Merge one layer's cores and filtered residuals into a single coefficient block.

    Cores use the per-layer alignment weights; residuals use uniform weights.
    In magnitude space both branches are scaled row-wise by the spectrum
    before the operator and un-scaled afterwards (rows with singular value
    below SPECTRUM_FLOOR come back as zero).
    """
    filtered = dec.filtered if dec.filtered is not None else dec.residuals
    n = len(dec.cores)
    uniform = [1.0] * n
    s = shared.s

    if magnitude_space:
        col = s[:, None]

        def unscale(mat):
            out = np.zeros_like(mat)
            live = s >= SPECTRUM_FLOOR
            out[live] = mat[live] / col[live]
            return out

        core_merged = unscale(merge_weighted(op, [col * a for a in dec.cores], alphas))
        resid_merged = unscale(merge_weighted(op, [col * b for b in filtered], uniform))
    else:
        core_merged = merge_weighted(op, list(dec.cores), alphas)
        resid_merged = merge_weighted(op, list(filtered), uniform)
    return core_merged + resid_merged


def reconstruct(shared: SharedSpaceLayer, merged_coeffs: np.ndarray,
                base_layer: Layer) -> Layer:
    """Map merged coefficients back through the shared basis onto the base layer."""
    return add_delta(base_layer, (shared.u * shared.s) @ merged_coeffs)


def _merge_one_layer(layer_index: int, deltas: list[np.ndarray], base_layer: Layer,
                     alphas_col: np.ndarray, config: PivotConfig) -> tuple[Layer, dict]:
    shared, dec = decompose_layer(deltas, config)
    merged_coeffs = merge_layer(shared, dec, alphas_col, config.inner,
                                config.use_magnitude_space)
    out_layer = reconstruct(shared, merged_coeffs, base_layer)
    record = {
        "layer": layer_index + 1,
        "alpha": [float(a) for a in alphas_col],
        "tau": None if dec.tau is None else float(dec.tau),
        "consistency": [float(c) for c in dec.consistencies],
        "mask": [float(m) for m in dec.mask],
        "singular_values": [float(v) for v in shared.s],
        "effective_rank": dec.effective_rank,
    }
    return out_layer, record


def pivot_merge(experts: Sequence[ProjectorCheckpoint], base: ProjectorCheckpoint,
                score_table: ScoreTable, config: PivotConfig | None = None
                ) -> tuple[ProjectorCheckpoint, dict]:
    """Run the full pipeline and return (merged checkpoint, diagnostics record).

    Experts are sorted lexicographically by id; the score table must cover
    every expert id with one score per layer. Layers run serially, one after
    another, so BLAS threads are the only parallelism; the result is
    byte-identical run to run at a fixed BLAS thread count.
    """
    if config is None:
        config = PivotConfig()
    ordered = sorted_experts(experts, base)
    ids = [c.id for c in ordered]

    rows = score_table.rows_for(ids)
    if rows.shape[1] != base.num_layers:
        raise ValueError(
            f"score table has {rows.shape[1]} layers but checkpoints have {base.num_layers}")
    beta = config.beta if config.beta is not None else score_table.beta
    alphas = layer_weights(score_increments(rows), beta).alpha  # (N, L)

    results = [_merge_one_layer(li, layer_deltas(ordered, base, li), layer, alphas[:, li], config)
               for li, layer in enumerate(base.layers)]
    merged_layers = tuple(layer for layer, _ in results)
    diagnostics = {
        "method": "pivot",
        "expert_ids": ids,
        "config": {
            "rank": config.rank,
            "gamma": config.gamma,
            "rho": config.rho,
            "beta": beta,
            "inner": config.inner.kind,
            "trim_fraction": config.inner.trim_fraction,
            "magnitude_space": config.use_magnitude_space,
        },
        "layers": [record for _, record in results],
    }
    merged = ProjectorCheckpoint(id="merged", layers=merged_layers, dtype=base.dtype)
    return merged, diagnostics
