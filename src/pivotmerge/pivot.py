"""The pivot merge pipeline.

Each projector layer is merged independently through five stages:

1. task vectors: per-expert deltas from the shared initialization, computed
   on bias-augmented matrices;
2. joint decomposition: the left singular vectors U and spectrum S of the
   column-wise concatenation of all deltas, and one coefficient block per
   expert projected through them. A wide concatenation takes U and S from
   its Gram matrix's eigenpairs, refining the tail by a Rayleigh-Ritz step
   when the GRAM_COND_RTOL certificate fails; a tall or square one takes its
   thin SVD;
3. decoupling: each coefficient block splits into a rank-r core (its best
   rank-r approximation, from the smaller Gram matrix's top r + 1
   eigenpairs, which LAPACK's dsyevr computes alone) plus a residual. A
   rank above the block rank limit min(k, w) is clamped to it, and one
   warning names every clamped layer and all-zero layer;
4. consistency-aware residual filtering: per basis direction, residual rows
   are scored by mean cross-expert cosine, gated by a sigmoid around an
   order-statistic threshold, and rescaled so each expert's entrywise L1
   mass is preserved;
5. merging and reconstruction: cores merge under per-layer softmax weights,
   filtered residuals merge under uniform weights, and the summed
   coefficients are mapped back through U * S onto the base layer.

At full rank (r = min(k, w)) the core is the whole block and the residuals
are exact zeros: stage 4 skips its pass on them, for every caller, and the
kernel merges only the cores and adds + 0.0, the bits of adding the merged
zero branch.

For magnitude-based inner operators (ties, dare_ties) both branches are
pre-scaled row-wise by S before merging and un-scaled afterwards, because
scale information lives in the spectrum rather than the coefficients. The
kernel scales the cores and filtered blocks it owns in place, so no scaled
copy is formed, and then runs the plain operator.

Working set: each stage has an owned variant that overwrites the per-expert
blocks it is given; the merge kernel calls them in order (`_joint_owned`,
`_decouple_owned`, `_filter_owned`, `_merge_owned`) on settings PivotConfig
has checked, and the public stage functions check and copy their inputs and
run the same code. Counted in layer blocks
with N experts: the joint step fills one (d_out, N * w) concatenation
expert by expert, factors it as it is and projects each coefficient block
from its delta's column slice, 2N + 1 blocks with U at the peak. Decoupling
forms each residual in its coefficient block's storage and keeps each core
as rank-r factors (left, right); filtering scores one row chunk of every
expert at a time and rescales each residual in place; the merge takes the
filtered branch first and multiplies the cores out only after dropping the
filtered blocks. Each of those stages peaks below N + 4 blocks. At full
rank the zero residuals are dropped after filtering, and the merge holds
the N cores and one merged block. LAPACK workspace and allocator retention
are not traced allocations, so resident memory, not tracemalloc, sizes the
gain.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .linalg import (RANK_RTOL, ZERO_NORM, _canonical_signs, _gram_certified, _gram_eigh,
                     _rank_factors, sigmoid, thin_svd)
from .operators import MergeOperator, merge_weighted
from .scores import ScoreTable, _check_beta, layer_weights, score_increments, threshold_from_ratio
from .tensorstore import Layer, ProjectorCheckpoint, add_delta, sorted_experts

# Entries per expert in one row chunk of the residual filter's unit rows.
_FILTER_CHUNK = 1 << 16
# An uncertified wide concatenation's Gram eigenvectors with lambda <= _TAIL_RTOL *
# lambda_max form the tail that the Rayleigh-Ritz step refines; the head's singular
# values sqrt(lambda) keep a relative error of about eps / (2 * _TAIL_RTOL).
_TAIL_RTOL = 1e-4


@dataclass(frozen=True)
class SharedSpaceLayer:
    """Joint-SVD factors for one layer: shared basis, spectrum, and per-expert blocks."""

    u: np.ndarray                    # (d_out, k)
    s: np.ndarray                    # (k,)
    coeffs: tuple[np.ndarray, ...]   # N blocks, each (k, w); empty once decoupled
    joint_tail: int | None = None    # b on the wide Gram route; None for an SVD or zero layer


@dataclass(frozen=True)
class DecoupledLayer:
    """Per-expert dense cores and residuals, and the rank the cores were cut at."""

    cores: tuple[np.ndarray, ...]
    residuals: tuple[np.ndarray, ...]
    effective_rank: int


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
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if self.beta is not None:
            _check_beta(self.beta)


def task_vectors(experts: Sequence[ProjectorCheckpoint], base_layer: Layer,
                 layer_index: int) -> np.ndarray:
    """One layer's (d_out, N, w) augmented delta stack against `base_layer`, experts as given.

    Each delta is written into its slice, and each expert's layer is read
    once and dropped once its delta is written.
    """
    base_mat = base_layer.matrix
    stack = np.empty((base_mat.shape[0], len(experts), base_mat.shape[1]))
    for i, ck in enumerate(experts):
        mat = ck.layers[layer_index].matrix
        if mat.shape != base_mat.shape:  # np.subtract would broadcast a (d_out, 1) matrix
            raise ValueError(f"expert {ck.id!r} layer {layer_index + 1} has shape {mat.shape}")
        np.subtract(mat, base_mat, out=stack[:, i])
        del mat  # freed before the next expert's layer is read
    return stack


def joint_decompose(deltas: Sequence[np.ndarray]) -> SharedSpaceLayer:
    """Shared basis U and spectrum S of [D_1, ..., D_N], one coefficient block per expert.

    Only U and S are computed. A wide C (N * w > d_out) takes them from one
    eigh of its Gram matrix C C^T, exactly power-of-two scaled when needed
    (`linalg._gram_eigh`): S = sqrt(lambda), U the eigenvectors, signs as in
    thin_svd. lambda_min > GRAM_COND_RTOL * lambda_max certifies every
    singular value to about 1e-10 relative, and b = 0. Otherwise the b
    eigenvectors U_t with lambda <= _TAIL_RTOL * lambda_max are rotated by
    the left factor of thin_svd(U_t^T C), b x N * w, whose singular values
    replace theirs (Rayleigh-Ritz; Parlett, The Symmetric Eigenvalue Problem,
    ch. 11). b is kept as `joint_tail`. A tall or square C takes its thin
    SVD. No (k, N * w) right factor is formed. Each block is inv(S) U^T D_i,
    a pure function of (U, S, D_i), so bit-identical deltas give bit-identical
    blocks even where the spectrum is degenerate. Rows at numerically-zero
    singular values carry no reconstruction content and are set to zero. The
    deltas are copied once, into C, and left unchanged; each block is
    projected from its delta's column slice of C, which is freed once the
    blocks exist. All-zero deltas give k = 0, with a warning.
    """
    shared = _joint_owned(np.stack(_blocks(deltas, "delta"), axis=1))
    if not shared.s.size:
        warnings.warn("all task vectors are zero; layer has an empty shared space")
    return shared


def _blocks(mats: Sequence[np.ndarray], what: str) -> list[np.ndarray]:
    """A public stage's per-expert input as float64 arrays, checked to be equal-shape 2-D blocks."""
    blocks = [np.asarray(m, dtype=np.float64) for m in mats]
    if not blocks:
        raise ValueError(f"need at least one {what}")
    for i, b in enumerate(blocks):
        if b.ndim != 2 or b.shape != blocks[0].shape:
            raise ValueError(f"{what} {i} has shape {b.shape}, expected a 2-D {blocks[0].shape}")
    return blocks


def _joint_owned(stack: np.ndarray) -> SharedSpaceLayer:
    """`joint_decompose` of a (d_out, N, w) delta stack, factored as C uncopied; it never warns."""
    d_out, n, width = stack.shape
    if not stack.any():
        return SharedSpaceLayer(
            u=np.zeros((d_out, 0)), s=np.zeros(0),
            coeffs=tuple(np.zeros((0, width)) for _ in range(n)))
    u, s, tail = _left_factors(stack.reshape(d_out, n * width))
    live = s > RANK_RTOL * s[0]
    inv_s = np.zeros_like(s)
    inv_s[live] = 1.0 / s[live]
    coeffs = []
    for i in range(n):
        block = u.T @ stack[:, i]
        block *= inv_s[:, None]
        coeffs.append(block)
    return SharedSpaceLayer(u=u, s=s, coeffs=tuple(coeffs), joint_tail=tail)


def _left_factors(concat: np.ndarray) -> tuple[np.ndarray, np.ndarray, int | None]:
    """U, S and the tail size b (None for a tall or square thin SVD) of the concatenation."""
    if concat.shape[1] <= concat.shape[0]:
        factors = thin_svd(concat)
        return factors.u, factors.s, None
    evals, evecs, shift, _ = _gram_eigh(concat, wide=True)
    b = 0 if _gram_certified(evals) else int(np.count_nonzero(evals <= _TAIL_RTOL * evals[-1]))
    u = evecs[:, b:][:, ::-1]
    s = np.ldexp(np.sqrt(evals[b:][::-1]), shift)
    if b:
        tail = thin_svd(evecs[:, :b].T @ concat)
        u = np.concatenate([u, evecs[:, :b] @ tail.u], axis=1)
        s = np.concatenate([s, tail.s])
    return u * _canonical_signs(u), s, b


def decouple(coeffs: Sequence[np.ndarray], rank: int) -> DecoupledLayer:
    """Split each coefficient block into a rank-`rank` core plus residual.

    Each core is `truncate_rank`'s: the projection onto the top-`rank`
    eigenvectors of the block's smaller Gram matrix, of which only the top
    rank + 1 eigenpairs are computed, or the thin SVD's when the cut is not
    certified. Ranks beyond min(k, w) are clamped with a warning so small
    layers still decompose. At rank min(k, w) the core is the whole block:
    cores are copies of the blocks and residuals are exact zeros, with no
    factorization.
    The blocks are copied and left unchanged. The merge kernel runs the same
    code on the blocks it owns: each residual is formed in its block's
    storage, and each core stays as its rank-r factors until the merge.
    """
    PivotConfig(rank=rank)  # the range check
    blocks = [b.copy() for b in _blocks(coeffs, "coefficient block")]
    cores, effective_rank = _decouple_owned(blocks, rank)[:2]
    if 0 < effective_rank < rank:
        warnings.warn(f"rank {rank} exceeds block rank limit {effective_rank}; clamping")
    return DecoupledLayer(cores=tuple(_dense(c) for c in cores), residuals=tuple(blocks),
                          effective_rank=effective_rank)


def _decouple_owned(blocks: list[np.ndarray], rank: int
                    ) -> tuple[list, int, list[float | None], list[str]]:
    """`decouple` on blocks the caller gives up: (cores, effective rank, core energy, core route).

    The residuals replace the blocks in the caller's list: below full rank
    each is its block overwritten as block - core, the core kept as its
    factors (left, right) from `_rank_factors`; at full rank, a `rank` of
    min(k, w) or more (clamped without a warning: each caller warns once),
    the blocks are the cores and the residuals new zero blocks. An all-zero
    layer (k = 0) is at full rank 0. The energy is sum(top-r lambda) /
    sum(lambda) of each block's Gram eigenvalues: 1.0 at full rank, None for
    a zero block. The route is `_rank_factors`' "eig" (the certified subset
    eigensolve) or "svd" (the fallback), and "full" at full rank, where
    nothing is factored.
    """
    k, w = blocks[0].shape
    max_rank = min(k, w)
    if rank >= max_rank:
        cores = blocks[:]
        blocks[:] = [np.zeros((k, w)) for _ in cores]
        return cores, max_rank, [1.0 if c.any() else None for c in cores], ["full"] * len(cores)
    cores, energy, routes = [], [], []
    for block in blocks:
        left, right, share, route = _rank_factors(block, rank)
        block -= left @ right
        cores.append((left, right))
        energy.append(share)
        routes.append(route)
    return cores, rank, energy, routes


def _warn_ranks(rank: int, effective_ranks: Sequence[int]) -> None:
    """One warning naming every clamped layer, with its limit, and every all-zero layer.

    `effective_ranks` holds one effective rank per layer, in layer order: a
    clamped layer's is its block rank limit, below `rank`; an all-zero one's is 0.
    """
    ranked = list(enumerate(effective_ranks, start=1))
    clamped = ", ".join(f"layer {li} ({r})" for li, r in ranked if 0 < r < rank)
    empty = ", ".join(f"layer {li}" for li, r in ranked if r == 0)
    parts = [f"rank {rank} exceeds the block rank limit of {clamped}; clamping"] if clamped else []
    if empty:
        parts.append(f"all task vectors are zero in {empty}: empty shared space")
    if parts:
        warnings.warn("; ".join(parts))


def _dense(core) -> np.ndarray:
    """A core as one block: a dense core as it is, a factored one (left, right) multiplied out."""
    return core if isinstance(core, np.ndarray) else core[0] @ core[1]


def filter_residuals(residuals: Sequence[np.ndarray], gamma: float, rho: float
                     ) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, float | None]:
    """Consistency-gated residual filtering with L1-mass compensation.

    Returns (filtered residuals, mask, consistencies, tau). With a single
    expert the residuals pass through untouched (mask of ones, tau None), and
    so do all-zero residuals, with no scoring pass run (consistencies 0.0).
    The residuals are copied and left unchanged; each copy is then rescaled
    in place as its filtered block, which is what the merge kernel does to
    the residuals it owns. Besides the N blocks, the filter holds one row
    chunk of unit rows per expert and one temporary block.
    """
    PivotConfig(gamma=gamma, rho=rho)  # the range checks
    mats = [b.copy() for b in _blocks(residuals, "residual")]
    mask, consistencies, tau, _ = _filter_owned(mats, gamma, rho)
    return tuple(mats), mask, consistencies, tau


def _filter_owned(mats: list[np.ndarray], gamma: float, rho: float
                  ) -> tuple[np.ndarray, np.ndarray, float | None, list[float | None]]:
    """`filter_residuals` on residuals the caller gives up: each becomes its filtered block.

    Returns (mask, consistencies, tau, kept). kept is each residual's masked
    over raw L1 mass, before compensation: 1.0 for a single expert, None for
    a zero residual. When all are zero (full rank), the consistencies are the
    pass's +0.0 rows and neither the pass nor the rescale loop runs.
    """
    n = len(mats)
    k = mats[0].shape[0]
    if n == 1 or k == 0:
        ones = np.ones(k)
        return ones, ones.copy(), None, [1.0 if m.any() else None for m in mats]

    live = any(b.any() for b in mats)
    consistencies = _consistencies(mats) if live else np.zeros(k)
    tau = threshold_from_ratio(consistencies, rho)
    mask = sigmoid(gamma * (consistencies - tau))
    if not live:
        return mask, consistencies, tau, [None] * n

    kept = []
    for b in mats:
        total = np.abs(b).sum()
        b *= mask[:, None]
        masked_total = np.abs(b).sum()
        kept.append(float(masked_total / total) if total > 0.0 else None)
        if masked_total < 1e-12:
            if total > 0.0:
                warnings.warn("masked residual mass is near zero; skipping L1 compensation")
        else:
            b *= total / masked_total
    return mask, consistencies, tau, kept


def _consistencies(mats: list[np.ndarray]) -> np.ndarray:
    """Mean cross-expert cosine of each row, from one row chunk of every expert at a time.

    Rows with norm below ZERO_NORM count as zero vectors. The bytes are those
    of the stacked form einsum("ikw,jkw->kij") over the (N, k, w) unit rows:
    each pair's row dot products come from einsum("kw,kw->k"), pair (i, j)
    gives the bits of (j, i), and the (N, N, k) array viewed as (k, N, N) has
    the stacked result's memory layout, so the sums add in the same order.
    """
    n = len(mats)
    k, w = mats[0].shape
    step = max(1, _FILTER_CHUNK // max(w, 1))
    unit = np.empty((n, min(step, k), w))
    gram = np.empty((n, n, k))
    for start in range(0, k, step):
        rows = slice(start, min(start + step, k))
        chunk = unit[:, :rows.stop - start]
        for m, out in zip(mats, chunk):
            norms = np.linalg.norm(m[rows], axis=1)
            out.fill(0.0)
            np.divide(m[rows], norms[:, None], out=out, where=(norms >= ZERO_NORM)[:, None])
        for i in range(n):
            for j in range(i, n):
                gram[i, j, rows] = gram[j, i, rows] = np.einsum("kw,kw->k", chunk[i], chunk[j])
    gram = gram.transpose(2, 0, 1)
    pair_sum = gram.sum(axis=(1, 2)) - np.einsum("kii->k", gram)
    return np.clip(pair_sum / (n * (n - 1)), -1.0, 1.0)


def merge_layer(s: np.ndarray, cores: Sequence[np.ndarray], filtered: Sequence[np.ndarray],
                alphas: Sequence[float], op: MergeOperator) -> np.ndarray:
    """Merge one layer's cores and filtered residuals into a single coefficient block.

    Cores use the per-layer alignment weights; residuals use uniform weights.
    For a magnitude-based operator both branches are scaled row-wise by the
    joint spectrum `s` before the operator and un-scaled afterwards (rows
    with s == 0 come back as zero). The inputs are left
    unchanged: a magnitude-based operator scales copies of the blocks, where
    the kernel scales the blocks it owns in place.
    """
    own = (lambda blocks: [b.copy() for b in blocks]) if op.magnitude_based else list
    return _merge_owned(s, own(cores), own(filtered), alphas, op)


def _merge_owned(s: np.ndarray, cores: list, filtered: list[np.ndarray],
                 alphas: Sequence[float], op: MergeOperator) -> np.ndarray:
    """`merge_layer` on blocks the caller gives up; it empties both lists.

    The filtered branch merges first and its blocks are dropped. Then the
    cores, dense or factored as (left, right), are multiplied out and merged.
    The result is merged cores + merged filtered blocks, as in `merge_layer`:
    IEEE addition commutes and DARE's streams are keyed by (seed, input), so
    the branch order does not change the bits.
    """
    merged = _merge_branch(s, filtered, [1.0] * len(filtered), op)
    filtered.clear()
    blocks = [_dense(c) for c in cores]
    cores.clear()
    merged_cores = _merge_branch(s, blocks, alphas, op)
    # An overflow becomes Inf, which the merged Layer rejects with one error.
    with np.errstate(over="ignore"):
        merged_cores += merged
    return merged_cores


def _merge_branch(s: np.ndarray, blocks: list[np.ndarray], weights: Sequence[float],
                  op: MergeOperator) -> np.ndarray:
    """One branch's merge; a magnitude-based operator scales the blocks by S in place.

    The merged block is then divided by S in place; its rows with S == 0
    come back as zero. The joint step zeroes every row it does not invert,
    and those merge to zero under every operator, so no floor is needed.
    """
    if not op.magnitude_based:
        return merge_weighted(op, blocks, weights)
    col = s[:, None]
    # An overflow shows as Inf, which the operator rejects naming the input.
    with np.errstate(over="ignore"):
        for block in blocks:
            block *= col
    merged = merge_weighted(op, blocks, weights)
    live = col > 0.0
    np.divide(merged, col, out=merged, where=live)
    merged[~live[:, 0]] = 0.0
    return merged


def reconstruct(shared: SharedSpaceLayer, merged_coeffs: np.ndarray,
                base_layer: Layer) -> Layer:
    """Map merged coefficients back through the shared basis onto the base layer."""
    # An overflow becomes Inf (or NaN, as Inf * 0), which the merged Layer
    # rejects with one error.
    with np.errstate(over="ignore", invalid="ignore"):
        delta = (shared.u * shared.s) @ merged_coeffs
    return add_delta(base_layer, delta)


def _merge_one_layer(layer_index: int, ordered: Sequence[ProjectorCheckpoint],
                     base: ProjectorCheckpoint, alphas_col: np.ndarray, config: PivotConfig
                     ) -> tuple[Layer, dict]:
    """The per-layer kernel: each stage overwrites the per-expert blocks it owns.

    The base layer is read once and serves both the deltas and the
    reconstruction. At full rank (effective rank min(k, w), 0 for an
    all-zero layer) the residuals are exact zeros, which the filter leaves
    as they are, so only the cores are merged. Every operator merges zero
    blocks to +0.0, so adding 0.0 keeps the bits of cores + merged zero
    branch.
    """
    base_layer = base.layers[layer_index]
    shared = _joint_owned(task_vectors(ordered, base_layer, layer_index))
    shared, blocks = replace(shared, coeffs=()), list(shared.coeffs)
    cores, effective_rank, energy, routes = _decouple_owned(blocks, config.rank)
    mask, consistencies, tau, kept = _filter_owned(blocks, config.gamma, config.rho)
    if effective_rank == min(blocks[0].shape):
        # Not `_merge_owned`, which frees the cores, here the N coefficient
        # blocks, before `reconstruct`: glibc then trims the heap and faults it
        # back in, about a fifth of pivot-deep's in-process time on 2 cores.
        blocks.clear()
        merged_coeffs = _merge_branch(shared.s, cores, alphas_col, config.inner)
        merged_coeffs += 0.0
    else:
        merged_coeffs = _merge_owned(shared.s, cores, blocks, alphas_col, config.inner)
    record = {
        "layer": layer_index + 1,
        "alpha": [float(a) for a in alphas_col],
        "tau": None if tau is None else float(tau),
        "consistency": [float(c) for c in consistencies],
        "mask": [float(m) for m in mask],
        "residual_mass_kept": kept,
        "singular_values": [float(v) for v in shared.s],
        "effective_rank": effective_rank,
        "core_energy": energy,
        "core_route": routes,
        "joint_tail": shared.joint_tail,
    }
    try:
        return reconstruct(shared, merged_coeffs, base_layer), record
    except ValueError as exc:
        raise ValueError(f"merged layer {layer_index + 1} overflowed: {exc}") from None


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

    rows = score_table.rows_for(ids, base.num_layers)
    beta = config.beta if config.beta is not None else score_table.beta
    alphas = layer_weights(score_increments(rows), beta)  # (N, L)

    results = [_merge_one_layer(li, ordered, base, alphas[:, li], config)
               for li in range(base.num_layers)]
    merged_layers = tuple(layer for layer, _ in results)
    records = [record for _, record in results]
    _warn_ranks(config.rank, [r["effective_rank"] for r in records])
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
            "magnitude_space": config.inner.magnitude_based,
        },
        "layers": records,
    }
    merged = ProjectorCheckpoint(id="merged", layers=merged_layers, dtype=base.dtype)
    return merged, diagnostics
