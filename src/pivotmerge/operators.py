"""Baseline merge operators and the generic weighted-merge dispatcher.

All operators consume a list of equal-shape float64 matrices (task-vector
deltas) plus per-input weights. `merge_weighted` first rescales the weights
to a fixed sum (`weight_sum_target`, default N, which keeps the overall
parameter magnitude after merging unchanged) and then applies the selected
operator. A single input is always returned unchanged.

TIES semantics, pinned for reproducibility:

* trimming keeps the top `trim_fraction` of entries by absolute magnitude,
  per matrix over flattened entries; the kept count is
  ``max(1, floor(trim_fraction * n + 1e-9))`` and ranking ties at the cutoff
  keep lower flat indices;
* the per-entry sign is elected as the sign of the weighted sum of trimmed
  values; a weighted sum of exactly zero yields output 0;
* the output entry is the weighted mean of trimmed values whose sign matches
  the elected sign, with weights renormalized over the agreeing inputs only.

DARE zeroes each entry independently with probability `drop_rate` using a
Philox stream keyed by (seed, input ordinal), scaling survivors by
1/(1 - drop_rate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import philox
from .tensorstore import ProjectorCheckpoint, add_delta, layer_deltas, sorted_experts

KINDS = ("weight_average", "task_arithmetic", "ties", "dare_ties")


@dataclass(frozen=True)
class MergeOperator:
    """A merge operator kind plus exactly the parameters that kind requires."""

    kind: str
    trim_fraction: float | None = None
    scale: float | None = None
    drop_rate: float | None = None
    seed: int | None = None
    weight_sum_target: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}, expected one of {KINDS}")
        needs_trim = self.kind in ("ties", "dare_ties")
        needs_scale = self.kind == "task_arithmetic"
        needs_drop = self.kind == "dare_ties"
        if needs_trim:
            if self.trim_fraction is None or not 0.0 < self.trim_fraction <= 1.0:
                raise ValueError(f"{self.kind} requires trim_fraction in (0, 1], got {self.trim_fraction}")
        elif self.trim_fraction is not None:
            raise ValueError(f"trim_fraction is not a parameter of {self.kind}")
        if needs_scale:
            if self.scale is None or not self.scale > 0.0:
                raise ValueError(f"task_arithmetic requires scale > 0, got {self.scale}")
        elif self.scale is not None:
            raise ValueError(f"scale is not a parameter of {self.kind}")
        if needs_drop:
            if self.drop_rate is None or not 0.0 <= self.drop_rate < 1.0:
                raise ValueError(f"dare_ties requires drop_rate in [0, 1), got {self.drop_rate}")
            if self.seed is None:
                raise ValueError("dare_ties requires a seed")
        else:
            if self.drop_rate is not None or self.seed is not None:
                raise ValueError(f"drop_rate/seed are not parameters of {self.kind}")
        if self.weight_sum_target is not None and not self.weight_sum_target > 0.0:
            raise ValueError(f"weight_sum_target must be positive, got {self.weight_sum_target}")

    @staticmethod
    def average(weight_sum_target: float | None = None) -> "MergeOperator":
        return MergeOperator(kind="weight_average", weight_sum_target=weight_sum_target)

    @staticmethod
    def arithmetic(scale: float, weight_sum_target: float | None = None) -> "MergeOperator":
        return MergeOperator(kind="task_arithmetic", scale=scale, weight_sum_target=weight_sum_target)

    @staticmethod
    def ties(trim_fraction: float, weight_sum_target: float | None = None) -> "MergeOperator":
        return MergeOperator(kind="ties", trim_fraction=trim_fraction, weight_sum_target=weight_sum_target)

    @staticmethod
    def dare_ties(trim_fraction: float, drop_rate: float, seed: int = 0,
                  weight_sum_target: float | None = None) -> "MergeOperator":
        return MergeOperator(kind="dare_ties", trim_fraction=trim_fraction,
                             drop_rate=drop_rate, seed=seed, weight_sum_target=weight_sum_target)


def _as_stack(mats: Sequence) -> list[np.ndarray]:
    if len(mats) == 0:
        raise ValueError("need at least one matrix to merge")
    arrs = [np.asarray(m, dtype=np.float64) for m in mats]
    shape = arrs[0].shape
    for i, a in enumerate(arrs):
        if a.shape != shape:
            raise ValueError(f"shape mismatch: input 0 is {shape}, input {i} is {a.shape}")
    return arrs


def _validated_weights(weights: Sequence[float], n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("weights must be finite and non-negative")
    if w.sum() <= 0.0:
        raise ValueError("at least one weight must be positive")
    return w


def normalize_weights(weights: Sequence[float], n: int, target: float | None = None) -> np.ndarray:
    """Rescale non-negative weights so they sum to `target` (default n)."""
    w = _validated_weights(weights, n)
    goal = float(n) if target is None else float(target)
    return w * (goal / w.sum())


def weight_average(mats: Sequence, weights: Sequence[float]) -> np.ndarray:
    """Weighted mean, exact for identical inputs under any weights."""
    arrs = _as_stack(mats)
    w = _validated_weights(weights, len(arrs))
    # Computed as m0 + sum(w_i * (m_i - m0)) / sum(w) so identical inputs
    # reproduce the input bit-for-bit.
    base = arrs[0]
    acc = np.zeros_like(base)
    for wi, a in zip(w[1:], arrs[1:]):
        acc += wi * (a - base)
    return base + acc / w.sum()


def task_arithmetic(mats: Sequence, weights: Sequence[float], scale: float) -> np.ndarray:
    """Scaled weighted sum of task vectors: scale * sum_i w_i * M_i."""
    arrs = _as_stack(mats)
    w = _validated_weights(weights, len(arrs))
    out = np.zeros_like(arrs[0])
    for wi, a in zip(w, arrs):
        out += wi * a
    return float(scale) * out


def _trim_keep_count(trim_fraction: float, n_entries: int) -> int:
    return max(1, int(math.floor(trim_fraction * n_entries + 1e-9)))


def ties(mats: Sequence, weights: Sequence[float], trim_fraction: float) -> np.ndarray:
    """Trim-elect-merge: see the module docstring for the pinned semantics."""
    if not 0.0 < trim_fraction <= 1.0:
        raise ValueError(f"trim_fraction must be in (0, 1], got {trim_fraction}")
    arrs = _as_stack(mats)
    w = _validated_weights(weights, len(arrs))
    shape = arrs[0].shape
    flat = np.stack([a.ravel() for a in arrs])
    n_inputs, n_entries = flat.shape

    keep = _trim_keep_count(trim_fraction, n_entries)
    kept = np.zeros_like(flat, dtype=bool)
    if keep >= n_entries:
        kept[:] = True
    else:
        # Stable sort on -|x| keeps lower flat indices among equal magnitudes.
        order = np.argsort(-np.abs(flat), axis=1, kind="stable")
        rows = np.arange(n_inputs)[:, None]
        kept[rows, order[:, :keep]] = True
    trimmed = np.where(kept, flat, 0.0)

    weighted_sum = w @ trimmed
    elected = np.sign(weighted_sum)
    agree = np.sign(trimmed) == elected
    num = (w[:, None] * np.where(agree, trimmed, 0.0)).sum(axis=0)
    den = (w[:, None] * agree).sum(axis=0)
    out = np.zeros(n_entries)
    live = weighted_sum != 0.0
    out[live] = num[live] / den[live]
    return out.reshape(shape)


def dare(mat, drop_rate: float, seed: int, stream: int = 0) -> np.ndarray:
    """Drop entries with probability `drop_rate`, rescale survivors by 1/(1-p).

    The dropout pattern is a pure function of (seed, stream, entry index).
    """
    if not 0.0 <= drop_rate < 1.0:
        raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
    arr = np.asarray(mat, dtype=np.float64)
    if drop_rate == 0.0:
        return arr.copy()
    u = philox(seed, stream).random(arr.size).reshape(arr.shape)
    return np.where(u < drop_rate, 0.0, arr / (1.0 - drop_rate))


def merge_weighted(op: MergeOperator, mats: Sequence, weights: Sequence[float]) -> np.ndarray:
    """Normalize weights to the operator's target sum and dispatch.

    A single input is returned unchanged regardless of the operator.
    """
    arrs = _as_stack(mats)
    n = len(arrs)
    w = normalize_weights(weights, n, op.weight_sum_target)
    if n == 1:
        return arrs[0].copy()
    if op.kind == "weight_average":
        return weight_average(arrs, w)
    if op.kind == "task_arithmetic":
        return task_arithmetic(arrs, w, op.scale)
    if op.kind == "ties":
        return ties(arrs, w, op.trim_fraction)
    if op.kind == "dare_ties":
        dropped = [dare(a, op.drop_rate, op.seed, stream=i) for i, a in enumerate(arrs)]
        return ties(dropped, w, op.trim_fraction)
    raise ValueError(f"unknown operator kind {op.kind!r}")


def merge_checkpoint_deltas(experts: Sequence[ProjectorCheckpoint],
                            base: ProjectorCheckpoint,
                            op: MergeOperator,
                            weights: Sequence[float] | None = None) -> ProjectorCheckpoint:
    """Merge expert checkpoints through their augmented task vectors.

    Experts are processed in lexicographic id order; biases ride along as the
    last column of each layer matrix. Output dtype follows the base.
    """
    ordered = sorted_experts(experts, base)
    w = [1.0] * len(ordered) if weights is None else list(weights)
    merged_layers = [add_delta(layer, merge_weighted(op, layer_deltas(ordered, base, li), w))
                     for li, layer in enumerate(base.layers)]
    return ProjectorCheckpoint(id="merged", layers=tuple(merged_layers), dtype=base.dtype)
