"""Baseline merge operators and the generic weighted-merge dispatcher.

All operators consume a list of equal-shape float64 matrices (task-vector
deltas) plus per-input weights. `merge_weighted` first rescales the weights
to sum to N, which keeps the overall parameter magnitude after merging
unchanged, and then applies the selected operator. A single input is always
returned unchanged.

TIES semantics, pinned for reproducibility:

* trimming keeps the top `trim_fraction` of entries by absolute magnitude,
  per matrix over flattened entries; the kept count is
  ``max(1, floor(trim_fraction * n + 1e-9))`` and ranking ties at the cutoff
  keep lower flat indices. The kept set is found by a linear-time selection
  of the cutoff magnitude, not a sort, and is exactly the set a stable sort
  on descending magnitude gives;
* inputs containing NaN or Inf are rejected with a ValueError naming the
  input;
* the per-entry sign is elected as the sign of the weighted sum of trimmed
  values; a weighted sum of exactly zero yields output 0;
* the output entry is the weighted mean of trimmed values whose sign matches
  the elected sign, with weights renormalized over the agreeing inputs only.

TIES memory is bounded: the trim step keeps one (N, n) bool mask of kept
entries, found input by input, and the elect and merge steps then run over
column chunks of the flattened inputs, so no (N, n) float64 temporary is
built. A chunk is small enough to stay in cache and takes a few unmasked
passes. Trimming multiplies by the mask. After the election the chunk is
multiplied by the elected sign, which is exact, so an entry agrees with the
election iff it is then positive. Clamping at zero and weighting leaves the
agreeing terms' magnitudes, and their sum times the elected sign is the
numerator. That is the signed sum to the bit: round-to-nearest is symmetric
in sign, every agreeing term of a live entry has the elected sign, and a
signed zero only meets a nonzero term or an entry whose output is 0. Each
chunk adds the inputs in input order, entry by entry, so the result does not
depend on the chunk width.

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
# Columns per TIES elect-and-merge step: an (N, _CHUNK) float64 chunk is 512 KiB at
# N = 4, so the chunk and its temporaries stay in a 2 MiB per-core L2 cache.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class MergeOperator:
    """A merge operator kind plus exactly the parameters that kind requires."""

    kind: str
    trim_fraction: float | None = None
    scale: float | None = None
    drop_rate: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}, expected one of {KINDS}")
        needs_trim = self.magnitude_based
        needs_scale = self.kind == "task_arithmetic"
        needs_drop = self.kind == "dare_ties"
        if needs_trim:
            if self.trim_fraction is None or not 0.0 < self.trim_fraction <= 1.0:
                raise ValueError(f"trim_fraction must be in (0, 1], got {self.trim_fraction}")
        elif self.trim_fraction is not None:
            raise ValueError(f"trim_fraction is not a parameter of {self.kind}")
        if needs_scale:
            if self.scale is None or not 0.0 < self.scale < math.inf:
                raise ValueError(f"scale must be positive and finite, got {self.scale}")
        elif self.scale is not None:
            raise ValueError(f"scale is not a parameter of {self.kind}")
        if needs_drop:
            if self.drop_rate is None or not 0.0 <= self.drop_rate < 1.0:
                raise ValueError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
            if self.seed is None:
                raise ValueError("dare_ties requires a seed")
        else:
            if self.drop_rate is not None or self.seed is not None:
                raise ValueError(f"drop_rate/seed are not parameters of {self.kind}")

    @property
    def magnitude_based(self) -> bool:
        """True for the operators that trim and elect by magnitude (ties, dare_ties)."""
        return self.kind in ("ties", "dare_ties")

    @staticmethod
    def average() -> "MergeOperator":
        return MergeOperator(kind="weight_average")

    @staticmethod
    def arithmetic(scale: float) -> "MergeOperator":
        return MergeOperator(kind="task_arithmetic", scale=scale)

    @staticmethod
    def ties(trim_fraction: float) -> "MergeOperator":
        return MergeOperator(kind="ties", trim_fraction=trim_fraction)

    @staticmethod
    def dare_ties(trim_fraction: float, drop_rate: float, seed: int = 0) -> "MergeOperator":
        return MergeOperator(kind="dare_ties", trim_fraction=trim_fraction,
                             drop_rate=drop_rate, seed=seed)


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


def normalize_weights(weights: Sequence[float], n: int) -> np.ndarray:
    """Rescale non-negative weights so they sum to n."""
    w = _validated_weights(weights, n)
    return w * (float(n) / w.sum())


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
    # An overflow becomes Inf, which the merged Layer rejects with one error.
    with np.errstate(over="ignore"):
        return float(scale) * out


def _trim_keep_count(trim_fraction: float, n_entries: int) -> int:
    return max(1, int(math.floor(trim_fraction * n_entries + 1e-9)))


def _trim_mask(rows: Sequence[np.ndarray], keep: int) -> np.ndarray:
    """Per flattened input, mark the `keep` largest magnitudes; ties at the cutoff keep lower flat indices."""
    n_entries = rows[0].size
    cut = n_entries - keep
    kept = np.empty((len(rows), n_entries), dtype=bool)
    mag = np.empty(n_entries)
    for row, out in zip(rows, kept):
        np.abs(row, out=mag)
        mag.partition(cut)
        cutoff = mag[cut]
        # Partitioning reorders the buffer; recompute rather than hold a second copy.
        np.abs(row, out=mag)
        np.greater(mag, cutoff, out=out)
        # At most keep - 1 entries exceed the cutoff, so at least one tied entry is taken.
        # Scan for the first `need` ties one chunk at a time: on sparse inputs the
        # cutoff is 0.0, and an index of every tie would cover most of the row.
        need = keep - np.count_nonzero(out)
        for start in range(0, n_entries, _CHUNK):
            tied = np.flatnonzero(mag[start:start + _CHUNK] == cutoff)[:need]
            out[start + tied] = True
            need -= tied.size
            if need == 0:
                break
    return kept


def _merge_chunk(w: np.ndarray, flats: list[np.ndarray], kept: np.ndarray | None,
                 cols: slice, out: np.ndarray) -> None:
    """Elect and merge the columns `cols` of the flattened inputs into `out[cols]`."""
    trimmed = np.empty((len(flats), cols.stop - cols.start))
    for i, (row, flat) in enumerate(zip(trimmed, flats)):
        row[:] = flat[cols]
        if kept is not None:
            row *= kept[i, cols]
    weighted_sum = w @ trimmed
    live = weighted_sum != 0.0
    elected = np.sign(weighted_sum, out=weighted_sum)
    # Multiplying by the elected sign is exact, so an entry agrees with the
    # election iff it is then positive (see the module docstring for why the
    # magnitudes give the signed sum's bytes). Both sums add the inputs in
    # order, entry by entry, which is the order of an axis-0 sum.
    trimmed *= elected
    agree = trimmed > 0.0
    np.maximum(trimmed, 0.0, out=trimmed)
    trimmed *= w[:, None]
    den = (agree * w[:, None]).sum(axis=0)
    num = trimmed.sum(axis=0) * elected
    np.divide(num, den, out=out[cols], where=live)


def ties(mats: Sequence, weights: Sequence[float], trim_fraction: float) -> np.ndarray:
    """Trim-elect-merge: see the module docstring for the pinned semantics."""
    MergeOperator.ties(trim_fraction)  # the range check
    arrs = _as_stack(mats)
    w = _validated_weights(weights, len(arrs))
    for i, a in enumerate(arrs):
        if not np.isfinite(a).all():
            raise ValueError(f"ties input {i} contains NaN or Inf")
    flats = [a.ravel() for a in arrs]
    n_entries = flats[0].size

    keep = _trim_keep_count(trim_fraction, n_entries)
    kept = _trim_mask(flats, keep) if keep < n_entries else None
    out = np.zeros(n_entries)
    # The last chunk also takes the remainder: numpy sums a one-column (N, 1)
    # chunk over axis 0 pairwise, not in input order, which changes the bytes.
    n_chunks = max(1, n_entries // _CHUNK)
    for k in range(n_chunks):
        stop = n_entries if k == n_chunks - 1 else (k + 1) * _CHUNK
        _merge_chunk(w, flats, kept, slice(k * _CHUNK, stop), out)
    return out.reshape(arrs[0].shape)


def dare(mat, drop_rate: float, seed: int, stream: int = 0) -> np.ndarray:
    """Drop entries with probability `drop_rate`, rescale survivors by 1/(1-p).

    The dropout pattern is a pure function of (seed, stream, entry index).
    """
    MergeOperator.dare_ties(1.0, drop_rate, seed)  # the range check
    arr = np.asarray(mat, dtype=np.float64)
    if drop_rate == 0.0:
        return arr.copy()
    u = philox(seed, stream).random(arr.size).reshape(arr.shape)
    return np.where(u < drop_rate, 0.0, arr / (1.0 - drop_rate))


def merge_weighted(op: MergeOperator, mats: Sequence, weights: Sequence[float]) -> np.ndarray:
    """Normalize weights to sum to N and dispatch.

    A single input is returned unchanged regardless of the operator.
    """
    arrs = _as_stack(mats)
    n = len(arrs)
    w = normalize_weights(weights, n)
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
                            op: MergeOperator) -> ProjectorCheckpoint:
    """Merge expert checkpoints through their augmented task vectors, uniformly weighted.

    Experts are processed in lexicographic id order; biases ride along as the
    last column of each layer matrix. Output dtype follows the base. A merged
    layer that overflows float64 raises ValueError naming the layer.
    """
    ordered = sorted_experts(experts, base)
    w = [1.0] * len(ordered)
    merged_layers = []
    for li, layer in enumerate(base.layers):
        delta = merge_weighted(op, layer_deltas(ordered, layer, li), w)
        try:
            merged_layers.append(add_delta(layer, delta))
        except ValueError as exc:
            raise ValueError(f"merged layer {li + 1} overflowed: {exc}") from None
    return ProjectorCheckpoint(id="merged", layers=tuple(merged_layers), dtype=base.dtype)
