"""The stacked TIES formulation, kept as a byte-level reference for `operators.ties`.

It stacks all N flattened inputs into (N, n) float64 arrays and elects and
merges over the whole stack at once: the formulation `operators.ties` used
before it ran in column chunks. Trimming is a stable argsort on descending
magnitude, so the kept set follows the pinned tie rule without sharing code
with the library.
"""

import numpy as np

from pivotmerge import dare
from pivotmerge.operators import normalize_weights


def stacked_ties(mats, weights, trim_fraction):
    w = np.asarray(weights, dtype=np.float64)
    flat = np.stack([np.asarray(m, dtype=np.float64).ravel() for m in mats])
    n_entries = flat.shape[1]
    keep = max(1, int(np.floor(trim_fraction * n_entries + 1e-9)))
    if keep >= n_entries:
        trimmed = flat
    else:
        order = np.argsort(-np.abs(flat), axis=1, kind="stable")
        kept = np.zeros(flat.shape, dtype=bool)
        kept[np.arange(flat.shape[0])[:, None], order[:, :keep]] = True
        trimmed = np.where(kept, flat, 0.0)

    weighted_sum = w @ trimmed
    elected = np.sign(weighted_sum)
    agree = np.sign(trimmed) == elected
    num = (w[:, None] * np.where(agree, trimmed, 0.0)).sum(axis=0)
    den = (w[:, None] * agree).sum(axis=0)
    out = np.zeros(n_entries)
    live = weighted_sum != 0.0
    out[live] = num[live] / den[live]
    return out.reshape(np.shape(mats[0]))


def stacked_dare_ties(mats, weights, trim_fraction, drop_rate, seed):
    """`merge_weighted` with a dare_ties operator, through the stacked formulation."""
    w = normalize_weights(weights, len(mats))
    dropped = [dare(m, drop_rate, seed, stream=i) for i, m in enumerate(mats)]
    return stacked_ties(dropped, w, trim_fraction)
