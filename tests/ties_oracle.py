"""Step-by-step TIES reference, written with plain Python loops.

Mirrors the documented operator semantics directly and shares no code with
the library: trim per matrix (keep count = max(1, floor(trim * n + 1e-9)),
magnitude ties resolved toward lower flat indices), elect the per-entry sign
from the weighted sum of trimmed values, then average the sign-agreeing
trimmed values with their weights. Zero weighted sum gives output 0.
"""

import math


def normalize(weights, target):
    total = sum(weights)
    return [w * (target / total) for w in weights]


def kept_indices(flat, trim_fraction):
    """Flat indices that trimming keeps."""
    n = len(flat)
    keep = max(1, math.floor(trim_fraction * n + 1e-9))
    order = sorted(range(n), key=lambda i: (-abs(flat[i]), i))
    return set(order[:keep])


def trim_matrix(flat, trim_fraction):
    kept = kept_indices(flat, trim_fraction)
    return [flat[i] if i in kept else 0.0 for i in range(len(flat))]


def ties_reference(mats, weights, trim_fraction, weight_sum_target=None):
    """mats: list of equal-shape nested lists (2-D). Returns a nested list."""
    n_inputs = len(mats)
    rows = len(mats[0])
    cols = len(mats[0][0])
    target = float(n_inputs) if weight_sum_target is None else weight_sum_target
    w = normalize([float(x) for x in weights], target)

    flats = [[float(v) for row in m for v in row] for m in mats]
    trimmed = [trim_matrix(f, trim_fraction) for f in flats]

    out_flat = []
    for e in range(rows * cols):
        weighted_sum = 0.0
        for i in range(n_inputs):
            weighted_sum += w[i] * trimmed[i][e]
        if weighted_sum == 0.0:
            out_flat.append(0.0)
            continue
        sign = 1.0 if weighted_sum > 0.0 else -1.0
        num = 0.0
        den = 0.0
        for i in range(n_inputs):
            v = trimmed[i][e]
            v_sign = 0.0 if v == 0.0 else (1.0 if v > 0.0 else -1.0)
            if v_sign == sign:
                num += w[i] * v
                den += w[i]
        out_flat.append(num / den)
    return [[out_flat[r * cols + c] for c in range(cols)] for r in range(rows)]
