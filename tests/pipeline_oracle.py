"""Straight-line reference for the whole layer-merge computation.

Independent of the library: raw numpy SVD without sign canonicalization,
explicit loops everywhere, every stage written out from its defining
formulas. Used to cross-check full merges on small random inputs.
"""

import numpy as np

from ties_oracle import ties_reference


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def reference_pivot_merge(base_layers, expert_layers, score_rows, rank, gamma, rho, beta,
                          trim=1.0, magnitude=True):
    """base_layers: [(W, b)]; expert_layers: [expert][(W, b)], experts pre-sorted.

    Returns a list of (weight, bias) per layer.
    """
    n = len(expert_layers)
    depth = len(base_layers)
    scores = np.asarray(score_rows, dtype=np.float64)

    increments = np.zeros((n, depth))
    for i in range(n):
        increments[i, 0] = scores[i, 0]
        for layer in range(1, depth):
            increments[i, layer] = scores[i, layer] - scores[i, layer - 1]
    alphas = np.zeros((n, depth))
    for layer in range(depth):
        z = increments[:, layer] / beta
        z = z - z.max()
        e = np.exp(z)
        alphas[:, layer] = e / e.sum()

    merged = []
    for layer in range(depth):
        w0, b0 = base_layers[layer]
        base_aug = np.hstack([np.asarray(w0, float), np.asarray(b0, float)[:, None]])
        deltas = []
        for i in range(n):
            wi, bi = expert_layers[i][layer]
            aug = np.hstack([np.asarray(wi, float), np.asarray(bi, float)[:, None]])
            deltas.append(aug - base_aug)
        width = base_aug.shape[1]

        u, s, vt = np.linalg.svd(np.hstack(deltas), full_matrices=False)
        blocks = [vt[:, i * width:(i + 1) * width] for i in range(n)]
        k = blocks[0].shape[0]
        r = min(rank, min(k, width))

        cores, residuals = [], []
        for block in blocks:
            q, lam, rt = np.linalg.svd(block, full_matrices=False)
            core = (q[:, :r] * lam[:r]) @ rt[:r]
            cores.append(core)
            residuals.append(block - core)

        consist = np.zeros(k)
        for row in range(k):
            acc = 0.0
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    x = residuals[i][row]
                    y = residuals[j][row]
                    nx = float(np.sqrt((x * x).sum()))
                    ny = float(np.sqrt((y * y).sum()))
                    if nx < 1e-12 or ny < 1e-12:
                        continue
                    acc += float(x @ y) / (nx * ny)
            consist[row] = acc / (n * (n - 1))
        k_tau = max(1, int(np.floor(k * (1.0 - rho))))
        k_tau = min(k_tau, k)
        tau = np.sort(consist)[k_tau - 1]
        mask = _sigmoid(gamma * (consist - tau))

        filtered = []
        for block in residuals:
            masked = mask[:, None] * block
            total = np.abs(block).sum()
            masked_total = np.abs(masked).sum()
            filtered.append(masked if masked_total < 1e-12 else masked * (total / masked_total))

        core_w = list(alphas[:, layer])
        resid_w = [1.0] * n

        def run_op(mats, weights):
            return np.asarray(ties_reference([m.tolist() for m in mats], weights, trim))

        if magnitude:
            scaled_cores = [s[:, None] * c for c in cores]
            scaled_resid = [s[:, None] * f for f in filtered]
            core_merged = run_op(scaled_cores, core_w)
            resid_merged = run_op(scaled_resid, resid_w)

            def unscale(mat):
                out = np.zeros_like(mat)
                for row in range(k):
                    if s[row] > 0.0:
                        out[row] = mat[row] / s[row]
                return out

            v_star = unscale(core_merged) + unscale(resid_merged)
        else:
            v_star = run_op(cores, core_w) + run_op(filtered, resid_w)

        merged_aug = base_aug + (u * s) @ v_star
        merged.append((merged_aug[:, :-1], merged_aug[:, -1]))
    return merged
