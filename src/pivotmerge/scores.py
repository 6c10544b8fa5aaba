"""Alignment scores, layer-wise score increments, and softmax merge weights.

A ScoreTable holds one alignment score per expert per layer plus the softmax
temperature, read from a score JSON file. The merge weight for expert i at
layer l is the temperature softmax over experts of the layer-wise score
increment, and `layer_weights` returns all of them as one (N, L) array.

Score JSON schema (ids are strings)::

    {"beta": 0.05, "experts": [{"id": "a", "scores": [s1, ..., sL]}, ...]}
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensorstore import write_json

DEFAULT_BETA = 0.05


@dataclass(frozen=True)
class ScoreTable:
    """Per-expert, per-layer alignment scores with a softmax temperature.

    An expert's score at layer l is the mean, over a held-out set, of the
    per-sample cosine between its layer-l projected features (pooled to one
    vector per sample) and the sample's text embedding. It is computed outside
    pivotmerge and handed in as score JSON.
    """

    expert_ids: tuple[str, ...]
    scores: np.ndarray  # (N, L)
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        ids = tuple(self.expert_ids)
        for eid in ids:
            if not isinstance(eid, str):
                raise ValueError(f"expert id must be a string, got {eid!r}")
        if len(set(ids)) != len(ids):
            raise ValueError("expert ids must be unique")
        s = np.asarray(self.scores, dtype=np.float64)
        if s.ndim != 2 or s.shape[0] != len(ids) or s.shape[0] < 1 or s.shape[1] < 1:
            raise ValueError(f"scores must be (num_experts, num_layers), got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("scores contain NaN or Inf")
        _check_beta(self.beta)
        object.__setattr__(self, "expert_ids", ids)
        object.__setattr__(self, "scores", s)

    def rows_for(self, expert_ids: Sequence[str], num_layers: int) -> np.ndarray:
        """Score rows for the given ids, in the given order, checked against the layer count."""
        index = {eid: i for i, eid in enumerate(self.expert_ids)}
        missing = [eid for eid in expert_ids if eid not in index]
        if missing:
            raise ValueError(f"score table is missing experts: {missing}")
        if self.scores.shape[1] != num_layers:
            raise ValueError(
                f"score table has {self.scores.shape[1]} layers but checkpoints have {num_layers}")
        return self.scores[[index[eid] for eid in expert_ids]]


def _check_beta(beta: float) -> None:
    """The softmax temperature's range, for every holder of a beta."""
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")


def score_increments(scores) -> np.ndarray:
    """Layer-wise increments along the last axis; the first layer keeps its raw score."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim not in (1, 2) or s.shape[-1] < 1:
        raise ValueError(f"scores must be a vector or (N, L) matrix, got shape {s.shape}")
    return np.concatenate([s[..., :1], np.diff(s, axis=-1)], axis=-1)


def layer_weights(increments, beta: float) -> np.ndarray:
    """Column-wise temperature softmax of score increments across experts.

    Returns the (N, L) merge weights; each column sums to 1. Entries are
    strictly positive in exact arithmetic but may saturate to 0 or 1 in
    float64 at extreme temperatures. A beta so small that increments / beta
    overflows float64 raises ValueError.
    """
    _check_beta(beta)
    inc = np.asarray(increments, dtype=np.float64)
    if inc.ndim != 2:
        raise ValueError(f"increments must be (num_experts, num_layers), got {inc.shape}")
    with np.errstate(over="ignore"):
        z = inc / float(beta)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"beta {beta} is too small: score increments / beta overflow float64")
    z = z - z.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def threshold_from_ratio(consistencies, rho: float) -> float:
    """Order-statistic threshold for a retention ratio rho in (0, 1).

    With m sorted values, returns the max(1, floor(m * (1 - rho)))-th smallest.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    c = np.asarray(consistencies, dtype=np.float64).ravel()
    m = c.size
    if m < 1:
        raise ValueError("need at least one consistency value")
    k = max(1, int(math.floor(m * (1.0 - rho))))
    k = min(k, m)
    return float(np.sort(c)[k - 1])


def read_scores(path) -> ScoreTable:
    """Parse a score JSON file; a missing beta falls back to 0.05 with a warning."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: malformed score JSON: {type(exc).__name__}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("experts"), list):
        raise ValueError(f"{path}: expected an object with an 'experts' list")
    if "beta" in doc:
        beta = doc["beta"]
        if not isinstance(beta, (int, float)) or isinstance(beta, bool):
            raise ValueError(f"{path}: beta must be a number, got {beta!r}")
    else:
        warnings.warn(f"{path}: no beta in score file, defaulting to {DEFAULT_BETA}")
        beta = DEFAULT_BETA
    ids, rows = [], []
    for entry in doc["experts"]:
        if not isinstance(entry, dict) or "id" not in entry or "scores" not in entry:
            raise ValueError(f"{path}: each expert needs 'id' and 'scores'")
        values = entry["scores"]
        if (not isinstance(values, list) or not values
                or any(not isinstance(v, (int, float)) or isinstance(v, bool) for v in values)):
            raise ValueError(f"{path}: expert {entry['id']!r} has invalid scores")
        ids.append(entry["id"])
        rows.append(values)
    if not ids:
        raise ValueError(f"{path}: no experts in score file")
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise ValueError(f"{path}: ragged score lists, lengths {sorted(lengths)}")
    try:
        return ScoreTable(expert_ids=tuple(ids), scores=np.array(rows, dtype=np.float64),
                          beta=float(beta))
    except (ValueError, OverflowError) as exc:
        # OverflowError: an integer literal beyond the float64 range
        raise ValueError(f"{path}: {exc}") from exc


def write_scores(path, table: ScoreTable) -> None:
    doc = {
        "beta": table.beta,
        "experts": [
            {"id": eid, "scores": [float(v) for v in row]}
            for eid, row in zip(table.expert_ids, table.scores)
        ],
    }
    write_json(path, doc)

