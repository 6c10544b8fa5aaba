"""Alignment scores, layer-wise score increments, and softmax merge weights.

A ScoreTable holds one alignment score per expert per layer (mean cosine
between projected features and text embeddings on a held-out set) plus the
softmax temperature. Scores can be ingested directly from JSON or computed
from pre-extracted feature containers; the merge weight for expert i at
layer l is the temperature softmax over experts of the layer-wise score
increment, and `layer_weights` returns all of them as one (N, L) array.

Score JSON schema (ids are strings)::

    {"beta": 0.05, "experts": [{"id": "a", "scores": [s1, ..., sL]}, ...]}

Feature containers hold "texts" (M, d) plus "expert.{id}.layer.{l}.features"
tensors (M, d), one vector per sample: token-grid features must be mean
pooled per sample upstream.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensorstore import LAYER_INDEX, read_container, write_json

DEFAULT_BETA = 0.05


@dataclass(frozen=True)
class ScoreTable:
    """Per-expert, per-layer alignment scores with a softmax temperature."""

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

    def rows_for(self, expert_ids: Sequence[str]) -> np.ndarray:
        """Score rows for the given ids, in the given order."""
        index = {eid: i for i, eid in enumerate(self.expert_ids)}
        missing = [eid for eid in expert_ids if eid not in index]
        if missing:
            raise ValueError(f"score table is missing experts: {missing}")
        return self.scores[[index[eid] for eid in expert_ids]]


def _check_beta(beta: float) -> None:
    """The softmax temperature's range, for every holder of a beta."""
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")


def _rowwise_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of each row pair; 0.0 where either row is zero (a norm of exactly 0)."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    ok = (na > 0.0) & (nb > 0.0)
    out = np.zeros(a.shape[0])
    dots = np.einsum("ij,ij->i", a, b)
    out[ok] = dots[ok] / (na[ok] * nb[ok])
    return np.clip(out, -1.0, 1.0)


def compute_scores_from_features(layer_features: Sequence, texts) -> np.ndarray:
    """Mean per-sample cosine between each layer's features and the text embeddings.

    `layer_features` is one (M, d) array per layer; `texts` is (M, d).
    Returns a length-L score vector. NaN or Inf entries raise ValueError.
    """
    t = np.asarray(texts, dtype=np.float64)
    if t.ndim != 2:
        raise ValueError(f"texts must be (samples, dim), got shape {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError("texts contain NaN or Inf")
    if t.shape[0] == 0:
        raise ValueError("need at least one sample")
    if len(layer_features) == 0:
        raise ValueError("need at least one layer of features")
    out = np.zeros(len(layer_features))
    for li, feats in enumerate(layer_features):
        f = np.asarray(feats, dtype=np.float64)
        if f.shape != t.shape:
            raise ValueError(
                f"layer {li + 1} features have shape {f.shape}, expected {t.shape}")
        if not np.isfinite(f).all():
            raise ValueError(f"layer {li + 1} features contain NaN or Inf")
        out[li] = _rowwise_cosine(f, t).mean()
    return out


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


def score_table_from_feature_container(path, beta: float = DEFAULT_BETA) -> ScoreTable:
    """Build a ScoreTable from a pre-extracted feature container.

    Expert ids are ordered lexicographically; every expert must provide the
    same contiguous 1..L layer range over the same samples as "texts".
    """
    tensors = read_container(path)
    if "texts" not in tensors:
        raise ValueError(f"{path}: feature container is missing the 'texts' tensor")
    texts = tensors.pop("texts")
    per_expert: dict[str, dict[int, str]] = {}
    for name in tensors:
        parts = name.split(".")
        if len(parts) < 4 or parts[0] != "expert" or parts[-3] != "layer" or parts[-1] != "features":
            raise ValueError(f"{path}: unexpected tensor name {name!r}")
        if LAYER_INDEX.fullmatch(parts[-2]) is None:
            raise ValueError(f"{path}: bad layer index in {name!r}")
        eid, layer = ".".join(parts[1:-3]), int(parts[-2])
        layers = per_expert.setdefault(eid, {})
        if layer in layers:
            raise ValueError(f"{path}: {layers[layer]!r} and {name!r} are both expert {eid!r}"
                             f" layer {layer}")
        layers[layer] = name
    if not per_expert:
        raise ValueError(f"{path}: no expert feature tensors found")
    ids = sorted(per_expert)
    num_layers = {len(layers) for layers in per_expert.values()}
    if len(num_layers) != 1:
        raise ValueError(f"{path}: experts disagree on layer count: {sorted(num_layers)}")
    depth = num_layers.pop()
    rows = []
    for eid in ids:
        layers = per_expert[eid]
        if sorted(layers) != list(range(1, depth + 1)):
            raise ValueError(f"{path}: expert {eid!r} layers must be 1..{depth} contiguous")
        try:
            rows.append(compute_scores_from_features(
                [tensors[layers[i]] for i in range(1, depth + 1)], texts))
        except ValueError as exc:
            raise ValueError(f"{path}: expert {eid!r}: {exc}") from exc
    return ScoreTable(expert_ids=tuple(ids), scores=np.stack(rows), beta=beta)
