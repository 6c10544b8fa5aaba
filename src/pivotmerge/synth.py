"""Synthetic expert checkpoints with a planted shared core.

Each layer is built on the bias-augmented matrix: a random base, a planted
rank-`core_rank` core shared by every expert, per-expert residuals that mix
a common component with private ones, and optional entrywise noise:

    expert_i = base + core + residual_scale * (f * R_common + (1 - f) * R_i)
               + noise_scale * G_i

All draws come from a single Philox stream keyed by the seed, so generation
is bit-reproducible. The orthonormal column basis of each planted core is
returned as ground truth for recovery scoring.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import orthonormal_basis, principal_angles
from .rng import philox
from .tensorstore import LAYER_INDEX, Layer, ProjectorCheckpoint

GROUND_TRUTH_NAME = "layer.{index}.core_basis"


@dataclass(frozen=True)
class SynthSpec:
    """Generator settings; dims are per-layer (d_out, d_in) and must chain."""

    dims: tuple[tuple[int, int], ...]
    experts: int
    core_rank: int
    residual_scale: float = 0.5
    shared_residual_fraction: float = 0.0
    noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        dims = tuple((int(o), int(i)) for o, i in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("dims must hold at least one layer")
        if any(o < 1 or i < 1 for o, i in dims):
            raise ValueError(f"dims must be positive, got {dims}")
        for li in range(len(dims) - 1):
            if dims[li + 1][1] != dims[li][0]:
                raise ValueError(
                    f"dims not chain-consistent: layer {li + 1} outputs {dims[li][0]} "
                    f"but layer {li + 2} takes {dims[li + 1][1]}")
        if self.experts < 1:
            raise ValueError(f"experts must be >= 1, got {self.experts}")
        if self.core_rank < 1:
            raise ValueError(f"core_rank must be >= 1, got {self.core_rank}")
        for name in ("residual_scale", "noise_scale"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {getattr(self, name)}")
        if not 0.0 <= self.shared_residual_fraction <= 1.0:
            raise ValueError(
                f"shared_residual_fraction must be in [0, 1], got {self.shared_residual_fraction}")

    @property
    def layers(self) -> int:
        return len(self.dims)

    @staticmethod
    def from_chain(chain, experts: int, core_rank: int, **kwargs) -> "SynthSpec":
        """Build a spec from a dimension chain [d0, d1, ..., dL]."""
        sizes = [int(d) for d in chain]
        if len(sizes) < 2:
            raise ValueError(f"dims chain needs at least two entries, got {sizes}")
        dims = tuple((sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1))
        return SynthSpec(dims=dims, experts=experts, core_rank=core_rank, **kwargs)

    def to_dict(self) -> dict:
        return {
            "layers": self.layers,
            "dims": [list(d) for d in self.dims],
            "experts": self.experts,
            "core_rank": self.core_rank,
            "residual_scale": self.residual_scale,
            "shared_residual_fraction": self.shared_residual_fraction,
            "noise_scale": self.noise_scale,
            "seed": self.seed,
        }


def expert_id(index: int, total: int) -> str:
    width = max(2, len(str(total)))
    return f"expert{index + 1:0{width}d}"


def generate(spec: SynthSpec
             ) -> tuple[ProjectorCheckpoint, list[ProjectorCheckpoint], list[np.ndarray]]:
    """Generate (base, experts, planted core bases), deterministic in the seed."""
    gen = philox(spec.seed)
    frac = spec.shared_residual_fraction
    base_layers = []
    expert_layers: list[list[Layer]] = [[] for _ in range(spec.experts)]
    core_bases = []
    for d_out, d_in in spec.dims:
        width = d_in + 1
        std = 1.0 / np.sqrt(d_in)
        base_mat = gen.standard_normal((d_out, width)) * std
        left = gen.standard_normal((d_out, spec.core_rank))
        right = gen.standard_normal((spec.core_rank, width))
        core = (left @ right) * (std / np.sqrt(spec.core_rank))
        common = gen.standard_normal((d_out, width)) * std
        base_layers.append(Layer(base_mat, has_bias=True))
        # span(core) = q @ span(r @ right): a basis from the small factors
        # instead of an SVD of the full (d_out, width) core
        q, r = np.linalg.qr(left)
        core_bases.append(q @ orthonormal_basis(r @ right))
        for ei in range(spec.experts):
            private = gen.standard_normal((d_out, width)) * std
            residual = spec.residual_scale * (frac * common + (1.0 - frac) * private)
            noise = spec.noise_scale * gen.standard_normal((d_out, width)) * std
            expert_layers[ei].append(Layer(base_mat + core + residual + noise, has_bias=True))
    base = ProjectorCheckpoint(id="base", layers=tuple(base_layers), dtype="float64")
    experts = [
        ProjectorCheckpoint(id=expert_id(ei, spec.experts),
                            layers=tuple(expert_layers[ei]), dtype="float64")
        for ei in range(spec.experts)
    ]
    return base, experts, core_bases


def ground_truth_tensors(core_bases) -> dict[str, np.ndarray]:
    return {GROUND_TRUTH_NAME.format(index=i + 1): np.asarray(b)
            for i, b in enumerate(core_bases)}


def load_ground_truth(tensors) -> list[np.ndarray]:
    """Recover per-layer core bases from a name -> array dict of ground-truth tensors."""
    names: dict[int, str] = {}
    for name in tensors:
        parts = name.split(".")
        if (len(parts) != 3 or parts[0] != "layer" or LAYER_INDEX.fullmatch(parts[1]) is None
                or parts[2] != "core_basis"):
            raise ValueError(f"unexpected ground-truth tensor name {name!r}")
        index = int(parts[1])
        if index in names:
            raise ValueError(f"{names[index]!r} and {name!r} are both ground-truth layer {index}")
        names[index] = name
    if sorted(names) != list(range(1, len(names) + 1)):
        raise ValueError(f"ground-truth layers must be 1..L contiguous, got {sorted(names)}")
    return [tensors[names[i]] for i in range(1, len(names) + 1)]


def recovery_score(merged: ProjectorCheckpoint, base: ProjectorCheckpoint,
                   core_bases) -> list[float]:
    """Mean principal angle (degrees) between each layer's merged delta and its planted core.

    A merged delta with every entry exactly zero is degenerate and reported
    as 90 degrees with a warning; any other delta, however small, has its
    angles measured.
    """
    if len(core_bases) != base.num_layers:
        raise ValueError(
            f"got {len(core_bases)} core bases for {base.num_layers} layers")
    if merged.layer_shapes() != base.layer_shapes():
        raise ValueError("merged and base checkpoints have different layer shapes")
    out = []
    for li in range(base.num_layers):
        delta = merged.layers[li].matrix - base.layers[li].matrix
        if not delta.any():
            warnings.warn(f"layer {li + 1}: merged delta is zero; reporting 90 degrees")
            out.append(90.0)
            continue
        out.append(float(np.mean(principal_angles(delta, core_bases[li]))))
    return out
