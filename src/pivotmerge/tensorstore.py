"""On-disk tensor container format and the projector-checkpoint data model.

Container layout::

    [ header length : 8-byte little-endian unsigned integer ]
    [ header        : UTF-8 JSON, exactly that many bytes   ]
    [ payload       : packed raw little-endian tensor data  ]

The header maps each tensor name to ``{"dtype": ..., "shape": [...],
"offsets": [begin, end]}`` where offsets are byte positions relative to the
start of the payload. Ranges are non-overlapping, ascending, and densely
packed. Header keys are serialized in sorted order and the payload is packed
in that same order, so writing the same tensor set always produces the same
bytes.

Checkpoints are containers holding ``layer.{i}.weight`` (2-D) and optionally
``layer.{i}.bias`` (1-D) tensors with 1-based contiguous layer indices. Bias
presence must be uniform across layers. Values are promoted to float64 on
load; the source dtype is recorded and reused when writing results.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}
_HEADER_LEN = struct.Struct("<Q")
_LAYER_NAME = re.compile(r"^layer\.(\d+)\.(weight|bias)$")


class ContainerError(ValueError):
    """The file does not conform to the container format."""


@dataclass(frozen=True)
class Tensor:
    """A named, shaped, row-major numeric array (float32 or float64)."""

    name: str
    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data)
        dtype = str(arr.dtype)
        if dtype not in _DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r} for tensor {self.name!r}")
        object.__setattr__(self, "data", arr)

    @property
    def dtype(self) -> str:
        return str(self.data.dtype)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)


def write_container(path, tensors: Sequence[Tensor]) -> None:
    """Write tensors to `path`. Names must be unique; output is byte-reproducible."""
    names = [t.name for t in tensors]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate tensor names: {dupes}")
    ordered = sorted(tensors, key=lambda t: t.name)
    header: dict[str, dict] = {}
    chunks: list[bytes] = []
    offset = 0
    for t in ordered:
        raw = np.ascontiguousarray(t.data, dtype=_DTYPES[t.dtype]).tobytes()
        header[t.name] = {
            "dtype": t.dtype,
            "shape": list(t.shape),
            "offsets": [offset, offset + len(raw)],
        }
        chunks.append(raw)
        offset += len(raw)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER_LEN.pack(len(header_bytes)))
        fh.write(header_bytes)
        for chunk in chunks:
            fh.write(chunk)


def read_container(path) -> list[Tensor]:
    """Read all tensors from `path`, in header (sorted-name) order."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER_LEN.size:
        raise ContainerError(f"{path}: file too short for header length prefix")
    (header_len,) = _HEADER_LEN.unpack_from(blob)
    body = blob[_HEADER_LEN.size:]
    if header_len > len(body):
        raise ContainerError(f"{path}: truncated file (header length {header_len} exceeds file size)")

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ContainerError(f"{path}: duplicate header key {key!r}")
            obj[key] = value
        return obj

    try:
        header = json.loads(body[:header_len].decode("utf-8"), object_pairs_hook=unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: header must be a JSON object")
    payload = body[header_len:]

    entries = []
    for name, meta in header.items():
        if not isinstance(meta, dict):
            raise ContainerError(f"{path}: entry {name!r} is not an object")
        dtype = meta.get("dtype")
        if dtype not in _DTYPES:
            raise ContainerError(f"{path}: entry {name!r} has unknown dtype {dtype!r}")
        shape = meta.get("shape")
        if not isinstance(shape, list) or any(not isinstance(d, int) or d < 0 for d in shape):
            raise ContainerError(f"{path}: entry {name!r} has invalid shape {shape!r}")
        offsets = meta.get("offsets")
        if (not isinstance(offsets, list) or len(offsets) != 2
                or any(not isinstance(o, int) or o < 0 for o in offsets)):
            raise ContainerError(f"{path}: entry {name!r} has invalid offsets {offsets!r}")
        begin, end = offsets
        expected = int(np.prod(shape, dtype=np.int64)) * _DTYPES[dtype].itemsize
        if end - begin != expected:
            raise ContainerError(
                f"{path}: entry {name!r} byte range {end - begin} does not match shape (expected {expected})")
        if end > len(payload):
            raise ContainerError(f"{path}: truncated file (entry {name!r} ends past payload)")
        entries.append((name, dtype, shape, begin, end))

    by_begin = sorted(entries, key=lambda e: e[3])
    for (na, _, _, _, ea), (nb, _, _, bb, _) in zip(by_begin, by_begin[1:]):
        if bb < ea:
            raise ContainerError(f"{path}: overlapping byte ranges for {na!r} and {nb!r}")

    out = []
    for name, dtype, shape, begin, end in entries:
        arr = np.frombuffer(payload[begin:end], dtype=_DTYPES[dtype]).reshape(shape)
        out.append(Tensor(name=name, data=arr.astype(arr.dtype.newbyteorder("="))))
    return out


@dataclass(frozen=True)
class Layer:
    """One projector layer: weight (d_out, d_in) plus optional bias (d_out,)."""

    weight: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"layer weight must be 2-D, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("layer weight contains NaN or Inf")
        object.__setattr__(self, "weight", w)
        if self.bias is not None:
            b = np.asarray(self.bias, dtype=np.float64)
            if b.ndim != 1 or b.size != w.shape[0]:
                raise ValueError(
                    f"bias length {b.shape} does not match output dim {w.shape[0]}")
            if not np.all(np.isfinite(b)):
                raise ValueError("layer bias contains NaN or Inf")
            object.__setattr__(self, "bias", b)

    @property
    def d_out(self) -> int:
        return self.weight.shape[0]

    @property
    def d_in(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class AugmentedLayer:
    """Layer with the bias folded in as the last matrix column (when present)."""

    matrix: np.ndarray
    had_bias: bool


def augment(layer: Layer) -> AugmentedLayer:
    """Append the bias as the last column of the weight matrix."""
    if layer.bias is None:
        return AugmentedLayer(matrix=layer.weight.copy(), had_bias=False)
    return AugmentedLayer(matrix=np.hstack([layer.weight, layer.bias[:, None]]), had_bias=True)


def split(aug: AugmentedLayer) -> Layer:
    """Exact inverse of augment: separate the bias column back out."""
    if not aug.had_bias:
        return Layer(weight=aug.matrix.copy(), bias=None)
    return Layer(weight=aug.matrix[:, :-1].copy(), bias=aug.matrix[:, -1].copy())


def add_delta(layer: Layer, delta: np.ndarray) -> Layer:
    """The layer plus an augmented delta (bias as the last column), split back out."""
    aug = augment(layer)
    if delta.shape != aug.matrix.shape:
        raise ValueError(f"delta shape {delta.shape} does not match layer {aug.matrix.shape}")
    return split(AugmentedLayer(matrix=aug.matrix + delta, had_bias=aug.had_bias))


@dataclass(frozen=True)
class ProjectorCheckpoint:
    """Ordered stack of projector layers plus an identifier and storage dtype."""

    id: str
    layers: tuple[Layer, ...]
    dtype: str = "float64"

    def __post_init__(self):
        if not self.layers:
            raise ValueError("checkpoint must contain at least one layer")
        if self.dtype not in _DTYPES:
            raise ValueError(f"unsupported checkpoint dtype {self.dtype!r}")
        object.__setattr__(self, "layers", tuple(self.layers))
        has_bias = self.layers[0].bias is not None
        for i, layer in enumerate(self.layers, start=1):
            if (layer.bias is not None) != has_bias:
                raise ValueError(
                    f"inconsistent bias presence: layer 1 {'has' if has_bias else 'lacks'} "
                    f"a bias but layer {i} does not match")
        for i in range(len(self.layers) - 1):
            d_out, nxt_in = self.layers[i].d_out, self.layers[i + 1].d_in
            if nxt_in != d_out:
                raise ValueError(
                    f"shape chain broken: layer {i + 1} outputs {d_out} but "
                    f"layer {i + 2} expects {nxt_in} inputs")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def has_bias(self) -> bool:
        return self.layers[0].bias is not None

    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        return tuple((l.d_out, l.d_in) for l in self.layers)


def sorted_experts(experts: Sequence[ProjectorCheckpoint],
                   base: ProjectorCheckpoint) -> list[ProjectorCheckpoint]:
    """Experts in id order, checked against the base.

    Rejects an empty list, duplicate ids, and any expert whose layer shapes
    or bias presence differ from the base.
    """
    if not experts:
        raise ValueError("need at least one expert checkpoint")
    ordered = sorted(experts, key=lambda c: c.id)
    dupes = sorted({a.id for a, b in zip(ordered, ordered[1:]) if a.id == b.id})
    if dupes:
        raise ValueError(f"duplicate expert ids: {dupes}")
    shapes = base.layer_shapes()
    for ck in ordered:
        if ck.layer_shapes() != shapes:
            raise ValueError(
                f"expert {ck.id!r} layer shapes {ck.layer_shapes()} do not match base {shapes}")
        if ck.has_bias != base.has_bias:
            raise ValueError(f"expert {ck.id!r} bias presence does not match the base")
    return ordered


def layer_deltas(experts: Sequence[ProjectorCheckpoint], base: ProjectorCheckpoint,
                 layer_index: int) -> list[np.ndarray]:
    """Augmented deltas (expert minus base) of one 0-based layer, in the given expert order."""
    base_mat = augment(base.layers[layer_index]).matrix
    return [augment(ck.layers[layer_index]).matrix - base_mat for ck in experts]


def load_checkpoint(path, checkpoint_id: str | None = None) -> ProjectorCheckpoint:
    """Load a checkpoint container; the id defaults to the file stem."""
    tensors = {t.name: t for t in read_container(path)}
    weights: dict[int, Tensor] = {}
    biases: dict[int, Tensor] = {}
    dtypes = set()
    for name, tensor in tensors.items():
        m = _LAYER_NAME.match(name)
        if m is None:
            raise ValueError(f"{path}: unexpected tensor name {name!r} in checkpoint")
        idx, kind = int(m.group(1)), m.group(2)
        (weights if kind == "weight" else biases)[idx] = tensor
        dtypes.add(tensor.dtype)
    if not weights:
        raise ValueError(f"{path}: checkpoint contains no layer weights")
    if len(dtypes) > 1:
        raise ValueError(f"{path}: mixed tensor dtypes in checkpoint: {sorted(dtypes)}")
    num = len(weights)
    missing = [i for i in range(1, num + 1) if i not in weights]
    if missing or max(weights) != num:
        raise ValueError(
            f"{path}: layer indices must be 1..{num} contiguous, got {sorted(weights)}")
    stray = sorted(set(biases) - set(weights))
    if stray:
        raise ValueError(f"{path}: bias without matching weight for layers {stray}")

    layers = []
    for i in range(1, num + 1):
        wt = weights[i]
        if len(wt.shape) != 2:
            raise ValueError(f"{path}: layer.{i}.weight must be 2-D, got shape {wt.shape}")
        bias = None
        if i in biases:
            bt = biases[i]
            if len(bt.shape) != 1 or bt.shape[0] != wt.shape[0]:
                raise ValueError(
                    f"{path}: layer.{i}.bias has shape {bt.shape}, expected ({wt.shape[0]},)")
            bias = bt.data
        layers.append(Layer(weight=wt.data, bias=bias))
    ckpt_id = checkpoint_id if checkpoint_id is not None else Path(path).stem
    return ProjectorCheckpoint(id=ckpt_id, layers=tuple(layers), dtype=dtypes.pop())


def save_checkpoint(path, ckpt: ProjectorCheckpoint) -> None:
    """Write a checkpoint container in the checkpoint's storage dtype.

    Values that do not fit the storage dtype (they would be stored as Inf)
    raise ValueError before anything is written.
    """
    dtype = _DTYPES[ckpt.dtype]
    tensors = []
    with np.errstate(over="ignore"):
        for i, layer in enumerate(ckpt.layers, start=1):
            for kind, values in (("weight", layer.weight), ("bias", layer.bias)):
                if values is None:
                    continue
                stored = values.astype(dtype)
                if not np.isfinite(stored).all():
                    raise ValueError(
                        f"{path}: layer.{i}.{kind} has values that overflow {ckpt.dtype}")
                tensors.append(Tensor(name=f"layer.{i}.{kind}", data=stored))
    write_container(path, tensors)
