"""On-disk tensor container format and the projector-checkpoint data model.

Container layout::

    [ header length : 8-byte little-endian unsigned integer ]
    [ header        : UTF-8 JSON, exactly that many bytes   ]
    [ payload       : packed raw little-endian tensor data  ]

The header maps each tensor name to ``{"dtype": ..., "shape": [...],
"offsets": [begin, end]}`` where offsets are byte positions relative to the
start of the payload. Ranges are non-overlapping, ascending, and densely
packed: the payload starts at offset 0, each tensor begins where the previous
one ends, and nothing follows the last tensor (zero-size tensors have
``begin == end``). Header keys are serialized in sorted order and the payload
is packed in that same order, so writing the same tensor set always produces
the same bytes.

In memory a container is a dict from tensor name to numpy array.

Checkpoints are containers holding ``layer.{i}.weight`` (2-D) and optionally
``layer.{i}.bias`` (1-D) tensors with 1-based contiguous layer indices. Bias
presence must be uniform across layers. In memory a layer is one float64
augmented matrix ``[W | b]``, the bias (if any) as its last column, into which
loading writes the weight and bias once; the source dtype is recorded and
reused when writing results.

Every output file is written through `atomic_write`: a crash or error never
leaves a partial regular file at the target path.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import secrets
import stat
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}
_HEADER_LEN = struct.Struct("<Q")
# A layer index in a tensor name: ASCII digits only, so no sign, space or "_".
LAYER_INDEX = re.compile(r"[0-9]+")
_LAYER_NAME = re.compile(rf"layer\.({LAYER_INDEX.pattern})\.(weight|bias)")


class ContainerError(ValueError):
    """The file does not conform to the container format."""


def _is_count(value) -> bool:
    """A non-negative JSON integer; JSON booleans are not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a fresh temp file beside `path` for writing; it replaces `path` only on success.

    The temp file is created with mode 0o666 under the umask, like a plain
    ``open(path, "w")``, and is removed when the body raises. Symlinks are
    followed, so the link stays and its target is replaced. An existing
    target that is not a regular file (a pipe or device) cannot be replaced
    and is written in place.
    """
    encoding = None if "b" in mode else "utf-8"
    target = Path(os.path.realpath(path))
    if target.exists() and not target.is_file():
        with open(target, mode, encoding=encoding) as fh:
            yield fh
        return
    tmp = target.with_name(f".{target.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc) -> None:
    """Write `doc` atomically as indented, key-sorted JSON with a trailing newline."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_container(path, tensors: Mapping[str, np.ndarray], dtype: str | None = None) -> None:
    """Write name -> array entries to `path`; output is byte-reproducible.

    Each tensor is stored in `dtype` (float32 or float64), or in its own
    dtype when `dtype` is None. A tensor is converted only when it is written,
    so one converted tensor is held at a time. With `dtype` given, a tensor
    with values that are not finite once stored (a float64 value that
    overflows float32) raises ValueError naming it; `atomic_write` then
    leaves no file behind.
    """
    names = sorted(tensors)
    header: dict[str, dict] = {}
    offset = 0
    for name in names:
        arr = tensors[name]
        stored = dtype if dtype is not None else str(arr.dtype)
        if stored not in _DTYPES:
            raise ValueError(f"unsupported dtype {stored!r} for tensor {name!r}")
        nbytes = math.prod(arr.shape) * _DTYPES[stored].itemsize
        header[name] = {"dtype": stored, "shape": list(arr.shape),
                        "offsets": [offset, offset + nbytes]}
        offset += nbytes
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(_HEADER_LEN.pack(len(header_bytes)))
        fh.write(header_bytes)
        for name in names:
            with np.errstate(over="ignore"):
                data = np.ascontiguousarray(tensors[name], dtype=_DTYPES[header[name]["dtype"]])
            if dtype is not None and not np.isfinite(data).all():
                raise ValueError(f"{path}: {name} has values that overflow {dtype}")
            fh.write(data.data)


def read_container(path) -> dict[str, np.ndarray]:
    """Read all tensors from `path` as a name -> array dict, in header (sorted-name) order.

    The file is read once, front to back: the header is parsed and checked
    first, then each tensor's bytes are read straight into its own
    native-order array. No buffer of the whole file is held and no tensor is
    copied after it is read; a byte-swap, where the stored order is not
    native, is done in place.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            return _read_container(path, fh, info.st_size)
        # A pipe or device has no size up front: read it whole first.
        blob = fh.read()
    return _read_container(path, io.BytesIO(blob), len(blob))


def _read_container(path, fh, size: int) -> dict[str, np.ndarray]:
    """`read_container` on the open binary file `fh` of `size` bytes, read from its start."""
    prefix = fh.read(_HEADER_LEN.size)
    if len(prefix) < _HEADER_LEN.size:
        raise ContainerError(f"{path}: file too short for header length prefix")
    (header_len,) = _HEADER_LEN.unpack(prefix)
    if header_len > size - _HEADER_LEN.size:
        raise ContainerError(f"{path}: truncated file (header length {header_len} exceeds file size)")

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ContainerError(f"{path}: duplicate header key {key!r}")
            obj[key] = value
        return obj

    try:
        header = json.loads(fh.read(header_len).decode("utf-8"), object_pairs_hook=unique_keys)
    except ContainerError:
        raise
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integer literals;
        # RecursionError comes from deeply nested arrays or objects.
        raise ContainerError(f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: header must be a JSON object")
    payload_len = size - _HEADER_LEN.size - header_len

    entries = []
    for name, meta in header.items():
        if not isinstance(meta, dict):
            raise ContainerError(f"{path}: entry {name!r} is not an object")
        dtype = meta.get("dtype")
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise ContainerError(f"{path}: entry {name!r} has unknown dtype {dtype!r}")
        shape = meta.get("shape")
        if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
            raise ContainerError(f"{path}: entry {name!r} has invalid shape {shape!r}")
        offsets = meta.get("offsets")
        if (not isinstance(offsets, list) or len(offsets) != 2
                or not all(_is_count(o) for o in offsets)):
            raise ContainerError(f"{path}: entry {name!r} has invalid offsets {offsets!r}")
        begin, end = offsets
        expected = math.prod(shape) * _DTYPES[dtype].itemsize
        if end - begin != expected:
            raise ContainerError(
                f"{path}: entry {name!r} byte range {end - begin} does not match shape (expected {expected})")
        if end > payload_len:
            raise ContainerError(f"{path}: truncated file (entry {name!r} ends past payload)")
        entries.append((name, dtype, shape, begin, end))

    by_begin = sorted(entries, key=lambda e: (e[3], e[4]))
    if by_begin and by_begin[0][3] != 0:
        raise ContainerError(
            f"{path}: payload does not start at offset 0 ({by_begin[0][0]!r} begins at {by_begin[0][3]})")
    for (na, _, _, _, ea), (nb, _, _, bb, _) in zip(by_begin, by_begin[1:]):
        if bb < ea:
            raise ContainerError(f"{path}: overlapping byte ranges for {na!r} and {nb!r}")
        if bb > ea:
            raise ContainerError(f"{path}: gap of {bb - ea} bytes between {na!r} and {nb!r}")
    used = by_begin[-1][4] if by_begin else 0
    if used != payload_len:
        raise ContainerError(f"{path}: {payload_len - used} trailing bytes after the last tensor")

    out = {}
    for name, dtype, shape, _, _ in entries:
        try:
            out[name] = np.empty(shape, dtype=_DTYPES[dtype].newbyteorder("="))
        except ValueError as exc:
            # Zero-size shapes with huge or too many dimensions pass the byte-size check.
            raise ContainerError(f"{path}: entry {name!r} has shape {shape} numpy cannot hold: {exc}") from exc
    for name, dtype, _, begin, end in by_begin:
        arr = out[name]
        if fh.readinto(memoryview(arr.reshape(-1)).cast("B")) != end - begin:
            raise ContainerError(f"{path}: truncated file (entry {name!r} ends past payload)")
        if not _DTYPES[dtype].isnative:
            arr.byteswap(inplace=True)
    return out


@dataclass(frozen=True)
class Layer:
    """One projector layer as its float64 augmented matrix [W | b]; `weight` and `bias` are views."""

    matrix: np.ndarray
    has_bias: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] < self.has_bias:
            raise ValueError(f"layer matrix must be 2-D with room for its bias, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        if not np.isfinite(self.weight).all():
            raise ValueError("layer weight contains NaN or Inf")
        if self.has_bias and not np.isfinite(self.bias).all():
            raise ValueError("layer bias contains NaN or Inf")

    @property
    def weight(self) -> np.ndarray:
        return self.matrix[:, :-1] if self.has_bias else self.matrix

    @property
    def bias(self) -> np.ndarray | None:
        return self.matrix[:, -1] if self.has_bias else None

    @property
    def d_out(self) -> int:
        return self.matrix.shape[0]

    @property
    def d_in(self) -> int:
        return self.matrix.shape[1] - self.has_bias


def add_delta(layer: Layer, delta: np.ndarray) -> Layer:
    """The layer plus an augmented delta of the layer matrix's shape."""
    if delta.shape != layer.matrix.shape:
        raise ValueError(f"delta shape {delta.shape} does not match layer {layer.matrix.shape}")
    return Layer(layer.matrix + delta, layer.has_bias)


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
        has_bias = self.layers[0].has_bias
        for i, layer in enumerate(self.layers, start=1):
            if layer.has_bias != has_bias:
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
        return self.layers[0].has_bias

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
    base_mat = base.layers[layer_index].matrix
    return [ck.layers[layer_index].matrix - base_mat for ck in experts]


def load_checkpoint(path) -> ProjectorCheckpoint:
    """Load a checkpoint container; its id is the file stem."""
    tensors = read_container(path)
    weights: dict[int, str] = {}
    biases: dict[int, str] = {}
    for name in tensors:
        m = _LAYER_NAME.fullmatch(name)
        if m is None:
            raise ValueError(f"{path}: unexpected tensor name {name!r} in checkpoint")
        idx, kind = int(m.group(1)), m.group(2)
        slot = weights if kind == "weight" else biases
        if idx in slot:
            raise ValueError(f"{path}: {slot[idx]!r} and {name!r} are both layer.{idx}.{kind}")
        slot[idx] = name
    if not weights:
        raise ValueError(f"{path}: checkpoint contains no layer weights")
    dtypes = {str(arr.dtype) for arr in tensors.values()}
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
        w = tensors.pop(weights[i])
        b = tensors.pop(biases[i]) if i in biases else None
        try:
            if w.ndim != 2:
                raise ValueError(f"layer weight must be 2-D, got shape {w.shape}")
            if b is not None and (b.ndim != 1 or b.size != w.shape[0]):
                raise ValueError(f"bias length {b.shape} does not match output dim {w.shape[0]}")
            columns = [w] if b is None else [w, b[:, None]]
            layers.append(Layer(np.concatenate(columns, axis=1, dtype=np.float64), b is not None))
        except ValueError as exc:
            raise ValueError(f"{path}: layer.{i}: {exc}") from exc
    try:
        return ProjectorCheckpoint(id=Path(path).stem, layers=tuple(layers), dtype=dtypes.pop())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_checkpoint(path, ckpt: ProjectorCheckpoint) -> None:
    """Write a checkpoint container in the checkpoint's storage dtype.

    Each weight and bias is converted as it is written. Values that do not
    fit the storage dtype (they would be stored as Inf) raise ValueError
    naming the path and the tensor; no file is left at `path` then, and an
    existing file there is unchanged.
    """
    tensors = {}
    for i, layer in enumerate(ckpt.layers, start=1):
        tensors[f"layer.{i}.weight"] = layer.weight
        if layer.has_bias:
            tensors[f"layer.{i}.bias"] = layer.bias
    write_container(path, tensors, ckpt.dtype)
