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
presence must be uniform across layers. A layer, once read, is one float64
augmented matrix ``[W | b]``, the bias (if any) as its last column, into which
reading writes the weight and bias once; the source dtype is recorded and
reused when writing results.

Checkpoint inputs are validated at one boundary, `open_checkpoint`: every
check that needs only the header (the container format, the layer names,
one dtype, the layer shapes, bias presence and the shape chain) runs when
the file is opened. The file then stays open and each layer is read from
its offsets when it is indexed, so no float64 copy of a whole checkpoint is
held; that read checks the byte count and finiteness. `load_checkpoint` is
`open_checkpoint` followed by reading every layer.

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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

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
    """Write `doc` atomically as indented, key-sorted JSON with a trailing newline.

    A NaN or infinite value, which JSON has no token for, raises ValueError
    naming `path`; `atomic_write` then leaves no file behind.
    """
    with atomic_write(path) as fh:
        try:
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
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
    """Read all tensors from `path` as a name -> array dict, in header order.

    The header is parsed and checked in full before any tensor is read. Each
    tensor's bytes are then read straight into its own native-order array,
    at its offset; for a container written by `write_container` that is one
    pass front to back. No buffer of the whole file is held and no tensor is
    copied after it is read; a byte-swap, where the stored order is not
    native, is done in place.
    """
    with _open_container(path) as (fh, entries):
        return {entry.name: _read_tensor(path, fh, entry) for entry in entries}


@dataclass(frozen=True)
class _Entry:
    """One checked header entry: its name, dtype name, shape and absolute byte range."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    begin: int
    end: int


@contextlib.contextmanager
def _open_container(path):
    """The container at `path` open for reading, with its checked header entries in header order.

    A regular file stays open for the `with` block and is read at offsets. A
    pipe or device has no size up front, so it is read whole once and served
    from memory.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            yield fh, _read_header(path, fh, info.st_size)
            return
        blob = fh.read()
    mem = io.BytesIO(blob)
    yield mem, _read_header(path, mem, len(blob))


def _read_header(path, fh, size: int) -> list[_Entry]:
    """The checked header entries of the container `fh` of `size` bytes, read from its start.

    Every check that needs no payload byte runs here, so a malformed file
    fails before any tensor is read.
    """
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
    payload_start = _HEADER_LEN.size + header_len
    payload_len = size - payload_start

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
        try:
            # A zero-stride view allocates nothing, and numpy rejects the same shapes
            # as np.empty: zero-size shapes with huge or too many dimensions pass the
            # byte-size check.
            np.broadcast_to(np.empty((), _DTYPES[dtype]), shape)
        except ValueError as exc:
            raise ContainerError(f"{path}: entry {name!r} has shape {shape} numpy cannot hold: {exc}") from exc
        entries.append(_Entry(name, dtype, tuple(shape), payload_start + begin, payload_start + end))

    by_begin = sorted(entries, key=lambda e: (e.begin, e.end))
    if by_begin and by_begin[0].begin != payload_start:
        raise ContainerError(f"{path}: payload does not start at offset 0 "
                             f"({by_begin[0].name!r} begins at {by_begin[0].begin - payload_start})")
    for a, b in zip(by_begin, by_begin[1:]):
        if b.begin < a.end:
            raise ContainerError(f"{path}: overlapping byte ranges for {a.name!r} and {b.name!r}")
        if b.begin > a.end:
            raise ContainerError(f"{path}: gap of {b.begin - a.end} bytes between {a.name!r} and {b.name!r}")
    used = by_begin[-1].end - payload_start if by_begin else 0
    if used != payload_len:
        raise ContainerError(f"{path}: {payload_len - used} trailing bytes after the last tensor")
    return entries


def _read_tensor(path, fh, entry: _Entry) -> np.ndarray:
    """One tensor read from its offset into a fresh native-order array.

    A short read, from a file cut after its header was checked, raises
    ContainerError naming the path and the tensor; no partial array is
    returned.
    """
    stored = _DTYPES[entry.dtype]
    arr = np.empty(entry.shape, dtype=stored.newbyteorder("="))
    fh.seek(entry.begin)
    if fh.readinto(memoryview(arr.reshape(-1)).cast("B")) != entry.end - entry.begin:
        raise ContainerError(f"{path}: truncated file (entry {entry.name!r} ends past payload)")
    if not stored.isnative:
        arr.byteswap(inplace=True)
    return arr


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
    """Ordered stack of projector layers plus an identifier and storage dtype.

    `layers` is a tuple of in-memory layers, or the layers of a container
    opened by `open_checkpoint`, each read from the file when it is indexed.
    Either way the layout (each layer's shape and bias presence) is known
    without reading a layer, and it is checked here: uniform bias presence
    and an unbroken shape chain.
    """

    id: str
    layers: Sequence[Layer]
    dtype: str = "float64"
    _layout: tuple[tuple[int, int, bool], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("checkpoint must contain at least one layer")
        if self.dtype not in _DTYPES:
            raise ValueError(f"unsupported checkpoint dtype {self.dtype!r}")
        if isinstance(self.layers, _LayerFile):
            layout = self.layers.layout
        else:
            object.__setattr__(self, "layers", tuple(self.layers))
            layout = tuple((l.d_out, l.d_in, l.has_bias) for l in self.layers)
        object.__setattr__(self, "_layout", layout)
        has_bias = layout[0][2]
        for i, (_, _, layer_bias) in enumerate(layout, start=1):
            if layer_bias != has_bias:
                raise ValueError(
                    f"inconsistent bias presence: layer 1 {'has' if has_bias else 'lacks'} "
                    f"a bias but layer {i} does not match")
        for i in range(len(layout) - 1):
            d_out, nxt_in = layout[i][0], layout[i + 1][1]
            if nxt_in != d_out:
                raise ValueError(
                    f"shape chain broken: layer {i + 1} outputs {d_out} but "
                    f"layer {i + 2} expects {nxt_in} inputs")

    @property
    def num_layers(self) -> int:
        return len(self._layout)

    @property
    def has_bias(self) -> bool:
        return self._layout[0][2]

    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        return tuple((d_out, d_in) for d_out, d_in, _ in self._layout)


class _LayerFile(Sequence):
    """The layers of an open checkpoint container; indexing reads one layer from the file.

    `[i]` reads layer i's weight and bias at their offsets, through the one
    open file, into a fresh float64 Layer. A short read raises ContainerError
    and a NaN or Inf raises ValueError, each naming the path and the tensor.
    """

    def __init__(self, path, fh, tensors: list[tuple[_Entry, _Entry | None]]):
        self.path = path
        self._fh = fh
        self._tensors = tensors
        self.layout = tuple((w.shape[0], w.shape[1], b is not None) for w, b in tensors)

    def __len__(self) -> int:
        return len(self._tensors)

    def __getitem__(self, index: int) -> Layer:
        li = range(len(self._tensors))[index]
        weight, bias = self._tensors[li]
        columns = [_read_tensor(self.path, self._fh, weight)]
        if bias is not None:
            columns.append(_read_tensor(self.path, self._fh, bias)[:, None])
        try:
            return Layer(np.concatenate(columns, axis=1, dtype=np.float64), bias is not None)
        except ValueError as exc:
            raise ValueError(f"{self.path}: layer.{li + 1}: {exc}") from exc


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


def layer_deltas(experts: Sequence[ProjectorCheckpoint], base_layer: Layer,
                 layer_index: int) -> list[np.ndarray]:
    """Augmented deltas (expert minus `base_layer`) of one 0-based layer, in the given expert order.

    Each expert's layer is read once. The caller reads the base layer, so a
    caller that needs it again does not read it twice.
    """
    return [ck.layers[layer_index].matrix - base_layer.matrix for ck in experts]


@contextlib.contextmanager
def open_checkpoint(path):
    """Open a checkpoint container for a `with` block; its layers are read one at a time.

    Every check that needs no payload byte runs on entry: the container
    format (dtypes, shapes, offsets, a dense payload), one name per layer
    tensor, contiguous 1-based indices, one dtype, 2-D weights, bias lengths,
    uniform bias presence and the shape chain. The file stays open inside
    the block, and `layers[i]` reads only layer i (see `_LayerFile`); a pipe
    or device is read whole once and served from memory. The id is the file
    stem.
    """
    with _open_container(path) as (fh, entries):
        weights: dict[int, _Entry] = {}
        biases: dict[int, _Entry] = {}
        for entry in entries:
            m = _LAYER_NAME.fullmatch(entry.name)
            if m is None:
                raise ValueError(f"{path}: unexpected tensor name {entry.name!r} in checkpoint")
            idx, kind = int(m.group(1)), m.group(2)
            slot = weights if kind == "weight" else biases
            if idx in slot:
                raise ValueError(
                    f"{path}: {slot[idx].name!r} and {entry.name!r} are both layer.{idx}.{kind}")
            slot[idx] = entry
        if not weights:
            raise ValueError(f"{path}: checkpoint contains no layer weights")
        dtypes = {entry.dtype for entry in entries}
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

        tensors = []
        for i in range(1, num + 1):
            w, b = weights[i], biases.get(i)
            if len(w.shape) != 2:
                raise ValueError(f"{path}: layer.{i}: layer weight must be 2-D, got shape {w.shape}")
            if b is not None and b.shape != (w.shape[0],):
                raise ValueError(
                    f"{path}: layer.{i}: bias length {b.shape} does not match output dim {w.shape[0]}")
            tensors.append((w, b))
        try:
            ckpt = ProjectorCheckpoint(id=Path(path).stem, layers=_LayerFile(path, fh, tensors),
                                       dtype=dtypes.pop())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        yield ckpt


def load_checkpoint(path) -> ProjectorCheckpoint:
    """`open_checkpoint` with every layer read into memory; its id is the file stem."""
    with open_checkpoint(path) as ckpt:
        return replace(ckpt, layers=tuple(ckpt.layers))


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
