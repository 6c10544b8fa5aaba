import json
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotmerge import (
    ContainerError,
    Layer,
    ProjectorCheckpoint,
    load_checkpoint,
    open_checkpoint,
    read_container,
    save_checkpoint,
    write_container,
)
from pivotmerge import tensorstore
from pivotmerge.tensorstore import add_delta, layer_deltas


def test_roundtrip_two_tensors(tmp_path):
    path = tmp_path / "t.tensors"
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    b = np.linspace(-1, 1, 5, dtype=np.float64)
    write_container(path, {"beta": b, "alpha": a})
    out = read_container(path)
    assert list(out) == ["alpha", "beta"]  # header order is sorted
    np.testing.assert_array_equal(out["alpha"], a)
    np.testing.assert_array_equal(out["beta"], b)
    assert out["alpha"].dtype == "float32" and out["beta"].dtype == "float64"


def test_empty_container(tmp_path):
    path = tmp_path / "empty.tensors"
    write_container(path, {})
    assert read_container(path) == {}
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw)
    assert raw[8:8 + header_len] == b"{}"


def test_payload_size_2x3_float32(tmp_path):
    path = tmp_path / "p.tensors"
    write_container(path, {"x": np.ones((2, 3), dtype=np.float32)})
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw)
    payload = raw[8 + header_len:]
    assert len(payload) == 6 * 4


def test_write_is_byte_reproducible(tmp_path):
    t1 = np.arange(4, dtype=np.float64)
    t2 = np.ones((2, 2), dtype=np.float32)
    p1, p2 = tmp_path / "one.tensors", tmp_path / "two.tensors"
    write_container(p1, {"a": t1, "b": t2})
    write_container(p2, {"b": t2, "a": t1})  # insertion order must not matter
    assert p1.read_bytes() == p2.read_bytes()


def test_unsupported_dtype_rejected(tmp_path):
    path = tmp_path / "int.tensors"
    with pytest.raises(ValueError, match="unsupported dtype 'int32' for tensor 'x'"):
        write_container(path, {"a": np.zeros(2), "x": np.zeros(3, dtype=np.int32)})
    assert not path.exists()


def test_truncated_header_length(tmp_path):
    path = tmp_path / "bad.tensors"
    path.write_bytes(struct.pack("<Q", 10_000) + b"{}")
    with pytest.raises(ContainerError, match="truncated"):
        read_container(path)


def test_non_json_header(tmp_path):
    path = tmp_path / "bad.tensors"
    body = b"this is not json"
    path.write_bytes(struct.pack("<Q", len(body)) + body)
    with pytest.raises(ContainerError, match="malformed"):
        read_container(path)


def _raw_container(header, payload):
    body = json.dumps(header).encode()
    return struct.pack("<Q", len(body)) + body + payload


def test_overlapping_ranges(tmp_path):
    header = {
        "a": {"dtype": "float64", "shape": [2], "offsets": [0, 16]},
        "b": {"dtype": "float64", "shape": [2], "offsets": [8, 24]},
    }
    path = tmp_path / "bad.tensors"
    path.write_bytes(_raw_container(header, b"\0" * 24))
    with pytest.raises(ContainerError, match="overlapping"):
        read_container(path)


def test_unknown_dtype_in_header(tmp_path):
    header = {"a": {"dtype": "int8", "shape": [2], "offsets": [0, 2]}}
    path = tmp_path / "bad.tensors"
    path.write_bytes(_raw_container(header, b"\0" * 2))
    with pytest.raises(ContainerError, match="dtype"):
        read_container(path)


def test_payload_shorter_than_ranges(tmp_path):
    header = {"a": {"dtype": "float64", "shape": [4], "offsets": [0, 32]}}
    path = tmp_path / "bad.tensors"
    path.write_bytes(_raw_container(header, b"\0" * 16))
    with pytest.raises(ContainerError, match="truncated"):
        read_container(path)


def test_range_shape_mismatch(tmp_path):
    header = {"a": {"dtype": "float64", "shape": [4], "offsets": [0, 16]}}
    path = tmp_path / "bad.tensors"
    path.write_bytes(_raw_container(header, b"\0" * 16))
    with pytest.raises(ContainerError, match="does not match shape"):
        read_container(path)


def test_duplicate_header_keys_rejected(tmp_path):
    # json.dumps cannot emit a repeated key, so the header is written by hand.
    entry = '"layer.1.weight":{{"dtype":"float32","shape":[2,4],"offsets":[{},{}]}}'
    body = ("{" + entry.format(0, 32) + "," + entry.format(32, 64) + "}").encode()
    path = tmp_path / "dup.tensors"
    path.write_bytes(struct.pack("<Q", len(body)) + body + b"\0" * 64)
    with pytest.raises(ContainerError, match=r"dup\.tensors: duplicate header key 'layer\.1\.weight'"):
        read_container(path)


@pytest.mark.parametrize("header, payload, message", [
    ({"a": {"dtype": "float64", "shape": [1], "offsets": [8, 16]}}, b"\0" * 16,
     r"payload does not start at offset 0 \('a' begins at 8\)"),
    ({"a": {"dtype": "float64", "shape": [1], "offsets": [0, 8]},
      "b": {"dtype": "float64", "shape": [1], "offsets": [16, 24]}}, b"\0" * 24,
     r"gap of 8 bytes between 'a' and 'b'"),
    ({"a": {"dtype": "float64", "shape": [1], "offsets": [0, 8]}}, b"\0" * 8 + b"TRAILING",
     r"8 trailing bytes after the last tensor"),
    ({}, b"TRAILING", r"8 trailing bytes after the last tensor"),
], ids=["leading-gap", "inner-gap", "trailing-bytes", "trailing-bytes-no-tensors"])
def test_payload_must_be_dense(tmp_path, header, payload, message):
    path = tmp_path / "sparse.tensors"
    path.write_bytes(_raw_container(header, payload))
    with pytest.raises(ContainerError, match=r"sparse\.tensors: " + message):
        read_container(path)


def test_written_container_with_zero_size_tensors_loads(tmp_path):
    tensors = {"a": np.zeros((0,)), "b": np.arange(3.0),
               "c": np.zeros((2, 0), dtype=np.float32), "d": np.ones((2, 2))}
    path = tmp_path / "dense.tensors"
    write_container(path, tensors)
    out = read_container(path)
    assert [(n, t.shape, t.dtype) for n, t in out.items()] == \
        [(n, t.shape, t.dtype) for n, t in tensors.items()]
    for name, want in tensors.items():
        np.testing.assert_array_equal(out[name], want)


class _FailingArray:
    """Header fields of a float64 vector whose payload cannot be produced."""

    dtype = np.dtype("float64")
    shape = (4,)
    nbytes = 32

    def __array__(self, dtype=None, copy=None):
        raise OSError("disk full")


def test_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "out.tensors"
    with pytest.raises(OSError, match="disk full"):
        write_container(path, {"a": np.arange(4.0), "zz": _FailingArray()})
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_existing_target(tmp_path):
    path = tmp_path / "out.tensors"
    write_container(path, {"a": np.arange(4.0)})
    before = path.read_bytes()
    with pytest.raises(OSError, match="disk full"):
        write_container(path, {"a": np.arange(8.0), "zz": _FailingArray()})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_rejects_a_non_finite_value_and_keeps_the_target(tmp_path, value):
    path = tmp_path / "doc.json"
    tensorstore.write_json(path, {"mean": 1.0})
    before = path.read_bytes()
    with pytest.raises(ValueError, match=re.escape(f"{path}: Out of range float values")):
        tensorstore.write_json(path, {"mean": value})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_atomic_write_into_a_missing_directory_names_the_target(tmp_path):
    path = tmp_path / "nodir" / "doc.json"
    with pytest.raises(FileNotFoundError) as exc:
        tensorstore.write_json(path, {"mean": 1.0})
    assert exc.value.filename == str(path)
    assert str(path) in str(exc.value) and ".tmp" not in str(exc.value)
    assert list(tmp_path.iterdir()) == []


def test_write_through_symlink_keeps_link(tmp_path):
    real = tmp_path / "real.tensors"
    write_container(real, {"a": np.arange(2.0)})
    link = tmp_path / "link.tensors"
    link.symlink_to(real)
    write_container(link, {"a": np.arange(4.0)})
    assert link.is_symlink() and os.readlink(link) == str(real)
    np.testing.assert_array_equal(read_container(real)["a"], np.arange(4.0))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.tensors", "real.tensors"]


def test_write_to_pipe_writes_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    write_container(fifo, {"a": np.arange(2.0)})
    reader.join(timeout=10)
    assert not reader.is_alive()
    path = tmp_path / "file.tensors"
    write_container(path, {"a": np.arange(2.0)})
    assert received == [path.read_bytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.tensors", "pipe"]


def test_written_file_mode_follows_umask(tmp_path):
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    path = tmp_path / "out.tensors"
    write_container(path, {"a": np.arange(4.0)})
    assert os.stat(path).st_mode == os.stat(plain).st_mode


names = st.text(alphabet="abcdefgxyz._0123456789", min_size=1, max_size=12)
small_shapes = st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=3)


@st.composite
def tensor_sets(draw):
    count = draw(st.integers(min_value=0, max_value=4))
    tensors = {}
    for _ in range(count):
        name = draw(names.filter(lambda n: n not in tensors))
        shape = tuple(draw(small_shapes))
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        size = int(np.prod(shape)) if shape else 1
        values = draw(st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
            min_size=size, max_size=size))
        tensors[name] = np.array(values, dtype=dtype).reshape(shape)
    return tensors


@settings(max_examples=50, deadline=None)
@given(tensor_sets())
def test_roundtrip_property(tmp_path_factory, tensors):
    path = tmp_path_factory.mktemp("cont") / "t.tensors"
    write_container(path, tensors)
    out = read_container(path)
    assert list(out) == sorted(tensors)
    for name, want in tensors.items():
        assert out[name].dtype == want.dtype
        assert out[name].shape == want.shape
        np.testing.assert_array_equal(out[name], want)


# --- hostile headers -----------------------------------------------------


@pytest.mark.parametrize("meta, message", [
    ({"dtype": "float32", "shape": [True, 2], "offsets": [0, 8]}, "invalid shape"),
    ({"dtype": "float32", "shape": [2], "offsets": [False, 8]}, "invalid offsets"),
    ({"dtype": "float32", "shape": [2**70, 0], "offsets": [0, 0]}, "numpy cannot hold"),
    ({"dtype": "float32", "shape": [2**62, 4], "offsets": [0, 0]}, "does not match shape"),
    ({"dtype": "float32", "shape": [2**62, 0], "offsets": [0, 0]}, "numpy cannot hold"),
    ({"dtype": "float32", "shape": [0] * 65, "offsets": [0, 0]}, "numpy cannot hold"),
    ({"dtype": ["float32"], "shape": [2], "offsets": [0, 8]}, "unknown dtype"),
], ids=["bool-dim", "bool-offset", "dim-beyond-int64", "size-wraps-int64",
        "zero-size-too-big", "too-many-dims", "list-dtype"])
def test_hostile_entry_is_container_error(tmp_path, meta, message):
    path = tmp_path / "hostile.tensors"
    payload = b"\0" * meta["offsets"][1]
    path.write_bytes(_raw_container({"w": meta}, payload))
    with pytest.raises(ContainerError, match=r"hostile\.tensors: entry 'w' .*" + message):
        read_container(path)


def test_deeply_nested_header_is_container_error(tmp_path):
    path = tmp_path / "deep.tensors"
    body = b"[" * 200_000
    path.write_bytes(struct.pack("<Q", len(body)) + body)
    with pytest.raises(ContainerError, match=r"deep\.tensors: malformed header: RecursionError"):
        read_container(path)


def _header_and_payload(blob: bytes) -> tuple[dict, bytes]:
    (length,) = struct.unpack_from("<Q", blob)
    return json.loads(blob[8:8 + length]), blob[8 + length:]


_HOSTILE_VALUES = st.one_of(
    st.booleans(),
    st.integers(min_value=2**31, max_value=2**80),
    st.integers(min_value=-2**70, max_value=-1),
    st.floats(),
    st.text(max_size=4),
    st.none(),
    st.integers(min_value=1, max_value=2000).map(lambda d: [0] * d),
)


@st.composite
def corrupted_checkpoints(draw, blob: bytes):
    """A valid checkpoint, truncated, bit-flipped, or with one header field replaced."""
    how = draw(st.sampled_from(["truncate", "flip", "field", "dim", "nest"]))
    if how == "truncate":
        return blob[:draw(st.integers(min_value=0, max_value=len(blob) - 1))]
    if how == "flip":
        bit = draw(st.integers(min_value=0, max_value=8 * len(blob) - 1))
        out = bytearray(blob)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    header, payload = _header_and_payload(blob)
    if how == "nest":
        depth = draw(st.integers(min_value=1, max_value=200_000))
        body = ("[" * depth + "]" * depth).encode()
        return struct.pack("<Q", len(body)) + body + payload
    meta = header[draw(st.sampled_from(sorted(header)))]
    key = draw(st.sampled_from(["dtype", "shape", "offsets"]))
    value = draw(_HOSTILE_VALUES)
    if how == "dim" and isinstance(meta[key], list):
        meta[key][draw(st.integers(min_value=0, max_value=len(meta[key]) - 1))] = value
    else:
        meta[key] = value
    return _raw_container(header, payload)


@pytest.fixture(scope="module")
def valid_checkpoint_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "valid.tensors"
    layers = (Layer(np.hstack([np.arange(6.0).reshape(2, 3), [[0.5], [-0.5]]]), has_bias=True),
              Layer(np.hstack([np.ones((3, 2)), np.zeros((3, 1))]), has_bias=True))
    save_checkpoint(path, ProjectorCheckpoint(id="valid", layers=layers, dtype="float32"))
    return path.read_bytes()


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_corrupted_checkpoint_raises_only_format_errors(tmp_path_factory, valid_checkpoint_blob,
                                                        data):
    blob = data.draw(corrupted_checkpoints(valid_checkpoint_blob))
    path = tmp_path_factory.mktemp("fuzz") / "corrupt.tensors"
    path.write_bytes(blob)
    try:
        read_container(path)
    except ContainerError:
        pass
    try:
        load_checkpoint(path)
    except ValueError:  # ContainerError is a ValueError
        pass


# --- checkpoint model ---------------------------------------------------


def _checkpoint_tensors(with_bias=True):
    ts = {
        "layer.1.weight": np.arange(12, dtype=np.float64).reshape(4, 3),
        "layer.2.weight": np.arange(20, dtype=np.float64).reshape(5, 4),
    }
    if with_bias:
        ts["layer.1.bias"] = np.ones(4)
        ts["layer.2.bias"] = np.zeros(5)
    return ts


def test_load_checkpoint_well_formed(tmp_path):
    path = tmp_path / "ck.tensors"
    write_container(path, _checkpoint_tensors())
    ck = load_checkpoint(path)
    assert ck.id == "ck"
    assert ck.num_layers == 2
    assert ck.has_bias
    assert ck.layer_shapes() == ((4, 3), (5, 4))
    assert ck.dtype == "float64"


def test_load_checkpoint_gap(tmp_path):
    ts = {
        "layer.1.weight": np.zeros((4, 3)),
        "layer.3.weight": np.zeros((5, 4)),
    }
    path = tmp_path / "gap.tensors"
    write_container(path, ts)
    with pytest.raises(ValueError, match="contiguous"):
        load_checkpoint(path)


def test_load_checkpoint_inconsistent_bias(tmp_path):
    ts = _checkpoint_tensors(with_bias=False)
    ts["layer.1.bias"] = np.ones(4)
    path = tmp_path / "bias.tensors"
    write_container(path, ts)
    with pytest.raises(ValueError, match="bias"):
        load_checkpoint(path)


def test_load_checkpoint_bad_bias_length(tmp_path):
    ts = _checkpoint_tensors(with_bias=False)
    ts |= {"layer.1.bias": np.ones(3), "layer.2.bias": np.ones(5)}
    path = tmp_path / "bias.tensors"
    write_container(path, ts)
    with pytest.raises(ValueError, match="bias"):
        load_checkpoint(path)


@pytest.mark.parametrize("name, data, message", [
    ("layer.1.weight", np.zeros(4), r"layer weight must be 2-D, got shape \(4,\)"),
    ("layer.1.bias", np.ones(3), r"bias length \(3,\) does not match output dim 4"),
], ids=["1d-weight", "short-bias"])
def test_bad_layer_shape_error_names_path_and_layer(tmp_path, name, data, message):
    ts = _checkpoint_tensors() | {name: data}
    path = tmp_path / "shape.tensors"
    write_container(path, ts)
    with pytest.raises(ValueError, match=r"shape\.tensors: layer\.1: " + message):
        load_checkpoint(path)


def test_shape_chain_checked(tmp_path):
    ts = {
        "layer.1.weight": np.zeros((4, 3)),
        "layer.2.weight": np.zeros((5, 6)),
    }
    path = tmp_path / "chain.tensors"
    write_container(path, ts)
    with pytest.raises(ValueError, match=r"chain\.tensors: shape chain broken"):
        load_checkpoint(path)


def test_nonfinite_weight_rejected(tmp_path):
    ts = {"layer.1.weight": np.array([[np.nan, 0.0]])}
    path = tmp_path / "nan.tensors"
    write_container(path, ts)
    with pytest.raises(ValueError, match="NaN"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind", ["weight", "bias"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_tensor_error_names_path_and_layer(tmp_path, kind, bad):
    ts = _checkpoint_tensors()
    ts[f"layer.2.{kind}"].flat[-1] = bad
    path = tmp_path / "bad.tensors"
    write_container(path, ts)
    with pytest.raises(ValueError, match=rf"bad\.tensors: layer\.2: layer {kind} contains NaN or Inf"):
        load_checkpoint(path)


@pytest.mark.parametrize("alias, message", [
    ("layer.01.weight", r"'layer\.01\.weight' and 'layer\.1\.weight' are both layer\.1\.weight"),
    ("layer.1.weight\n", r"unexpected tensor name 'layer\.1\.weight\\n'"),
], ids=["leading-zero", "trailing-newline"])
def test_second_tensor_for_one_layer_rejected(tmp_path, alias, message):
    # Both names used to parse as layer 1, and one tensor silently replaced the other.
    ts = _checkpoint_tensors(with_bias=False) | {alias: np.zeros((4, 3))}
    path = tmp_path / "alias.tensors"
    write_container(path, ts)
    with pytest.raises(ValueError, match=r"alias\.tensors: " + message):
        load_checkpoint(path)


@pytest.mark.parametrize("index", ["1_0", "+1", " 1", "1 ", "-1", "\u0661"])
def test_a_non_digit_layer_index_is_rejected(tmp_path, index):
    # int() reads each of these as a layer number; only ASCII digits name a layer.
    path = tmp_path / "bad.tensors"
    write_container(path, {f"layer.{index}.weight": np.zeros((4, 3))})
    with pytest.raises(ValueError, match=r"bad\.tensors: unexpected tensor name"):
        load_checkpoint(path)


def test_open_checkpoint_reads_one_layer_when_it_is_indexed(tmp_path, tensor_reads):
    path = tmp_path / "ck.tensors"
    write_container(path, _checkpoint_tensors())
    with open_checkpoint(path) as ck:
        assert (ck.id, ck.num_layers, ck.has_bias, ck.dtype) == ("ck", 2, True, "float64")
        assert ck.layer_shapes() == ((4, 3), (5, 4))
        assert tensor_reads == []
        second = ck.layers[1]
        assert tensor_reads == [("ck", "layer.2.weight"), ("ck", "layer.2.bias")]
        layers = list(ck.layers)
    for got, want in zip(layers, load_checkpoint(path).layers):
        np.testing.assert_array_equal(got.matrix, want.matrix)
        assert got.has_bias and got.matrix.flags.owndata
    np.testing.assert_array_equal(second.matrix, layers[1].matrix)
    # The file is closed when the block ends.
    with pytest.raises(ValueError, match="closed file"):
        ck.layers[0]


@pytest.mark.parametrize("tensors, message", [
    ({"layer.1.weight": np.zeros((4, 3)), "layer.3.weight": np.zeros((5, 4))}, "contiguous"),
    (_checkpoint_tensors(with_bias=False) | {"layer.1.bias": np.ones(4)},
     "inconsistent bias presence"),
    (_checkpoint_tensors() | {"layer.2.weight": np.zeros(4)},
     r"layer\.2: layer weight must be 2-D, got shape \(4,\)"),
    (_checkpoint_tensors() | {"layer.2.bias": np.ones(3)},
     r"layer\.2: bias length \(3,\) does not match output dim 5"),
    ({"layer.1.weight": np.zeros((4, 3)), "layer.2.weight": np.zeros((5, 6))}, "shape chain broken"),
    (_checkpoint_tensors() | {"layer.2.bias": np.ones(5, dtype=np.float32)}, "mixed tensor dtypes"),
    (_checkpoint_tensors() | {"layer.02.bias": np.ones(5)}, "are both layer.2.bias"),
    ({"layer.1.weight": np.zeros((4, 3)), "layer.2.bias": np.ones(4)}, "bias without matching weight"),
    ({"layer.1.weight": np.zeros((4, 3)), "extra": np.ones(4)}, "unexpected tensor name 'extra'"),
], ids=["gap", "bias-presence", "1d-weight", "bias-length", "chain", "mixed-dtypes", "alias",
        "stray-bias", "stray-name"])
def test_open_checkpoint_checks_the_whole_header_before_any_read(tmp_path, tensor_reads,
                                                                 tensors, message):
    path = tmp_path / "bad.tensors"
    write_container(path, tensors)
    with pytest.raises(ValueError, match=r"bad\.tensors: .*" + message):
        with open_checkpoint(path):
            pass
    with pytest.raises(ValueError, match=r"bad\.tensors: .*" + message):
        load_checkpoint(path)
    assert tensor_reads == []


@pytest.mark.parametrize("kind", ["weight", "bias"])
def test_a_non_finite_layer_fails_when_it_is_read(tmp_path, kind):
    ts = _checkpoint_tensors()
    ts[f"layer.2.{kind}"].flat[-1] = np.nan
    path = tmp_path / "bad.tensors"
    write_container(path, ts)
    with open_checkpoint(path) as ck:
        np.testing.assert_array_equal(ck.layers[0].weight, ts["layer.1.weight"])
        with pytest.raises(ValueError, match=rf"bad\.tensors: layer\.2: layer {kind} contains NaN"):
            ck.layers[1]


@pytest.mark.parametrize("keep, layer, tensor", [
    (-8, 1, "layer.2.weight"),
    (0, 0, "layer.1.weight"),
], ids=["last-tensor", "whole-payload"])
def test_file_cut_after_open_fails_naming_path_and_tensor(tmp_path, tensor_reads, keep, layer,
                                                         tensor):
    # The payload is in sorted-name order, so layer.2.weight is its last tensor.
    # Both weights are larger than the read buffer that holds the header.
    path = tmp_path / "cut.tensors"
    write_container(path, {"layer.1.weight": np.ones((64, 32)), "layer.1.bias": np.ones(64),
                           "layer.2.weight": np.ones((64, 64)), "layer.2.bias": np.ones(64)})
    (header_len,) = struct.unpack_from("<Q", path.read_bytes())
    with open_checkpoint(path) as ck:
        os.truncate(path, os.path.getsize(path) + keep if keep else 8 + header_len)
        for li in range(layer):
            ck.layers[li]
        with pytest.raises(ContainerError,
                           match=rf"cut\.tensors: truncated file \(entry '{tensor}' ends past payload\)"):
            ck.layers[layer]
    assert tensor_reads[-1] == ("cut", tensor)


def test_open_checkpoint_serves_a_pipe_from_memory(tmp_path):
    path = tmp_path / "ck.tensors"
    write_container(path, _checkpoint_tensors())
    fifo = tmp_path / "piped"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
    writer.start()
    with open_checkpoint(fifo) as ck:
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (ck.id, ck.layer_shapes()) == ("piped", ((4, 3), (5, 4)))
        layers = [ck.layers[1], ck.layers[0], ck.layers[1]]
    want = load_checkpoint(path).layers
    for got, li in zip(layers, (1, 0, 1)):
        np.testing.assert_array_equal(got.matrix, want[li].matrix)


def test_save_checkpoint_roundtrip(tmp_path, rng):
    from conftest import make_checkpoint
    ck = make_checkpoint("orig", rng, [3, 4, 2])
    path = tmp_path / "orig.tensors"
    save_checkpoint(path, ck)
    back = load_checkpoint(path)
    assert back.id == "orig"
    for la, lb in zip(ck.layers, back.layers):
        np.testing.assert_array_equal(la.weight, lb.weight)
        np.testing.assert_array_equal(la.bias, lb.bias)


def test_float32_checkpoint_promoted(tmp_path):
    ts = {"layer.1.weight": np.ones((2, 2), dtype=np.float32)}
    path = tmp_path / "f32.tensors"
    write_container(path, ts)
    ck = load_checkpoint(path)
    assert ck.dtype == "float32"
    assert ck.layers[0].weight.dtype == np.float64
    save_checkpoint(tmp_path / "back.tensors", ck)
    assert read_container(tmp_path / "back.tensors")["layer.1.weight"].dtype == "float32"


def test_load_float32_checkpoint_peaks_under_four_file_sizes(tmp_path):
    # The float32 tensors plus their float64 promotion are 3x the file once the
    # file buffer is freed; each slice copy of the whole file would add 1x.
    gen = np.random.default_rng(0)
    layers = tuple(Layer(np.hstack([gen.standard_normal((d_out, d_in)),
                                    gen.standard_normal(d_out)[:, None]]), has_bias=True)
                   for d_in, d_out in ((256, 512), (512, 512)))
    path = tmp_path / "f32.tensors"
    save_checkpoint(path, ProjectorCheckpoint(id="f32", layers=layers, dtype="float32"))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 4 * os.path.getsize(path)
    for got, want in zip(loaded.layers, layers):
        np.testing.assert_array_equal(got.weight, want.weight.astype(np.float32))
    # Each tensor holds its own memory, not a view that keeps the file buffer alive.
    assert all(t.flags.owndata and t.flags.writeable for t in read_container(path).values())


def test_save_checkpoint_rejects_overflow_before_writing(tmp_path):
    ck = ProjectorCheckpoint(id="big", dtype="float32", layers=(
        Layer(np.array([[1.0, 2.0, 1e39]]), has_bias=True),))
    path = tmp_path / "big.tensors"
    with pytest.raises(ValueError, match=r"big\.tensors: layer\.1\.bias .*float32"):
        save_checkpoint(path, ck)
    assert not path.exists()


def _overflowing_checkpoint():
    # layer.2.weight sorts last, so the other tensors are written before it fails
    gen = np.random.default_rng(4)
    second = gen.standard_normal((3, 4))
    second[1, 2] = 1e39
    return ProjectorCheckpoint(id="big", dtype="float32", layers=(
        Layer(gen.standard_normal((3, 5)), has_bias=True),
        Layer(second, has_bias=True)))


def test_save_checkpoint_overflow_mid_write_leaves_no_file(tmp_path):
    path = tmp_path / "big.tensors"
    with pytest.raises(ValueError, match=r"big\.tensors: layer\.2\.weight .*overflow float32"):
        save_checkpoint(path, _overflowing_checkpoint())
    assert list(tmp_path.iterdir()) == []


def test_save_checkpoint_overflow_keeps_existing_target(tmp_path, rng):
    from conftest import make_checkpoint
    path = tmp_path / "big.tensors"
    save_checkpoint(path, make_checkpoint("big", rng, [4, 3, 3]))
    before = path.read_bytes()
    with pytest.raises(ValueError, match=r"layer\.2\.weight"):
        save_checkpoint(path, _overflowing_checkpoint())
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_save_checkpoint_converts_one_tensor_at_a_time(tmp_path):
    # Converting every tensor before writing held 1.07x the file at this shape;
    # one converted weight plus its finiteness mask is about 0.31x.
    gen = np.random.default_rng(6)
    layers = tuple(Layer(gen.standard_normal((512, 513)), has_bias=True) for _ in range(4))
    ck = ProjectorCheckpoint(id="f32", layers=layers, dtype="float32")
    path = tmp_path / "f32.tensors"
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        save_checkpoint(path, ck)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 0.5 * os.path.getsize(path)
    for got, want in zip(load_checkpoint(path).layers, layers):
        np.testing.assert_array_equal(got.matrix, want.matrix.astype(np.float32))


def test_write_container_stores_the_given_dtype(tmp_path):
    values = np.array([[1.0, 2.5], [1e-50, -3.0]])
    path = tmp_path / "t.tensors"
    write_container(path, {"a": values[:, 1], "b": values}, "float32")
    out = read_container(path)
    assert out["a"].dtype == out["b"].dtype == np.float32
    np.testing.assert_array_equal(out["b"], values.astype(np.float32))
    np.testing.assert_array_equal(out["a"], values[:, 1].astype(np.float32))
    with pytest.raises(ValueError, match="unsupported dtype 'int32'"):
        write_container(tmp_path / "u.tensors", {"a": values}, "int32")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.tensors"]


def test_read_container_returns_writable_independent_arrays(tmp_path):
    path = tmp_path / "t.tensors"
    write_container(path, {"a": np.arange(6.0).reshape(2, 3), "b": np.arange(4, dtype=np.float32),
                           "c": np.zeros(0)})
    before = path.read_bytes()
    out = read_container(path)
    assert all(t.flags.owndata and t.flags.writeable for t in out.values())
    out["a"][:] = -1.0
    out["b"] *= 2.0
    np.testing.assert_array_equal(out["a"], np.full((2, 3), -1.0))
    np.testing.assert_array_equal(out["b"], np.arange(4, dtype=np.float32) * 2.0)
    again = read_container(path)
    np.testing.assert_array_equal(again["a"], np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(again["b"], np.arange(4, dtype=np.float32))
    assert path.read_bytes() == before


def test_read_container_from_pipe(tmp_path):
    path = tmp_path / "t.tensors"
    write_container(path, {"a": np.arange(3.0), "b": np.ones((2, 2), dtype=np.float32)})
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
    writer.start()
    out = read_container(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    for name, want in read_container(path).items():
        np.testing.assert_array_equal(out[name], want)
        assert out[name].dtype == want.dtype


def test_non_native_stored_order_is_swapped_in_place(tmp_path, monkeypatch):
    big = {"float32": np.dtype(">f4"), "float64": np.dtype(">f8")}
    monkeypatch.setattr(tensorstore, "_DTYPES", big)
    path = tmp_path / "be.tensors"
    values = {"a": np.linspace(-2.0, 3.0, 7), "b": np.arange(6, dtype=np.float32).reshape(2, 3)}
    write_container(path, values)
    out = read_container(path)
    for name, want in values.items():
        assert out[name].dtype.isnative and out[name].flags.owndata
        assert out[name].dtype == want.dtype
        np.testing.assert_array_equal(out[name], want)


# --- layer matrix and views --------------------------------------------


def test_layer_views_with_bias():
    layer = Layer(np.array([[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]]), has_bias=True)
    np.testing.assert_array_equal(layer.weight, [[1, 2], [3, 4]])
    np.testing.assert_array_equal(layer.bias, [5, 6])
    assert (layer.d_out, layer.d_in) == (2, 2)


def test_layer_views_without_bias():
    layer = Layer(np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(layer.weight, layer.matrix)
    assert layer.bias is None and (layer.d_out, layer.d_in) == (1, 2)


@pytest.mark.parametrize("matrix, has_bias", [(np.zeros(3), False), (np.zeros((2, 0)), True)],
                         ids=["1d", "no-bias-column"])
def test_layer_rejects_matrix_without_room(matrix, has_bias):
    with pytest.raises(ValueError, match="layer matrix must be 2-D"):
        Layer(matrix, has_bias=has_bias)


def test_add_delta_keeps_at_most_two_copies_of_the_layer():
    gen = np.random.default_rng(0)
    layer = Layer(np.hstack([gen.standard_normal((512, 512)), gen.standard_normal(512)[:, None]]),
                  has_bias=True)
    delta = gen.standard_normal((512, 513))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = add_delta(layer, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output matrix plus the finiteness masks; a copy of the input would exceed 1.5x
    assert peak - before < 1.5 * delta.nbytes
    np.testing.assert_array_equal(out.matrix, layer.matrix + delta)


def test_layer_deltas_holds_one_matrix_per_expert():
    gen = np.random.default_rng(0)
    base, *experts = (
        ProjectorCheckpoint(id=f"m{i}", layers=(Layer(gen.standard_normal((512, 513)), True),))
        for i in range(5))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        deltas = layer_deltas(experts, base.layers[0], 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the N output deltas; a copy of any input matrix would exceed N + 0.5
    assert peak - before < (len(experts) + 0.5) * base.layers[0].matrix.nbytes
    for delta, ck in zip(deltas, experts):
        np.testing.assert_array_equal(delta, ck.layers[0].matrix - base.layers[0].matrix)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_layer_views_share_matrix_property(d_out, d_in, with_bias, seed):
    matrix = np.random.default_rng(seed).standard_normal((d_out, d_in + with_bias))
    layer = Layer(matrix, has_bias=with_bias)
    assert (layer.d_out, layer.d_in) == (d_out, d_in)
    np.testing.assert_array_equal(layer.weight, matrix[:, :d_in])
    assert np.shares_memory(layer.weight, layer.matrix)
    if with_bias:
        np.testing.assert_array_equal(layer.bias, matrix[:, -1])
        assert np.shares_memory(layer.bias, layer.matrix)
    else:
        assert layer.bias is None


def test_checkpoint_requires_uniform_bias():
    with pytest.raises(ValueError, match="bias"):
        ProjectorCheckpoint(id="x", layers=(
            Layer(np.zeros((2, 3)), has_bias=True),
            Layer(np.zeros((2, 2))),
        ))
