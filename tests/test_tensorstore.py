import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotmerge import (
    AugmentedLayer,
    ContainerError,
    Layer,
    ProjectorCheckpoint,
    Tensor,
    augment,
    load_checkpoint,
    read_container,
    save_checkpoint,
    split,
    write_container,
)


def test_roundtrip_two_tensors(tmp_path):
    path = tmp_path / "t.tensors"
    a = Tensor("alpha", np.arange(6, dtype=np.float32).reshape(2, 3))
    b = Tensor("beta", np.linspace(-1, 1, 5, dtype=np.float64))
    write_container(path, [b, a])
    out = read_container(path)
    assert [t.name for t in out] == ["alpha", "beta"]  # header order is sorted
    np.testing.assert_array_equal(out[0].data, a.data)
    np.testing.assert_array_equal(out[1].data, b.data)
    assert out[0].dtype == "float32" and out[1].dtype == "float64"


def test_empty_container(tmp_path):
    path = tmp_path / "empty.tensors"
    write_container(path, [])
    assert read_container(path) == []
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw)
    assert raw[8:8 + header_len] == b"{}"


def test_payload_size_2x3_float32(tmp_path):
    path = tmp_path / "p.tensors"
    write_container(path, [Tensor("x", np.ones((2, 3), dtype=np.float32))])
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw)
    payload = raw[8 + header_len:]
    assert len(payload) == 6 * 4


def test_write_is_byte_reproducible(tmp_path):
    t1 = Tensor("a", np.arange(4, dtype=np.float64))
    t2 = Tensor("b", np.ones((2, 2), dtype=np.float32))
    p1, p2 = tmp_path / "one.tensors", tmp_path / "two.tensors"
    write_container(p1, [t1, t2])
    write_container(p2, [t2, t1])  # order of the input list must not matter
    assert p1.read_bytes() == p2.read_bytes()


def test_duplicate_names_rejected(tmp_path):
    t = Tensor("x", np.zeros(2))
    with pytest.raises(ValueError, match="duplicate"):
        write_container(tmp_path / "d.tensors", [t, t])


def test_unsupported_dtype_rejected():
    with pytest.raises(ValueError, match="dtype"):
        Tensor("x", np.zeros(3, dtype=np.int32))


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


names = st.text(alphabet="abcdefgxyz._0123456789", min_size=1, max_size=12)
small_shapes = st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=3)


@st.composite
def tensor_sets(draw):
    count = draw(st.integers(min_value=0, max_value=4))
    used = set()
    tensors = []
    for _ in range(count):
        name = draw(names.filter(lambda n: n not in used))
        used.add(name)
        shape = tuple(draw(small_shapes))
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        size = int(np.prod(shape)) if shape else 1
        values = draw(st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
            min_size=size, max_size=size))
        tensors.append(Tensor(name, np.array(values, dtype=dtype).reshape(shape)))
    return tensors


@settings(max_examples=50, deadline=None)
@given(tensor_sets())
def test_roundtrip_property(tmp_path_factory, tensors):
    path = tmp_path_factory.mktemp("cont") / "t.tensors"
    write_container(path, tensors)
    out = read_container(path)
    expected = sorted(tensors, key=lambda t: t.name)
    assert [t.name for t in out] == [t.name for t in expected]
    for got, want in zip(out, expected):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.data, want.data)


# --- checkpoint model ---------------------------------------------------


def _checkpoint_tensors(with_bias=True):
    ts = [
        Tensor("layer.1.weight", np.arange(12, dtype=np.float64).reshape(4, 3)),
        Tensor("layer.2.weight", np.arange(20, dtype=np.float64).reshape(5, 4)),
    ]
    if with_bias:
        ts.append(Tensor("layer.1.bias", np.ones(4)))
        ts.append(Tensor("layer.2.bias", np.zeros(5)))
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
    ts = [
        Tensor("layer.1.weight", np.zeros((4, 3))),
        Tensor("layer.3.weight", np.zeros((5, 4))),
    ]
    path = tmp_path / "gap.tensors"
    write_container(path, ts)
    with pytest.raises(ValueError, match="contiguous"):
        load_checkpoint(path)


def test_load_checkpoint_inconsistent_bias(tmp_path):
    ts = _checkpoint_tensors(with_bias=False)
    ts.append(Tensor("layer.1.bias", np.ones(4)))
    path = tmp_path / "bias.tensors"
    write_container(path, ts)
    with pytest.raises(ValueError, match="bias"):
        load_checkpoint(path)


def test_load_checkpoint_bad_bias_length(tmp_path):
    ts = _checkpoint_tensors(with_bias=False)
    ts += [Tensor("layer.1.bias", np.ones(3)), Tensor("layer.2.bias", np.ones(5))]
    path = tmp_path / "bias.tensors"
    write_container(path, ts)
    with pytest.raises(ValueError, match="bias"):
        load_checkpoint(path)


def test_shape_chain_checked(tmp_path):
    ts = [
        Tensor("layer.1.weight", np.zeros((4, 3))),
        Tensor("layer.2.weight", np.zeros((5, 6))),
    ]
    path = tmp_path / "chain.tensors"
    write_container(path, ts)
    with pytest.raises(ValueError, match="chain"):
        load_checkpoint(path)


def test_nonfinite_weight_rejected(tmp_path):
    ts = [Tensor("layer.1.weight", np.array([[np.nan, 0.0]]))]
    path = tmp_path / "nan.tensors"
    write_container(path, ts)
    with pytest.raises(ValueError, match="NaN"):
        load_checkpoint(path)


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
    ts = [Tensor("layer.1.weight", np.ones((2, 2), dtype=np.float32))]
    path = tmp_path / "f32.tensors"
    write_container(path, ts)
    ck = load_checkpoint(path)
    assert ck.dtype == "float32"
    assert ck.layers[0].weight.dtype == np.float64
    save_checkpoint(tmp_path / "back.tensors", ck)
    assert read_container(tmp_path / "back.tensors")[0].dtype == "float32"


def test_save_checkpoint_rejects_overflow_before_writing(tmp_path):
    ck = ProjectorCheckpoint(id="big", dtype="float32", layers=(
        Layer(weight=np.array([[1.0, 2.0]]), bias=np.array([1e39])),))
    path = tmp_path / "big.tensors"
    with pytest.raises(ValueError, match=r"big\.tensors: layer\.1\.bias .*float32"):
        save_checkpoint(path, ck)
    assert not path.exists()


# --- augment / split ----------------------------------------------------


def test_augment_with_bias():
    layer = Layer(weight=np.array([[1.0, 2.0], [3.0, 4.0]]), bias=np.array([5.0, 6.0]))
    aug = augment(layer)
    assert aug.had_bias
    np.testing.assert_array_equal(aug.matrix, [[1, 2, 5], [3, 4, 6]])


def test_augment_without_bias():
    layer = Layer(weight=np.array([[1.0, 2.0]]))
    aug = augment(layer)
    assert not aug.had_bias
    np.testing.assert_array_equal(aug.matrix, layer.weight)


def test_split_is_inverse():
    aug = AugmentedLayer(matrix=np.array([[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]]), had_bias=True)
    layer = split(aug)
    np.testing.assert_array_equal(layer.weight, [[1, 2], [3, 4]])
    np.testing.assert_array_equal(layer.bias, [5, 6])
    back = augment(layer)
    np.testing.assert_array_equal(back.matrix, aug.matrix)
    assert back.had_bias


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_augment_split_inverse_property(d_out, d_in, with_bias, seed):
    gen = np.random.default_rng(seed)
    layer = Layer(weight=gen.standard_normal((d_out, d_in)),
                  bias=gen.standard_normal(d_out) if with_bias else None)
    round_tripped = split(augment(layer))
    np.testing.assert_array_equal(round_tripped.weight, layer.weight)
    if with_bias:
        np.testing.assert_array_equal(round_tripped.bias, layer.bias)
    else:
        assert round_tripped.bias is None


def test_checkpoint_requires_uniform_bias():
    with pytest.raises(ValueError, match="bias"):
        ProjectorCheckpoint(id="x", layers=(
            Layer(weight=np.zeros((2, 2)), bias=np.zeros(2)),
            Layer(weight=np.zeros((2, 2))),
        ))
