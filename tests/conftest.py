import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pivotmerge import Layer, ProjectorCheckpoint, linalg, tensorstore
from pivotmerge.cli import main

ROOT = Path(__file__).resolve().parent.parent


def pytest_collection_modifyitems(items):
    """An unexpected UserWarning fails a test in this directory.

    A test that expects one says which, with `pytest.warns` or a `filterwarnings`
    mark; those marks are applied after this one, so they take precedence. The
    filter is not in pyproject.toml because that would apply it to the
    benchmark's own tests as well.
    """
    here = Path(__file__).parent
    for item in items:
        if item.path.is_relative_to(here):
            item.add_marker(pytest.mark.filterwarnings("error::UserWarning"), append=False)


def rel_error(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(b), 1e-30)
    return np.linalg.norm(a - b) / denom


def checkpoint_rel_error(ck_a, ck_b):
    """Largest per-layer relative Frobenius error across weights and biases."""
    assert ck_a.num_layers == ck_b.num_layers
    worst = 0.0
    for la, lb in zip(ck_a.layers, ck_b.layers):
        worst = max(worst, rel_error(la.weight, lb.weight))
        if la.bias is not None or lb.bias is not None:
            worst = max(worst, rel_error(la.bias, lb.bias))
    return worst


def make_checkpoint(ckpt_id, rng, chain, with_bias=True, scale=1.0):
    """Random checkpoint along a dimension chain [d0, d1, ..., dL]."""
    layers = []
    for i in range(len(chain) - 1):
        d_in, d_out = chain[i], chain[i + 1]
        weight = rng.standard_normal((d_out, d_in)) * scale
        if with_bias:
            weight = np.hstack([weight, rng.standard_normal(d_out)[:, None] * scale])
        layers.append(Layer(weight, has_bias=with_bias))
    return ProjectorCheckpoint(id=ckpt_id, layers=tuple(layers))


def scaled_checkpoint(ck, exp):
    """`ck` with every layer matrix scaled by 2**exp, exactly."""
    return ProjectorCheckpoint(id=ck.id, layers=tuple(Layer(np.ldexp(l.matrix, exp), l.has_bias)
                                                      for l in ck.layers))


def zero_checkpoint(like):
    """A checkpoint of `like`'s layout with every entry zero, so a delta against it is exact."""
    return ProjectorCheckpoint(id="base", layers=tuple(Layer(np.zeros_like(l.matrix), l.has_bias)
                                                       for l in like.layers))


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return ""


# Checks of OpenBLAS's worker threads mean nothing on another BLAS or one core.
needs_threaded_openblas = pytest.mark.skipif(
    "openblas" not in _blas_name().lower() or (os.cpu_count() or 1) < 2,
    reason="needs numpy on OpenBLAS and at least two cores")


# Checks of LAPACK's dsyevr itself mean nothing where numpy's LAPACK lacks it;
# there the top eigenpairs come from np.linalg.eigh, which the other tests cover.
needs_subset_eigh = pytest.mark.skipif(linalg._dsyevr() is None,
                                       reason="needs dsyevr in numpy's LAPACK")


def child_env(**environ):
    """An environment for a fresh interpreter that imports pivotmerge from `src/`.

    OPENBLAS_THREAD_TIMEOUT is taken out of the inherited environment, so the
    child sees only what `environ` sets and what importing pivotmerge sets.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env.update(environ, PYTHONPATH=str(ROOT / "src"))
    return env


def run_python(code, **environ):
    """stdout of `python -c CODE` in a fresh interpreter, which must exit 0; `environ` adds variables."""
    result = subprocess.run([sys.executable, "-c", code], env=child_env(**environ),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def run_cli(*args, **environ):
    """`python -m pivotmerge.cli ARGS` in a fresh interpreter; `environ` adds variables."""
    return subprocess.run([sys.executable, "-m", "pivotmerge.cli", *map(str, args)],
                          env=child_env(**environ), capture_output=True, text=True, timeout=120)


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--seed", "7"]) == 0
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tensor_reads(monkeypatch):
    """Every container tensor read from here on, as (file stem, tensor name), in read order."""
    reads = []
    real = tensorstore._read_tensor

    def counted(path, fh, entry):
        reads.append((Path(path).stem, entry.name))
        return real(path, fh, entry)

    monkeypatch.setattr(tensorstore, "_read_tensor", counted)
    return reads
