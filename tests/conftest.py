from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from tsclab.bundle import unpack
from tsclab.data import MTS_HEADER, TimeSeriesDataset, one_hot
from tsclab.tensor import SplitMix64

# one fixed profile: the same examples on every run, no per-example time limit
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def central_difference(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(analytic, numeric, floor=1e-8):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))


def assert_grad_close(analytic, numeric, tol=1e-6):
    err = relative_error(analytic, numeric)
    assert err < tol, f"gradient mismatch: relative error {err:.3e} >= {tol}"


def random_batch(shape, seed=0, scale=1.0):
    rng = SplitMix64(seed)
    return (2.0 * rng.uniform(int(np.prod(shape))) - 1.0).reshape(shape) * scale


def gradient_slots(spec, fill=0.0) -> dict:
    """A slot per parameter of ``spec`` for ``backward_batch`` to write: named views
    of one vector filled with ``fill``, laid out as ``optim.train`` lays out its own."""
    layout = [(name, shape) for name, shape, _ in spec.layout.params]
    return unpack(np.full(sum(int(np.prod(shape)) for _, shape in layout), fill), layout)


def toy_dataset(n=8, T=16, M=1, K=2, seed=0):
    """Random labeled series; labels cycle over classes."""
    X = random_batch((n, T, M), seed=seed)
    labels = [i % K for i in range(n)]
    vocab = tuple(range(K))
    return TimeSeriesDataset(X, one_hot(labels, vocab), vocab)


def separable_dataset(n=20, T=16, M=1, seed=3, margin=1.0):
    """Two classes split by the sign of the series mean, with a clear margin."""
    X = random_batch((n, T, M), seed=seed) * 0.25
    labels = []
    for i in range(n):
        if i % 2 == 0:
            X[i] += margin
            labels.append(1)
        else:
            X[i] -= margin
            labels.append(0)
    vocab = (0, 1)
    return TimeSeriesDataset(X, one_hot(labels, vocab), vocab)


def save_mts_long(dataset: TimeSeriesDataset, path) -> None:
    """Serialize an equal-length dataset back to the long format."""
    lines = [MTS_HEADER]
    labels = dataset.labels()
    for i in range(dataset.n):
        label = dataset.vocabulary[labels[i]]
        label_tok = repr(label) if isinstance(label, float) else str(label)
        for dim in range(dataset.dims):
            for t in range(dataset.length):
                lines.append(f"{i},{dim},{t},{float(dataset.X[i, t, dim])!r},{label_tok}")
    Path(path).write_text("\n".join(lines) + "\n")


def poison_blob(manifest, tensors: dict, name: str, index: int, value: float) -> None:
    """Overwrite flat value ``index`` of tensor ``name`` in the blob of ``manifest``.

    ``tensors`` are the bundle's tensors in blob order."""
    names = list(tensors)
    at = sum(tensors[n].size for n in names[: names.index(name)]) + index
    blob = Path(manifest).with_suffix(".model.bin")
    data = bytearray(blob.read_bytes())
    data[8 * at : 8 * at + 8] = np.array(value, "<f8").tobytes()
    blob.write_bytes(bytes(data))


@pytest.fixture
def rng():
    return SplitMix64(0)
