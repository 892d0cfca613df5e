"""The eight feed-forward classifier architectures as declarative layer trees.

A model is a :class:`ModelSpec` (architecture id + geometry + a tree of
layer nodes) plus a flat parameter dict.  Forward composes the layer
kernels in tree order; backward walks the same tree in reverse and writes
each parameter's exact gradient into its slot.  A leaf node only declares its
``layers`` kernel pair, its parameters and its arguments (the contract is on
:class:`Node`).  Builders only declare their nets, bar mcnn's option check;
:func:`build_model` refuses a geometry below the net's floors, then lays the spec
out so that its kernels refuse what they cannot run, each as a ``ShapeError``.
A spec is laid out once: ``ModelSpec.layout`` lists the declared parameters
in layer order, the order of the Glorot draws and of the serialized blob,
and its widest layer sizes every infer batch (:func:`infer_batch`).  Layout
names each layer once, so forward and backward walk the tree passing no names.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import layers as L
from .data import SlicingConfig, TimeSeriesDataset, slice_view
from .bundle import Bundle, write_bundle
from .errors import ShapeError, UnsupportedArchitectureError
from .tensor import SplitMix64, glorot_uniform

MODEL_FORMAT = "tsclab-model-v1"
INFER_VALUES = 1 << 17  # layer-output values per infer forward: input and output fill a 2 MiB L2


# ---------------------------------------------------------------------------
# layer nodes

def _child_prefix(prefix: str, i) -> str:
    return f"{prefix}/{i}" if prefix else str(i)


class Node:
    """One layer of the tree.  A leaf declares, and the base class runs:

    - ``kernel``: the ``layers`` pair ``<kernel>_forward(x, *params, *args)``
      -> ``(y, cache, ...)`` and ``<kernel>_backward(gy, cache, *slots)`` ->
      the input gradient, followed (for a leaf with parameters) by one
      gradient per :func:`trainable` name, each written into its slot
    - ``names``: its parameter names, in blob order; running statistics last
    - ``shapes(in_shape)``: a ``(shape, fill)`` per name; a ``(fan_in,
      fan_out)`` fill is a Glorot draw, a number a constant
    - ``args(mode, rng)``: the static kernel arguments
    - ``label``: the head of its ``describe`` row, the kernel name if empty

    ``describe`` writes ``label``, then ``name=value`` per constructor
    attribute in assignment order (a ``kind`` value bare): ``Conv1d(128, 8)``
    reads ``conv filters=128 length=8 padding=same``.

    ``layout`` binds ``keys`` (``<prefix>.<name>`` per name), then derives the
    out shape from the kernel on an empty batch: an infer forward of
    ``[0, *in_shape]`` with every parameter a zero-stride zero array, so the
    kernel's own checks refuse a geometry it cannot run.  A node over child
    nodes overrides ``_layout`` and ``describe`` to walk them instead.  A node
    has one place in one tree (layout rebinds its keys); a train forward caches
    under the node and backward pops that entry: a caches dict serves one backward.

    Kernels are looked up on ``layers`` at each call, not bound when the
    class is made, so that a wrapper put on the module's kernels (a
    profiler's) sees every call.
    """

    kernel = label = ""
    names: tuple = ()

    def shapes(self, in_shape):
        return ()

    def args(self, mode, rng):
        return ()

    def layout(self, in_shape, prefix, walk: Layout):
        """Add this node's parameters and output size to ``walk``; return its out shape."""
        out = self._layout(in_shape, prefix, walk)
        walk.widest = max(walk.widest, math.prod(out))
        return out

    def _layout(self, in_shape, prefix, walk):
        self.keys = tuple(f"{prefix}.{n}" for n in self.names)
        shapes = self.shapes(in_shape)
        params = {k: np.broadcast_to(0.0, shape) for k, (shape, _) in zip(self.keys, shapes)}
        y = self.forward(np.zeros((0, *in_shape)), params, "infer", None, _NoCaches())
        walk.params += [(k, *sf) for k, sf in zip(self.keys, shapes)]
        return y.shape[1:]

    def _run(self, x, params, mode, rng):
        kernel = getattr(L, f"{self.kernel}_forward")
        return kernel(x, *(params[k] for k in self.keys), *self.args(mode, rng))

    def forward(self, x, params, mode, rng, caches):
        y, caches[self] = self._run(x, params, mode, rng)
        return y

    def backward(self, gy, caches, grads):
        # a leaf's keys are unique in its tree: each slot is written once
        slots = (grads[k] for k in self.keys if trainable(k))
        out = getattr(L, f"{self.kernel}_backward")(gy, caches.pop(self), *slots)
        return out[0] if self.keys else out

    def describe(self):
        fields = (v if k == "kind" else f"{k}={v}" for k, v in vars(self).items() if k != "keys")
        return " ".join([self.label or self.kernel, *fields])


class Flatten(Node):
    label = "flatten"

    def forward(self, x, params, mode, rng, caches):
        caches[self] = x.shape
        return x.reshape(len(x), math.prod(x.shape[1:]))

    def backward(self, gy, caches, grads):
        return gy.reshape(caches.pop(self))


class Dense(Node):
    kernel, names = "dense", ("w", "b")

    def __init__(self, units: int):
        self.units = units

    def shapes(self, in_shape):
        w = (in_shape[0], self.units)
        return (w, w), ((self.units,), 0.0)


class Conv1d(Node):
    kernel, label, names = "conv1d", "conv", ("w", "b")

    def __init__(self, filters: int, length: int, padding: str = "same"):
        self.filters = filters
        self.length = length
        self.padding = padding

    def shapes(self, in_shape):
        c_in = in_shape[1]
        fans = (self.length * c_in, self.length * self.filters)
        return ((self.filters, self.length, c_in), fans), ((self.filters,), 0.0)

    def args(self, mode, rng):
        return (self.padding,)


class BatchNorm(Node):
    kernel, names = "batch_norm", ("gamma", "beta", "running_mean", "running_var")

    def shapes(self, in_shape):
        c = (in_shape[-1],)
        return (c, 1.0), (c, 0.0), (c, 0.0), (c, 1.0)

    def args(self, mode, rng):
        return (mode,)

    def forward(self, x, params, mode, rng, caches):
        y, caches[self], new_mean, new_var = self._run(x, params, mode, rng)
        if mode == "train":
            params[self.keys[2]][...], params[self.keys[3]][...] = new_mean, new_var
        return y


class InstanceNorm(Node):
    kernel, names = "instance_norm", ("gamma", "beta")

    def shapes(self, in_shape):
        c = (in_shape[-1],)
        return (c, 1.0), (c, 0.0)


class Act(Node):
    label, kernel = "act", property(lambda self: self.kind)

    def __init__(self, kind: str):
        self.kind = kind

    def args(self, mode, rng):
        return (mode,)


class PRelu(Node):
    kernel, label, names = "prelu", "act prelu", ("slopes",)

    def shapes(self, in_shape):
        return (((in_shape[-1],), 0.25),)


class Dropout(Node):
    kernel = "dropout"

    def __init__(self, rate: float):
        self.rate = rate

    def args(self, mode, rng):
        return self.rate, mode, rng


class Pool1d(Node):
    kernel, label = "pool1d", "pool"

    def __init__(self, kind: str, window: int):
        self.kind = kind
        self.window = window

    def args(self, mode, rng):
        return self.window, self.kind, mode


class Gap(Node):
    kernel = "gap"


class Attention(Node):
    kernel = "attention"


class Downsample(Node):
    kernel = "downsample"

    def __init__(self, factor: int):
        self.factor = factor

    def args(self, mode, rng):
        return (self.factor,)


class MovingAvg(Node):
    kernel, label = "moving_average", "moving_avg"

    def __init__(self, window: int):
        self.window = window

    def args(self, mode, rng):
        return (self.window,)


class AlignTime(Node):
    """Force the time extent to ``target``: crop the tail or zero-pad it."""

    label = "align_time"

    def __init__(self, target: int):
        self.target = target

    def forward(self, x, params, mode, rng, caches):
        caches[self] = T = x.shape[1]
        if T == self.target:
            return x
        if T > self.target:
            return x[:, : self.target, :]
        return L.pad_time(x, 0, self.target - T)

    def backward(self, gy, caches, grads):
        T = caches.pop(self)
        if T == self.target:
            return gy
        if T > self.target:
            return L.pad_time(gy, 0, T - self.target)
        return gy[:, :T, :]


class Sequential(Node):
    def __init__(self, children: list):
        self.children = list(children)

    def _layout(self, in_shape, prefix, walk):
        for i, child in enumerate(self.children):
            in_shape = child.layout(in_shape, _child_prefix(prefix, i), walk)
        return in_shape

    def forward(self, x, params, mode, rng, caches):
        for child in self.children:
            x = child.forward(x, params, mode, rng, caches)
        return x

    def backward(self, gy, caches, grads):
        for child in reversed(self.children):
            gy = child.backward(gy, caches, grads)
        return gy

    def describe(self):
        return [child.describe() for child in self.children]


class Residual(Node):
    """Body branch plus a linear shortcut; both receive the block input."""

    def __init__(self, body: Node, shortcut: Node | None = None):
        self.body = body
        self.shortcut = shortcut

    def _layout(self, in_shape, prefix, walk):
        out = self.body.layout(in_shape, _child_prefix(prefix, "body"), walk)
        if self.shortcut is not None:
            sc = self.shortcut.layout(in_shape, _child_prefix(prefix, "sc"), walk)
            if sc != out:
                raise ShapeError(f"residual: body {out} and shortcut {sc} shapes differ")
        elif in_shape != out:
            raise ShapeError(f"residual: identity shortcut needs {in_shape} == {out}")
        return out

    def forward(self, x, params, mode, rng, caches):
        yb = self.body.forward(x, params, mode, rng, caches)
        ys = x if self.shortcut is None else self.shortcut.forward(x, params, mode, rng, caches)
        return L.residual_add(yb, ys)

    def backward(self, gy, caches, grads):
        gx = self.body.backward(gy, caches, grads)
        return gx + (gy if self.shortcut is None else self.shortcut.backward(gy, caches, grads))

    def describe(self):
        return {
            "residual": self.body.describe(),
            "shortcut": None if self.shortcut is None else self.shortcut.describe(),
        }


class ConcatChannels(Node):
    """Feed the same input to every branch; concatenate outputs over channels.

    A subclass changes what a branch sees (``_branch_shape``, ``_branch_input``)
    and how the branches' input gradients combine (``_combine``: in-order sum)."""

    tag, label = "br", "concat_branches"  # parameter prefix, ``describe`` key

    def __init__(self, branches: list):
        self.branches = list(branches)

    def _branch_shape(self, in_shape):
        return in_shape

    def _branch_input(self, x, i):
        return x

    def _combine(self, gxs):
        return sum(gxs[1:], gxs[0])

    def _layout(self, in_shape, prefix, walk):
        shape = self._branch_shape(in_shape)
        outs = [b.layout(shape, _child_prefix(prefix, f"{self.tag}{i}"), walk)
                for i, b in enumerate(self.branches)]
        times = {o[0] for o in outs}
        if len(times) != 1:
            raise ShapeError(f"branch time extents differ: {sorted(times)}")
        return (outs[0][0], sum(o[1] for o in outs))

    def forward(self, x, params, mode, rng, caches):
        ys = [b.forward(self._branch_input(x, i), params, mode, rng, caches)
              for i, b in enumerate(self.branches)]
        caches[self] = np.cumsum([0] + [y.shape[2] for y in ys])
        return np.concatenate(ys, axis=2)

    def backward(self, gy, caches, grads):
        at = caches.pop(self)
        return self._combine([b.backward(gy[:, :, at[i] : at[i + 1]], caches, grads)
                              for i, b in enumerate(self.branches)])

    def describe(self):
        return {self.label: [b.describe() for b in self.branches]}


class SplitDims(ConcatChannels):
    """One branch per input dimension; branch i sees channel i alone."""

    tag, label = "dim", "per_dimension"

    def _branch_shape(self, in_shape):
        T, c = in_shape
        if c != len(self.branches):
            raise ShapeError(f"expected {len(self.branches)} input dims, got {c}")
        return (T, 1)

    def _branch_input(self, x, i):
        return x[:, :, i : i + 1]

    def _combine(self, gxs):
        return np.concatenate(gxs, axis=2)


# ---------------------------------------------------------------------------
# model spec and builders

@dataclass
class Layout:
    """One walk of a layer tree."""

    params: list = field(default_factory=list)  # (name, shape, fill), the blob's order
    widest: int = 0  # the largest per-series output of any node, in values


@dataclass
class ModelSpec:
    architecture_id: str
    input_length: int
    input_dims: int
    classes: int
    loss: str
    net: Node
    options: dict = field(default_factory=dict)
    slicing: SlicingConfig | None = None

    @cached_property
    def layout(self) -> Layout:
        """The tree laid out once, on first use; refuses a geometry it cannot run."""
        walk = Layout()
        out = self.net.layout((self.input_length, self.input_dims), "", walk)
        if out != (self.classes,):
            raise ShapeError(f"network emits {out}, expected ({self.classes},)")
        return walk


@dataclass
class TrainedModel:
    spec: ModelSpec
    params: dict
    seed: int = 0
    epochs_run: int = 0
    best_epoch: int = 0


def infer_batch(spec: ModelSpec) -> int:
    """Series per infer forward: as many as keep the widest layer output within
    ``INFER_VALUES``, so each layer's pass stays in cache; at least one."""
    return max(1, INFER_VALUES // spec.layout.widest)


def check_geometry(spec: ModelSpec, dataset: TimeSeriesDataset) -> None:
    """Refuse a dataset whose length, dimensions or class count are not the model's."""
    have = (dataset.length, dataset.dims, dataset.n_classes)
    want = (spec.input_length, spec.input_dims, spec.classes)
    if have != want:
        raise ShapeError("dataset geometry (T={}, M={}, K={}) does not match "
                         "model (T={}, M={}, K={})".format(*have, *want))


def init_model(spec: ModelSpec, rng: SplitMix64) -> dict:
    """Fresh parameter dict; Glorot draws in layer order, row-major per tensor."""
    return {name: glorot_uniform(*fill, shape, rng) if isinstance(fill, tuple)
            else np.full(shape, fill) for name, shape, fill in spec.layout.params}


def trainable(name: str) -> bool:
    return ".running_" not in name


def build_mlp(T: int, M: int, K: int) -> ModelSpec:
    net = Sequential([
        Flatten(),
        Dropout(0.1), Dense(500), Act("relu"),
        Dropout(0.2), Dense(500), Act("relu"),
        Dropout(0.2), Dense(500), Act("relu"),
        Dropout(0.3), Dense(K), Act("softmax"),
    ])
    return ModelSpec("mlp", T, M, K, "cross_entropy", net)


def build_fcn(T: int, M: int, K: int) -> ModelSpec:
    net = Sequential([
        Conv1d(128, 8, "same"), BatchNorm(), Act("relu"),
        Conv1d(256, 5, "same"), BatchNorm(), Act("relu"),
        Conv1d(128, 3, "same"), BatchNorm(), Act("relu"),
        Gap(), Dense(K), Act("softmax"),
    ])
    return ModelSpec("fcn", T, M, K, "cross_entropy", net)


def build_resnet(T: int, M: int, K: int) -> ModelSpec:
    def block(c_in: int) -> Residual:
        body = Sequential([
            Conv1d(64, 8, "same"), BatchNorm(), Act("relu"),
            Conv1d(64, 5, "same"), BatchNorm(), Act("relu"),
            Conv1d(64, 3, "same"), BatchNorm(), Act("relu"),
        ])
        shortcut = None
        if c_in != 64:
            shortcut = Sequential([Conv1d(64, 1, "same"), BatchNorm()])
        return Residual(body, shortcut)

    net = Sequential([block(M), block(64), block(64), Gap(), Dense(K), Act("softmax")])
    return ModelSpec("resnet", T, M, K, "cross_entropy", net)


def build_encoder(T: int, M: int, K: int) -> ModelSpec:
    net = Sequential([
        Conv1d(128, 5, "same"), InstanceNorm(), PRelu(), Dropout(0.2), Pool1d("max", 2),
        Conv1d(256, 11, "same"), InstanceNorm(), PRelu(), Dropout(0.2), Pool1d("max", 2),
        Conv1d(512, 21, "same"), InstanceNorm(), PRelu(), Dropout(0.2), Pool1d("max", 2),
        Attention(), Dense(K), Act("softmax"),
    ])
    return ModelSpec("encoder", T, M, K, "cross_entropy", net)


MCNN_DOWNSAMPLE_FACTORS = (2, 4, 8)
MCNN_SMOOTHING_WINDOWS = (5, 8, 11)


def mcnn_grid(slice_T: int) -> list[tuple[int, int]]:
    """The (filter_length, pool_factor) search grid for a given slice length."""
    lengths = sorted({max(1, int(math.floor(f * slice_T + 0.5))) for f in (0.05, 0.1, 0.2)})
    return [(fl, pf) for fl in lengths for pf in (2, 3, 5)]


def build_mcnn(slice_T: int, M: int, K: int, filter_length: int, pool_factor: int) -> ModelSpec:
    if not 1 <= pool_factor <= slice_T or filter_length < 1:
        raise ValueError(f"mcnn needs pool_factor in 1..{slice_T}, the slice length, and "
                         f"filter_length >= 1; got pool_factor={pool_factor}, "
                         f"filter_length={filter_length}")
    target = slice_T // pool_factor

    def branch(transform: Node | None, t_branch: int) -> Sequential:
        window = max(1, t_branch // target)
        steps: list[Node] = [] if transform is None else [transform]
        steps += [
            Conv1d(256, filter_length, "same"), Act("sigmoid"),
            Pool1d("max", min(window, t_branch)), AlignTime(target),
        ]
        return Sequential(steps)

    branches = [branch(None, slice_T)]
    for k in MCNN_DOWNSAMPLE_FACTORS:
        branches.append(branch(Downsample(k), -(-slice_T // k)))
    for w in MCNN_SMOOTHING_WINDOWS:
        branches.append(branch(MovingAvg(w), slice_T - w + 1))

    net = Sequential([
        ConcatChannels(branches),
        Conv1d(256, filter_length, "same"), Act("sigmoid"), Pool1d("max", 2),
        Flatten(), Dense(256), Act("sigmoid"), Dense(K), Act("softmax"),
    ])
    return ModelSpec(
        "mcnn", slice_T, M, K, "cross_entropy", net,
        options={"filter_length": filter_length, "pool_factor": pool_factor},
    )


def build_tlenet(slice_T: int, M: int, K: int) -> ModelSpec:
    net = Sequential([
        Conv1d(5, 5, "same"), Act("relu"), Pool1d("max", 2),
        Conv1d(20, 5, "same"), Act("relu"), Pool1d("max", 4),
        Flatten(), Dense(500), Act("relu"), Dense(K), Act("softmax"),
    ])
    return ModelSpec("tlenet", slice_T, M, K, "cross_entropy", net)


def build_mcdcnn(T: int, M: int, K: int) -> ModelSpec:
    def branch() -> Sequential:
        return Sequential([
            Conv1d(8, 5, "same"), Act("relu"), Pool1d("max", 2),
            Conv1d(8, 5, "same"), Act("relu"), Pool1d("max", 2),
        ])

    net = Sequential([
        SplitDims([branch() for _ in range(M)]),
        Flatten(), Dense(732), Act("relu"), Dense(K), Act("softmax"),
    ])
    return ModelSpec("mcdcnn", T, M, K, "cross_entropy", net)


def build_timecnn(T: int, M: int, K: int) -> ModelSpec:
    net = Sequential([
        Conv1d(6, 7, "valid"), Act("sigmoid"), Pool1d("avg", 3),
        Conv1d(12, 7, "valid"), Act("sigmoid"), Pool1d("avg", 3),
        Flatten(), Dense(K), Act("sigmoid"),
    ])
    return ModelSpec("timecnn", T, M, K, "mse", net)


_BUILDERS = {
    "mlp": build_mlp,
    "fcn": build_fcn,
    "resnet": build_resnet,
    "encoder": build_encoder,
    "mcnn": build_mcnn,
    "tlenet": build_tlenet,
    "mcdcnn": build_mcdcnn,
    "timecnn": build_timecnn,
}
ARCHITECTURES = tuple(_BUILDERS)
SLICE_WARPS = {"mcnn": (1.0,), "tlenet": (1.0, 2.0, 0.5)}  # sliced nets: their pool's warps
LENGTH_FLOORS = {"fcn": 8, "resnet": 8}  # floors of nets whose kernels run any length; others 1


def build_model(architecture_id: str, T: int, M: int, K: int, **options) -> ModelSpec:
    """The built spec, laid out; a geometry it cannot take is a ``ShapeError``."""
    if architecture_id not in _BUILDERS:
        raise ValueError(f"unknown architecture {architecture_id!r}")
    if T < (floor := LENGTH_FLOORS.get(architecture_id, 1)) or M < 1 or K < 1:
        raise ShapeError(f"{architecture_id} cannot take length {T}, dims {M}, classes {K}: "
                         f"it needs length >= {floor}, dims >= 1 and classes >= 1")
    spec = _BUILDERS[architecture_id](T, M, K, **options)
    try:
        spec.layout
    except ValueError as exc:
        raise ShapeError(f"{architecture_id} cannot take input length {T}: {exc}") from None
    return spec


# ---------------------------------------------------------------------------
# forward / prediction

class _NoCaches(dict):
    """An infer forward's caches: none are kept, since no backward follows one."""

    def __setitem__(self, key, value):
        pass


def forward_batch(spec: ModelSpec, params: dict, x: np.ndarray, mode: str,
                  rng: SplitMix64 | None = None):
    if x.ndim != 3 or x.shape[1] != spec.input_length or x.shape[2] != spec.input_dims:
        raise ShapeError(
            f"batch {x.shape} does not match model geometry "
            f"(T={spec.input_length}, M={spec.input_dims})"
        )
    caches: dict = _NoCaches() if mode == "infer" else {}
    y = spec.net.forward(x, params, mode, rng, caches)
    return y, caches


def backward_batch(spec: ModelSpec, caches: dict, gy: np.ndarray, grads: dict):
    """``gx`` for ``gy``, each trained parameter's gradient written into its slot in
    ``grads`` (by key); pops each cache as it reads it, leaving ``caches`` empty."""
    return spec.net.backward(gy, caches, grads)


def gap_head(spec: ModelSpec) -> tuple[int, Dense]:
    """(GAP index, head dense node) for GAP-headed architectures."""
    net = spec.net
    if (
        not isinstance(net, Sequential)
        or len(net.children) < 3
        or not isinstance(net.children[-3], Gap)
        or not isinstance(net.children[-2], Dense)
    ):
        raise UnsupportedArchitectureError(
            f"architecture {spec.architecture_id!r} has no GAP layer before its classifier"
        )
    return len(net.children) - 3, net.children[-2]


def _slicing_fault(spec: ModelSpec) -> str:
    """Why ``spec.slicing`` contradicts the architecture, or ''."""
    if (spec.slicing is not None) == (spec.architecture_id in SLICE_WARPS):
        return ""
    if spec.slicing is None:
        return f"is missing; {spec.architecture_id} predicts by majority vote over slices"
    return f"does not apply to {spec.architecture_id}, which takes whole series"


def predict(model: TrainedModel, dataset: TimeSeriesDataset) -> np.ndarray:
    """Class indices for every series, by a vote over its slices.

    The window-sliced architectures must carry their slicing config (their
    training pool was sliced, so test series are sliced the same way);
    whole-series architectures must not, and vote with one slice, the series.
    Each forward takes :func:`infer_batch` slices.
    """
    spec = model.spec
    if fault := _slicing_fault(spec):
        raise ValueError(f"slicing {fault}")
    batch = infer_batch(spec)
    L, stride = (spec.input_length, spec.slicing.stride) if spec.slicing else (dataset.length, 1)
    # every slice of every series, parent-major, gathered a batch at a time
    view, starts = slice_view(dataset.X, L, stride)
    parents = np.repeat(np.arange(dataset.n), len(starts))
    slice_labels = np.empty(parents.size, dtype=np.int64)
    for lo in range(0, parents.size, batch):
        flat = np.arange(lo, min(lo + batch, parents.size))
        slices = view[parents[flat], starts[flat % len(starts)]]
        y, _ = forward_batch(spec, model.params, slices, "infer")
        slice_labels[lo : lo + batch] = y.argmax(axis=1)
    # per-series vote counts; argmax takes the lowest class among equals
    votes = np.bincount(parents * spec.classes + slice_labels,
                        minlength=dataset.n * spec.classes).reshape(dataset.n, spec.classes)
    return votes.argmax(axis=1)


def accuracy(model: TrainedModel, dataset: TimeSeriesDataset) -> float:
    truth = dataset.Y.argmax(axis=1)
    return float((predict(model, dataset) == truth).mean())


# ---------------------------------------------------------------------------
# serialization: the model fields of a bundle (see bundle.py)

def _layer_rows(desc, pad: str = "") -> list[str]:
    """The ``describe()`` tree as text rows, nested layers indented."""
    if isinstance(desc, str):
        return [pad + desc]
    if isinstance(desc, list):
        return [row for d in desc for row in _layer_rows(d, pad)]
    rows = []
    for key, val in desc.items():
        if val is None:
            rows.append(pad + f"{key}: identity")
        else:
            rows += [pad + f"{key}:", *_layer_rows(val, pad + "  ")]
    return rows


_SPEC_FIELDS = {"architecture_id": str, "input_length": int, "input_dims": int,
                "classes": int, "loss": str}
_RUN_FIELDS = {"seed": int, "epochs_run": int, "best_epoch": int}


def _read_option(text: str) -> tuple[str, int]:
    key, value = text.split("=")
    return key, int(value)


def _read_slicing(text: str) -> SlicingConfig:
    parts = dict(p.split("=", 1) for p in text.split())
    return SlicingConfig(float(parts["fraction"]), int(parts["stride"]),
                         tuple(float(v) for v in parts["warp"].split(",")))


def save_model(model: TrainedModel, manifest_path) -> None:
    spec = model.spec
    notes = [("option", f"{key}={spec.options[key]!r}") for key in sorted(spec.options)]
    if spec.slicing is not None:
        s = spec.slicing
        warps = ",".join(repr(f) for f in s.warp_factors)
        notes.append(("slicing", f"fraction={s.fraction!r} stride={s.stride} warp={warps}"))
    notes += [("layer", row) for row in _layer_rows(spec.net.describe())]
    fields = [(k, getattr(spec, k)) for k in _SPEC_FIELDS]
    write_bundle(manifest_path, MODEL_FORMAT,
                 fields + [(k, getattr(model, k)) for k in _RUN_FIELDS], model.params, notes)


def load_model(manifest_path) -> TrainedModel:
    """Rebuild the spec from the manifest; check its run fields (``best_epoch`` in
    0..``epochs_run``), ``loss``, ``layer``, ``param`` and ``slicing``.

    The ``layer`` rows must be the rebuilt spec's, in any order (a multiset).
    """
    bundle = Bundle(manifest_path, MODEL_FORMAT, {**_SPEC_FIELDS, **_RUN_FIELDS},
                    optional={"slicing": _read_slicing},
                    repeated={"option": _read_option, "layer": str}, indented={"layer"})
    f = bundle.fields
    ran, best = f["epochs_run"], f["best_epoch"]
    if ran < 0:
        raise bundle.error("epochs_run", f"reads {ran}; a run trains 0 or more epochs")
    if not 0 <= best <= ran:
        raise bundle.error("best_epoch", f"reads {best}; a run of {ran} epochs keeps 0..{ran}")
    spec = bundle.build(None, build_model, f["architecture_id"], f["input_length"],
                        f["input_dims"], f["classes"], **dict(f.get("option", [])))
    if f["loss"] != spec.loss:
        raise bundle.error("loss", f"reads {f['loss']!r}; {spec.architecture_id} uses {spec.loss!r}")
    rows, want = Counter(f.get("layer", [])), Counter(_layer_rows(spec.net.describe()))
    if rows != want:
        extra = rows - want
        row = next(iter(extra or want - rows))
        why = f"row {row!r} is not" if extra else f"lacks a row {row!r} that is"
        raise bundle.error("layer", f"{why} in the {spec.architecture_id} the manifest builds")
    spec.slicing = f.get("slicing")
    layout = [(name, shape) for name, shape, _ in spec.layout.params]
    params = bundle.tensors(layout)
    if fault := _slicing_fault(spec):
        raise bundle.error("slicing", fault)
    return TrainedModel(spec, params, **{k: f[k] for k in _RUN_FIELDS})
