"""Optimizers, learning-rate schedules, and the checkpointing training loop.

Per-architecture defaults mirror the published optimization table: the
algorithm, epoch count, batch size, initial learning rate, decay, and the
fraction of the training series the caller holds out for validation
(``cli.train_single_run`` makes that split).  ``train`` never splits: when
its data carries held-out series (``data.held_out``) the monitored loss is
their infer-mode loss (Keras' ``val_loss``), otherwise it is the epoch's
train-mode loss, the mean of the batch losses the optimizer steps on,
weighted by batch size (Keras' ``loss``).  The parameters of the epoch with
the lowest monitored loss are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundle import unpack
from .data import TimeSeriesDataset
from .errors import ShapeError, TrainingDivergenceError
from .layers import LOSSES
from .models import (ModelSpec, TrainedModel, backward_batch, check_geometry, forward_batch,
                     infer_batch, init_model)
from .tensor import SplitMix64


# Keras' ReduceLROnPlateau as the published nets use it
PLATEAU_FACTOR = 0.5
PLATEAU_PATIENCE = 50
PLATEAU_MIN_LR = 1e-4


@dataclass
class TrainConfig:
    optimizer: str = "adam"
    epochs: int = 100
    batch_size: int = 16
    learning_rate: float = 0.001
    decay: float = 0.0
    split_fraction: float = 0.0  # share of each class held out for validation
    plateau: bool = False  # halve the rate on a plateau of the monitored loss
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epoch count must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        if self.decay < 0:
            raise ValueError(f"decay must be non-negative, got {self.decay}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")


def default_config(architecture_id: str, seed: int = 0) -> TrainConfig:
    """Published optimization hyperparameters for the eight gradient-trained nets."""
    table = {
        "mlp": TrainConfig("adadelta", 5000, 16, 1.0, 0.0, 0.0, True, seed),
        "fcn": TrainConfig("adam", 2000, 16, 0.001, 0.0, 0.0, True, seed),
        "resnet": TrainConfig("adam", 1500, 16, 0.001, 0.0, 0.0, True, seed),
        "encoder": TrainConfig("adam", 100, 12, 1e-5, 0.0, 0.0, False, seed),
        "mcnn": TrainConfig("adam", 200, 256, 0.1, 0.0, 0.2, False, seed),
        "tlenet": TrainConfig("adam", 1000, 256, 0.01, 0.005, 0.0, False, seed),
        "mcdcnn": TrainConfig("sgd", 120, 16, 0.01, 0.0005, 0.33, False, seed),
        "timecnn": TrainConfig("adam", 2000, 16, 0.001, 0.0, 0.0, False, seed),
    }
    if architecture_id not in table:
        raise ValueError(f"no default optimization config for {architecture_id!r}")
    return table[architecture_id]


# ---------------------------------------------------------------------------
# optimizers

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADADELTA_RHO = 0.95
ADADELTA_EPS = 1e-8


# Updates walk the parameter vector this many float64 values (512 KiB) at a
# time, so a chunk's arrays stay in cache across the passes of its rule.
# Each pass hands the GIL to any other ``--jobs`` thread, so fewer, larger
# chunks let two runs step side by side (README "Numerics" has the sweep).
CHUNK = 65536


class Optimizer:
    """The chunked in-place walk over one parameter vector; rules fill in ``_rule``.

    ``_rule(lr, p, g, a, b, *moments)`` updates one chunk in place: ``p``
    and the moments are views into the parameter vector and its state, ``a``
    and ``b`` are scratch.  Each rule evaluates the textbook expression in
    the same order of operations, so it gives the bits of the out-of-place
    form.  A value whose gradient is always zero (a running statistic) stays
    exactly as it is: every rule then subtracts ``+0.0`` from it.
    """

    moments = 0  # flat state vectors, one value per parameter value

    def __init__(self):
        self.state: tuple = ()  # the moment vectors, made on the first step
        self._scratch = (np.empty(CHUNK), np.empty(CHUNK))

    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float) -> None:
        """Update the 1-D float64 ``theta`` in place along ``grad``, its gradient."""
        if grad.shape != theta.shape:
            raise ShapeError(f"gradient {grad.shape} does not match parameters {theta.shape}")
        if not self.state:
            self.state = tuple(np.zeros(theta.size) for _ in range(self.moments))
        self._begin_step()
        a, b = self._scratch
        for lo in range(0, theta.size, CHUNK):
            hi = min(lo + CHUNK, theta.size)
            self._rule(lr, theta[lo:hi], grad[lo:hi], a[: hi - lo], b[: hi - lo],
                       *(m[lo:hi] for m in self.state))

    def _begin_step(self) -> None:
        pass

    def _rule(self, lr, p, g, a, b, *moments):
        raise NotImplementedError


class Sgd(Optimizer):
    def _rule(self, lr, p, g, a, b):
        # p = p - lr * g
        np.multiply(g, lr, out=a)
        p -= a


class Adam(Optimizer):
    moments = 2  # m, v

    def __init__(self):
        super().__init__()
        self.t = 0

    def _begin_step(self):
        self.t += 1
        self.c1 = 1.0 - ADAM_BETA1 ** self.t
        self.c2 = 1.0 - ADAM_BETA2 ** self.t

    def _rule(self, lr, p, g, a, b, m, v):
        # m = BETA1 * m + (1 - BETA1) * g
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        m += a
        # v = BETA2 * v + (1 - BETA2) * (g * g)
        np.multiply(g, g, out=a)
        a *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += a
        # p = p - lr * (m / c1) / (sqrt(v / c2) + EPS)
        np.divide(m, self.c1, out=a)
        a *= lr
        np.divide(v, self.c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        p -= a


class AdaDelta(Optimizer):
    moments = 2  # running E[g^2], E[dx^2]

    def _rule(self, lr, p, g, a, b, eg2, edx2):
        # eg2 = RHO * eg2 + (1 - RHO) * (g * g)
        np.multiply(g, g, out=a)
        a *= 1.0 - ADADELTA_RHO
        eg2 *= ADADELTA_RHO
        eg2 += a
        # dx = -sqrt(edx2 + EPS) / sqrt(eg2 + EPS) * g, held as -dx: negation is exact
        np.add(edx2, ADADELTA_EPS, out=a)
        np.sqrt(a, out=a)
        np.add(eg2, ADADELTA_EPS, out=b)
        np.sqrt(b, out=b)
        a /= b
        a *= g
        # edx2 = RHO * edx2 + (1 - RHO) * (dx * dx)
        np.multiply(a, a, out=b)
        b *= 1.0 - ADADELTA_RHO
        edx2 *= ADADELTA_RHO
        edx2 += b
        # p = p + lr * dx, which IEEE 754 defines as p - lr * (-dx)
        a *= lr
        p -= a


_OPTIMIZERS = {"sgd": Sgd, "adam": Adam, "adadelta": AdaDelta}


def make_optimizer(kind: str) -> Optimizer:
    if kind not in _OPTIMIZERS:
        raise ValueError(f"unknown optimizer {kind!r}")
    return _OPTIMIZERS[kind]()


# ---------------------------------------------------------------------------
# learning-rate schedule

class LrSchedule:
    """Time decay lr0/(1 + decay*updates), composed with plateau halving.

    With ``plateau``, the base rate is multiplied by ``PLATEAU_FACTOR``
    whenever the monitored loss has not improved for ``PLATEAU_PATIENCE``
    consecutive epochs, never dropping below ``PLATEAU_MIN_LR``.
    """

    def __init__(self, base_lr: float, decay: float = 0.0, plateau: bool = False):
        self.base_lr = base_lr
        self.decay = decay
        self.plateau = plateau
        self.plateau_lr = base_lr
        self.updates = 0
        self.best = math.inf
        self.wait = 0

    def current(self) -> float:
        return self.plateau_lr / (1.0 + self.decay * self.updates)

    def after_step(self) -> None:
        self.updates += 1

    def after_epoch(self, monitored_loss: float) -> None:
        if not self.plateau:
            return
        if monitored_loss < self.best:
            self.best = monitored_loss
            self.wait = 0
            return
        self.wait += 1
        if self.wait >= PLATEAU_PATIENCE:
            self.plateau_lr = max(PLATEAU_MIN_LR, self.plateau_lr * PLATEAU_FACTOR)
            self.wait = 0


# ---------------------------------------------------------------------------
# training loop

def evaluate_loss(spec: ModelSpec, params: dict, dataset: TimeSeriesDataset) -> float:
    """Mean ``spec.loss`` over a dataset in infer mode, ``infer_batch`` series a forward."""
    loss_fn = LOSSES[spec.loss]
    total = 0.0
    batch = infer_batch(spec)
    for lo in range(0, dataset.n, batch):
        x = dataset.X[lo : lo + batch]
        y = dataset.Y[lo : lo + batch]
        pred, _ = forward_batch(spec, params, x, "infer")
        loss, _ = loss_fn(pred, y)
        total += loss * x.shape[0]
    return float(total / dataset.n)


def train(spec: ModelSpec, data: TimeSeriesDataset, config: TrainConfig,
          log_fn=None):
    """Train ``spec`` on ``data``; returns the lowest-monitored-loss checkpoint
    and the monitored loss of every epoch.

    The monitored loss of an epoch is the infer-mode loss on the caller's
    held-out series ``data.held_out`` when there are any, and otherwise the
    mean train-mode loss of the epoch's batches weighted by batch size.  It
    drives the checkpoint, the plateau schedule and the non-finite guard.
    Fully deterministic for a fixed config seed: Glorot initialization,
    epoch shuffles, and dropout masks all consume one SplitMix64 stream.
    ``log_fn``, when given, receives one ``"epoch,loss,lr"`` line per epoch.
    """
    check_geometry(spec, data)
    if data.held_out is not None and data.held_out.n == 0:
        raise ValueError("the held-out validation set is empty: "
                         "no class has two training series")

    rng = SplitMix64(config.seed)
    # the parameters and their gradient, one vector each in blob order, and named views
    layout = [(name, shape) for name, shape, _ in spec.layout.params]
    theta = np.concatenate([v.reshape(-1) for v in init_model(spec, rng).values()])
    grad, best = np.zeros_like(theta), np.empty_like(theta)
    params, grads = unpack(theta, layout), unpack(grad, layout)

    loss_fn = LOSSES[spec.loss]
    optimizer = make_optimizer(config.optimizer)
    sched = LrSchedule(config.learning_rate, config.decay, config.plateau)
    losses = []  # monitored loss per epoch
    best_loss = math.inf  # the first epoch's finite loss always fills ``best``
    best_epoch = 0

    order = list(range(data.n))
    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        total = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            x = data.X[batch]
            y = data.Y[batch]
            pred, caches = forward_batch(spec, params, x, "train", rng)
            loss, gpred = loss_fn(pred, y)
            total += loss * len(batch)
            backward_batch(spec, caches, gpred, grads)
            if not np.isfinite(grad).all():
                name = next(k for k, g in grads.items() if not np.isfinite(g).all())
                raise TrainingDivergenceError(f"non-finite gradient in layer parameter {name!r}")
            optimizer.step(theta, grad, sched.current())
            sched.after_step()

        if data.held_out is not None:
            ref_loss = evaluate_loss(spec, params, data.held_out)
        else:
            ref_loss = total / data.n
        if not math.isfinite(ref_loss):
            raise TrainingDivergenceError(f"reference loss became {ref_loss!r} at epoch {epoch}")
        losses.append(ref_loss)
        if log_fn is not None:
            log_fn(f"{epoch},{ref_loss!r},{sched.current()!r}")
        if ref_loss < best_loss:
            best_loss = ref_loss
            best_epoch = epoch
            np.copyto(best, theta)
        sched.after_epoch(ref_loss)

    model = TrainedModel(spec, unpack(best, layout), seed=config.seed,
                         epochs_run=config.epochs, best_epoch=best_epoch)
    return model, losses
