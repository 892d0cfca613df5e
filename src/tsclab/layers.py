"""Forward/backward kernels for every layer the nine classifiers need.

Every kernel is a pure function: ``*_forward`` returns the output plus a
cache, ``*_backward`` maps the upstream gradient and that cache to exact
gradients of the forward map, each parameter gradient written into its
optional ``out=`` array when given.  Activations live in time-major batches
shaped ``[batch, time, channels]``; dense layers see ``[batch, features]``.

Gradients are hand-derived per layer; there is no autodiff graph.

The kernels whose work differs by pass take ``mode``: batch norm, dropout,
the activations (ReLU, sigmoid, softmax) and pooling.  In ``"infer"`` mode
they return a ``None`` cache and build nothing that only a backward reads
(no ReLU mask, no max-pool index), with the same output bits as ``"train"``.

Max pooling, the sigmoid and PReLU choose one of two values per element by
ufunc arithmetic (``np.maximum``, or integer arithmetic on the float64 bits
in ``_select``), not by a per-value branch, with the bits of the branching
forms (``argmax``, ``np.where``).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DegenerateVarianceError, ShapeError
from .tensor import SplitMix64

EPS_NORM = 1e-5
EPS_LOG = 1e-12
BN_MOMENTUM = 0.9
CONV_CHUNK = 1 << 22  # window values copied per conv GEMM: bounds the im2col copy


# ---------------------------------------------------------------------------
# convolution

def _conv_padding(length: int, padding: str, T: int) -> tuple[int, int]:
    if padding == "same":
        return (length - 1) // 2, length // 2
    if padding == "valid":
        if length > T:
            raise ValueError(
                f"valid convolution needs filter length {length} <= series length {T}"
            )
        return 0, 0
    raise ValueError(f"unknown padding {padding!r}")


def pad_time(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """Zero-pad the time axis of ``x`` [batch, T, C]; ``np.pad``'s values, without its overhead."""
    batch, T, C = x.shape
    xp = np.zeros((batch, before + T + after, C), x.dtype)
    xp[:, before : before + T] = x
    return xp


def _windows(xp: np.ndarray, length: int) -> np.ndarray:
    # read-only sliding view [batch, t_out, length, C], as ``data.slice_view``
    (batch, T, C), (s_batch, s_time, s_chan) = xp.shape, xp.strides
    return as_strided(xp, (batch, T - length + 1, length, C),
                      (s_batch, s_time, s_time, s_chan), writeable=False)


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, padding: str = "same"):
    """Stride-1 cross-correlation of [batch,T,C_in] with filters [C_out,l,C_in]."""
    if x.ndim != 3 or w.ndim != 3 or x.shape[2] != w.shape[2]:
        raise ShapeError(f"conv1d: input {x.shape} does not conform with filters {w.shape}")
    batch, T, _ = x.shape
    c_out, length, _ = w.shape
    pl, pr = _conv_padding(length, padding, T)
    xp = pad_time(x, pl, pr) if (pl or pr) else x
    win = _windows(xp, length)
    t_out = win.shape[1]
    # tensordot's GEMM in near-equal batch chunks of at most CONV_CHUNK copied
    # window values (a small ragged last chunk could round differently)
    wt = w.transpose(1, 2, 0).reshape(-1, c_out)
    y = np.empty((batch, t_out, c_out), np.result_type(xp, w))
    n = -(-batch // max(1, CONV_CHUNK // (t_out * len(wt))))
    for lo, hi in ((-(-batch * i // n), -(-batch * (i + 1) // n)) for i in range(n)):
        np.dot(win[lo:hi].reshape(-1, len(wt)), wt, out=y[lo:hi].reshape(-1, c_out))
    np.add(y, b, out=y)
    cache = (xp, length, pl, T, x.shape, w)
    return y, cache


def conv1d_backward(gy: np.ndarray, cache, gw=None, gb=None):
    xp, length, pl, T, x_shape, w = cache
    t_out = gy.shape[1]
    win = _windows(xp, length)
    # tensordot's one GEMM over (batch, time) to [C_out, l, C_in], written into ``gw``
    out = None if gw is None else gw.reshape(len(w), -1)
    gw = np.dot(gy.reshape(-1, len(w)).T, win.reshape(-1, w[0].size), out=out).reshape(w.shape)
    gb = np.sum(gy, axis=(0, 1), out=gb)
    # scatter g*w back over the padded input
    gcols = np.tensordot(gy, w, axes=([2], [0]))  # [batch, t_out, l, C_in]
    gxp = np.zeros_like(xp)
    for j in range(length):
        gxp[:, j : j + t_out, :] += gcols[:, :, j, :]
    gx = gxp[:, pl : pl + T, :] if gxp.shape[1] != T else gxp
    return gx.reshape(x_shape), gw, gb


# ---------------------------------------------------------------------------
# dense

def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense: input {x.shape} does not conform with weights {w.shape}")
    return x @ w + b, (x, w)


def dense_backward(gy: np.ndarray, cache, gw=None, gb=None):
    x, w = cache
    return gy @ w.T, np.matmul(x.T, gy, out=gw), np.sum(gy, axis=0, out=gb)


# ---------------------------------------------------------------------------
# normalization

def _normalize(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, axes: tuple):
    """Normalize ``x`` over ``axes``, then scale and shift; the statistics keep their axes."""
    n = math.prod(x.shape[a] for a in axes)  # not x.size // mean.size: the batch may be empty
    mean = x.mean(axis=axes, keepdims=True)
    xhat = x - mean
    var = np.square(xhat).sum(axis=axes, keepdims=True) / n  # ``x.var``'s bits, one ``x - mean``
    inv = 1.0 / np.sqrt(var + EPS_NORM)
    xhat *= inv
    y = xhat * gamma
    y += beta
    return y, (inv, xhat, gamma, axes, n), mean, var


def _normalize_grad(gy: np.ndarray, cache, ggamma=None, gbeta=None):
    """``(gx, dgamma, dbeta)`` of :func:`_normalize`, through its statistics."""
    inv, xhat, gamma, axes, n = cache
    gxhat = gy * gamma
    gx = (inv / n) * (
        n * gxhat
        - gxhat.sum(axis=axes, keepdims=True)
        - xhat * (gxhat * xhat).sum(axis=axes, keepdims=True)
    )
    return gx, np.sum(gy * xhat, axis=(0, 1), out=ggamma), np.sum(gy, axis=(0, 1), out=gbeta)


def batch_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                       running_mean: np.ndarray, running_var: np.ndarray, mode: str):
    """Per-channel normalization over (batch, time).

    Train mode returns updated running statistics; infer mode normalizes in
    place with them, leaves them untouched and returns no cache.
    """
    if mode == "infer":
        y = x - running_mean
        y *= 1.0 / np.sqrt(running_var + EPS_NORM)
        y *= gamma
        y += beta
        return y, None, running_mean, running_var
    if x.shape[0] * x.shape[1] < 2:
        raise DegenerateVarianceError(
            "batch norm needs at least 2 values per channel in train mode"
        )
    y, cache, mean, var = _normalize(x, gamma, beta, (0, 1))
    new_mean = BN_MOMENTUM * running_mean + (1.0 - BN_MOMENTUM) * mean.ravel()
    new_var = BN_MOMENTUM * running_var + (1.0 - BN_MOMENTUM) * var.ravel()
    return y, cache, new_mean, new_var


def batch_norm_backward(gy: np.ndarray, cache, ggamma=None, gbeta=None):
    return _normalize_grad(gy, cache, ggamma, gbeta)


def instance_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Normalize each (instance, channel) slice over time; affine per channel."""
    if x.shape[1] < 2:
        raise DegenerateVarianceError("instance norm needs series length >= 2")
    y, cache, _, _ = _normalize(x, gamma, beta, (1,))
    return y, cache


def instance_norm_backward(gy: np.ndarray, cache, ggamma=None, gbeta=None):
    return _normalize_grad(gy, cache, ggamma, gbeta)


# ---------------------------------------------------------------------------
# activations

def relu_forward(x, mode: str):
    return np.maximum(x, 0.0), None if mode == "infer" else x > 0.0


def relu_backward(gy, cache):
    return gy * cache


def sigmoid_forward(x, mode: str):
    # e = exp(-|x|) cannot overflow: 1 / (1 + e) for x >= 0, e / (1 + e) below,
    # the same IEEE operations as the two branches written out; the numerator is
    # max(e, x >= 0): 1 where x >= 0 (there e <= 1), else e, a NaN e as it is
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    y = np.maximum(e, x >= 0)
    e += 1.0
    y /= e
    return y, None if mode == "infer" else y


def sigmoid_backward(gy, cache):
    return gy * cache * (1.0 - cache)


def softmax_forward(x, mode: str, axis: int = -1):
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    return y, None if mode == "infer" else (y, axis)


def softmax_backward(gy, cache):
    y, axis = cache
    return y * (gy - (gy * y).sum(axis=axis, keepdims=True))


def _select(cond, a, b):
    """``np.where(cond, a, b)``'s bits for float64 ``a`` and ``b``, with no per-value
    branch: ``b ^ ((a ^ b) * cond)`` on their int64 bits, in one output array."""
    b = np.asarray(b).view(np.int64)
    out = (np.asarray(a).view(np.int64) ^ b) * cond
    out ^= b
    return out.view(np.float64)


def prelu_forward(x, slopes):
    """PReLU with one learned slope per channel (last axis)."""
    pos = x > 0.0
    y = _select(pos, x, slopes * x)
    return y, (x, slopes, pos)


def prelu_backward(gy, cache, gslopes=None):
    x, slopes, pos = cache
    gx = gy * _select(pos, 1.0, slopes)
    axes = tuple(range(x.ndim - 1))
    return gx, np.sum(gy * _select(pos, 0.0, x), axis=axes, out=gslopes)


# ---------------------------------------------------------------------------
# dropout

def dropout_forward(x, rate: float, mode: str, rng: SplitMix64 | None):
    """Inverted dropout: survivors are scaled by 1/(1-rate) at train time."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if mode == "infer" or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    mask = rng.uniform(x.size).reshape(x.shape)
    np.greater_equal(mask, rate, out=mask)
    mask /= 1.0 - rate
    return x * mask, mask


def dropout_backward(gy, cache):
    return gy if cache is None else gy * cache


# ---------------------------------------------------------------------------
# pooling

def pool1d_forward(x, window: int, kind: str, mode: str):
    """Non-overlapping pooling (stride = window); trailing remainder dropped.

    Infer mode keeps no max index and returns no cache."""
    batch, T, C = x.shape
    if window < 1 or window > T:
        raise ValueError(f"pool window {window} invalid for series length {T}")
    t_out = T // window
    blocks = x[:, : t_out * window, :].reshape(batch, t_out, window, C)
    if kind == "max":
        # running max, argmax's bits: np.maximum returns a NaN operand (the first of
        # two), so max(y, max(b, y)) keeps y on a NaN y and on a tie, ±0 under either
        # tie rule; the index moves where y's bits change, as argmax's does
        y = blocks[:, :, 0].copy()
        idx = None if mode == "infer" else np.zeros((batch, t_out, C), np.intp)
        for j in range(1, window):
            new = np.maximum(blocks[:, :, j], y)
            np.maximum(y, new, out=new)
            if idx is not None:
                np.maximum(idx, (new.view(np.int64) != y.view(np.int64)) * j, out=idx)
            y = new
    elif kind == "avg":
        # ``blocks.mean(axis=2)``'s bits below window 8, where numpy's pairwise sum
        # starts regrouping: from 0.0 (so -0.0 sums to +0.0), in window order, / window
        y = blocks[:, :, 0] + 0.0
        for j in range(1, window):
            y += blocks[:, :, j]
        y /= window
        idx = None
    else:
        raise ValueError(f"unknown pooling kind {kind!r}")
    return y, None if mode == "infer" else (kind, idx, x.shape, window)


def pool1d_backward(gy, cache):
    kind, idx, x_shape, window = cache
    batch, T, C = x_shape
    t_out = gy.shape[1]
    gx = np.zeros(x_shape)
    gblocks = gx[:, : t_out * window].reshape(batch, t_out, window, C)  # a view of gx
    if kind == "max" and window > 1:
        np.put_along_axis(gblocks, idx[:, :, None, :], gy[:, :, None, :], axis=2)
    else:  # the mean's gradient, at window 1 the max's too: gy / 1 is gy, bit for bit
        gblocks[:] = (gy / window)[:, :, None, :]
    return gx


def gap_forward(x):
    """Global average pooling over time: [batch,T,C] -> [batch,C]."""
    return x.mean(axis=1), (x.shape[1],)


def gap_backward(gy, cache):
    (T,) = cache
    return np.repeat(gy[:, None, :] / T, T, axis=1)


# ---------------------------------------------------------------------------
# attention

def attention_forward(x):
    """Channel-split attention: softmax half weights the value half over time.

    [batch,T,2H] -> [batch,H]; the first H channels are softmaxed over the
    time axis per channel and used as weights for the last H channels.
    """
    C = x.shape[2]
    if C % 2 != 0:
        raise ValueError(f"attention needs an even channel count, got {C}")
    H = C // 2
    a, v = x[:, :, :H], x[:, :, H:]
    s, _ = softmax_forward(a, "infer", axis=1)
    y = (s * v).sum(axis=1)
    return y, (s, v, y, H)


def attention_backward(gy, cache):
    s, v, y, H = cache
    g = gy[:, None, :]  # [batch,1,H]
    gv = s * g
    ga = s * g * (v - y[:, None, :])
    return np.concatenate([ga, gv], axis=2)


# ---------------------------------------------------------------------------
# fixed input transforms (MCNN branches)

def downsample_forward(x, factor: int):
    """Keep every ``factor``-th time step starting at 0."""
    if factor < 1:
        raise ValueError(f"downsample factor must be >= 1, got {factor}")
    return x[:, ::factor, :].copy(), (x.shape, factor)


def downsample_backward(gy, cache):
    x_shape, factor = cache
    gx = np.zeros(x_shape)
    gx[:, ::factor, :] = gy
    return gx


def moving_average_forward(x, window: int):
    """Valid moving average of the time axis; output length T - window + 1."""
    T = x.shape[1]
    if window < 1 or window > T:
        raise ValueError(f"moving average window {window} invalid for series length {T}")
    c = np.cumsum(pad_time(x, 1, 0), axis=1)
    y = (c[:, window:, :] - c[:, :-window, :]) / window
    return y, (x.shape, window)


def moving_average_backward(gy, cache):
    x_shape, window = cache
    gx = np.zeros(x_shape)
    t_out = gy.shape[1]
    for j in range(window):
        gx[:, j : j + t_out, :] += gy / window
    return gx


def residual_add(x, y):
    if x.shape != y.shape:
        raise ShapeError(f"residual add: shapes {x.shape} and {y.shape} do not match")
    return x + y


# ---------------------------------------------------------------------------
# losses

def _check_loss_operands(pred: np.ndarray, target: np.ndarray) -> None:
    if target.ndim != 2:
        raise ValueError(f"targets must be [batch, classes], got shape {target.shape}")
    ok = np.all((target == 0.0) | (target == 1.0)) and np.all(target.sum(axis=1) == 1.0)
    if not ok:
        raise ValueError("targets must be one-hot rows")
    if pred.shape != target.shape:
        raise ShapeError(f"loss: shapes {pred.shape} and {target.shape} do not match")


def cross_entropy_loss(pred: np.ndarray, target: np.ndarray):
    """Mean categorical cross entropy; predictions clipped to [1e-12, 1]."""
    _check_loss_operands(pred, target)
    n = pred.shape[0]
    p = np.clip(pred, EPS_LOG, 1.0)
    loss = float(-(target * np.log(p)).sum() / n)
    inside = (pred >= EPS_LOG) & (pred <= 1.0)
    grad = -(target / p) * inside / n
    return loss, grad


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error averaged over the batch (summed over classes)."""
    _check_loss_operands(pred, target)
    n = pred.shape[0]
    diff = pred - target
    return float((diff * diff).sum() / n), 2.0 * diff / n


LOSSES = {"cross_entropy": cross_entropy_loss, "mse": mse_loss}
