"""Echo-state reservoir classifier with a per-timestep ridge readout.

A fixed sparse random recurrence projects every time step into the
reservoir space; a ridge regression trained on [1, input, state] rows
scores each step, and the softmaxed scores are averaged over the series
to produce its posterior.  The three reservoir hyperparameters plus the
ridge penalty are grid-searched on a stratified held-out split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import TimeSeriesDataset, split_train_val
from .bundle import Bundle, write_bundle
from .errors import NumericError
from .layers import softmax_forward
from .tensor import SplitMix64


@dataclass
class ReservoirConfig:
    size: int = 64
    sparsity: float = 0.8
    spectral_radius: float = 0.9
    input_scale: float = 1.0
    ridge_lambda: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.size < 2:
            raise ValueError(f"reservoir size must be >= 2, got {self.size}")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError(f"sparsity must be in [0, 1], got {self.sparsity}")
        if self.spectral_radius <= 0 or self.input_scale <= 0 or self.ridge_lambda <= 0:
            raise ValueError("spectral radius, input scale and ridge lambda must be positive")


@dataclass
class TwiesnModel:
    config: ReservoirConfig
    W_in: np.ndarray   # [N_r, M]
    W: np.ndarray      # [N_r, N_r]
    W_out: np.ndarray  # [K, 1 + M + N_r]
    # [N, K] averaged posterior of the series the readout was fitted on; a
    # fit sets it from the fit's own state pass, a loaded model has none
    fit_posterior: np.ndarray | None = field(default=None, repr=False, compare=False)


def default_grid(seed: int = 0) -> list[ReservoirConfig]:
    """Search grid spanning both sides of the echo-state boundary."""
    grid = []
    for size in (32, 64, 128, 256):
        for sparsity in (0.5, 0.8, 0.9):
            for rho in (0.25, 0.5, 0.9, 1.0):
                for lam in (0.01, 0.1, 1.0):
                    grid.append(ReservoirConfig(size, sparsity, rho, 1.0, lam, seed))
    return grid


def spectral_radius(W: np.ndarray) -> float:
    """Largest |eigenvalue| of W, from LAPACK's general eigensolver."""
    return float(np.abs(np.linalg.eigvals(W)).max())


def _draw_reservoir(config: ReservoirConfig, dims: int):
    """Unscaled draw (W_in, W, rho(W)); the radius and penalty play no part.

    An all-zero draw (possible at extreme sparsity) is retried on a fresh
    seed substream up to 5 times before raising.
    """
    base = SplitMix64(config.seed)
    n = config.size
    for _ in range(5):
        stream = base.split()
        W_in = stream.uniform(n * dims).reshape(n, dims)
        W_in *= 2.0
        W_in -= 1.0
        W_in *= config.input_scale
        keep = stream.uniform(n * n).reshape(n, n) >= config.sparsity
        values = stream.uniform(n * n).reshape(n, n)
        values *= 2.0
        values -= 1.0
        W = np.where(keep, values, 0.0)
        rho = spectral_radius(W)
        if rho > 1e-12:
            return W_in, W, rho
    raise NumericError(
        f"reservoir draw has zero spectral radius after 5 attempts "
        f"(size={n}, sparsity={config.sparsity})"
    )


def init_reservoir(config: ReservoirConfig, dims: int):
    """Draw (W_in, W); W is rescaled to the requested spectral radius."""
    W_in, W, rho = _draw_reservoir(config, dims)
    return W_in, W * (config.spectral_radius / rho)


def reservoir_states_batch(W_in: np.ndarray, W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """States I(t) = tanh(W_in X(t) + W I(t-1)) for a [N, T, M] batch; I(0) = 0."""
    n_series, T, _ = X.shape
    n_r = W.shape[0]
    states = np.empty((n_series, T, n_r))
    current = np.zeros((n_series, n_r))
    for t in range(T):
        current = np.tanh(X[:, t, :] @ W_in.T + current @ W.T)
        states[:, t, :] = current
    return states


def fit_ridge(features: np.ndarray, targets: np.ndarray, lam) -> np.ndarray:
    """Closed-form ridge readout: W_out^T = (A^T A + lam I)^-1 A^T Y.

    Solved with a Cholesky factorization of the regularized Gram matrix;
    the intercept column is regularized like every other feature.  ``lam``
    may be a 1-D sequence of penalties: A^T A and A^T Y are then formed
    once and the readouts come back stacked [L, K, F], each bit-identical
    to a call with that penalty alone.
    """
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError(f"features must be [n, F] with n >= 1, got {features.shape}")
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1 or lams.size < 1 or not np.all(lams > 0):
        raise ValueError(f"ridge lambda must be positive, got {lam}")
    F = features.shape[1]
    gram = features.T @ features
    rhs = features.T @ targets
    solved = []
    for penalty in lams.reshape(-1):
        chol = np.linalg.cholesky(gram + penalty * np.eye(F))
        half = np.linalg.solve(chol, rhs)
        solved.append(np.linalg.solve(chol.T, half))
    # transposed views, so every readout has the memory layout of a lone call
    return np.stack(solved).transpose(0, 2, 1) if lams.ndim else solved[0].T


def _rows(W_in: np.ndarray, W: np.ndarray, X: np.ndarray) -> np.ndarray:
    # one state pass, then one design row per (series, timestep): [1, X(t), I(t)]
    states = reservoir_states_batch(W_in, W, X)
    n_series, T, m = X.shape
    ones = np.ones((n_series, T, 1))
    return np.concatenate([ones, X, states], axis=2).reshape(n_series * T, 1 + m + states.shape[2])


def _fit_readouts(W_in: np.ndarray, W: np.ndarray, data: TimeSeriesDataset, lam):
    # one state pass and Gram matrix, solved for a penalty or a sequence of
    # them; the design rows come back too, for scoring the fit set
    rows = _rows(W_in, W, data.X)
    targets = np.repeat(data.Y, data.length, axis=0)
    return fit_ridge(rows, targets, lam), rows


def twiesn_train_single(config: ReservoirConfig, data: TimeSeriesDataset) -> TwiesnModel:
    """Fit the readout for one configuration on the full given data."""
    W_in, W = init_reservoir(config, data.dims)
    W_out, rows = _fit_readouts(W_in, W, data, config.ridge_lambda)
    return TwiesnModel(config, W_in, W, W_out, _row_posteriors(rows, W_out, data.n))


def _row_posteriors(rows: np.ndarray, W_out: np.ndarray, n_series: int) -> np.ndarray:
    # softmax of each design row's scores, averaged over each series' steps
    posterior, _ = softmax_forward(rows @ W_out.T, "infer")
    return posterior.reshape(n_series, -1, posterior.shape[1]).mean(axis=1)


def twiesn_posteriors(model: TwiesnModel, X: np.ndarray) -> np.ndarray:
    """Averaged per-step softmax posterior for a [N, T, M] batch."""
    return _row_posteriors(_rows(model.W_in, model.W, X), model.W_out, X.shape[0])


def twiesn_predict_dataset(model: TwiesnModel, dataset: TimeSeriesDataset) -> np.ndarray:
    return twiesn_posteriors(model, dataset.X).argmax(axis=1)


def twiesn_accuracy(model: TwiesnModel, dataset: TimeSeriesDataset) -> float:
    return float((twiesn_predict_dataset(model, dataset) == dataset.labels()).mean())


def _readout_accuracies(W_in: np.ndarray, W: np.ndarray, data: TimeSeriesDataset,
                        readouts) -> list[float]:
    # accuracy of each readout over one shared state pass
    rows = _rows(W_in, W, data.X)
    labels = data.labels()
    return [float((_row_posteriors(rows, W_out, data.n).argmax(axis=1) == labels).mean())
            for W_out in readouts]


def _grid_accuracies(grid: list[ReservoirConfig], fit_part: TimeSeriesDataset,
                     val_part: TimeSeriesDataset) -> list[float]:
    """Validation accuracy of each grid entry, doing shared work once.

    Entries that differ only in spectral radius and ridge penalty share one
    reservoir draw and its spectral radius; entries that differ only in the
    penalty also share the state passes, the design rows and the Gram
    matrix.  Each accuracy is bit-identical to fitting its entry alone with
    ``twiesn_train_single`` and scoring it with ``twiesn_accuracy``.
    """
    draws: dict[tuple, dict[float, list[int]]] = {}
    for i, c in enumerate(grid):
        key = (c.size, c.sparsity, c.input_scale, c.seed)
        draws.setdefault(key, {}).setdefault(c.spectral_radius, []).append(i)
    accuracies = [0.0] * len(grid)
    for by_radius in draws.values():
        first = grid[next(iter(by_radius.values()))[0]]
        W_in, W_raw, rho = _draw_reservoir(first, fit_part.dims)
        for radius, members in by_radius.items():
            W = W_raw * (radius / rho)
            readouts, _ = _fit_readouts(W_in, W, fit_part,
                                        [grid[i].ridge_lambda for i in members])
            for i, acc in zip(members, _readout_accuracies(W_in, W, val_part, readouts)):
                accuracies[i] = acc
    return accuracies


def twiesn_fit(data: TimeSeriesDataset, grid: list[ReservoirConfig]) -> TwiesnModel:
    """Grid-search on a stratified 20% held-out split, then refit on all data.

    Ties keep the first grid entry.  The split is drawn from the first entry's seed.
    """
    if not grid:
        raise ValueError("empty hyperparameter grid")
    fit_part, val_part = split_train_val(data, 0.2, grid[0].seed)
    if val_part.n == 0:
        raise ValueError("twiesn's 20% validation split is empty: "
                         "no class has two training series")
    accuracies = _grid_accuracies(grid, fit_part, val_part)
    best = max(range(len(grid)), key=accuracies.__getitem__)  # first of equals
    return twiesn_train_single(grid[best], data)


# ---------------------------------------------------------------------------
# serialization: the reservoir fields of a bundle (see bundle.py)

TWIESN_FORMAT = "tsclab-twiesn-v1"
_CONFIG_FIELDS = {"size": int, "sparsity": float, "spectral_radius": float,
                  "input_scale": float, "ridge_lambda": float, "seed": int}


def save_twiesn(model: TwiesnModel, manifest_path) -> None:
    fields = [("architecture_id", "twiesn")]
    fields += [(k, getattr(model.config, k)) for k in _CONFIG_FIELDS]
    write_bundle(manifest_path, TWIESN_FORMAT, fields,
                 {"W_in": model.W_in, "W": model.W, "W_out": model.W_out})


def load_twiesn(manifest_path) -> TwiesnModel:
    """Check the blob's layout against ``size`` and the written W_in/W_out dims."""
    bundle = Bundle(manifest_path, TWIESN_FORMAT, {"architecture_id": str, **_CONFIG_FIELDS})
    if (arch := bundle.fields["architecture_id"]) != "twiesn":
        raise bundle.error("architecture_id", f"reads {arch!r}; expected 'twiesn'")
    config = bundle.build(None, ReservoirConfig, **{k: bundle.fields[k] for k in _CONFIG_FIELDS})
    shapes = dict(bundle.params)
    n, m, k = config.size, (shapes.get("W_in") or (0,))[-1], (shapes.get("W_out") or (0,))[0]
    t = bundle.tensors([("W_in", (n, m)), ("W", (n, n)), ("W_out", (k, 1 + m + n))])
    return TwiesnModel(config, t["W_in"], t["W"], t["W_out"])
