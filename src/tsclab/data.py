"""Dataset ingestion, preprocessing, and the slicing/warping augmentations.

Two on-disk formats are understood:

* UCR text: one series per line, ``<label><delim><v1><delim>...<vT>``,
  the delimiter picked per line: tab, else comma, else whitespace.
* Long-format CSV for multivariate data with header
  ``series_id,dimension,timestamp,value,label``; rows may arrive in any
  order but every (series, dimension) must cover timestamps 0..T_i-1.

Values are parsed with locale-independent decimal points.  No
z-normalization is applied anywhere: UCR series come normalized, and
multivariate series are used as-is.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataFormatError, IntegrityError, VocabularyError
from .tensor import SplitMix64

MTS_HEADER = "series_id,dimension,timestamp,value,label"


@dataclass
class DatasetMeta:
    name: str = "dataset"
    length_range: tuple[int, int] | None = None


@dataclass
class TimeSeriesDataset:
    X: np.ndarray  # [N, T, M]
    Y: np.ndarray  # [N, K] one-hot
    vocabulary: tuple  # original labels, sorted ascending; index = class id
    meta: DatasetMeta = field(default_factory=DatasetMeta)
    held_out: TimeSeriesDataset | None = None  # validation series ``optim.train`` checkpoints on

    def __post_init__(self):
        if self.X.ndim != 3 or self.Y.ndim != 2 or self.X.shape[0] != self.Y.shape[0]:
            raise ValueError(
                f"inconsistent dataset arrays X{self.X.shape} Y{self.Y.shape}"
            )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def length(self) -> int:
        return self.X.shape[1]

    @property
    def dims(self) -> int:
        return self.X.shape[2]

    @property
    def n_classes(self) -> int:
        return self.Y.shape[1]

    def labels(self) -> np.ndarray:
        return self.Y.argmax(axis=1)

    def take(self, indices) -> "TimeSeriesDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return TimeSeriesDataset(self.X[idx], self.Y[idx], self.vocabulary, self.meta)


def one_hot(labels, vocabulary) -> np.ndarray:
    """[N, K] rows with a single 1 at each label's sorted-vocabulary index."""
    index = {label: i for i, label in enumerate(vocabulary)}
    out = np.zeros((len(labels), len(vocabulary)))
    for row, label in enumerate(labels):
        if label not in index:
            raise VocabularyError(f"label {label!r} not in vocabulary {list(vocabulary)!r}")
        out[row, index[label]] = 1.0
    return out


def _decode(data: bytes, path) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(
            f"{Path(path).name}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8"
        ) from None


def read_text(path) -> str:
    """A file's text; a byte that is not UTF-8 raises DataFormatError naming the line."""
    return _decode(Path(path).read_bytes(), path)


def _parse_label(token: str):
    try:
        return float(token)
    except ValueError:
        return token


def _read_ucr(path):
    """One UCR text file as ([T, 1] arrays, labels, line numbers, dimension ids), in order."""
    path = Path(path)
    text = read_text(path)
    rows, linenos = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        delim = "\t" if "\t" in line else "," if "," in line else None
        parts = line.rstrip(delim).split(delim)  # a line may end in its delimiter
        if "" in parts:
            raise DataFormatError(f"{path.name}:{lineno}: field {parts.index('') + 1} is empty")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise DataFormatError(f"{path.name}:{lineno}: {exc}") from None
        if len(values) < 2:
            raise DataFormatError(f"{path.name}:{lineno}: need a label and at least one value")
        if rows and len(values) != len(rows[0]):
            raise DataFormatError(
                f"{path.name}:{lineno}: ragged row ({len(values)} fields, expected {len(rows[0])})"
            )
        rows.append(values)
        linenos.append(lineno)
    if not rows:
        raise DataFormatError(f"{path.name}: empty file")
    table = np.array(rows)
    if not (finite := np.isfinite(table)).all():
        r, c = np.argwhere(~finite)[0]
        raise DataFormatError(f"{path.name}:{linenos[r]}: field {c + 1} is {table[r, c]}, "
                              "not a finite number")
    return ([row[1:, None] for row in table], [r[0] for r in rows],
            [f"line {no}" for no in linenos], [0])


def dataset_name_from_path(path) -> str:
    stem = Path(path).stem
    for suffix in ("_TRAIN", "_TEST", "_train", "_test"):
        if stem.endswith(suffix):
            return stem[: -len(suffix)]
    return stem


# ---------------------------------------------------------------------------
# long-format multivariate files

def _read_long(path):
    """One long-format file as ([T_i, M] arrays, labels, series ids, dimension ids),
    the series in order of first appearance and the dimensions ascending.

    The file is read once and checked column by column.  The rows are split
    into tokens in one pass, with a lone ``"\\n"`` token between rows
    (``_split_rows``): n rows of 5 fields each give 6n - 1 tokens with every
    sixth a ``"\\n"``, and no other n rows do.  The rows are the non-blank
    lines after the header, by ``str.splitlines``; a file whose rows fail
    the split is refused.  ``dimension`` and ``timestamp`` are
    parsed with ``int``, and series ids and labels numbered, once per
    distinct token (``_codes``); ``value`` is parsed with ``float`` per row.
    The integrity checks run on a sort by (series, dimension, timestamp).
    When a file has several faults, the first reported is the first that
    applies of:

    1. the file is not UTF-8 (the line of the first bad byte), the header
       is wrong, or the file has no data rows;
    2. the first line, in file order, without 5 fields or with a
       ``dimension``, ``timestamp`` or ``value`` that does not parse (or an
       integer beyond 64 bits), then the first line whose value is ``nan``
       or infinite, then the first line whose label is a number where the
       first row's is text, or text where it is a number;
    3. the first line whose label conflicts with its series' first label,
       or that repeats an earlier (series, dimension, timestamp);
    4. the first series, in order of appearance, missing a dimension,
       whose timestamps are not contiguous from 0 (dimensions in ascending
       order), or whose dimensions disagree on length.
    """
    path = Path(path)
    text = read_text(path)
    tokens, n = _split_rows(path, text)
    try:
        dims, times = _codes(tokens[1::6], int), _codes(tokens[2::6], int)
        values = np.fromiter(map(float, tokens[3::6]), np.float64, n)
    except (ValueError, OverflowError):
        raise _bad_row(path, text) from None
    if not (finite := np.isfinite(values)).all():
        r = int(np.argmin(finite))
        raise DataFormatError(f"{path.name}:{_lineno(text, r)}: value {values[r]} "
                              "is not a finite number")

    numbers: dict[str, int] = {}
    series = _codes(tokens[0::6], lambda raw: numbers.setdefault(raw.strip(), len(numbers)))
    names = list(numbers)
    label_col, parsed, label_ids = tokens[4::6], {}, {}

    def label_id(raw: str) -> int:
        parsed[raw] = label = _parse_label(raw.strip())
        return label_ids.setdefault(label, len(label_ids))

    label = _codes(label_col, label_id)
    first_kind = type(next(iter(parsed.values())))
    odd = next((raw for raw, lab in parsed.items() if type(lab) is not first_kind), None)
    if odd is not None:
        number, word = (odd, label_col[0]) if first_kind is str else (label_col[0], odd)
        raise DataFormatError(f"{path.name}:{_lineno(text, label_col.index(odd))}: labels mix "
                              f"numbers and text ({number.strip()!r} and {word.strip()!r})")

    order = np.lexsort((times, dims, series))
    s, d, t = series[order], dims[order], times[order]
    series_start = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    first_row = np.minimum.reduceat(order, series_start)
    conflict = label != label[first_row][series]
    duplicate = np.zeros(n, dtype=bool)
    duplicate[order[1:][(s[1:] == s[:-1]) & (d[1:] == d[:-1]) & (t[1:] == t[:-1])]] = True
    if (conflict | duplicate).any():
        r = int(np.argmax(conflict | duplicate))
        lineno = _lineno(text, r)
        sid = names[series[r]]
        if conflict[r]:
            raise IntegrityError(
                f"{path.name}:{lineno}: series {sid!r} has conflicting labels "
                f"{parsed[label_col[first_row[series[r]]]]!r} and {parsed[label_col[r]]!r}"
            )
        raise IntegrityError(f"{path.name}:{lineno}: duplicate entry for series {sid!r} "
                             f"dim {dims[r]} t {times[r]}")

    # (series, dimension) runs of the sorted rows; each must read t = 0, 1, ...
    group = np.flatnonzero(np.r_[True, (s[1:] != s[:-1]) | (d[1:] != d[:-1])])
    length = np.diff(np.r_[group, n])
    contiguous = np.logical_and.reduceat(t == np.arange(n) - np.repeat(group, length), group)
    all_dims = np.unique(d)
    series_group = np.searchsorted(group, series_start)
    bounds = np.r_[series_group, len(group)]
    sound = ((np.diff(bounds) == len(all_dims))
             & np.logical_and.reduceat(contiguous, series_group)
             & (np.minimum.reduceat(length, series_group)
                == np.maximum.reduceat(length, series_group)))
    if not sound.all():
        k = int(np.argmin(sound))
        own = slice(bounds[k], bounds[k + 1])
        raise _series_fault(f"{path.name}: series {names[k]!r}",
                            dict(zip(d[group[own]].tolist(), contiguous[own].tolist())),
                            all_dims.tolist())

    raws = [block.reshape(len(all_dims), -1).T
            for block in np.split(values[order], series_start[1:])]
    return raws, [parsed[label_col[r]] for r in first_row], names, all_dims.tolist()


def _split_rows(path, text: str) -> tuple[list, int]:
    """The fields of the n data rows of a long-format ``text``, with a lone "\\n"
    token between rows, and n.  Since no row of ``str.splitlines`` holds a "\\n",
    n rows of 5 fields give 6n - 1 tokens with every sixth a "\\n", and no other
    n rows do.  The rows' own strings are freed on return."""
    lines = text.splitlines()
    if (lines[0].strip() if lines else "") != MTS_HEADER:
        raise DataFormatError(f"{path.name}: expected header {MTS_HEADER!r}")
    if not (rows := list(filter(str.strip, lines[1:]))):
        raise DataFormatError(f"{path.name}: no data rows")
    tokens = ",\n,".join(rows).split(",")
    if len(tokens) != 6 * len(rows) - 1 or tokens[5::6].count("\n") != len(rows) - 1:
        raise _bad_row(path, text)
    return tokens, len(rows)


def _codes(column: list, f) -> np.ndarray:
    """``f`` of each token of ``column``, as int64, in one pass that runs ``f``
    once per distinct token, in order of first appearance."""
    class FirstUse(dict):  # stores f(key) at a key's first lookup
        def __missing__(self, key):
            self[key] = value = f(key)
            return value

    return np.fromiter(map(FirstUse().__getitem__, column), np.int64, len(column))


def _lineno(text: str, r: int) -> int:
    """The file line number of data row ``r`` (blank lines are not rows)."""
    return [no for no, line in enumerate(text.splitlines()[1:], start=2) if line.strip()][r]


def _bad_row(path, text: str) -> DataFormatError:
    """Name the first data line with the wrong field count or an unparseable number."""
    for lineno, line in enumerate(text.splitlines()[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            return DataFormatError(f"{path.name}:{lineno}: expected 5 fields, got {len(parts)}")
        try:
            dim, t, _ = int(parts[1].strip()), int(parts[2].strip()), float(parts[3].strip())
        except ValueError as exc:
            return DataFormatError(f"{path.name}:{lineno}: {exc}")
        if not -2 ** 63 <= min(dim, t) <= max(dim, t) < 2 ** 63:
            return DataFormatError(f"{path.name}:{lineno}: integer beyond 64 bits")


def _series_fault(where: str, contiguous_by_dim: dict, all_dims) -> IntegrityError:
    """Name a faulty series' first missing or non-contiguous dimension, else its lengths."""
    for dim in all_dims:
        if dim not in contiguous_by_dim:
            return IntegrityError(f"{where} is missing dimension {dim}")
        if not contiguous_by_dim[dim]:
            return IntegrityError(f"{where} dim {dim}: timestamps not contiguous from 0")
    return IntegrityError(f"{where}: dimensions disagree on length")


# ---------------------------------------------------------------------------
# loaders

def _reader(path):
    """The reader of ``path``'s format, told by its first line."""
    with open(path, "rb") as fh:
        first = _decode(fh.readline(), path).splitlines()
    return _read_long if first and first[0].strip() == MTS_HEADER else _read_ucr


def _dataset(path, read, target=None, vocabulary=None) -> TimeSeriesDataset:
    """A reader's ([T_i, M] arrays, labels, names, dimension ids) as a dataset,
    the series interpolated to ``target`` (default: the longest)."""
    raws, labels, names, _ = read
    lengths = [r.shape[0] for r in raws]
    target = max(lengths) if target is None else int(target)
    if target > 1 and 1 in lengths:
        raise IntegrityError(f"{Path(path).name}: series {names[lengths.index(1)]!r} has one "
                             f"timestamp; interpolating it to length {target} needs at least 2")
    resampled = {}
    for length in set(lengths) - {target}:  # the series of one length resample together
        rows = [i for i, n in enumerate(lengths) if n == length]
        resampled.update(zip(rows, _resample(np.stack([raws[i] for i in rows]), target)))
    X = np.stack([resampled.get(i, raw) for i, raw in enumerate(raws)])
    vocabulary = vocabulary or tuple(sorted(set(labels)))
    meta = DatasetMeta(dataset_name_from_path(path),
                       length_range=(min(lengths), max(lengths)))
    return TimeSeriesDataset(X, one_hot(labels, vocabulary), vocabulary, meta)


def load_pair(train_path, test_path):
    """A train/test pair; the test file is read as the train file's format.

    The train split fixes the label vocabulary.  A long-format pair is
    interpolated to its longest series; each UCR file keeps its own width.
    A test file with as many dimensions as the train file but other dimension
    ids is an ``IntegrityError``; a count that differs is left to the net's shape check.
    """
    read = _reader(train_path)
    train, test = read(train_path), read(test_path)
    if len(test[3]) == len(train[3]) and test[3] != train[3]:
        raise IntegrityError(f"{Path(test_path).name}: dimension ids {test[3]} differ from "
                             f"the train file's {train[3]}")
    target = max(r.shape[0] for r in train[0] + test[0]) if read is _read_long else None
    vocabulary = tuple(sorted(set(train[1])))
    if unseen := [label for label in test[1] if label not in vocabulary]:
        raise VocabularyError(f"{Path(test_path).name}: test label {unseen[0]!r} absent from "
                              f"train vocabulary {list(vocabulary)!r}")
    return (_dataset(train_path, train, target, vocabulary),
            _dataset(test_path, test, target, vocabulary))


def load_single(path) -> TimeSeriesDataset:
    """One standalone file; its own labels are the vocabulary."""
    return _dataset(path, _reader(path)(path))


# ---------------------------------------------------------------------------
# resampling

def _resample(series: np.ndarray, target: int) -> np.ndarray:
    """``series`` [..., T, M] (T >= 2) read at ``target`` evenly spaced points of
    0..T-1, with the bytes ``np.interp`` gives each column on the grid 0..T-1.

    It is ``np.interp``'s own arithmetic, in bulk: between grid points j and
    j + 1, ``(hi - lo) * (x - j) + lo``, and where that is NaN,
    ``(hi - lo) * (x - (j + 1)) + hi``, and where that is NaN too and
    ``lo == hi``, ``lo``.  A point on the grid, the last included, copies its
    sample.  Overflow and NaN are results here, not warnings.
    """
    T = series.shape[-2]
    x = np.linspace(0.0, T - 1.0, target)
    j = np.minimum(x.astype(np.intp), T - 2)
    lo, hi = series[..., j, :], series[..., j + 1, :]
    with np.errstate(over="ignore", invalid="ignore"):
        slope = hi - lo
        out = slope * (x - j)[:, None] + lo
        if (nan := np.isnan(out)).any():
            out[nan] = (slope * (x - (j + 1))[:, None] + hi)[nan]
            flat = np.isnan(out) & (lo == hi)
            out[flat] = lo[flat]
    grid = x == j
    out[..., grid, :] = lo[..., grid, :]
    out[..., -1, :] = series[..., -1, :]
    return out


def linear_interpolate(series: np.ndarray, target_T: int) -> np.ndarray:
    """Stretch [T_i, M] to [target_T, M] by piecewise-linear resampling."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise ValueError(f"series must be [T, M], got shape {series.shape}")
    if series.shape[0] < 2:
        raise ValueError("interpolation needs at least 2 points")
    if target_T < series.shape[0]:
        raise ValueError(
            f"target length {target_T} shorter than series length {series.shape[0]}"
        )
    return _resample(series, target_T)


def window_warp(series: np.ndarray, factor: float) -> np.ndarray:
    """Dilate (factor > 1) or squeeze (factor < 1) the time axis of [T, M], or of
    each series of [N, T, M], by resampling."""
    series = np.asarray(series, dtype=np.float64)
    if factor <= 0:
        raise ValueError(f"warp factor must be positive, got {factor}")
    target = int(math.floor(factor * series.shape[-2] + 0.5))
    if target < 2:
        raise ValueError(f"warp factor {factor} leaves fewer than 2 points")
    return _resample(series, target)


# ---------------------------------------------------------------------------
# window slicing

@dataclass
class SlicingConfig:
    fraction: float = 0.9
    stride: int = 1
    warp_factors: tuple = (1.0,)

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"slice fraction must be in (0, 1], got {self.fraction}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")


def default_slicing(T: int, warp_factors=(1.0,)) -> SlicingConfig:
    """fraction 0.9 with stride ceil(T/10)."""
    return SlicingConfig(0.9, max(1, -(-T // 10)), tuple(warp_factors))


def slice_starts(T: int, length: int, stride: int) -> list[int]:
    """Start offsets 0, stride, 2*stride, ... plus a final slice ending at T."""
    if length > T:
        raise ValueError(f"slice length {length} exceeds series length {T}")
    starts = list(range(0, T - length + 1, stride))
    if starts[-1] != T - length:
        starts.append(T - length)
    return starts


def slice_view(X: np.ndarray, length: int, stride: int):
    """Every window of ``X`` [N, T, M] as a strided view [N, T - length + 1, length, M],
    and the ``slice_starts`` offsets.  Indexing the view copies only what it takes."""
    starts = np.asarray(slice_starts(X.shape[1], length, stride))
    return sliding_window_view(X, length, axis=1).transpose(0, 1, 3, 2), starts


def slice_length(T: int, config: SlicingConfig) -> int:
    """``ceil(fraction * shortest warped length)``, so that every warped variant can be sliced."""
    return int(math.ceil(config.fraction * min(int(math.floor(f * T + 0.5))
                                               for f in config.warp_factors)))


def build_training_pool(dataset: TimeSeriesDataset, config: SlicingConfig):
    """Warp every series by each factor, then slice the pool to ``slice_length``.

    Slices run parent-major, then by warp factor, then by start, and inherit
    their parent's label.  Returns (sliced dataset, slice length).
    """
    L = slice_length(dataset.length, config)
    pieces = []
    for factor in config.warp_factors:
        X = dataset.X if factor == 1.0 else window_warp(dataset.X, factor)
        view, starts = slice_view(X, L, config.stride)
        pieces.append(view[:, starts])
    X = np.concatenate(pieces, axis=1)  # [N, slices per series, L, M]
    Y = np.repeat(dataset.Y, X.shape[1], axis=0)
    return TimeSeriesDataset(X.reshape(-1, L, dataset.dims), Y, dataset.vocabulary,
                             dataset.meta), L


# ---------------------------------------------------------------------------
# splits

def split_train_val(dataset: TimeSeriesDataset, fraction: float, seed: int):
    """Stratified split; each class contributes round(fraction * count) to val.

    Classes with a single member go entirely to train (with a warning).
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction must be in (0, 1), got {fraction}")
    rng = SplitMix64(seed)
    labels = dataset.labels()
    train_idx: list[int] = []
    val_idx: list[int] = []
    for cls in range(dataset.n_classes):
        members = [int(i) for i in np.flatnonzero(labels == cls)]
        if not members:
            continue
        if len(members) < 2:
            warnings.warn(
                f"class {cls} has a single member; keeping it in train", stacklevel=2
            )
            train_idx += members
            continue
        rng.shuffle(members)
        n_val = int(math.floor(fraction * len(members) + 0.5))
        n_val = min(max(n_val, 1), len(members) - 1)
        val_idx += members[:n_val]
        train_idx += members[n_val:]
    train_idx.sort()
    val_idx.sort()
    return dataset.take(train_idx), dataset.take(val_idx)
