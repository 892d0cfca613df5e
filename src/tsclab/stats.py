"""Multi-run aggregation and the rank-based classifier comparison protocol.

The pipeline is: collect per-(dataset, classifier, seed) run records,
aggregate them into a complete accuracy table, rank classifiers per
dataset (rank 1 = most accurate, ties share the mean rank), test the
omnibus null with a Friedman test, then compare all pairs with two-sided
Wilcoxon signed-rank tests under Holm's step-down correction.  Groups of
classifiers with no significant pairwise difference (maximal cliques)
are rendered as thick bars on a critical-difference diagram.

The chi-square tail and the exact Wilcoxon distribution are computed
in-module so results do not depend on any external statistics library.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import svg
from .data import read_text
from .errors import DataFormatError, MissingCellError

RESULTS_HEADER = ["dataset", "architecture", "seed", "accuracy", "loss", "train_seconds"]
BASELINE_HEADER = ["dataset", "classifier", "accuracy"]

LENGTH_BANDS = ("<81", "81-250", "251-450", "451-700", "701-1000", ">1000")
TRAIN_SIZE_BANDS = ("<100", "100-399", "400-799", ">799")
WILCOXON_EXACT_LIMIT = 20  # the largest sample whose p is counted exactly


@dataclass
class RunRecord:
    dataset: str
    architecture: str
    seed: int
    accuracy: float
    loss: float  # monitored loss of the returned model's epoch
    train_seconds: float

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")


@dataclass
class ResultsTable:
    datasets: list
    classifiers: list
    values: np.ndarray      # [n_datasets, n_classifiers]
    kind: str


@dataclass
class ComparisonReport:
    classifiers: list
    ranks: dict
    friedman: tuple | None          # (statistic, p, reject) or None when k == 2
    pairwise_p: dict                # (a, b) -> p, a before b in classifier order
    holm_adjusted: dict
    holm_reject: dict
    cliques: list                   # tuples of classifier names
    alpha: float
    n_datasets: int
    aggregation: str


# ---------------------------------------------------------------------------
# aggregation

def _aggregate_values(values: list[float], kind: str) -> float:
    vals = sorted(values)
    n = len(vals)
    if kind == "mean":
        return float(sum(vals) / n)
    if kind == "min":
        return vals[0]
    if kind == "max":
        return vals[-1]
    if kind == "median":
        # even counts take the lower-middle run so the value is an actual run
        return vals[(n - 1) // 2]
    raise ValueError(f"unknown aggregation {kind!r}")


def aggregate(runs: list[RunRecord], kind: str = "mean") -> ResultsTable:
    """Complete [dataset x classifier] table; raises on any missing cell."""
    if not runs:
        raise ValueError("no runs to aggregate")
    datasets = sorted({r.dataset for r in runs})
    classifiers = sorted({r.architecture for r in runs})
    cells: dict = {}
    for r in runs:
        cells.setdefault((r.dataset, r.architecture), []).append(r.accuracy)
    missing = [
        (d, c) for d in datasets for c in classifiers if (d, c) not in cells
    ]
    if missing:
        listing = ", ".join(f"({d}, {c})" for d, c in missing)
        raise MissingCellError(f"results table has missing cells: {listing}")
    values = np.empty((len(datasets), len(classifiers)))
    for i, d in enumerate(datasets):
        for j, c in enumerate(classifiers):
            values[i, j] = _aggregate_values(cells[(d, c)], kind)
    return ResultsTable(datasets, classifiers, values, kind)


# ---------------------------------------------------------------------------
# ranking

def rank_row(values: np.ndarray, descending: bool = True) -> np.ndarray:
    """Ranks 1..k (1 = best); tied values share the mean of their ranks."""
    _, group, counts = np.unique(-values if descending else values,
                                 return_inverse=True, return_counts=True)
    end = np.cumsum(counts)  # a tied group holds ranks end - counts + 1 .. end
    return ((end - counts + 1 + end) / 2.0)[group]


def average_ranks(table: ResultsTable) -> dict:
    per_dataset = np.stack([rank_row(row) for row in table.values])
    means = per_dataset.mean(axis=0)
    return {c: float(means[j]) for j, c in enumerate(table.classifiers)}


# ---------------------------------------------------------------------------
# chi-square tail

def chi2_sf(x: float, df: int) -> float:
    """P(Chi2_df > x) for an integer df: [df odd] erfc(sqrt(h)) + sum of h^a e^-h / a!
    over a = df/2 - 1, df/2 - 2, ... >= 0, with h = x/2; each term is formed in logs."""
    if not (df >= 1 and float(df).is_integer()):
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {df}")
    if x <= 0:
        return 1.0
    half, a = x / 2.0, df / 2.0 - 1.0
    total = math.erfc(math.sqrt(half)) if df % 2 else 0.0
    while a >= 0.0:
        total += math.exp(a * math.log(half) - half - math.lgamma(a + 1.0))
        a -= 1.0
    return total


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def friedman_test(table: ResultsTable, alpha: float = 0.05):
    """Friedman chi-square over per-dataset ranks; needs k >= 3 and N >= 2."""
    k = len(table.classifiers)
    n = len(table.datasets)
    if k < 3:
        raise ValueError(f"friedman test needs >= 3 classifiers, got {k} (use wilcoxon)")
    if n < 2:
        raise ValueError(f"friedman test needs >= 2 datasets, got {n}")
    mean_ranks = np.array(list(average_ranks(table).values()))
    statistic = 12.0 * n / (k * (k + 1)) * (
        float((mean_ranks ** 2).sum()) - k * (k + 1) ** 2 / 4.0
    )
    p = chi2_sf(statistic, k - 1)
    return statistic, p, p < alpha


# ---------------------------------------------------------------------------
# wilcoxon signed-rank (two-sided)

def _signed_rank_stats(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"paired samples must be equal-length vectors, got {a.shape} and {b.shape}")
    d = a - b
    d = d[d != 0.0]  # zero differences dropped
    n = d.size
    if n == 0:
        return 0, 0.0, np.empty(0)
    ranks = rank_row(np.abs(d), descending=False)
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    return n, min(w_plus, w_minus), ranks


def _wilcoxon_exact(n: int, w: float, ranks: np.ndarray) -> float:
    # subset-sum counting over doubled ranks keeps everything integral
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        shifted = np.concatenate([np.zeros(r, dtype=np.int64), counts[: total + 1 - r]])
        counts = counts + shifted
    w2 = int(math.floor(2.0 * w + 1e-9))
    p_one = counts[: w2 + 1].sum() / (2.0 ** n)
    return min(1.0, 2.0 * p_one)


def _wilcoxon_normal(n: int, w: float, ranks: np.ndarray) -> float:
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(((tie_counts ** 3 - tie_counts) / 48.0).sum())
    if var <= 0:
        return 1.0
    z = (w - mu + 0.5) / math.sqrt(var)
    return min(1.0, 2.0 * normal_cdf(z))


def wilcoxon_signed_rank(a, b) -> float:
    """Two-sided p for paired samples; exact for n <= 20 nonzero pairs, else normal approx.

    Zero differences are dropped (Wilcoxon's original treatment); ties in
    |d| take mean ranks, with the tie-corrected variance and a 0.5
    continuity correction on the normal path.
    """
    n, w, ranks = _signed_rank_stats(a, b)
    if n == 0:
        return 1.0
    if n <= WILCOXON_EXACT_LIMIT:
        return _wilcoxon_exact(n, w, ranks)
    return _wilcoxon_normal(n, w, ranks)


# ---------------------------------------------------------------------------
# holm correction and cliques

def holm_correction(p_values: list[float], alpha: float = 0.05):
    """Step-down Holm: (reject flags, adjusted p-values) in input order."""
    m = len(p_values)
    if m == 0:
        return [], []
    order = sorted(range(m), key=lambda i: p_values[i])
    reject = [False] * m
    adjusted = [0.0] * m
    running = 0.0
    still_rejecting = True
    for pos, idx in enumerate(order):
        p = p_values[idx]
        running = max(running, min(1.0, (m - pos) * p))
        adjusted[idx] = running
        if still_rejecting and p <= alpha / (m - pos):
            reject[idx] = True
        else:
            still_rejecting = False
    return reject, adjusted


def _bron_kerbosch(r: set, p: set, x: set, adj: dict, out: list) -> None:
    if not p and not x:
        out.append(frozenset(r))
        return
    pivot = max(p | x, key=lambda v: len(adj[v] & p))
    for v in sorted(p - adj[pivot]):
        _bron_kerbosch(r | {v}, p & adj[v], x & adj[v], adj, out)
        p = p - {v}
        x = x | {v}


def form_cliques(ranks: dict, significant: dict) -> list:
    """Maximal groups of pairwise non-significant classifiers, singletons dropped.

    ``significant`` maps unordered name pairs to the Holm decision.  The
    groups need not respect rank order.  Output is sorted by the leftmost
    member rank, members by rank.
    """
    names = sorted(ranks)
    adj = {a: set() for a in names}
    for a, b in itertools.combinations(names, 2):
        key = (a, b) if (a, b) in significant else (b, a)
        if not significant.get(key, False):
            adj[a].add(b)
            adj[b].add(a)
    found: list = []
    _bron_kerbosch(set(), set(names), set(), adj, found)
    cliques = [
        tuple(sorted(c, key=lambda v: (ranks[v], v))) for c in found if len(c) > 1
    ]
    cliques.sort(key=lambda c: (min(ranks[v] for v in c), c))
    return cliques


def compare_classifiers(table: ResultsTable, alpha: float = 0.05) -> ComparisonReport:
    """Run the full protocol on a complete table.

    With only two classifiers the Friedman omnibus is skipped and the lone
    Wilcoxon test decides significance directly.
    """
    k = len(table.classifiers)
    if k < 2:
        raise ValueError("comparison needs at least 2 classifiers")
    ranks = average_ranks(table)
    friedman = friedman_test(table, alpha) if k >= 3 else None
    pairs = list(itertools.combinations(table.classifiers, 2))
    p_values = []
    for a, b in pairs:
        ia, ib = table.classifiers.index(a), table.classifiers.index(b)
        p_values.append(wilcoxon_signed_rank(table.values[:, ia], table.values[:, ib]))
    reject, adjusted = holm_correction(p_values, alpha)
    pairwise_p = {pair: p for pair, p in zip(pairs, p_values)}
    holm_adj = {pair: p for pair, p in zip(pairs, adjusted)}
    holm_rej = {pair: rej for pair, rej in zip(pairs, reject)}
    cliques = form_cliques(ranks, holm_rej)
    return ComparisonReport(
        classifiers=list(table.classifiers),
        ranks=ranks,
        friedman=friedman,
        pairwise_p=pairwise_p,
        holm_adjusted=holm_adj,
        holm_reject=holm_rej,
        cliques=cliques,
        alpha=alpha,
        n_datasets=len(table.datasets),
        aggregation=table.kind,
    )


# ---------------------------------------------------------------------------
# grouped ranks

# each band but the last is keyed by its inclusive upper edge
def _length_band(T: int) -> str:
    return LENGTH_BANDS[bisect.bisect_left((80, 250, 450, 700, 1000), T)]


def _train_size_band(n: int) -> str:
    return TRAIN_SIZE_BANDS[bisect.bisect_left((99, 399, 799), n)]


def grouped_ranks(runs: list[RunRecord], key: str, metadata: dict,
                  kind: str = "mean") -> dict:
    """Average ranks within dataset bands: theme, length, or train size.

    ``metadata`` maps dataset name to a dict with ``theme``, ``length``
    and ``train_size`` entries (only the selected key is required).
    Returns {band: ({classifier: rank}, n_datasets)}.
    """
    if key not in ("theme", "length", "trainsize"):
        raise ValueError(f"unknown grouping key {key!r}")
    datasets = sorted({r.dataset for r in runs})
    bands: dict = {}
    for d in datasets:
        if d not in metadata:
            raise ValueError(f"no metadata for dataset {d!r}")
        meta = metadata[d]
        if key == "theme":
            band = str(meta["theme"])
        elif key == "length":
            band = _length_band(int(meta["length"]))
        else:
            band = _train_size_band(int(meta["train_size"]))
        bands.setdefault(band, set()).add(d)
    out = {}
    for band in sorted(bands):
        members = bands[band]
        subset = [r for r in runs if r.dataset in members]
        table = aggregate(subset, kind)
        out[band] = (average_ranks(table), len(members))
    return out


# ---------------------------------------------------------------------------
# persistence

def save_runs(runs: list[RunRecord], path) -> None:
    """Merge into an existing run-record file (not a baselines table), deduplicating on
    (dataset, arch, seed)."""
    path = Path(path)
    merged: dict = {}
    if path.exists():
        for r in load_runs(path, baselines=False):
            merged[(r.dataset, r.architecture, r.seed)] = r
    for r in runs:
        merged[(r.dataset, r.architecture, r.seed)] = r
    rows = [merged[k] for k in sorted(merged)]
    # write beside the file, then swap it in: a failed write leaves the old file whole
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULTS_HEADER)
            for r in rows:
                writer.writerow([r.dataset, r.architecture, r.seed, repr(r.accuracy),
                                 repr(r.loss), repr(r.train_seconds)])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_runs(path, baselines: bool = True, earlier: dict | None = None) -> list[RunRecord]:
    """Read a run-record or, if ``baselines``, an external-baseline CSV; a bad row names its
    line and column, a repeated (dataset, architecture, seed) the line it repeats, here or
    in ``earlier`` (``file line N`` by record, of files read before; gains this file's)."""
    path = Path(path)
    runs, seen, earlier = [], {}, {} if earlier is None else earlier
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        headers = {tuple(RESULTS_HEADER): (str, str, int, float, float, float)}
        if baselines:
            headers[tuple(BASELINE_HEADER)] = (str, str, float)
        kinds = headers.get(tuple(header or ()))
        if kinds is None:
            raise DataFormatError(f"{path.name}: unrecognized header; expected "
                                  + " or ".join(",".join(h) for h in headers))
        for row in filter(None, reader):
            where = f"{path.name} line {reader.line_num}"
            if len(row) != len(kinds):
                raise DataFormatError(f"{where}: {len(row)} cells, expected {len(kinds)}")
            values = []
            for column, kind, cell in zip(header, kinds, row):
                try:
                    values.append(kind(cell))
                except ValueError:
                    raise DataFormatError(f"{where}, column {column}: cannot read {cell!r} "
                                          f"as {kind.__name__}") from None
            if header == BASELINE_HEADER:
                values = [values[0], values[1], 0, values[2], math.nan, math.nan]
            if not 0.0 <= values[3] <= 1.0:
                raise DataFormatError(f"{where}, column accuracy: {values[3]!r} is not in [0, 1]")
            if (key := tuple(values[:3])) in earlier:
                raise DataFormatError(f"{where}: repeats the record of {earlier[key]}")
            if (first := seen.setdefault(key, reader.line_num)) != reader.line_num:
                raise DataFormatError(f"{where}: repeats the record of line {first}")
            runs.append(RunRecord(*values))
    earlier.update((key, f"{path.name} line {line}") for key, line in seen.items())
    return runs


# ---------------------------------------------------------------------------
# rendering

def render_cd_diagram(report: ComparisonReport) -> str:
    """Standalone SVG of the critical-difference diagram; byte-deterministic."""
    k = len(report.classifiers)
    names = sorted(report.ranks, key=lambda v: (report.ranks[v], v))
    width, margin, axis_y = 900.0, 90.0, 130.0
    span = max(k - 1, 1)

    def x(rank: float) -> float:
        return margin + (rank - 1.0) / span * (width - 2 * margin)

    # stack clique bars without overlap
    levels: list[list[tuple[float, float]]] = []
    bars = []
    for clique in report.cliques:
        lo = min(report.ranks[v] for v in clique)
        hi = max(report.ranks[v] for v in clique)
        x0, x1 = x(lo) - 6.0, x(hi) + 6.0
        level = 0
        while level < len(levels) and any(
            not (x1 < a or x0 > b) for a, b in levels[level]
        ):
            level += 1
        if level == len(levels):
            levels.append([])
        levels[level].append((x0, x1))
        bars.append((x0, x1, axis_y + 16.0 + 14.0 * level, clique))

    height = axis_y + 40.0 + 14.0 * max(len(levels), 1)
    font = {"text_anchor": "middle", "font_family": "sans-serif"}
    parts = [svg.element("line", x1=x(1), y1=axis_y, x2=x(k), y2=axis_y, stroke="black",
                         stroke_width="1.5")]
    for tick in range(1, k + 1):
        parts.append(svg.element("line", x1=x(tick), y1=axis_y - 5, x2=x(tick),
                                 y2=axis_y + 5, stroke="black", stroke_width=1))
        parts.append(svg.element("text", str(tick), x=x(tick), y=axis_y - 10, font_size=11,
                                 **font))
    for i, name in enumerate(names):
        rank = report.ranks[name]
        above = i % 2 == 0
        label_y = axis_y - 38.0 if above else axis_y + 52.0 + 14.0 * len(levels)
        stem_y = label_y + 4.0 if above else label_y - 12.0
        parts.append(svg.element("line", x1=x(rank), y1=axis_y, x2=x(rank), y2=stem_y,
                                 stroke="gray", stroke_width="0.8"))
        parts.append(svg.element("text", f"{name} ({svg.fmt(rank)})", x=x(rank), y=label_y,
                                 font_size=12, **font))
    for x0, x1, y, clique in bars:
        parts.append(svg.element("line", "", svg.element("title", ", ".join(clique)), x1=x0,
                                 y1=y, x2=x1, y2=y, stroke="black", stroke_width=5))
    return svg.document(width, height, parts)


def render_text_report(report: ComparisonReport) -> str:
    lines = [
        f"classifiers: {len(report.classifiers)}",
        f"datasets: {report.n_datasets}",
        f"aggregation: {report.aggregation}",
        f"alpha: {report.alpha}",
        "average ranks:",
    ]
    for name in sorted(report.ranks, key=lambda v: (report.ranks[v], v)):
        lines.append(f"  {name}: {report.ranks[name]:.4f}")
    if report.friedman is None:
        lines.append("friedman: skipped (k < 3); single wilcoxon test decides")
    else:
        stat, p, rej = report.friedman
        lines.append(
            f"friedman: statistic={stat:.6f} p={p:.6g} reject={'yes' if rej else 'no'}"
        )
    lines.append("pairwise wilcoxon (holm-corrected):")
    for pair in sorted(report.pairwise_p):
        a, b = pair
        lines.append(
            f"  {a} vs {b}: p={report.pairwise_p[pair]:.6g} "
            f"adjusted={report.holm_adjusted[pair]:.6g} "
            f"significant={'yes' if report.holm_reject[pair] else 'no'}"
        )
    lines.append("cliques:")
    if not report.cliques:
        lines.append("  none")
    for clique in report.cliques:
        lines.append("  {" + ", ".join(clique) + "}")
    return "\n".join(lines) + "\n"
