"""Seeded synthetic train/test files for the benchmark workloads.

Classes differ in local shape: class ``c`` carries ``c + 1`` bumps at a
random position over a smooth random background, with jittered bump
heights and additive Gaussian noise.  The noise level is set so that the
trained models land strictly between chance and perfect accuracy, so a
change to the arithmetic can move accuracy either way.

The generator has its own SplitMix64 stream: the inputs depend only on
the seed, never on the code under test.
"""

from __future__ import annotations

import math
from pathlib import Path

_MASK64 = (1 << 64) - 1
# bump half-width in samples for the one-bump class
BUMP_WIDTH = 18


class SplitMix64:
    """Steele/Lea/Flood SplitMix64; ``uniform`` maps the top 53 bits onto [0, 1)."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64

    def uniform(self) -> float:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * 2.0 ** -53

    def gauss(self) -> float:
        # Box-Muller; 1 - u keeps the log argument in (0, 1]
        u, v = 1.0 - self.uniform(), self.uniform()
        return math.sqrt(-2.0 * math.log(u)) * math.cos(2.0 * math.pi * v)


def bump_series(rng: SplitMix64, T: int, cls: int, noise: float,
                centre: float | None = None) -> list[float]:
    """One z-normalized series of class ``cls`` (``cls + 1`` bumps).

    The bumps sit at a random position, or around ``centre`` (a fraction
    of T) give or take 0.1 when it is given.
    """
    phase = rng.uniform() * 2.0 * math.pi
    freq = 1.0 + rng.uniform() * 2.0
    x = [0.3 * math.sin(2.0 * math.pi * freq * t / T + phase) for t in range(T)]
    n_bumps = cls + 1
    width = max(BUMP_WIDTH // n_bumps, 3)
    where = 0.25 + 0.5 * rng.uniform() if centre is None else (
        centre + 0.2 * rng.uniform() - 0.1)
    middle = int(T * where)
    for b in range(n_bumps):
        height = 0.6 + 0.8 * rng.uniform()
        start = middle + int((b - (n_bumps - 1) / 2) * 3 * width) - width
        for t in range(max(start, 0), min(start + 2 * width, T)):
            x[t] += height * math.sin(math.pi * (t - start) / (2 * width))
    x = [v + noise * rng.gauss() for v in x]
    mean = sum(x) / T
    std = math.sqrt(sum((v - mean) ** 2 for v in x) / T) or 1.0
    return [(v - mean) / std for v in x]


def write_ucr(path: Path, n: int, T: int, K: int, noise: float, seed: int) -> int:
    """UCR text file of ``n`` series with balanced labels 1..K; returns the value count."""
    rng = SplitMix64(seed)
    lines = []
    for i in range(n):
        cls = i % K
        values = bump_series(rng, T, cls, noise)
        lines.append(",".join([str(cls + 1)] + [f"{v:.6f}" for v in values]))
    path.write_text("\n".join(lines) + "\n")
    return n * T


def write_mts_long(path: Path, n: int, T: int, M: int, K: int, noise: float,
                   seed: int) -> int:
    """Long-format CSV of ``n`` M-dimensional series; returns the value count.

    Dimensions 0 and 1 carry independent draws of the class's bumps, placed
    around a class-specific position so that the dense nets can learn them;
    the rest carry one class-independent bump under heavy noise.  Series lengths vary from 0.9*T to
    T (the first is T long), so the loader's interpolation to a shared
    length runs.
    """
    rng = SplitMix64(seed)
    lines = ["series_id,dimension,timestamp,value,label"]
    values = 0
    for i in range(n):
        cls = i % K
        T_i = T if i == 0 else T - int(rng.uniform() * 0.1 * T)
        centre = (cls + 1) / (K + 1)
        dims = [bump_series(rng, T_i, cls, noise, centre),
                bump_series(rng, T_i, cls, noise, centre)]
        dims += [bump_series(rng, T_i, 0, 4.0) for _ in range(M - 2)]
        for m, series in enumerate(dims):
            lines.extend(f"s{i},{m},{t},{v:.6f},c{cls}" for t, v in enumerate(series))
        values += M * T_i
    path.write_text("\n".join(lines) + "\n")
    return values


def write_baselines(path: Path, classifiers, n_datasets: int, seed: int) -> None:
    """Published-style accuracies of ``classifiers`` on ``n_datasets`` archive sets.

    ``tsclab compare`` ranks the fresh sweep against these, as a user
    does against an archive's results; the table then has the paper's
    number of datasets.
    """
    rng = SplitMix64(seed)
    lines = ["dataset,classifier,accuracy"]
    for d in range(n_datasets):
        base = 0.55 + 0.4 * rng.uniform()
        for name in classifiers:
            acc = min(1.0, max(0.0, base + 0.08 * rng.gauss()))
            lines.append(f"Archive{d:03d},{name},{acc:.4f}")
    path.write_text("\n".join(lines) + "\n")
