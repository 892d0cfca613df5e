"""Dense float64 tensors, a portable seeded RNG, and weight initialization.

Tensors are plain ``numpy.ndarray`` values in C (row-major) order with
dtype float64.  All randomness in the package flows through
:class:`SplitMix64`, which is bit-exact across platforms for a given
seed; vectorized draws match the scalar stream element for element.  A
vectorized draw mixes its words ``STREAM_CHUNK`` at a time, in place in one
reused buffer, and scales each chunk straight into the output vector, so it
allocates the output and two chunk-sized buffers whatever its length.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53
STREAM_CHUNK = 1 << 15
# the golden-ratio offsets of a chunk's words from the state before the chunk
_OFFSETS = np.arange(1, STREAM_CHUNK + 1, dtype=np.uint64) * np.uint64(_GOLDEN)


class SplitMix64:
    """SplitMix64 pseudo-random stream (Steele/Lea/Flood mixing constants).

    ``next_raw`` advances the state by the golden-ratio increment and
    returns the mixed 64-bit word; ``next_uniform`` maps the top 53 bits
    onto [0, 1).  ``uniform(n)`` produces the same values the scalar
    calls would, in order.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64

    def next_raw(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_uniform(self) -> float:
        return (self.next_raw() >> 11) * _INV_2_53

    def uniform(self, n: int) -> np.ndarray:
        """Next ``n`` uniforms on [0, 1) as a float64 vector, advancing the state past them."""
        out = np.empty(n)
        words = np.empty(min(n, STREAM_CHUNK), np.uint64)
        shifted = np.empty_like(words)
        for lo in range(0, n, STREAM_CHUNK):
            z, s = words[: n - lo], shifted[: n - lo]
            np.add(_OFFSETS[: z.size], np.uint64(self.state), out=z)
            self.state = (self.state + z.size * _GOLDEN) & _MASK64
            np.right_shift(z, np.uint64(30), out=s)
            z ^= s
            z *= np.uint64(_MIX1)
            np.right_shift(z, np.uint64(27), out=s)
            z ^= s
            z *= np.uint64(_MIX2)
            np.right_shift(z, np.uint64(31), out=s)
            z ^= s
            z >>= np.uint64(11)
            np.multiply(z, _INV_2_53, out=out[lo : lo + z.size])
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = int(self.next_uniform() * (i + 1))
            items[i], items[j] = items[j], items[i]

    def split(self) -> "SplitMix64":
        """A decorrelated child stream; advances this stream by one draw."""
        return SplitMix64(self.next_raw())


def glorot_uniform(fan_in: int, fan_out: int, shape, rng: SplitMix64) -> np.ndarray:
    """Glorot/Xavier uniform sample on [-limit, limit), limit = sqrt(6/(fan_in+fan_out)).

    Consumes one stream draw per element in row-major order.
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"glorot fans must be >= 1, got ({fan_in}, {fan_out})")
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    n = int(np.prod(shape)) if len(shape) else 1
    u = rng.uniform(n)
    u *= 2.0
    u -= 1.0
    u *= limit
    return u.reshape(shape)
