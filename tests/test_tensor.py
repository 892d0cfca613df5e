import math
import tracemalloc

import numpy as np
import pytest

from tsclab import layers as L
from tsclab import reservoir as R
from tsclab.tensor import STREAM_CHUNK, SplitMix64, glorot_uniform


def reference_splitmix64(seed, count):
    """Independent SplitMix64 (structured directly from the published algorithm)."""
    mask = 0xFFFFFFFFFFFFFFFF
    out = []
    state = seed & mask
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out.append(z)
    return out


def reference_glorot_uniform(fan_in, fan_out, shape, rng):
    """Glorot formed out of place: ``(2u - 1) * limit``."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    u = rng.uniform(int(np.prod(shape)) if len(shape) else 1)
    return ((2.0 * u - 1.0) * limit).reshape(shape)


def reference_draw_reservoir(config, dims):
    """``reservoir._draw_reservoir``'s first attempt, each array formed out of place."""
    stream = SplitMix64(config.seed).split()
    n = config.size
    W_in = (2.0 * stream.uniform(n * dims) - 1.0).reshape(n, dims) * config.input_scale
    keep = stream.uniform(n * n).reshape(n, n) >= config.sparsity
    values = (2.0 * stream.uniform(n * n) - 1.0).reshape(n, n)
    return W_in, np.where(keep, values, 0.0)


def reference_dropout_forward(x, rate, rng):
    """Train-mode dropout with its mask formed from a boolean and a second float array."""
    u = rng.uniform(x.size).reshape(x.shape)
    mask = (u >= rate) / (1.0 - rate)
    return x * mask, mask


# draw sizes around the chunk edges; "mixed" is one stream drawn at several sizes in turn
DRAWS = {"0": [0], "1": [1], "257": [257], "chunk-1": [STREAM_CHUNK - 1],
         "chunk": [STREAM_CHUNK], "chunk+1": [STREAM_CHUNK + 1],
         "2chunk+3": [2 * STREAM_CHUNK + 3],
         "mixed": [3, STREAM_CHUNK - 1, 0, 2, STREAM_CHUNK + 5, 1, 257]}


class TestSplitMix64:
    def test_matches_reference_stream(self):
        rng = SplitMix64(0)
        assert [rng.next_raw() for _ in range(5)] == reference_splitmix64(0, 5)
        rng = SplitMix64(123456789)
        assert [rng.next_raw() for _ in range(5)] == reference_splitmix64(123456789, 5)

    def test_known_first_words_for_seed_zero(self):
        # published reference outputs for the seed-0 stream
        rng = SplitMix64(0)
        assert rng.next_raw() == 0xE220A8397B1DCDAF
        assert rng.next_raw() == 0x6E789E6AA1B965F4

    def test_uniform_is_top_53_bits(self):
        raw = reference_splitmix64(7, 1)[0]
        assert SplitMix64(7).next_uniform() == (raw >> 11) / 2.0 ** 53

    def test_same_seed_same_sequence(self):
        a = [SplitMix64(42).next_uniform() for _ in range(1)]
        r1 = SplitMix64(42)
        r2 = SplitMix64(42)
        assert [r1.next_uniform() for _ in range(100)] == [
            r2.next_uniform() for _ in range(100)
        ]
        assert a[0] == SplitMix64(42).next_uniform()

    def test_different_seeds_differ(self):
        s1 = [SplitMix64(1).next_uniform() for _ in range(100)]
        s2 = [SplitMix64(2).next_uniform() for _ in range(100)]
        assert s1 != s2

    @pytest.mark.parametrize("sizes", DRAWS.values(), ids=DRAWS.keys())
    def test_vectorized_matches_scalar(self, sizes):
        scalar, vec = SplitMix64(99), SplitMix64(99)
        for n in sizes:
            values = np.array([scalar.next_uniform() for _ in range(n)], dtype=np.float64)
            got = vec.uniform(n)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tobytes() == values.tobytes()

    @pytest.mark.parametrize("sizes", DRAWS.values(), ids=DRAWS.keys())
    def test_vectorized_advances_state(self, sizes):
        a, b = SplitMix64(5), SplitMix64(5)
        for n in sizes:
            a.uniform(n)
            for _ in range(n):
                b.next_uniform()
            assert a.state == b.state

    @pytest.mark.parametrize("draw", [
        lambda: SplitMix64(3).uniform(1 << 20),
        lambda: glorot_uniform(8, 128, (1 << 20,), SplitMix64(3)),
    ], ids=["uniform", "glorot"])
    def test_draw_memory_peak_is_bounded(self, draw):
        """A 2^20-value draw holds its 8 MiB output and at most 2 MiB besides."""
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            draw()
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak <= (8 + 2) * 2 ** 20, f"draw peaked {peak / 2 ** 20:.1f} MiB above the live set"

    def test_uniform_in_unit_interval(self):
        u = SplitMix64(11).uniform(10000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_split_streams_differ(self):
        base = SplitMix64(3)
        child = base.split()
        assert child.state != base.state
        assert child.next_uniform() != base.next_uniform()


class TestGlorot:
    def test_limit_one_for_equal_small_fans(self):
        w = glorot_uniform(3, 3, (1000,), SplitMix64(0))
        assert np.all(np.abs(w) <= 1.0)

    def test_zero_fan_rejected(self):
        with pytest.raises(ValueError):
            glorot_uniform(0, 3, (2, 2), SplitMix64(0))
        with pytest.raises(ValueError):
            glorot_uniform(3, 0, (2, 2), SplitMix64(0))

    def test_sample_variance_matches_uniform_law(self):
        # conv-style fans: limit^2/3 is the uniform variance
        fan_in, fan_out = 8 * 1, 8 * 128
        w = glorot_uniform(fan_in, fan_out, (100000,), SplitMix64(17))
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        expected = limit ** 2 / 3.0
        assert abs(w.var() - expected) < 0.05 * expected

    def test_seed_reproducibility(self):
        a = glorot_uniform(4, 4, (2, 2), SplitMix64(42))
        b = glorot_uniform(4, 4, (2, 2), SplitMix64(42))
        assert np.array_equal(a, b)


class TestInPlaceDraws:
    """Callers that finish the uniforms in place keep the out-of-place bits."""

    @pytest.mark.parametrize("fans, shape", [
        ((3, 5), (3, 5)), ((8, 1024), (128, 8, 1)), ((1, 1), ()),
        ((2816, 2048), (STREAM_CHUNK + 7,)),
    ])
    def test_glorot_matches_reference(self, fans, shape):
        a, b = SplitMix64(21), SplitMix64(21)
        got, want = glorot_uniform(*fans, shape, a), reference_glorot_uniform(*fans, shape, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert a.state == b.state

    @pytest.mark.parametrize("config, dims", [
        (R.ReservoirConfig(size=12, sparsity=0.5, spectral_radius=0.9, seed=8), 1),
        (R.ReservoirConfig(size=200, sparsity=0.9, spectral_radius=0.5, input_scale=0.3,
                           seed=3), 3),
    ])
    def test_reservoir_draw_matches_reference(self, config, dims):
        W_in, W, _ = R._draw_reservoir(config, dims)
        want_in, want = reference_draw_reservoir(config, dims)
        assert W_in.tobytes() == want_in.tobytes() and W_in.shape == want_in.shape
        assert W.tobytes() == want.tobytes() and W.shape == want.shape

    @pytest.mark.parametrize("rate", [0.1, 0.2, 0.5, 0.9])
    def test_dropout_matches_reference(self, rate):
        x = 2.0 * SplitMix64(4).uniform(3 * 50 * 7).reshape(3, 50, 7) - 1.0
        a, b = SplitMix64(6), SplitMix64(6)
        y, mask = L.dropout_forward(x, rate, "train", a)
        want_y, want_mask = reference_dropout_forward(x, rate, b)
        assert mask.dtype == want_mask.dtype and mask.shape == want_mask.shape
        assert mask.tobytes() == want_mask.tobytes() and y.tobytes() == want_y.tobytes()
        assert a.state == b.state
