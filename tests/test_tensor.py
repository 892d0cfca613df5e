import numpy as np
import pytest

from tsclab.tensor import SplitMix64, glorot_uniform


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

    def test_vectorized_matches_scalar(self):
        scalar = SplitMix64(99)
        values = [scalar.next_uniform() for _ in range(257)]
        vec = SplitMix64(99).uniform(257)
        assert values == list(vec)

    def test_vectorized_advances_state(self):
        a = SplitMix64(5)
        a.uniform(10)
        b = SplitMix64(5)
        for _ in range(10):
            b.next_uniform()
        assert a.state == b.state

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
