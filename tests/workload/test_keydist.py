"""Key distributions: bounds, determinism, skew shape."""

from collections import Counter

import numpy as np
import pytest

from repro.workload.keydist import UniformKeys, ZipfKeys, make_distribution
from repro.workload.sources import AggregatedOpenLoopSource
from repro.workload.ycsb import YcsbTransactionalWorkload


class TestUniform:
    def test_bounds(self):
        dist = UniformKeys(100, seed=1)
        samples = [dist.sample() for _ in range(1000)]
        assert all(0 <= k < 100 for k in samples)

    def test_determinism(self):
        a = [UniformKeys(100, seed=7).sample() for _ in range(10)]
        b = [UniformKeys(100, seed=7).sample() for _ in range(10)]
        assert a == b

    def test_roughly_uniform(self):
        dist = UniformKeys(10, seed=3)
        counts = Counter(dist.sample() for _ in range(10_000))
        assert max(counts.values()) < 2.0 * min(counts.values())

    def test_sample_distinct(self):
        dist = UniformKeys(10, seed=2)
        keys = dist.sample_distinct(10)
        assert sorted(keys) == list(range(10))
        with pytest.raises(ValueError):
            dist.sample_distinct(11)


class TestZipf:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            ZipfKeys(10, -0.5)

    def test_zero_coefficient_is_uniformish(self):
        dist = ZipfKeys(10, 0.0, seed=5)
        counts = Counter(dist.sample() for _ in range(10_000))
        assert max(counts.values()) < 2.0 * min(counts.values())

    def test_skew_increases_with_coefficient(self):
        def hottest_fraction(coefficient):
            dist = ZipfKeys(1000, coefficient, seed=9)
            counts = Counter(dist.sample() for _ in range(20_000))
            return counts.most_common(1)[0][1] / 20_000
        assert (hottest_fraction(0.5) < hottest_fraction(0.99)
                < hottest_fraction(1.4))

    def test_high_skew_concentrates_mass(self):
        dist = ZipfKeys(4000, 1.2, seed=1)
        counts = Counter(dist.sample() for _ in range(20_000))
        assert counts.most_common(1)[0][1] / 20_000 > 0.10

    def test_clients_share_hot_keys(self):
        """Different sampling seeds, same permutation seed -> the same
        keys are hot for everyone (required for contention figures)."""
        a = ZipfKeys(1000, 1.2, seed=1, permutation_seed=42)
        b = ZipfKeys(1000, 1.2, seed=2, permutation_seed=42)
        hot_a = Counter(a.sample() for _ in range(5000)).most_common(1)[0][0]
        hot_b = Counter(b.sample() for _ in range(5000)).most_common(1)[0][0]
        assert hot_a == hot_b

    def test_different_permutation_seeds_move_hot_keys(self):
        a = ZipfKeys(1000, 1.4, seed=1, permutation_seed=1)
        b = ZipfKeys(1000, 1.4, seed=1, permutation_seed=2)
        hot_a = Counter(a.sample() for _ in range(5000)).most_common(1)[0][0]
        hot_b = Counter(b.sample() for _ in range(5000)).most_common(1)[0][0]
        assert hot_a != hot_b

    def test_sample_distinct_unique(self):
        dist = ZipfKeys(100, 1.2, seed=3)
        keys = dist.sample_distinct(5)
        assert len(set(keys)) == 5


def test_make_distribution_dispatch():
    assert isinstance(make_distribution(10, zipf=0.0), UniformKeys)
    assert isinstance(make_distribution(10, zipf=0.9), ZipfKeys)
    assert isinstance(make_distribution(10, zipf=None), UniformKeys)


class TestSampleBlock:
    """Vectorized draws must be stream-identical to single draws."""

    def test_uniform_block_equals_singles(self):
        block_side = UniformKeys(1000, seed=5)
        single_side = UniformKeys(1000, seed=5)
        block = block_side.sample_block(64)
        assert block == [single_side.sample() for _ in range(64)]
        # the streams stay aligned after the block
        assert block_side.sample() == single_side.sample()

    def test_zipf_block_equals_singles(self):
        block_side = ZipfKeys(1000, 0.99, seed=7, permutation_seed=3)
        single_side = ZipfKeys(1000, 0.99, seed=7, permutation_seed=3)
        block = block_side.sample_block(64)
        assert block == [single_side.sample() for _ in range(64)]
        assert block_side.sample() == single_side.sample()

    def test_block_values_in_range(self):
        for dist in (UniformKeys(10, seed=1),
                     ZipfKeys(10, 1.2, seed=1)):
            block = dist.sample_block(256)
            assert all(0 <= key < 10 for key in block)
            assert all(isinstance(key, int) for key in block)


class TestSharedTables:
    """Clients of one experiment share one CDF and one rank permutation;
    each keeps its own sampling stream."""

    @staticmethod
    def _uncached(n_keys, coefficient, seed, permutation_seed):
        """Per-instance tables and stream, built the way every ZipfKeys
        built its own before the tables were shared."""
        ranks = np.arange(1, n_keys + 1, dtype=np.float64)
        cdf = np.cumsum(ranks ** (-coefficient))
        cdf /= cdf[-1]
        rank_to_key = np.random.default_rng(
            permutation_seed ^ 0x5EED).permutation(n_keys)
        rng = np.random.default_rng(seed)
        return [int(rank_to_key[min(int(np.searchsorted(cdf, rng.random())),
                                    n_keys - 1)])
                for _ in range(1000)]

    def test_equal_parameters_share_tables(self):
        a = ZipfKeys(2000, 0.4, seed=1, permutation_seed=9)
        b = ZipfKeys(2000, 0.4, seed=2, permutation_seed=9)
        assert a._cdf is b._cdf
        assert a._rank_to_key is b._rank_to_key
        assert a._rng is not b._rng
        other = ZipfKeys(2000, 0.4, seed=1, permutation_seed=10)
        assert other._rank_to_key is not a._rank_to_key

    def test_shared_tables_are_read_only(self):
        dist = ZipfKeys(100, 0.99)
        with pytest.raises(ValueError):
            dist._cdf[0] = 1.0
        with pytest.raises(ValueError):
            dist._rank_to_key[0] = 1

    def test_ycsb_t_clients_draw_as_if_uncached(self):
        seed = 3
        clients = [YcsbTransactionalWorkload(2000, zipf=0.4, seed=seed,
                                             client_id=index)
                   for index in range(3)]
        assert clients[1]._keys._cdf is clients[2]._keys._cdf
        singles = [clients[1]._keys.sample() for _ in range(1000)]
        assert singles == self._uncached(2000, 0.4, seed * 7919 + 1, seed)
        block = clients[2]._keys.sample_block(1000)
        assert block == self._uncached(2000, 0.4, seed * 7919 + 2, seed)

    def test_open_loop_sources_draw_as_if_uncached(self):
        seed = 4
        sources = [AggregatedOpenLoopSource(1000, 20.0, 2000, zipf=0.99,
                                            seed=seed, source_id=index)
                   for index in range(2)]
        assert sources[0]._keys._cdf is sources[1]._keys._cdf
        singles = [sources[0]._keys.sample() for _ in range(1000)]
        assert singles == self._uncached(2000, 0.99, seed * 7919, seed)
        block = sources[1]._keys.sample_block(1000)
        assert block == self._uncached(2000, 0.99, seed * 7919 + 1, seed)
