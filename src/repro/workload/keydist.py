"""Key-access distributions: uniform and Zipf.

The Zipf sampler uses the standard YCSB parameterization: key rank
``i`` (1-based) is drawn with probability proportional to ``1 / i^s``
where ``s`` is the *zipf coefficient* on the figures' x-axes. Sampling
is inverse-CDF over a precomputed table (numpy), so a draw is one
binary search — fast enough for millions of simulated ops.

Ranks are shuffled onto key ids so that "hot" keys are spread over the
table rather than clustered at low ids.
"""

import functools

import numpy as np


class UniformKeys:
    """Uniform key choice over ``[0, n_keys)``."""

    def __init__(self, n_keys, seed=0):
        self.n_keys = n_keys
        self._rng = np.random.default_rng(seed)

    def sample(self):
        return int(self._rng.integers(0, self.n_keys))

    def sample_block(self, count):
        """Draw ``count`` keys in one vectorized call.

        numpy's bounded-integer sampler is elementwise, so the block is
        the exact same stream ``count`` single :meth:`sample` calls
        would produce — callers may buffer blocks without changing any
        simulated result, they only pay the numpy call overhead once.
        """
        return self._rng.integers(0, self.n_keys, size=count).tolist()

    def sample_distinct(self, count):
        """Draw ``count`` distinct keys (for multi-key transactions)."""
        if count > self.n_keys:
            raise ValueError("more distinct keys requested than exist")
        return [int(k) for k in
                self._rng.choice(self.n_keys, size=count, replace=False)]


@functools.lru_cache(maxsize=4)
def _zipf_tables(n_keys, coefficient, permutation_seed):
    """``(cdf, rank_to_key)`` of one Zipf distribution, read-only.

    Every client of an experiment draws from the same tables, so they
    are built once and shared; only the sampling stream is per-client.
    """
    ranks = np.arange(1, n_keys + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** (-coefficient))
    cdf /= cdf[-1]
    # Permute ranks onto key ids. The permutation seed must be SHARED
    # by all clients of one experiment (contention requires everyone to
    # agree on which keys are hot); the sampling stream is per-client.
    rank_to_key = np.random.default_rng(
        permutation_seed ^ 0x5EED).permutation(n_keys)
    cdf.flags.writeable = False
    rank_to_key.flags.writeable = False
    return cdf, rank_to_key


class ZipfKeys:
    """Zipf(``coefficient``) key choice over ``[0, n_keys)``.

    ``coefficient == 0`` degenerates to uniform, matching the leftmost
    points of Figs. 7 and 10.
    """

    def __init__(self, n_keys, coefficient, seed=0, permutation_seed=0):
        if coefficient < 0:
            raise ValueError("zipf coefficient must be >= 0")
        self.n_keys = n_keys
        self.coefficient = coefficient
        self._rng = np.random.default_rng(seed)
        self._cdf, self._rank_to_key = _zipf_tables(
            n_keys, coefficient, permutation_seed)

    def sample(self):
        u = self._rng.random()
        rank = int(np.searchsorted(self._cdf, u, side="left"))
        return int(self._rank_to_key[min(rank, self.n_keys - 1)])

    def sample_block(self, count):
        """Vectorized draw, stream-identical to ``count`` singles
        (``rng.random(count)`` advances PCG64 exactly like ``count``
        scalar draws; the searchsorted/table steps are elementwise)."""
        us = self._rng.random(count)
        ranks = np.minimum(np.searchsorted(self._cdf, us, side="left"),
                           self.n_keys - 1)
        return self._rank_to_key[ranks].tolist()

    def sample_distinct(self, count):
        if count > self.n_keys:
            raise ValueError("more distinct keys requested than exist")
        seen = []
        while len(seen) < count:
            key = self.sample()
            if key not in seen:
                seen.append(key)
        return seen


def make_distribution(n_keys, zipf=0.0, seed=0, permutation_seed=0):
    """Uniform when ``zipf`` is 0/None, Zipf otherwise."""
    if not zipf:
        return UniformKeys(n_keys, seed=seed)
    return ZipfKeys(n_keys, zipf, seed=seed,
                    permutation_seed=permutation_seed)
