"""Counter-based stream statistics and determinism."""

import math

import numpy as np

from jjswitch import rng


def test_pure_function_of_coordinates():
    keys = rng.stream_keys(123, np.arange(10))
    a = rng.uniform_at(keys, 5)
    b = rng.uniform_at(keys, 5)
    assert np.array_equal(a, b)


def test_block_matches_pointwise():
    # one counter per key: draws 10..59 of stream 3 in one call
    keys = rng.stream_keys(99, np.full(50, 3))
    block = rng.uniform_at(keys, np.arange(10, 60))
    single = np.array([rng.uniform_at(rng.stream_keys(99, 3), 10 + k) for k in range(50)])
    assert np.array_equal(block, single)


def test_streams_differ():
    keys = rng.stream_keys(1, np.arange(4))
    u = rng.uniform_at(keys, 0)
    assert len(set(u.tolist())) == 4


def test_uniformity_moments():
    keys = rng.stream_keys(2024, np.arange(200))
    draws = np.stack([rng.uniform_at(keys, c) for c in range(500)])
    flat = draws.ravel()
    assert abs(flat.mean() - 0.5) < 0.002
    assert abs(flat.var() - 1.0 / 12.0) < 0.001
    assert flat.min() >= 0.0 and flat.max() < 1.0
    # neighbouring-counter correlation: zero within ~3 sigma of sampling noise
    x, y = draws[:-1].ravel(), draws[1:].ravel()
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 3.5 / math.sqrt(x.size)


def test_derive_seed_range_and_spread():
    seeds = {rng.derive_seed(7, k) for k in range(100)}
    assert len(seeds) == 100
    assert all(0 <= s < 2**63 for s in seeds)
