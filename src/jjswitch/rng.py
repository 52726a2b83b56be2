"""Counter-based random streams for reproducible parallel Monte Carlo.

Every trajectory (or ramp) owns a stream addressed by (master_seed,
stream_index); the n-th uniform of a stream is a pure function of
(master_seed, stream_index, n).  Draws therefore never depend on execution
order, batching, or worker count, which is what makes byte-identical
parallel runs possible.

The generator is a SplitMix64-style avalanche applied to a per-stream key
plus a Weyl-sequence counter: statistically solid for Monte Carlo sampling
and trivially vectorizable with numpy uint64 arithmetic.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_TO_UNIT = 2.0**-53


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: full-avalanche bijection on uint64."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _as_u64(value: int) -> np.uint64:
    return np.uint64(int(value) & 0xFFFFFFFFFFFFFFFF)


def stream_keys(master_seed: int, stream_indices) -> np.ndarray:
    """Decorrelated uint64 key per stream index (scalar or array)."""
    idx = np.asarray(stream_indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = _mix(_as_u64(master_seed) + _GOLDEN)
        return _mix(base ^ _mix((idx + np.uint64(1)) * _GOLDEN))


def uniform_at(keys: np.ndarray, counter: int) -> np.ndarray:
    """Uniform [0, 1) draw number `counter` for each stream key."""
    with np.errstate(over="ignore"):
        z = _mix(keys + _as_u64(counter + 1) * _GOLDEN)
    return (z >> np.uint64(11)).astype(np.float64) * _TO_UNIT


def uniforms(keys: np.ndarray, start: int, n: int) -> np.ndarray:
    """Uniforms [start, start + n) of each stream key: shape (n,) + keys.shape."""
    keys = np.asarray(keys, dtype=np.uint64)
    with np.errstate(over="ignore"):
        counters = np.arange(start + 1, start + n + 1, dtype=np.uint64) * _GOLDEN
        z = _mix(counters.reshape((n,) + (1,) * keys.ndim) + keys)
    return (z >> np.uint64(11)).astype(np.float64) * _TO_UNIT


def uniform_block(master_seed: int, stream_index: int, start: int, n: int) -> np.ndarray:
    """Uniforms [start, start + n) of one stream, as a vector."""
    return uniforms(stream_keys(master_seed, stream_index), start, n)


def derive_seed(master_seed: int, index: int) -> int:
    """63-bit child seed for sweep points and similar sub-experiments."""
    return int(stream_keys(master_seed, index)) & 0x7FFFFFFFFFFFFFFF
