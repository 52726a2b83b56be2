"""Counter-based random streams for reproducible parallel Monte Carlo.

Every trajectory (or ramp) owns a stream addressed by (master_seed,
stream_index); the n-th uniform of a stream is a pure function of
(master_seed, stream_index, n).  Draws therefore never depend on execution
order, batching, or worker count, which is what makes byte-identical
parallel runs possible.  The quantum-jump engine reads draw 2j of a
trajectory's stream as the threshold of its jump j and draw 2j+1 as that
jump's channel, so each trajectory reads its own counter.

The generator is a SplitMix64-style avalanche applied to a per-stream key
plus a Weyl-sequence counter: statistically solid for Monte Carlo sampling
and trivially vectorizable with numpy uint64 arithmetic.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
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


def uniform_at(keys: np.ndarray, counters) -> np.ndarray:
    """Uniform [0, 1) draw number counters[i] of stream keys[i]; a scalar
    counter is read from every stream."""
    with np.errstate(over="ignore"):
        z = _mix(keys + (np.asarray(counters, dtype=np.uint64) + np.uint64(1)) * _GOLDEN)
    return (z >> np.uint64(11)).astype(np.float64) * _TO_UNIT


def derive_seed(master_seed: int, index: int) -> int:
    """63-bit child seed for sweep points and similar sub-experiments."""
    return int(stream_keys(master_seed, index)) & 0x7FFFFFFFFFFFFFFF
