"""Counter-based random streams.

Every random quantity in the library is a pure function of
(master seed, lane, index), so replications are independent streams that can
be generated in any order, in parallel, with bitwise-reproducible results.
The word function is a splitmix64-style finalizer applied to the keyed
counter; lanes are decorrelated by large odd multipliers.

A branch bit is the top bit of a word.  The finalizer's last step,
x ^= x >> 31, leaves bit 63 as it was, so `keyed_bits` stops one step
early and compares against 2^63: the same bits for two fewer passes over
the words.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_LANE_MUL = 0xA24BAED4963EE407
_INDEX_MUL = 0x9FB21C651E98DF25
_PURPOSE_MUL = 0xD6E8FEB86659FD93


def _mix(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def derive(seed: int, purpose: int) -> int:
    """Sub-seed for an independent purpose lane (trajectories, probes, ...)."""
    return _mix((seed ^ (purpose * _PURPOSE_MUL)) & _MASK)


def word(seed: int, lane: int, index: int) -> int:
    """64-bit word at position (lane, index) of the stream keyed by seed."""
    h = _mix((seed ^ (lane * _LANE_MUL)) & _MASK)
    return _mix((h ^ (index * _INDEX_MUL)) & _MASK)


def bit(seed: int, lane: int, index: int) -> int:
    return word(seed, lane, index) >> 63


def uniform(seed: int, lane: int, index: int) -> float:
    """Uniform value in [0, 1) with 53 random bits."""
    return (word(seed, lane, index) >> 11) * 2.0**-53


# Vectorized counterparts.  numpy >= 2 keeps Python-int operands in uint64,
# and unsigned arithmetic wraps mod 2^64, matching the scalar versions bit
# for bit.  The key of a lane is fixed and only the index moves along its
# stream, so a caller drawing many indices per lane hashes the keys once
# with `lane_keys` and draws from them with `keyed_words`, or with
# `keyed_bits` when it needs only the branch bits.

def _mix_top_np(x: np.ndarray) -> np.ndarray:
    """All of `_mix` but its last xor-shift, which keeps the top bit, in
    place; callers pass temporaries."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    return x


def _mix_np(x: np.ndarray) -> np.ndarray:
    """Mix a uint64 array in place and return it; callers pass temporaries."""
    x = _mix_top_np(x)
    x ^= x >> np.uint64(31)
    return x


def lane_keys(seed: int, lanes: np.ndarray) -> np.ndarray:
    """The stream key of each lane of `seed`, as `word` computes it."""
    lanes = np.asarray(lanes, dtype=np.uint64)
    return _mix_np(np.uint64(seed & _MASK) ^ (lanes * np.uint64(_LANE_MUL)))


def keyed_words(keys: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """64-bit words at the given indices of the streams with these keys."""
    indices = np.asarray(indices, dtype=np.uint64)
    return _mix_np(keys ^ (indices * np.uint64(_INDEX_MUL)))


def keyed_bits(keys: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The top bits of `keyed_words` as booleans, step-major: entry
    [i..., l...] is bit 63 of the word at indices[i...] of the stream with
    key keys[l...], so the shape is indices.shape + keys.shape."""
    indices = np.asarray(indices, dtype=np.uint64)
    x = (indices * np.uint64(_INDEX_MUL)).reshape(indices.shape + (1,) * np.ndim(keys))
    return _mix_top_np(x ^ keys) >= np.uint64(1 << 63)


def uniform_array(seed: int, lanes: np.ndarray, indices: np.ndarray) -> np.ndarray:
    return (keyed_words(lane_keys(seed, lanes), indices) >> np.uint64(11)) * 2.0**-53


# Purpose tags used across the library.
TRAJECTORY = 1
INITIAL_STATE = 2
PAIR_SAMPLING = 3
WITNESS = 4
POISSON = 5
PROBE = 6
