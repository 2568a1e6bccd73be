"""Counter-based random streams.

Every random quantity in the library is a pure function of
(master seed, lane, index), so replications are independent streams that can
be generated in any order, in parallel, with bitwise-reproducible results.
The word function is a splitmix64-style finalizer applied to the keyed
counter; lanes are decorrelated by large odd multipliers.

A branch bit is the top bit of a word.  The finalizer's last step,
x ^= x >> 31, leaves bit 63 as it was, so `keyed_bits` stops one step
early and shifts it down.  Its first step is linear over GF(2): with
L(v) = v ^ (v >> 30), the word at (lane key k, index i) starts from
L(k ^ c) = L(k) ^ L(c) for c = i * _INDEX_MUL.  So `bit_keys` applies L to
the lane keys once, and a draw from them costs one xor with the per-index
L(c), the multiply, the middle xor-shift, the second multiply and the
shift: the same bits for six passes over the words instead of eight.  The
bit b, 0 or 1, times the bit pattern of the float 1.0 is the bit pattern
of the float b, so one more multiply hands the caller floats in the
words' own memory, ready to be added to float states.
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
# with `lane_keys` and draws from them with `keyed_words`, or hashes them
# with `bit_keys` and draws with `keyed_bits` when it needs only the branch
# bits.

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(0x3FF0000000000000)  # the bit pattern of the float 1.0


def _mix_np(x: np.ndarray) -> np.ndarray:
    """Mix a uint64 array in place and return it; callers pass temporaries."""
    x ^= x >> np.uint64(30)
    x *= _M1
    x ^= x >> np.uint64(27)
    x *= _M2
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


def bit_keys(seed: int, lanes: np.ndarray) -> np.ndarray:
    """The keys `keyed_bits` draws from: each lane's `lane_keys` key k with
    the mixer's first xor-shift applied, k ^ (k >> 30)."""
    keys = lane_keys(seed, lanes)
    return keys ^ (keys >> np.uint64(30))


def keyed_bits(
    keys: np.ndarray,
    indices: np.ndarray,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The top bits of `keyed_words` as the floats 1.0 and 0.0, step-major:
    entry [i..., l...] is bit 63 of the word at indices[i...] of the stream
    whose `bit_keys` key is keys[l...], so the shape is indices.shape +
    keys.shape.

    The words are drawn, and the floats written, into the first uint64
    array of `work` and the draw's other words into the second, each of
    the result's shape, so a caller drawing block after block allocates
    nothing the size of a block per draw.  The result is a float64 view of
    the first array, or of a new one without `work`."""
    indices = np.asarray(indices, dtype=np.uint64)
    c = indices * np.uint64(_INDEX_MUL)
    c = (c ^ (c >> np.uint64(30))).reshape(indices.shape + (1,) * np.ndim(keys))
    words, spare = (None, None) if work is None else work
    x = np.bitwise_xor(c, keys, out=words)
    x *= _M1
    x ^= np.right_shift(x, np.uint64(27), out=spare)
    x *= _M2
    x >>= np.uint64(63)
    x *= _ONE
    return x.view(np.float64)


def uniform_array(seed: int, lanes: np.ndarray, indices: np.ndarray) -> np.ndarray:
    return (keyed_words(lane_keys(seed, lanes), indices) >> np.uint64(11)) * 2.0**-53


# Purpose tags used across the library.
TRAJECTORY = 1
INITIAL_STATE = 2
PAIR_SAMPLING = 3
WITNESS = 4
POISSON = 5
PROBE = 6
