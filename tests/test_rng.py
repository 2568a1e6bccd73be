import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlearn import rng

WORDS = st.integers(0, 2**64 - 1)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    seed=WORDS,
    lanes=st.lists(WORDS, min_size=1, max_size=6),
    indices=st.lists(WORDS, min_size=1, max_size=6),
)
def test_vector_words_match_scalar_word_bit_for_bit(seed, lanes, indices):
    lane_arr = np.array(lanes, dtype=np.uint64)[:, None]
    index_arr = np.array(indices, dtype=np.uint64)
    lane_copy, index_copy = lane_arr.copy(), index_arr.copy()
    expected = np.array([[rng.word(seed, a, i) for i in indices] for a in lanes], dtype=np.uint64)

    keys = rng.lane_keys(seed, lane_arr)
    key_copy = keys.copy()
    assert np.array_equal(rng.keyed_words(keys, index_arr), expected)
    # the in-place mixing only ever touches temporaries
    assert np.array_equal(keys, key_copy)
    assert np.array_equal(lane_arr, lane_copy)
    assert np.array_equal(index_arr, index_copy)

    uniforms = [[rng.uniform(seed, a, i) for i in indices] for a in lanes]
    assert np.array_equal(rng.uniform_array(seed, lane_arr, index_arr), uniforms)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    seed=WORDS,
    lanes=st.lists(st.one_of(WORDS, st.integers(2**64 - 4, 2**64 - 1)), min_size=1, max_size=6),
    indices=st.lists(st.one_of(st.just(0), WORDS), min_size=1, max_size=6),
)
def test_top_bit_draw_matches_words_and_scalar_bit(seed, lanes, indices):
    lane_arr = np.array(lanes, dtype=np.uint64)
    idx = np.array(indices, dtype=np.uint64)
    lane_copy, idx_copy = lane_arr.copy(), idx.copy()
    keys = rng.bit_keys(seed, lane_arr)
    key_copy = keys.copy()
    bits = rng.keyed_bits(keys, idx)
    assert bits.dtype == np.float64 and bits.shape == (idx.size, keys.size)  # step-major
    # the lane keys with the mixer's first xor-shift hoisted out of every draw
    words = rng.keyed_words(rng.lane_keys(seed, lane_arr)[None, :], idx[:, None])
    assert np.array_equal(bits, words >> np.uint64(63))
    assert bits.tolist() == [[float(rng.bit(seed, a, i)) for a in lanes] for i in indices]
    # exactly the floats 1.0 and +0.0, bit pattern by bit pattern
    patterns = np.where(words >> np.uint64(63), np.float64(1.0).view(np.uint64), np.uint64(0))
    assert np.array_equal(bits.view(np.uint64), patterns)
    # the same floats drawn into the first caller buffer and returned as its view
    work = (np.empty(bits.shape, dtype=np.uint64), np.empty(bits.shape, dtype=np.uint64))
    drawn = rng.keyed_bits(keys, idx, work)
    assert drawn.dtype == np.float64 and drawn.base is work[0]
    assert np.array_equal(drawn.view(np.uint64), patterns)
    # neither call writes into its inputs
    assert np.array_equal(keys, key_copy)
    assert np.array_equal(lane_arr, lane_copy)
    assert np.array_equal(idx, idx_copy)
