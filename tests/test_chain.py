import math
from fractions import Fraction

import numpy as np
import pytest

from chainlearn import rng
from chainlearn.chain import (
    ContractiveChain,
    DyadicState,
    arc_length_measure,
    invariant_measure,
    kernel_pushforward,
    lemma_atom_check,
    n_step_kernel,
    one_step_w1,
    simulate_x_blocks,
    trajectory_exact,
)
from chainlearn.state_space import graph_point, make_space, make_target
from chainlearn.transport import (
    SizeError,
    wasserstein1_exact,
    wasserstein1_monotone_upper,
)

IDENTITY = make_target("identity")
TENT = make_target("tent")
CHAIN = ContractiveChain(make_space(IDENTITY))


def simulate(x0, n, seed, replication_indices):
    """x-trajectories of the given replications, shape (reps, n): the
    simulator's blocks joined end to end."""
    stream = rng.derive(seed, rng.TRAJECTORY)
    return np.concatenate(list(simulate_x_blocks(x0, n, stream, replication_indices)), axis=-1)


def simulate_one(x0, n, seed, replication_index=0):
    """The x-trajectory of a single replication."""
    return simulate(np.array([x0]), n, seed, np.array([replication_index]))[0]


def test_trajectory_length_one():
    xs = simulate_one(0.0, 1, seed=5)
    assert xs.shape == (1,) and xs[0] == 0.0


def test_trajectory_determinism():
    a = simulate_one(0.3, 100, seed=7, replication_index=0)
    b = simulate_one(0.3, 100, seed=7, replication_index=0)
    assert np.array_equal(a, b)
    c = simulate_one(0.3, 100, seed=7, replication_index=1)
    assert not np.array_equal(a, c)


def test_trajectory_branch_structure():
    xs = simulate_one(0.77, 200, seed=9)
    for k in range(1, 200):
        options = (xs[k - 1] / 2, (xs[k - 1] + 1) / 2)
        assert min(abs(xs[k] - o) for o in options) <= 1e-15


def test_trajectory_mean_matches_uniform_invariant():
    xs = simulate_one(0.0, 10_000, seed=7)
    assert abs(xs.mean() - 0.5) < 0.02


def test_batch_matches_scalar_stream_across_step_blocks():
    from chainlearn.chain import STEP_BLOCK

    n = 2 * STEP_BLOCK + 3
    reps = np.array([0, 5])
    stream = rng.derive(19, rng.TRAJECTORY)
    shapes = [b.shape for b in simulate_x_blocks(np.array([0.3, 1.0]), n, stream, reps)]
    assert shapes == [(2, STEP_BLOCK), (2, STEP_BLOCK), (2, 3)]
    xs = simulate(np.array([0.3, 1.0]), n, seed=19, replication_indices=reps)
    for row, (rep, x) in enumerate(zip(reps, (0.3, 1.0))):
        expected = [x]
        for k in range(1, n):
            expected.append((expected[-1] + rng.bit(stream, int(rep), k)) / 2.0)
        assert np.array_equal(xs[row], expected)


def _scalar_trajectory(x0, n, stream, lane):
    expected = [float(x0)]
    for k in range(1, n):
        expected.append((expected[-1] + rng.bit(stream, lane, k)) / 2.0)
    return expected


def test_one_step_blocks_above_budget_match_scalar_stream():
    from chainlearn.chain import BUDGET

    n = 4
    lanes = np.arange(BUDGET + 1, dtype=np.uint64)
    stream = rng.derive(23, rng.TRAJECTORY)
    probes = [0, 1, BUDGET // 2, BUDGET]
    columns = []
    for block in simulate_x_blocks(0.25, n, stream, lanes):
        assert block.shape == (BUDGET + 1, 1)
        columns.append(block[probes, 0])
    xs = np.stack(columns, axis=-1)
    for row, lane in enumerate(probes):
        assert xs[row].tolist() == _scalar_trajectory(0.25, n, stream, lane)


def test_two_dimensional_lanes_match_scalar_stream():
    n = 9
    lanes = np.arange(12, dtype=np.uint64).reshape(3, 4)
    x0 = np.array([0.1, 0.5, 1.0])[:, None]
    stream = rng.derive(31, rng.TRAJECTORY)
    xs = np.concatenate(list(simulate_x_blocks(x0, n, stream, lanes)), axis=-1)
    assert xs.shape == (3, 4, n)
    for i in range(3):
        for j in range(4):
            assert xs[i, j].tolist() == _scalar_trajectory(x0[i, 0], n, stream, int(lanes[i, j]))


@pytest.mark.parametrize("lanes", [np.arange(7) * 3, np.arange(12).reshape(3, 4)])
@pytest.mark.parametrize("budget", [12, 40])  # blocks 1 step wide, or 5 and 3
def test_blocks_are_lane_major_views_of_step_major_memory(monkeypatch, lanes, budget):
    from chainlearn import chain

    monkeypatch.setattr(chain, "BUDGET", budget)
    n = 11
    x0 = np.linspace(0.0, 1.0, lanes.shape[0]).reshape((-1,) + (1,) * (lanes.ndim - 1))
    stream = rng.derive(37, rng.TRAJECTORY)
    blocks = list(simulate_x_blocks(x0, n, stream, lanes))
    assert len(blocks) > 1
    for block in blocks:
        assert block.shape[:-1] == lanes.shape
        assert np.moveaxis(block, -1, 0).flags.c_contiguous  # one row per step
        assert lanes.ndim > 1 or block.T.flags.c_contiguous
    xs = np.concatenate(blocks, axis=-1)
    x0 = np.broadcast_to(x0, lanes.shape)
    for idx in np.ndindex(lanes.shape):
        assert xs[idx].tolist() == _scalar_trajectory(x0[idx], n, stream, int(lanes[idx]))


def test_lane_keys_hashed_once_and_x0_block_draws_no_bits(monkeypatch):
    from chainlearn import chain

    key_calls, drawn, buffers, floats = [], [], set(), []
    bit_keys, keyed_bits = rng.bit_keys, rng.keyed_bits

    def keys_spy(seed, lanes):
        key_calls.append(np.size(lanes))
        return bit_keys(seed, lanes)

    def bits_spy(keys, indices, work):
        drawn.append(np.asarray(indices).tolist())
        buffers.add(work[1].__array_interface__["data"][0])
        floats.append(keyed_bits(keys, indices, work))
        f, w = floats[-1], work[0]  # the bits, as floats, in the words' memory
        assert (f.ctypes.data, f.shape, f.strides) == (w.ctypes.data, w.shape, w.strides)
        return floats[-1]

    monkeypatch.setattr(rng, "bit_keys", keys_spy)
    monkeypatch.setattr(rng, "keyed_bits", bits_spy)
    stream = rng.derive(3, rng.TRAJECTORY)
    lanes = np.arange(5)

    monkeypatch.setattr(chain, "BUDGET", 4)  # one step per block
    blocks = list(simulate_x_blocks(0.0, 4, stream, lanes))
    xs = np.concatenate(blocks, axis=-1)
    assert key_calls == [5]
    assert drawn == [[1], [2], [3]]
    assert len(buffers) == 1  # every draw reuses the call's one spare buffer
    # each draw's floats were written in its block's own memory
    assert [np.shares_memory(f, b) for f, b in zip(floats, blocks[1:])] == [True] * 3
    for lane in range(5):
        assert xs[lane].tolist() == _scalar_trajectory(0.0, 4, stream, lane)

    key_calls.clear()
    drawn.clear()
    list(simulate_x_blocks(0.0, 1, stream, lanes))
    assert key_calls == [5] and drawn == []


@pytest.mark.parametrize("width", [1, 3, 5, 40])
def test_width_keyword_sets_the_blocks_not_the_states(width):
    n = 11
    lanes = np.arange(6) * 5
    stream = rng.derive(41, rng.TRAJECTORY)
    blocks = list(simulate_x_blocks(0.5, n, stream, lanes, width=width))
    assert [b.shape[-1] for b in blocks] == [min(width, n - lo) for lo in range(0, n, width)]
    xs = np.concatenate(blocks, axis=-1)
    for row, lane in enumerate(lanes):
        assert xs[row].tolist() == _scalar_trajectory(0.5, n, stream, int(lane))


def test_float_trajectory_follows_exact_dyadic_states():
    exact = trajectory_exact(CHAIN, DyadicState(()), 40, seed=29, replication_index=3)
    xs = simulate_one(0.0, 41, seed=29, replication_index=3)
    assert [float(state.value()) for state in exact] == list(xs)


def test_replication_order_independence():
    reps = np.array([3, 1, 2])
    a = simulate(np.zeros(3), 40, seed=17, replication_indices=reps)
    b = simulate(np.zeros(3), 40, seed=17, replication_indices=reps[::-1])
    assert np.array_equal(a, b[::-1])


def test_trajectory_exact_bit_prepend():
    states = trajectory_exact(CHAIN, DyadicState(()), 3, bits=[1, 0, 1])
    values = [s.value() for s in states]
    assert values == [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(5, 8)]


def test_trajectory_exact_single_step():
    states = trajectory_exact(CHAIN, DyadicState((1,)), 1, bits=[0])
    assert states[-1].value() == Fraction(1, 4)


def test_trajectory_exact_stays_dyadic():
    states = trajectory_exact(CHAIN, DyadicState(()), 200, seed=23)
    for s in states:
        v = s.value()
        assert v.denominator & (v.denominator - 1) == 0  # a power of two
        assert 0 <= v < 1


def test_one_step_kernel_examples():
    k = n_step_kernel(CHAIN, graph_point(0.0, IDENTITY), 1)
    assert np.array_equal(k.xs, [0.0, 0.5]) and np.array_equal(k.weights, [0.5, 0.5])
    k = n_step_kernel(CHAIN, graph_point(1.0, IDENTITY), 1)
    assert np.array_equal(k.xs, [0.5, 1.0])
    assert k.weights.sum() == 1.0


def test_n_step_kernel_example():
    k = n_step_kernel(CHAIN, graph_point(0.0, IDENTITY), 2)
    assert np.array_equal(k.xs, [0.0, 0.25, 0.5, 0.75])
    assert np.array_equal(k.weights, np.full(4, 0.25))


def test_n_step_kernel_consistency_with_one_step():
    z = graph_point(0.3, IDENTITY)
    k1 = n_step_kernel(CHAIN, z, 1)
    assert np.array_equal(k1.xs, [z.x / 2.0, (z.x + 1.0) / 2.0])
    assert np.array_equal(k1.ys, k1.xs) and np.array_equal(k1.weights, [0.5, 0.5])


def test_n_step_kernel_counts_and_weights():
    z = graph_point(0.123, IDENTITY)
    for n in (1, 3, 6):
        k = n_step_kernel(CHAIN, z, n)
        assert len(k) == 2**n
        assert np.all(k.weights == 2.0**-n)


def test_n_step_kernel_chapman_kolmogorov():
    z = graph_point(0.6, TENT)
    chain = ContractiveChain(make_space(TENT))
    for n in (2, 4):
        prev = n_step_kernel(chain, z, n - 1)
        pushed = kernel_pushforward(chain, prev)
        direct = n_step_kernel(chain, z, n)
        assert np.allclose(np.sort(pushed.xs), np.sort(direct.xs), atol=1e-12)


def test_n_step_kernel_size_error():
    with pytest.raises(SizeError):
        n_step_kernel(CHAIN, graph_point(0.0, IDENTITY), 21)


def test_invariant_measure_examples():
    m4 = invariant_measure(CHAIN, 4)
    assert np.array_equal(m4.xs, [0.125, 0.375, 0.625, 0.875])
    assert np.array_equal(m4.weights, np.full(4, 0.25))
    m2 = invariant_measure(CHAIN, 2)
    assert np.array_equal(m2.xs, [0.25, 0.75])


def test_invariant_measure_pushforward_refines_dyadically():
    for k in (3, 5):
        coarse = invariant_measure(CHAIN, 2**k)
        pushed = kernel_pushforward(CHAIN, coarse)
        fine = invariant_measure(CHAIN, 2 ** (k + 1))
        assert np.allclose(pushed.xs, fine.xs, atol=1e-15)
        assert np.allclose(pushed.weights, fine.weights, atol=1e-15)
        d, _ = wasserstein1_exact(coarse, pushed)
        assert d <= math.sqrt(1 + IDENTITY.lip**2) / 2**k


def test_kernel_decay_to_invariant_measure():
    z0 = graph_point(0.0, IDENTITY)
    pi_hat = invariant_measure(CHAIN, 512)
    for n in (1, 3, 5):
        d, _ = wasserstein1_exact(n_step_kernel(CHAIN, z0, n), pi_hat)
        expected = math.sqrt(2) * 2.0 ** -(n + 1)
        assert abs(d - expected) <= math.sqrt(2) / 512 + 1e-9


def test_invariance_defect_pushforward_vs_arclength():
    target = make_target("quadratic")
    chain = ContractiveChain(make_space(target))
    pushforward, arc = (
        wasserstein1_exact(m, kernel_pushforward(chain, m))[0]
        for m in (invariant_measure(chain, 128), arc_length_measure(chain, 128))
    )
    # the uniform pushforward is invariant up to discretization ...
    assert pushforward <= math.sqrt(1 + target.lip**2) / 128
    # ... while normalized arc length is not invariant for curved targets
    assert arc > 5 * pushforward


def test_arc_length_equals_pushforward_for_affine():
    chain = ContractiveChain(make_space(IDENTITY))
    arc = arc_length_measure(chain, 64)
    uni = invariant_measure(chain, 64)
    assert np.allclose(arc.weights, uni.weights, atol=1e-12)


def test_lemma_atom_check_identity_passes():
    report = lemma_atom_check(CHAIN, probe_count=16, tolerance=1e-9, seed=1)
    assert report.passed and report.worst_violation == 0.0


def test_lemma_atom_check_affine_passes():
    chain = ContractiveChain(make_space(make_target("affine", a=0.5, b=0.1)))
    report = lemma_atom_check(chain, probe_count=16, tolerance=1e-9, seed=1)
    assert report.passed


def test_lemma_atom_check_tent_fails():
    chain = ContractiveChain(make_space(TENT))
    report = lemma_atom_check(chain, probe_count=16, tolerance=1e-9, seed=1)
    assert not report.passed
    assert report.worst_violation > 0.0


def test_lemma_atom_check_sees_every_preimage():
    # on a constant target every grid point is a preimage of the one level;
    # the ends of the domain have the farthest kernels
    chain = ContractiveChain(make_space(make_target("constant", c=0.3)))
    report = lemma_atom_check(chain, 16, 1e-9, 1)
    assert report.worst_violation == one_step_w1(chain, 0.0, 1.0) == 0.5
    assert report.worst_preimages == (0.0, 1.0) and not report.passed


def test_lemma_atom_check_tent_quarter_level():
    # preimages 1/4 and 3/4 push to kernels on x in {1/8, 5/8} vs {3/8, 7/8}
    chain = ContractiveChain(make_space(TENT))
    mu = n_step_kernel(chain, graph_point(0.25, TENT), 1)
    nu = n_step_kernel(chain, graph_point(0.75, TENT), 1)
    assert np.allclose(mu.xs, [0.125, 0.625]) and np.allclose(nu.xs, [0.375, 0.875])
    gap, _ = wasserstein1_exact(mu, nu)
    assert gap == pytest.approx(math.sqrt(2) / 4, abs=1e-12)


def kernel_pair(chain, x1, x2):
    target = chain.space.target
    return (
        n_step_kernel(chain, graph_point(x1, target), 1),
        n_step_kernel(chain, graph_point(x2, target), 1),
    )


# the ends of the domain, equal states and interior pairs
W1_PAIRS = [
    (0.0, 1.0), (1.0, 0.0), (0.0, 0.37), (0.62, 1.0), (0.0, 0.0), (1.0, 1.0),
    (0.41, 0.41), (0.2, 0.7), (0.9, 0.15), (0.3, 0.31),
]
# on the tent, kernels at a small and a large x are coupled across 1/2
TENT_SWAPS = [(0.0, 1.0), (0.1, 0.9), (0.05, 0.8), (0.95, 0.2), (0.0, 0.85)]


@pytest.mark.parametrize(
    "name, params",
    [("identity", {}), ("tent", {}), ("quadratic", {}), ("affine", {"a": -0.8, "b": 0.9}),
     ("constant", {"c": 0.3})],
    ids=["identity", "tent", "quadratic", "affine", "constant"],
)
def test_one_step_w1_equals_general_solver(name, params):
    target = make_target(name, **params)
    chain = ContractiveChain(make_space(target))
    pairs = W1_PAIRS + (TENT_SWAPS if name == "tent" else [])
    x1, x2 = np.array(pairs).T
    expected = [wasserstein1_exact(*kernel_pair(chain, a, b))[0] for a, b in pairs]
    assert one_step_w1(chain, x1, x2).tolist() == expected


def test_one_step_w1_takes_the_swap_on_the_tent():
    chain = ContractiveChain(make_space(TENT))
    for x1, x2 in TENT_SWAPS:
        mu, nu = kernel_pair(chain, x1, x2)
        d, _ = wasserstein1_exact(mu, nu)
        assert wasserstein1_monotone_upper(mu, nu) > d  # the staircase loses
        assert one_step_w1(chain, x1, x2) == d
