"""Solver checks against an independent oracle.

The oracle enumerates the vertices of the transportation polytope by
greedy exhaustion over every admissible cell order (with branch-and-bound
pruning); the LP optimum is attained at a vertex, so the minimum over
vertices is the exact distance.
"""

import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from chainlearn import rng
from chainlearn.chain import (
    ContractiveChain,
    arc_length_measure,
    invariant_measure,
    kernel_pushforward,
    lemma_atom_check,
    n_step_kernel,
)
from chainlearn.state_space import (
    DiscreteMeasure,
    chord_distances,
    graph_point,
    make_space,
    make_target,
    rho,
)
from chainlearn.transport import (
    SizeError,
    contraction_audit,
    kr_dual_lower,
    wasserstein1_exact,
    wasserstein1_monotone_upper,
)

IDENTITY = make_target("identity")
TENT = make_target("tent")
QUADRATIC = make_target("quadratic")
CHAIN = ContractiveChain(make_space(IDENTITY))


def vertex_coupling_minimum(a, b, cost):
    """Exhaustive minimum over basic feasible couplings (see module note)."""
    best = [math.inf]

    def recurse(rem_a, rem_b, active_a, active_b, acc):
        if acc >= best[0]:
            return
        if not active_a and not active_b:
            best[0] = acc
            return
        for i in active_a:
            for j in active_b:
                mass = min(rem_a[i], rem_b[j])
                na, nb = dict(rem_a), dict(rem_b)
                na[i] -= mass
                nb[j] -= mass
                keep_a = [k for k in active_a if not (k == i and na[i] <= 1e-15)]
                keep_b = [k for k in active_b if not (k == j and nb[j] <= 1e-15)]
                if len(keep_a) == len(active_a) and len(keep_b) == len(active_b):
                    continue  # no row/column exhausted: not a greedy vertex step
                recurse(na, nb, keep_a, keep_b, acc + mass * cost[i, j])

    recurse(
        {i: float(v) for i, v in enumerate(a)},
        {j: float(v) for j, v in enumerate(b)},
        list(range(len(a))),
        list(range(len(b))),
        0.0,
    )
    return best[0]


def random_measure(target, n_atoms, lane, seed=11, dyadic=False):
    s = rng.derive(seed, rng.PROBE)
    xs = np.array([rng.uniform(s, lane, 2 * k) for k in range(n_atoms)])
    if dyadic:
        choices = [0.25, 0.5]
        w = np.array([choices[rng.bit(s, lane, 2 * k + 1)] for k in range(n_atoms)])
        w = w / w.sum()
    else:
        w = np.array([rng.uniform(s, lane, 2 * k + 1) + 1e-3 for k in range(n_atoms)])
        w = w / w.sum()
    return DiscreteMeasure.on_graph(target, xs, w)


def cost_matrix(mu, nu):
    diff = mu.points()[:, None, :] - nu.points()[None, :, :]
    return np.sqrt((diff**2).sum(-1))


def plan_cells(plan):
    """The cells (i, j, mass) of a solver plan (rows, cols, masses), as
    Python numbers."""
    return list(zip(*(a.tolist() for a in plan)))


def same_plan(got, want):
    """Plans (rows, cols, masses) equal array for array, dtypes included."""
    return all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


def certified(mu, nu, on_line=None):
    """Route 1's plan of mu and nu, or None where `_optimal_plan` hands the
    pair to route 2; `on_line` stands in for the line bound's verdict."""
    import chainlearn.transport as tr

    if on_line is None:
        on_line = tr._near_one_line(mu, nu)
    with mock.patch.object(tr, "_transportation_lp", lambda *args: None):
        return tr._optimal_plan(mu, nu, on_line)


def lp_plan(mu, nu):
    """Route 2's plan of mu and nu, started as `_optimal_plan` starts it."""
    import chainlearn.transport as tr

    stairs = tr._staircase(mu.weights, nu.weights)
    return tr._transportation_lp(mu, nu, stairs, tr._stair_duals(mu, nu, stairs))


def spy_blocks(monkeypatch):
    """The list that gets one entry per `_reduced_blocks` call."""
    import chainlearn.transport as tr

    calls = []
    real = tr._reduced_blocks
    monkeypatch.setattr(tr, "_reduced_blocks", lambda *args: calls.append(1) or real(*args))
    return calls


def plan_marginals(plan, m, n):
    row = np.zeros(m)
    col = np.zeros(n)
    for i, j, mass in plan_cells(plan):
        row[i] += mass
        col[j] += mass
    return row, col


def test_identical_measures():
    mu = random_measure(TENT, 4, lane=0)
    d, plan = wasserstein1_exact(mu, mu)
    assert d == pytest.approx(0.0, abs=1e-12)


def test_two_single_atoms():
    z1 = graph_point(0.2, IDENTITY)
    z2 = graph_point(0.9, IDENTITY)
    mu = DiscreteMeasure([z1.x], [z1.y], [1.0])
    nu = DiscreteMeasure([z2.x], [z2.y], [1.0])
    d, _ = wasserstein1_exact(mu, nu)
    assert d == pytest.approx(math.hypot(0.7, 0.7), abs=1e-12)


def test_kernel_pair_example():
    mu = n_step_kernel(CHAIN, graph_point(0.0, IDENTITY), 1)
    nu = n_step_kernel(CHAIN, graph_point(1.0, IDENTITY), 1)
    d, plan = wasserstein1_exact(mu, nu)
    assert d == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_solver_matches_vertex_enumeration():
    # float and dyadic weights on the tent and the identity exercise the
    # certified and LP routes; test_routes_are_pinned_and_exact pins both
    worst = 0.0
    for trial in range(60):
        target = TENT if trial % 2 else IDENTITY
        m = 1 + trial % 4
        n = 1 + (trial // 2) % 4
        mu = random_measure(target, m, lane=trial, dyadic=(trial % 3 == 0) and m in (2, 4))
        nu = random_measure(target, n, lane=1000 + trial)
        d, plan = wasserstein1_exact(mu, nu)
        ref = vertex_coupling_minimum(
            mu.merged().weights, nu.merged().weights, cost_matrix(mu.merged(), nu.merged())
        )
        worst = max(worst, abs(d - ref))
    assert worst <= 1e-9


QUARTER_HALF_PARTITIONS = ([0.5, 0.5], [0.5, 0.25, 0.25], [0.25] * 4)


def test_solver_exact_on_quarter_half_weights():
    s = rng.derive(77, rng.PROBE)
    worst = 0.0
    for trial in range(30):
        wa = QUARTER_HALF_PARTITIONS[trial % 3]
        wb = QUARTER_HALF_PARTITIONS[(trial + 1) % 3]
        xa = np.sort([rng.uniform(s, trial, k) for k in range(len(wa))])
        xb = np.sort([rng.uniform(s, 500 + trial, k) for k in range(len(wb))])
        mu = DiscreteMeasure.on_graph(TENT, xa, np.asarray(wa))
        nu = DiscreteMeasure.on_graph(TENT, xb, np.asarray(wb))
        d, _ = wasserstein1_exact(mu, nu)
        ref = vertex_coupling_minimum(mu.weights, nu.weights, cost_matrix(mu, nu))
        worst = max(worst, abs(d - ref))
    assert worst <= 1e-9


def dense_lp_cost(a, b, cost):
    """Optimal cost of the full transportation LP, every cell a variable."""
    m, n = cost.shape
    rows = np.kron(np.eye(m), np.ones((1, n)))  # sum over j of x_ij = a_i
    cols = np.kron(np.ones((1, m)), np.eye(n))  # sum over i of x_ij = b_j
    res = linprog(
        cost.ravel(),
        A_eq=np.vstack([rows, cols]),
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return res.fun


def test_solver_matches_direct_lp_mid_size():
    s = rng.derive(99, rng.PROBE)
    worst = 0.0
    for trial in range(12):
        target = make_target(("tent", "quadratic", "identity")[trial % 3])
        m = int(5 + (trial * 7) % 45)
        n = int(5 + (trial * 11) % 45)
        xa = np.sort(rng.uniform_array(s, np.full(m, trial), 2 * np.arange(m)))
        xb = np.sort(rng.uniform_array(s, np.full(n, 700 + trial), 2 * np.arange(n)))
        wa = rng.uniform_array(s, np.full(m, trial), 2 * np.arange(m) + 1) + 1e-3
        wb = rng.uniform_array(s, np.full(n, 700 + trial), 2 * np.arange(n) + 1) + 1e-3
        mu = DiscreteMeasure.on_graph(target, xa, wa / wa.sum())
        nu = DiscreteMeasure.on_graph(target, xb, wb / wb.sum())
        d, _ = wasserstein1_exact(mu, nu)
        mm, nn = mu.merged(), nu.merged()
        ref = dense_lp_cost(mm.weights, nn.weights, cost_matrix(mm, nn))
        worst = max(worst, abs(d - ref))
    assert worst <= 1e-9


def test_restricted_lp_on_tent_kernels_is_optimal(monkeypatch):
    # n-step tent kernels against a uniform grid: the restricted LP must grow
    # in some cases and end, every time, on the dense optimum with duals
    # that price out every cell of the full matrix
    import chainlearn.transport as tr

    results = []

    def spy(*args, **kwargs):
        results.append(linprog(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(tr, "linprog", spy)
    chain = ContractiveChain(make_space(TENT))
    grid = invariant_measure(chain, 64)
    rounds = []
    for x0 in (0.0, 0.3):
        for n in range(1, 7):
            mu = n_step_kernel(chain, graph_point(x0, TENT), n)
            a, b, cost = mu.weights, grid.weights, cost_matrix(mu, grid)
            results.clear()
            plan = lp_plan(mu, grid)
            rounds.append(len(results))
            total = sum(mass * cost[i, j] for i, j, mass in plan_cells(plan))
            assert total == pytest.approx(dense_lp_cost(a, b, cost), rel=1e-12)
            duals = results[-1].eqlin.marginals
            u, v = duals[: len(a)], duals[len(a) :]
            assert a @ u + b @ v == pytest.approx(total, rel=1e-12)
            assert (cost - u[:, None] - v[None, :]).min() >= -tr._LP_TOL
    assert max(rounds) >= 2


def test_lp_starts_from_the_staircase_duals(monkeypatch):
    # the first support holds the most negative cells under the staircase's
    # duals, so no solve only rebuilds them: the tent decay solves n = 1..8
    # against the 1024-point grid take at most 15 HiGHS solves (23 when the
    # LP started from zero duals), and each pair's last solve has duals that
    # price out every cell of the full matrix
    import chainlearn.transport as tr

    results = []

    def spy(*args, **kwargs):
        results.append(linprog(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(tr, "linprog", spy)
    chain = ContractiveChain(make_space(TENT))
    grid = invariant_measure(chain, 1024)
    solves = []
    for n in range(1, 9):
        mu = n_step_kernel(chain, graph_point(0.0, TENT), n)
        before = len(results)
        wasserstein1_exact(mu, grid)
        solves.append(len(results) - before)
        mm, nn = mu.merged(), grid.merged()
        duals = results[-1].eqlin.marginals
        u, v = duals[: len(mm)], duals[len(mm) :]
        assert (cost_matrix(mm, nn) - u[:, None] - v[None, :]).min() >= -tr._LP_TOL
    assert min(solves) >= 1  # every pair reaches route 2
    assert sum(solves) <= 15


def test_plan_is_feasible_and_attains_cost():
    for trial in range(20):
        mu = random_measure(TENT, 1 + trial % 4, lane=trial, seed=5)
        nu = random_measure(TENT, 1 + (trial + 1) % 4, lane=50 + trial, seed=5)
        d, plan = wasserstein1_exact(mu, nu)
        mm, nn = mu.merged(), nu.merged()
        row, col = plan_marginals(plan, len(mm), len(nn))
        assert np.abs(row - mm.weights).max() <= 1e-9
        assert np.abs(col - nn.weights).max() <= 1e-9
        cost = cost_matrix(mm, nn)
        recomputed = sum(mass * cost[i, j] for i, j, mass in plan_cells(plan))
        assert recomputed == pytest.approx(d, rel=1e-9, abs=1e-12)


def test_certified_route_memory(monkeypatch):
    # route 1 builds no cost matrix: O(m + n) memory plus one row block; the
    # identity pair is accepted by the line bound, the quadratic pair by the
    # block check
    import chainlearn.transport as tr

    monkeypatch.setattr(tr, "_transportation_lp", None)  # the LP is not reached
    blocks = spy_blocks(monkeypatch)
    for target in (IDENTITY, QUADRATIC):
        chain = ContractiveChain(make_space(target))
        mu = n_step_kernel(chain, graph_point(0.3, target), 10)
        nu = invariant_measure(chain, 1024)
        tracemalloc.start()
        try:
            wasserstein1_exact(mu, nu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 1024 * 1024 * 8
    assert blocks == [1]


def test_certified_decay_solve_memory_at_the_atom_cap(monkeypatch):
    # the largest audit solve, 2^12 kernel atoms against the 4096-point grid,
    # in a few MiB; the full cost matrix alone would take 128 MiB.  The
    # identity pair is accepted by the line bound, the quadratic pair by the
    # block check
    import chainlearn.transport as tr

    monkeypatch.setattr(tr, "_transportation_lp", None)  # the LP is not reached
    blocks = spy_blocks(monkeypatch)
    for target in (IDENTITY, QUADRATIC):
        chain = ContractiveChain(make_space(target))
        mu = n_step_kernel(chain, graph_point(0.3, target), 12)
        nu = invariant_measure(chain, 4096)
        tracemalloc.start()
        try:
            wasserstein1_exact(mu, nu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024 * 1024
    assert blocks == [1]


BLOCK_TARGETS = {
    "identity": IDENTITY,
    "affine": make_target("affine", a=-0.7, b=0.9),
    "quadratic": QUADRATIC,
}


@pytest.mark.parametrize("cells", [1, 7003], ids=["one-row", "ragged"])
@pytest.mark.parametrize("name", BLOCK_TARGETS)
def test_certificate_blocks_leave_the_plan_unchanged(monkeypatch, name, cells):
    # one row per block, and 7003 cells (7 or 27 rows, with a short last
    # block), give the default block's plan and cost bit for bit; the line
    # bound is switched off, so the identity and affine pairs reach the
    # blocks too
    import chainlearn.transport as tr

    monkeypatch.setattr(tr, "_near_one_line", lambda mu, nu: False)
    blocks = spy_blocks(monkeypatch)
    target = BLOCK_TARGETS[name]
    chain = ContractiveChain(make_space(target))
    grid = invariant_measure(chain, 1000)
    pairs = [
        (n_step_kernel(chain, graph_point(0.3, target), 8), grid),
        (invariant_measure(chain, 257), grid),
        (grid, invariant_measure(chain, 257)),
    ]
    default = [(certified(mu, nu), wasserstein1_exact(mu, nu)) for mu, nu in pairs]
    monkeypatch.setattr(tr, "_BLOCK_CELLS", cells)
    for (mu, nu), (stair_plan, (d, plan)) in zip(pairs, default):
        assert stair_plan is not None and same_plan(certified(mu, nu), stair_plan)
        d_block, plan_block = wasserstein1_exact(mu, nu)
        assert d_block.hex() == d.hex() and same_plan(plan_block, plan)
    assert len(blocks) == 4 * len(pairs)


LINE_TARGETS = {
    "identity": IDENTITY,
    "affine": BLOCK_TARGETS["affine"],
    "constant": make_target("constant", c=0.3),
}


def audit_pairs(target, decay_grid=4096):
    """The W1 pairs of a contraction audit at x0 = 0: the kernels n = 1..12
    against the decay grid, then the two 128-atom invariant-measure
    candidates against their 256-atom pushforwards."""
    chain = ContractiveChain(make_space(target))
    grid = invariant_measure(chain, decay_grid)
    pairs = [(n_step_kernel(chain, graph_point(0.0, target), n), grid) for n in range(1, 13)]
    for m in (invariant_measure(chain, 128), arc_length_measure(chain, 128)):
        pairs.append((m, kernel_pushforward(chain, m)))
    return pairs


@pytest.mark.parametrize("name", LINE_TARGETS)
def test_line_pairs_price_no_block(monkeypatch, name):
    # the largest decay solve, 2^12 kernel atoms against the 4096-point grid,
    # is certified by the line bound alone, and its cost is the quantile
    # coupling's
    import chainlearn.transport as tr

    def unreachable(*args):
        raise AssertionError("a block of cells was priced")

    monkeypatch.setattr(tr, "_reduced_blocks", unreachable)
    monkeypatch.setattr(tr, "_transportation_lp", None)
    target = LINE_TARGETS[name]
    chain = ContractiveChain(make_space(target))
    mu = n_step_kernel(chain, graph_point(0.3, target), 12)
    nu = invariant_measure(chain, 4096)
    d, _ = wasserstein1_exact(mu, nu)
    assert d.hex() == wasserstein1_monotone_upper(mu, nu).hex()


@pytest.mark.parametrize("name", LINE_TARGETS)
def test_line_bound_plan_is_the_block_check_plan(name):
    # on every W1 pair of an audit at the atom cap, the line bound accepts
    # and the block check, called directly, accepts the same plan
    import chainlearn.transport as tr

    for mu, nu in audit_pairs(LINE_TARGETS[name]):
        assert tr._near_one_line(mu, nu)
        line, blocks = certified(mu, nu), certified(mu, nu, on_line=False)
        assert blocks is not None and same_plan(line, blocks)
        assert tr._plan_cost(mu, nu, *line).hex() == tr._plan_cost(mu, nu, *blocks).hex()


def lifted_identity_pair():
    """A kernel against the identity grid, one grid atom lifted by 1e-9."""
    mu = n_step_kernel(CHAIN, graph_point(0.3, IDENTITY), 5)
    nu = invariant_measure(CHAIN, 100)
    ys = nu.ys.copy()
    ys[50] += 1e-9
    return mu, DiscreteMeasure(nu.xs, ys, nu.weights)


def curve_pair(target):
    chain = ContractiveChain(make_space(target))
    return n_step_kernel(chain, graph_point(0.3, target), 5), invariant_measure(chain, 100)


@pytest.mark.parametrize(
    "pair",
    [lambda: curve_pair(QUADRATIC), lambda: curve_pair(TENT), lifted_identity_pair],
    ids=["quadratic", "tent", "lifted-identity"],
)
def test_pairs_off_the_line_reach_the_block_check(monkeypatch, pair):
    import chainlearn.transport as tr

    mu, nu = pair()
    assert not tr._near_one_line(mu, nu)
    blocks = spy_blocks(monkeypatch)
    d, _ = wasserstein1_exact(mu, nu)
    assert blocks
    dense = dense_lp_cost(mu.weights, nu.weights, cost_matrix(mu, nu))
    assert d == pytest.approx(dense, rel=1e-9)


def tie_link_pair():
    """Dyadic-weight tent measures whose staircase exhausts a row and a
    column at once, so it holds a zero-mass tie link."""
    return (
        random_measure(TENT, 8, lane=0, dyadic=True).merged(),
        random_measure(TENT, 9, lane=40, dyadic=True).merged(),
    )


def test_stair_duals_are_tight_on_the_staircase():
    # the one sweep behind the block check and route 2's first support gives
    # finite potentials whose sums are the costs on every staircase cell,
    # the zero-mass tie links included
    import chainlearn.transport as tr

    pairs = [tie_link_pair()]
    for trial in range(10):
        mu = random_measure(TENT, 2 + 5 * trial, lane=trial)
        nu = random_measure(TENT, 40 - 3 * trial, lane=60 + trial)
        pairs.append((mu.merged(), nu.merged()))
    for mu, nu in pairs:
        stairs = tr._staircase(mu.weights, nu.weights)
        u, v = tr._stair_duals(mu, nu, stairs)
        assert u.shape == (len(mu),) and v.shape == (len(nu),)
        assert np.isfinite(u).all() and np.isfinite(v).all()
        rows, cols, _ = stairs
        assert np.abs(u[rows] + v[cols] - cost_matrix(mu, nu)[rows, cols]).max() <= 1e-12
    ties = tr._staircase(pairs[0][0].weights, pairs[0][1].weights)[2] == 0.0
    assert ties.any()


def test_lp_solves_a_pair_whose_staircase_misses_a_row():
    # weights summing to 1 + 5e-11 (inside the normalization check) exhaust
    # the columns one atom early: the staircase misses the last row, so it
    # has no duals, and route 2 starts from the staircase and cheapest
    # cells alone
    import chainlearn.transport as tr

    xs = np.array([0.1, 0.6, 0.9])
    mu = DiscreteMeasure(xs, TENT(xs), [0.5, 0.5, 5e-11], normalize_check=False)
    nu = DiscreteMeasure.on_graph(TENT, np.array([0.3, 0.7]), [0.5, 0.5])
    assert tr._stair_duals(mu, nu, tr._staircase(mu.weights, nu.weights)) is None
    d, _, used = solve_with_route(mu, nu)
    assert used == "lp"
    assert d == pytest.approx(dense_lp_cost(mu.weights, nu.weights, cost_matrix(mu, nu)), rel=1e-9)


def test_block_check_verdicts_rest_on_the_stair_duals():
    # the block check accepts exactly where the sweep's duals price out the
    # full matrix, with the same verdicts as before the sweep was shared:
    # route 1b takes the quadratic and lifted-identity pairs and the later
    # tent kernels, route 2 the rest
    import chainlearn.transport as tr

    pairs = [curve_pair(QUADRATIC), lifted_identity_pair(), curve_pair(TENT), lp_route_pair()]
    verdicts = []
    for mu, nu in pairs + lp_block_pairs():
        mu, nu = mu.merged(), nu.merged()
        stairs = tr._staircase(mu.weights, nu.weights)
        u, v = tr._stair_duals(mu, nu, stairs)
        accepted = certified(mu, nu, on_line=False) is not None
        assert accepted == ((cost_matrix(mu, nu) - u[:, None] - v[None, :]).min() >= -tr._DUAL_TOL)
        verdicts.append(accepted)
    assert verdicts == [True, True, False, False] + [False] * 4 + [True] * 10 + [False] * 6


def lifted_measure(lane, size, delta):
    """Identity atoms in two clusters of x-width 2 delta, each lifted by up
    to delta: pairs of them are where the staircase can lose to a crossing
    coupling."""
    s = rng.derive(41, rng.PROBE)
    k = np.arange(size)
    xs = np.where(k % 2, 0.25, 0.75) + 2 * delta * rng.uniform_array(s, np.full(size, lane), k)
    ys = xs + delta * (2 * rng.uniform_array(s, np.full(size, lane), 100 + k) - 1)
    w = rng.uniform_array(s, np.full(size, lane), 200 + k) + 0.1
    return DiscreteMeasure(xs, ys, w / w.sum())


@pytest.mark.parametrize("delta", [1e-6, 1e-3])
def test_staircase_is_within_four_delta_of_optimal_near_a_line(delta):
    # the lemma under the line bound: atoms within delta of one line leave
    # the staircase at most 4 delta above the dense LP optimum (1e-9 allows
    # for the LP's tolerances); it is strictly above on some pairs
    import chainlearn.transport as tr

    gaps = []
    for trial in range(20):
        mu = lifted_measure(trial, 2 + trial % 7, delta)
        nu = lifted_measure(50 + trial, 2 + trial % 5, delta)
        stairs = tr._staircase(mu.weights, nu.weights)
        dense = dense_lp_cost(mu.weights, nu.weights, cost_matrix(mu, nu))
        gaps.append(tr._plan_cost(mu, nu, *stairs) - dense)
    assert max(gaps) <= 4 * delta + 1e-9
    assert max(gaps) > 0.05 * delta


def lp_route_pair():
    """Tent atoms on either side of 1/2, which the staircase pairs
    anti-monotonically (see the route-pin note below)."""
    half = np.array([0.5, 0.5])
    return (
        DiscreteMeasure.on_graph(TENT, np.array([0.1, 0.3]), half),
        DiscreteMeasure.on_graph(TENT, np.array([0.7, 0.9]), half),
    )


def test_lp_solve_memory_at_the_audit_size(monkeypatch):
    # route 2 builds no m x n array: the n = 8 tent decay solve against the
    # 1024-point grid (256 x 1024 cells) in a few row blocks and its LPs
    import chainlearn.transport as tr

    used = []
    real = tr._transportation_lp
    monkeypatch.setattr(tr, "_transportation_lp", lambda *a: used.append(1) or real(*a))
    chain = ContractiveChain(make_space(TENT))
    mu = n_step_kernel(chain, graph_point(0.0, TENT), 8)
    nu = invariant_measure(chain, 1024)
    wasserstein1_exact(*lp_route_pair())  # scipy's imports are not part of the solve
    used.clear()
    tracemalloc.start()
    try:
        wasserstein1_exact(mu, nu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert used == [1]
    assert peak < 4 * 1024 * 1024  # one 256 x 1024 float matrix alone is 2 MiB


LP_GRID_CHAIN = ContractiveChain(make_space(TENT))
LP_GRID = invariant_measure(LP_GRID_CHAIN, 64)


def lp_block_pairs():
    """Tent kernels n = 1..7 against the 64-point grid, and random tent
    measures of mixed sizes."""
    pairs = [
        (n_step_kernel(LP_GRID_CHAIN, graph_point(x0, TENT), n), LP_GRID)
        for x0 in (0.0, 0.3)
        for n in range(1, 8)
    ]
    for trial in range(6):
        mu = random_measure(TENT, 20 + 7 * trial, lane=trial, seed=13)
        nu = random_measure(TENT, 45 - 4 * trial, lane=90 + trial, seed=13)
        pairs.append((mu.merged(), nu.merged()))
    return pairs


@pytest.mark.parametrize("cells", [1, 3 * 64 + 5], ids=["one-row", "ragged"])
def test_lp_pricing_blocks_leave_the_plan_unchanged(monkeypatch, cells):
    # one row per block, and 197 cells (3 rows on the 64-point grid, with a
    # short last block) price the same cells as the default single block:
    # rows are chosen within a block, columns across blocks, ties to the
    # lower index
    import chainlearn.transport as tr

    pairs = lp_block_pairs()
    default = [lp_plan(mu, nu) for mu, nu in pairs]
    solved = [wasserstein1_exact(mu, nu) for mu, nu in pairs]
    monkeypatch.setattr(tr, "_BLOCK_CELLS", cells)
    for (mu, nu), route_2, (d, plan) in zip(pairs, default, solved):
        assert same_plan(lp_plan(mu, nu), route_2)
        d_block, plan_block = wasserstein1_exact(mu, nu)
        assert d_block.hex() == d.hex() and same_plan(plan_block, plan)


def batch_pairs():
    """LP-route tent decay pairs with certified identity pairs between them."""
    identity = [
        (n_step_kernel(CHAIN, graph_point(0.3, IDENTITY), n), invariant_measure(CHAIN, 64))
        for n in (2, 5)
    ]
    tent = lp_block_pairs()[:7]
    return tent[:3] + identity[:1] + tent[3:] + identity[1:]


def spy_solves(monkeypatch):
    """Record (thread name, mu weights, nu weights) of every instance as its
    staircase, the first step of its solve, is built."""
    import chainlearn.transport as tr

    started = []
    real = tr._staircase

    def spy(a, b):
        started.append((threading.current_thread().name, a, b))
        return real(a, b)

    monkeypatch.setattr(tr, "_staircase", spy)
    return started


def spy_pools(monkeypatch):
    """The helper counts of every thread pool started."""
    import concurrent.futures

    pools = []
    real = concurrent.futures.ThreadPoolExecutor

    class Spy(real):
        def __init__(self, workers, *args, **kwargs):
            pools.append(workers)
            super().__init__(workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    return pools


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_batch_equals_one_by_one_calls(monkeypatch, workers):
    # every cost bit for bit as `wasserstein1_exact` gives it alone, whichever
    # thread solved it, also when threads switch as often as they can; the
    # pairs the line bound accepts are solved on the calling thread first,
    # then every other pair is one `for_each` item, largest m * n first
    import chainlearn.parallel as parallel
    import chainlearn.transport as tr

    pairs = batch_pairs()
    alone = [wasserstein1_exact(mu, nu)[0] for mu, nu in pairs]
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(workers)))
    pools = spy_pools(monkeypatch)
    interval = sys.getswitchinterval()
    for switch in (interval, 1e-6):
        sys.setswitchinterval(switch)
        try:
            batch = tr.wasserstein1_exact_batch(pairs)
        finally:
            sys.setswitchinterval(interval)
        assert [d.hex() for d in batch] == [d.hex() for d in alone]
    assert pools == ([workers - 1] * 2 if workers > 1 else [])


def test_batch_starts_items_largest_first(monkeypatch):
    # the pairs the line bound accepts first, then the others, each group by
    # m * n; no pair here merges atoms, so each solve gets the measures it
    # was given
    import chainlearn.parallel as parallel
    import chainlearn.transport as tr

    pairs = batch_pairs()
    started = spy_solves(monkeypatch)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
    tr.wasserstein1_exact_batch(pairs)
    sizes = [len(mu) * len(nu) for mu, nu in pairs]
    on_line = [tr._near_one_line(mu, nu) for mu, nu in pairs]
    assert on_line.count(True) == 2
    order = sorted(range(len(pairs)), key=lambda k: (not on_line[k], -sizes[k]))
    assert len(started) == len(pairs)
    assert all(a is pairs[k][0].weights and b is pairs[k][1].weights
               for (_, a, b), k in zip(started, order))


def test_batch_solves_line_bound_pairs_on_the_caller_before_any_pool(monkeypatch):
    # two usable CPUs and identity pairs among tent pairs, some of which the
    # block check rejects, one of those larger than an identity pair: every
    # pair the line bound accepts starts on the calling thread before the
    # pool starts, and every cost is bit for bit that of the pair alone
    import concurrent.futures

    import chainlearn.parallel as parallel
    import chainlearn.transport as tr

    pairs = batch_pairs()
    alone = [wasserstein1_exact(mu, nu)[0] for mu, nu in pairs]
    line = [k for k, (mu, nu) in enumerate(pairs) if tr._near_one_line(mu, nu)]
    rejected = [k for k, (mu, nu) in enumerate(pairs) if certified(mu, nu) is None]
    assert len(line) == 2 and len(rejected) == 4
    size = [len(mu) * len(nu) for mu, nu in pairs]
    assert max(size[k] for k in rejected) > min(size[k] for k in line)
    started = spy_solves(monkeypatch)
    pool_starts = []  # the number of solves started when each pool starts
    real = concurrent.futures.ThreadPoolExecutor

    class Spy(real):
        def __init__(self, *args, **kwargs):
            pool_starts.append(len(started))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1})
    batch = tr.wasserstein1_exact_batch(pairs)
    assert [d.hex() for d in batch] == [d.hex() for d in alone]
    assert pool_starts == [len(line)]
    caller = threading.current_thread().name
    assert {name for name, _, _ in started[: len(line)]} == {caller}
    assert {id(a) for _, a, _ in started[: len(line)]} == {id(pairs[k][0].weights) for k in line}


@pytest.mark.parametrize(
    "cpus, pairs",
    [
        ({0}, batch_pairs()),
        ({0, 1, 2}, batch_pairs()[:1]),
        ({0, 1, 2}, batch_pairs()[3::5]),
    ],
    ids=["one-cpu", "one-pair", "all-certified"],
)
def test_batch_without_a_pool(monkeypatch, cpus, pairs):
    # one usable CPU, one pair, or a batch the certificate accepts whole (the
    # two identity kernels, at 3 and 8) runs on the calling thread alone
    import chainlearn.parallel as parallel
    import chainlearn.transport as tr

    pools = spy_pools(monkeypatch)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: cpus)
    started = spy_solves(monkeypatch)
    assert tr.wasserstein1_exact_batch(pairs) == [wasserstein1_exact(*p)[0] for p in pairs]
    assert pools == []
    assert {name for name, _, _ in started} == {threading.current_thread().name}


@pytest.mark.parametrize("bad", ["unnormalized", "oversized"])
def test_batch_checks_every_pair_before_any_solve(monkeypatch, bad):
    # the first bad pair raises on the calling thread, before any instance
    # starts, even when later pairs are good
    import chainlearn.transport as tr

    pairs = batch_pairs()
    if bad == "unnormalized":
        mu = DiscreteMeasure([0.1], [0.1], [0.5], normalize_check=False)
        error, match = ValueError, "not normalized"
    else:
        xs = np.arange(4097) / 4097
        mu = DiscreteMeasure.on_graph(IDENTITY, xs, np.full(4097, 1.0 / 4097))
        error, match = SizeError, "exceed the cap"
    pairs.insert(3, (mu, DiscreteMeasure([0.5], [0.5], [1.0])))
    started = spy_solves(monkeypatch)
    with pytest.raises(error, match=match):
        tr.wasserstein1_exact_batch(pairs)
    assert started == []


def test_batch_lp_error_in_a_worker_reaches_the_caller(monkeypatch):
    # the caller's own solve waits until a helper thread has failed, so the
    # error is raised on a worker, not on the calling thread
    import chainlearn.parallel as parallel
    import chainlearn.transport as tr

    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    error = RuntimeError("transportation LP failed: forced")
    failed = threading.Event()
    real = tr._transportation_lp

    def failing(*args):
        if threading.current_thread() is threading.main_thread():
            failed.wait(10.0)
            return real(*args)
        failed.set()
        raise error

    monkeypatch.setattr(tr, "_transportation_lp", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        list(tr.wasserstein1_exact_batch(lp_block_pairs()[:7]))
    assert excinfo.value is error
    assert failed.is_set()
    assert threading.active_count() == before


def test_each_pair_fact_is_computed_once(monkeypatch):
    # one line check and one staircase per pair, and at most one dual sweep,
    # which serves both the block check and route 2's first pricing: over
    # the batch pairs and the 14 pairs of the tent audit at decay grid 1024,
    # whose 8 LP pairs once swept their duals twice
    import chainlearn.transport as tr

    calls = []

    def spy(name):
        real = getattr(tr, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(tr, name, counted)

    for name in ("_near_one_line", "_staircase", "_stair_duals"):
        spy(name)
    tent_audit = audit_pairs(TENT, decay_grid=1024)
    assert len(tent_audit) == 14
    for pairs in (batch_pairs(), tent_audit):
        calls.clear()
        tr.wasserstein1_exact_batch(pairs)
        assert calls.count("_near_one_line") == len(pairs)
        assert calls.count("_staircase") == len(pairs)
        assert calls.count("_stair_duals") <= len(pairs)
    for mu, nu in batch_pairs():
        calls.clear()
        wasserstein1_exact(mu, nu)
        assert calls.count("_near_one_line") == calls.count("_staircase") == 1
        assert calls.count("_stair_duals") <= 1


def test_certificate_catches_a_violation_in_the_last_rows(monkeypatch):
    # 30 left-branch tent atoms, then a cross-branch pair, 32 x 32 cells: in
    # blocks of two rows, every block before the pair's prices out, and the
    # check must still reach the last block, reject the staircase and leave
    # the instance to the LP
    import chainlearn.transport as tr

    weights = np.r_[np.full(30, 0.8 / 30), [0.1, 0.1]]
    left = np.arange(1, 31) / 80
    mu = DiscreteMeasure.on_graph(TENT, np.r_[left, [0.45, 0.46]], weights)
    nu = DiscreteMeasure.on_graph(TENT, np.r_[left + 1 / 160, [0.55, 0.56]], weights)
    assert certified(mu, nu) is None
    monkeypatch.setattr(tr, "_BLOCK_CELLS", 2 * len(nu))
    lows = []
    real = tr._reduced_cost

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        lows.append(float(out.min()))
        return out

    monkeypatch.setattr(tr, "_reduced_cost", spy)
    assert certified(mu, nu) is None
    assert len(lows) == len(mu) // 2
    assert min(lows[:-1]) >= -tr._DUAL_TOL > lows[-1]
    d, plan, used = solve_with_route(mu, nu)
    assert used == "lp"
    dense = dense_lp_cost(mu.weights, nu.weights, cost_matrix(mu, nu))
    assert d == pytest.approx(dense, rel=1e-12)


def looped_plan_cost(mu, nu, rows, cols, masses):
    """Sum of mass * c_ij added one cell at a time in a Python loop."""
    import chainlearn.transport as tr

    total = 0.0
    for mass, c in zip(masses.tolist(), tr._costs(mu, nu, rows, cols).tolist()):
        total += mass * c
    return total


def random_plans():
    """Staircases, LP plans and random plans on random tent measures."""
    import chainlearn.transport as tr

    s = rng.derive(23, rng.PROBE)
    for trial in range(12):
        mu = random_measure(TENT, 3 + 9 * trial, lane=trial, seed=17).merged()
        nu = random_measure(TENT, 80 - 6 * trial, lane=50 + trial, seed=17).merged()
        stairs = tr._staircase(mu.weights, nu.weights)
        yield mu, nu, stairs
        yield mu, nu, lp_plan(mu, nu)
        k = np.arange(40)
        i = (rng.uniform_array(s, k, np.full(40, 3 * trial)) * len(mu)).astype(int)
        j = (rng.uniform_array(s, k, np.full(40, 3 * trial + 1)) * len(nu)).astype(int)
        mass = rng.uniform_array(s, k, np.full(40, 3 * trial + 2)) * 10.0 ** -(trial % 5)
        yield mu, nu, (i.astype(np.intp), j.astype(np.intp), mass)


def test_plan_cost_and_support_costs_equal_the_loops_bit_for_bit():
    # the costs on a plan's cells are the dense cost matrix's floats there,
    # and the plan cost is their mass-weighted sum added one cell at a time
    import chainlearn.transport as tr

    for mu, nu, (rows, cols, masses) in random_plans():
        assert (rows.dtype, cols.dtype, masses.dtype) == (np.intp, np.intp, np.float64)
        dense = chord_distances(mu.xs, mu.ys, nu.xs, nu.ys)
        assert np.array_equal(tr._costs(mu, nu, rows, cols), dense[rows, cols])
        want = looped_plan_cost(mu, nu, rows, cols, masses)
        assert tr._plan_cost(mu, nu, rows, cols, masses).hex() == want.hex()


def builtin_min_staircase(a, b):
    """`_staircase` as it was written with the builtin `min` and `len` calls."""
    a, b = a.tolist(), b.tolist()
    entries = []
    i = j = 0
    ra, rb = a[0], b[0]
    while i < len(a) and j < len(b):
        mass = min(ra, rb)
        entries.append((i, j, mass))
        ra -= mass
        rb -= mass
        a_done = ra <= 1e-18
        b_done = rb <= 1e-18
        if a_done and b_done:
            if i + 1 < len(a) and j + 1 < len(b):
                entries.append((i + 1, j, 0.0))
            i += 1
            j += 1
            if i < len(a):
                ra = a[i]
            if j < len(b):
                rb = b[j]
        elif a_done:
            i += 1
            if i < len(a):
                ra = a[i]
        else:
            j += 1
            if j < len(b):
                rb = b[j]
    return entries


def test_staircase_equals_the_builtin_min_loop():
    # random, dyadic (exact ties) and uniform weights, on both sides
    import chainlearn.transport as tr

    weights = [np.full(8, 1 / 8), np.full(64, 1 / 64), np.full(3, 1 / 3)]
    for trial in range(10):
        weights.append(random_measure(TENT, 5 + 7 * trial, lane=trial, seed=31).weights)
        weights.append(random_measure(TENT, 4 + trial, lane=40 + trial, seed=31,
                                      dyadic=True).weights)
    for a in weights:
        for b in weights:
            got, want = plan_cells(tr._staircase(a, b)), builtin_min_staircase(a, b)
            assert [(i, j, m.hex()) for i, j, m in got] == [(i, j, m.hex()) for i, j, m in want]


def test_certificate_block_minimum_decides_as_the_elementwise_check():
    # `block.min() >= -tol` accepts exactly the blocks that `(block >= -tol).all()`
    # accepts, a NaN anywhere rejecting in both
    import chainlearn.transport as tr

    tol = tr._DUAL_TOL
    s = rng.derive(29, rng.PROBE)
    edges = np.array([-tol, np.nextafter(-tol, -1.0), np.nextafter(-tol, 1.0), 0.0, -0.0])
    accepted = []
    for trial in range(200):
        cells = rng.uniform_array(s, np.arange(48), np.full(48, trial)).reshape(6, 8)
        block = cells * 1e-9 - 2e-11 * (trial % 3)
        block[trial % 6, trial % 8] = edges[trial % edges.size]
        if trial % 7 == 0:
            block[(trial // 7) % 6, 3] = np.nan
        accepted.append(bool(block.min() >= -tol))
        assert accepted[-1] == bool((block >= -tol).all())
    assert 0 < sum(accepted) < len(accepted)


def test_symmetry_and_triangle():
    measures = [random_measure(TENT, 3, lane=k, seed=9) for k in range(6)]
    for i in range(len(measures)):
        for j in range(i + 1, len(measures)):
            dij, _ = wasserstein1_exact(measures[i], measures[j])
            dji, _ = wasserstein1_exact(measures[j], measures[i])
            assert dij == pytest.approx(dji, abs=1e-9)
    for i, j, k in [(0, 1, 2), (1, 3, 4), (2, 4, 5), (0, 3, 5)]:
        dik, _ = wasserstein1_exact(measures[i], measures[k])
        dij, _ = wasserstein1_exact(measures[i], measures[j])
        djk, _ = wasserstein1_exact(measures[j], measures[k])
        assert dik <= dij + djk + 1e-9


def test_duplicate_atoms_merged():
    mu = DiscreteMeasure([0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
    nu = DiscreteMeasure([0.25], [0.25], [1.0])
    d, (rows, cols, masses) = wasserstein1_exact(mu, nu)
    assert len(rows) == len(cols) == len(masses) == 1
    assert d == pytest.approx(math.hypot(0.25, 0.25), abs=1e-12)


def test_normalization_error():
    mu = DiscreteMeasure([0.1], [0.1], [0.5], normalize_check=False)
    nu = DiscreteMeasure([0.2], [0.2], [1.0])
    with pytest.raises(ValueError, match="not normalized"):
        wasserstein1_exact(mu, nu)


def test_atom_cap():
    n = 4097
    xs = np.arange(n) / n
    mu = DiscreteMeasure.on_graph(IDENTITY, xs, np.full(n, 1.0 / n))
    nu = DiscreteMeasure([0.5], [0.5], [1.0])
    with pytest.raises(SizeError):
        wasserstein1_exact(mu, nu)


def test_monotone_upper_examples():
    mu = random_measure(IDENTITY, 4, lane=2)
    assert wasserstein1_monotone_upper(mu, mu) == pytest.approx(0.0, abs=1e-12)
    a = n_step_kernel(CHAIN, graph_point(0.0, IDENTITY), 1)
    b = n_step_kernel(CHAIN, graph_point(1.0, IDENTITY), 1)
    assert wasserstein1_monotone_upper(a, b) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_monotone_upper_is_the_dense_staircase_sum_bit_for_bit():
    # priced on the staircase cells only, the sum is the float the dense
    # cost matrix gives when added in staircase order
    import chainlearn.transport as tr

    for target in (IDENTITY, TENT):
        chain = ContractiveChain(make_space(target))
        mu = n_step_kernel(chain, graph_point(0.3, target), 7)
        nu = invariant_measure(chain, 200)
        cost = cost_matrix(mu, nu)
        want = 0.0
        for i, j, mass in plan_cells(tr._staircase(mu.weights, nu.weights)):
            want += mass * cost[i, j]
        assert wasserstein1_monotone_upper(mu, nu).hex() == float(want).hex()


def test_monotone_upper_dominates_exact():
    for trial in range(30):
        mu = random_measure(TENT, 1 + trial % 4, lane=trial, seed=21)
        nu = random_measure(TENT, 1 + (trial + 2) % 4, lane=70 + trial, seed=21)
        d, _ = wasserstein1_exact(mu, nu)
        assert wasserstein1_monotone_upper(mu, nu) >= d - 1e-9


def test_kr_dual_canonical_witness():
    mu = DiscreteMeasure([0.1], [0.1], [1.0])
    nu = DiscreteMeasure([0.9], [0.9], [1.0])
    lower = kr_dual_lower(mu, nu, witness_count=1)
    assert lower == pytest.approx(math.hypot(0.8, 0.8), abs=1e-12)
    assert kr_dual_lower(mu, mu, witness_count=1) == pytest.approx(0.0, abs=1e-12)


def test_kr_sandwich():
    for trial in range(20):
        mu = random_measure(TENT, 1 + trial % 4, lane=trial, seed=31)
        nu = random_measure(TENT, 1 + (trial + 1) % 4, lane=90 + trial, seed=31)
        d, _ = wasserstein1_exact(mu, nu)
        lower = kr_dual_lower(mu, nu, witness_count=32, seed=trial)
        upper = wasserstein1_monotone_upper(mu, nu)
        assert lower <= d + 1e-9
        assert d <= upper + 1e-9


def test_contraction_ratio_extreme_pair():
    mu = n_step_kernel(CHAIN, graph_point(0.0, IDENTITY), 1)
    nu = n_step_kernel(CHAIN, graph_point(1.0, IDENTITY), 1)
    d, _ = wasserstein1_exact(mu, nu)
    ratio = d / math.sqrt(2)
    assert ratio == pytest.approx(0.5, abs=1e-12)


def test_contraction_audit_identity():
    audit = contraction_audit(CHAIN, pair_count=300, seed=2)
    assert audit.sup_ratio <= math.sqrt(2) / 2 + 1e-9
    for x1, x2, d, w1, ratio in audit.rows:
        assert ratio <= math.sqrt(2) / 2 + 1e-9


def test_contraction_audit_constant_target():
    chain = ContractiveChain(make_space(make_target("constant", c=0.3)))
    audit = contraction_audit(chain, pair_count=200, seed=3)
    assert audit.sup_ratio == pytest.approx(0.5, abs=1e-9)


def test_contraction_bound_all_lipschitz_targets():
    for name, params in [("tent", {}), ("quadratic", {}), ("affine", {"a": 0.1, "b": 0.45})]:
        target = make_target(name, **params)
        chain = ContractiveChain(make_space(target))
        audit = contraction_audit(chain, pair_count=200, seed=4)
        assert audit.sup_ratio <= math.sqrt(1 + target.lip**2) / 2 + 1e-9


def looped_audit(chain, pair_count, seed):
    """`contraction_audit` as one loop over the pairs: one `graph_point` and
    one `rho` per pair, the worst pair kept on a strict >."""
    from chainlearn.chain import one_step_w1

    target = chain.space.target
    s = rng.derive(seed, rng.PAIR_SAMPLING)
    lanes = np.arange(pair_count)
    x1 = rng.uniform_array(s, lanes, np.zeros_like(lanes))
    x2 = rng.uniform_array(s, lanes, np.ones_like(lanes))
    for i in np.flatnonzero(x1 == x2).tolist():
        bump = 2
        while x2[i] == x1[i]:
            x2[i] = rng.uniform(s, i, bump)
            bump += 1
    rows, sup, worst = [], -1.0, None
    for a, b, w1 in zip(x1.tolist(), x2.tolist(), one_step_w1(chain, x1, x2).tolist()):
        z1, z2 = graph_point(a, target), graph_point(b, target)
        d = rho(z1, z2)
        rows.append((a, b, d, w1, w1 / d))
        if w1 / d > sup:
            sup, worst = w1 / d, (z1, z2)
    return sup, worst, tuple(rows)


AUDIT_TARGETS = {
    "identity": IDENTITY,
    "tent": TENT,
    "quadratic": make_target("quadratic"),
    "affine": make_target("affine", a=-0.7, b=0.9),
    "constant": make_target("constant", c=0.3),
}


@pytest.mark.parametrize("name", AUDIT_TARGETS)
def test_contraction_audit_arrays_equal_the_pair_loop_bit_for_bit(name):
    chain = ContractiveChain(make_space(AUDIT_TARGETS[name]))
    for pair_count, seed in ((1, 1), (500, 7), (3000, 20211008)):
        audit = contraction_audit(chain, pair_count, seed)
        sup, worst, rows = looped_audit(chain, pair_count, seed)
        assert audit.sup_ratio.hex() == sup.hex() and audit.worst_pair == worst
        assert len(audit.rows) == len(rows)
        for got, want in zip(audit.rows, rows):
            assert [v.hex() for v in got] == [v.hex() for v in want]


def solver_audit_rows(chain, pair_count, seed):
    """Audit rows drawn pair by pair, each distance from the general solver."""
    target = chain.space.target
    s = rng.derive(seed, rng.PAIR_SAMPLING)
    rows = []
    for i in range(pair_count):
        x1, x2 = rng.uniform(s, i, 0), rng.uniform(s, i, 1)
        bump = 2
        while x2 == x1:
            x2 = rng.uniform(s, i, bump)
            bump += 1
        z1, z2 = graph_point(x1, target), graph_point(x2, target)
        w1, _ = wasserstein1_exact(n_step_kernel(chain, z1, 1), n_step_kernel(chain, z2, 1))
        d = rho(z1, z2)
        rows.append((x1, x2, d, w1, w1 / d))
    return tuple(rows)


@pytest.mark.parametrize("name, swaps", [("tent", True), ("quadratic", False)])
def test_contraction_audit_rows_match_general_solver(monkeypatch, name, swaps):
    # on the tent some pairs are coupled across 1/2, which the general
    # solver reaches only through the LP
    import chainlearn.transport as tr

    lp_calls = []
    real = tr._transportation_lp
    monkeypatch.setattr(tr, "_transportation_lp", lambda *a: lp_calls.append(1) or real(*a))
    chain = ContractiveChain(make_space(make_target(name)))
    audit = contraction_audit(chain, pair_count=300, seed=5)
    assert audit.rows == solver_audit_rows(chain, 300, seed=5)
    assert bool(lp_calls) == swaps


def test_contraction_audit_resamples_a_degenerate_pair(monkeypatch):
    lane = 7
    real = rng.uniform_array

    def forced(seed, lanes, indices):
        out = real(seed, lanes, indices)
        if (indices == 1).all():  # the x2 draw: repeat x1 in one lane
            out[lane] = real(seed, lanes, np.zeros_like(indices))[lane]
        return out

    monkeypatch.setattr(rng, "uniform_array", forced)
    audit = contraction_audit(CHAIN, pair_count=10, seed=6)
    s = rng.derive(6, rng.PAIR_SAMPLING)
    for i, (x1, x2, d, w1, ratio) in enumerate(audit.rows):
        assert x1 == rng.uniform(s, i, 0)
        assert x2 == rng.uniform(s, i, 2 if i == lane else 1)
        assert x2 != x1
    x1, x2, d, w1, ratio = audit.rows[lane]
    z1, z2 = graph_point(x1, IDENTITY), graph_point(x2, IDENTITY)
    assert d == rho(z1, z2)
    assert w1 == wasserstein1_exact(n_step_kernel(CHAIN, z1, 1), n_step_kernel(CHAIN, z2, 1))[0]


def test_audits_do_not_call_the_general_solver(monkeypatch):
    import chainlearn.transport as tr

    calls = []
    monkeypatch.setattr(tr, "wasserstein1_exact", lambda *args: calls.append(args))
    chain = ContractiveChain(make_space(TENT))
    contraction_audit(chain, pair_count=50, seed=1)
    assert not lemma_atom_check(chain, probe_count=8, tolerance=1e-9, seed=1).passed
    assert calls == []


def solve_with_route(mu, nu):
    """wasserstein1_exact plus the route that made the plan, told apart by
    the line bound's verdict and the route 2 calls: "line" (route 1a),
    "blocks" (route 1b) or "lp" (route 2)."""
    import chainlearn.transport as tr

    verdicts, lp_calls = [], []
    real_line, real_lp = tr._near_one_line, tr._transportation_lp

    def line(*args):
        verdicts.append(real_line(*args))
        return verdicts[-1]

    def lp(*args):
        lp_calls.append(1)
        return real_lp(*args)

    with mock.patch.object(tr, "_near_one_line", line):
        with mock.patch.object(tr, "_transportation_lp", lp):
            d, plan = tr.wasserstein1_exact(mu, nu)
    assert len(verdicts) == 1 and len(lp_calls) <= 1
    assert not (verdicts[0] and lp_calls)  # the line bound's pairs reach no LP
    return d, plan, "lp" if lp_calls else "line" if verdicts[0] else "blocks"


# On the tent, atoms left and right of 1/2 with a = 1/2 - x and b = x' - 1/2
# are sqrt(2 (a^2 + b^2)) apart, a strictly submodular cost in (a, b): the
# staircase pairs them anti-monotonically and is never optimal, so the
# certificate fails and the instance goes to the LP.
LEFT = st.integers(1, 31).map(lambda k: k / 64)
RIGHT = st.integers(33, 63).map(lambda k: k / 64)
PARTITIONS = st.sampled_from(QUARTER_HALF_PARTITIONS)


def split_measures(draw, wa, wb):
    xa = draw(st.lists(LEFT, min_size=len(wa), max_size=len(wa), unique=True))
    xb = draw(st.lists(RIGHT, min_size=len(wb), max_size=len(wb), unique=True))
    return (
        DiscreteMeasure.on_graph(TENT, np.array(xa), np.asarray(wa, dtype=float)),
        DiscreteMeasure.on_graph(TENT, np.array(xb), np.asarray(wb, dtype=float)),
    )


@st.composite
def uniform_square(draw):
    size = draw(st.sampled_from((2, 4)))
    return split_measures(draw, [1.0 / size] * size, [1.0 / size] * size)


@st.composite
def dyadic_unequal(draw):
    wa = draw(PARTITIONS)
    wb = draw(PARTITIONS.filter(lambda w: len(w) != len(wa)))
    return split_measures(draw, wa, wb)


@st.composite
def identity_pair(draw):
    def measure():
        size = draw(st.integers(1, 4))
        xs = draw(st.lists(st.integers(0, 64), min_size=size, max_size=size, unique=True))
        w = np.array(draw(st.lists(st.integers(1, 9), min_size=size, max_size=size)), float)
        return DiscreteMeasure.on_graph(IDENTITY, np.array(xs) / 64, w / w.sum())

    return measure(), measure()


@pytest.mark.parametrize(
    "pairs, routes",
    [
        (uniform_square(), {"lp"}),
        (dyadic_unequal(), {"lp"}),
        # route 1: the line bound, or the block check where both measures
        # are one atom at the same x, a vertical line
        (identity_pair(), {"line", "blocks"}),
    ],
    ids=["uniform-square", "dyadic-unequal", "identity"],
)
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_routes_are_pinned_and_exact(pairs, routes, data):
    mu, nu = data.draw(pairs)
    d, plan, used = solve_with_route(mu, nu)
    assert used in routes
    mm, nn = mu.merged(), nu.merged()
    assert abs(d - vertex_coupling_minimum(mm.weights, nn.weights, cost_matrix(mm, nn))) <= 1e-9
    row, col = plan_marginals(plan, len(mm), len(nn))
    assert np.abs(row - mm.weights).max() <= 1e-9
    assert np.abs(col - nn.weights).max() <= 1e-9
