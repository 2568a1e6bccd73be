import math
import os
import subprocess
import sys

import numpy as np
import pytest

from chainlearn import rng
from chainlearn.chain import ContractiveChain, invariant_measure, simulate_x_blocks
from chainlearn.hypothesis import (
    HatMoments,
    Hypothesis,
    HypothesisClass,
    HypothesisNet,
    build_epsilon_net,
)
from chainlearn.learner import (
    empirical_error,
    opt_pi,
    true_error,
    true_errors,
)
from chainlearn.state_space import make_space, make_target

IDENTITY = make_target("identity")
CHAIN = ContractiveChain(make_space(IDENTITY))
CONSTANTS = HypothesisClass("constants", 0.0, 1.0)
LIPSCHITZ = HypothesisClass("lipschitz", 0.0, 1.0, lip_bound=1.0)
PI_1000 = invariant_measure(CHAIN, 1000)
PI_4096 = invariant_measure(CHAIN, 4096)


def make_traj(xs):
    """Sample points (x, f(x)) of the identity target."""
    xs = np.asarray(xs, dtype=float)
    return xs, np.asarray(IDENTITY(xs), dtype=float)


def members(net):
    """Each row of the net's knot values as a hypothesis, for the pointwise oracles."""
    return [Hypothesis(tuple(v)) for v in net.values.tolist()]


def net_errors(net, traj):
    """Empirical error of every member on one sample, from the hat-basis
    evaluator the Monte Carlo experiments use."""
    xs, ys = traj
    return net.mean_squared_errors(HatMoments.from_samples(xs, ys, net.knot_count))[:, 0]


def asem(net, traj):
    """The learner of the asem experiment: the member of least empirical
    error, ties to the smallest index."""
    errs = net_errors(net, traj)
    idx = int(errs.argmin(axis=0))
    return idx, float(errs[idx])


def uniform_deviation(net, traj, pi_hat):
    """The concentration experiment's statistic max_h |er_n(h) - er(h)|."""
    devs = np.abs(net_errors(net, traj) - true_errors(net, pi_hat))
    idx = int(np.argmax(devs))
    return float(devs[idx]), idx


def relative_deviation(net, traj, pi_hat):
    """The relative experiment's statistic max_h |er_n(h) - er(h)| / sqrt(er(h))."""
    true = true_errors(net, pi_hat)
    rel = np.abs(net_errors(net, traj) - true) / np.sqrt(true)
    idx = int(np.argmax(rel))
    return float(rel[idx]), idx


def test_empirical_error_examples():
    h = Hypothesis((0.5,))
    assert empirical_error(h, *make_traj([0.0, 1.0])) == pytest.approx(0.25, abs=1e-15)
    exact = Hypothesis((0.0, 1.0))
    assert empirical_error(exact, *make_traj([0.1, 0.7, 0.3])) == pytest.approx(0.0, abs=1e-15)
    assert empirical_error(Hypothesis((0.0,)), *make_traj([0.0])) == 0.0


def test_true_error_quadrature():
    assert true_error(Hypothesis((0.5,)), PI_1000) == pytest.approx(1 / 12, abs=1e-4)
    assert true_error(Hypothesis((0.0,)), PI_1000) == pytest.approx(1 / 3, abs=1e-4)
    assert true_error(Hypothesis((0.0, 1.0)), PI_1000) == 0.0


def test_asem_exact_interpolant_wins():
    net = HypothesisNet([[0.2, 0.8], [0.0, 1.0]], 0.1,
                        HypothesisClass("lipschitz", 0.0, 1.0, lip_bound=1.0))
    idx, value = asem(net, make_traj([0.1, 0.5, 0.9]))
    assert idx == 1 and value == pytest.approx(0.0, abs=1e-15)


def test_asem_constants_picks_member_nearest_sample_mean():
    net = build_epsilon_net(CONSTANTS, 0.25)
    traj = make_traj([0.42, 0.47, 0.52, 0.57])  # mean 0.495
    idx, value = asem(net, traj)
    # empirical risk in c is (c - mean)^2 + var: minimized at the nearest member to the mean
    assert net.values[idx, 0] in (0.375, 0.625)
    hs = members(net)
    brute = min(range(len(net)), key=lambda i: empirical_error(hs[i], *traj))
    assert idx == brute


def test_asem_single_member():
    net = HypothesisNet([[0.9]], 1.0, CONSTANTS)
    idx, _ = asem(net, make_traj([0.0, 1.0]))
    assert idx == 0


def test_asem_is_exact_minimizer():
    net = build_epsilon_net(CONSTANTS, 0.1)
    traj = make_traj(np.linspace(0, 1, 17) ** 2)
    idx, value = asem(net, traj)
    for h in members(net):
        assert value < empirical_error(h, *traj) + 1e-12


def test_asem_tie_breaks_to_smallest_index():
    net = HypothesisNet([[0.4], [0.6]], 1.0, CONSTANTS)
    idx, _ = asem(net, make_traj([0.5]))  # both at squared distance 0.01
    assert idx == 0


def test_asem_is_approximate_minimizer_over_class():
    # the net minimizer undercuts any class member's empirical error up to
    # L_bar * radius (joint-Lipschitz continuity through the nearest member)
    from chainlearn.hypothesis import random_member
    from chainlearn.loss import loss_constants

    net = build_epsilon_net(CONSTANTS, 0.1)
    consts = loss_constants(CONSTANTS, IDENTITY)
    traj = make_traj(np.linspace(0, 1, 33) ** 2)
    _, value = asem(net, traj)
    for lane in range(200):
        h = random_member(CONSTANTS, 1, seed=8, lane=lane)
        assert value <= empirical_error(h, *traj) + consts.L_bar * net.radius + 1e-12


def test_opt_pi_constants():
    net = build_epsilon_net(CONSTANTS, 0.2)
    assert opt_pi(net, PI_4096, refinement=32) == pytest.approx(1 / 12, abs=1e-3)


def test_opt_pi_net_containing_target():
    cls = HypothesisClass("lipschitz", 0.0, 1.0, lip_bound=1.0)
    net = HypothesisNet([[0.0, 1.0]], 0.5, cls)
    assert opt_pi(net, PI_4096, refinement=1) == 0.0


def test_opt_pi_single_constant_zero():
    net = HypothesisNet([[0.0]], 1.0, CONSTANTS)
    assert opt_pi(net, PI_4096, refinement=1) == pytest.approx(1 / 3, abs=1e-4)


def test_uniform_deviation_single_state():
    net = HypothesisNet([[0.5]], 1.0, CONSTANTS)
    dev, idx = uniform_deviation(net, make_traj([0.0]), PI_4096)
    assert dev == pytest.approx(0.25 - 1 / 12, abs=1e-4)
    assert idx == 0


def test_uniform_deviation_zero_when_empirical_matches_pi():
    traj = make_traj(PI_4096.xs)  # visits every atom exactly once
    net = build_epsilon_net(CONSTANTS, 0.25)
    dev, _ = uniform_deviation(net, traj, PI_4096)
    assert dev <= 1e-12


def test_uniform_deviation_dominates_members():
    net = build_epsilon_net(CONSTANTS, 0.2)
    traj = make_traj(np.linspace(0, 1, 100) ** 1.5)
    dev, _ = uniform_deviation(net, traj, PI_4096)
    for h in members(net):
        assert dev >= abs(empirical_error(h, *traj) - true_error(h, PI_4096)) - 1e-12


def test_relative_deviation_single_member():
    net = HypothesisNet([[0.5]], 1.0, CONSTANTS)
    rel, idx = relative_deviation(net, make_traj([0.0]), PI_4096)
    assert rel == pytest.approx((0.25 - 1 / 12) / math.sqrt(1 / 12), abs=1e-3)


def test_relative_deviation_degenerate():
    # a member fitting the target scores exactly m = 0, on which the relative
    # experiment raises DegenerateClassError
    cls = HypothesisClass("lipschitz", 0.0, 1.0, lip_bound=1.0)
    net = HypothesisNet([[0.0, 1.0]], 0.5, cls)
    assert true_errors(net, PI_4096).min() == 0.0


def test_relative_vs_uniform_deviation():
    net = build_epsilon_net(CONSTANTS, 0.2)
    traj = make_traj(np.linspace(0, 1, 64))
    M = true_errors(net, PI_4096).max()
    rel, _ = relative_deviation(net, traj, PI_4096)
    for h in members(net):
        dev = abs(empirical_error(h, *traj) - true_error(h, PI_4096))
        assert rel >= dev / math.sqrt(M) - 1e-12


def test_class_error_range_constants():
    net = build_epsilon_net(CONSTANTS, 0.002)
    errs = true_errors(net, PI_4096)
    m, M = errs.min(), errs.max()
    assert m == pytest.approx(1 / 12, abs=1e-3)
    assert M == pytest.approx(1 / 3, abs=1e-3)
    assert m <= M


def test_class_error_range_single_member():
    net = HypothesisNet([[0.0]], 1.0, CONSTANTS)
    errs = true_errors(net, PI_4096)
    m, M = errs.min(), errs.max()
    assert m == M == pytest.approx(1 / 3, abs=1e-4)


def test_empirical_error_concatenation():
    h = Hypothesis((0.3,))
    xs1 = np.linspace(0, 1, 7)
    xs2 = np.linspace(0.2, 0.9, 13)
    e1 = empirical_error(h, *make_traj(xs1))
    e2 = empirical_error(h, *make_traj(xs2))
    combined = empirical_error(h, *make_traj(np.concatenate([xs1, xs2])))
    expected = (7 * e1 + 13 * e2) / 20
    assert combined == pytest.approx(expected, abs=1e-12)


def test_median_uniform_deviation_nonincreasing_in_n():
    net = build_epsilon_net(CONSTANTS, 0.1)
    true = true_errors(net, PI_4096)
    reps = np.arange(100, dtype=np.uint64)
    stream = rng.derive(42, rng.TRAJECTORY)
    medians = []
    for n in (100, 1000, 10_000):
        xs = np.concatenate(list(simulate_x_blocks(np.zeros(100), n, stream, reps)), axis=-1)
        emp = net.mean_squared_errors(HatMoments.from_samples(xs, IDENTITY(xs), net.knot_count))
        devs = np.abs(emp - true[:, None]).max(axis=0)
        medians.append(float(np.median(devs)))
    assert medians[0] >= medians[1] >= medians[2]


# the suite's constants net (20 members) and the mc-lipschitz net (178)
@pytest.mark.parametrize("cls, radius", [(CONSTANTS, 0.05), (LIPSCHITZ, 0.5)])
def test_true_error_of_a_member_depends_only_on_it(cls, radius):
    net = build_epsilon_net(cls, radius)
    errs = true_errors(net, PI_4096)
    alone = [true_errors(HypothesisNet(v[None], radius, cls), PI_4096)[0] for v in net.values]
    assert errs.tolist() == alone
    assert errs.tolist() == [true_error(h, PI_4096) for h in members(net)]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_true_errors_wake_no_blas_thread():
    # a threaded BLAS product leaves its helper threads spinning through
    # the single-threaded work that follows it, so CPU time would run at
    # about twice the wall time; a fresh process, since an earlier test may
    # have woken them
    code = """
import time
import numpy as np
from chainlearn.chain import ContractiveChain, invariant_measure
from chainlearn.hypothesis import HypothesisClass, build_epsilon_net
from chainlearn.learner import true_errors
from chainlearn.state_space import make_space, make_target

pi_hat = invariant_measure(ContractiveChain(make_space(make_target("identity"))), 4096)
net = build_epsilon_net(HypothesisClass("lipschitz", 0.0, 1.0, lip_bound=1.0), 0.5)
work = np.linspace(0.0, 1.0, 400_000)
cpu, wall = time.process_time(), time.perf_counter()
for _ in range(20):
    true_errors(net, pi_hat)
    np.sin(work).sum()  # about 5 ms on one thread
print(len(net), (time.process_time() - cpu) / (time.perf_counter() - wall))
"""
    src = os.path.dirname(os.path.dirname(sys.modules["chainlearn"].__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    members, ratio = proc.stdout.split()
    assert members == "178"
    assert float(ratio) < 1.5
