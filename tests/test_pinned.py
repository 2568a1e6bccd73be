"""Pinned bytes of the simulator, its two folds and the identity audit.

Each simulator pin is the sha256 of little-endian float64 outputs at a
fixed small input.  None of these outputs goes through BLAS (a true error
is numpy's pairwise sum, one product on the one-atom measure), so a moved
bit anywhere in the bit draw, the recursion, the Poisson fold, the hat
moments or their snapshots at each n of one pass fails here.
The identity and affine contraction audits certify every W1 solve by the
line bound, so their reports go through neither BLAS nor HiGHS and are
pinned as CSV bytes.  So are two `bounds` reports for Lipschitz classes
whose covering counts pass the member cap: with both error-range overrides
they build no net and no measure, and a moved count moves their uniform
and relative bounds.
"""

import hashlib
import math

import numpy as np
import pytest

from chainlearn import chain as chain_module
from chainlearn import rng
from chainlearn.bounds import ModelConstants, poisson_estimate
from chainlearn.chain import ContractiveChain, simulate_x_blocks
from chainlearn.harness import (
    ExperimentConfig,
    _hat_moments_at,
    build_class,
    initial_xs,
    render_report,
    run_bounds_calculator,
    run_contraction_audit,
)
from chainlearn.hypothesis import NET_SIZE_CAP, HatMoments, Hypothesis, covering_count
from chainlearn.loss import LossConstants
from chainlearn.state_space import DiscreteMeasure, make_space, make_target

TENT = make_target("tent")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def states(x0, n, seed, lanes) -> np.ndarray:
    stream = rng.derive(seed, rng.TRAJECTORY)
    return np.concatenate(list(simulate_x_blocks(x0, n, stream, lanes)), axis=-1)


LANES_1D = np.arange(37, dtype=np.uint64) * 3 + 11
LANES_2D = np.arange(15, dtype=np.uint64).reshape(3, 5) * 7
X0_1D = np.linspace(0.0, 1.0, 37)
X0_2D = np.array([0.0, 0.3, 1.0])[:, None]

SIMULATOR_PINS = {
    ("1d", 1): "a34af7f0ed9cb12bae55bdee4543f9d6e0cd11f609a16d73e01e2f9aefb1c6db",
    ("1d", 512): "9ac9f79e8aa70a2c6f79078ea7ab98c37b6f9570668f4a6dd6f8199ead8f95c9",
    ("2d", 1): "3c3ab2ae5231cafa0286b51c18277fa2fc702a197e674d9a09d9ddd99bcfb553",
    ("2d", 512): "3e76ce42805fb66dea7b47c162afbc61128e0861964f6d0a2506a14d06fa34af",
}


@pytest.mark.parametrize("lanes, width", sorted(SIMULATOR_PINS))
def test_simulator_states_are_pinned(monkeypatch, lanes, width):
    lane_ids, x0 = (LANES_1D, X0_1D) if lanes == "1d" else (LANES_2D, X0_2D)
    n = 1100
    if width == 1:
        monkeypatch.setattr(chain_module, "BUDGET", lane_ids.size)
        n = 9
    blocks = [b.shape[-1] for b in simulate_x_blocks(x0, n, 17, lane_ids)]
    assert max(blocks) == width
    assert digest(states(x0, n, 5, lane_ids)) == SIMULATOR_PINS[lanes, width]


def test_poisson_estimate_is_pinned():
    chain = ContractiveChain(make_space(TENT))
    consts = ModelConstants.from_chain(
        1 - math.sqrt(2) / 2, math.sqrt(2), LossConstants(4.0, 2.0, 1.0), None, None
    )
    pi_hat = DiscreteMeasure.on_graph(TENT, [0.25], [1.0])  # no BLAS in the true error
    est = poisson_estimate(Hypothesis((0.2, 0.9, 0.4)), chain, pi_hat, consts, grid=4,
                           truncation=20, rollouts=6, seed=31, truncation_tol=math.inf)
    assert digest(est.values, [est.er_pi]) == (
        "847eef378fb81d8c860475ad6cc6565fa7fadde48d2fb2f1b6cc4e8f5301bf84"
    )


@pytest.mark.parametrize("knots", [1, 5])
def test_hat_moments_fold_is_pinned(knots):
    stream = rng.derive(13, rng.TRAJECTORY)
    lanes = np.arange(300, dtype=np.uint64)
    total = None
    for xs in simulate_x_blocks(np.linspace(0.0, 1.0, 300), 1100, stream, lanes):
        part = HatMoments.from_samples(xs, TENT(xs), knots)
        total = part if total is None else total + part
    assert total.count == 1100
    pins = {
        1: "58856e33162a05ddc298f1e9ac16e9028b3867b07d6c27b2f87710fc216382c9",
        5: "ed06fb43b34e0733217748d0b14b6e1f5c6bdada0a4c324c444e3896dec1c55e",
    }
    assert digest(total.gram_diag, total.gram_off, total.cross, total.square) == pins[knots]


@pytest.mark.parametrize("knots", [1, 5])
def test_hat_moments_at_each_n_are_pinned(knots):
    # one pass to n = 1000 in blocks of 512 states: n = 1 and 300 inside the
    # first block, 512 at its end, 1000 inside the second; the pins are those
    # of a fold to each n on its own
    config = ExperimentConfig(kind="concentration", target_name="tent", x0_policy="uniform",
                              replications=300, master_seed=13)
    lanes = np.arange(300, dtype=np.uint64)
    stream = rng.derive(13, rng.TRAJECTORY)
    blocks = simulate_x_blocks(initial_xs(config, None, lanes), 1000, stream, lanes)
    snapshots = list(_hat_moments_at(blocks, TENT, knots, (1, 300, 512, 1000)))
    assert [n for n, _ in snapshots] == [m.count for _, m in snapshots] == [1, 300, 512, 1000]
    pins = {
        1: "9ff41b9d43536595f169c9ba135e9c5ce098d7098fa2933da4fbdd0f61634612",
        5: "e6d7648cc51d16431f826c6ce3d0fa05beb89968be300ec30c9d8ff8da8ea37a",
    }
    moments = [(m.gram_diag, m.gram_off, m.cross, m.square) for _, m in snapshots]
    assert digest(*(a for m in moments for a in m)) == pins[knots]


def test_identity_contraction_audit_is_pinned():
    # the affine audit's invariance-defect pairs lie an ulp off their line,
    # which the line bound's rounding allowance must absorb
    pins = [
        ("identity", {}, "aa3606bf83d9759d0ce58823b1cc9e7c882d51dcf79d1b35a11d7e5237b42d9c"),
        ("affine", {"a": -0.7, "b": 0.9},
         "01ca027df5b6f0e01ce067ce49feb365bfbfab9d384660eb55296939f5f4e5f8"),
    ]
    for name, params, pin in pins:
        config = ExperimentConfig(kind="contraction", target_name=name, target_params=params,
                                  pair_count=300, decay_n_max=9, decay_grid=512, master_seed=5)
        text = render_report(run_contraction_audit(config), "csv")
        assert hashlib.sha256(text.encode()).hexdigest() == pin


@pytest.mark.parametrize(
    "cls, pin",
    [
        ({"class_kind": "lipschitz"},
         "754b28175d9f33f67b2cfc69766dd8ce8dd8ea5ea489ca93aecb0934bf9e40e5"),
        ({"class_kind": "lipschitz_anchored", "anchor": [0.5, 0.5]},
         "e5b875df415b67765b2a24c56c1bbacc10a2c8ee93083a4b23fade732489518d"),
    ],
    ids=["lipschitz", "anchored"],
)
def test_lipschitz_bounds_report_is_pinned(cls, pin):
    config = ExperimentConfig.from_dict({"kind": "bounds", "lip_bound": 1.0, **cls,
                                         "eps_list": [0.8, 0.4], "m_override": 1 / 12,
                                         "M_override": 1 / 3})
    report = run_bounds_calculator(config)
    # the count at the uniform bound's radius eps/(4 L_bar), for the larger eps
    assert covering_count(build_class(config), 0.8 / (4 * report.metadata["L_bar"])) > NET_SIZE_CAP
    text = render_report(report, "csv")
    assert hashlib.sha256(text.encode()).hexdigest() == pin
