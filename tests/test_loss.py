import numpy as np
import pytest

from chainlearn.hypothesis import Hypothesis, HypothesisClass
from chainlearn.loss import (
    LossConstants,
    _corner_hypotheses,
    loss_composite,
    loss_constants,
    verify_a2,
)
from chainlearn.state_space import StatePoint, graph_point, make_space, make_target

IDENTITY_SPACE = make_space(make_target("identity"))
CONSTANTS = HypothesisClass("constants", 0.0, 1.0)


def test_loss_composite_examples():
    h = Hypothesis((0.5,))
    assert loss_composite(h, StatePoint(0.0, 0.0)) == pytest.approx(0.25, abs=1e-15)
    assert loss_composite(h, StatePoint(1.0, 1.0)) == pytest.approx(0.25, abs=1e-15)
    exact = Hypothesis((0.0, 1.0))  # reproduces the identity target
    assert loss_composite(exact, StatePoint(0.37, 0.37)) == pytest.approx(0.0, abs=1e-15)


def test_loss_constants_constants_class():
    c = loss_constants(CONSTANTS, IDENTITY_SPACE.target)
    assert (c.L, c.L_bar, c.B) == (2.0, 2.0, 1.0)


def test_loss_constants_lipschitz_class():
    cls = HypothesisClass("lipschitz", 0.0, 1.0, lip_bound=1.0)
    c = loss_constants(cls, IDENTITY_SPACE.target)
    assert (c.L, c.L_bar, c.B) == (4.0, 2.0, 1.0)


def test_loss_constants_small_range():
    cls = HypothesisClass("constants", 0.45, 0.55)
    space = make_space(make_target("constant", c=0.5))
    c = loss_constants(cls, space.target)
    assert c.L == pytest.approx(0.1, abs=1e-15)
    assert c.L_bar == pytest.approx(0.1, abs=1e-15)
    assert c.B == pytest.approx(0.0025, abs=1e-15)


def test_loss_bounded_by_b():
    c = loss_constants(CONSTANTS, IDENTITY_SPACE.target)
    for x in np.linspace(0, 1, 21):
        for cv in np.linspace(0, 1, 21):
            z = graph_point(float(x), IDENTITY_SPACE.target)
            assert loss_composite(Hypothesis((float(cv),)), z) <= c.B + 1e-12


def test_state_lipschitz_continuity_sampled():
    c = loss_constants(CONSTANTS, IDENTITY_SPACE.target)
    h = Hypothesis((0.25,))
    xs = np.linspace(0, 1, 41)
    for x1 in xs:
        for x2 in xs:
            z1 = graph_point(float(x1), IDENTITY_SPACE.target)
            z2 = graph_point(float(x2), IDENTITY_SPACE.target)
            lhs = abs(loss_composite(h, z1) - loss_composite(h, z2))
            d = np.hypot(z1.x - z2.x, z1.y - z2.y)
            assert lhs <= c.L * d + 1e-12


def test_verify_a2_passes_with_derived_constants():
    assert verify_a2(CONSTANTS, IDENTITY_SPACE, sample_count=2000, seed=1) <= 0.0


def test_verify_a2_passes_lipschitz_class():
    cls = HypothesisClass("lipschitz", 0.0, 1.0, lip_bound=1.0)
    assert verify_a2(cls, IDENTITY_SPACE, sample_count=1000, seed=2) <= 0.0


def test_corner_hypotheses_are_flat_extremes_of_unanchored_classes():
    lip = HypothesisClass("lipschitz", 0.2, 0.7, lip_bound=1.0)
    assert _corner_hypotheses(lip) == [Hypothesis((0.2,) * 9), Hypothesis((0.7,) * 9)]
    anchored = HypothesisClass("lipschitz_anchored", 0.0, 1.0, lip_bound=1.0, anchor=(0.5, 0.5))
    assert _corner_hypotheses(anchored) == []
    assert verify_a2(anchored, IDENTITY_SPACE, sample_count=200, seed=2) <= 0.0


def test_verify_a2_detects_forged_constants():
    honest = loss_constants(CONSTANTS, IDENTITY_SPACE.target)
    forged = LossConstants(L=honest.L / 2, L_bar=honest.L_bar, B=honest.B)
    violation = verify_a2(CONSTANTS, IDENTITY_SPACE, sample_count=500, seed=3, constants=forged)
    assert violation > 0.0


def test_verify_a2_identical_pair_slack_nonpositive():
    h = Hypothesis((0.3,))
    z = graph_point(0.4, IDENTITY_SPACE.target)
    # identical pair: lhs is zero, slack is minus the tolerance
    c = loss_constants(CONSTANTS, IDENTITY_SPACE.target)
    lhs = abs(loss_composite(h, z) - loss_composite(h, z))
    assert lhs - 1e-9 <= 0.0


def test_loss_constants_validation():
    with pytest.raises(ValueError):
        LossConstants(L=-1.0, L_bar=0.0, B=0.0)
