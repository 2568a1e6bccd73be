"""Empirical and true errors of hypotheses and nets.

`true_errors` and its derivatives evaluate every member pointwise on the
atoms of the discretized invariant measure, so an exact fit scores exactly
zero.  Each member's weighted squared residuals are summed by numpy's
pairwise reduction, in place and without BLAS, so a member's true error
depends only on that member and the measure, not on the thread count or the
rest of the net, and `true_error` of a member is its entry in `true_errors`
bit for bit.  Empirical errors over simulated trajectories come from the
hat-basis evaluator `HypothesisNet.mean_squared_errors`, with
`empirical_error` as its pointwise oracle.
"""

from __future__ import annotations

import numpy as np

from .hypothesis import Hypothesis, HypothesisNet, build_epsilon_net
from .state_space import DiscreteMeasure


class DegenerateClassError(ValueError):
    """Some member has zero true error, so relative statistics are undefined."""


def empirical_error(h: Hypothesis, xs, ys) -> float:
    """Mean of (h(x) - y)^2 over the sample points (xs, ys)."""
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("sample must be nonempty")
    return float(np.mean((np.asarray(h(xs)) - np.asarray(ys, dtype=float)) ** 2))


def true_error(h: Hypothesis, pi_hat: DiscreteMeasure) -> float:
    return pi_hat.integrate((np.asarray(h(pi_hat.xs)) - pi_hat.ys) ** 2)


def true_errors(net: HypothesisNet, pi_hat: DiscreteMeasure) -> np.ndarray:
    vals = net.member_matrix(pi_hat.xs)
    vals -= pi_hat.ys
    vals *= vals
    vals *= pi_hat.weights
    return vals.sum(axis=1)


def opt_pi(net: HypothesisNet, pi_hat: DiscreteMeasure, refinement: int = 8) -> float:
    """Oracle for the class infimum of the true error.

    Minimizes over the net rebuilt at radius/refinement; the class infimum
    lies within L_bar * (radius/refinement) below the returned value.
    """
    if refinement < 1:
        raise ValueError("refinement must be at least 1")
    fine = (
        net
        if refinement == 1
        else build_epsilon_net(net.hypothesis_class, net.radius / refinement)
    )
    return float(true_errors(fine, pi_hat).min())

