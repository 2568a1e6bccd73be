"""Empirical and true errors over a net, and the sample-error minimizer.

The learner minimizes the empirical error exactly over the finite net, so it
is a 0-ASEM for the net and, through the joint-Lipschitz inequality, an
(L_bar * radius)-ASEM for the full class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import Trajectory
from .hypothesis import HatMoments, Hypothesis, HypothesisNet, build_epsilon_net
from .state_space import DiscreteMeasure


@dataclass(frozen=True)
class ErrorSummary:
    h_index: int
    empirical: float
    true_error: float
    deviation: float
    relative_deviation: float


class DegenerateClassError(ValueError):
    """Some member has zero true error, so relative statistics are undefined."""


def empirical_error(h: Hypothesis, traj: Trajectory) -> float:
    if len(traj) == 0:
        raise ValueError("trajectory must be nonempty")
    return float(np.mean((np.asarray(h(traj.xs)) - traj.ys) ** 2))


def true_error(h: Hypothesis, pi_hat: DiscreteMeasure) -> float:
    return pi_hat.integrate((np.asarray(h(pi_hat.xs)) - pi_hat.ys) ** 2)


def empirical_errors(net: HypothesisNet, traj: Trajectory) -> np.ndarray:
    """Empirical error of every member, from one pass of hat-basis moments
    over the trajectory."""
    if len(traj) == 0:
        raise ValueError("trajectory must be nonempty")
    moments = HatMoments.from_samples(traj.xs[None, :], traj.ys[None, :], net.knot_count)
    return net.mean_squared_errors(moments)[:, 0]


def true_errors(net: HypothesisNet, pi_hat: DiscreteMeasure) -> np.ndarray:
    vals = net.member_matrix(pi_hat.xs)
    return ((vals - pi_hat.ys[None, :]) ** 2) @ pi_hat.weights


def asem(net: HypothesisNet, traj: Trajectory, epsilon: float = 0.0) -> tuple[int, float]:
    """Exact empirical minimizer over the net (ties to the smallest index).

    The epsilon argument records the tolerance the caller works at; the
    exact minimizer satisfies the approximate-minimization inequality for
    every epsilon > 0.
    """
    errs = empirical_errors(net, traj)
    idx = int(np.argmin(errs))
    return idx, float(errs[idx])


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
        else build_epsilon_net(net.hypothesis_class, net.radius / refinement, net.metric_tag)
    )
    return float(true_errors(fine, pi_hat).min())


def uniform_deviation(
    net: HypothesisNet, traj: Trajectory, pi_hat: DiscreteMeasure
) -> tuple[float, int]:
    devs = np.abs(empirical_errors(net, traj) - true_errors(net, pi_hat))
    idx = int(np.argmax(devs))
    return float(devs[idx]), idx


def relative_deviation(
    net: HypothesisNet, traj: Trajectory, pi_hat: DiscreteMeasure
) -> tuple[float, int]:
    errs = true_errors(net, pi_hat)
    if errs.min() == 0.0:
        raise DegenerateClassError(
            "a member attains zero true error; the lower bound m vanishes"
        )
    rel = np.abs(empirical_errors(net, traj) - errs) / np.sqrt(errs)
    idx = int(np.argmax(rel))
    return float(rel[idx]), idx


def class_error_range(
    net: HypothesisNet, pi_hat: DiscreteMeasure
) -> tuple[float, float]:
    """(min, max) of the true error over the net.

    The full-class range extends at most L_bar * radius beyond the returned
    interval on either side.
    """
    errs = true_errors(net, pi_hat)
    return float(errs.min()), float(errs.max())


def error_table(
    net: HypothesisNet, traj: Trajectory, pi_hat: DiscreteMeasure
) -> list[ErrorSummary]:
    emp = empirical_errors(net, traj)
    true = true_errors(net, pi_hat)
    rows = []
    for i, (e, t) in enumerate(zip(emp, true)):
        dev = float(e - t)
        rel = dev / np.sqrt(t) if t > 0 else float("nan")
        rows.append(ErrorSummary(i, float(e), float(t), dev, float(rel)))
    return rows


def error_table_csv(rows: list[ErrorSummary]) -> str:
    lines = ["h_index,empirical,true_error,deviation,relative_deviation"]
    lines.extend(
        f"{r.h_index},{r.empirical!r},{r.true_error!r},{r.deviation!r},{r.relative_deviation!r}"
        for r in rows
    )
    return "\n".join(lines) + "\n"
