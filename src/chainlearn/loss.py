"""Squared loss, composite losses, and certified joint-Lipschitz constants.

With D an upper bound on |h(x) - y| over the class and the curve, the
squared loss factors as a difference of squares:

    |l_h(z1) - l_h(z2)|  = |(h(x1)-y1) + (h(x2)-y2)| * |(h(x1)-y1) - (h(x2)-y2)|
                        <= 2D * (|h(x1)-h(x2)| + |y1-y2|)
                        <= 2D * (lip_bound + 1) * rho(z1, z2),

since both |x1-x2| and |y1-y2| are dominated by the Euclidean distance, and

    |l_{h1}(z) - l_{h2}(z)| <= 2D * |h1(x) - h2(x)| <= 2D * sup-metric(h1, h2).

So the joint-Lipschitz inequality holds with L = 2D(lip_bound+1),
L_bar = 2D, and the loss is bounded by B = D^2.  D itself is taken from
interval endpoints of the class range and a certified enclosure of the
target's range, a deliberate overestimate: bound validity needs an upper
bound, not a tight constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .hypothesis import Hypothesis, HypothesisClass, class_metric, random_member
from .state_space import (
    SpaceDescriptor,
    StatePoint,
    TargetFunction,
    graph_point,
    rho,
    target_range,
)


@dataclass(frozen=True)
class LossConstants:
    L: float
    L_bar: float
    B: float

    def __post_init__(self) -> None:
        for name in ("L", "L_bar", "B"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")


def loss_composite(h: Hypothesis, z: StatePoint) -> float:
    return (float(h(z.x)) - z.y) ** 2


def loss_constants(cls: HypothesisClass, target: TargetFunction) -> LossConstants:
    """The constants from the class range and the target's range alone."""
    f_lo, f_hi = target_range(target)
    if not all(np.isfinite(v) for v in (cls.y_lo, cls.y_hi, f_lo, f_hi)):
        raise ValueError("class range and target range must be bounded")
    d = max(cls.y_hi - f_lo, f_hi - cls.y_lo)
    d = max(d, 0.0)
    return LossConstants(
        L=2.0 * d * (cls.lip_bound + 1.0),
        L_bar=2.0 * d,
        B=d * d,
    )


def _corner_hypotheses(cls: HypothesisClass) -> list[Hypothesis]:
    if cls.kind == "constants":
        return [
            Hypothesis((cls.y_lo,)),
            Hypothesis((cls.y_hi,)),
            Hypothesis((0.5 * (cls.y_lo + cls.y_hi),)),
        ]
    if cls.kind == "lipschitz_anchored":
        return []
    # extreme flat members are feasible for every unanchored Lipschitz class
    return [Hypothesis(tuple([cls.y_lo] * 9)), Hypothesis(tuple([cls.y_hi] * 9))]


_CORNER_XS = (0.0, 0.01, 0.5, 0.99, 1.0)


def verify_a2(
    cls: HypothesisClass,
    space: SpaceDescriptor,
    sample_count: int,
    seed: int = 0,
    constants: Optional[LossConstants] = None,
) -> float:
    """Worst slack of the joint-Lipschitz inequality; negative means it held.

    Checks |l_{h1}(z1) - l_{h2}(z2)| <= L rho(z1,z2) + L_bar d(h1,h2) + 1e-9
    over a deterministic battery of corner pairs plus random samples.
    Passing forged constants lets tests confirm the verifier catches
    violations.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    target = space.target
    consts = constants if constants is not None else loss_constants(cls, target)

    def slack(h1: Hypothesis, h2: Hypothesis, z1: StatePoint, z2: StatePoint) -> float:
        lhs = abs(loss_composite(h1, z1) - loss_composite(h2, z2))
        rhs = (
            consts.L * rho(z1, z2)
            + consts.L_bar * class_metric(h1, h2)
            + 1e-9
        )
        return lhs - rhs

    worst = -np.inf
    corners = _corner_hypotheses(cls)
    corner_zs = [graph_point(x, target) for x in _CORNER_XS]
    for h1 in corners:
        for h2 in corners:
            for z1 in corner_zs:
                for z2 in corner_zs:
                    worst = max(worst, slack(h1, h2, z1, z2))

    s = rng.derive(seed, rng.PROBE)
    knot_count = 1 if cls.kind == "constants" else 9
    for i in range(sample_count):
        h1 = random_member(cls, knot_count, s, 2 * i)
        h2 = random_member(cls, knot_count, s, 2 * i + 1)
        z1 = graph_point(rng.uniform(s, i, 10), target)
        z2 = graph_point(rng.uniform(s, i, 11), target)
        worst = max(worst, slack(h1, h2, z1, z2))
    return float(worst)
