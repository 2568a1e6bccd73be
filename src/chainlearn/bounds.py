"""Closed-form constants, tail bounds, sample complexities, and the
Poisson-equation estimator.

Ergodicity constants: iterating the one-step contraction gives
W1(P^n(z, .), pi) <= (1-eta)^n * W1(delta_z, pi) <= diam * e^(-C2 n) with
C1 = diam and C2 = -ln(1-eta), so 1 - e^(-C2) recovers eta exactly.

The uniform tail bound is a union over an N-member net of the single-
hypothesis bound at eps/2 (its log is ln N plus that exponent), and the
multiplicative sample size n3 is n2 at the level sqrt(eps / (1 + 1/alpha)).

All tail bounds are returned raw (possibly above 1) together with their
validity flag; covering numbers enter as explicit arguments, either as a
raw count or as a natural log for models too large to exponentiate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import rng
from .chain import ContractiveChain, simulate_x_blocks
from .hypothesis import Hypothesis
from .learner import true_error
from .loss import LossConstants
from .parallel import for_each
from .state_space import DiscreteMeasure


@dataclass(frozen=True)
class ModelConstants:
    eta: float
    C1: float
    C2: float
    L: float
    L_bar: float
    B: float
    m: Optional[float] = None
    M: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0,1), got {self.eta}")
        if self.C1 <= 0 or self.C2 <= 0:
            raise ValueError("C1 and C2 must be positive")
        if (self.m is None) != (self.M is None):
            raise ValueError("m and M must be given together")
        if self.m is not None and not 0 < self.m <= self.M:
            raise ValueError("need 0 < m <= M")

    @property
    def one_minus_exp_neg_c2(self) -> float:
        return -math.expm1(-self.C2)

    @classmethod
    def from_chain(
        cls,
        eta: float,
        diam: float,
        losses: LossConstants,
        m: Optional[float] = None,
        M: Optional[float] = None,
    ) -> "ModelConstants":
        c1, c2 = ergodicity_constants(eta, diam)
        return cls(eta, c1, c2, losses.L, losses.L_bar, losses.B, m, M)

    def poisson_tail(self, truncation: int) -> float:
        """C1 L e^(-C2 N) / (1 - e^(-C2)): the Poisson series' sup-norm tail
        past N = truncation terms, at N = 0 a bound on the whole solution."""
        return self.C1 * self.L * math.exp(-self.C2 * truncation) / self.one_minus_exp_neg_c2

    def require_mm(self) -> tuple[float, float]:
        if self.m is None or self.M is None:
            raise ValueError("this calculator needs the error range (m, M)")
        return self.m, self.M


def ergodicity_constants(eta: float, diam: float) -> tuple[float, float]:
    """C1 = diam and C2 = -ln(1 - eta), so the geometric decay rate matches
    the one-step contraction factor."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0,1), got {eta}")
    if diam <= 0:
        raise ValueError(f"diam must be positive, got {diam}")
    return diam, -math.log1p(-eta)


def _check(eps: float, *, n: Optional[float] = None, delta: Optional[float] = None) -> None:
    """The shared checks delta in (0,1), eps > 0, n >= 1, in that order."""
    if delta is not None and not 0 < delta < 1:
        raise ValueError("delta must lie in (0,1)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n is not None and n < 1:
        raise ValueError("n must be at least 1")


def _ln_covering(covering_number: Optional[float], ln_covering: Optional[float]) -> float:
    if (covering_number is None) == (ln_covering is None):
        raise ValueError("pass exactly one of covering_number / ln_covering")
    if covering_number is not None:
        if covering_number < 1:
            raise ValueError("covering number must be at least 1")
        return math.log(covering_number)
    return float(ln_covering)


def _exp(log_value: float) -> float:
    """e^log_value, or inf where that overflows."""
    return math.exp(log_value) if log_value < 700 else math.inf


def _square(x: float) -> float:
    """x**2, or inf where that overflows: float ** raises where * gives inf."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _regrouped_past_overflow(plain: Callable[[], float], regrouped: Callable[[], float]) -> float:
    """`plain()`, or the same quotient as `regrouped()` where a power or a
    product inside `plain` overflows (float ** raises, * gives inf or nan)
    or its denominator underflows to 0.  Where the plain form stays finite,
    its float is the value."""
    try:
        value = plain()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    return value if math.isfinite(value) else regrouped()


class TailBound(NamedTuple):
    value: float
    valid: bool


def _single_h_exponent(eps: float, n: int, consts: ModelConstants) -> tuple[float, bool]:
    """The log of `single_h_tail_bound` and its validity flag."""
    _check(eps, n=n)
    omc = consts.one_minus_exp_neg_c2
    c1l = consts.C1 * consts.L
    coef = eps * n * omc / (2.0 * c1l)
    try:
        exponent = -((coef - 2.0) ** 2) / (2.0 * n)
    except OverflowError:  # the square overflows: the same exponent, -inf only if it overflows
        exponent = -(coef - 2.0) * ((coef - 2.0) / (2.0 * n))
    return exponent, n >= 4.0 * c1l / (eps * omc)


def single_h_tail_bound(eps: float, n: int, consts: ModelConstants) -> TailBound:
    """exp(-(eps n (1-e^-C2) / (2 C1 L) - 2)^2 / (2n)); valid once
    n >= 4 C1 L / (eps (1-e^-C2))."""
    exponent, valid = _single_h_exponent(eps, n, consts)
    return TailBound(_exp(exponent), valid)


def uniform_tail_bound(
    eps: float, n: int, consts: ModelConstants, covering_number: float
) -> TailBound:
    """Covering number (at eps / 4 L_bar) times the single-hypothesis bound
    at eps/2; valid once n >= 8 C1 L / (eps (1-e^-C2))."""
    exponent, valid = _single_h_exponent(eps / 2.0, n, consts)
    return TailBound(_exp(_ln_covering(covering_number, None) + exponent), valid)


def n1_terms(
    eps: float,
    delta: float,
    consts: ModelConstants,
    covering_number: Optional[float] = None,
    *,
    ln_covering: Optional[float] = None,
) -> tuple[float, float]:
    _check(eps, delta=delta)
    lncov = _ln_covering(covering_number, ln_covering)
    omc = consts.one_minus_exp_neg_c2
    c1l = consts.C1 * consts.L
    t1 = 16.0 * c1l / (eps * omc)
    denom = _square(eps) * omc**2
    t2 = 128.0 * _square(c1l) * (lncov + math.log(1.0 / delta)) / denom if denom > 0 else math.inf
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise ValueError(f"sample size n1 overflows at eps={eps!r}")
    return t1, t2


def n1(
    eps: float,
    delta: float,
    consts: ModelConstants,
    covering_number: Optional[float] = None,
    *,
    ln_covering: Optional[float] = None,
) -> int:
    """Sample size guaranteeing the learner's 5-eps generalization bound;
    the covering number is taken at radius eps / (4 L_bar)."""
    return math.ceil(max(n1_terms(eps, delta, consts, covering_number, ln_covering=ln_covering)))


def xi_constants(m: float, M: float, consts: ModelConstants) -> tuple[float, float]:
    """The two constants of the relative-deviation exponential bound."""
    if not 0 < m <= M:
        raise ValueError("need 0 < m <= M")
    omc = consts.one_minus_exp_neg_c2
    c1l = consts.C1 * consts.L
    xi1 = _regrouped_past_overflow(
        lambda: 49.0 * m**4 * omc**2 / (72.0 * M * _square(M + 6.0 * m) * _square(c1l)),
        lambda: 49.0 / 72.0 * omc**2 * _square(m / (M + 6.0 * m)) * (m / M) * (m / c1l / c1l),
    )
    xi2 = _regrouped_past_overflow(
        lambda: 7.0 * m**2 * omc / (6.0 * math.sqrt(M) * (M + 6.0 * m) * c1l),
        lambda: 7.0 / 6.0 * omc * (m / (M + 6.0 * m)) * (m / math.sqrt(M)) / c1l,
    )
    return xi1, xi2


def epsilon_prime_ok(eps: float, m: float, M: float) -> bool:
    """The substituted deviation level m^{3/2} eps / (M + 6m) must stay below
    2m/3 for the two-sided argument behind the relative bound; parameter
    choices beyond it are flagged, not rejected."""
    level = _regrouped_past_overflow(
        lambda: m**1.5 * eps / (M + 6.0 * m),
        lambda: math.sqrt(m) * eps * (m / (M + 6.0 * m)),
    )
    return level < 2.0 * m / 3.0


def n2_terms(
    eps: float,
    delta: float,
    consts: ModelConstants,
    covering_number: Optional[float] = None,
    *,
    ln_covering: Optional[float] = None,
) -> tuple[float, float]:
    _check(eps, delta=delta)
    m, M = consts.require_mm()
    lncov = _ln_covering(covering_number, ln_covering)
    omc = consts.one_minus_exp_neg_c2
    c1l = consts.C1 * consts.L
    xi1, xi2 = xi_constants(m, M, consts)
    t1 = 2.0 * c1l / (eps * min(math.sqrt(m), 1.0) * omc)
    denom = xi1 * _square(eps)
    t2 = (xi2 * eps + lncov + math.log(4.0 / delta)) / denom if denom > 0 else math.inf
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise ValueError(f"sample size n2 overflows at eps={eps!r}")
    return t1, t2


def n2(
    eps: float,
    delta: float,
    consts: ModelConstants,
    covering_number: Optional[float] = None,
    *,
    ln_covering: Optional[float] = None,
) -> int:
    """Sample size for the relative-deviation bound; covering number taken
    at radius eps / L_bar."""
    m, M = consts.require_mm()
    if not epsilon_prime_ok(eps, m, M):
        warnings.warn(
            f"eps={eps} puts the substituted level at or beyond 2m/3; "
            "the two-sided argument does not cover this choice",
            stacklevel=2,
        )
    return math.ceil(max(n2_terms(eps, delta, consts, covering_number, ln_covering=ln_covering)))


def _n3_level(eps: float, delta: float, alpha: float) -> float:
    """The level sqrt(eps / (1 + 1/alpha)) at which n2 gives n3."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    _check(eps, delta=delta)
    return math.sqrt(eps / (1.0 + 1.0 / alpha))


def n3(
    eps: float,
    delta: float,
    alpha: float,
    consts: ModelConstants,
    covering_number: Optional[float] = None,
    *,
    ln_covering: Optional[float] = None,
) -> int:
    """Sample size for the multiplicative-accuracy bound: n2 at the level
    sqrt(eps / (1 + 1/alpha)), covering number taken at that level / L_bar."""
    return n2(_n3_level(eps, delta, alpha), delta, consts, covering_number, ln_covering=ln_covering)


def relative_tail_bound(
    eps: float, n: int, consts: ModelConstants, covering_number: float
) -> TailBound:
    """4 * covering(eps / L_bar) * exp(-xi1 eps^2 n + xi2 eps); valid while
    `epsilon_prime_ok` holds at eps."""
    _check(eps, n=n)
    m, M = consts.require_mm()
    lncov = _ln_covering(covering_number, None)
    xi1, xi2 = xi_constants(m, M, consts)
    try:
        log_value = math.log(4.0) + lncov - xi1 * eps**2 * n + xi2 * eps
    except OverflowError:  # eps**2 overflows: the same sum, -inf only if it overflows
        log_value = math.log(4.0) + lncov - eps * (xi1 * eps * n - xi2)
    return TailBound(_exp(log_value), epsilon_prime_ok(eps, m, M))


# --- Poisson equation -------------------------------------------------------

@dataclass(frozen=True)
class PoissonEstimate:
    xs: np.ndarray
    values: np.ndarray
    truncation: int
    rollouts: int
    mc_tolerance: float
    er_pi: float


def truncation_for_tolerance(consts: ModelConstants, tol: float) -> int:
    """Smallest N with C1 L e^(-C2 N) / (1 - e^(-C2)) <= tol, as
    `ModelConstants.poisson_tail` computes it.

    The closed form ceil((ln poisson_tail(0) - ln tol) / C2) can miss by
    one where tol is within a rounding error of a tail, so N is stepped from
    it until poisson_tail(N) <= tol < poisson_tail(N - 1) holds in floats.
    It takes the difference of logs, as the ratio of the tail to a tiny tol
    overflows.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    N = max(0, math.ceil((math.log(consts.poisson_tail(0)) - math.log(tol)) / consts.C2))
    while consts.poisson_tail(N) > tol:
        N += 1
    while N > 0 and consts.poisson_tail(N - 1) <= tol:
        N -= 1
    return N


# lanes in one chunk of Poisson rollouts, each chunk one `simulate_x_blocks`
# call folded a step at a time; chunks are folded on parallel threads.  On
# a 2-vCPU host chunks of 2^14 lanes took twice as long as the 2^16 here,
# from GIL hand-offs between numpy calls too short to overlap, while 2^16
# to 2^17 were fastest.
CHUNK = 2**16


def poisson_estimate(
    h: Hypothesis,
    chain: ContractiveChain,
    pi_hat: DiscreteMeasure,
    consts: ModelConstants,
    grid: int,
    truncation: int,
    rollouts: int,
    seed: int = 0,
    truncation_tol: float = 1e-3,
) -> PoissonEstimate:
    """Monte Carlo estimate of the truncated Poisson-equation solution
    g(z) = sum_k E_z[centered loss at step k] on a dyadic x-grid.

    Rollout r from grid point i is the `simulate_x_blocks` trajectory of
    lane i * rollouts + r in the Poisson stream of `seed`.  The lanes are
    cut into contiguous chunks of `CHUNK` lanes, each its own
    `simulate_x_blocks` call in one-step blocks, folded by
    `parallel.for_each`: one worker per CPU the process may use, the
    calling thread and a pool of the others.  A chunk takes the squared
    losses of one step's states at a time, a contiguous row of its lanes,
    and adds them into its own slice of the sums in step order,
    ((0 + l_0) + l_1) + ..., so an estimate does not depend on the chunk or
    the thread, and no array of steps x lanes is held.  A step's loss is
    (f(x) - h(x))^2, the float (h(x) - f(x))^2; a one-knot `Hypothesis` is
    its constant, with no interpolation per step.
    Raises if the truncation's geometric tail exceeds the requested
    tolerance.  The reported Monte Carlo tolerance is 3 B sqrt(N / R).
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if rollouts < 1:
        raise ValueError("rollouts must be at least 1")
    tail = consts.poisson_tail(truncation)
    if tail > truncation_tol:
        raise ValueError(
            f"truncation {truncation} leaves a geometric tail of {tail:.3g} "
            f"above the requested tolerance {truncation_tol:.3g}"
        )
    target = chain.space.target
    er = true_error(h, pi_hat)
    xs = np.linspace(0.0, 1.0, grid + 1)
    steps = truncation + 1
    sums = np.zeros((grid + 1) * rollouts)  # one loss sum per lane
    stream = rng.derive(seed, rng.POISSON)
    # negating a difference is exact, so (f - h)^2 is the float (h - f)^2
    c = float(h.knot_values[0]) if isinstance(h, Hypothesis) and h.knot_count == 1 else None

    def fold(lo: int) -> None:
        lanes = np.arange(lo, min(lo + CHUNK, sums.size))
        out = sums[lo : lo + lanes.size]
        for states in simulate_x_blocks(xs[lanes // rollouts], steps, stream, lanes, width=1):
            row = states[:, 0]  # one step's states, contiguous
            # a new array even if target returns row, squared in place
            loss = np.subtract(target(row), c if c is not None else h(row))
            np.square(loss, out=loss)
            out += loss

    for_each(fold, range(0, sums.size, CHUNK))
    values = sums.reshape(grid + 1, rollouts).mean(axis=1) - steps * er
    mc_tol = 3.0 * consts.B * math.sqrt(max(truncation, 1) / rollouts)
    return PoissonEstimate(xs, values, truncation, rollouts, mc_tol, er)


class PoissonResidual(NamedTuple):
    max_residual: float
    threshold: float
    interpolation_slack: float


def poisson_residual_check(
    estimate: PoissonEstimate,
    chain: ContractiveChain,
    h: Hypothesis,
    pi_hat: DiscreteMeasure,
) -> PoissonResidual:
    """Max over the grid of |g(z) - E_z g(Z_1) - centered loss(z)|.

    Children x/2 and (x+1)/2 off the grid are linearly interpolated; the
    recorded slack is the estimate's numerical Lipschitz constant times the
    grid spacing.  Passing means the residual stays below
    2 * mc_tolerance + slack.
    """
    xs, g = estimate.xs, estimate.values
    spacing = xs[1] - xs[0]
    target = chain.space.target
    g_lo = np.interp(xs / 2.0, xs, g)
    g_hi = np.interp((xs + 1.0) / 2.0, xs, g)
    fy = np.asarray(target(xs), dtype=float)
    hy = np.asarray(h(xs), dtype=float)
    centered = (hy - fy) ** 2 - estimate.er_pi
    residual = np.abs(g - 0.5 * g_lo - 0.5 * g_hi - centered)
    lip_hat = float(np.abs(np.diff(g)).max() / spacing) if g.size > 1 else 0.0
    slack = lip_hat * spacing
    return PoissonResidual(float(residual.max()), 2.0 * estimate.mc_tolerance + slack, slack)
