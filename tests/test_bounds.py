"""Calculator checks.

Golden values are frozen from an independent transcription of each closed
form (the `ref_*` helpers below), evaluated with plain `math` arithmetic.
"""

import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlearn import bounds as bounds_module
from chainlearn import chain as chain_module
from chainlearn import hypothesis as hypothesis_module
from chainlearn import parallel
from chainlearn import rng
from chainlearn.bounds import (
    ModelConstants,
    _n3_level,
    epsilon_prime_ok,
    ergodicity_constants,
    n1,
    n1_terms,
    n2,
    n2_terms,
    n3,
    poisson_estimate,
    poisson_residual_check,
    relative_tail_bound,
    single_h_tail_bound,
    truncation_for_tolerance,
    uniform_tail_bound,
    xi_constants,
)
from chainlearn.chain import ContractiveChain, invariant_measure
from chainlearn.hypothesis import Hypothesis
from chainlearn.learner import true_error
from chainlearn.loss import LossConstants
from chainlearn.state_space import make_space, make_target

SQ2 = math.sqrt(2)


def consts_for(eta, c1, L, L_bar=2.0, B=1.0, m=None, M=None):
    return ModelConstants.from_chain(eta, c1, LossConstants(L, L_bar, B), m, M)


# independent transcriptions -------------------------------------------------

def ref_single_h(eps, n, c1l, omc):
    return math.exp(-((eps * n * omc / (2 * c1l) - 2) ** 2) / (2 * n))


def ref_uniform(eps, n, c1l, omc, cov):
    return cov * math.exp(-((eps * n * omc / (4 * c1l) - 2) ** 2) / (2 * n))


def ref_n1(eps, delta, c1l, omc, cov):
    t1 = 16 * c1l / (eps * omc)
    t2 = 128 * c1l**2 * math.log(cov / delta) / (eps**2 * omc**2)
    return t1, t2


def ref_xi(m, M, c1l, omc):
    xi1 = 49 * m**4 * omc**2 / (72 * M * (M + 6 * m) ** 2 * c1l**2)
    xi2 = 7 * m**2 * omc / (6 * math.sqrt(M) * (M + 6 * m) * c1l)
    return xi1, xi2


def ref_n2(eps, delta, m, M, c1l, omc, cov):
    xi1, xi2 = ref_xi(m, M, c1l, omc)
    t1 = 2 * c1l / (eps * min(math.sqrt(m), 1.0) * omc)
    t2 = (xi2 * eps + math.log(4 * cov / delta)) / (xi1 * eps**2)
    return t1, t2


def ref_n3(eps, delta, alpha, m, M, c1l, omc, cov):
    xi1, xi2 = ref_xi(m, M, c1l, omc)
    root = math.sqrt(1 + 1 / alpha)
    t1 = 2 * c1l * root / (math.sqrt(eps) * min(math.sqrt(m), 1.0) * omc)
    t2 = ((alpha + 1) / (alpha * xi1)) * (
        xi2 * math.sqrt(eps) / root + math.log(4 * cov / delta)
    ) / eps
    return t1, t2


# ergodicity constants ---------------------------------------------------------

def test_ergodicity_constants_example_chain():
    c1, c2 = ergodicity_constants(1 - SQ2 / 2, SQ2)
    assert c1 == pytest.approx(SQ2, abs=1e-15)
    assert c2 == pytest.approx(math.log(SQ2), abs=1e-15)


def test_ergodicity_constants_half():
    assert ergodicity_constants(0.5, 1.0) == pytest.approx((1.0, math.log(2)), abs=1e-15)


def test_ergodicity_roundtrip():
    for eta in (0.1, 1 - SQ2 / 2, 0.5, 0.9):
        c1, c2 = ergodicity_constants(eta, 1.0)
        assert abs(-math.expm1(-c2) - eta) <= 1e-14


def test_ergodicity_domain_errors():
    with pytest.raises(ValueError):
        ergodicity_constants(0.0, 1.0)
    with pytest.raises(ValueError):
        ergodicity_constants(1.0, 1.0)
    with pytest.raises(ValueError):
        ergodicity_constants(0.5, 0.0)


# single-hypothesis tail bound --------------------------------------------------

def test_single_h_golden():
    c = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    b = single_h_tail_bound(0.2, 2000, c)
    assert b.valid
    assert b.value == pytest.approx(0.98270, abs=1e-4)
    assert b.value == pytest.approx(ref_single_h(0.2, 2000, 4 * SQ2, 1 - SQ2 / 2), rel=1e-12)
    threshold = 4 * 4 * SQ2 / (0.2 * (1 - SQ2 / 2))
    assert threshold == pytest.approx(386.27, abs=0.01)


def test_single_h_below_threshold_still_evaluates():
    c = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    b = single_h_tail_bound(0.2, 100, c)
    assert not b.valid
    assert math.isfinite(b.value)


def test_single_h_monotone_beyond_threshold():
    c = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    threshold = 4 * c.C1 * c.L / (0.2 * c.one_minus_exp_neg_c2)
    ns = np.linspace(threshold * 1.01, threshold * 50, 40).astype(int)
    values = [single_h_tail_bound(0.2, int(n), c).value for n in ns]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_single_h_boundary_identity():
    # C1 L = 1, 1-e^{-C2} = 0.5, eps = 0.5: threshold n = 16 gives coefficient 2
    c = consts_for(0.5, 1.0, 1.0)
    b = single_h_tail_bound(0.5, 16, c)
    assert b.value == 1.0 and b.valid


# uniform tail bound -----------------------------------------------------------

def test_uniform_golden():
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0)
    b = uniform_tail_bound(0.2, 5000, c, covering_number=20)
    assert b.value == pytest.approx(18.89, abs=5e-3)
    assert b.value == pytest.approx(ref_uniform(0.2, 5000, 2 * SQ2, 1 - SQ2 / 2, 20), rel=1e-12)
    assert b.valid


def test_uniform_with_unit_covering_is_single_h_at_doubled_c1l():
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0)
    doubled = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    for n in (500, 2000, 9000):
        assert uniform_tail_bound(0.3, n, c, covering_number=1).value == pytest.approx(
            single_h_tail_bound(0.3, n, doubled).value, rel=1e-12
        )


def test_uniform_linear_in_covering_number():
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0)
    one = uniform_tail_bound(0.2, 4000, c, covering_number=1).value
    forty = uniform_tail_bound(0.2, 4000, c, covering_number=40).value
    assert forty == pytest.approx(40 * one, rel=1e-12)


def test_uniform_validity_threshold():
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0)
    threshold = 8 * c.C1 * c.L / (0.2 * c.one_minus_exp_neg_c2)
    assert not uniform_tail_bound(0.2, int(threshold) - 1, c, covering_number=5).valid
    assert uniform_tail_bound(0.2, int(threshold) + 1, c, covering_number=5).valid


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    eta=st.floats(0.01, 0.99),
    L=st.floats(0.01, 100.0),
    eps=st.floats(1e-3, 2.0),
    n=st.integers(1, 10**6),
    cov=st.integers(1, 10**6),
)
def test_uniform_is_union_of_single_h_at_half_eps(eta, L, eps, n, cov):
    c = consts_for(eta, SQ2, L)
    half = single_h_tail_bound(eps / 2, n, c)
    uni = uniform_tail_bound(eps, n, c, covering_number=cov)
    assert uni.valid == half.valid
    if half.value > 0.0:
        assert uni.value == pytest.approx(
            math.exp(math.log(cov) + math.log(half.value)), rel=1e-12
        )
    else:
        assert uni.value == 0.0


# n1 ---------------------------------------------------------------------------

def test_n1_golden():
    c = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    value = n1(0.25, 0.05, c, covering_number=1e6)
    t1, t2 = ref_n1(0.25, 0.05, 4 * SQ2, 1 - SQ2 / 2, 1e6)
    assert t1 == pytest.approx(1236.08, abs=0.01)
    assert value == math.ceil(t2) == 12_842_842
    # the quoted headline figure rounds the same quantity to six significant digits
    assert abs(value - 12_842_800) <= 50


def test_n1_covering_number_ratio():
    c = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    _, t2 = n1_terms(0.25, 0.05, c, covering_number=1000.0)
    _, t2_doubled = n1_terms(0.25, 0.05, c, covering_number=2000.0)
    assert t2_doubled / t2 == pytest.approx(
        math.log(2000 / 0.05) / math.log(1000 / 0.05), rel=1e-12
    )


def test_n1_nonincreasing_in_delta():
    c = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    values = [n1(0.25, d, c, covering_number=100) for d in (0.01, 0.05, 0.2, 0.5)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_n1_accepts_log_covering():
    c = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    assert n1(0.25, 0.05, c, ln_covering=math.log(1e6)) == n1(
        0.25, 0.05, c, covering_number=1e6
    )


# xi constants -------------------------------------------------------------------

def test_xi_golden():
    c = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    xi1, xi2 = xi_constants(0.01, 0.25, c)
    assert xi1 == pytest.approx(7.594e-10, rel=1e-3)
    assert xi2 == pytest.approx(3.897e-5, rel=1e-3)
    r1, r2 = ref_xi(0.01, 0.25, 4 * SQ2, 1 - SQ2 / 2)
    assert xi1 == pytest.approx(r1, rel=1e-12) and xi2 == pytest.approx(r2, rel=1e-12)


def test_xi_unit_simplification():
    # with m = M = 1, C1 L = 1 and the decay factor ~ 1: xi1 = 1/72, xi2 = 1/6
    c = consts_for(1 - 1e-16, 1.0, 1.0)
    xi1, xi2 = xi_constants(1.0, 1.0, c)
    assert xi1 == pytest.approx(1 / 72, rel=1e-12)
    assert xi2 == pytest.approx(1 / 6, rel=1e-12)


def test_xi_increasing_in_m():
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0)
    ms = np.linspace(0.01, 0.25, 15)
    xi1s, xi2s = zip(*(xi_constants(float(m), 0.25, c) for m in ms))
    assert all(a < b for a, b in zip(xi1s, xi1s[1:]))
    assert all(a < b for a, b in zip(xi2s, xi2s[1:]))


# n2 -------------------------------------------------------------------------------

def test_n2_golden():
    m, M = 1 / 12, 1 / 3
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0, m=m, M=M)
    # constants net over a unit range at radius eps / L_bar = 0.15: 7 members
    cov = math.ceil(1.0 / (0.3 / 2.0))
    assert cov == 7
    value = n2(0.3, 0.05, c, covering_number=cov)
    t1, t2 = ref_n2(0.3, 0.05, m, M, 2 * SQ2, 1 - SQ2 / 2, cov)
    assert value == math.ceil(max(t1, t2)) == 46_249_233


def test_n2_structural_terms():
    m, M = 1 / 12, 1 / 3
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0, m=m, M=M)
    t1, t2 = n2_terms(0.3, 0.9, c, covering_number=1)
    r1, r2 = ref_n2(0.3, 0.9, m, M, 2 * SQ2, 1 - SQ2 / 2, 1)
    assert t1 == pytest.approx(r1, rel=1e-12)
    assert t2 == pytest.approx(r2, rel=1e-12)


def test_n2_diverges_as_m_vanishes():
    values = []
    for m in (1e-2, 1e-4, 1e-6):
        c = consts_for(1 - SQ2 / 2, SQ2, 2.0, m=m, M=1 / 3)
        t1, _ = n2_terms(0.3, 0.05, c, covering_number=4)
        values.append(t1)
    assert values[0] < values[1] < values[2]


def test_n2_requires_error_range():
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0)
    with pytest.raises(ValueError, match="error range"):
        n2(0.3, 0.05, c, covering_number=4)


def test_n2_flags_epsilon_prime_regime():
    m, M = 1 / 12, 1 / 3
    assert epsilon_prime_ok(0.3, m, M)
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0, m=m, M=M)
    # a deviation level far beyond 2m/3 in the substituted scale draws a warning
    bad_eps = (2 * m / 3) * (M + 6 * m) / m**1.5 * 1.01
    with pytest.warns(UserWarning, match="2m/3"):
        n2(bad_eps, 0.05, c, covering_number=4)


# n3 ----------------------------------------------------------------------------

def test_n3_golden_pinned():
    m, M = 1 / 12, 1 / 3
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0, m=m, M=M)
    value = n3(0.3, 0.05, 1.0, c, covering_number=1)
    t1, t2 = ref_n3(0.3, 0.05, 1.0, m, M, 2 * SQ2, 1 - SQ2 / 2, 1)
    assert value == math.ceil(max(t1, t2)) == 19_217_624


def test_n3_first_term_alpha_limit():
    m, M = 1 / 12, 1 / 3
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0, m=m, M=M)
    t1_one, _ = n2_terms(_n3_level(0.3, 0.05, 1.0), 0.05, c, covering_number=1)
    t1_inf, _ = n2_terms(_n3_level(0.3, 0.05, 1e9), 0.05, c, covering_number=1)
    assert t1_inf / t1_one == pytest.approx(1 / SQ2, rel=1e-6)


def test_n3_decreasing_in_alpha_with_holder_covering():
    from chainlearn.hypothesis import covering_bound_holder

    m, M = 1 / 12, 1 / 3
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0, m=m, M=M)
    values = []
    for alpha in (0.5, 1.0, 2.0, 8.0, 64.0):
        radius = math.sqrt(0.25) / (c.L_bar * math.sqrt(1 + 1 / alpha))
        ln_cov = covering_bound_holder(1.0, 1, 1.0, radius)
        values.append(n3(0.25, 0.05, alpha, c, ln_covering=ln_cov))
    assert all(a >= b for a, b in zip(values, values[1:]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    m=st.floats(1e-3, 1.0),
    spread=st.floats(1.0, 10.0),
    eps=st.floats(1e-4, 1.0),
    delta=st.floats(1e-6, 0.999),
    alpha=st.floats(1e-2, 1e2),
    cov=st.integers(1, 10**4),
)
def test_n3_is_n2_at_substituted_level(m, spread, eps, delta, alpha, cov):
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0, m=m, M=m * spread)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value = n3(eps, delta, alpha, c, covering_number=cov)
        level = math.sqrt(eps / (1 + 1 / alpha))
        assert _n3_level(eps, delta, alpha) == level
        if value < 1e12:
            assert value == n2(level, delta, c, covering_number=cov)
    # and n2's terms at that level agree with the independent transcription of n3
    r1, r2 = ref_n3(eps, delta, alpha, m, m * spread, 2 * SQ2, 1 - SQ2 / 2, cov)
    t1, t2 = n2_terms(level, delta, c, covering_number=cov)
    assert t1 == pytest.approx(r1, rel=1e-12)
    assert t2 == pytest.approx(r2, rel=1e-12)


def test_n3_warns_at_substituted_level():
    m, M = 1 / 12, 1 / 3
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0, m=m, M=M)
    alpha = 1.0
    bad_level = (2 * m / 3) * (M + 6 * m) / m**1.5 * 1.01
    bad_eps = bad_level**2 * (1 + 1 / alpha)
    with pytest.warns(UserWarning, match="2m/3"):
        n3(bad_eps, 0.05, alpha, c, covering_number=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n3(bad_eps / 1.1**2, 0.05, alpha, c, covering_number=4)


# argument checks ----------------------------------------------------------------

MM = consts_for(1 - SQ2 / 2, SQ2, 2.0, m=1 / 12, M=1 / 3)

TAIL_BOUNDS = {
    "single_h_tail_bound": lambda eps, n: single_h_tail_bound(eps, n, MM),
    "uniform_tail_bound": lambda eps, n: uniform_tail_bound(eps, n, MM, covering_number=4),
    "relative_tail_bound": lambda eps, n: relative_tail_bound(eps, n, MM, covering_number=4),
}

SAMPLE_SIZES = {
    "n1_terms": lambda eps, delta: n1_terms(eps, delta, MM, covering_number=4),
    "n1": lambda eps, delta: n1(eps, delta, MM, covering_number=4),
    "n2_terms": lambda eps, delta: n2_terms(eps, delta, MM, covering_number=4),
    "n2": lambda eps, delta: n2(eps, delta, MM, covering_number=4),
    # n3's terms: n2's at n3's level
    "n3_terms": lambda eps, delta: n2_terms(_n3_level(eps, delta, 1.0), delta, MM,
                                            covering_number=4),
    "n3": lambda eps, delta: n3(eps, delta, 1.0, MM, covering_number=4),
}


@pytest.mark.parametrize("name", TAIL_BOUNDS)
@pytest.mark.parametrize(
    "eps, n, message",
    [
        (0.0, 100, "eps must be positive"),
        (-0.3, 100, "eps must be positive"),
        (0.3, 0, "n must be at least 1"),
        (0.3, 0.5, "n must be at least 1"),
        (0.0, 0, "eps must be positive"),
    ],
)
def test_tail_bounds_reject_bad_arguments(name, eps, n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TAIL_BOUNDS[name](eps, n)


@pytest.mark.parametrize("name", SAMPLE_SIZES)
@pytest.mark.parametrize(
    "eps, delta, message",
    [
        (0.0, 0.05, "eps must be positive"),
        (-0.3, 0.05, "eps must be positive"),
        (0.3, 0.0, "delta must lie in (0,1)"),
        (0.3, 1.0, "delta must lie in (0,1)"),
        (0.3, -0.5, "delta must lie in (0,1)"),
        (0.0, 1.5, "delta must lie in (0,1)"),
    ],
)
def test_sample_sizes_reject_bad_arguments(name, eps, delta, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SAMPLE_SIZES[name](eps, delta)


@pytest.mark.parametrize("name", TAIL_BOUNDS)
def test_tail_bounds_saturate_at_zero_where_the_exponent_overflows(name):
    # eps**2 overflows a float at eps = 1e300
    assert TAIL_BOUNDS[name](1e300, 100).value == 0.0


@pytest.mark.parametrize("name", [name for name in SAMPLE_SIZES if name[:2] in ("n1", "n2")])
@pytest.mark.parametrize("eps", [1e-170, 1e-320], ids=["square-underflow", "inverse-overflow"])
def test_sample_sizes_reject_an_overflowing_size(name, eps):
    number = name[:2]
    with pytest.raises(ValueError, match=f"^sample size {number} overflows at eps="):
        SAMPLE_SIZES[name](eps, 0.05)


@pytest.mark.parametrize("name", SAMPLE_SIZES)
def test_sample_sizes_at_an_eps_whose_square_overflows(name):
    # eps**2 overflows a float at eps = 1e300, where Python's float ** raises
    # and * gives inf: the term it divides is 0, and every size is 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # n2 flags this eps
        size = SAMPLE_SIZES[name](1e300, 0.05)
    if name in ("n1_terms", "n2_terms"):
        assert size[1] == 0.0
    assert math.ceil(max(np.atleast_1d(size))) == 1


def test_squares_past_the_float_range_in_the_closed_forms():
    # C1 L = 2e300: its square overflows in n1's numerator, which is the
    # overflowing size n1, and in xi1's denominator, which sends xi1 to 0;
    # so does (M + 6m)**2 at M = 1e300
    big = consts_for(1 - SQ2 / 2, 1e300, 2.0, m=1 / 12, M=1 / 3)
    with pytest.raises(ValueError, match="^sample size n1 overflows at eps="):
        n1(0.1, 0.05, big, covering_number=4)
    assert xi_constants(1 / 12, 1 / 3, big)[0] == 0.0
    assert xi_constants(1e-300, 1e300, MM) == (0.0, 0.0)


def test_n3_rejects_nonpositive_alpha():
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError, match="^alpha must be positive$"):
            n3(0.3, 0.05, alpha, MM, covering_number=4)


# relative tail bound --------------------------------------------------------------

def test_relative_tail_exponent_cancellation():
    m, M = 1 / 12, 1 / 3
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0, m=m, M=M)
    xi1, xi2 = xi_constants(m, M, c)
    n_star = xi2 / (xi1 * 0.3)
    b = relative_tail_bound(0.3, n_star, c, covering_number=5)
    assert b.value == pytest.approx(20.0, rel=1e-12)


def test_relative_tail_decreasing_in_n():
    m, M = 1 / 12, 1 / 3
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0, m=m, M=M)
    values = [
        relative_tail_bound(0.3, n, c, covering_number=5).value
        for n in (10**3, 10**4, 10**5, 10**6, 10**7)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_relative_tail_golden_pinned():
    m, M = 1 / 12, 1 / 3
    c = consts_for(1 - SQ2 / 2, SQ2, 2.0, m=m, M=M)
    b = relative_tail_bound(0.3, 10**6, c, covering_number=4)
    xi1, xi2 = ref_xi(m, M, 2 * SQ2, 1 - SQ2 / 2)
    expected = 4 * 4 * math.exp(-xi1 * 0.09 * 1e6 + xi2 * 0.3)
    assert b.value == pytest.approx(expected, rel=1e-12)
    assert b.value == pytest.approx(13.9611, abs=2e-4)
    assert b.valid


# Poisson equation ------------------------------------------------------------------

IDENTITY_CHAIN = ContractiveChain(make_space(make_target("identity")))


def test_truncation_sizing():
    c = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    N = truncation_for_tolerance(c, 1e-3)
    omc = c.one_minus_exp_neg_c2
    assert c.C1 * c.L * math.exp(-c.C2 * N) / omc <= 1e-3
    assert c.C1 * c.L * math.exp(-c.C2 * (N - 1)) / omc > 1e-3


@pytest.mark.parametrize("L", [2.0, 4.0])  # the CLI's default model, and the one above
def test_truncation_meets_every_tolerance_at_a_tail(L):
    # tolerances equal to a computed tail and its two neighbouring floats:
    # the closed form lands one short of or past the smallest truncation
    # for many of them, and the estimator then refuses a valid tolerance
    c = consts_for(1 - SQ2 / 2, SQ2, L)
    for n in range(200):
        tail = c.poisson_tail(n)
        for tol in (math.nextafter(tail, 0.0), tail, math.nextafter(tail, math.inf)):
            N = truncation_for_tolerance(c, tol)
            assert c.poisson_tail(N) <= tol, (n, tol)
            assert N == 0 or tol < c.poisson_tail(N - 1), (n, tol)
    # a subnormal tolerance, whose ratio to the whole tail overflows
    for tol in (1e-320, 5e-324):
        N = truncation_for_tolerance(c, tol)
        assert c.poisson_tail(N) <= tol < c.poisson_tail(N - 1)
    ident = ContractiveChain(make_space(make_target("identity")))
    tol = c.poisson_tail(9)
    assert truncation_for_tolerance(c, tol) == 9
    poisson_estimate(Hypothesis((0.5,)), ident, invariant_measure(ident, 64), c, grid=2,
                     truncation=9, rollouts=1, truncation_tol=tol)


def test_poisson_tail_is_the_truncation_tail():
    c = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    N = truncation_for_tolerance(c, 1e-3)
    assert c.poisson_tail(N) <= 1e-3 < c.poisson_tail(N - 1)
    assert c.poisson_tail(0) == c.C1 * c.L / c.one_minus_exp_neg_c2
    for n in (1, 7, 30):
        assert c.poisson_tail(n) == pytest.approx(
            c.C1 * c.L * math.exp(-c.C2 * n) / c.one_minus_exp_neg_c2, rel=1e-15
        )


def test_truncation_tail_halves_per_ln2_over_c2():
    c = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    tail = lambda N: c.C1 * c.L * math.exp(-c.C2 * N) / c.one_minus_exp_neg_c2
    step = math.log(2) / c.C2
    assert tail(10 + step) == pytest.approx(tail(10) / 2, rel=1e-12)


def test_poisson_rejects_undersized_truncation():
    c = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    pi_hat = invariant_measure(IDENTITY_CHAIN, 256)
    with pytest.raises(ValueError, match="geometric tail"):
        poisson_estimate(Hypothesis((0.5,)), IDENTITY_CHAIN, pi_hat, c,
                         grid=16, truncation=3, rollouts=10, truncation_tol=1e-3)


def test_poisson_constant_chain_gives_zero():
    # constant target and constant hypothesis: the centered loss vanishes
    chain = ContractiveChain(make_space(make_target("constant", c=0.4)))
    cls_consts = consts_for(0.5, 1.0, 0.2, B=0.01)
    pi_hat = invariant_measure(chain, 128)
    N = truncation_for_tolerance(cls_consts, 1e-3)
    est = poisson_estimate(Hypothesis((0.6,)), chain, pi_hat, cls_consts,
                           grid=16, truncation=N, rollouts=50)
    assert np.abs(est.values).max() <= 1e-12
    res = poisson_residual_check(est, chain, Hypothesis((0.6,)), pi_hat)
    assert res.max_residual <= 1e-12


def test_poisson_norm_bound_and_residual():
    c = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    pi_hat = invariant_measure(IDENTITY_CHAIN, 1024)
    N = truncation_for_tolerance(c, 1e-3)
    h = Hypothesis((0.5,))
    est = poisson_estimate(h, IDENTITY_CHAIN, pi_hat, c, grid=32,
                           truncation=N, rollouts=2000, seed=3)
    norm_bound = c.C1 * c.L / c.one_minus_exp_neg_c2
    assert norm_bound == pytest.approx(19.3137, abs=1e-3)
    assert np.abs(est.values).max() <= norm_bound + est.mc_tolerance
    res = poisson_residual_check(est, IDENTITY_CHAIN, h, pi_hat)
    assert res.max_residual <= res.threshold


def test_poisson_residual_shrinks_with_rollouts():
    c = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    pi_hat = invariant_measure(IDENTITY_CHAIN, 1024)
    N = truncation_for_tolerance(c, 1e-3)
    h = Hypothesis((0.5,))
    res = []
    for rollouts in (500, 2000):
        est = poisson_estimate(h, IDENTITY_CHAIN, pi_hat, c, grid=16,
                               truncation=N, rollouts=rollouts, seed=11)
        res.append(poisson_residual_check(est, IDENTITY_CHAIN, h, pi_hat).max_residual)
    assert res[1] < res[0]


def test_poisson_estimate_follows_the_scalar_stream():
    # rollout r from grid point i is lane i * rollouts + r of the Poisson
    # stream, and step k takes the bit at index k
    chain = ContractiveChain(make_space(make_target("tent")))
    c = consts_for(1 - SQ2 / 2, SQ2, 4.0)
    pi_hat = invariant_measure(chain, 256)
    h = Hypothesis((0.2, 0.9, 0.4))
    grid, rollouts, N, seed = 2, 3, 5, 23
    est = poisson_estimate(h, chain, pi_hat, c, grid=grid, truncation=N,
                           rollouts=rollouts, seed=seed, truncation_tol=math.inf)
    s = rng.derive(seed, rng.POISSON)
    target = chain.space.target
    er = true_error(h, pi_hat)
    for i, x0 in enumerate(np.linspace(0.0, 1.0, grid + 1)):
        total = 0.0
        for r in range(rollouts):
            x = float(x0)
            for k in range(N + 1):
                if k:
                    x = (x + rng.bit(s, i * rollouts + r, k)) / 2.0
                total += (h(x) - target(x)) ** 2
        assert est.values[i] == pytest.approx(total / rollouts - (N + 1) * er, rel=1e-12, abs=1e-15)


TENT_CHAIN = ContractiveChain(make_space(make_target("tent")))
TENT_PI = invariant_measure(TENT_CHAIN, 256)
TENT_CONSTS = consts_for(1 - SQ2 / 2, SQ2, 4.0)
FOLD_H = Hypothesis((0.2, 0.9, 0.4))
FOLD_GRID, FOLD_ROLLOUTS, FOLD_N, FOLD_SEED = 4, 6, 20, 31


def fold_estimate(h=FOLD_H):
    return poisson_estimate(h, TENT_CHAIN, TENT_PI, TENT_CONSTS, grid=FOLD_GRID,
                            truncation=FOLD_N, rollouts=FOLD_ROLLOUTS, seed=FOLD_SEED,
                            truncation_tol=math.inf)


def test_poisson_lane_sums_run_in_step_order():
    # each lane's losses are added ((0 + l_0) + l_1) + ..., and the lane sums
    # of a grid point are averaged as one row
    s = rng.derive(FOLD_SEED, rng.POISSON)
    target = TENT_CHAIN.space.target
    sums = np.zeros((FOLD_GRID + 1, FOLD_ROLLOUTS))
    for i, x0 in enumerate(np.linspace(0.0, 1.0, FOLD_GRID + 1)):
        for r in range(FOLD_ROLLOUTS):
            x = float(x0)
            for k in range(FOLD_N + 1):
                if k:
                    x = (x + rng.bit(s, i * FOLD_ROLLOUTS + r, k)) / 2.0
                sums[i, r] += (FOLD_H(x) - target(x)) ** 2
    want = sums.mean(axis=1) - (FOLD_N + 1) * true_error(FOLD_H, TENT_PI)
    assert np.array_equal(fold_estimate().values, want)


# lanes per chunk: 1, 4 (less than a grid row and not dividing the
# rollouts), 9 (more than a row, dividing neither the rollouts nor the lane
# count), more than all 30 lanes, and the default chunk; the budget, which
# sets the default block width, must not reach the one-step Poisson blocks
@pytest.mark.parametrize("lanes", [1, 4, 9, 10**5, None])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("budget", [4, None])
def test_poisson_estimate_independent_of_chunks_workers_and_blocks(
    monkeypatch, lanes, workers, budget
):
    want = fold_estimate().values
    if lanes is not None:
        monkeypatch.setattr(bounds_module, "CHUNK", lanes)
    if budget is not None:
        monkeypatch.setattr(chain_module, "BUDGET", budget)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(workers)))
    assert np.array_equal(fold_estimate().values, want)


# the tent minus 0.25 is negative, zero (at the grid points 0.25 and 0.75)
# and positive along the fold
CONST_H = Hypothesis((0.25,))


@pytest.mark.parametrize("lanes", [1, 9, None])
@pytest.mark.parametrize("workers", [1, 2])
def test_poisson_constant_fold_is_the_general_fold_without_interp(monkeypatch, lanes, workers):
    # a one-knot Hypothesis takes the (f - c)^2 path, which must give the
    # floats of the general path, reached here through a plain callable
    want = fold_estimate(lambda x: CONST_H(x)).values
    if lanes is not None:
        monkeypatch.setattr(bounds_module, "CHUNK", lanes)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(workers)))
    folding, interp = [], hypothesis_module.np.interp
    simulate = bounds_module.simulate_x_blocks

    def spy(*args, **kwargs):
        folding.append(None)
        try:
            yield from simulate(*args, **kwargs)
        finally:
            folding.pop()

    def no_interp_in_the_fold(*args, **kwargs):
        if folding:
            raise AssertionError("np.interp ran in the constant fold")
        return interp(*args, **kwargs)

    monkeypatch.setattr(bounds_module, "simulate_x_blocks", spy)
    monkeypatch.setattr(hypothesis_module.np, "interp", no_interp_in_the_fold)
    assert np.array_equal(fold_estimate(CONST_H).values, want)
    with pytest.raises(AssertionError, match="constant fold"):  # the general path interpolates
        fold_estimate(lambda x: CONST_H(x))


def test_poisson_fold_with_more_workers_than_cores_and_fast_switching(monkeypatch):
    # one lane per chunk, eight workers taking chunks from one iterator: a
    # chunk folded twice or skipped would change its lane's sum
    want = fold_estimate().values
    monkeypatch.setattr(bounds_module, "CHUNK", 1)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(8)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert np.array_equal(fold_estimate().values, want)
    finally:
        sys.setswitchinterval(interval)


def test_poisson_folds_one_step_blocks_of_whole_chunks(monkeypatch):
    # each chunk is one simulator call in one-step blocks, so the fold holds
    # no steps x lanes array
    monkeypatch.setattr(bounds_module, "CHUNK", 7)
    calls, shapes = [], []
    simulate = bounds_module.simulate_x_blocks

    def spy(x0, n, stream, lanes, **kwargs):
        calls.append((np.size(lanes), n, kwargs))
        for block in simulate(x0, n, stream, lanes, **kwargs):
            shapes.append(block.shape)
            yield block

    monkeypatch.setattr(bounds_module, "simulate_x_blocks", spy)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
    fold_estimate()
    lanes = FOLD_ROLLOUTS * (FOLD_GRID + 1)
    assert calls == [(7, FOLD_N + 1, {"width": 1})] * (lanes // 7) + [
        (lanes % 7, FOLD_N + 1, {"width": 1})
    ]
    assert set(shapes) == {(7, 1), (lanes % 7, 1)}


def test_poisson_chunk_error_reaches_caller_and_no_thread_outlives_the_call(monkeypatch):
    monkeypatch.setattr(bounds_module, "CHUNK", 1)  # one lane per chunk
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    error = RuntimeError("chunk failed")
    lock, calls = threading.Lock(), []

    def failing(x):
        x = np.asarray(x, dtype=float)
        if x.size == 1:  # one step of a one-lane chunk, not the true error's atoms
            with lock:
                calls.append(None)
                if len(calls) == 7 * (FOLD_N + 1):  # the last step of a seventh chunk
                    raise error
        return FOLD_H(x)

    before = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        fold_estimate(failing)
    assert excinfo.value is error
    assert threading.active_count() == before
    # the remaining chunks were skipped
    assert len(calls) < FOLD_ROLLOUTS * (FOLD_GRID + 1) * (FOLD_N + 1)


def test_model_constants_validation():
    with pytest.raises(ValueError):
        ModelConstants(eta=0.5, C1=1.0, C2=0.7, L=1.0, L_bar=1.0, B=1.0, m=0.5, M=0.1)
    with pytest.raises(ValueError):
        ModelConstants(eta=1.5, C1=1.0, C2=0.7, L=1.0, L_bar=1.0, B=1.0)
    c = ModelConstants.from_chain(0.25, 2.0, LossConstants(1.0, 1.0, 1.0))
    assert abs(c.one_minus_exp_neg_c2 - 0.25) <= 1e-14
