import math

import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.stats import norm

from errstat import (
    CostParams,
    CostTrend,
    alpha_from_critical,
    closed_form_minimizer,
    cost_derivative,
    cost_monotonicity_region,
    critical_from_alpha,
    expected_cost,
    numeric_minimizer,
)
from errstat.errors import DomainError

from oracles import central_difference, oracle_normal_pdf

SYMMETRIC = CostParams(cost_type1=1.0, cost_type2=1.0, prior_good=0.5)
RATIO_TWO = CostParams(cost_type1=1.0, cost_type2=2.0, prior_good=0.5)


def _gauss_pdf(x, mu, sigma):
    return oracle_normal_pdf((x - mu) / sigma) / sigma


def _quad_cdf(c, mu, sigma):
    # adaptive quadrature from far in the lower tail
    lo = mu - 14.0 * sigma
    val, _ = quad(_gauss_pdf, lo, c, args=(mu, sigma))
    return val


def test_cost_limits():
    params = CostParams(2.0, 3.0, 0.3, mu0=0.0, mu1=1.0, sigma=1.0)
    assert expected_cost(-12.0, params) == pytest.approx(0.3 * 2.0, abs=1e-10)
    assert expected_cost(13.0, params) == pytest.approx(0.7 * 3.0, abs=1e-10)


def test_cost_curve_matches_quadrature():
    params = CostParams(1.5, 2.5, 0.4, mu0=0.0, mu1=1.0, sigma=0.8)
    for c in [-2.0, -0.5, 0.0, 0.3, 0.8, 1.4, 3.0]:
        via_quad = (0.4 * (1.0 - _quad_cdf(c, 0.0, 0.8)) * 1.5
                    + 0.6 * _quad_cdf(c, 1.0, 0.8) * 2.5)
        assert expected_cost(c, params) == pytest.approx(via_quad, abs=1e-8)


def test_symmetric_midpoint_is_global_minimum():
    grid = [-3.0 + k * 0.05 for k in range(140)]
    costs = [expected_cost(c, SYMMETRIC) for c in grid]
    best = grid[costs.index(min(costs))]
    assert abs(best - 0.5) < 0.051
    assert closed_form_minimizer(SYMMETRIC) == 0.5


def test_derivative_vanishes_at_minimizer():
    for params in (SYMMETRIC, RATIO_TWO, CostParams(1.0, 1.0, 0.2, sigma=2.0)):
        c_star = closed_form_minimizer(params)
        assert abs(cost_derivative(c_star, params)) < 1e-9


@pytest.mark.parametrize("c", [-1.0, 0.0, 1.0, 2.0])
def test_derivative_matches_finite_difference(c):
    params = CostParams(1.3, 0.7, 0.6, mu0=-0.2, mu1=1.1, sigma=0.9)
    fd = central_difference(lambda x: expected_cost(x, params), c, h=1e-6)
    exact = cost_derivative(c, params)
    assert abs(fd - exact) / max(abs(exact), 1e-12) < 1e-5


def test_all_good_prior_never_rejects():
    params = CostParams(1.0, 1.0, 1.0)
    for c in (-2.0, 0.0, 0.5, 2.5):
        assert cost_derivative(c, params) < 0.0


def test_closed_form_values():
    assert closed_form_minimizer(SYMMETRIC) == 0.5
    assert closed_form_minimizer(RATIO_TWO) == pytest.approx(0.5 - math.log(2.0), abs=1e-12)


def test_closed_form_matches_derivative_free_minimizer():
    for phi in (0.2, 0.5, 0.8):
        for psi in (0.5, 1.0, 2.0):
            for sigma in (0.5, 1.0, 2.0):
                params = CostParams(1.0, psi, phi, mu0=0.0, mu1=1.0, sigma=sigma)
                closed = closed_form_minimizer(params)
                res = minimize_scalar(
                    lambda c: expected_cost(c, params),
                    bounds=(closed - 6.0 * sigma, closed + 6.0 * sigma),
                    method="bounded",
                    options={"xatol": 1e-10},
                )
                assert abs(closed - res.x) < 1e-6
                assert abs(closed - numeric_minimizer(params)) < 1e-8


def test_minimizer_decreases_with_cost_ratio():
    prev = float("inf")
    for psi in (0.5, 1.0, 2.0, 5.0, 10.0):
        c_star = closed_form_minimizer(CostParams(1.0, psi, 0.5))
        assert c_star < prev
        prev = c_star


def test_second_derivative_positive_at_minimizer():
    for params in (SYMMETRIC, RATIO_TWO, CostParams(3.0, 1.0, 0.7, sigma=1.5)):
        c_star = closed_form_minimizer(params)
        second = central_difference(lambda x: cost_derivative(x, params), c_star, h=1e-6)
        assert second > 0.0


def test_minimizers_work_in_units_of_sigma():
    # sigma^2 overflows from sigma ~ 1.3e154 and is 0 below ~ 1e-162; sigma itself is fine
    for sigma in (1e-170, 1e200, 1.7e308):
        assert closed_form_minimizer(CostParams(1.0, 1.0, 0.5, sigma=sigma)) == 0.5
    wide = CostParams(1.0, 2.0, 0.5, mu0=0.0, mu1=1e200, sigma=1e200)
    c_star = closed_form_minimizer(wide)
    assert c_star == pytest.approx((0.5 - math.log(2.0)) * 1e200, rel=1e-15)
    assert numeric_minimizer(wide) == pytest.approx(c_star, rel=1e-14)
    assert cost_derivative(c_star, wide) == pytest.approx(0.0, abs=1e-212)
    assert math.isfinite(numeric_minimizer(CostParams(1.0, 1.0, 0.5, sigma=1e-170)))


def test_closed_form_rejects_bad_orderings():
    with pytest.raises(DomainError):
        closed_form_minimizer(CostParams(1.0, 1.0, 0.5, mu0=1.0, mu1=0.0))
    with pytest.raises(DomainError):
        closed_form_minimizer(CostParams(1.0, 1.0, 0.5, mu0=1.0, mu1=1.0))
    with pytest.raises(DomainError):
        closed_form_minimizer(CostParams(1.0, 1.0, 1.0))


def test_monotonicity_classification():
    c_star = closed_form_minimizer(RATIO_TWO)
    assert cost_monotonicity_region(c_star, RATIO_TWO) is CostTrend.STATIONARY
    assert cost_monotonicity_region(0.5, SYMMETRIC) is CostTrend.STATIONARY
    # below the minimizer C'(c) < 0, so raising alpha (lowering c) raises cost
    grid = [c_star - 1.5, c_star - 0.4, c_star + 0.4, c_star + 1.5]
    trends = [cost_monotonicity_region(c, RATIO_TWO) for c in grid]
    assert trends[:2] == [CostTrend.INCREASING_IN_ALPHA] * 2
    assert trends[2:] == [CostTrend.DECREASING_IN_ALPHA] * 2


def test_monotonicity_matches_derivative_sign_scan():
    params = CostParams(1.2, 2.7, 0.35, mu0=-0.5, mu1=0.9, sigma=1.1)
    for k in range(-20, 21):
        c = k / 5.0
        trend = cost_monotonicity_region(c, params)
        deriv = cost_derivative(c, params)
        if trend is CostTrend.INCREASING_IN_ALPHA:
            # raising alpha lowers c; cost grows iff C'(c) < 0
            assert deriv < 0.0
        elif trend is CostTrend.DECREASING_IN_ALPHA:
            assert deriv > 0.0


def test_monotonicity_far_from_the_means():
    # The squares of c overflow from |c| ~ 1.3e154 and the density ratio's exp
    # long before; far below the means f0/f1 is beyond every float, far above it is 0.
    for c in (-1e200, -1e160, -1.7e308):
        assert cost_monotonicity_region(c, SYMMETRIC) is CostTrend.INCREASING_IN_ALPHA
    for c in (1e160, 1e200, 1.7e308):
        assert cost_monotonicity_region(c, SYMMETRIC) is CostTrend.DECREASING_IN_ALPHA
    equal_means = CostParams(1.0, 1.0, 0.5, mu0=0.5, mu1=0.5)
    assert cost_monotonicity_region(1.7e308, equal_means) is CostTrend.STATIONARY
    # sigma^2 underflows to 0 here; the ratio is still 0 or beyond every float off the midpoint
    narrow = CostParams(1.0, 1.0, 0.5, sigma=1e-170)
    assert [cost_monotonicity_region(c, narrow) for c in (0.4, 0.5, 0.6)] == [
        CostTrend.INCREASING_IN_ALPHA, CostTrend.STATIONARY, CostTrend.DECREASING_IN_ALPHA]


def test_alpha_critical_round_trip():
    params = CostParams(1.0, 1.0, 0.5)
    assert alpha_from_critical(0.0, params) == pytest.approx(0.5, abs=1e-12)
    assert alpha_from_critical(1.5, params) == pytest.approx(0.0668072012688581, abs=1e-10)
    for alpha in (0.005, 0.05, 0.3, 0.9):
        c = critical_from_alpha(alpha, params)
        assert alpha_from_critical(c, params) == pytest.approx(alpha, abs=1e-10)


@pytest.mark.parametrize("s", [1e-300, 1e-100, 1e-10, 1e162, 1e165, 1e300])
def test_numeric_minimizer_is_scale_free(s):
    # the means and the dispersion scale together, so only units of sigma may matter
    params = CostParams(1.0, 2.0, 0.5, mu0=0.0, mu1=s, sigma=s)
    c_star = closed_form_minimizer(params)
    assert abs(numeric_minimizer(params) - c_star) <= 1e-14 * abs(c_star)


@pytest.mark.parametrize("c", [8.0, 10.0])
def test_alpha_from_critical_is_the_upper_tail_not_a_complement(c):
    assert alpha_from_critical(c, SYMMETRIC) == pytest.approx(norm.sf(c), rel=1e-13, abs=0.0)


def test_params_validation():
    with pytest.raises(DomainError):
        CostParams(-1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        CostParams(1.0, 1.0, 1.5)
    with pytest.raises(DomainError):
        CostParams(1.0, 1.0, 0.5, sigma=0.0)
    with pytest.raises(DomainError):
        CostParams(1.0, 1.0, 0.5, mu0=float("nan"))
    zero_cost = CostParams(0.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        _ = zero_cost.cost_ratio
