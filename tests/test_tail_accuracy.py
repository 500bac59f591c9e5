"""scipy oracles for the Gaussian test laws deep in their tails.

Power, the p-value cdf under the alternative and the coupled screening curve
are each evaluated through the rejection law itself, never as 1 - (an
acceptance probability), so they keep their relative accuracy where that
complement would round to a few digits or to 0. The critical values under
them come from normal_quantile, itself checked here into both tails. The
Student-t quantile is checked below 1/2, down to 1e-300 and at the float edge,
by an mpmath round trip, since scipy's t.ppf is itself off in the far tail.
The array Gaussian cdf that the Monte Carlo summary reads is checked against
mpmath's erfc at its own argument, the bound its brackets rest on.
"""

import math
import random
import sys

import mpmath
import numpy as np
import pytest
from scipy.stats import norm

from errstat import (AlternativeSpec, GaussianTestModel, Tail, cdf_under_alternative,
                     combined_fpr_curve, normal_cdf, normal_quantile, pdf_under_alternative,
                     power, student_t_cdf, student_t_quantile, type2_error)
from errstat.distributions import _CODY_MID_CUT, _CODY_SMALL_CUT, _CODY_ZERO_CUT
from errstat.errors import DomainError
from errstat.montecarlo import _SQRT2, _normal_cdf_vec

RTOL = 1e-10
ALPHAS = [1e-290, 1e-280, 1e-200, 1e-120, 1e-60, 1e-30, 1e-16, 1e-10, 1e-6, 1e-3, 0.05, 0.2, 0.5]
MEANS = [-8.0, -5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0, 8.0]
EPS = sys.float_info.epsilon


def _assert_close(got, ref):
    # Relative accuracy wherever the true value is a normal double above 1e-300.
    if ref > 1e-300:
        assert abs(got - ref) <= RTOL * ref, (got, ref, abs(got - ref) / ref)
    else:
        assert 0.0 <= got <= 1e-300, (got, ref)


def _laws(alpha, m, tail):
    """(type II error, power) from scipy; the two-sided acceptance uses |m|, its symmetry."""
    if tail is Tail.ONE_SIDED_UPPER:
        z = norm.isf(alpha)
        return norm.cdf(z - m), norm.sf(z - m)
    z, b = norm.isf(0.5 * alpha), abs(m)
    return norm.cdf(z - b) - norm.cdf(-z - b), norm.sf(z - m) + norm.cdf(-z - m)


@pytest.mark.parametrize("tail", [Tail.ONE_SIDED_UPPER, Tail.TWO_SIDED])
def test_power_and_type2_error_match_scipy_into_the_tails(tail):
    for alpha in ALPHAS:
        for m in MEANS:
            model = GaussianTestModel(effect_size=m, n=1, tail=tail)
            beta, pw = _laws(alpha, m, tail)
            _assert_close(type2_error(alpha, model), beta)
            _assert_close(power(alpha, model), pw)


def test_one_sided_pvalue_cdf_matches_scipy_for_tiny_p():
    for p in [10.0 ** -k for k in range(1, 21)]:
        for delta in (0.1, 0.5, 1.0, 2.0):
            for n in (1, 4, 10):
                m = math.sqrt(n) * delta
                _assert_close(cdf_under_alternative(p, AlternativeSpec(delta, n)),
                              norm.sf(norm.isf(p) - m))


@pytest.mark.parametrize("effect_size, n", [(0.1, 1), (0.5, 10), (0.8, 3)])
def test_coupled_fpr_curve_matches_scipy_for_tiny_alpha(effect_size, n):
    alphas = [10.0 ** -k for k in (12, 11, 10, 9, 8, 7, 6)]
    m = math.sqrt(n) * effect_size
    for prior_null in (0.1, 0.5, 0.9):
        for alpha, beta, fpr in combined_fpr_curve(effect_size, n, prior_null, alphas):
            z = norm.isf(alpha)
            pw = norm.sf(z - m)
            _assert_close(beta, norm.cdf(z - m))
            _assert_close(fpr, alpha * prior_null / (alpha * prior_null + pw * (1.0 - prior_null)))


def test_coupled_fpr_curve_where_the_power_underflows_is_exact_or_raises():
    # Where the computed power is 0, the curve gives fpr 1 only if the true rate at the same
    # critical value and mean rounds to 1; else it raises, and only when power * (1 - prior) /
    # (alpha * prior) is not far below 2**-54 (its Mills-ratio bound is tight to 1 - 1/x**2).
    rng = random.Random(5)
    seen = {1.0: 0, DomainError: 0}
    with mpmath.workdps(40):
        while min(seen.values()) < 100:
            model = GaussianTestModel(-(10.0 ** rng.uniform(-1.0, 1.0)),
                                      int(10.0 ** rng.uniform(0.0, 4.0)))
            alpha, prior = (max(5e-324, 10.0 ** rng.uniform(-323.5, -1.0)) for _ in range(2))
            prior = prior if rng.random() < 0.5 else 1.0 - max(2.0 ** -53, prior)
            x = model.noncentrality - model.tail.critical(alpha)
            if normal_cdf(x) != 0.0:
                continue
            ratio = mpmath.ncdf(x) * (1 - mpmath.mpf(prior)) / (mpmath.mpf(alpha) * prior)
            try:
                (_, _, fpr), = combined_fpr_curve(model.effect_size, model.n, prior, [alpha])
            except DomainError:
                assert ratio > mpmath.mpf(2) ** -56, (model, alpha, prior, ratio)
                seen[DomainError] += 1
                continue
            assert fpr == float(1 / (1 + ratio)) == 1.0, (model, alpha, prior, ratio)
            seen[fpr] += 1


def test_normal_quantile_matches_scipy_into_both_tails():
    # Below 1/2 against norm.ppf(p); above it against norm.isf(1 - p), where 1 - p is exact.
    rng = random.Random(13)
    points = ([10.0 ** rng.uniform(-307, -3) for _ in range(2000)]
              + [1.0 - 10.0 ** rng.uniform(-15, -3) for _ in range(2000)]
              + [rng.uniform(1e-3, 1.0 - 1e-3) for _ in range(2000)])
    for p in points:
        ref = norm.ppf(p) if p < 0.5 else norm.isf(1.0 - p)
        got = normal_quantile(p)
        assert abs(got - ref) <= 8 * EPS * abs(ref), (p, got, ref, abs(got - ref) / abs(ref))


def _t_tail(x, df):
    # Pr(T > |x|) under Student's t with df degrees of freedom, through the incomplete beta
    return mpmath.betainc(df / 2, mpmath.mpf(0.5), 0, df / (df + x * x), regularized=True) / 2


def _t_quantile_error(x, p, df):
    # |cdf(x) - p| / (|x| pdf(x)) at 40 digits: the relative error in x that the residual implies
    with mpmath.workdps(40):
        x, p, df = mpmath.mpf(x), mpmath.mpf(p), mpmath.mpf(df)
        tail = _t_tail(x, df)
        cdf = tail if x < 0 else 1 - tail
        pdf = ((1 + x * x / df) ** (-(df + 1) / 2)
               / (mpmath.sqrt(df) * mpmath.beta(df / 2, mpmath.mpf(0.5))))
        return float(abs(cdf - p) / (abs(x) * pdf))


def test_student_t_quantile_lower_tail_round_trips_through_mpmath():
    # 600 log-uniform p in [1e-300, 1/2) at df 1 to 999. The worst measured is 7.67e-14
    # (df 2, p 2.9e-285), where the cdf's own rounding, about eps * log|x| relative, meets
    # the stop rule's 1e-14.
    rng = random.Random(22)
    worst = (0.0, None)
    for _ in range(600):
        p = 10.0 ** rng.uniform(-300.0, math.log10(0.5))
        df = int(10.0 ** rng.uniform(0.0, 3.0))
        err = _t_quantile_error(student_t_quantile(p, df), p, df)
        worst = max(worst, (err, (p, df)))
    assert worst[0] <= 8e-14, worst


def test_student_t_quantile_at_the_float_edge():
    # df 1: x = -cot(pi p), about -1 / (pi p), where the cdf's subnormal values lie 2e-15 apart
    x = student_t_quantile(2.5e-309, 1)
    assert x == pytest.approx(-1.2732395447351615435e308, rel=1e-14)
    with pytest.raises(DomainError, match="quantile"):
        student_t_quantile(5e-324, 1)  # the root is -6.4e322


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: near 1 the loop solves cdf(x) = p "
                   "against 1 - tail rounded to the ulp of 1; relative error 3.8e-7 here")
def test_student_t_quantile_upper_tail_near_1():
    p, df = 0.9999999999977589, 444
    assert _t_quantile_error(student_t_quantile(p, df), p, df) <= 1e-10


def _upper_quantile(p):
    # z with Pr(Z > z) = p, for p down to the subnormals
    return mpmath.findroot(lambda z: mpmath.log(mpmath.ncdf(-z)) - mpmath.log(p), 38.0)


# Kernel defects that no other test sees, each against mpmath at 50 digits, with the
# bound in eps that a double-precision kernel meets.
@pytest.mark.parametrize("call, truth, eps", [
    pytest.param(lambda: normal_cdf(-37.5), lambda: mpmath.ncdf(-37.5), 16,
                 marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4, PR B: the erfc "
                                         "tail stops short of the bottom of the range; 0.0 "
                                         "against 4.6e-308"), id="normal_cdf"),
    pytest.param(lambda: student_t_cdf(-3.0, 2 ** 53),
                 lambda: _t_tail(mpmath.mpf(-3), mpmath.mpf(2) ** 53), 256,
                 marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 7: log B(df/2, 1/2) "
                                         "as a difference of lgammas; 5.46e-11 against "
                                         "1.35e-3"), id="student_t_cdf"),
    pytest.param(lambda: pdf_under_alternative(1e-320, AlternativeSpec(0.5)),
                 lambda: mpmath.exp(0.5 * _upper_quantile(mpmath.mpf(1e-320)) - 0.125), 64,
                 marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4, PR B: divides by "
                                         "a subnormal phi(z); 180196154.016 against "
                                         "180197255.283, relative error 6.1e-6"),
                 id="pdf_under_alternative"),
])
def test_kernel_matches_mpmath_where_it_is_known_to_fail(call, truth, eps):
    with mpmath.workdps(50):
        ref = truth()
        assert abs(mpmath.mpf(call()) - ref) <= eps * EPS * ref


def test_normal_cdf_vec_is_within_4_eps_of_erfc():
    # The Monte Carlo summary's brackets rest on this: the array cdf, against mpmath's erfc
    # at the kernel's own double t = |x| / sqrt(2), is off by under 4 eps relative wherever
    # it does not underflow to 0 (t < 26.5). 8,000 random x from -37.4 to 8.3 and the 2,000
    # doubles on either side of each Cody cut; 3.48 eps is the worst seen, next to t = 26.5.
    rng = np.random.default_rng(20261020)
    xs = [rng.uniform(-37.4, 8.3, 8000)]
    for cut in (_CODY_SMALL_CUT, _CODY_MID_CUT, _CODY_ZERO_CUT):
        for x in (-cut * _SQRT2, cut * _SQRT2):
            xs.append((np.array([x]).view(np.int64) + np.arange(-2000, 2001)).view(np.float64))
    xs = np.concatenate(xs)
    t = np.abs(xs) / _SQRT2
    keep = (t < _CODY_ZERO_CUT) & (xs <= 8.3)
    xs, t = xs[keep], t[keep]
    assert xs.size == 8000 + 4 * 4001 + 2000 and xs.min() < -37.47
    worst = 0.0
    with mpmath.workdps(30):
        for x, tx, got in zip(xs.tolist(), t.tolist(), _normal_cdf_vec(xs).tolist()):
            half = mpmath.erfc(tx) / 2
            exact = half if x < 0 else 1 - half
            worst = max(worst, abs(got - exact) / exact)
    assert worst < 4 * EPS, float(worst / EPS)
