"""scipy oracles for the Gaussian test laws deep in their tails.

Power, the p-value cdf under the alternative and the coupled screening curve
are each evaluated through the rejection law itself, never as 1 - (an
acceptance probability), so they keep their relative accuracy where that
complement would round to a few digits or to 0. The critical values under
them come from normal_quantile, itself checked here into both tails.
"""

import math
import random
import sys

import mpmath
import pytest
from scipy.stats import norm

from errstat import (AlternativeSpec, GaussianTestModel, Tail, cdf_under_alternative,
                     combined_fpr_curve, normal_cdf, normal_quantile, power, type2_error)
from errstat.errors import DomainError

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
