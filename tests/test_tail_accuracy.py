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

import pytest
from scipy.stats import norm

from errstat import (AlternativeSpec, GaussianTestModel, Tail, cdf_under_alternative,
                     combined_fpr_curve, normal_quantile, power, type2_error)

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
