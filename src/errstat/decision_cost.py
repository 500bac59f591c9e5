"""Choosing a rejection threshold by expected cost instead of convention.

A statistic falls above the critical value c -> reject. With cost_type1
charged for rejecting a good case, cost_type2 for accepting a bad one, and
a fraction prior_good of cases good, the expected cost is

    C(c) = prior * (1 - F0(c)) * cost_type1 + (1 - prior) * F1(c) * cost_type2.

For Gaussian statistics sharing sigma the minimizer has the closed form
sigma^2/(mu0 - mu1) * log[(1-prior)*cost_type2 / (prior*cost_type1)]
+ (mu0 + mu1)/2, valid when mu0 < mu1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .distributions import _normal_cdf, _normal_pdf
from .error_tradeoff import Tail
from .errors import (DomainError, check_at_least, check_finite, check_instance, check_open_unit,
                     check_positive, check_unit)

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_STATIONARY_TOL = 1e-9  # |gap| of cost_monotonicity_region read as the stationary point


@dataclass(frozen=True)
class CostParams:
    """Error costs, prior fraction of good cases, and the two Gaussian laws.

    cost_type1: cost of rejecting a good case (type I), >= 0.
    cost_type2: cost of accepting a bad case (type II), >= 0.
    prior_good: fraction of cases that are good, in [0, 1]; the closed-form
        minimizer additionally needs it strictly inside.
    mu0/mu1/sigma: statistic means under good/bad and the shared dispersion.

    Zero costs are accepted (they make the expected cost identically easy)
    but the cost ratio and the minimizers require both strictly positive.
    """

    cost_type1: float
    cost_type2: float
    prior_good: float
    mu0: float = 0.0
    mu1: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "cost_type1", check_at_least(self.cost_type1, "cost_type1", 0.0))
        object.__setattr__(self, "cost_type2", check_at_least(self.cost_type2, "cost_type2", 0.0))
        object.__setattr__(self, "prior_good", check_unit(self.prior_good, "prior_good"))
        object.__setattr__(self, "sigma", check_positive(self.sigma, "sigma"))
        object.__setattr__(self, "mu0", check_finite(self.mu0, "mu0"))
        object.__setattr__(self, "mu1", check_finite(self.mu1, "mu1"))

    @property
    def cost_ratio(self) -> float:
        """cost_type2 / cost_type1; needs both costs strictly positive."""
        cost1 = check_positive(self.cost_type1, "cost_type1")
        return check_finite(check_positive(self.cost_type2, "cost_type2") / cost1,
                            "cost_type2 / cost_type1")


def _checked(c: float, params: CostParams) -> float:
    # the caller's critical value, after the checks on it and on params
    c = check_finite(c, "critical value")
    check_instance(params, CostParams, "params")
    return c


def _standardized(c: float, params: CostParams) -> tuple[float, float]:
    # c in units of sigma from each mean, the only form in which c enters the Gaussian laws;
    # callers check c and params, but the quotients can still overflow
    return (check_finite((c - params.mu0) / params.sigma, "(c - mu0) / sigma"),
            check_finite((c - params.mu1) / params.sigma, "(c - mu1) / sigma"))


def _expected_cost(c: float, params: CostParams) -> float:
    # expected_cost of a checked c and params
    z0, z1 = _standardized(c, params)
    return (params.prior_good * (1.0 - _normal_cdf(z0)) * params.cost_type1
            + (1.0 - params.prior_good) * _normal_cdf(z1) * params.cost_type2)


def expected_cost(c: float, params: CostParams) -> float:
    """Expected cost of thresholding at c."""
    return _expected_cost(_checked(c, params), params)


def _cost_slopes(c: float, params: CostParams) -> tuple[float, float]:
    # sigma * C'(c) and sigma^2 * C''(c) at a checked c, free of sigma so that neither overflows
    # or underflows with it: each law's density at c is normal_pdf(z) / sigma and its slope
    # -z normal_pdf(z) / sigma^2.
    z0, z1 = _standardized(c, params)
    w0 = params.prior_good * params.cost_type1
    w1 = (1.0 - params.prior_good) * params.cost_type2
    f0, f1 = _normal_pdf(z0), _normal_pdf(z1)
    return -w0 * f0 + w1 * f1, w0 * z0 * f0 - w1 * z1 * f1


def cost_derivative(c: float, params: CostParams) -> float:
    """d/dc of expected_cost for the Gaussian pair."""
    return check_finite(_cost_slopes(_checked(c, params), params)[0] / params.sigma,
                        "the cost derivative")


def closed_form_minimizer(params: CostParams) -> float:
    """Cost-minimizing critical value for Gaussian statistics with mu0 < mu1."""
    check_instance(params, CostParams, "params")
    if not (params.mu0 < params.mu1):
        raise DomainError(
            f"closed-form minimizer requires mu0 < mu1, got mu0={params.mu0}, mu1={params.mu1}"
        )
    phi = check_open_unit(params.prior_good, "prior_good")
    cost1 = check_positive(params.cost_type1, "cost_type1")
    cost2 = check_positive(params.cost_type2, "cost_type2")
    # Logs summed, as the ratio (1 - phi) cost2 / (phi cost1) can round to 0 or inf; sigma
    # factored, as sigma^2 overflows first, and a zero log term keeps the midpoint exact.
    log_term = math.log1p(-phi) - math.log(phi) + math.log(cost2) - math.log(cost1)
    return check_finite(params.sigma * (params.sigma / (params.mu0 - params.mu1) * log_term)
                        + 0.5 * (params.mu0 + params.mu1), "the closed-form minimizer")


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def numeric_minimizer(params: CostParams) -> float:
    """Golden-section search over [mu0 - 10 sigma, mu1 + 10 sigma], Newton-polished.

    Independent of the closed form; the CLI prints both and their gap.
    """
    check_instance(params, CostParams, "params")
    sigma = params.sigma
    lo = min(params.mu0, params.mu1) - 10.0 * sigma
    hi = max(params.mu0, params.mu1) + 10.0 * sigma
    width = check_finite(hi - lo, "the search bracket |mu1 - mu0| + 20 sigma")
    a, b = lo, hi
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    # c1 and c2 stay inside the finite bracket, so the loop calls the core
    f1, f2 = _expected_cost(c1, params), _expected_cost(c2, params)
    for _ in range(200):
        if b - a < 1e-10 * sigma:
            break
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _GOLDEN * (b - a)
            f1 = _expected_cost(c1, params)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLDEN * (b - a)
            f2 = _expected_cost(c2, params)
    x = 0.5 * (a + b)
    # Newton polish on the derivative, C'/C'' = sigma * (sigma C')/(sigma^2 C''); the second
    # derivative at an interior minimum is positive, so a couple of steps suffice.
    for _ in range(8):
        g1, g2 = _cost_slopes(x, params)
        if g2 <= 0.0 or not math.isfinite(g2):
            break
        step = sigma * (g1 / g2)
        if not math.isfinite(step) or abs(step) > width:
            break
        x -= step
        if abs(step) < 1e-13 * max(sigma, abs(x)):
            break
    return min(max(x, lo), hi)


class CostTrend(Enum):
    INCREASING_IN_ALPHA = "increasing_in_alpha"
    DECREASING_IN_ALPHA = "decreasing_in_alpha"
    STATIONARY = "stationary"


def cost_monotonicity_region(c: float, params: CostParams) -> CostTrend:
    """Classify how the expected cost responds to raising alpha at this threshold.

    The cost rises with alpha iff cost_ratio*(1-prior)/prior is below the
    density ratio f0(c)/f1(c); a gap between those two sides of at most
    _STATIONARY_TOL (1e-9) reports the stationary point.
    """
    c = _checked(c, params)
    phi = check_open_unit(params.prior_good, "prior_good")
    lhs = params.cost_ratio * (1.0 - phi) / phi
    # log f0(c)/f1(c) = (mu0 - mu1)(c - mu0/2 - mu1/2)/sigma^2, a difference of squares that
    # stays finite where the squares of c or sigma would not; a ratio beyond the largest
    # float exceeds every lhs.
    log_ratio = ((params.mu0 - params.mu1) * (c - 0.5 * params.mu0 - 0.5 * params.mu1)
                 / params.sigma / params.sigma)
    if log_ratio > _LOG_FLOAT_MAX:
        return CostTrend.INCREASING_IN_ALPHA
    gap = lhs - math.exp(log_ratio)
    if abs(gap) <= _STATIONARY_TOL:
        return CostTrend.STATIONARY
    return CostTrend.INCREASING_IN_ALPHA if gap < 0.0 else CostTrend.DECREASING_IN_ALPHA


def alpha_from_critical(c: float, params: CostParams) -> float:
    """Type I error probability implied by the threshold: the null law beyond c, not 1 - F0(c)."""
    return Tail.ONE_SIDED_UPPER.rejection(_standardized(_checked(c, params), params)[0], 0.0)


def critical_from_alpha(alpha: float, params: CostParams) -> float:
    """Threshold whose type I error equals alpha (inverse of alpha_from_critical)."""
    alpha = check_open_unit(alpha, "alpha")
    check_instance(params, CostParams, "params")
    return check_finite(params.mu0 + params.sigma * Tail.ONE_SIDED_UPPER.critical(alpha),
                        "the critical value for alpha")
