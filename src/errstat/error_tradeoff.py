"""Type I / type II error trade-off for a Gaussian one-sample test.

For a test of level ``alpha`` against a standardized effect ``delta`` with
``n`` observations, the one-sided-upper type II error probability is
``Phi(z_{1-alpha} - sqrt(n)*delta)``; the two-sided variant splits alpha
across both tails. The sample-size formula inverts the one-sided relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .distributions import normal_cdf, normal_quantile
from .errors import (DomainError, InfeasibleParameterError, check_finite, check_int, check_member,
                     check_open_unit, check_positive)


class Tail(Enum):
    ONE_SIDED_UPPER = "one_sided_upper"
    TWO_SIDED = "two_sided"

    def critical(self, alpha: float) -> float:
        """z_{1-alpha}, or z_{1-alpha/2} two-sided, as -quantile: exact, no 1 - alpha rounding."""
        if self is Tail.ONE_SIDED_UPPER:
            return -normal_quantile(alpha)
        return -normal_quantile(0.5 * alpha)


@dataclass(frozen=True)
class GaussianTestModel:
    """One-sample Gaussian test design: effect size delta = mu/sigma and sample count."""

    effect_size: float
    n: int = 1
    tail: Tail = Tail.ONE_SIDED_UPPER

    def __post_init__(self):
        check_finite(self.effect_size, "effect_size")
        object.__setattr__(self, "n", check_int(self.n, "n", 1))
        object.__setattr__(self, "tail", check_member(self.tail, Tail, "tail"))

    @property
    def noncentrality(self) -> float:
        """Mean of the test statistic under the alternative: sqrt(n) * delta."""
        return math.sqrt(self.n) * self.effect_size


def type2_error(alpha: float, model: GaussianTestModel) -> float:
    """Probability of failing to reject at level alpha when the effect is real."""
    alpha = check_open_unit(alpha, "alpha")
    if not isinstance(model, GaussianTestModel):
        raise DomainError(f"model must be a GaussianTestModel, got {model!r}")
    shift = model.noncentrality
    crit = model.tail.critical(alpha)
    if model.tail is Tail.ONE_SIDED_UPPER:
        return normal_cdf(crit - shift)
    return normal_cdf(crit - shift) - normal_cdf(-crit - shift)


def power(alpha: float, model: GaussianTestModel) -> float:
    """1 - type2_error: probability the test detects the modeled effect."""
    return 1.0 - type2_error(alpha, model)


def required_sample_size(alpha: float, beta: float, mu_star: float, sigma: float) -> int:
    """Smallest n giving power >= 1 - beta against an effect of magnitude mu_star.

    Evaluates ceil({sigma * (z_{1-alpha} + z_{1-beta}) / mu_star}**2) for the
    one-sided-upper test. Raises DomainError for mu_star == 0, where no
    finite sample size exists.
    """
    alpha = check_open_unit(alpha, "alpha")
    beta = check_open_unit(beta, "beta")
    mu_star = check_finite(mu_star, "mu_star")
    if mu_star == 0.0:
        raise DomainError(f"mu_star must be nonzero, got {mu_star!r}")
    sigma = check_positive(sigma, "sigma")
    z_sum = -(normal_quantile(alpha) + normal_quantile(beta))
    try:
        n = math.ceil((sigma * z_sum / mu_star) ** 2)
    except OverflowError:
        raise InfeasibleParameterError(
            f"mu_star={mu_star!r} is too small: the required sample size overflows"
        ) from None
    return max(1, n)
